//! Regenerates the paper's tables and figures as text reports.
//!
//! ```text
//! tables --all            # everything
//! tables --table 4        # one table (1, 3, 4, 5, 6, 7)
//! tables --figure 2       # one figure (1..5)
//! tables --ablations      # the designs the paper rejects
//! ```

use xover_bench::reports;

fn usage() -> ! {
    eprintln!("usage: tables [--all] [--table N]... [--figure N]... [--ablations]");
    eprintln!("  tables: 1, 3, 4, 5, 6, 7   figures: 1, 2, 3, 4, 5");
    std::process::exit(2);
}

fn print_table(n: u32) {
    let report = match n {
        1 => reports::table1(),
        3 => reports::table3(),
        4 => reports::table4(),
        5 => reports::table5(),
        6 => reports::table6(),
        7 => reports::table7(),
        _ => {
            eprintln!("no table {n} in the paper's evaluation (valid: 1, 3, 4, 5, 6, 7)");
            std::process::exit(2);
        }
    };
    println!("{report}");
}

fn print_figure(n: u32) {
    let report = match n {
        1 => reports::figure1(),
        2 => reports::figure2(),
        3 => reports::figure3(),
        4 => reports::figure4(),
        5 => reports::figure5(),
        _ => {
            eprintln!("no figure {n} in the paper (valid: 1..5)");
            std::process::exit(2);
        }
    };
    println!("{report}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => {
                for t in [1, 3, 4, 5, 6, 7] {
                    print_table(t);
                }
                for f in 1..=5 {
                    print_figure(f);
                }
                i += 1;
            }
            "--table" => {
                let n = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                print_table(n);
                i += 2;
            }
            "--figure" => {
                let n = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                print_figure(n);
                i += 2;
            }
            "--ablations" => {
                println!("{}", reports::ablations());
                i += 1;
            }
            _ => usage(),
        }
    }
}
