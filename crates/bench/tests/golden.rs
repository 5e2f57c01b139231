//! The paper's tables, figures, ablations and sweeps, byte for byte.
//!
//! Every number these reports print is modelled cycles or counts, so a
//! change to any price in `machine::cost::CostModel::haswell_3_4ghz`, to a
//! transition sequence or to a report's format shows up here. When such a
//! change is intended, regenerate the files and review their diff:
//!
//! ```text
//! cargo run --release -p xover-bench --bin tables -- --all > crates/bench/golden/tables_all.txt
//! cargo run --release -p xover-bench --bin tables -- --ablations > crates/bench/golden/ablations.txt
//! cargo run --release -p xover-bench --bin sweeps -- all > crates/bench/golden/sweeps_all.txt
//! ```

use std::process::Command;

fn assert_golden(bin: &str, args: &[&str], golden: &str) {
    let out = Command::new(bin).args(args).output().expect("run binary");
    assert!(out.status.success(), "{bin} {args:?} exited {}", out.status);
    let path = format!("{}/golden/{golden}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).expect("read golden file");
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    if let Some((line, (g, w))) = got
        .split('\n')
        .zip(want.split('\n'))
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!(
            "{bin} {args:?} differs from {path} at line {}:\n  got:  {g}\n  want: {w}",
            line + 1
        );
    }
    assert_eq!(got, want, "{bin} {args:?} differs from {path} in length");
}

#[test]
fn reports_match_golden_files() {
    let tables = env!("CARGO_BIN_EXE_tables");
    assert_golden(tables, &["--all"], "tables_all.txt");
    assert_golden(tables, &["--ablations"], "ablations.txt");
    assert_golden(env!("CARGO_BIN_EXE_sweeps"), &["all"], "sweeps_all.txt");
}
