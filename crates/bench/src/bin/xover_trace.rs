//! `xover-trace`: replay a recorded run and hold it to its invariants.
//!
//! Reads a combined Perfetto/recording document (the `--trace-out`
//! output of `hotpath`, `switchless`, `faults`, `scale`, `gateway`,
//! `authz` or `slo`), stitches the per-request span tree back out of
//! the event stream, prints the top-N slowest spans with their phase
//! breakdown (queue wait vs on-CPU service), prints the causal
//! critical-path decomposition (where the recorded cycles actually
//! went, component by component), and runs the conservation checks:
//!
//! * per-kind obs `world_call`/`world_return` counts equal the
//!   machine-level `Trace` counts recorded alongside (lossless runs);
//! * every track's timestamps are monotone;
//! * spans stitch cleanly (no duplicate or orphaned verdicts);
//! * no span ends after the makespan, and no worker's summed span
//!   service time exceeds the makespan.
//!
//! Any failed check exits nonzero, so CI can gate on a recording being
//! trustworthy, not merely well-formed.
//!
//! Usage: `xover-trace <recording.json> [--top N]`

use obs::causal::analyze;
use obs::{top_slowest, verify, TraceDoc};

fn main() {
    let mut path = None;
    let mut top_n = 10usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                top_n = it
                    .next()
                    .expect("--top needs a value")
                    .parse()
                    .expect("--top must be an integer");
            }
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            positional => path = Some(positional.to_string()),
        }
    }
    let path = path.unwrap_or_else(|| {
        eprintln!("usage: xover-trace <recording.json> [--top N]");
        std::process::exit(2);
    });
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("xover-trace: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let doc = TraceDoc::parse(&text).unwrap_or_else(|e| {
        eprintln!("xover-trace: cannot parse {path}: {e}");
        std::process::exit(2);
    });

    let spans = doc.spans();
    println!(
        "{}: {} workers, {} events ({} dropped), {} spans, makespan {} cycles",
        doc.benchmark,
        doc.workers,
        doc.events.len(),
        doc.dropped,
        spans.len(),
        doc.makespan_cycles,
    );

    println!(
        "\nslowest {} spans (end-to-end = queue wait + service):",
        top_n
    );
    println!(
        "{:>8} {:>4} {:>12} {:>14} {:>14} {:>12} verdict",
        "seq", "wkr", "route", "total cyc", "queue cyc", "service cyc"
    );
    for s in top_slowest(&spans, top_n) {
        println!(
            "{:>8} {:>4} {:>12} {:>14} {:>14} {:>12} {}{}{}",
            s.seq,
            s.worker,
            format!("w{}\u{2192}w{}", s.caller, s.callee),
            s.total_cycles(),
            s.queue_wait,
            s.service_cycles(),
            s.verdict_name(),
            if s.coalesced { " [coalesced]" } else { "" },
            if s.stolen { " [stolen]" } else { "" },
        );
    }

    // Causal decomposition: the same events, attributed. Components sum
    // to queue wait + service for every request (the `critical-path`
    // conservation check below holds this to the cycle).
    let causal = analyze(&doc.events);
    let attributed: u64 = causal.totals.iter().sum();
    println!(
        "\ncritical-path decomposition ({} paths, {} cycles attributed):",
        causal.paths.len(),
        attributed
    );
    for (component, cycles) in causal.ranked() {
        println!(
            "  {:>11} {:>14} cyc  {:>5.1}%",
            component.name(),
            cycles,
            100.0 * cycles as f64 / attributed.max(1) as f64
        );
    }

    let report = verify(&doc);
    println!("\nconservation checks:");
    for check in &report.checks {
        println!(
            "  [{}] {}: {}",
            if check.passed { "ok" } else { "FAIL" },
            check.name,
            check.detail
        );
    }
    if !report.ok() {
        eprintln!(
            "xover-trace: {} conservation check(s) failed",
            report.failures().len()
        );
        std::process::exit(1);
    }
    println!("all checks passed");
}
