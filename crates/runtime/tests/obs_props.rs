//! Observability-plane properties.
//!
//! That recording is cycle-invisible (obs on vs off) is pinned by the
//! plane parity table (`tests/parity.rs`). This suite pins the rest of
//! the flight recorder's contract:
//!
//! 1. **Recordings conserve.** Per-kind event counts equal the
//!    machine-level transition counts, and every budget change names
//!    its epoch fold.
//! 2. **Overflow is head-anchored and exactly counted.** A ring that
//!    fills keeps its oldest `capacity` events (the run's beginning is
//!    what a flight recorder must preserve), drops the newest, and
//!    reports the exact drop count; total_seen is capacity-independent.
//! 3. **Spans stitch back to outcomes.** Every span built from the
//!    event stream joins 1:1 with a drained `CallOutcome` on `seq`,
//!    with matching verdict / queue wait / steal / coalesce bits.
//!
//! All runs here use a single worker: multi-worker stealing is
//! host-scheduling-dependent, and these are determinism properties.

mod common;

use common::{assert_cycle_exact, single_worker};
use xover_runtime::{
    build_spans, trace_doc, CallVerdict, EventKind, ObsConfig, RuntimeConfig, ServiceReport,
    SwitchlessConfig,
};

const SEED: u64 = 0x0B5E_2BE5;
const CALLS: u64 = 600;

fn run(obs: ObsConfig) -> ServiceReport {
    run_with(obs, SwitchlessConfig::fixed(8))
}

fn run_with(obs: ObsConfig, switchless: SwitchlessConfig) -> ServiceReport {
    let config = RuntimeConfig {
        switchless,
        obs,
        ..single_worker(CALLS)
    };
    common::run(config, None, SEED, CALLS)
}

/// Leg 1: the recording's conservation invariant holds — per-kind obs
/// counts equal the machine-level transition counts, and the exporter's
/// own `verify` agrees.
#[test]
fn lossless_recording_conserves_transition_counts() {
    let report = run(ObsConfig::ring());
    let doc = trace_doc("obs_props", &report, 3.4).expect("obs enabled");
    assert_eq!(
        doc.count("world_call"),
        Some(report.switchless.world_calls),
        "obs world_call events must equal the machine count"
    );
    assert_eq!(
        doc.count("world_return"),
        Some(report.switchless.world_returns),
        "obs world_return events must equal the machine count"
    );
    let conservation = xover_runtime::verify(&doc);
    assert!(
        conservation.ok(),
        "conservation checks failed: {:?}",
        conservation.failures()
    );
    // The document must survive its own serialization.
    let round = xover_runtime::TraceDoc::parse(&doc.render_json()).expect("round-trip");
    assert_eq!(round.events.len(), doc.events.len());
    assert_eq!(round.counts, doc.counts);
}

/// Leg 1b: a recorded adaptive run moves real budgets, and `verify`'s
/// budget-changes-vs-folds check (which synthetic unit events otherwise
/// exercise alone) passes on it: every `BudgetGrow`/`BudgetShrink` the
/// switchless controller's fold emits names a recorded epoch fold.
#[test]
fn adaptive_recording_ties_every_budget_change_to_its_fold() {
    let report = run_with(
        ObsConfig::ring(),
        SwitchlessConfig {
            epoch_cycles: 50_000,
            ..SwitchlessConfig::adaptive()
        },
    );
    let doc = trace_doc("obs_props", &report, 3.4).expect("obs enabled");
    assert_eq!(doc.dropped, 0, "the check needs a lossless recording");
    let moves = doc
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::BudgetGrow | EventKind::BudgetShrink))
        .count();
    assert!(moves > 0, "the adaptive fold moved no budget");
    let conservation = xover_runtime::verify(&doc);
    let check = conservation
        .checks
        .iter()
        .find(|c| c.name == "budget-changes-vs-folds")
        .expect("budget changes were recorded, so the check must run");
    assert!(check.passed, "budget check failed: {}", check.detail);
    assert!(
        conservation.ok(),
        "conservation checks failed: {:?}",
        conservation.failures()
    );
}

/// Leg 2: a deliberately tiny ring keeps the oldest events, drops the
/// newest, counts drops exactly, and sees the same event stream as a
/// ring large enough to never drop.
#[test]
fn ring_overflow_is_head_anchored_and_exactly_counted() {
    let big = run(ObsConfig::ring());
    let small = run(ObsConfig::ring_with_capacity(64));

    // Virtual behavior is capacity-independent.
    assert_cycle_exact(&big, &small, "big vs small capacity");

    let big_obs = big.obs.as_ref().expect("recorded");
    let small_obs = small.obs.as_ref().expect("recorded");
    assert_eq!(big_obs.dropped(), 0);
    assert!(small_obs.dropped() > 0, "64-slot rings must overflow here");

    for (ring_big, ring_small) in big_obs.worker_rings.iter().zip(&small_obs.worker_rings) {
        // Exact accounting: kept + dropped == seen, on both sides.
        assert_eq!(
            ring_small.len() as u64 + ring_small.dropped(),
            ring_small.total_seen()
        );
        assert_eq!(ring_big.total_seen(), ring_small.total_seen());
        // Head-anchored: the small ring's contents are exactly the
        // first `len` events the big ring saw — same order, no gaps.
        assert_eq!(
            ring_small.events(),
            &ring_big.events()[..ring_small.len()],
            "overflow must preserve the oldest events verbatim"
        );
    }
}

/// Leg 3: spans stitched from the event stream join 1:1 with drained
/// outcomes on `seq`, with matching verdict and phase attribution.
#[test]
fn spans_join_outcomes_one_to_one() {
    let report = run(ObsConfig::ring());
    let recorded = report.obs.as_ref().expect("recorded");
    assert_eq!(recorded.dropped(), 0, "join test needs a lossless ring");

    let spans = build_spans(&recorded.merged_events());
    assert_eq!(
        spans.len(),
        report.outcomes.len(),
        "every outcome must stitch to exactly one span"
    );

    // Outcomes carry the submission tag (== draw index == seq here,
    // because submissions are single-threaded and in order).
    for span in &spans {
        let outcome = report
            .outcomes
            .iter()
            .find(|o| o.request.tag == span.seq)
            .expect("span seq must match a drained outcome's tag");
        let verdict_code = match &outcome.verdict {
            CallVerdict::Completed => 0,
            CallVerdict::TimedOut => 1,
            CallVerdict::Failed(_) => 2,
            CallVerdict::DeadLettered(_) => 3,
            CallVerdict::Denied(_) => 4,
        };
        assert_eq!(
            span.verdict, verdict_code,
            "verdict mismatch at {}",
            span.seq
        );
        assert_eq!(
            span.queue_wait, outcome.queue_wait_cycles,
            "queue-wait phase mismatch at {}",
            span.seq
        );
        assert_eq!(span.stolen, outcome.stolen, "steal bit mismatch");
        assert_eq!(span.coalesced, outcome.coalesced, "coalesce bit mismatch");
        assert_eq!(
            span.caller,
            outcome.request.caller.raw(),
            "caller mismatch at {}",
            span.seq
        );
    }
}
