//! SLO-watchdog and critical-path properties.
//!
//! That an armed watchdog is cycle-invisible, on clean and faulted
//! schedules, is pinned by the plane parity table (`tests/parity.rs`).
//! This suite pins the rest:
//!
//! 1. **Clean runs raise zero incidents.** Baselines are learned from
//!    the run itself, so an undisturbed workload must never burn.
//! 2. **The critical-path identity is exact.** Every request
//!    decomposed from a recorded event stream must have components
//!    that sum to its measured service window to the cycle, under
//!    clean and chaotic schedules alike — this is the
//!    `critical-path` conservation check the trace verifier runs.
//!
//! All runs use a single worker: multi-worker stealing is
//! host-scheduling-dependent, and these are determinism properties.

mod common;

use common::single_worker;
use machine::fault::FaultPlan;
use obs::causal::check_exact;
use xover_runtime::{ObsConfig, RuntimeConfig, ServiceReport, SwitchlessConfig, WatchdogMode};

const CALLS: u64 = 600;
const SEED: u64 = 0x51_0D06;

fn run(watchdog: WatchdogMode, obs: ObsConfig, plan: Option<FaultPlan>) -> ServiceReport {
    let config = RuntimeConfig {
        switchless: SwitchlessConfig::fixed(8),
        watchdog,
        obs,
        ..single_worker(CALLS)
    };
    common::run(config, plan, SEED, CALLS)
}

/// Leg 1: an undisturbed workload burns nothing — the learned
/// baselines fit the run they were learned from.
#[test]
fn clean_run_raises_zero_incidents() {
    let report = run(WatchdogMode::On, ObsConfig::ring(), None);
    let wd = report.watchdog.as_ref().expect("armed watchdog reports");
    assert!(wd.baseline_ready, "run long enough to finish learning");
    assert!(wd.epochs_evaluated > 0);
    assert_eq!(
        wd.incidents.len(),
        0,
        "clean run must not breach: {:?}",
        wd.incidents
    );
}

/// Leg 1b: the exported per-tenant latency histograms partition the
/// completed stream and carry sane percentiles.
#[test]
fn tenant_latency_digests_partition_completions() {
    let report = run(WatchdogMode::Off, ObsConfig::off(), None);
    let reg = xover_runtime::metrics_registry(&report);
    let hists: Vec<_> = report
        .per_tenant
        .iter()
        .filter_map(|t| reg.histogram(&format!("xover_tenant{}_latency_cycles", t.tenant)))
        .collect();
    assert!(!hists.is_empty());
    let total: u64 = hists.iter().map(|h| h.count()).sum();
    assert_eq!(total, report.completed, "per-tenant histograms partition");
    for h in hists {
        let (p50, p99) = (h.value_at_percentile(50.0), h.value_at_percentile(99.0));
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert!(p99 >= h.min());
        assert!(p99 <= h.max());
    }
}

/// Leg 2: the critical-path identity — components sum to the measured
/// window for *every* request — holds on a clean recorded run, and
/// under every seeded fault schedule (retries, respawns, quarantines
/// all decompose exactly).
#[test]
fn critical_path_identity_is_cycle_exact() {
    for plan in [None, Some(FaultPlan::from_seed(0xC41_1DA7, 3_000_000, 4))] {
        let label = if plan.is_some() { "chaos" } else { "clean" };
        let report = run(
            WatchdogMode::Off,
            ObsConfig::ring_with_capacity(1 << 16),
            plan,
        );
        let recorded = report.obs.as_ref().expect("recorded");
        assert_eq!(recorded.dropped(), 0, "{label}: identity needs lossless");
        let (paths, violations) = check_exact(&recorded.merged_events());
        assert!(
            violations.is_empty(),
            "{label}: critical-path identity violated: {violations:?}"
        );
        assert_eq!(
            paths.len(),
            report.outcomes.len(),
            "{label}: every outcome must decompose"
        );
        // And the exporter's own conservation run agrees (check 9).
        let doc = xover_runtime::trace_doc("watchdog_props", &report, 3.4).expect("obs on");
        let conservation = xover_runtime::verify(&doc);
        assert!(
            conservation.ok(),
            "{label}: conservation failed: {:?}",
            conservation.failures()
        );
    }
}

/// Incident annotations merge into a recorded trace without breaking
/// its `(ts, submit-first)` order or its conservation checks.
#[test]
fn annotated_trace_stays_well_ordered() {
    let report = run(WatchdogMode::On, ObsConfig::ring(), None);
    let mut doc = xover_runtime::trace_doc("watchdog_props", &report, 3.4).expect("obs on");
    let wd = report.watchdog.as_ref().expect("armed");
    xover_runtime::annotate_trace(&mut doc, wd);
    for pair in doc.events.windows(2) {
        assert!(pair[0].ts <= pair[1].ts, "annotation broke time order");
    }
    let conservation = xover_runtime::verify(&doc);
    assert!(
        conservation.ok(),
        "annotated doc must still verify: {:?}",
        conservation.failures()
    );
}
