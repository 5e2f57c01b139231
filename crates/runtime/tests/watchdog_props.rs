//! SLO-watchdog and critical-path properties.
//!
//! The watchdog is one pure function over a drained run
//! ([`xover_runtime::evaluate`]), so it cannot perturb the run it
//! judges. This suite pins what it reads and what it returns:
//!
//! 1. **Clean runs raise zero incidents.** Baselines are learned from
//!    the run itself, so an undisturbed workload must never burn.
//! 2. **The critical-path identity is exact.** Every request
//!    decomposed from a recorded event stream must have components
//!    that sum to its measured service window to the cycle, under
//!    clean and chaotic schedules alike — this is the
//!    `critical-path` conservation check the trace verifier runs.
//! 3. **Incidents are facts of the run.** An outcome's `finished_at`
//!    is the instant its recorded verdict carries, so the watchdog's
//!    epochs and `obs::causal`'s `ended_at` agree. Two single-worker
//!    runs of one fault burst give byte-identical incidents, and on two
//!    workers the summary does not depend on the order the outcomes
//!    come in.
//! 4. **Exports mirror the summary**: the trace annotation keeps the
//!    recording well ordered and the gauges carry the summary's fields.
//!
//! Runs use a single worker except where noted: multi-worker stealing
//! is host-scheduling-dependent, and these are determinism properties.

mod common;

use common::{single_worker, Stream};
use machine::fault::{FaultKind, FaultPlan, FaultSite};
use machine::rng::SplitMix64;
use obs::causal::check_exact;
use xover_runtime::{
    evaluate, incidents_to_json, AuthzConfig, CallError, CallVerdict, EventKind, ObsConfig,
    Registry, RuntimeConfig, ServiceReport, SwitchlessConfig, WatchdogSummary,
};

const CALLS: u64 = 600;
const SEED: u64 = 0x51_0D06;
/// The `slo` bench's burst: 160 world-lookup races armed at virtual
/// cycle 1M (epoch 10, six epochs past baseline learning).
const BURST_AT: u64 = 1_000_000;
const BURST_FAULTS: usize = 160;
const BURST_CALLS: u64 = 1_500;

fn run(obs: ObsConfig, plan: Option<FaultPlan>) -> ServiceReport {
    let config = RuntimeConfig {
        switchless: SwitchlessConfig::fixed(8),
        obs,
        ..single_worker(CALLS)
    };
    common::run(config, plan, SEED, CALLS)
}

/// The watchdog's verdict on a drained run without a gateway, with
/// causal context when the run was recorded.
fn watch(report: &ServiceReport) -> WatchdogSummary {
    let recording = report.obs.as_ref().map(|o| o.merged_events());
    evaluate(&report.outcomes, &[], recording.as_deref())
}

/// The `slo` bench's fault-burst schedule on `workers` classic-path
/// workers, recorded.
fn burst_run(workers: usize) -> ServiceReport {
    let plan = FaultPlan::new();
    for _ in 0..BURST_FAULTS {
        plan.schedule(BURST_AT, FaultSite::WorldLookupRace, FaultKind::Vanish);
    }
    let config = RuntimeConfig {
        workers,
        obs: ObsConfig::ring_with_capacity(1 << 18),
        ..single_worker(BURST_CALLS)
    };
    common::run_armed(config, Some(plan), Stream::Chaos, SEED, BURST_CALLS).0
}

/// Leg 1: an undisturbed workload burns nothing — the learned
/// baselines fit the run they were learned from.
#[test]
fn clean_run_raises_zero_incidents() {
    let wd = watch(&run(ObsConfig::ring(), None));
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
    let report = run(ObsConfig::off(), None);
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
        let report = run(ObsConfig::ring_with_capacity(1 << 16), plan);
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

/// Leg 3a: every outcome's `finished_at` is the timestamp of its
/// worker's `RequestVerdict` event. The run covers all four sites that
/// record an outcome: classic and coalesced calls, authz denials, and
/// the dead letters of a crash-looping worker.
#[test]
fn finished_at_is_the_recorded_verdict_instant() {
    let config = RuntimeConfig {
        switchless: SwitchlessConfig::fixed(8),
        obs: ObsConfig::ring_with_capacity(1 << 16),
        authz: AuthzConfig::enforcing(),
        ..single_worker(CALLS)
    };
    let (mut svc, worlds) = common::build_service(config);
    // Every world but the second tenant's user world may call: its
    // calls are denied at dispatch.
    let policy = svc.authz().expect("enforcing builds a policy").clone();
    for &w in &[worlds[0], worlds[1], worlds[3]] {
        policy.grant_all(w);
    }
    // The seeded chaos schedule plus nine early crashes, past the
    // supervisor's respawn cap of eight: the worker crash-loops and
    // dead-letters the batch in hand.
    let plan = FaultPlan::from_seed(SEED, 3_000_000, 4);
    for i in 0..9 {
        plan.schedule(
            100_000 + i * 10_000,
            FaultSite::WorkerCrash,
            FaultKind::Crash,
        );
    }
    svc.set_fault_plan(plan);
    let mut rng = SplitMix64::new(SEED);
    for tag in 0..CALLS {
        svc.submit(common::draw_request(&mut rng, &worlds, tag, Stream::Chaos))
            .expect("queue open");
    }
    svc.start();
    let report = svc.drain();

    let recorded = report.obs.as_ref().expect("recorded");
    assert_eq!(recorded.dropped(), 0, "the join needs every verdict");
    let verdict_ts: Vec<u64> = recorded.worker_rings[0]
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::RequestVerdict)
        .map(|e| e.ts)
        .collect();
    assert_eq!(verdict_ts.len(), report.outcomes.len());
    for (i, (o, &ts)) in report.outcomes.iter().zip(&verdict_ts).enumerate() {
        assert_eq!(o.finished_at, ts, "outcome {i} ({:?})", o.verdict);
    }
    let o = &report.outcomes;
    assert!(o
        .iter()
        .any(|o| !o.coalesced && o.verdict == CallVerdict::Completed));
    assert!(o.iter().any(|o| o.coalesced));
    assert!(o
        .iter()
        .any(|o| matches!(o.verdict, CallVerdict::Denied(_))));
    assert!(o.iter().any(|o| matches!(
        o.verdict,
        CallVerdict::DeadLettered(CallError::CrashLoop { .. })
    )));
}

/// Leg 3b: at one worker the run is deterministic in virtual time, so
/// two runs of the fault burst yield byte-identical incidents.
#[test]
fn single_worker_incidents_reproduce_byte_for_byte() {
    let first = incidents_to_json(&watch(&burst_run(1)));
    let second = incidents_to_json(&watch(&burst_run(1)));
    assert!(first.contains("dead_letter_budget"), "the burst must burn");
    assert_eq!(first, second);
}

/// Leg 3c: on two workers the verdict order depends on the host, but
/// the watchdog's answer does not: the outcomes in a seeded shuffled
/// order give the identical summary.
#[test]
fn evaluation_ignores_outcome_order() {
    let report = burst_run(2);
    let recording = report.obs.as_ref().expect("recorded").merged_events();
    let summary = evaluate(&report.outcomes, &[], Some(&recording));
    assert!(!summary.incidents.is_empty(), "the burst must burn");
    let mut shuffled = report.outcomes.clone();
    let mut rng = SplitMix64::new(SEED);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.below(i as u64 + 1) as usize);
    }
    assert_ne!(shuffled, report.outcomes, "the shuffle moved something");
    assert_eq!(evaluate(&shuffled, &[], Some(&recording)), summary);
}

/// Leg 4a: incident annotations merge into a recorded trace without
/// breaking its `(ts, submit-first)` order or its conservation checks.
#[test]
fn annotated_trace_stays_well_ordered() {
    let report = burst_run(1);
    let mut doc = xover_runtime::trace_doc("watchdog_props", &report, 3.4).expect("obs on");
    let wd = watch(&report);
    assert!(!wd.incidents.is_empty());
    xover_runtime::annotate_trace(&mut doc, &wd);
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

/// Leg 4b: the exported gauges carry the summary's fields, one gauge
/// group per incident.
#[test]
fn registry_gauges_mirror_the_summary() {
    let wd = watch(&burst_run(1));
    assert!(!wd.incidents.is_empty());
    let mut reg = Registry::new();
    xover_runtime::annotate_registry(&mut reg, &wd);
    let gauge = |name: &str| {
        reg.counter(name)
            .unwrap_or_else(|| panic!("no gauge {name}"))
    };
    assert_eq!(gauge("xover_slo_incidents"), wd.incidents.len() as u64);
    assert_eq!(gauge("xover_slo_epochs_evaluated"), wd.epochs_evaluated);
    assert_eq!(
        gauge("xover_slo_baseline_ready"),
        u64::from(wd.baseline_ready)
    );
    for (i, inc) in wd.incidents.iter().enumerate() {
        assert_eq!(gauge(&format!("xover_incident{i}_epoch")), inc.epoch);
        assert_eq!(
            gauge(&format!("xover_incident{i}_objective_code")),
            inc.objective.code()
        );
        assert_eq!(
            gauge(&format!("xover_incident{i}_subject")),
            inc.objective.subject()
        );
        assert_eq!(
            gauge(&format!("xover_incident{i}_burn_short_x100")),
            inc.burn_short_x100
        );
        assert_eq!(
            gauge(&format!("xover_incident{i}_burn_long_x100")),
            inc.burn_long_x100
        );
        let top = inc.top_contributor().expect("recorded run").index() as u64;
        assert_eq!(gauge(&format!("xover_incident{i}_top_component")), top);
    }
    let n = wd.incidents.len();
    assert_eq!(reg.counter(&format!("xover_incident{n}_epoch")), None);
}
