//! Observability-plane properties.
//!
//! The flight recorder's contract has three legs:
//!
//! 1. **Off is free, on is cycle-invisible.** `ObsConfig::off()` (the
//!    default) must be bit-for-bit identical to PR-4 behavior, and
//!    because events charge zero virtual cycles, `ObsConfig::ring()`
//!    must produce the *same* virtual-time numbers too — same verdicts,
//!    same latencies, same meters, same cache statistics. Recording may
//!    only cost host time, never simulated time.
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

use xover_runtime::{
    build_spans, trace_doc, CallRequest, CallVerdict, EventKind, ObsConfig, RuntimeConfig,
    ServiceReport, SwitchlessConfig, WorldCallService,
};

use machine::rng::SplitMix64;

const SEED: u64 = 0x0B5E_2BE5;
const CALLS: u64 = 600;
const WORKING_SET_PAGES: u64 = 8;

/// Two tenants × (user + kernel) with working sets and switchless
/// channels, so traced runs exercise the coalesced path, the TLB and
/// both caches — the paths with emission sites.
fn build_service(
    obs: ObsConfig,
    switchless: SwitchlessConfig,
) -> (WorldCallService, Vec<crossover::world::Wid>) {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers: 1,
        queue_capacity: CALLS as usize + 16,
        batch_max: 32,
        switchless,
        obs,
        ..RuntimeConfig::default()
    });
    let mut worlds = Vec::new();
    for t in 0..2u64 {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("obs-{t}")))
            .expect("create vm");
        let user = svc
            .register_guest_user(vm, 0x1000 * (t + 1), 0x40_0000)
            .expect("register user world");
        let kernel = svc
            .register_guest_kernel(vm, 0x10_0000 * (t + 1), 0xFFFF_8000)
            .expect("register kernel world");
        for &w in &[user, kernel] {
            svc.attach_working_set(w, vm, WORKING_SET_PAGES)
                .expect("attach working set");
            svc.attach_channel(w, vm).expect("attach channel");
        }
        worlds.push(user);
        worlds.push(kernel);
    }
    (svc, worlds)
}

/// Skewed request stream (half the draws hit a hot pair, so channels
/// engage); 5% abusive so timeout verdicts appear in the span joins.
/// Each request is tagged with its draw index for the span join test.
fn draw_request(rng: &mut SplitMix64, worlds: &[crossover::world::Wid], i: u64) -> CallRequest {
    let (caller, callee) = loop {
        let (a, b) = if rng.flip() {
            (worlds[0], worlds[1])
        } else {
            (
                worlds[rng.below(worlds.len() as u64) as usize],
                worlds[rng.below(worlds.len() as u64) as usize],
            )
        };
        if a != b {
            break (a, b);
        }
    };
    let work_cycles = 1_000 + rng.below(2_000);
    let mut req = CallRequest::new(caller, callee, work_cycles, work_cycles / 3)
        .with_touches(rng.below(WORKING_SET_PAGES))
        .with_tag(i);
    if rng.chance(0.05) {
        req = req.with_budget(work_cycles / 4);
    }
    req
}

fn run(obs: ObsConfig) -> ServiceReport {
    run_with(obs, SwitchlessConfig::fixed(8))
}

fn run_with(obs: ObsConfig, switchless: SwitchlessConfig) -> ServiceReport {
    let (mut svc, worlds) = build_service(obs, switchless);
    let mut rng = SplitMix64::new(SEED);
    for i in 0..CALLS {
        svc.submit(draw_request(&mut rng, &worlds, i))
            .expect("queue open");
    }
    svc.start();
    svc.drain()
}

/// Everything virtual-time-observable must match across obs off / on.
fn assert_virtually_identical(a: &ServiceReport, b: &ServiceReport, label: &str) {
    assert_eq!(a.outcomes, b.outcomes, "{label}: outcome streams diverge");
    assert_eq!(
        a.smp.total_cycles(),
        b.smp.total_cycles(),
        "{label}: total cycles diverge"
    );
    assert_eq!(
        a.smp.makespan_cycles(),
        b.smp.makespan_cycles(),
        "{label}: makespan diverges"
    );
    assert_eq!(a.wt, b.wt, "{label}: WT stats diverge");
    assert_eq!(a.iwt, b.iwt, "{label}: IWT stats diverge");
    assert_eq!(a.tlb, b.tlb, "{label}: TLB stats diverge");
    assert_eq!(
        a.queue_wait_cycles, b.queue_wait_cycles,
        "{label}: queue wait diverges"
    );
    assert_eq!(
        a.switchless.world_calls, b.switchless.world_calls,
        "{label}: world_call counts diverge"
    );
    assert_eq!(
        a.switchless.world_returns, b.switchless.world_returns,
        "{label}: world_return counts diverge"
    );
}

/// Leg 1: `Off` equals the default config (no behavioral knob leaked),
/// and `Ring` is cycle-exact against `Off` — recording charges nothing.
#[test]
fn obs_off_and_on_are_virtually_identical() {
    let default_cfg = run(ObsConfig::default());
    let off = run(ObsConfig::off());
    let on = run(ObsConfig::ring());

    assert!(default_cfg.obs.is_none(), "default must not record");
    assert!(off.obs.is_none(), "off must not record");
    assert_virtually_identical(&default_cfg, &off, "default vs off");
    assert_virtually_identical(&off, &on, "off vs ring");

    let recorded = on.obs.as_ref().expect("ring mode must record");
    assert_eq!(recorded.dropped(), 0, "default capacity must not drop");
    assert!(recorded.total_events() > 0, "a traced run must have events");
}

/// Leg 1b: the recording's conservation invariant holds — per-kind obs
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

/// Leg 1c: a recorded adaptive run moves real budgets, and `verify`'s
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
    assert_virtually_identical(&big, &small, "big vs small capacity");

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
