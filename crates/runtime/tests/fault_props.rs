//! Fault-injection properties: the self-healing runtime's contract.
//!
//! Three invariants pin the fault plane (`machine::fault`) and the
//! supervisor's healing policies to the behavior the design promises:
//!
//! 1. **Empty plan = no plan, bit for bit.** An installed-but-empty
//!    [`FaultPlan`] must leave the runtime cycle-exact against a run
//!    with no plan at all: same verdicts in the same order, same meters,
//!    zero supervisor activity. The fault plane is free when silent.
//! 2. **Exactly one verdict per call, under every seeded schedule.**
//!    Whatever a generated plan injects — stalls, crashes, IPI loss,
//!    slot corruption, EPT denials, dropped invalidations, lookup races
//!    — every submitted request resolves to exactly one outcome (its
//!    unique tag appears exactly once) and the verdict counters sum to
//!    the stream length. Nothing is lost, nothing is duplicated.
//! 3. **Deferred invalidations heal at the next batch boundary.** A
//!    dropped retirement lets stale WT/IWT entries survive one batch
//!    (the fault is real and observable), after which the deferred
//!    purge applies and calls against the deleted world fail.
//!
//! Plus the PR's corner case: a *saturated* switchless channel whose
//! caller world is deleted in the same epoch must drain with classic
//! verdict ordering preserved — a completed prefix, then a failed
//! suffix, with no interleaving.

use std::time::Duration;

use machine::fault::{FaultKind, FaultPlan, FaultSite};
use machine::rng::SplitMix64;
use xover_runtime::{
    CallRequest, CallVerdict, RuntimeConfig, ServiceReport, SwitchlessConfig, WorldCallService,
};

const PARITY_CALLS: u64 = 600;
const CHAOS_CALLS: u64 = 400;
const CHAOS_SEEDS: [u64; 8] = [
    0x0001,
    0xBEEF,
    0x5EED_CAFE,
    0xDEAD_10CC,
    0x0F00_BA44,
    0x7777_7777,
    0x0C0F_FEE0,
    0x41,
];
const WORKING_SET_PAGES: u64 = 8;

/// Two tenants × (user + kernel), all with working sets and channels, so
/// both execution paths and the memory path are exercised.
fn build_service(config: RuntimeConfig) -> (WorldCallService, Vec<crossover::world::Wid>) {
    let mut svc = WorldCallService::new(config);
    let mut worlds = Vec::new();
    for t in 0..2u64 {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("fault-{t}")))
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

/// Skewed draws with touches and a 5% abusive-budget fraction, tagged
/// with their submission index for one-to-one verdict accounting.
fn draw_request(rng: &mut SplitMix64, worlds: &[crossover::world::Wid], tag: u64) -> CallRequest {
    let (caller, callee) = loop {
        let (a, b) = if rng.flip() {
            (worlds[0], worlds[1]) // hot pair reaches the coalescing gate
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
    let work_cycles = 2_000 + rng.below(2_000);
    let mut req = CallRequest::new(caller, callee, work_cycles, work_cycles / 3)
        .with_touches(rng.below(2 * WORKING_SET_PAGES))
        .with_tag(tag);
    if rng.chance(0.05) {
        req = req.with_budget(work_cycles / 4);
    }
    req
}

fn run(plan: Option<FaultPlan>, workers: usize, calls: u64) -> ServiceReport {
    let (mut svc, worlds) = build_service(RuntimeConfig {
        workers,
        queue_capacity: calls as usize + 16,
        batch_max: 32,
        switchless: SwitchlessConfig::fixed(8),
        ..RuntimeConfig::default()
    });
    if let Some(plan) = plan {
        svc.set_fault_plan(plan);
    }
    let mut rng = SplitMix64::new(0xFA_117);
    for tag in 0..calls {
        svc.submit(draw_request(&mut rng, &worlds, tag))
            .expect("queue open");
    }
    svc.start();
    svc.drain()
}

/// Invariant 1: an installed-but-empty plan is indistinguishable from no
/// plan at all — outcome stream, meters and supervisor counters are all
/// identical. Single worker, so both runs are fully deterministic in
/// virtual time and can be zipped index by index.
#[test]
fn empty_fault_plan_is_cycle_exact_against_no_plan() {
    let bare = run(None, 1, PARITY_CALLS);
    let armed = run(Some(FaultPlan::new()), 1, PARITY_CALLS);
    assert_eq!(bare.outcomes.len(), armed.outcomes.len());
    for (i, (a, b)) in bare.outcomes.iter().zip(armed.outcomes.iter()).enumerate() {
        assert_eq!(a.request, b.request, "request order diverged at {i}");
        assert_eq!(a.verdict, b.verdict, "verdict diverged at {i}");
        assert_eq!(
            a.latency_cycles, b.latency_cycles,
            "service latency diverged at {i}"
        );
        assert_eq!(a.coalesced, b.coalesced, "execution path diverged at {i}");
    }
    assert_eq!(
        bare.smp.total_cycles(),
        armed.smp.total_cycles(),
        "an empty fault plan must cost zero cycles"
    );
    assert_eq!(
        bare.smp.makespan_cycles(),
        armed.smp.makespan_cycles(),
        "an empty fault plan must not move the makespan"
    );
    assert_eq!(armed.dead_lettered, 0);
    assert_eq!(armed.supervisor.totals.faults_observed(), 0);
    assert_eq!(armed.supervisor.totals.respawns, 0);
    assert_eq!(armed.supervisor.totals.backoff_cycles, 0);
    assert_eq!(armed.supervisor.degrade_escalations, 0);
    assert_eq!(armed.smp.total_ipi_dropped(), 0);
}

/// Invariant 2: exactly one verdict per submitted call, for every seeded
/// fault schedule and worker count. Tags are unique, so a
/// lost request leaves a hole and a duplicated one a collision — both
/// are caught by the same multiset check.
#[test]
fn every_call_resolves_exactly_once_under_seeded_chaos() {
    for (i, seed) in CHAOS_SEEDS.into_iter().enumerate() {
        let workers = 1 + (i % 4);
        let plan = FaultPlan::from_seed(seed, 3_000_000, 4);
        assert!(!plan.is_empty(), "seeded plan must carry events");
        let report = run(Some(plan), workers, CHAOS_CALLS);

        assert_eq!(
            report.outcomes.len() as u64,
            CHAOS_CALLS,
            "seed {seed:#x}: every submitted call must produce an outcome"
        );
        let mut seen = vec![0u32; CHAOS_CALLS as usize];
        for o in &report.outcomes {
            seen[o.request.tag as usize] += 1;
        }
        for (tag, &count) in seen.iter().enumerate() {
            assert_eq!(
                count, 1,
                "seed {seed:#x}: tag {tag} resolved {count} times (want exactly 1)"
            );
        }
        assert_eq!(
            report.completed + report.timed_out + report.failed + report.dead_lettered,
            CHAOS_CALLS,
            "seed {seed:#x}: verdict counters must partition the stream"
        );
        assert_eq!(
            report.supervisor.worker_panics, 0,
            "seed {seed:#x}: injected faults must heal, not panic"
        );
    }
}

/// Invariant 3: an injected `InvalidationDrop` defers a pulled
/// retirement by exactly one batch — the stale window is real (a post-delete call
/// can still complete off the warm WT/IWT caches) — and the deferred
/// purge applies at the next batch boundary, after which calls against
/// the deleted world fail.
#[test]
fn dropped_invalidation_defers_one_batch_then_heals() {
    let (mut svc, worlds) = build_service(RuntimeConfig {
        workers: 1,
        queue_capacity: 512,
        ..RuntimeConfig::default()
    });
    let plan = FaultPlan::new().with(0, FaultSite::InvalidationDrop, FaultKind::Drop);
    svc.set_fault_plan(plan);
    let plan = svc.fault_plan().expect("plan installed").clone();
    let caller = worlds[0];
    let victim = worlds[1];
    svc.start();

    // Warm the worker's caches on the soon-to-die pair, then let the
    // pool go idle so the next batch is ours.
    for _ in 0..8 {
        svc.submit(CallRequest::new(caller, victim, 500, 100).with_tag(1))
            .expect("queue open");
    }
    std::thread::sleep(Duration::from_millis(300));

    // Delete, then immediately aim one call at the corpse. The worker
    // can only learn of the delete at its next batch boundary — where
    // the injected drop defers the purge — so this call executes
    // against the stale cache entry and completes: the fault window.
    svc.delete_world(victim).expect("delete victim");
    svc.submit(CallRequest::new(caller, victim, 500, 100).with_tag(2))
        .expect("queue open");
    std::thread::sleep(Duration::from_millis(300));

    // Next batch: the deferred purge applies *before* execution, so
    // these calls miss the cache, walk the table, and fail.
    for _ in 0..4 {
        svc.submit(CallRequest::new(caller, victim, 500, 100).with_tag(3))
            .expect("queue open");
    }
    let report = svc.drain();

    assert_eq!(plan.fired_total(), 1, "the scheduled drop must fire");
    assert_eq!(
        report.supervisor.totals.invalidation_defers, 1,
        "exactly one retirement application deferred"
    );
    let verdict_of = |tag: u64| -> Vec<&CallVerdict> {
        report
            .outcomes
            .iter()
            .filter(|o| o.request.tag == tag)
            .map(|o| &o.verdict)
            .collect()
    };
    for v in verdict_of(1) {
        assert_eq!(v, &CallVerdict::Completed, "warmup calls complete");
    }
    let stale = verdict_of(2);
    assert_eq!(stale.len(), 1);
    assert_eq!(
        stale[0],
        &CallVerdict::Completed,
        "the deferred purge leaves a one-batch stale window"
    );
    for v in verdict_of(3) {
        assert!(
            matches!(v, CallVerdict::Failed(_)),
            "post-heal calls must fail against the deleted world, got {v:?}"
        );
    }
}

/// The PR's corner case: a switchless channel running *saturated* (batch
/// budget far below the backlog) whose caller world is deleted in the
/// same epoch. The drain must preserve classic verdict ordering — in
/// submission order, a prefix of completions then a suffix of failures,
/// never interleaved — because the purge lands at a batch boundary and
/// a world never comes back from deletion.
#[test]
fn saturated_channel_with_caller_deleted_drains_in_classic_order() {
    const CORNER_CALLS: u64 = 24;
    let (mut svc, worlds) = build_service(RuntimeConfig {
        workers: 1,
        queue_capacity: 256,
        batch_max: 8,
        // Budget 4 < batch 8: every residency exits saturated.
        switchless: SwitchlessConfig::fixed(4),
        ..RuntimeConfig::default()
    });
    let caller = worlds[0];
    let callee = worlds[1];
    for tag in 0..CORNER_CALLS {
        svc.submit(CallRequest::new(caller, callee, 1_500, 500).with_tag(tag))
            .expect("queue open");
    }
    svc.start();
    svc.delete_world(caller).expect("delete caller");
    let report = svc.drain();

    assert_eq!(report.outcomes.len() as u64, CORNER_CALLS);
    let mut in_order: Vec<&xover_runtime::CallOutcome> = report.outcomes.iter().collect();
    in_order.sort_by_key(|o| o.request.tag);
    // Single worker: outcome order must already be submission order.
    for (a, b) in report.outcomes.iter().zip(in_order.iter()) {
        assert_eq!(
            a.request.tag, b.request.tag,
            "single worker preserves order"
        );
    }
    let mut failed_seen = false;
    for o in &in_order {
        match &o.verdict {
            CallVerdict::Completed => assert!(
                !failed_seen,
                "tag {} completed after an earlier failure — verdict order broken",
                o.request.tag
            ),
            CallVerdict::Failed(_) => failed_seen = true,
            other => panic!("unexpected verdict {other:?} for tag {}", o.request.tag),
        }
    }
    assert_eq!(
        report.completed + report.failed,
        CORNER_CALLS,
        "completions and failures partition the stream"
    );
}
