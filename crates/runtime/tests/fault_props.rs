//! Fault-injection properties: the self-healing runtime's contract.
//!
//! Three invariants pin the fault plane (`machine::fault`) and the
//! supervisor's healing policies to the behavior the design promises:
//!
//! 1. **Empty plan = no plan, bit for bit.** An installed-but-empty
//!    [`FaultPlan`] must leave the runtime cycle-exact against a run
//!    with no plan at all, with zero supervisor activity — pinned by
//!    the plane parity table (`tests/parity.rs`).
//! 2. **Exactly one verdict per call, under every seeded schedule.**
//!    Whatever a generated plan injects — stalls, crashes, slot
//!    corruption, EPT denials, dropped invalidations, lookup races —
//!    every submitted request resolves to exactly one outcome (its
//!    unique tag appears exactly once) and the verdict counters sum to
//!    the stream length. Nothing is lost, nothing is duplicated. Every
//!    site in the catalogue has a consumer in the worker pool, so no
//!    scheduled event sits where nothing consults it.
//! 3. **Deferred invalidations heal at the next batch boundary.** A
//!    dropped retirement lets stale WT/IWT entries survive one batch
//!    (the fault is real and observable), after which the deferred
//!    purge applies and calls against the deleted world fail.
//!
//! Plus the PR's corner case: a *saturated* switchless channel whose
//! caller world is deleted in the same epoch must drain with classic
//! verdict ordering preserved — a completed prefix, then a failed
//! suffix, with no interleaving.

mod common;

use std::time::Duration;

use common::{build_service, Stream};
use machine::fault::{FaultKind, FaultPlan, FaultSite, FAULT_SITES};
use machine::rng::SplitMix64;
use xover_runtime::{CallRequest, CallVerdict, RuntimeConfig, ServiceReport, SwitchlessConfig};

const CHAOS_CALLS: u64 = 400;
/// Floor on the events that fire across all `CHAOS_SEEDS` (each plan
/// schedules 24, 192 in total). Runs fire 41–45; a stream of shorter
/// calls ends before much of the 3M-cycle horizon and fires ~33.
const CHAOS_FIRED_FLOOR: u64 = 36;
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

/// Invariant 2: exactly one verdict per submitted call, for every seeded
/// fault schedule and worker count. Tags are unique, so a
/// lost request leaves a hole and a duplicated one a collision — both
/// are caught by the same multiset check.
#[test]
fn every_call_resolves_exactly_once_under_seeded_chaos() {
    let mut fired_total = 0;
    for (i, seed) in CHAOS_SEEDS.into_iter().enumerate() {
        let workers = 1 + (i % 4);
        let plan = FaultPlan::from_seed(seed, 3_000_000, 4);
        assert!(!plan.is_empty(), "seeded plan must carry events");
        let config = RuntimeConfig {
            workers,
            queue_capacity: CHAOS_CALLS as usize + 16,
            batch_max: 32,
            switchless: SwitchlessConfig::on(),
            ..RuntimeConfig::default()
        };
        let (report, fired) =
            common::run_armed(config, Some(plan), Stream::Chaos, 0xFA_117, CHAOS_CALLS);
        assert!(fired > 0, "seed {seed:#x}: no scheduled fault fired");
        fired_total += fired;

        assert_one_verdict_per_call(&report, CHAOS_CALLS, &format!("seed {seed:#x}"));
    }
    assert!(
        fired_total >= CHAOS_FIRED_FLOOR,
        "only {fired_total} scheduled faults fired (floor {CHAOS_FIRED_FLOOR})"
    );
}

/// Every submitted call resolved to exactly one outcome, the verdict
/// counters partition the stream, and no injected fault panicked a
/// worker.
fn assert_one_verdict_per_call(report: &ServiceReport, calls: u64, label: &str) {
    assert_eq!(
        report.outcomes.len() as u64,
        calls,
        "{label}: every submitted call must produce an outcome"
    );
    let mut seen = vec![0u32; calls as usize];
    for o in &report.outcomes {
        seen[o.request.tag as usize] += 1;
    }
    for (tag, &count) in seen.iter().enumerate() {
        assert_eq!(
            count, 1,
            "{label}: tag {tag} resolved {count} times (want exactly 1)"
        );
    }
    assert_eq!(
        report.completed + report.timed_out + report.failed + report.dead_lettered,
        calls,
        "{label}: verdict counters must partition the stream"
    );
    assert_eq!(
        report.supervisor.worker_panics, 0,
        "{label}: injected faults must heal, not panic"
    );
}

/// Every catalogued site is consulted by the worker pool: one run per
/// site arms a single event at t = 0, and it must fire. One run per
/// site, because a `WorkerCrash` respawn fast-forwards the retire
/// cursor past the retirement `InvalidationDrop` needs. The spare world
/// deleted before start gives the first batch that retirement; the
/// chaos suites delete no world, so they never reach that site.
#[test]
fn every_fault_site_has_a_consumer_in_the_pool() {
    const CALLS: u64 = 64;
    for site in FAULT_SITES {
        // Exhaustive: a new site must name its kind here, and then
        // needs a consumer for this test to pass.
        let kind = match site {
            FaultSite::WorkerStall => FaultKind::Stall { cycles: 2_000 },
            FaultSite::WorkerCrash => FaultKind::Crash,
            FaultSite::ChannelCorruption => FaultKind::Corrupt,
            FaultSite::ChannelEptFault => FaultKind::Deny,
            FaultSite::InvalidationDrop => FaultKind::Drop,
            FaultSite::WorldLookupRace => FaultKind::Vanish,
        };
        let (mut svc, worlds) = build_service(RuntimeConfig {
            switchless: SwitchlessConfig::on(),
            ..common::single_worker(CALLS)
        });
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named("spare"))
            .expect("create vm");
        let spare = svc
            .register_guest_user(vm, 0x1000 * 9, 0x40_0000)
            .expect("register spare world");
        svc.delete_world(spare).expect("delete spare world");
        svc.set_fault_plan(FaultPlan::new().with(0, site, kind));
        let plan = svc.fault_plan().expect("plan installed").clone();
        let mut rng = SplitMix64::new(0xFA_117);
        for tag in 0..CALLS {
            svc.submit(common::draw_request(&mut rng, &worlds, tag, Stream::Chaos))
                .expect("queue open");
        }
        svc.start();
        let report = svc.drain();
        assert_eq!(
            plan.fired_count(site),
            1,
            "no worker consulted {}",
            site.name()
        );
        assert_one_verdict_per_call(&report, CALLS, site.name());
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

/// The PR's corner case: a switchless channel running *saturated* (a
/// backlog far above `batch_max`) whose caller world is deleted in the
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
        // 24 queued calls fill every pop of 8: every residency exits
        // saturated.
        switchless: SwitchlessConfig::on(),
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
