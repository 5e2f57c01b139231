//! Coalesced-vs-classic equivalence property.
//!
//! The switchless layer's contract is that coalescing is *purely* a
//! transition-amortization optimization: driven by a single worker over
//! identical seeded request streams, a service with channels engaged
//! must produce the same per-request verdicts, in the same order, as
//! the classic per-call path — and its cycle meter must differ from the
//! classic run by an *exactly predictable* amount:
//!
//! ```text
//! classic_total - coalesced_total ==
//!     (coalesced_calls - transition_pairs) * pair_cycles
//!     - slot_cycles - spin_cycles
//! ```
//!
//! Every call the channel absorbs saves one full transition pair
//! (save + world_call + world_return + restore) except the one pair
//! each residency still pays, and the layer gives a little of that back
//! in priced request/response slot accesses and dry-ring spins. Nothing
//! else may move: bodies, working-set touches, WT/IWT fill charges and
//! timeout cancellations must be identical bit for bit.
//!
//! Single-worker runs are fully deterministic in virtual time, and both
//! execution paths service a popped batch in the same split-by-caller
//! order, so the outcome streams can be zipped index by index.

use crossover::manager::{RESTORE_STATE_CYCLES, SAVE_STATE_CYCLES};
use machine::cost::CostModel;
use machine::rng::SplitMix64;
use machine::trace::TransitionKind;
use xover_runtime::{
    CallRequest, RuntimeConfig, ServiceReport, SwitchlessConfig, WorldCallService,
};

const SEEDS: [u64; 3] = [0xE9_0A11, 0x5EED_0002, 0xFA11_BACC];
const CALLS: u64 = 800;
/// Pop sizes the properties sweep; a residency serves the same-caller
/// run it popped, so `batch_max` bounds it. 2 opens a residency per
/// pair of calls at most, 16 is the serving benchmark's pop, 32 the
/// benches'. The classic and switchless runs of a point pop alike.
const BATCH_MAXES: [usize; 4] = [2, 8, 16, 32];
const WORKING_SET_PAGES: u64 = 8;

/// Full save → call → return → restore price of one classic call (and
/// of one residency open/close), straight from the cost model.
fn transition_pair_cycles() -> u64 {
    let model = CostModel::default();
    SAVE_STATE_CYCLES
        + RESTORE_STATE_CYCLES
        + model.price(TransitionKind::WorldCall).cycles
        + model.price(TransitionKind::WorldReturn).cycles
}

/// Two tenants × (user + kernel) = four guest worlds, all with working
/// sets and switchless channels attached. The channel attachments are
/// identical in both runs; whether they are *used* is the only variable.
fn build_service(
    switchless: SwitchlessConfig,
    batch_max: usize,
) -> (WorldCallService, Vec<crossover::world::Wid>) {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers: 1,
        queue_capacity: CALLS as usize + 16,
        batch_max,
        switchless,
        ..RuntimeConfig::default()
    });
    let mut worlds = Vec::new();
    for t in 0..2u64 {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("prop-{t}")))
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

/// One unbudgeted, touch-free call per world as callee and as caller.
/// Each warmup call has a unique (caller, callee) pair, so it runs
/// classically in both configurations, and afterwards every world sits
/// in the worker's WT and every context in its IWT — all later lookups
/// are free hits in *both* runs, keeping the cycle identity exact.
fn warmup(worlds: &[crossover::world::Wid]) -> Vec<CallRequest> {
    (0..worlds.len())
        .map(|i| CallRequest::new(worlds[i], worlds[(i + 1) % worlds.len()], 100, 30))
        .collect()
}

/// Skewed draws (half the traffic lands on a hot pair) so same-caller
/// same-callee runs actually reach the coalescing gate. 5% of requests
/// are abusive — budget far below body work, so they time out in either
/// execution path (the margin dwarfs the coalesced path's extra slot
/// read, which counts against the token).
fn draw_request(
    rng: &mut SplitMix64,
    worlds: &[crossover::world::Wid],
    touches_max: u64,
) -> CallRequest {
    let (caller, callee) = loop {
        let (a, b) = if rng.flip() {
            (worlds[0], worlds[1]) // hot pair
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
    let mut req = CallRequest::new(caller, callee, work_cycles, work_cycles / 3);
    if touches_max > 0 {
        req = req.with_touches(rng.below(touches_max));
    }
    if rng.chance(0.05) {
        req = req.with_budget(work_cycles / 4);
    }
    req
}

fn run(
    switchless: SwitchlessConfig,
    batch_max: usize,
    seed: u64,
    touches_max: u64,
) -> ServiceReport {
    let (mut svc, worlds) = build_service(switchless, batch_max);
    for req in warmup(&worlds) {
        svc.submit(req).expect("queue open");
    }
    let mut rng = SplitMix64::new(seed);
    for _ in 0..CALLS {
        svc.submit(draw_request(&mut rng, &worlds, touches_max))
            .expect("queue open");
    }
    svc.start();
    svc.drain()
}

/// Zips the two outcome streams and asserts request identity and
/// verdict equality index by index, then checks the aggregate counters
/// agree. Returns how many calls the switchless run coalesced.
fn assert_outcomes_equivalent(off: &ServiceReport, sw: &ServiceReport) -> u64 {
    assert_eq!(off.outcomes.len(), sw.outcomes.len(), "same stream length");
    for (i, (a, b)) in off.outcomes.iter().zip(sw.outcomes.iter()).enumerate() {
        assert_eq!(a.request, b.request, "request order diverged at index {i}");
        assert_eq!(a.verdict, b.verdict, "verdict diverged at index {i}");
    }
    assert_eq!(off.completed, sw.completed, "completed counts agree");
    assert_eq!(off.timed_out, sw.timed_out, "timed-out counts agree");
    assert_eq!(off.failed, 0, "no failures in the schedule");
    assert_eq!(sw.failed, 0, "no failures in the schedule");
    let flagged = sw.outcomes.iter().filter(|o| o.coalesced).count() as u64;
    assert_eq!(
        flagged, sw.switchless.drain.coalesced_calls,
        "outcome flags match the drain counter"
    );
    assert!(
        off.outcomes.iter().all(|o| !o.coalesced),
        "classic run must not coalesce"
    );
    flagged
}

/// Transition-count bookkeeping: every serviced request pays exactly
/// one `world_call` and one `world_return` on the classic path, and
/// every residency pays exactly one of each regardless of how many
/// calls it absorbs (a timeout-aborted residency is closed by the
/// hypervisor's forced return, which still traces as a `world_return`).
fn assert_transition_counts(off: &ServiceReport, sw: &ServiceReport) {
    let n = off.outcomes.len() as u64;
    assert_eq!(off.switchless.world_calls, n);
    assert_eq!(off.switchless.world_returns, n);
    let expected = sw.switchless.classic_calls + sw.switchless.drain.transition_pairs;
    assert_eq!(sw.switchless.world_calls, expected);
    assert_eq!(sw.switchless.world_returns, expected);
}

/// The tentpole property: with memory touches disabled, the classic and
/// coalesced runs differ by *exactly* the predicted amount — the saved
/// transition pairs minus the slot and spin cycles the channel costs.
#[test]
fn coalesced_path_is_cycle_exact_against_classic() {
    let pair = transition_pair_cycles() as i128;
    for seed in SEEDS {
        for batch_max in BATCH_MAXES {
            let off = run(SwitchlessConfig::default(), batch_max, seed, 0);
            let sw = run(SwitchlessConfig::on(), batch_max, seed, 0);
            let coalesced = assert_outcomes_equivalent(&off, &sw);
            assert!(
                coalesced > CALLS / 10,
                "batch_max {batch_max}: schedule must actually exercise coalescing \
                 (got {coalesced} of {CALLS})"
            );
            assert_transition_counts(&off, &sw);

            let drain = &sw.switchless.drain;
            let lhs = off.smp.total_cycles() as i128 - sw.smp.total_cycles() as i128;
            let rhs = (drain.coalesced_calls as i128 - drain.transition_pairs as i128) * pair
                - drain.slot_cycles as i128
                - drain.spin_cycles as i128;
            assert_eq!(
                lhs, rhs,
                "seed {seed:#x}, batch_max {batch_max}: cycle delta must equal saved pairs minus \
                 channel overhead (coalesced {}, pairs {}, slot {}, spin {})",
                drain.coalesced_calls, drain.transition_pairs, drain.slot_cycles, drain.spin_cycles
            );
            // The layer must actually win on this schedule, not just match.
            assert!(
                lhs > 0,
                "seed {seed:#x}, batch_max {batch_max}: coalescing must be a net cycle saving \
                 (delta {lhs})"
            );
        }
    }
}

/// The same schedules with working-set touches enabled. Slot accesses
/// share the worker TLB with body touches, so the cycle delta is no
/// longer exactly predictable from the drain counters alone — but the
/// *behavioral* contract must still hold: identical verdicts in
/// identical order, identical completion/timeout counts, and exact
/// transition bookkeeping.
#[test]
fn coalesced_path_is_behavior_equivalent_with_memory_touches() {
    for seed in SEEDS {
        for batch_max in BATCH_MAXES {
            let touches = 2 * WORKING_SET_PAGES;
            let off = run(SwitchlessConfig::default(), batch_max, seed, touches);
            let sw = run(SwitchlessConfig::on(), batch_max, seed, touches);
            let coalesced = assert_outcomes_equivalent(&off, &sw);
            assert!(
                coalesced > 0,
                "batch_max {batch_max}: touching schedule must still coalesce"
            );
            assert_transition_counts(&off, &sw);
        }
    }
}

/// Timeouts must fire identically on both paths: the deadline bounds
/// callee service time, and an abusive budget (a quarter of the body
/// work) expires wherever the body runs. This pins the §3.4 defence to
/// the coalesced path — a residency is not a way to outrun the timer.
#[test]
fn timeouts_fire_identically_on_both_paths() {
    for seed in SEEDS {
        for batch_max in BATCH_MAXES {
            let off = run(SwitchlessConfig::default(), batch_max, seed, 0);
            let sw = run(SwitchlessConfig::on(), batch_max, seed, 0);
            assert!(off.timed_out > 0, "schedule must include abusive calls");
            assert_eq!(off.timed_out, sw.timed_out, "batch_max {batch_max}");
            // Every timeout the coalesced run absorbed into a residency
            // shows up as an abort, and aborts never exceed timeouts.
            assert!(sw.switchless.drain.timeout_aborts <= sw.timed_out);
        }
    }
}
