//! The worker loop: one OS thread driving one simulated vCPU.
//!
//! Each worker owns a cloned [`Platform`] (same VMs and EPTs as the
//! service template, so every registered world's EPTP resolves) and a
//! private [`WorldCallUnit`] — its own WT-/IWT-caches, exactly as each
//! core of a real CrossOver machine would have its own cache hardware.
//! The platform clone also carries a private unified TLB, so repeated
//! calls into the same worlds hit warm translations. The shared state is
//! the [`EpochWorldTable`] (the hypervisor-managed table all cores walk
//! on a miss): it logs retirements and each worker *pulls* the log tail
//! before its next batch (one relaxed load when nothing was deleted) and
//! purges its caches — the concurrent analogue of `manage_wtc`
//! invalidate — so WT/IWT staleness is bounded at one batch.
//!
//! Two execution paths service a popped batch:
//!
//! * **classic** — one full transition pair per call (save → world_call
//!   → body → return → restore), exactly the PR-2 behavior;
//! * **coalesced** — when switchless is on and the callee has an
//!   attached [`ChannelSegment`], each of the batch's same-(caller,
//!   callee) runs is drained *resident*: one save + `world_call` opens
//!   the residency, then every request of the run is serviced back to
//!   back (each paying priced request-read and response-write slot
//!   accesses through the worker TLB), then one return + restore closes
//!   it. A residency that ends short of a full `batch_max` batch drains
//!   the ring dry and spins briefly (spin-then-block in virtual time)
//!   before returning; the §3.4 timeout machinery can abort a residency
//!   mid-run, in which case the un-serviced tail reopens a residency of
//!   its own (a single leftover call goes classic).
//!
//! Metering is lock-free on the hot path: every charge lands on the
//! worker's private CPU meter; the service merges the meters into an
//! [`hypervisor::smp::SmpMachine`] when the pool drains. The pop path is
//! lock-free too: the worker drains its own ring into a local backlog
//! (forming same-callee batches there) and steals from peer rings only
//! when idle.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossover::call::{Direction, WorldCallUnit};
use crossover::manager::{
    CallToken, RESTORE_STATE_CYCLES, RESTORE_STATE_INSTRUCTIONS, SAVE_STATE_CYCLES,
    SAVE_STATE_INSTRUCTIONS,
};
use crossover::switchless::ChannelSegment;
use crossover::table::WorldLookup;
use crossover::world::{Wid, WorldContext, WorldEntry};
use crossover::wtc::{CacheGeometry, CacheStats};
use crossover::WorldError;
use hypervisor::platform::Platform;
use hypervisor::ExitReason;
use machine::account::Meter;
use machine::fault::{FaultKind, FaultPlan, FaultSite};
use machine::trace::TransitionKind;
use mmu::addr::PAGE_SIZE;
use mmu::perms::Perms;
use mmu::tlb::TlbStats;
use obs::{EventKind, EventRing, ObsConfig, Recorder};

use crate::authz::AuthzPolicy;
use crate::epoch::EpochWorldTable;
use crate::ring::RingSet;
use crate::router::{CallError, CallOutcome, CallRequest, CallVerdict, Queued};
use crate::service::WorldMemory;
use crate::supervisor::{
    DegradeLevel, HealthState, Supervisor, SupervisorReport, CORRUPTION_ESCALATION_STRIKES,
    LOOKUP_RETRIES, RESPAWN_CAP,
};
use crate::switchless::{SwitchlessConfig, SwitchlessWorkerStats, SPIN_CYCLES};

/// Everything a worker thread needs; built by the service at start.
pub(crate) struct WorkerContext {
    pub index: usize,
    pub platform: Platform,
    pub table: Arc<EpochWorldTable>,
    pub rings: Arc<RingSet<Queued>>,
    pub batch_max: usize,
    /// Per-worker simulated clocks (cycles) for virtual-time pacing.
    pub clocks: Arc<Vec<AtomicU64>>,
    /// Attached per-world working sets, keyed by raw WID.
    pub memory: Arc<HashMap<u64, WorldMemory>>,
    /// Switchless layer configuration.
    pub switchless: SwitchlessConfig,
    /// Attached per-callee channel segments, keyed by raw WID.
    pub segments: Arc<HashMap<u64, ChannelSegment>>,
    /// Armed fault schedule (`None`, and an empty plan, are strict
    /// no-ops — the parity tests pin this).
    pub faults: Option<Arc<FaultPlan>>,
    /// The pool-shared degradation ladder.
    pub health: Arc<HealthState>,
    /// Obs-plane configuration; `Off` keeps this worker's recorder a
    /// no-op (one branch per would-be event, no stamping, no state).
    pub obs: ObsConfig,
    /// The shared callee-side authz policy (`None` when the plane is
    /// off: the dispatch path then carries zero checks, preserving
    /// bit-for-bit parity with the pre-authz runtime).
    pub authz: Option<Arc<AuthzPolicy>>,
    /// The worker's outcome log, allocated by the service at start and
    /// sized to this worker's queued backlog; it grows only for work
    /// stolen or submitted after start.
    pub outcomes: Vec<CallOutcome>,
}

/// How far (in simulated cycles) a worker may run ahead of the slowest
/// live worker before it defers pulling more work. One generous batch's
/// worth: enough to keep the pace gate off the common path, small
/// against any realistic per-worker load.
const PACE_SLACK_CYCLES: u64 = 64_000;

/// Virtual-time gate. The simulated machine's cores advance in parallel
/// virtual time, but the host may multiplex the worker threads onto
/// fewer physical cores (possibly one), in which case OS timeslicing —
/// not the simulation — would decide how many simulated cycles each
/// vCPU accumulates. Publishing each worker's meter as a shared clock
/// and making workers that run ahead yield until the laggards catch up
/// keeps the per-vCPU cycle loads even, so the makespan metric behaves
/// like a real SMP's wall clock whatever the host's core count.
///
/// The minimum is taken over all live workers including the caller, so
/// the slowest worker always passes immediately; exited workers park
/// their clock at `u64::MAX` and drop out of the minimum. That worker's
/// progress (or the queue closing) is what unblocks the spinners, so
/// the gate cannot deadlock.
fn pace(clocks: &[AtomicU64], index: usize, my_cycles: u64) {
    clocks[index].store(my_cycles, Ordering::Relaxed);
    loop {
        let min = clocks
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .min()
            .expect("at least one worker clock");
        if my_cycles <= min.saturating_add(PACE_SLACK_CYCLES) {
            return;
        }
        std::thread::yield_now();
    }
}

/// What a worker hands back when the pool drains.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// The worker's index (== the SMP core its meter merges into).
    pub index: usize,
    /// The worker vCPU's meter (merged into the service's
    /// [`hypervisor::smp::SmpMachine`] at drain).
    pub meter: Meter,
    /// Per-request outcomes, in service order.
    pub outcomes: Vec<CallOutcome>,
    /// Number of batches popped (batches/calls ratio shows how much
    /// destination affinity the queue actually delivered).
    pub batches: u64,
    /// WT-cache statistics of this worker's call unit.
    pub wt: CacheStats,
    /// IWT-cache statistics of this worker's call unit.
    pub iwt: CacheStats,
    /// Unified-TLB statistics of this worker's platform.
    pub tlb: TlbStats,
    /// Summed virtual-time dispatch delay over this worker's requests.
    pub queue_wait_cycles: u64,
    /// Requests this worker stole from peers' rings.
    pub stolen: u64,
    /// Switchless-path accounting (all zero when the layer is off).
    pub switchless: SwitchlessWorkerStats,
    /// `world_call` transitions this worker's vCPU executed.
    pub world_calls: u64,
    /// `world_return` transitions this worker's vCPU executed.
    pub world_returns: u64,
    /// Healing counters from this worker's supervisor (all zero without
    /// an armed fault plan).
    pub supervisor: SupervisorReport,
    /// This worker's flight-recorder ring (empty when obs is off).
    pub obs: EventRing,
}

/// The shared table as one worker's call unit walks it: WID lookups go
/// through the worker's pin slot (wait-free), so the reclaimer never
/// frees a bucket out from under an in-flight walk; context lookups
/// read the table's context index without the writer lock.
struct PinnedTable<'a> {
    table: &'a EpochWorldTable,
    slot: usize,
}

impl WorldLookup for PinnedTable<'_> {
    fn entry_of(&self, wid: Wid) -> Option<WorldEntry> {
        self.table.lookup_pinned(self.slot, wid)
    }

    fn wid_of(&self, context: &WorldContext) -> Option<Wid> {
        self.table.lookup_context(context)
    }
}

/// Schedules a world's context onto the worker vCPU: mode, page-table
/// root and EPTP, as if the worker core had been running that world all
/// along. Free of charge — this is setup, not a priced transition; the
/// priced path starts at the state save.
fn schedule_in(platform: &mut Platform, entry: &WorldEntry) {
    let cpu = platform.cpu_mut();
    cpu.force_mode(entry.context.mode());
    cpu.force_cr3(entry.context.ptp);
    cpu.load_eptp(0, entry.context.eptp);
}

/// Runs the callee body's working-set touches: `touch_pages` priced
/// virtual-memory accesses into the callee's attached memory, cycling
/// over its pages. The first lap after a cold start (or an EPT-switching
/// dispatcher without a tagged TLB) pays full page walks; warm laps hit.
/// Returns the number of touches that failed to translate — the service
/// maps working sets before start, so a non-zero count means a torn-down
/// EPT; the caller accounts it instead of panicking.
fn touch_working_set(platform: &mut Platform, memory: &WorldMemory, touches: u64) -> u64 {
    let mut faulted = 0;
    for i in 0..touches {
        let gva = memory.base + (i % memory.pages) * PAGE_SIZE;
        if platform.access_gva(&memory.pt, gva, Perms::rw()).is_err() {
            faulted += 1;
        }
    }
    faulted
}

/// The per-worker execution engine: the platform/unit pair plus the
/// accumulators both execution paths write. Bundling them keeps the
/// classic and coalesced paths callable from each other (a residency
/// whose channel fails falls back to classic for its leftovers)
/// without threading a dozen arguments around.
struct Engine<'a> {
    platform: &'a mut Platform,
    unit: &'a mut WorldCallUnit,
    /// This worker's pinned view of the shared table.
    table: PinnedTable<'a>,
    memory: &'a HashMap<u64, WorldMemory>,
    clocks: &'a [AtomicU64],
    index: usize,
    outcomes: Vec<CallOutcome>,
    queue_wait_cycles: u64,
    stats: SwitchlessWorkerStats,
    /// Per-(callee, lane) slot cursors into channel segments.
    cursors: HashMap<(u64, u64), u64>,
    /// Armed fault schedule (absent on the clean path).
    faults: Option<Arc<FaultPlan>>,
    /// This worker's healing brain.
    supervisor: Supervisor,
    /// Pool-shared degradation ladder.
    health: Arc<HealthState>,
    /// Flight recorder for this worker's track (a no-op when obs is
    /// off; events are stamped with the worker's virtual clock and
    /// charge zero virtual cycles, so obs-on runs stay cycle-exact).
    obs: Recorder,
    /// Shared callee-side authz policy. `None` (the plane off) makes
    /// enforcement a single branch per group — no checks, no events —
    /// so the off configuration stays cycle-exact with the pre-authz
    /// runtime. Checks are host-side and charge zero virtual cycles.
    authz: Option<Arc<AuthzPolicy>>,
    /// Policy generation this worker last observed at a batch boundary;
    /// a bump emits the `Revocation` visibility marker the one-batch
    /// revocation bound is measured against.
    authz_gen_seen: u64,
}

impl Engine<'_> {
    fn now(&self) -> u64 {
        self.platform.cpu().meter().cycles()
    }

    /// Consults the fault plan at `site` with this worker's virtual
    /// clock. `None` (no plan, empty plan, or nothing armed yet) is
    /// free: no cycles, no state.
    fn fire(&self, site: FaultSite) -> Option<FaultKind> {
        self.faults.as_ref()?.fire(site, self.now())
    }

    /// Records an obs event stamped with the worker's current virtual
    /// clock. One branch and nothing else when obs is off.
    fn emit(&mut self, kind: EventKind, a: u64, b: u64, c: u64) {
        if self.obs.enabled() {
            let now = self.now();
            self.obs.emit(now, kind, a, b, c);
        }
    }

    /// Emits a request's terminal events: a `DeadLetter` (with its
    /// typed reason) when applicable, then exactly one `RequestVerdict`
    /// — mirroring the exactly-one-verdict invariant in the event
    /// stream.
    fn emit_verdict(&mut self, seq: u64, verdict: &CallVerdict, coalesced: bool) {
        if !self.obs.enabled() {
            return;
        }
        if let CallVerdict::DeadLettered(err) = verdict {
            let reason = match err {
                CallError::LookupRace { .. } => 0,
                CallError::CrashLoop { .. } => 1,
                // Denial-family errors ride the Denied verdict, never
                // DeadLettered; the sentinel keeps the match total.
                _ => u64::MAX,
            };
            self.emit(EventKind::DeadLetter, seq, reason, 0);
        }
        let code = match verdict {
            CallVerdict::Completed => 0,
            CallVerdict::TimedOut => 1,
            CallVerdict::Failed(_) => 2,
            CallVerdict::DeadLettered(_) => 3,
            CallVerdict::Denied(_) => 4,
        };
        self.emit(EventKind::RequestVerdict, seq, code, u64::from(coalesced));
    }

    /// Records an outcome; a completed call also closes any open fault
    /// episode (taking a recovery-latency sample).
    fn record_outcome(&mut self, outcome: CallOutcome) {
        if outcome.verdict == CallVerdict::Completed {
            let now = self.now();
            self.supervisor.note_healthy(now);
        }
        self.outcomes.push(outcome);
    }

    /// Publishes this worker's clock and computes the request's queue
    /// wait. Publishing *per request* (not only at the batch-top pace
    /// gate) keeps the min-live-clock submission stamp fresh during
    /// long batches, so mid-run submissions aren't stamped with a stale
    /// clock and over-credited with wait they never experienced.
    fn stamp_wait(&mut self, queued: &Queued) -> u64 {
        let now = self.now();
        self.clocks[self.index].store(now, Ordering::Relaxed);
        now.saturating_sub(queued.stamped_at)
    }

    /// The §3.4 deadline token for a call starting now: the budget
    /// bounds on-CPU service time, so queue wait never counts against
    /// it.
    fn token(&self, req: &CallRequest) -> CallToken {
        CallToken {
            caller: req.caller,
            callee: req.callee,
            started_at_cycles: self.now(),
            budget_cycles: req.budget_cycles,
        }
    }

    /// Charges the callee body: working-set memory accesses (priced via
    /// the unified TLB) plus abstract compute work. Both count against
    /// the §3.4 budget.
    fn run_body(&mut self, req: &CallRequest) {
        if req.touch_pages > 0 {
            if let Some(mem) = self.memory.get(&req.callee.raw()) {
                self.supervisor.report.working_set_faults +=
                    touch_working_set(self.platform, mem, req.touch_pages);
            }
        }
        self.platform
            .cpu_mut()
            .charge_work(req.work_cycles, req.work_instructions, "callee body");
    }

    /// §3.4: the armed timer fires — a timer VMExit traps the callee
    /// (the platform's current-VM bookkeeping points at the callee, so
    /// this is safe), and the hypervisor forcibly restores the caller
    /// world.
    fn hypervisor_cancel(&mut self, caller_entry: &WorldEntry, callee: Wid, label: &'static str) {
        if self.platform.cpu().mode().operation().is_guest() {
            self.platform
                .vmexit(ExitReason::ExternalInterrupt)
                .expect("guest mode implies a current VM");
        }
        self.platform
            .crossover_switch(
                TransitionKind::WorldReturn,
                caller_entry.context.mode(),
                caller_entry.context.ptp,
                caller_entry.context.eptp,
            )
            .expect("caller context was resolvable at call time");
        // The forced restore above *is* a WorldReturn transition (the
        // trace just counted it), so the obs stream mirrors it here —
        // c=1 marks it hypervisor-forced.
        self.emit(
            EventKind::WorldReturn,
            callee.raw(),
            caller_entry.wid.raw(),
            1,
        );
        self.platform.cpu_mut().charge_work(
            RESTORE_STATE_CYCLES,
            RESTORE_STATE_INSTRUCTIONS,
            label,
        );
    }

    /// Runs one request end to end on the classic path, returning its
    /// verdict and on-CPU latency. The measured section (caller state
    /// save → caller state restore) is delimited by the caller's meter,
    /// mirroring `WorldManager::call`/`ret` but driven against the
    /// shared epoch table.
    fn execute(&mut self, req: &CallRequest) -> (CallVerdict, u64) {
        let caller_entry = match self.lookup_with_retry(req.caller) {
            Ok(e) => e,
            Err(verdict) => return (verdict, 0),
        };
        schedule_in(self.platform, &caller_entry);
        self.unit.notify_context_switch(self.platform, &self.table);
        // Snapshot the monotone cache counters so the deltas over this
        // call can be attributed to it (emission is post-hoc; the call
        // itself is never perturbed).
        let cache_before = self.obs.enabled().then(|| {
            (
                self.unit.wt_stats(),
                self.unit.iwt_stats(),
                self.platform.tlb_stats(),
            )
        });
        let start = self.now();
        self.platform.cpu_mut().charge_work(
            SAVE_STATE_CYCLES,
            SAVE_STATE_INSTRUCTIONS,
            "save caller state",
        );
        // Obs invariant: a `WorldCall`/`WorldReturn` event is emitted at
        // exactly the sites where `world_call` returns `Ok` (the unit
        // records the transition iff it succeeds), plus the forced
        // return inside `hypervisor_cancel` — so obs counts equal the
        // machine's trace deltas whenever no events were dropped.
        let verdict =
            match self
                .unit
                .world_call(self.platform, &self.table, req.callee, Direction::Call)
            {
                Err(e) => CallVerdict::Failed(e),
                Ok(outcome) if outcome.from != req.caller => {
                    // Hardware-identified caller disagrees with the request's
                    // claimed identity: control-flow violation. Bounce back so
                    // the vCPU does not linger in the callee world.
                    self.emit(EventKind::WorldCall, req.caller.raw(), req.callee.raw(), 0);
                    let bounced = self.unit.world_call(
                        self.platform,
                        &self.table,
                        req.caller,
                        Direction::Return,
                    );
                    if bounced.is_ok() {
                        self.emit(
                            EventKind::WorldReturn,
                            req.callee.raw(),
                            req.caller.raw(),
                            0,
                        );
                    }
                    CallVerdict::Failed(WorldError::ControlFlowViolation {
                        expected: req.caller,
                        got: outcome.from,
                    })
                }
                Ok(_) => {
                    self.emit(EventKind::WorldCall, req.caller.raw(), req.callee.raw(), 0);
                    let token = self.token(req);
                    self.run_body(req);
                    if token.expired(self.platform) {
                        self.hypervisor_cancel(
                            &caller_entry,
                            req.callee,
                            "restore caller state (timeout)",
                        );
                        CallVerdict::TimedOut
                    } else {
                        match self.unit.world_call(
                            self.platform,
                            &self.table,
                            req.caller,
                            Direction::Return,
                        ) {
                            Ok(_) => {
                                self.emit(
                                    EventKind::WorldReturn,
                                    req.callee.raw(),
                                    req.caller.raw(),
                                    0,
                                );
                                self.platform.cpu_mut().charge_work(
                                    RESTORE_STATE_CYCLES,
                                    RESTORE_STATE_INSTRUCTIONS,
                                    "restore caller state",
                                );
                                CallVerdict::Completed
                            }
                            Err(e) => CallVerdict::Failed(e),
                        }
                    }
                }
            };
        let latency = self.now() - start;
        if let Some((wt0, iwt0, tlb0)) = cache_before {
            let now = self.now();
            let wt = self.unit.wt_stats().since(&wt0);
            let iwt = self.unit.iwt_stats().since(&iwt0);
            let tlb = self.platform.tlb_stats().since(&tlb0);
            self.obs.emit_count(now, EventKind::WtHit, wt.hits);
            self.obs.emit_count(now, EventKind::WtMiss, wt.misses);
            self.obs.emit_count(now, EventKind::IwtHit, iwt.hits);
            self.obs.emit_count(now, EventKind::IwtMiss, iwt.misses);
            self.obs.emit_count(now, EventKind::TlbHit, tlb.hits);
            self.obs.emit_count(now, EventKind::TlbMiss, tlb.misses);
        }
        (verdict, latency)
    }

    /// Resolves `wid` against the shared table, healing injected
    /// deletion races: a fired [`FaultSite::WorldLookupRace`] makes the
    /// lookup transiently vanish; the supervisor retries it under
    /// capped, jittered exponential backoff (charged to this worker's
    /// meter as virtual time) and dead-letters the request only when
    /// the retries are exhausted. A *genuine* miss — the world really
    /// is not in the table — still fails immediately with the same
    /// `InvalidWid` verdict as ever; only injected races are retried,
    /// so the clean path is untouched.
    fn lookup_with_retry(&mut self, wid: Wid) -> Result<WorldEntry, CallVerdict> {
        let mut attempts: u32 = 0;
        loop {
            if self.fire(FaultSite::WorldLookupRace).is_some() {
                let now = self.now();
                self.supervisor.note_fault(now);
                self.emit(
                    EventKind::FaultObserved,
                    FaultSite::WorldLookupRace.index() as u64,
                    0,
                    0,
                );
                if attempts >= LOOKUP_RETRIES {
                    self.supervisor.report.dead_lettered += 1;
                    return Err(CallVerdict::DeadLettered(CallError::LookupRace {
                        wid,
                        attempts,
                    }));
                }
                let backoff = self.supervisor.backoff_cycles(attempts);
                self.emit(EventKind::RetryBackoff, u64::from(attempts), backoff, 0);
                self.supervisor.report.lookup_retries += 1;
                self.supervisor.report.backoff_cycles += backoff;
                self.platform
                    .cpu_mut()
                    .charge_work(backoff, 0, "supervisor retry backoff");
                attempts += 1;
                continue;
            }
            return match self.table.entry_of(wid) {
                Some(e) => Ok(e),
                None => Err(CallVerdict::Failed(WorldError::InvalidWid { wid })),
            };
        }
    }

    /// Runs a same-caller group through the authz policy, denying every
    /// request the policy refuses before any path (classic or resident)
    /// sees it. The admitted remainder is compacted, in order, to the
    /// front of `group`, and its length returned. With the plane off this
    /// is one branch and the group passes through untouched — the
    /// cycle-exact off configuration. Checking at the
    /// group boundary (after the batch-boundary retire pull) is what
    /// bounds revocation staleness at one batch: a revocation lands in
    /// the shared policy immediately, and the longest anything already
    /// past this gate can run is the remainder of its batch.
    fn enforce_authz(&mut self, group: &mut [(Queued, bool)]) -> usize {
        let Some(policy) = self.authz.clone() else {
            return group.len();
        };
        let mut admitted = 0;
        for i in 0..group.len() {
            let (queued, was_stolen) = group[i];
            let now = self.now();
            match policy.check(&queued.req, now) {
                Ok(()) => {
                    group[admitted] = (queued, was_stolen);
                    admitted += 1;
                }
                Err(err) => self.deny(&queued, was_stolen, err),
            }
        }
        admitted
    }

    /// Records a policy denial: the request is dispatched (so the event
    /// stream keeps its dispatch-per-verdict pairing), the `AuthzDeny`
    /// audit event fires, and the request resolves with exactly one
    /// `Denied` verdict at zero service latency — the callee body never
    /// ran and no world was touched.
    fn deny(&mut self, queued: &Queued, was_stolen: bool, err: CallError) {
        let wait = self.stamp_wait(queued);
        self.queue_wait_cycles += wait;
        self.emit(
            EventKind::RequestDispatch,
            queued.seq,
            wait,
            queued.req.callee.raw(),
        );
        if was_stolen {
            self.emit(EventKind::RequestSteal, queued.seq, 0, 0);
        }
        self.emit(
            EventKind::AuthzDeny,
            queued.seq,
            err.denial_code().unwrap_or(u64::MAX),
            queued.req.caller.raw(),
        );
        let verdict = CallVerdict::Denied(err);
        self.emit_verdict(queued.seq, &verdict, false);
        self.outcomes.push(CallOutcome {
            request: queued.req,
            verdict,
            latency_cycles: 0,
            queue_wait_cycles: wait,
            worker: self.index,
            stolen: was_stolen,
            coalesced: false,
            finished_at: self.now(),
        });
    }

    /// Services one request on the classic path and records its outcome.
    fn classic(&mut self, queued: &Queued, was_stolen: bool) {
        let wait = self.stamp_wait(queued);
        self.queue_wait_cycles += wait;
        self.emit(
            EventKind::RequestDispatch,
            queued.seq,
            wait,
            queued.req.callee.raw(),
        );
        if was_stolen {
            self.emit(EventKind::RequestSteal, queued.seq, 0, 0);
        }
        let (verdict, latency_cycles) = self.execute(&queued.req);
        self.stats.classic_calls += 1;
        self.emit_verdict(queued.seq, &verdict, false);
        self.record_outcome(CallOutcome {
            request: queued.req,
            verdict,
            latency_cycles,
            queue_wait_cycles: wait,
            worker: self.index,
            stolen: was_stolen,
            coalesced: false,
            finished_at: self.now(),
        });
    }

    /// Services a same-(caller, callee) chunk through the callee's
    /// channel segment as one resident drain: a single transition pair
    /// amortized over every request in the chunk. `dry` says the home
    /// ring ran out before a full batch was popped (the residency will
    /// spin-then-block before returning).
    ///
    /// Returns the un-serviced tail of a residency a timeout aborted,
    /// for the caller to reopen; every other exit returns an empty
    /// slice. Fallback ladder, so no request is ever lost: a
    /// quarantined channel, a missing caller, a failed or misdirected
    /// `world_call` re-run the whole chunk classically (each request
    /// then fails or succeeds exactly as it would have); a channel
    /// fault aborts the residency via the hypervisor and the chunk's
    /// remaining requests go classic; a timeout aborts it the same way
    /// and hands the remaining requests back; a caller world deleted
    /// mid-residency gets its return forced by the hypervisor.
    fn coalesced<'c>(
        &mut self,
        seg: &ChannelSegment,
        caller: Wid,
        callee: Wid,
        chunk: &'c [(Queued, bool)],
        dry: bool,
    ) -> &'c [(Queued, bool)] {
        // A quarantined channel is never used: its traffic rides the
        // classic path until the (virtual-time) window passes and the
        // channel re-opens. One map probe, zero virtual cycles.
        if !self.supervisor.channel_usable(callee.raw(), self.now()) {
            self.supervisor.report.quarantined_fallback_calls += chunk.len() as u64;
            self.stats.drain.fallback_groups += 1;
            for (queued, was_stolen) in chunk {
                self.classic(queued, *was_stolen);
            }
            return &[];
        }
        let caller_entry = match self.table.entry_of(caller) {
            Some(e) => e,
            None => {
                // Same verdict (and zero latency) the classic path gives
                // an unregistered caller, without opening a residency.
                for (queued, was_stolen) in chunk {
                    self.classic(queued, *was_stolen);
                }
                return &[];
            }
        };
        schedule_in(self.platform, &caller_entry);
        self.unit.notify_context_switch(self.platform, &self.table);
        self.platform.cpu_mut().charge_work(
            SAVE_STATE_CYCLES,
            SAVE_STATE_INSTRUCTIONS,
            "save caller state",
        );
        let open = self
            .unit
            .world_call(self.platform, &self.table, callee, Direction::Call);
        match open {
            Err(_) => {
                // The callee is gone (or never existed): no residency to
                // open. Re-run the chunk classically so every request
                // reports the exact per-call verdict and charge.
                self.stats.drain.fallback_groups += 1;
                for (queued, was_stolen) in chunk {
                    self.classic(queued, *was_stolen);
                }
                return &[];
            }
            Ok(outcome) if outcome.from != caller => {
                // Misidentified caller: bounce out, then per-call
                // verdicts via the classic path (each will report its
                // own control-flow violation).
                self.emit(EventKind::WorldCall, caller.raw(), callee.raw(), 1);
                let bounced =
                    self.unit
                        .world_call(self.platform, &self.table, caller, Direction::Return);
                if bounced.is_ok() {
                    self.emit(EventKind::WorldReturn, callee.raw(), caller.raw(), 0);
                }
                self.stats.drain.fallback_groups += 1;
                for (queued, was_stolen) in chunk {
                    self.classic(queued, *was_stolen);
                }
                return &[];
            }
            Ok(_) => {}
        }
        self.stats.drain.transition_pairs += 1;
        // c=1 on the call marks a residency-opening transition.
        self.emit(EventKind::WorldCall, caller.raw(), callee.raw(), 1);
        self.emit(
            EventKind::DrainOpen,
            caller.raw(),
            callee.raw(),
            chunk.len() as u64,
        );
        let lane = seg.lane_of(caller);
        let mut serviced = 0usize;
        let mut aborted = false;
        let mut broken = false;
        for (queued, was_stolen) in chunk {
            let wait = self.stamp_wait(queued);
            self.queue_wait_cycles += wait;
            self.emit(EventKind::RequestDispatch, queued.seq, wait, callee.raw());
            if *was_stolen {
                self.emit(EventKind::RequestSteal, queued.seq, 0, 0);
            }
            self.emit(EventKind::DrainExtend, queued.seq, callee.raw(), 0);
            let slice_start = self.now();
            let token = self.token(&queued.req);
            let cursor = self.cursors.entry((callee.raw(), lane)).or_insert(0);
            let seq = *cursor;
            *cursor += 1;
            // Every slot read is verified (seqno + checksum, free of
            // extra cycles); injected faults can corrupt the slot or
            // revoke the page at the EPT. Either way the slot is never
            // serviced: the channel takes a quarantine strike and the
            // residency aborts with the un-serviced tail going classic.
            let denied = matches!(self.fire(FaultSite::ChannelEptFault), Some(FaultKind::Deny));
            let corrupt = matches!(
                self.fire(FaultSite::ChannelCorruption),
                Some(FaultKind::Corrupt)
            );
            if denied {
                let now = self.now();
                self.supervisor.record_channel_fault(callee.raw(), now);
                self.emit(
                    EventKind::FaultObserved,
                    FaultSite::ChannelEptFault.index() as u64,
                    0,
                    0,
                );
                self.emit(EventKind::Quarantine, callee.raw(), 0, 0);
                broken = true;
            } else {
                match seg.read_request_verified(self.platform, lane, seq, corrupt) {
                    Ok(read) => {
                        self.stats.drain.slot_cycles += read.cycles;
                        if !read.intact() {
                            let now = self.now();
                            self.supervisor.record_corruption(callee.raw(), now);
                            self.emit(
                                EventKind::FaultObserved,
                                FaultSite::ChannelCorruption.index() as u64,
                                0,
                                0,
                            );
                            self.emit(EventKind::Quarantine, callee.raw(), 0, 0);
                            broken = true;
                        }
                    }
                    Err(_) => {
                        let now = self.now();
                        self.supervisor.record_channel_fault(callee.raw(), now);
                        self.emit(
                            EventKind::FaultObserved,
                            FaultSite::ChannelEptFault.index() as u64,
                            0,
                            0,
                        );
                        self.emit(EventKind::Quarantine, callee.raw(), 0, 0);
                        broken = true;
                    }
                }
            }
            if broken {
                break;
            }
            self.run_body(&queued.req);
            let verdict = if token.expired(self.platform) {
                self.hypervisor_cancel(&caller_entry, callee, "restore caller state (timeout)");
                self.stats.drain.timeout_aborts += 1;
                aborted = true;
                CallVerdict::TimedOut
            } else {
                match seg.write_response(self.platform, lane, seq) {
                    Ok(cycles) => {
                        self.stats.drain.slot_cycles += cycles;
                        CallVerdict::Completed
                    }
                    Err(_) => {
                        // The response cannot be deposited: the caller
                        // would never observe completion through the
                        // channel, so don't claim it. Strike the
                        // channel and re-run this request (and the
                        // tail) classically — the body is re-executed,
                        // the honest cost of the retry; the verdict
                        // stays exactly one per request.
                        let now = self.now();
                        self.supervisor.record_channel_fault(callee.raw(), now);
                        self.emit(
                            EventKind::FaultObserved,
                            FaultSite::ChannelEptFault.index() as u64,
                            0,
                            0,
                        );
                        self.emit(EventKind::Quarantine, callee.raw(), 0, 0);
                        broken = true;
                        break;
                    }
                }
            };
            serviced += 1;
            self.stats.drain.coalesced_calls += 1;
            self.emit_verdict(queued.seq, &verdict, true);
            self.record_outcome(CallOutcome {
                request: queued.req,
                verdict,
                latency_cycles: self.now() - slice_start,
                queue_wait_cycles: wait,
                worker: self.index,
                stolen: *was_stolen,
                coalesced: true,
                finished_at: self.now(),
            });
            if aborted {
                break;
            }
        }
        let pair = self.stats.per_callee.entry(callee.raw()).or_insert((0, 0));
        pair.0 += serviced as u64;
        pair.1 += 1;
        if broken {
            // The channel cannot be trusted (corrupt slot or EPT
            // fault): the supervisor has quarantined it; abort the
            // residency through the hypervisor (the same forced restore
            // the timeout path uses) and re-run everything un-serviced
            // classically, so each request still gets exactly one
            // verdict. Enough strikes degrade the whole pool to
            // classic-only until a quiet window passes.
            self.stats.drain.fallback_groups += 1;
            self.emit(EventKind::DrainClose, callee.raw(), serviced as u64, 3);
            self.hypervisor_cancel(
                &caller_entry,
                callee,
                "restore caller state (channel fault)",
            );
            if self.supervisor.total_strikes() >= CORRUPTION_ESCALATION_STRIKES {
                let now = self.now();
                self.health.escalate(DegradeLevel::ClassicOnly, now);
            }
            for (queued, was_stolen) in &chunk[serviced..] {
                self.classic(queued, *was_stolen);
            }
            return &[];
        }
        if aborted {
            // The hypervisor already put us back in the caller world;
            // whatever the residency didn't reach goes back to the
            // caller, which reopens a residency for it.
            self.emit(EventKind::DrainClose, callee.raw(), serviced as u64, 2);
            return &chunk[serviced..];
        }
        if dry {
            // Spin-then-block: the resident dispatcher polls the dry
            // ring a little longer before paying the return transition,
            // in case another request lands (in virtual time the poll
            // itself is the cost; arrivals are decided by the next
            // batch).
            self.stats.drain.dry_exits += 1;
            self.stats.drain.spin_cycles += SPIN_CYCLES;
            self.platform
                .cpu_mut()
                .charge_work(SPIN_CYCLES, 0, "switchless dry spin");
        } else {
            self.stats.drain.saturated_exits += 1;
        }
        self.emit(
            EventKind::DrainClose,
            callee.raw(),
            serviced as u64,
            u64::from(!dry),
        );
        match self
            .unit
            .world_call(self.platform, &self.table, caller, Direction::Return)
        {
            Ok(_) => {
                self.emit(EventKind::WorldReturn, callee.raw(), caller.raw(), 0);
                self.platform.cpu_mut().charge_work(
                    RESTORE_STATE_CYCLES,
                    RESTORE_STATE_INSTRUCTIONS,
                    "restore caller state",
                );
            }
            Err(_) => {
                // The caller world vanished mid-residency (deleted by a
                // tenant). Its EPT registration outlives the table
                // entry, so the hypervisor can still force the switch
                // home — the coalesced analogue of the timeout restore.
                self.stats.drain.forced_returns += 1;
                self.hypervisor_cancel(&caller_entry, callee, "restore caller state (forced)");
            }
        }
        &[]
    }
}

/// Takes the next destination-affine batch from the rings. The worker
/// first drains its own ring into `backlog` (bounded at twice the batch
/// size), then extracts the first request's same-callee group from the
/// backlog, preserving the relative order of what stays behind. Sets
/// `first_stolen` when the leading request came from a peer's ring.
/// The batch lands in the worker-owned `batch` buffer, replacing its
/// contents; left empty, it means closed-and-drained.
fn next_batch(
    rings: &RingSet<Queued>,
    home: usize,
    batch_max: usize,
    backlog: &mut VecDeque<Queued>,
    batch: &mut Vec<Queued>,
    first_stolen: &mut bool,
) {
    *first_stolen = false;
    batch.clear();
    let first = match backlog.pop_front() {
        Some(q) => q,
        None => match rings.pop(home) {
            Some((q, stolen)) => {
                *first_stolen = stolen;
                q
            }
            None => return,
        },
    };
    while backlog.len() < batch_max.saturating_mul(2) {
        match rings.try_pop_local(home) {
            Some(q) => backlog.push_back(q),
            None => break,
        }
    }
    let callee = first.req.callee;
    batch.push(first);
    backlog.retain(|q| {
        if batch.len() < batch_max && q.req.callee == callee {
            batch.push(*q);
            false
        } else {
            true
        }
    });
}

/// Reorders a same-callee batch into same-caller runs, preserving
/// first-seen caller order and within-caller request order, and tagging
/// each request with whether it was the batch's stolen head. The
/// reordered requests land in `tagged` and each caller's run is a
/// `(caller, range into tagged)` pair in `runs`; both worker-owned
/// buffers are cleared first and reused across batches.
fn split_by_caller(
    batch: &[Queued],
    first_stolen: bool,
    tagged: &mut Vec<(Queued, bool)>,
    runs: &mut Vec<(Wid, Range<usize>)>,
) {
    tagged.clear();
    runs.clear();
    for (i, q) in batch.iter().enumerate() {
        let caller = q.req.caller;
        if runs.iter().any(|(c, _)| *c == caller) {
            continue;
        }
        let start = tagged.len();
        tagged.extend(
            (i..batch.len())
                .filter(|&j| batch[j].req.caller == caller)
                .map(|j| (batch[j], j == 0 && first_stolen)),
        );
        runs.push((caller, start..tagged.len()));
    }
}

/// A worker's private call unit: default-shaped WT/IWT caches.
fn fresh_unit() -> WorldCallUnit {
    WorldCallUnit::with_geometry(CacheGeometry::default())
}

/// The worker thread body: pop destination-batched requests until the
/// rings close and drain, pulling table retirements between batches.
pub(crate) fn run(mut ctx: WorkerContext) -> WorkerReport {
    // The template platform's meter carries registration-time costs;
    // each worker accounts only its own execution. Trace counts are
    // snapshotted instead (the trace survives the reset), so transition
    // totals below are this worker's own.
    ctx.platform.cpu_mut().meter_mut().reset();
    let calls_before = ctx.platform.cpu().trace().count(TransitionKind::WorldCall);
    let returns_before = ctx
        .platform
        .cpu()
        .trace()
        .count(TransitionKind::WorldReturn);
    let mut unit = fresh_unit();
    let mut batches = 0u64;
    let mut backlog: VecDeque<Queued> = VecDeque::new();
    // Batch-formation buffers, reused across batches: the batch itself,
    // its requests reordered into same-caller runs, and the runs.
    let mut batch: Vec<Queued> = Vec::new();
    let mut tagged: Vec<(Queued, bool)> = Vec::new();
    let mut runs: Vec<(Wid, Range<usize>)> = Vec::new();
    // Set when a crash-respawn holds `batch` over to the next turn:
    // requeued whole, order preserved, before any of it was serviced.
    let mut requeued = false;
    let mut stolen = 0u64;
    // Retirements an injected fault dropped on the way to this worker's
    // caches; healed (applied) at the next batch boundary, so staleness
    // is bounded at one batch.
    let mut deferred_invalidations: Vec<Wid> = Vec::new();
    // This worker's private cursor into the table's retire log:
    // everything before it has already been purged from the WT/IWT
    // caches.
    let mut retire_cursor = 0usize;
    let mut engine = Engine {
        platform: &mut ctx.platform,
        unit: &mut unit,
        table: PinnedTable {
            table: &ctx.table,
            slot: ctx.index,
        },
        memory: &ctx.memory,
        clocks: &ctx.clocks,
        index: ctx.index,
        outcomes: std::mem::take(&mut ctx.outcomes),
        queue_wait_cycles: 0,
        stats: SwitchlessWorkerStats::default(),
        cursors: HashMap::new(),
        faults: ctx.faults.clone(),
        supervisor: Supervisor::new(ctx.index),
        health: Arc::clone(&ctx.health),
        obs: Recorder::for_track(&ctx.obs, ctx.index as u32),
        authz: ctx.authz.clone(),
        authz_gen_seen: ctx.authz.as_ref().map(|p| p.generation()).unwrap_or(0),
    };
    loop {
        pace(
            &ctx.clocks,
            ctx.index,
            engine.platform.cpu().meter().cycles(),
        );
        let mut first_stolen = false;
        if !std::mem::take(&mut requeued) {
            next_batch(
                &ctx.rings,
                ctx.index,
                ctx.batch_max,
                &mut backlog,
                &mut batch,
                &mut first_stolen,
            );
        }
        if batch.is_empty() {
            break; // closed and drained
        }
        // Worker-level faults are consulted *before* any of the batch is
        // serviced, so a crash can requeue the whole batch with no
        // verdict recorded yet (the exactly-one-verdict invariant).
        if engine.faults.is_some() {
            if let Some(FaultKind::Stall { cycles }) = engine.fire(FaultSite::WorkerStall) {
                let now = engine.now();
                engine.supervisor.record_stall(now, cycles);
                engine.emit(
                    EventKind::FaultObserved,
                    FaultSite::WorkerStall.index() as u64,
                    0,
                    0,
                );
                engine.emit(EventKind::Stall, cycles, 0, 0);
                engine
                    .platform
                    .cpu_mut()
                    .charge_work(cycles, 0, "injected worker stall");
            }
            if engine.fire(FaultSite::WorkerCrash).is_some() {
                let now = engine.now();
                let respawns = engine.supervisor.record_crash(now);
                engine.emit(
                    EventKind::FaultObserved,
                    FaultSite::WorkerCrash.index() as u64,
                    0,
                    0,
                );
                if respawns > u64::from(RESPAWN_CAP) {
                    // Crash loop: respawning clearly isn't healing this
                    // worker. Dead-letter the batch (typed verdicts, not
                    // losses) and shed new load until a quiet window.
                    engine.health.escalate(DegradeLevel::Shedding, now);
                    for queued in &batch {
                        let wait = engine.stamp_wait(queued);
                        engine.queue_wait_cycles += wait;
                        engine.supervisor.report.dead_lettered += 1;
                        let verdict = CallVerdict::DeadLettered(CallError::CrashLoop {
                            worker: ctx.index,
                            respawns: respawns as u32,
                        });
                        engine.emit(
                            EventKind::RequestDispatch,
                            queued.seq,
                            wait,
                            queued.req.callee.raw(),
                        );
                        engine.emit_verdict(queued.seq, &verdict, false);
                        engine.outcomes.push(CallOutcome {
                            request: queued.req,
                            verdict,
                            latency_cycles: 0,
                            queue_wait_cycles: wait,
                            worker: ctx.index,
                            stolen: false,
                            coalesced: false,
                            finished_at: engine.now(),
                        });
                    }
                    continue;
                }
                // Respawn: the crash tore down the worker's private call
                // unit (WT/IWT caches) and its channel cursors; rebuild
                // them fresh and hold the batch over to the next loop
                // turn, order preserved (ring/meter reconciliation —
                // nothing serviced, nothing lost). The meter survives:
                // it is the vCPU's clock, not the thread's.
                *engine.unit = fresh_unit();
                engine.cursors.clear();
                // The fresh unit's caches are empty, so retirements
                // logged before the crash have nothing left to purge:
                // fast-forward past them instead of replaying the log.
                retire_cursor = ctx.table.retired_len();
                engine.emit(EventKind::Respawn, respawns, 0, 0);
                requeued = true;
                continue;
            }
        }
        batches += 1;
        if first_stolen {
            stolen += 1;
        }
        // Concurrent manage_wtc: purge every world deleted since the
        // last batch from this worker's private caches. Deferred
        // (fault-dropped) notifications from the previous batch heal
        // first; a fresh notification an InvalidationDrop event eats is
        // deferred in turn, bounding WT/IWT staleness at one batch. The
        // pull of the shared retire log's tail is one relaxed load when
        // nothing was deleted.
        for wid in deferred_invalidations.drain(..) {
            engine.unit.manage_wtc_invalidate(engine.platform, wid);
        }
        for wid in ctx.table.pull_retired(&mut retire_cursor) {
            if engine.fire(FaultSite::InvalidationDrop).is_some() {
                let now = engine.now();
                engine.supervisor.report.invalidation_defers += 1;
                engine.supervisor.note_fault(now);
                engine.emit(
                    EventKind::FaultObserved,
                    FaultSite::InvalidationDrop.index() as u64,
                    0,
                    0,
                );
                deferred_invalidations.push(wid);
            } else {
                engine.unit.manage_wtc_invalidate(engine.platform, wid);
            }
        }
        // Cooperative table maintenance: each worker offers a pass per
        // batch; the table runs one only when the lookup tick says a
        // window's share of the sweep is due, so most offers are two
        // atomic loads and never touch the writer lock. Runs whether or
        // not obs is on — the sweep is the table's side effect, only the
        // event emission is conditional — and charges zero virtual
        // cycles, so obs-on runs stay cycle-exact.
        let m = ctx.table.maintain_paced();
        if m.evicted > 0 {
            engine.emit(EventKind::WorldEvict, m.evicted, 0, 0);
        }
        if m.refaults > 0 {
            engine.emit(EventKind::WorldRefault, m.refaults, 0, 0);
        }
        if m.reclaimed > 0 {
            engine.emit(EventKind::GraceReclaim, m.reclaimed, 0, 0);
        }
        // Revocation visibility marker: one atomic load per batch when
        // the plane is on. Enforcement itself reads the shared policy
        // per group, so this event only *witnesses* the generation bump
        // — it is the timestamped edge the one-batch revocation-latency
        // bound in the authz bench is measured against.
        if let Some(policy) = &engine.authz {
            let generation = policy.generation();
            if generation != engine.authz_gen_seen {
                let prev = engine.authz_gen_seen;
                engine.authz_gen_seen = generation;
                engine.emit(EventKind::Revocation, generation, prev, 0);
            }
        }
        // One relaxed load on the clean path; steps the pool back up the
        // degradation ladder once a quiet window has passed.
        engine.health.maybe_recover(engine.now());
        let callee = batch[0].req.callee;
        let segment = if ctx.switchless.enabled() && !engine.health.classic_only() {
            ctx.segments.get(&callee.raw())
        } else {
            None
        };
        split_by_caller(&batch, first_stolen, &mut tagged, &mut runs);
        for (caller, run) in runs.iter().cloned() {
            // Policy gate: denials resolve here with typed verdicts;
            // only the admitted remainder picks a service path. A group
            // thinned below the coalescing threshold rides classic.
            let group = &mut tagged[run];
            let admitted = engine.enforce_authz(group);
            let group = &group[..admitted];
            if group.is_empty() {
                continue;
            }
            let mut rest = group;
            if let Some(seg) = segment {
                // The residency ends with the ring dry unless the worker
                // popped a full batch. A timeout hands back the
                // un-serviced tail, which reopens a residency.
                let dry = group.len() < ctx.batch_max;
                while rest.len() >= 2 {
                    rest = engine.coalesced(seg, caller, callee, rest, dry);
                }
            }
            for (queued, was_stolen) in rest {
                engine.classic(queued, *was_stolen);
            }
        }
    }
    // Any invalidation still deferred heals before the caches are
    // reported: no stale entry survives the pool.
    for wid in deferred_invalidations.drain(..) {
        engine.unit.manage_wtc_invalidate(engine.platform, wid);
    }
    let outcomes = std::mem::take(&mut engine.outcomes);
    let queue_wait_cycles = engine.queue_wait_cycles;
    let switchless = std::mem::take(&mut engine.stats);
    let supervisor_report = std::mem::take(&mut engine.supervisor.report);
    let obs_ring = std::mem::replace(&mut engine.obs, Recorder::off()).into_ring();
    // Park the clock so remaining workers stop pacing against us.
    ctx.clocks[ctx.index].store(u64::MAX, Ordering::Relaxed);
    WorkerReport {
        index: ctx.index,
        meter: ctx.platform.cpu().meter().clone(),
        outcomes,
        batches,
        wt: unit.wt_stats(),
        iwt: unit.iwt_stats(),
        tlb: ctx.platform.tlb_stats(),
        queue_wait_cycles,
        stolen,
        switchless,
        world_calls: ctx.platform.cpu().trace().count(TransitionKind::WorldCall) - calls_before,
        world_returns: ctx
            .platform
            .cpu()
            .trace()
            .count(TransitionKind::WorldReturn)
            - returns_before,
        supervisor: supervisor_report,
        obs: obs_ring,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_by_caller_keeps_caller_order_request_order_and_the_stolen_head() {
        let callee = Wid::from_raw(9);
        let batch: Vec<Queued> = [3u64, 1, 3, 2, 1, 3]
            .iter()
            .enumerate()
            .map(|(seq, &caller)| Queued {
                req: CallRequest::new(Wid::from_raw(caller), callee, 1, 1),
                stamped_at: 0,
                seq: seq as u64,
            })
            .collect();
        // Stale contents from an earlier batch must not leak into this one.
        let (mut tagged, mut runs) = (vec![(batch[5], true)], Vec::new());
        for first_stolen in [true, false] {
            split_by_caller(&batch, first_stolen, &mut tagged, &mut runs);
            let callers: Vec<u64> = runs.iter().map(|(c, _)| c.raw()).collect();
            assert_eq!(callers, [3, 1, 2], "first-seen caller order");
            assert_eq!(runs[0].1, 0..3);
            assert_eq!(runs[1].1, 3..5);
            assert_eq!(runs[2].1, 5..6);
            let seqs: Vec<u64> = tagged.iter().map(|(q, _)| q.seq).collect();
            assert_eq!(seqs, [0, 2, 5, 1, 4, 3], "within-caller order");
            let stolen: Vec<bool> = tagged.iter().map(|&(_, s)| s).collect();
            assert_eq!(stolen[0], first_stolen, "only the head carries the tag");
            assert!(stolen[1..].iter().all(|&s| !s));
        }
    }
}
