//! The multi-tenant world-call service: registration, admission control,
//! a worker pool, and merged accounting.
//!
//! [`WorldCallService`] is the concurrent driver the single-vCPU
//! [`Platform`] cannot be: many guest VMs' worlds registered in one
//! shared [`EpochWorldTable`], bounded per-worker request rings
//! ([`RingSet`]) in front of a pool of OS-thread workers (each
//! simulating one vCPU with private WT-/IWT-caches), per-call deadlines
//! reusing the §3.4 timeout machinery, and `Busy` rejection when a ring
//! is full instead of unbounded buffering. When the pool drains, the
//! per-worker meters are merged into an [`SmpMachine`] — one core per
//! worker — so the usual SMP metrics (total cycles, makespan) apply
//! unchanged.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crossover::switchless::ChannelSegment;
use crossover::table::DEFAULT_WORLD_QUOTA;
use crossover::world::{Wid, WorldDescriptor};
use crossover::wtc::CacheStats;
use crossover::WorldError;
use hypervisor::platform::Platform;
use hypervisor::smp::{CoreId, SmpMachine};
use hypervisor::vm::{VmConfig, VmId};
use hypervisor::HvError;
use machine::fault::FaultPlan;
use mmu::addr::{Gva, PAGE_SIZE};
use mmu::pagetable::PageTable;
use mmu::perms::Perms;
use mmu::tlb::TlbStats;
use obs::{Event, EventKind, EventRing, ObsConfig, ObsReport, SUBMIT_TRACK};

use crate::authz::{AuthzConfig, AuthzPolicy, AuthzSummary};
use crate::epoch::{EpochWorldTable, TableHealth};
use crate::ring::{PushError, RingSet};
use crate::router::{CallOutcome, CallRequest, CallVerdict, Queued};
use crate::supervisor::{DegradeLevel, HealthState, SupervisorSummary};
use crate::switchless::{
    Controller, PairTraffic, SwitchlessConfig, SwitchlessSummary, SEGMENT_LANES,
};
use crate::worker::{self, WorkerContext, WorkerReport};

/// Pool and table sizing, plus one switch per optional plane
/// (switchless, obs, authz). Every plane's default is its off or inert
/// mode, so `RuntimeConfig::default()` is the classic per-call runtime.
/// A value lives here only when callers outside the tests need it at
/// two settings; everything else is a constant next to the code that
/// uses it (the healing policy's in [`crate::supervisor`], the
/// switchless budget rails in [`crate::switchless`], the SLO
/// watchdog's in [`crate::watchdog`], which reads a drained report and
/// has no setting at all). Worker WT/IWT caches take
/// [`crossover::wtc::CacheGeometry::default`] without the §5.1
/// Current-World-ID register, a crash-respawned worker starts with
/// cold caches, and token-bucket rates are per grant
/// ([`AuthzPolicy::set_rate`]). A
/// call's budget bounds its on-CPU service time (the §3.4 timer arms
/// when the callee starts running, so a timeout verdict never depends
/// on queue depth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads (simulated vCPUs / SMP cores).
    pub workers: usize,
    /// Per-VM world-creation quota.
    pub quota: usize,
    /// Each worker ring's bound (rounded up to a power of two).
    /// `try_submit` into a full home ring returns `Busy`.
    pub queue_capacity: usize,
    /// Maximum same-callee batch a worker pops at once.
    pub batch_max: usize,
    /// Whether worker platforms use their unified TLBs (ablation: off
    /// models hardware whose world switch flushes translations).
    pub unified_tlb: bool,
    /// Switchless fast path (off by default: classic per-call behavior,
    /// bit for bit).
    pub switchless: SwitchlessConfig,
    /// Observability plane: `Off` (the default) records nothing and is
    /// bit-for-bit identical to a build without obs wiring (pinned by
    /// the parity suite); `Ring` attaches per-worker flight-recorder
    /// rings whose events come back in [`ServiceReport::obs`].
    pub obs: ObsConfig,
    /// Callee-side authorization plane: `Off` (the default) builds no
    /// policy object at all — dispatch carries zero checks and the
    /// runtime is bit-for-bit identical to a build without authz wiring
    /// (pinned by the parity suite). `Enforce` gates every dispatched
    /// call on grants, revocation generation, chain provenance and
    /// token-bucket rate limits.
    pub authz: AuthzConfig,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            workers: 4,
            quota: DEFAULT_WORLD_QUOTA,
            queue_capacity: 1024,
            batch_max: 16,
            unified_tlb: true,
            switchless: SwitchlessConfig::default(),
            obs: ObsConfig::default(),
            authz: AuthzConfig::default(),
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Queue at capacity — backpressure; the request is handed back via
    /// the error so the tenant can retry or shed it.
    Busy(CallRequest),
    /// The service is draining (or was never started).
    Closed(CallRequest),
}

/// A world's attached working set: a private page table rooted at the
/// world's PTP, mapping `pages` consecutive guest pages at `base`. The
/// callee body of a [`CallRequest`] with `touch_pages > 0` walks it via
/// priced [`Platform::access_gva`] calls.
#[derive(Debug, Clone)]
pub struct WorldMemory {
    /// The guest page table the accesses translate through.
    pub pt: PageTable,
    /// First mapped guest-virtual address.
    pub base: Gva,
    /// Number of mapped pages.
    pub pages: u64,
}

/// Per-tenant admission accounting (see [`ServiceReport::per_tenant`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantCounts {
    /// The tenant (from [`CallRequest::tenant`]; 0 = untenanted).
    pub tenant: u32,
    /// Submissions attempted for this tenant that resolved to a decision
    /// (admitted or shed; `Closed` rejections are not submissions).
    pub submitted: u64,
    /// Submissions accepted into the dispatcher.
    pub admitted: u64,
    /// Submissions refused with `Busy` (backpressure or the shedding
    /// rung of the degradation ladder).
    pub shed: u64,
    /// Admitted requests the authz policy refused at dispatch (filled at
    /// drain from the denied outcomes; always zero with the plane off).
    pub denied: u64,
}

/// Submit-side admission ledger: every decided submission is either
/// admitted or shed, so `submitted == admitted + shed` holds by
/// construction — gateway conservation checks read these totals instead
/// of re-deriving them from traces.
#[derive(Debug, Default)]
struct AdmissionLedger {
    totals: TenantCounts,
    per_tenant: HashMap<u32, TenantCounts>,
}

impl AdmissionLedger {
    fn decide(&mut self, tenant: u32, admitted: bool) {
        for slot in [
            &mut self.totals,
            self.per_tenant.entry(tenant).or_insert(TenantCounts {
                tenant,
                ..TenantCounts::default()
            }),
        ] {
            slot.submitted += 1;
            if admitted {
                slot.admitted += 1;
            } else {
                slot.shed += 1;
            }
        }
    }
}

/// Aggregated results of a drained pool.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// The merged SMP machine: core *i*'s meter is worker *i*'s.
    pub smp: SmpMachine,
    /// Per-request outcomes from every worker.
    pub outcomes: Vec<CallOutcome>,
    /// Calls that completed normally.
    pub completed: u64,
    /// Calls cancelled by the deadline machinery.
    pub timed_out: u64,
    /// Calls that failed outright.
    pub failed: u64,
    /// Calls the supervisor gave up on with a typed
    /// [`crate::CallError`] verdict (retry/respawn policy exhausted).
    pub dead_lettered: u64,
    /// Calls the authz policy refused at dispatch (typed
    /// [`crate::CallError`] denial verdicts; zero with the plane off).
    pub denied: u64,
    /// Decided submissions over the service's lifetime (admitted + shed;
    /// `Closed` rejections are not counted — the service was draining).
    pub submitted: u64,
    /// Submissions accepted into the dispatcher. Every admitted request
    /// produces exactly one outcome, so `admitted == outcomes.len()`
    /// on a fully drained pool.
    pub admitted: u64,
    /// Submissions refused with `Busy`. `submitted == admitted + shed`
    /// holds by construction.
    pub shed: u64,
    /// Per-tenant breakdown of the three admission counters, sorted by
    /// tenant id (tenant 0 collects untenanted traffic).
    pub per_tenant: Vec<TenantCounts>,
    /// Batches popped across all workers.
    pub batches: u64,
    /// Summed WT-cache statistics across workers.
    pub wt: CacheStats,
    /// Summed IWT-cache statistics across workers.
    pub iwt: CacheStats,
    /// Summed unified-TLB statistics across worker platforms.
    pub tlb: TlbStats,
    /// Summed virtual-time dispatch delay (cycles) across all requests.
    /// This is a *sum over calls* — with a deep backlog it legitimately
    /// dwarfs the makespan (n calls each waiting ~makespan/2 sums to
    /// ~n·makespan/2); compare [`ServiceReport::mean_queue_wait_cycles`]
    /// against the makespan instead.
    pub queue_wait_cycles: u64,
    /// Batches whose leading request was stolen from a peer's ring.
    pub stolen: u64,
    /// World-table health: live/resident counts, eviction, refault and
    /// grace-period reclamation totals, lookups and writer-lock
    /// contention.
    pub table: TableHealth,
    /// Switchless-path accounting (all zero / empty when the layer is
    /// off).
    pub switchless: SwitchlessSummary,
    /// Healing summary: merged supervisor counters, degradation-ladder
    /// history and recovery latencies (all zero on clean runs).
    pub supervisor: SupervisorSummary,
    /// Authorization-plane accounting: check/deny counters by family
    /// and the final revocation generation (all zero when the plane is
    /// off).
    pub authz: AuthzSummary,
    /// Flight-recorder rings from the run (`None` unless
    /// [`RuntimeConfig::obs`] enabled recording).
    pub obs: Option<ObsReport>,
}

impl ServiceReport {
    /// Mean per-call queue wait (cycles). Unlike the summed
    /// [`ServiceReport::queue_wait_cycles`], this is bounded by the
    /// makespan: no single call can wait longer than the whole run.
    pub fn mean_queue_wait_cycles(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.queue_wait_cycles as f64 / self.outcomes.len() as f64
    }
}

/// Mutable access to a map the workers share once the pool starts. The
/// callers assert the pool has not started, and `drain(self)` consumes
/// the service, so the service holds the only reference here.
fn unshared<T>(map: &mut Arc<T>) -> &mut T {
    Arc::get_mut(map).expect("worker-shared maps change only before start()")
}

fn add_stats(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        fills: a.fills + b.fills,
        invalidations: a.invalidations + b.invalidations,
        evictions: a.evictions + b.evictions,
    }
}

/// The service. Life cycle: configure → create VMs → register worlds →
/// [`WorldCallService::start`] → submit → [`WorldCallService::drain`].
/// Worlds can also be registered or deleted while the pool runs; deletes
/// converge every worker's caches within one batch through the table's
/// retire log.
#[derive(Debug)]
pub struct WorldCallService {
    config: RuntimeConfig,
    template: Platform,
    table: Arc<EpochWorldTable>,
    rings: Arc<RingSet<Queued>>,
    /// Per-worker virtual clocks; submissions are stamped with the
    /// minimum live clock so workers can derive queue-wait cycles.
    clocks: Arc<Vec<AtomicU64>>,
    /// Attached per-world working sets, keyed by raw WID. Filled in
    /// place before [`WorldCallService::start`], then shared read-only
    /// with every worker: page tables are machine state, not per-core.
    memory: Arc<HashMap<u64, WorldMemory>>,
    /// Attached per-callee switchless channel segments, keyed by raw
    /// WID; shared with the workers the same way.
    segments: Arc<HashMap<u64, ChannelSegment>>,
    /// The shared budget controller (present when switchless is on).
    controller: Option<Arc<Controller>>,
    /// Armed fault schedule; `None` (the default) and an empty plan are
    /// behaviorally identical.
    faults: Option<Arc<FaultPlan>>,
    /// The pool-shared degradation ladder.
    health: Arc<HealthState>,
    /// Shared callee-side authz policy (`None` when the plane is off —
    /// the structurally inert, cycle-exact configuration).
    authz: Option<Arc<AuthzPolicy>>,
    handles: Vec<JoinHandle<WorkerReport>>,
    /// Submit-side admission counters (host-side bookkeeping only; never
    /// charges virtual cycles, so the obs parity guarantees hold).
    admission: Mutex<AdmissionLedger>,
    /// Submit-side flight recorder for enqueue events (present only when
    /// obs is on; the off path never touches it).
    submit_obs: Option<Mutex<EventRing>>,
    /// Obs-plane sequence allocator; untouched when obs is off so every
    /// request carries seq 0 and submission stays wait-free.
    submit_seq: AtomicU64,
}

impl WorldCallService {
    /// Creates an idle service (no workers yet).
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` is zero (sized pools come from
    /// configuration; a zero there is caught by
    /// [`SmpMachine::try_new`]'s contract at drain too).
    pub fn new(config: RuntimeConfig) -> WorldCallService {
        assert!(config.workers > 0, "need at least one worker");
        let template = Platform::new_default();
        WorldCallService {
            config,
            template,
            table: Arc::new(EpochWorldTable::new(config.workers, config.quota)),
            rings: Arc::new(RingSet::new(config.workers, config.queue_capacity)),
            memory: Arc::default(),
            segments: Arc::default(),
            controller: config
                .switchless
                .enabled()
                .then(|| Arc::new(Controller::new(config.switchless))),
            faults: None,
            health: Arc::new(HealthState::new()),
            authz: config
                .authz
                .enabled()
                .then(|| Arc::new(AuthzPolicy::new(config.authz))),
            clocks: Arc::new((0..config.workers).map(|_| AtomicU64::new(0)).collect()),
            handles: Vec::new(),
            admission: Mutex::new(AdmissionLedger::default()),
            submit_obs: config
                .obs
                .enabled()
                .then(|| Mutex::new(EventRing::new(config.obs.ring_capacity))),
            submit_seq: AtomicU64::new(0),
        }
    }

    /// Arms a fault schedule: workers (and the merged SMP machine, when
    /// benches drive one directly) consult it at the named fault sites.
    /// Must precede [`WorldCallService::start`]. An empty plan leaves
    /// the runtime bit-for-bit identical to an unarmed one — the parity
    /// suite asserts this cycle-exactly.
    ///
    /// # Panics
    ///
    /// Panics if the pool already started.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            self.handles.is_empty(),
            "arm the fault plan before starting the pool"
        );
        self.faults = Some(Arc::new(plan));
    }

    /// The armed fault plan, if any (benches read fired counts off it).
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The pool-shared degradation ladder (live view; level 0 = normal).
    pub fn health(&self) -> &HealthState {
        &self.health
    }

    /// The shared authz policy (`None` when [`RuntimeConfig::authz`] is
    /// off). Grants, revocations and rate limits are issued through it,
    /// before or while the pool runs — workers read the shared object,
    /// so changes take effect within one batch.
    pub fn authz(&self) -> Option<&Arc<AuthzPolicy>> {
        self.authz.as_ref()
    }

    /// The pool's current virtual time: the minimum live worker clock.
    /// Benches use it to schedule mid-run operational events (fault
    /// bursts, degrade drills) at virtual-time offsets.
    pub fn virtual_now(&self) -> u64 {
        self.stamp()
    }

    /// Operational drill: forces the degradation ladder to `level` and
    /// pins it there for the rest of the run (automatic recovery is
    /// suspended). Forcing `ClassicOnly` mid-run rehearses a
    /// switchless-plane outage — every subsequent call pays per-call
    /// transition pairs, which is exactly the regression the watchdog's
    /// latency objectives plus the causal analyzer's `transition`
    /// component must attribute.
    pub fn force_degrade(&self, level: DegradeLevel) {
        self.health.pin_level(level, self.stamp());
    }

    /// The configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The template platform (VM and EPT registry all workers clone).
    pub fn platform(&self) -> &Platform {
        &self.template
    }

    /// The shared world table.
    pub fn table(&self) -> &EpochWorldTable {
        &self.table
    }

    /// Creates a guest VM in the template platform. Must precede
    /// [`WorldCallService::start`]: workers clone the template, so VMs
    /// created later would not exist on their vCPUs.
    ///
    /// # Errors
    ///
    /// Propagates [`Platform::create_vm`] failures.
    ///
    /// # Panics
    ///
    /// Panics if the pool already started.
    pub fn create_vm(&mut self, config: VmConfig) -> Result<VmId, HvError> {
        assert!(
            self.handles.is_empty(),
            "create VMs before starting the pool"
        );
        self.template.create_vm(config)
    }

    /// Registers a guest-user world in `vm`.
    ///
    /// # Errors
    ///
    /// [`WorldError`] from descriptor construction or table admission.
    pub fn register_guest_user(&self, vm: VmId, cr3: u64, entry: u64) -> Result<Wid, WorldError> {
        let d = WorldDescriptor::guest_user(&self.template, vm, cr3, entry)?;
        self.table.create(d)
    }

    /// Registers a guest-kernel world in `vm`.
    ///
    /// # Errors
    ///
    /// [`WorldError`] from descriptor construction or table admission.
    pub fn register_guest_kernel(&self, vm: VmId, cr3: u64, entry: u64) -> Result<Wid, WorldError> {
        let d = WorldDescriptor::guest_kernel(&self.template, vm, cr3, entry)?;
        self.table.create(d)
    }

    /// Registers an arbitrary world.
    ///
    /// # Errors
    ///
    /// [`WorldError`] from table admission (quota).
    pub fn register_world(&self, descriptor: WorldDescriptor) -> Result<Wid, WorldError> {
        self.table.create(descriptor)
    }

    /// Deletes a world. The table logs the retirement and workers pull
    /// it at their next batch boundary — O(1), no per-worker broadcast
    /// on the hot path; the staleness bound is one batch.
    ///
    /// # Errors
    ///
    /// [`WorldError::InvalidWid`] if absent.
    pub fn delete_world(&self, wid: Wid) -> Result<(), WorldError> {
        self.table.delete(wid)?;
        // A deleted world's authority dies with it: revoking here pins
        // the WID dead in the policy, so a successor reusing the same
        // context (or a forged replay of the stale WID) can never
        // authorize as its predecessor — even under `default_allow`.
        if let Some(policy) = &self.authz {
            policy.revoke(wid);
        }
        Ok(())
    }

    /// Attaches a `pages`-page working set to a registered guest world:
    /// allocates backed guest-physical pages in `vm`, builds a page table
    /// rooted at the world's PTP mapping them at a per-world virtual
    /// base, and records it so callee bodies with `touch_pages > 0`
    /// perform priced memory accesses through the worker TLBs.
    ///
    /// Must precede [`WorldCallService::start`] (workers clone the
    /// template's EPTs, which this extends).
    ///
    /// # Errors
    ///
    /// * [`HvError::NoSuchVm`] for an unknown VM.
    /// * [`HvError::Mmu`] on mapping conflicts.
    ///
    /// # Panics
    ///
    /// Panics if the pool already started, `pages` is zero, or `wid` is
    /// not a registered world.
    pub fn attach_working_set(&mut self, wid: Wid, vm: VmId, pages: u64) -> Result<(), HvError> {
        assert!(
            self.handles.is_empty(),
            "attach working sets before starting the pool"
        );
        assert!(pages > 0, "working set needs at least one page");
        let entry = self
            .table
            .lookup(wid)
            .expect("attach_working_set requires a registered world");
        let gpa_base = self.template.alloc_guest_pages(vm, pages)?;
        // A per-world virtual base keeps attached ranges disjoint even
        // for worlds sharing a page-table root.
        let base = Gva(0x10_0000_0000 + wid.raw() * 0x1000_0000);
        let mut pt = PageTable::new(entry.context.ptp);
        for i in 0..pages {
            pt.map(base + i * PAGE_SIZE, gpa_base + i * PAGE_SIZE, Perms::rw())?;
        }
        unshared(&mut self.memory).insert(wid.raw(), WorldMemory { pt, base, pages });
        Ok(())
    }

    /// The attached working set of `wid`, if any.
    pub fn working_set(&self, wid: Wid) -> Option<&WorldMemory> {
        self.memory.get(&wid.raw())
    }

    /// Attaches a switchless channel segment to the registered callee
    /// world `wid`: allocates `SEGMENT_LANES` (8) backed
    /// guest pages in `vm`, maps them rw in a page table rooted at the
    /// world's PTP, and records the [`ChannelSegment`]. Workers then
    /// service same-(caller, callee) batches into `wid` through the
    /// channel — when [`RuntimeConfig::switchless`] is enabled — paying
    /// one transition pair per coalesced batch plus priced slot
    /// accesses, instead of a pair per call.
    ///
    /// Callees without a channel (notably host worlds, which have no VM
    /// to allocate from) always use the classic path; attaching while
    /// switchless is `Off` is allowed and simply stays dormant.
    ///
    /// Must precede [`WorldCallService::start`] (workers clone the
    /// template's EPTs, which this extends).
    ///
    /// # Errors
    ///
    /// * [`HvError::NoSuchVm`] for an unknown VM.
    /// * [`HvError::Mmu`] on mapping conflicts.
    ///
    /// # Panics
    ///
    /// Panics if the pool already started or `wid` is not a registered
    /// world.
    pub fn attach_channel(&mut self, wid: Wid, vm: VmId) -> Result<(), HvError> {
        assert!(
            self.handles.is_empty(),
            "attach channels before starting the pool"
        );
        let entry = self
            .table
            .lookup(wid)
            .expect("attach_channel requires a registered world");
        let gpa_base = self.template.alloc_guest_pages(vm, SEGMENT_LANES)?;
        // Disjoint from the 0x10_... working-set range, per-world offset
        // for the same reason.
        let base = Gva(0x20_0000_0000 + wid.raw() * 0x1000_0000);
        let mut pt = PageTable::new(entry.context.ptp);
        for i in 0..SEGMENT_LANES {
            pt.map(base + i * PAGE_SIZE, gpa_base + i * PAGE_SIZE, Perms::rw())?;
        }
        unshared(&mut self.segments)
            .insert(wid.raw(), ChannelSegment::new(pt, base, SEGMENT_LANES));
        Ok(())
    }

    /// The attached channel segment of `wid`, if any.
    pub fn channel(&self, wid: Wid) -> Option<&ChannelSegment> {
        self.segments.get(&wid.raw())
    }

    /// Spawns the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if already started.
    pub fn start(&mut self) {
        assert!(self.handles.is_empty(), "pool already started");
        for index in 0..self.config.workers {
            let mut platform = self.template.clone();
            platform.set_tlb_enabled(self.config.unified_tlb);
            let ctx = WorkerContext {
                index,
                platform,
                table: Arc::clone(&self.table),
                rings: Arc::clone(&self.rings),
                batch_max: self.config.batch_max,
                clocks: Arc::clone(&self.clocks),
                memory: Arc::clone(&self.memory),
                switchless: self.config.switchless,
                controller: self.controller.clone(),
                segments: Arc::clone(&self.segments),
                faults: self.faults.clone(),
                health: Arc::clone(&self.health),
                obs: self.config.obs,
                authz: self.authz.clone(),
                outcomes: Vec::with_capacity(self.rings.len_of(index)),
            };
            self.handles.push(
                std::thread::Builder::new()
                    .name(format!("xover-worker-{index}"))
                    .spawn(move || worker::run(ctx))
                    .expect("spawn worker thread"),
            );
        }
    }

    /// The submission stamp: the minimum live worker clock, i.e. the
    /// earliest virtual time at which any worker could pick the request
    /// up. Exited workers park their clock at `u64::MAX` and are skipped.
    fn stamp(&self) -> u64 {
        self.clocks
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .filter(|&c| c != u64::MAX)
            .min()
            .unwrap_or(0)
    }

    /// Home worker for a request: callee-hashed so all calls into one
    /// world land on the same ring (destination batching), with stealing
    /// rebalancing skew.
    fn home_of(&self, req: &CallRequest) -> usize {
        (req.callee.raw() % self.config.workers as u64) as usize
    }

    /// Stamps a request for dispatch. With obs on it also draws the
    /// request's span sequence number; off, seq stays 0 and no shared
    /// state is touched beyond the clock reads `stamp()` already does.
    fn make_queued(&self, req: CallRequest) -> Queued {
        let stamped_at = self.stamp();
        let seq = if self.submit_obs.is_some() {
            self.submit_seq.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Queued {
            req,
            stamped_at,
            seq,
        }
    }

    /// Records an accepted request's enqueue event (obs on only). Called
    /// after a successful push so rejected submissions never produce
    /// half-spans.
    fn record_enqueue(&self, queued: &Queued) {
        if let Some(ring) = &self.submit_obs {
            ring.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Event::new(
                    queued.stamped_at,
                    SUBMIT_TRACK,
                    EventKind::RequestEnqueue,
                    queued.seq,
                    queued.req.caller.raw(),
                    queued.req.callee.raw(),
                ));
        }
    }

    /// Blocking submission: waits for ring space.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] if the service is draining.
    pub fn submit(&self, req: CallRequest) -> Result<(), SubmitError> {
        let queued = self.make_queued(req);
        self.rings
            .push(self.home_of(&req), queued)
            .map_err(|q| SubmitError::Closed(q.req))?;
        self.note_decision(req.tenant, true);
        self.record_enqueue(&queued);
        Ok(())
    }

    /// Records an admission decision in the submit-side ledger.
    fn note_decision(&self, tenant: u32, admitted: bool) {
        self.admission
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .decide(tenant, admitted);
    }

    /// Non-blocking submission with backpressure.
    ///
    /// # Errors
    ///
    /// * [`SubmitError::Busy`] — home ring full; the rejection is
    ///   counted.
    /// * [`SubmitError::Closed`] — service draining.
    pub fn try_submit(&self, req: CallRequest) -> Result<(), SubmitError> {
        // The bottom of the degradation ladder: a pool that cannot heal
        // (crash-looping worker) sheds new load instead of queueing work
        // it would dead-letter. One relaxed load on the healthy path.
        if self.health.is_shedding() {
            self.health.note_shed();
            self.note_decision(req.tenant, false);
            return Err(SubmitError::Busy(req));
        }
        let queued = self.make_queued(req);
        self.rings
            .try_push(self.home_of(&req), queued)
            .map_err(|e| match e {
                PushError::Busy(q) => {
                    self.note_decision(q.req.tenant, false);
                    SubmitError::Busy(q.req)
                }
                PushError::Closed(q) => SubmitError::Closed(q.req),
            })?;
        self.note_decision(req.tenant, true);
        self.record_enqueue(&queued);
        Ok(())
    }

    /// Closes the rings, joins every worker once the backlog drains, and
    /// merges their meters into an [`SmpMachine`] (core *i* ← worker
    /// *i*).
    pub fn drain(mut self) -> ServiceReport {
        self.rings.close();
        // A worker thread that genuinely panicked (injected crashes are
        // healed in-thread and never reach here) must not take the drain
        // down with it: its results are lost but everyone else's verdicts
        // still come home, and the panic is surfaced as a counter.
        let mut worker_panics = 0u64;
        let reports: Vec<WorkerReport> = self
            .handles
            .drain(..)
            .filter_map(|h| match h.join() {
                Ok(r) => Some(r),
                Err(_) => {
                    worker_panics += 1;
                    None
                }
            })
            .collect();
        let mut smp = SmpMachine::try_new(self.config.workers as u32)
            .expect("config.workers validated positive at construction");
        let mut batches = 0;
        let mut wt = CacheStats::default();
        let mut iwt = CacheStats::default();
        let mut tlb = TlbStats::default();
        let mut stolen = 0;
        let mut switchless = SwitchlessSummary::default();
        let mut supervisor = SupervisorSummary {
            worker_panics,
            degrade_escalations: self.health.escalations(),
            shed_rejections: self.health.sheds(),
            final_degrade_level: self.health.level() as u8,
            ..SupervisorSummary::default()
        };
        let mut per_callee: HashMap<u64, (u64, u64)> = HashMap::new();
        for r in &reports {
            supervisor.totals.absorb(&r.supervisor);
            smp.core_mut(CoreId(r.index as u32))
                .expect("one core per worker")
                .meter_mut()
                .absorb(&r.meter);
            batches += r.batches;
            wt = add_stats(wt, r.wt);
            iwt = add_stats(iwt, r.iwt);
            tlb.absorb(&r.tlb);
            stolen += r.stolen;
            switchless.drain.absorb(&r.switchless.drain);
            switchless.classic_calls += r.switchless.classic_calls;
            switchless.world_calls += r.world_calls;
            switchless.world_returns += r.world_returns;
            for (&callee, &(coalesced, pairs)) in &r.switchless.per_callee {
                let slot = per_callee.entry(callee).or_insert((0, 0));
                slot.0 += coalesced;
                slot.1 += pairs;
            }
        }
        switchless.per_callee = per_callee
            .into_iter()
            .map(|(callee, (coalesced, pairs))| PairTraffic {
                callee,
                coalesced,
                pairs,
            })
            .collect();
        switchless.per_callee.sort_unstable_by_key(|p| p.callee);
        if let Some(ctl) = &self.controller {
            switchless.epochs = ctl.history();
        }
        // Rings indexed by worker id; a panicked worker leaves an empty
        // ring in its slot rather than shifting everyone else's.
        let mut worker_rings = self
            .config
            .obs
            .enabled()
            .then(|| vec![EventRing::default(); self.config.workers]);
        // The first worker's log becomes the report's, grown once to the
        // total; the others append to it in worker order.
        let total: usize = reports.iter().map(|r| r.outcomes.len()).sum();
        let mut logs = reports.into_iter().map(|r| {
            if let Some(rings) = &mut worker_rings {
                rings[r.index] = r.obs;
            }
            r.outcomes
        });
        let mut outcomes = logs.next().unwrap_or_default();
        outcomes.reserve_exact(total - outcomes.len());
        logs.for_each(|log| outcomes.extend(log));
        let obs = worker_rings.map(|worker_rings| ObsReport {
            worker_rings,
            submit: self
                .submit_obs
                .take()
                .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
                .unwrap_or_default(),
        });
        let ledger = std::mem::take(&mut *self.admission.lock().unwrap_or_else(|e| e.into_inner()));
        let mut tenant_counts = ledger.per_tenant;
        let (mut completed, mut timed_out, mut failed, mut dead_lettered, mut denied) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut queue_wait_cycles = 0u64;
        for o in &outcomes {
            queue_wait_cycles += o.queue_wait_cycles;
            match o.verdict {
                CallVerdict::Completed => completed += 1,
                CallVerdict::TimedOut => timed_out += 1,
                CallVerdict::Failed(_) => failed += 1,
                CallVerdict::DeadLettered(_) => dead_lettered += 1,
                CallVerdict::Denied(_) => {
                    denied += 1;
                    tenant_counts
                        .entry(o.request.tenant)
                        .or_insert(TenantCounts {
                            tenant: o.request.tenant,
                            ..TenantCounts::default()
                        })
                        .denied += 1;
                }
            }
        }
        let mut per_tenant: Vec<TenantCounts> = tenant_counts.into_values().collect();
        per_tenant.sort_unstable_by_key(|t| t.tenant);
        ServiceReport {
            smp,
            completed,
            timed_out,
            failed,
            dead_lettered,
            denied,
            submitted: ledger.totals.submitted,
            admitted: ledger.totals.admitted,
            shed: ledger.totals.shed,
            per_tenant,
            batches,
            wt,
            iwt,
            tlb,
            queue_wait_cycles,
            stolen,
            table: self.table.health(),
            switchless,
            supervisor,
            authz: self.authz.as_ref().map(|p| p.summary()).unwrap_or_default(),
            outcomes,
            obs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A service with a guest-user caller in one VM and a guest-kernel
    /// callee in another; not started.
    fn two_world_service_with(config: RuntimeConfig) -> (WorldCallService, Wid, Wid) {
        let mut svc = WorldCallService::new(config);
        let vm1 = svc.create_vm(VmConfig::named("tenant-a")).unwrap();
        let vm2 = svc.create_vm(VmConfig::named("tenant-b")).unwrap();
        let caller = svc.register_guest_user(vm1, 0x1000, 0x40_0000).unwrap();
        let callee = svc.register_guest_kernel(vm2, 0x2000, 0xFFFF_8000).unwrap();
        (svc, caller, callee)
    }

    fn two_world_service(workers: usize) -> (WorldCallService, Wid, Wid) {
        two_world_service_with(RuntimeConfig {
            workers,
            ..RuntimeConfig::default()
        })
    }

    #[test]
    fn calls_complete_and_meters_merge() {
        let (mut svc, caller, callee) = two_world_service(2);
        svc.start();
        for _ in 0..50 {
            svc.submit(CallRequest::new(caller, callee, 500, 100))
                .unwrap();
        }
        let report = svc.drain();
        assert_eq!(report.completed, 50);
        assert_eq!(report.timed_out, 0);
        assert_eq!(report.failed, 0);
        assert_eq!(report.smp.core_count(), 2);
        assert!(report.smp.total_cycles() > 0);
        assert!(report.smp.makespan_cycles() <= report.smp.total_cycles());
        // Every call's measured section includes save+call+body+ret+restore.
        for o in &report.outcomes {
            assert!(o.latency_cycles >= 500, "body cycles are inside latency");
        }
    }

    /// Requests both ways between the two worlds, so both of a
    /// two-worker pool's home rings get a backlog; tagged by index.
    fn mixed_requests(caller: Wid, callee: Wid, n: u64) -> impl Iterator<Item = CallRequest> {
        (0..n).map(move |i| {
            let (from, to) = if i % 3 == 0 {
                (callee, caller)
            } else {
                (caller, callee)
            };
            CallRequest::new(from, to, 500, 100).with_tag(i)
        })
    }

    fn assert_every_outcome_in_worker_order(report: &ServiceReport, n: u64) {
        assert!(
            report
                .outcomes
                .windows(2)
                .all(|w| w[0].worker <= w[1].worker),
            "outcomes are appended worker by worker"
        );
        let mut tags: Vec<u64> = report.outcomes.iter().map(|o| o.request.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..n).collect::<Vec<_>>(), "one outcome per request");
    }

    #[test]
    fn drain_moves_logs_sized_to_the_backlog_at_start() {
        for workers in [1, 2] {
            let (mut svc, caller, callee) = two_world_service(workers);
            for req in mixed_requests(caller, callee, 300) {
                svc.submit(req).unwrap();
            }
            assert!((0..workers).all(|w| svc.rings.len_of(w) > 0));
            svc.start();
            let report = svc.drain();
            assert_every_outcome_in_worker_order(&report, 300);
            assert_eq!(
                report.outcomes.capacity(),
                report.outcomes.len(),
                "{workers} workers: the report's log is grown once, to its total"
            );
        }
    }

    #[test]
    fn logs_grow_for_requests_submitted_after_start() {
        for workers in [1, 2] {
            let (mut svc, caller, callee) = two_world_service(workers);
            svc.start();
            for req in mixed_requests(caller, callee, 300) {
                svc.submit(req).unwrap();
            }
            let report = svc.drain();
            assert_every_outcome_in_worker_order(&report, 300);
        }
    }

    #[test]
    fn deadline_cancels_slow_callee() {
        let (mut svc, caller, callee) = two_world_service(1);
        svc.start();
        // Body burns 100k cycles against a 1k budget.
        svc.submit(CallRequest::new(caller, callee, 100_000, 10).with_budget(1_000))
            .unwrap();
        // A well-behaved call afterwards still completes (vCPU recovered).
        svc.submit(CallRequest::new(caller, callee, 100, 10))
            .unwrap();
        let report = svc.drain();
        assert_eq!(report.timed_out, 1);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn bad_wids_fail_without_poisoning_the_pool() {
        let (mut svc, caller, callee) = two_world_service(2);
        svc.start();
        svc.submit(CallRequest::new(caller, Wid::from_raw(999), 10, 1))
            .unwrap();
        svc.submit(CallRequest::new(Wid::from_raw(999), callee, 10, 1))
            .unwrap();
        svc.submit(CallRequest::new(caller, callee, 10, 1)).unwrap();
        let report = svc.drain();
        assert_eq!(report.failed, 2);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn try_submit_backpressure_counts_rejections() {
        let (mut svc, caller, callee) = two_world_service_with(RuntimeConfig {
            workers: 1,
            queue_capacity: 4,
            ..RuntimeConfig::default()
        });
        // Pool not started: the queue fills and stays full.
        let req = CallRequest::new(caller, callee, 10, 1);
        for _ in 0..4 {
            svc.try_submit(req).unwrap();
        }
        assert!(matches!(svc.try_submit(req), Err(SubmitError::Busy(_))));
        assert!(matches!(svc.try_submit(req), Err(SubmitError::Busy(_))));
        svc.start();
        let report = svc.drain();
        assert_eq!(report.shed, 2);
        assert_eq!(report.completed, 4);
    }

    #[test]
    fn admission_ledger_conserves_per_tenant() {
        let (mut svc, caller, callee) = two_world_service_with(RuntimeConfig {
            workers: 1,
            queue_capacity: 4,
            ..RuntimeConfig::default()
        });
        // Tenant 7 fills the queue; tenant 9's try_submit then sheds.
        let req = CallRequest::new(caller, callee, 10, 1).with_tenant(7);
        for _ in 0..4 {
            svc.try_submit(req).unwrap();
        }
        assert!(matches!(
            svc.try_submit(req.with_tenant(9)),
            Err(SubmitError::Busy(_))
        ));
        svc.start();
        let report = svc.drain();
        assert_eq!(report.submitted, 5);
        assert_eq!(report.admitted, 4);
        assert_eq!(report.shed, 1);
        assert_eq!(report.submitted, report.admitted + report.shed);
        assert_eq!(report.admitted, report.outcomes.len() as u64);
        assert_eq!(
            report.per_tenant,
            vec![
                TenantCounts {
                    tenant: 7,
                    submitted: 4,
                    admitted: 4,
                    shed: 0,
                    denied: 0,
                },
                TenantCounts {
                    tenant: 9,
                    submitted: 1,
                    admitted: 0,
                    shed: 1,
                    denied: 0,
                },
            ]
        );
    }

    #[test]
    fn delete_invalidates_worker_caches_within_one_batch() {
        // The one-batch staleness bound: workers pull the table's retire
        // log at each batch boundary.
        let (mut svc, caller, callee) = two_world_service(1);
        svc.start();
        // Warm the single worker's caches (may race with the delete
        // below; either outcome for this call is fine).
        svc.submit(CallRequest::new(caller, callee, 10, 1)).unwrap();
        svc.delete_world(callee).unwrap();
        // This call is submitted strictly after the delete, so the batch
        // that carries it sees the retirement first. Without the
        // invalidation it would hit the stale cache line and "succeed"
        // against a deleted world.
        svc.submit(CallRequest::new(caller, callee, 20, 1)).unwrap();
        let report = svc.drain();
        let second = report
            .outcomes
            .iter()
            .find(|o| o.request.work_cycles == 20)
            .expect("second call serviced");
        assert_eq!(
            second.verdict,
            CallVerdict::Failed(WorldError::InvalidWid { wid: callee })
        );
    }

    #[test]
    fn report_carries_table_health() {
        let (mut svc, caller, callee) = two_world_service(2);
        svc.start();
        for _ in 0..20 {
            svc.submit(CallRequest::new(caller, callee, 100, 10))
                .unwrap();
        }
        let report = svc.drain();
        assert_eq!(report.completed, 20);
        assert_eq!(report.table.live, 2);
        assert_eq!(report.table.resident, 2, "tiny run never evicts");
        assert_eq!(report.table.evictions, 0);
        assert!(report.table.lookups > 0);
        assert!(
            report.table.writer_acquisitions >= 2,
            "each registration takes the writer lock"
        );
        assert!(report.table.writer_contended <= report.table.writer_acquisitions);
    }

    #[test]
    fn cold_burst_calls_rarely_take_the_table_writer_lock() {
        use machine::rng::SplitMix64;
        const VMS: u64 = 4;
        const PER_VM: u64 = 2_048;
        const CALLS: usize = 12_288;
        // The perfbench cold-burst shape: two workers, 8,192 worlds with
        // two-page working sets, switchless off. Attaching a working set
        // reads its world through the table, so the eviction window
        // calibrates early and the cold tail is evicted and refaulted.
        let mut svc = WorldCallService::new(RuntimeConfig {
            workers: 2,
            quota: PER_VM as usize,
            queue_capacity: CALLS + 16,
            ..RuntimeConfig::default()
        });
        let mut worlds = Vec::new();
        for v in 0..VMS {
            let vm = svc.create_vm(VmConfig::named(&format!("vm{v}"))).unwrap();
            for w in 0..PER_VM {
                let wid = svc
                    .register_guest_user(vm, 0x1000 * (w + 1), 0x40_0000)
                    .unwrap();
                svc.attach_working_set(wid, vm, 2).unwrap();
                worlds.push(wid);
            }
        }
        let before = svc.table().health().writer_acquisitions;
        svc.start();
        // Zipf(0.2) callee ranks spread over the population, uniform
        // callers.
        let n = worlds.len();
        let cdf: Vec<f64> = (1..=n)
            .scan(0.0, |sum, rank| {
                *sum += (rank as f64).powf(-0.2);
                Some(*sum)
            })
            .collect();
        let mut rng = SplitMix64::new(0xC01D_B125);
        for _ in 0..CALLS {
            let u = rng.below(1 << 30) as f64 / f64::from(1u32 << 30) * cdf[n - 1];
            let rank = cdf.partition_point(|&c| c < u);
            let caller = rng.below(n as u64) as usize;
            let mut callee = (rank * 2_654_435_761) % n;
            if callee == caller {
                callee = (callee + 1) % n;
            }
            svc.submit(
                CallRequest::new(worlds[caller], worlds[callee], 400, 133)
                    .with_touches(rng.below(3)),
            )
            .unwrap();
        }
        let report = svc.drain();
        assert_eq!(report.completed, CALLS as u64);
        assert!(
            report.table.evictions > 0,
            "the shape must evict: {:?}",
            report.table
        );
        let taken = report.table.writer_acquisitions - before;
        assert!(
            taken * 2 <= report.completed,
            "{taken} writer-lock acquisitions for {} calls ({:?})",
            report.completed,
            report.table
        );
    }

    #[test]
    fn submissions_after_drain_are_closed() {
        let (mut svc, caller, callee) = two_world_service(1);
        svc.start();
        let rings = Arc::clone(&svc.rings);
        let _ = svc.drain();
        let queued = Queued {
            req: CallRequest::new(caller, callee, 1, 1),
            stamped_at: 0,
            seq: 0,
        };
        assert!(matches!(
            rings.try_push(0, queued),
            Err(PushError::Closed(_))
        ));
    }

    #[test]
    fn unified_tlb_off_still_services_calls() {
        let (mut svc, caller, callee) = two_world_service_with(RuntimeConfig {
            workers: 2,
            unified_tlb: false,
            ..RuntimeConfig::default()
        });
        svc.start();
        for _ in 0..40 {
            svc.submit(CallRequest::new(caller, callee, 200, 20))
                .unwrap();
        }
        let report = svc.drain();
        assert_eq!(report.completed, 40);
        assert_eq!(
            report.tlb.hits + report.tlb.misses,
            0,
            "no memory workload, no TLB traffic"
        );
    }

    #[test]
    fn touch_pages_drive_tlb_hits_through_attached_memory() {
        let (mut svc, caller, callee) = two_world_service(1);
        let vm = svc.platform().vm_ids()[1];
        svc.attach_working_set(callee, vm, 8).unwrap();
        assert_eq!(svc.working_set(callee).unwrap().pages, 8);
        svc.start();
        for _ in 0..10 {
            svc.submit(CallRequest::new(caller, callee, 500, 50).with_touches(16))
                .unwrap();
        }
        let report = svc.drain();
        assert_eq!(report.completed, 10);
        let traffic = report.tlb.hits + report.tlb.misses;
        assert_eq!(traffic, 160, "every touch consults the unified TLB");
        // 8 distinct pages, 160 touches: all but the first round hit.
        assert!(report.tlb.hits >= 140, "tlb hits: {:?}", report.tlb);
    }

    #[test]
    fn workers_share_the_working_set_map_instead_of_copying_it() {
        const WORKERS: usize = 3;
        let (mut svc, _caller, callee) = two_world_service(WORKERS);
        let vm = svc.platform().vm_ids()[1];
        svc.attach_working_set(callee, vm, 4).unwrap();
        assert_eq!(Arc::strong_count(&svc.memory), 1);
        svc.start();
        // Workers hold their reference until drain joins them.
        assert_eq!(Arc::strong_count(&svc.memory), WORKERS + 1);
        assert_eq!(Arc::strong_count(&svc.segments), WORKERS + 1);
        let report = svc.drain();
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn queue_wait_is_accounted_for_prefilled_backlog() {
        let (mut svc, caller, callee) = two_world_service(1);
        for _ in 0..64 {
            svc.submit(CallRequest::new(caller, callee, 2_000, 200))
                .unwrap();
        }
        // All stamped at clock 0; the worker's clock advances as it
        // drains, so later requests must record positive waits.
        svc.start();
        let report = svc.drain();
        assert_eq!(report.completed, 64);
        assert!(
            report.queue_wait_cycles > 0,
            "a 64-deep backlog implies nonzero dispatch delay"
        );
    }

    #[test]
    fn rings_steal_when_all_callees_hash_to_one_home() {
        // One callee world → one home ring; with 4 workers the other
        // three can only contribute by stealing.
        let (mut svc, caller, callee) = two_world_service(4);
        for _ in 0..512 {
            svc.submit(CallRequest::new(caller, callee, 2_000, 200))
                .unwrap();
        }
        svc.start();
        let report = svc.drain();
        assert_eq!(report.completed, 512);
        assert!(
            report.stolen > 0,
            "a single hot ring must shed work to thieves"
        );
    }

    /// A single-worker service with a channel-equipped callee and a
    /// prefilled same-pair backlog — the deterministic switchless rig.
    fn switchless_service(
        workers: usize,
        switchless: SwitchlessConfig,
    ) -> (WorldCallService, Wid, Wid) {
        let (mut svc, caller, callee) = two_world_service_with(RuntimeConfig {
            workers,
            switchless,
            queue_capacity: 4096,
            ..RuntimeConfig::default()
        });
        let vm = svc.platform().vm_ids()[1];
        svc.attach_channel(callee, vm).unwrap();
        (svc, caller, callee)
    }

    #[test]
    fn switchless_amortizes_transitions_below_one_per_call() {
        let (mut svc, caller, callee) = switchless_service(1, SwitchlessConfig::fixed(16));
        for _ in 0..128 {
            svc.submit(CallRequest::new(caller, callee, 500, 100))
                .unwrap();
        }
        svc.start();
        let report = svc.drain();
        assert_eq!(report.completed, 128);
        let sw = &report.switchless;
        assert!(sw.drain.coalesced_calls > 0, "channel saw traffic");
        assert!(
            sw.drain.transitions_per_call() < 1.0,
            "hot pair amortizes: {} pairs over {} calls",
            sw.drain.transition_pairs,
            sw.drain.coalesced_calls
        );
        assert!(sw.drain.slot_cycles > 0, "slot traffic is priced");
        let hot = sw.hottest_pair().expect("one hot pair");
        assert_eq!(hot.callee, callee.raw());
        assert!(hot.transitions_per_call() < 1.0);
    }

    #[test]
    fn switchless_beats_classic_on_a_hot_pair() {
        let run = |switchless: SwitchlessConfig| {
            let (mut svc, caller, callee) = switchless_service(1, switchless);
            for _ in 0..128 {
                svc.submit(CallRequest::new(caller, callee, 300, 50))
                    .unwrap();
            }
            svc.start();
            let report = svc.drain();
            assert_eq!(report.completed, 128);
            report.smp.total_cycles()
        };
        let classic = run(SwitchlessConfig::default());
        let coalesced = run(SwitchlessConfig::fixed(16));
        assert!(
            coalesced < classic,
            "coalesced {coalesced} must undercut classic {classic}"
        );
    }

    #[test]
    fn timeout_aborts_residency_and_rest_of_chunk_goes_classic() {
        let (mut svc, caller, callee) = switchless_service(1, SwitchlessConfig::fixed(16));
        // Two sane calls, one budget-buster, then more sane calls — all
        // one (caller, callee) pair, so they coalesce into one chunk.
        for i in 0..16u64 {
            let req = CallRequest::new(caller, callee, 400, 40);
            let req = if i == 2 {
                CallRequest::new(caller, callee, 50_000, 40).with_budget(1_000)
            } else {
                req
            };
            svc.submit(req).unwrap();
        }
        svc.start();
        let report = svc.drain();
        assert_eq!(report.timed_out, 1, "only the buster times out");
        assert_eq!(report.completed, 15);
        assert_eq!(report.switchless.drain.timeout_aborts, 1);
        assert!(
            report.switchless.classic_calls > 0,
            "the aborted residency's leftovers fall back to classic"
        );
        let buster = report
            .outcomes
            .iter()
            .find(|o| o.verdict == CallVerdict::TimedOut)
            .unwrap();
        assert!(buster.coalesced, "the buster died inside the residency");
    }

    #[test]
    fn adaptive_controller_records_epochs_while_serving() {
        let (mut svc, caller, callee) = switchless_service(
            1,
            SwitchlessConfig {
                epoch_cycles: 50_000,
                ..SwitchlessConfig::adaptive()
            },
        );
        for _ in 0..512 {
            svc.submit(CallRequest::new(caller, callee, 500, 100))
                .unwrap();
        }
        svc.start();
        let report = svc.drain();
        assert_eq!(report.completed, 512);
        assert!(
            !report.switchless.epochs.is_empty(),
            "the controller ticked at least once"
        );
    }

    #[test]
    fn default_policy_keeps_timed_out_constant_across_worker_counts() {
        // The documented §3.4 semantics: a budget bounds on-CPU service
        // time, so which calls time out is a property of the request,
        // not of pool sizing. A seeded stream over skewed callees with
        // working-set touches, where 3% of calls carry a budget below
        // their body work and the rest a generous one, must cancel
        // exactly the abusive calls whether 1, 2, 4 or 8 workers drain
        // it.
        use machine::rng::SplitMix64;
        const CALLS: usize = 2_000;
        const PAGES: u64 = 16;
        let run = |workers: usize| {
            let mut svc = WorldCallService::new(RuntimeConfig {
                workers,
                queue_capacity: CALLS,
                ..RuntimeConfig::default()
            });
            let mut worlds = Vec::new();
            for t in 0..4u64 {
                let vm = svc.create_vm(VmConfig::named(&format!("ab-{t}"))).unwrap();
                for wid in [
                    svc.register_guest_user(vm, 0x1000 * (t + 1), 0x40_0000)
                        .unwrap(),
                    svc.register_guest_kernel(vm, 0x10_0000 * (t + 1), 0xFFFF_8000)
                        .unwrap(),
                ] {
                    svc.attach_working_set(wid, vm, PAGES).unwrap();
                    worlds.push(wid);
                }
            }
            let mut rng = SplitMix64::new(0xC0DE_BEEF);
            let mut abusive = 0;
            for _ in 0..CALLS {
                let caller = *rng.pick(&worlds);
                let callee = loop {
                    let w = if rng.flip() {
                        worlds[rng.below(2) as usize]
                    } else {
                        *rng.pick(&worlds)
                    };
                    if w != caller {
                        break w;
                    }
                };
                let work = 200 + rng.below(2_000);
                let req = CallRequest::new(caller, callee, work, work / 3)
                    .with_touches(rng.below(2 * PAGES));
                let budget = if rng.chance(0.03) {
                    abusive += 1;
                    work / 4
                } else {
                    1_000_000
                };
                svc.submit(req.with_budget(budget)).unwrap();
            }
            svc.start();
            let report = svc.drain();
            assert_eq!(report.completed + report.timed_out, CALLS as u64);
            (report.timed_out, abusive)
        };
        let (timed_out, abusive) = run(1);
        assert!(abusive > 0, "the seeded stream carries abusive calls");
        assert_eq!(timed_out, abusive, "every abusive call, and only those");
        for workers in [2, 4, 8] {
            assert_eq!(run(workers).0, timed_out, "{workers} workers");
        }
    }

    #[test]
    fn mean_queue_wait_is_bounded_by_makespan() {
        // The satellite fix: summed queue wait over a deep backlog
        // legitimately exceeds the makespan (it is a sum over calls);
        // the *mean* per-call wait cannot — no call waits longer than
        // the run.
        let (mut svc, caller, callee) = two_world_service(1);
        for _ in 0..256 {
            svc.submit(CallRequest::new(caller, callee, 2_000, 200))
                .unwrap();
        }
        svc.start();
        let report = svc.drain();
        assert_eq!(report.completed, 256);
        let makespan = report.smp.makespan_cycles();
        assert!(
            report.queue_wait_cycles > makespan,
            "the sum dwarfs the makespan on a deep backlog (that is not a bug)"
        );
        assert!(
            report.mean_queue_wait_cycles() <= makespan as f64,
            "mean wait {} must be bounded by makespan {}",
            report.mean_queue_wait_cycles(),
            makespan
        );
    }

    #[test]
    fn work_splits_across_workers() {
        // Scheduling is the host OS's business, so "more than one worker
        // participated" is statistical; pre-filling the queue before the
        // pool starts and retrying a few times makes a false negative
        // vanishingly unlikely without masking a real serialization bug.
        const CALLS: u64 = 2_000;
        for attempt in 0..5 {
            let (mut svc, caller, callee) = two_world_service_with(RuntimeConfig {
                workers: 4,
                queue_capacity: 4096, // pre-filled before the pool starts
                ..RuntimeConfig::default()
            });
            for _ in 0..CALLS {
                svc.submit(CallRequest::new(caller, callee, 1_000, 100))
                    .unwrap();
            }
            svc.start();
            let report = svc.drain();
            assert_eq!(report.completed, CALLS);
            if report.smp.makespan_cycles() < report.smp.total_cycles() {
                return; // at least two cores carried work
            }
            eprintln!("attempt {attempt}: one worker drained everything; retrying");
        }
        panic!("work never split across workers in 5 attempts");
    }
}
