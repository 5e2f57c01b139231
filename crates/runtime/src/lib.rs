//! `xover-runtime`: a concurrent multi-tenant world-call service.
//!
//! The rest of the workspace reproduces CrossOver (§3–§7) on a faithful
//! single-vCPU [`hypervisor::platform::Platform`]. This crate asks the
//! scaling question the paper leaves implicit: the design removes the
//! hypervisor from the call path, so the remaining shared structure is
//! the world table itself — what does a *machine-wide* world-call
//! service look like when many cores drive calls for many guest VMs at
//! once?
//!
//! The main pieces answer it:
//!
//! * [`epoch::EpochWorldTable`] — the hypervisor-managed world table at
//!   million-world scale: wait-free WID→entry lookups against an
//!   atomically published snapshot, deletes retired through an
//!   epoch-based grace period instead of an invalidation broadcast, and
//!   cold worlds demoted to a compact paged store (faulted back on
//!   lookup) so resident memory tracks the hot set rather than the
//!   registration count. Its atomic WID allocator is monotonic and
//!   never reuses a WID (the unforgeability invariant), and workers
//!   drive it through the same [`crossover::table::WorldLookup`]
//!   contract as the sequential table, so the hardware model
//!   ([`crossover::call::WorldCallUnit`]) is unchanged.
//! * [`service::WorldCallService`] — bounded admission (`try_submit`
//!   returns `Busy` at capacity instead of buffering without bound) in
//!   front of a pool of OS-thread workers. Dispatch is per-worker
//!   lock-free rings ([`ring::RingSet`], a Vyukov bounded MPMC ring per
//!   worker) routed by callee with round-robin work stealing. Each
//!   worker simulates one vCPU: a cloned platform with a private
//!   EPTP-tagged unified TLB, private set-associative WT/IWT caches,
//!   and a private meter, so the hot path takes no shared lock. As in
//!   hardware, that CPU, TLB and WT/IWT state is all that is per-core:
//!   host RAM is shared copy-on-write and the attached working-set page
//!   tables are shared read-only, so starting a worker copies neither. Worlds
//!   can be deleted while the pool runs; each worker pulls the table's
//!   retire log tail before its next batch and purges its caches — the
//!   concurrent `manage_wtc`, staleness bounded at one batch. Per-call
//!   deadlines reuse the §3.4 timeout machinery
//!   ([`crossover::manager::CallToken::expired`]). Requests are stamped
//!   with the minimum live worker clock at submission, so each outcome
//!   carries its virtual-time queue wait. On drain the per-worker
//!   meters merge into an [`hypervisor::smp::SmpMachine`], one core per
//!   worker, alongside summed WT/IWT/TLB statistics.
//! * [`switchless`] — the switchless fast path's policy layer. Callees
//!   with an attached [`crossover::switchless::ChannelSegment`] (priced
//!   shared guest memory) are serviced by *resident dispatchers*: one
//!   save/`world_call`/return/restore transition pair amortized over a
//!   coalesced same-(caller, callee) batch, every request/response slot
//!   access priced through the worker TLB. Switchless is on or off
//!   ([`SwitchlessConfig::on`]; the default, off, keeps PR-2 behavior
//!   bit for bit). A residency serves the whole same-caller run the
//!   worker popped, so its length follows `batch_max` with no knob of
//!   its own, and a residency a §3.4 timeout aborts reopens for its
//!   un-serviced tail. A channel serves every caller the authz plane
//!   admitted; it makes no admission decision of its own.
//! * [`authz`] — the callee-side authorization the paper's §3 defers
//!   to software: capability grants with generation-stamped revocation
//!   (`delete_world` auto-revokes, so a stale WID never authorizes as
//!   its predecessor), per-grant token buckets priced in virtual time
//!   ([`AuthzPolicy::set_rate`]), and bounded call-chain provenance.
//!   It is the runtime's one authorization check: once per call at
//!   worker dispatch, before path selection.
//!   Checks charge zero virtual cycles, so [`AuthzConfig::off`] (the
//!   default) is bit-for-bit cycle-exact with the unenforced runtime.
//! * [`watchdog`] — the SLO watchdog, an offline analysis rather than a
//!   plane: [`watchdog::evaluate`] reads a drained run's outcomes, the
//!   gateway's admit/shed decisions and the recording, and returns
//!   burn-rate incidents with their critical-path contributors.
//!
//! [`RuntimeConfig`] documents which values are settable and why; the
//! rest are constants in the modules that use them ([`supervisor`],
//! [`watchdog`], [`switchless`]).
//!
//! The equivalence property test (`tests/equivalence.rs`) pins the
//! crate's central claim: the epoch table driven sequentially is
//! *indistinguishable* from the sequential table — same WIDs, same
//! errors, same cache statistics, same metered cycles.

pub mod authz;
pub mod epoch;
pub mod observe;
pub mod report;
pub mod ring;
pub mod router;
pub mod service;
pub mod supervisor;
pub mod switchless;
pub mod watchdog;
mod worker;

pub use authz::{AuthzConfig, AuthzMode, AuthzPolicy, AuthzSummary, RateLimitConfig};
pub use epoch::{EpochWorldTable, MaintainOutcome, TableHealth};
pub use obs::{
    build_spans, top_slowest, verify, ConservationReport, Event, EventKind, EventRing,
    LogHistogram, ObsConfig, ObsMode, ObsReport, Registry, Span, TraceDoc,
};
pub use observe::{annotate_registry, annotate_trace, metrics_registry, trace_doc};
pub use ring::{PushError, Ring, RingSet};
pub use router::{CallError, CallOutcome, CallRequest, CallVerdict, Provenance, MAX_HOPS};
pub use service::{
    RuntimeConfig, ServiceReport, SubmitError, TenantCounts, WorldCallService, WorldMemory,
};
pub use supervisor::{DegradeLevel, HealthState, Supervisor, SupervisorReport, SupervisorSummary};
pub use switchless::{
    EpochSnapshot, PairTraffic, SwitchlessConfig, SwitchlessSummary, SwitchlessWorkerStats,
};
pub use watchdog::{
    evaluate, incident_events, incidents_to_json, Contributor, Incident, Objective, WatchdogSummary,
};
pub use worker::WorkerReport;
