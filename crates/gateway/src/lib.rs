//! `xover-gateway`: an async tenant gateway in front of the world-call
//! service.
//!
//! [`runtime::WorldCallService`] exposes a *synchronous* submission
//! surface: `submit` blocks on queue space, `try_submit` hands `Busy`
//! straight back to the caller. Every tenant therefore needs a thread
//! per in-flight call, and under overload the shedding decision lands
//! wherever the caller happened to be — deep inside the service, with
//! no per-tenant accounting and no fairness between tenants.
//!
//! This crate adds the io_uring-shaped alternative the paper's
//! switchless channels hint at, one layer up: per-tenant **submission
//! rings** a tenant fills with tagged call descriptors, per-tenant
//! **completion rings** verdicts come back on in batches, and a
//! **gateway reactor** between them that drains submission rings in
//! tenant-class weighted round-robin and owns every admission decision:
//!
//! * *Ring capacity* bounds a tenant's waiting-room: arrivals beyond it
//!   are shed immediately (reason `ring-full`) instead of queueing
//!   without bound.
//! * *In-flight quotas* bound what an admitted tenant can occupy: the
//!   reactor holds a ring head back (it does **not** shed it) until one
//!   of that tenant's calls completes. Ring capacity sheds; quotas
//!   delay.
//! * *Health*: the service's degradation ladder
//!   ([`runtime::HealthState`]) is consulted at admission, so a
//!   `Shedding` service sheds at the gateway — explicitly counted per
//!   tenant, reason `health` — instead of bouncing every request off
//!   `try_submit`.
//! * *Service backpressure*: a `Busy` verdict from `try_submit` sheds
//!   the head (reason `busy`); after `BUSY_SHED_THRESHOLD` (4) consecutive
//!   `Busy` results the reactor latches and fast-sheds the remaining
//!   backlog rather than hammering a full queue.
//!
//! Because ring capacity and quota bound everything in front of an
//! *admitted* call, its end-to-end latency is bounded by construction —
//! overload moves the overflow into explicit shed counts, never into
//! the admitted tail. That is the gateway's contract: **shed loudly,
//! never silently**, and `submitted == admitted + shed` at every level
//! (checked in-process by [`reactor::GatewayReport::check_conservation`]
//! and post-hoc by `obs::verify` over the recorded trace).
//!
//! Everything runs in virtual time. The reactor is a deterministic
//! event loop over the open-loop arrival trace (see
//! `workloads::openloop`): the same seed gives the same admissions, the
//! same sheds and the same completion order, every run, which is what
//! lets the property tests compare the gateway against blocking
//! submission verdict for verdict. A caller that wants no gateway calls
//! [`runtime::WorldCallService::submit`] directly.

pub mod reactor;
pub mod ring;

use obs::TraceDoc;

pub use reactor::{Gateway, GatewayReport, TenantReport};
pub use ring::{CompletionRing, SubmissionRing};

pub use runtime::{CallRequest, CallVerdict};

/// Obs track id carrying every gateway event. Worker events use tracks
/// `0..workers` and submissions use `u32::MAX`; the gateway sits just
/// below so the streams never collide.
pub const GATEWAY_TRACK: u32 = u32::MAX - 1;

/// Service classes for weighted round-robin admission. The weight is
/// how many ring heads the reactor will admit for this tenant per WRR
/// round before moving on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TenantClass {
    /// Weight 4.
    Gold,
    /// Weight 2.
    #[default]
    Silver,
    /// Weight 1.
    Bronze,
}

impl TenantClass {
    /// Admissions this class may take per WRR round.
    pub fn weight(self) -> u32 {
        match self {
            TenantClass::Gold => 4,
            TenantClass::Silver => 2,
            TenantClass::Bronze => 1,
        }
    }
}

/// Per-tenant gateway knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// WRR service class.
    pub class: TenantClass,
    /// Maximum in-flight (admitted, not yet completed) calls. At the
    /// quota the ring head is *held*, not shed. Must be ≥ 1.
    pub quota: usize,
    /// Submission-ring capacity; arrivals beyond it are shed with
    /// reason `ring-full`. Must be ≥ 1.
    pub ring_capacity: usize,
}

impl TenantConfig {
    /// A tenant with the given class, quota and ring capacity.
    pub fn new(class: TenantClass, quota: usize, ring_capacity: usize) -> TenantConfig {
        TenantConfig {
            class,
            quota,
            ring_capacity,
        }
    }
}

/// Completions per delivery batch: the reactor flushes a tenant's
/// pending completions whenever this many accumulate; a final partial
/// batch flushes at drain.
pub(crate) const COMPLETION_BATCH: usize = 8;

/// Consecutive `Busy` results from `try_submit` before the reactor stops
/// knocking and fast-sheds the rest of the backlog.
pub(crate) const BUSY_SHED_THRESHOLD: u32 = 4;

/// Gateway-wide configuration: one entry per tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayConfig {
    /// One entry per tenant; tenant id is the index.
    pub tenants: Vec<TenantConfig>,
}

impl GatewayConfig {
    /// A gateway over the given tenants.
    pub fn rings(tenants: Vec<TenantConfig>) -> GatewayConfig {
        GatewayConfig { tenants }
    }

    /// Panics on nonsensical knobs (zero quotas/capacities would
    /// deadlock or shed everything silently).
    pub(crate) fn validate(&self) {
        for (id, t) in self.tenants.iter().enumerate() {
            assert!(t.quota >= 1, "tenant {id}: quota must be >= 1");
            assert!(
                t.ring_capacity >= 1,
                "tenant {id}: ring_capacity must be >= 1"
            );
        }
    }
}

/// Why the gateway refused a submission. The discriminant is carried in
/// the `c` field of `GatewayShed` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's submission ring was full at arrival.
    RingFull = 0,
    /// The service's degradation ladder was at `Shedding`.
    Health = 1,
    /// `try_submit` returned `Busy` (or the busy latch had tripped).
    Busy = 2,
    /// The service's authz policy holds no grant for the submission's
    /// (caller, callee) pair — checked side-effect-free at admission,
    /// so a doomed request never burns dispatch capacity. Distinct
    /// from `Busy`: a denied tenant is refused by policy, not load.
    Denied = 3,
}

/// One entry in a tenant's submission ring: the tenant's request plus
/// the gateway-assigned completion token and its open-loop arrival
/// instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Gateway-assigned token, unique across the run; completions carry
    /// it back. It also rides the request's `tag` through the service
    /// (the original tag is restored on the completion).
    pub token: u64,
    /// Tenant that issued the submission.
    pub tenant: u32,
    /// Open-loop arrival instant in virtual cycles.
    pub arrival_cycles: u64,
    /// The call as the tenant described it.
    pub request: CallRequest,
}

/// One entry in a tenant's completion ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The token assigned at enqueue.
    pub token: u64,
    /// The tag the tenant originally put on the request (the gateway
    /// repurposes the wire tag for its token; this hands the original
    /// back).
    pub user_tag: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// How the call ended.
    pub verdict: CallVerdict,
    /// Open-loop arrival instant.
    pub arrival_cycles: u64,
    /// When the reactor admitted it into the service.
    pub admitted_cycles: u64,
    /// When its completion was delivered to the ring.
    pub done_cycles: u64,
}

impl Completion {
    /// End-to-end latency of the *admitted* call: arrival to completion
    /// delivery, in virtual cycles. This is the quantity the overload
    /// sweep holds bounded.
    pub fn end_to_end_cycles(&self) -> u64 {
        self.done_cycles.saturating_sub(self.arrival_cycles)
    }
}

/// Builds the recording document for a gateway run: the service's own
/// recorded trace (when [`runtime::RuntimeConfig::obs`] was on; an
/// event-less skeleton otherwise) with the gateway's admit/shed/batch
/// events appended on [`GATEWAY_TRACK`] and the gateway's conservation
/// counts riding along for `obs::verify`'s gateway checks.
pub fn gateway_trace_doc(benchmark: &str, report: &GatewayReport, frequency_ghz: f64) -> TraceDoc {
    let mut doc =
        runtime::trace_doc(benchmark, &report.service, frequency_ghz).unwrap_or_else(|| TraceDoc {
            benchmark: benchmark.to_string(),
            frequency_ghz,
            workers: report.service.smp.core_count(),
            makespan_cycles: report.service.smp.makespan_cycles(),
            total_cycles: report.service.smp.total_cycles(),
            counts: Vec::new(),
            events: Vec::new(),
            dropped: 0,
        });
    doc.counts
        .push(("gateway_submitted".to_string(), report.submitted));
    doc.counts
        .push(("gateway_admitted".to_string(), report.admitted));
    doc.counts.push(("gateway_shed".to_string(), report.shed));
    doc.events.extend(report.events.iter().cloned());
    doc
}
