//! Typed events stamped with virtual time.
//!
//! Every event is a fixed-size POD record: a virtual-cycle timestamp, the
//! emitting track (worker index, or [`SUBMIT_TRACK`](crate::SUBMIT_TRACK) for
//! the submit side), a kind, and three kind-specific payload words. Payload
//! meanings are documented per variant; unused words are zero.

/// Event taxonomy for the world-call service. Discriminants are dense and
/// stable: they index count arrays and name tables directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Request accepted by `submit`/`try_submit`. a=seq, b=caller, c=callee.
    RequestEnqueue = 0,
    /// Worker picked the request up. a=seq, b=queue-wait cycles, c=callee.
    RequestDispatch = 1,
    /// The dispatching worker stole the request from a peer's ring. a=seq.
    RequestSteal = 2,
    /// Guest performed a world call. a=caller, b=callee.
    WorldCall = 3,
    /// Guest returned from a world call. a=callee, b=caller.
    WorldReturn = 4,
    /// WT lookups that hit while servicing one request. a=count.
    WtHit = 5,
    /// WT lookups that missed. a=count.
    WtMiss = 6,
    /// IWT lookups that hit. a=count.
    IwtHit = 7,
    /// IWT lookups that missed. a=count.
    IwtMiss = 8,
    /// TLB lookups that hit. a=count.
    TlbHit = 9,
    /// TLB lookups that missed. a=count.
    TlbMiss = 10,
    /// Resident drain opened a channel segment. a=caller, b=callee, c=batch.
    DrainOpen = 11,
    /// Resident drain serviced one request in place. a=seq, b=callee.
    DrainExtend = 12,
    /// Resident drain closed. a=callee, b=serviced, c=reason
    /// (0=dry, 1=saturated, 2=deadline-abort, 3=channel-fault).
    DrainClose = 13,
    /// An injected fault fired. a=site index
    /// (`machine::fault::FaultSite::index`).
    FaultObserved = 14,
    /// Supervisor backed a retry off. a=attempt, b=backoff cycles.
    RetryBackoff = 15,
    /// Supervisor quarantined a channel. a=callee.
    Quarantine = 16,
    /// Supervisor respawned a crashed worker loop. a=respawn count so far.
    Respawn = 17,
    /// Request dead-lettered. a=seq (u64::MAX when unknown), b=reason
    /// (0=lookup crash-loop, 1=worker crash-loop).
    DeadLetter = 18,
    /// Request reached a verdict. a=seq, b=verdict code
    /// (0=completed, 1=timed-out, 2=failed, 3=dead-lettered, 4=denied),
    /// c=1 if the request was serviced by a resident drain.
    RequestVerdict = 19,
    /// Supervisor charged a stall to a worker. a=stall cycles.
    Stall = 20,
    /// Gateway admitted a submission into the service. a=token, b=tenant,
    /// c=callee.
    GatewayAdmit = 21,
    /// Gateway shed a submission without servicing it. a=token, b=tenant,
    /// c=reason (0=ring-full, 1=health-shedding, 2=service-busy,
    /// 3=denied).
    GatewayShed = 22,
    /// Gateway delivered a batch of completions to a tenant's completion
    /// ring. a=batch size, b=tenant.
    CompletionBatch = 23,
    /// Epoch table demoted cold worlds to the paged store. a=entries
    /// demoted in this maintenance pass.
    WorldEvict = 24,
    /// Cold worlds faulted back into the resident tree. a=refaults since
    /// the last maintenance pass.
    WorldRefault = 25,
    /// Retired table structures freed after their grace period.
    /// a=structures reclaimed in this maintenance pass.
    GraceReclaim = 26,
    /// The authz policy refused a call. a=seq, b=deny code (0=denied,
    /// 1=revoked, 2=rate-limited, 3=chain-too-deep), c=caller WID.
    AuthzDeny = 27,
    /// A worker observed a policy-generation bump at a batch boundary
    /// (the revocation-visibility marker the one-batch bound is measured
    /// against). a=generation now visible, b=previous generation.
    Revocation = 28,
    /// The SLO watchdog raised an incident. Synthesized post-hoc on the
    /// [`WATCHDOG_TRACK`](crate::ring::WATCHDOG_TRACK) when a recorded
    /// trace is annotated — never emitted from a worker ring. a=epoch
    /// index of the breached window, b=objective code (0=latency-p99,
    /// 1=shed-rate, 2=dead-letter-budget), c=burn rate ×100.
    SloIncident = 29,
}

impl EventKind {
    pub const COUNT: usize = 30;

    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::RequestEnqueue,
        EventKind::RequestDispatch,
        EventKind::RequestSteal,
        EventKind::WorldCall,
        EventKind::WorldReturn,
        EventKind::WtHit,
        EventKind::WtMiss,
        EventKind::IwtHit,
        EventKind::IwtMiss,
        EventKind::TlbHit,
        EventKind::TlbMiss,
        EventKind::DrainOpen,
        EventKind::DrainExtend,
        EventKind::DrainClose,
        EventKind::FaultObserved,
        EventKind::RetryBackoff,
        EventKind::Quarantine,
        EventKind::Respawn,
        EventKind::DeadLetter,
        EventKind::RequestVerdict,
        EventKind::Stall,
        EventKind::GatewayAdmit,
        EventKind::GatewayShed,
        EventKind::CompletionBatch,
        EventKind::WorldEvict,
        EventKind::WorldRefault,
        EventKind::GraceReclaim,
        EventKind::AuthzDeny,
        EventKind::Revocation,
        EventKind::SloIncident,
    ];

    /// Dense index (the discriminant).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable machine-readable name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RequestEnqueue => "req_enqueue",
            EventKind::RequestDispatch => "req_dispatch",
            EventKind::RequestSteal => "req_steal",
            EventKind::WorldCall => "world_call",
            EventKind::WorldReturn => "world_return",
            EventKind::WtHit => "wt_hit",
            EventKind::WtMiss => "wt_miss",
            EventKind::IwtHit => "iwt_hit",
            EventKind::IwtMiss => "iwt_miss",
            EventKind::TlbHit => "tlb_hit",
            EventKind::TlbMiss => "tlb_miss",
            EventKind::DrainOpen => "drain_open",
            EventKind::DrainExtend => "drain_extend",
            EventKind::DrainClose => "drain_close",
            EventKind::FaultObserved => "fault",
            EventKind::RetryBackoff => "retry_backoff",
            EventKind::Quarantine => "quarantine",
            EventKind::Respawn => "respawn",
            EventKind::DeadLetter => "dead_letter",
            EventKind::RequestVerdict => "req_verdict",
            EventKind::Stall => "stall",
            EventKind::GatewayAdmit => "gw_admit",
            EventKind::GatewayShed => "gw_shed",
            EventKind::CompletionBatch => "completion_batch",
            EventKind::WorldEvict => "world_evict",
            EventKind::WorldRefault => "world_refault",
            EventKind::GraceReclaim => "grace_reclaim",
            EventKind::AuthzDeny => "authz_deny",
            EventKind::Revocation => "revocation",
            EventKind::SloIncident => "slo_incident",
        }
    }

    /// Inverse of [`EventKind::name`].
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// One flight-recorder record. `ts` is virtual cycles on the emitting track's
/// clock; `worker` is the track id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub ts: u64,
    pub worker: u32,
    pub kind: EventKind,
    pub a: u64,
    pub b: u64,
    pub c: u64,
}

impl Event {
    pub fn new(ts: u64, worker: u32, kind: EventKind, a: u64, b: u64, c: u64) -> Self {
        Event {
            ts,
            worker,
            kind,
            a,
            b,
            c,
        }
    }
}

/// Per-kind event counts over a slice, indexed by [`EventKind::index`].
pub fn counts_by_kind(events: &[Event]) -> [u64; EventKind::COUNT] {
    let mut counts = [0u64; EventKind::COUNT];
    for e in events {
        counts[e.kind.index()] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_are_dense_and_unique() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::from_name("nope"), None);
    }

    #[test]
    fn counts_by_kind_counts() {
        let events = [
            Event::new(1, 0, EventKind::WorldCall, 0, 1, 0),
            Event::new(2, 0, EventKind::WorldReturn, 1, 0, 0),
            Event::new(3, 1, EventKind::WorldCall, 0, 2, 0),
        ];
        let counts = counts_by_kind(&events);
        assert_eq!(counts[EventKind::WorldCall.index()], 2);
        assert_eq!(counts[EventKind::WorldReturn.index()], 1);
        assert_eq!(counts[EventKind::Stall.index()], 0);
    }
}
