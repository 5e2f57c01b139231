//! Request and outcome types for the call router.
//!
//! A [`CallRequest`] is one cross-world call a tenant wants serviced: the
//! caller world it originates from, the callee world to invoke, the
//! callee-side work to charge, and an optional cycle budget (the §3.4
//! callee-DoS timeout, here enforced per request by the worker that
//! executes it). The service's rings carry these; workers batch pops
//! by callee so consecutive calls into the same world pay one
//! scheduling decision.

use crossover::world::Wid;
use crossover::WorldError;

/// Hops a call's provenance chain can carry. Chains deeper than this
/// still *count* their depth (so the policy can refuse them), but only
/// the first `MAX_HOPS` intermediary WIDs are recorded.
pub const MAX_HOPS: usize = 4;

/// Call-chain provenance: the worlds a request passed through before
/// reaching the service, oldest first. A world that re-issues a call on
/// behalf of another appends itself with [`CallRequest::via`]; the authz
/// plane walks the chain so a confused deputy — a granted intermediary
/// laundering calls for an ungranted origin — is denied at the policy,
/// not discovered at the symptom.
///
/// Fixed-size so [`CallRequest`] stays `Copy` on the dispatch hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Provenance {
    hops: [u64; MAX_HOPS],
    depth: u8,
}

impl Provenance {
    /// An empty chain (a first-hop call).
    pub fn direct() -> Provenance {
        Provenance::default()
    }

    /// Appends `wid` to the chain. Depth always advances; beyond
    /// [`MAX_HOPS`] the WID itself is not recorded (the depth alone is
    /// enough to refuse the chain).
    pub fn push(&mut self, wid: Wid) {
        if (self.depth as usize) < MAX_HOPS {
            self.hops[self.depth as usize] = wid.raw();
        }
        self.depth = self.depth.saturating_add(1);
    }

    /// Total hops appended (may exceed the recorded window).
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// The recorded hop WIDs, oldest first.
    pub fn hops(&self) -> impl Iterator<Item = Wid> + '_ {
        self.hops[..(self.depth as usize).min(MAX_HOPS)]
            .iter()
            .map(|&raw| Wid::from_raw(raw))
    }
}

/// One queued cross-world call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallRequest {
    /// The world the call originates from; the executing worker schedules
    /// this world's context onto its vCPU before issuing `world_call`.
    pub caller: Wid,
    /// The world to call.
    pub callee: Wid,
    /// Cycles of callee-side body work to charge.
    pub work_cycles: u64,
    /// Instructions of callee-side body work to charge.
    pub work_instructions: u64,
    /// Optional per-call deadline: if the callee body exceeds this many
    /// cycles the hypervisor cancels the call (§3.4 timeout defence).
    pub budget_cycles: Option<u64>,
    /// Pages of the callee's attached working set the body touches (each
    /// touch is a priced [`hypervisor::platform::Platform::access_gva`];
    /// 0, or a callee without attached memory, skips the loop).
    pub touch_pages: u64,
    /// Opaque caller-chosen tag carried through to the outcome, so test
    /// harnesses can match verdicts to submissions one-to-one (the
    /// exactly-one-verdict invariant is checked against these). The
    /// runtime never reads it.
    pub tag: u64,
    /// Tenant the call is billed to. Zero (the default) means "untenanted";
    /// the gateway stamps this so the service's per-tenant submission
    /// counters and the gateway's completion rings agree on ownership. Pure
    /// accounting — the execution path never branches on it.
    pub tenant: u32,
    /// Worlds the call already passed through (confused-deputy audit
    /// trail). Empty for first-hop calls; the authz plane, when enabled,
    /// requires every recorded hop to hold the same grant as the
    /// immediate caller.
    pub provenance: Provenance,
}

impl CallRequest {
    /// A call with the given endpoints and body cost, no deadline.
    pub fn new(caller: Wid, callee: Wid, work_cycles: u64, work_instructions: u64) -> CallRequest {
        CallRequest {
            caller,
            callee,
            work_cycles,
            work_instructions,
            budget_cycles: None,
            touch_pages: 0,
            tag: 0,
            tenant: 0,
            provenance: Provenance::default(),
        }
    }

    /// Arms a per-call deadline.
    pub fn with_budget(mut self, budget_cycles: u64) -> CallRequest {
        self.budget_cycles = Some(budget_cycles);
        self
    }

    /// Sets the number of working-set pages the callee body touches.
    pub fn with_touches(mut self, touch_pages: u64) -> CallRequest {
        self.touch_pages = touch_pages;
        self
    }

    /// Attaches an opaque tracking tag (returned verbatim in the
    /// outcome).
    pub fn with_tag(mut self, tag: u64) -> CallRequest {
        self.tag = tag;
        self
    }

    /// Bills the call to a tenant (accounting only; 0 = untenanted).
    pub fn with_tenant(mut self, tenant: u32) -> CallRequest {
        self.tenant = tenant;
        self
    }

    /// Records that this call was re-issued through `hop` (a world acting
    /// on another's behalf). Chainable; hop order is oldest first.
    pub fn via(mut self, hop: Wid) -> CallRequest {
        self.provenance.push(hop);
        self
    }
}

/// What actually travels through the dispatcher: the request plus its
/// submission stamp in shared virtual time, from which the executing
/// worker derives the call's queue-wait cycles.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    pub req: CallRequest,
    /// The minimum live worker clock (simulated cycles) at submission.
    pub stamped_at: u64,
    /// Obs-plane submission sequence number — the join key that stitches
    /// a request's enqueue/dispatch/verdict events into one span. Always
    /// 0 when obs is off (no counter is touched on that path).
    pub seq: u64,
}

/// A typed runtime-infrastructure failure: the request could not be
/// serviced for reasons in the *runtime* (worker death, retry
/// exhaustion), as opposed to a [`WorldError`] from the call machinery
/// itself. These are verdicts, never panics — an injected fault must
/// not abort the process or lose the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallError {
    /// A world-table lookup kept vanishing under retry (deletion racing
    /// the in-flight call); the supervisor gave up after backing off
    /// `attempts` times.
    LookupRace {
        /// The world whose lookup raced.
        wid: Wid,
        /// Backed-off retries spent before giving up.
        attempts: u32,
    },
    /// The executing worker crashed more times than the supervisor's
    /// respawn cap; its pending batch was dead-lettered rather than
    /// retried forever.
    CrashLoop {
        /// The crash-looping worker.
        worker: usize,
        /// Respawns the supervisor had attempted.
        respawns: u32,
    },
    /// The callee-side authz policy holds no grant admitting this caller
    /// (or one of its provenance hops) to this callee.
    Denied {
        /// The refused caller.
        caller: Wid,
        /// The callee it tried to reach.
        callee: Wid,
    },
    /// The caller held a grant, but it was revoked; `generation` is the
    /// policy generation the revocation published.
    Revoked {
        /// The revoked caller.
        caller: Wid,
        /// Policy generation at which the grant died.
        generation: u64,
    },
    /// The caller's token bucket ran dry (per-caller rate limit priced
    /// in virtual time).
    RateLimited {
        /// The throttled caller.
        caller: Wid,
    },
    /// The call's provenance chain is deeper than the policy allows —
    /// a multi-hop deputy chain refused on depth alone.
    ChainTooDeep {
        /// Observed chain depth.
        depth: u8,
        /// The policy's maximum.
        max: u8,
    },
}

impl CallError {
    /// Whether this error is an authz-policy refusal (the `Denied`
    /// verdict family) rather than a runtime-infrastructure failure.
    pub fn is_denial(&self) -> bool {
        matches!(
            self,
            CallError::Denied { .. }
                | CallError::Revoked { .. }
                | CallError::RateLimited { .. }
                | CallError::ChainTooDeep { .. }
        )
    }

    /// Dense code for the denial family, used as the `AuthzDeny` event
    /// payload (0=denied, 1=revoked, 2=rate-limited, 3=chain-too-deep).
    /// `None` for non-denial errors.
    pub fn denial_code(&self) -> Option<u64> {
        match self {
            CallError::Denied { .. } => Some(0),
            CallError::Revoked { .. } => Some(1),
            CallError::RateLimited { .. } => Some(2),
            CallError::ChainTooDeep { .. } => Some(3),
            _ => None,
        }
    }
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::LookupRace { wid, attempts } => {
                write!(
                    f,
                    "world {} lookup kept racing deletion ({attempts} retries)",
                    wid.raw()
                )
            }
            CallError::CrashLoop { worker, respawns } => {
                write!(
                    f,
                    "worker {worker} crash-looped ({respawns} respawns); batch dead-lettered"
                )
            }
            CallError::Denied { caller, callee } => {
                write!(
                    f,
                    "caller {} holds no grant for callee {}",
                    caller.raw(),
                    callee.raw()
                )
            }
            CallError::Revoked { caller, generation } => {
                write!(
                    f,
                    "caller {}'s grant was revoked at policy generation {generation}",
                    caller.raw()
                )
            }
            CallError::RateLimited { caller } => {
                write!(f, "caller {} exceeded its rate limit", caller.raw())
            }
            CallError::ChainTooDeep { depth, max } => {
                write!(
                    f,
                    "provenance chain depth {depth} exceeds the policy max {max}"
                )
            }
        }
    }
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallVerdict {
    /// Call, body and return all completed.
    Completed,
    /// The callee exceeded its budget and the hypervisor cancelled the
    /// call, forcibly restoring the caller's world.
    TimedOut,
    /// The call failed outright (bad WID, unregistered caller context,
    /// control-flow violation, ...).
    Failed(WorldError),
    /// The runtime gave up on the request after exhausting its healing
    /// policy; the typed reason says why. Still exactly one verdict —
    /// dead-lettering accounts for the request, it does not drop it.
    DeadLettered(CallError),
    /// The callee-side authz policy refused the call before any world
    /// transition was issued. The typed reason is always one of the
    /// denial family ([`CallError::is_denial`]). Still exactly one
    /// verdict — a denial accounts for the request, it does not drop it.
    Denied(CallError),
}

/// The per-request record a worker produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallOutcome {
    /// The request as executed.
    pub request: CallRequest,
    /// How it ended.
    pub verdict: CallVerdict,
    /// Meter delta (cycles) over the measured section: state save,
    /// `world_call`, callee body (or its cancelled prefix), return and
    /// state restore. Queueing delay is *not* included — this is the
    /// on-CPU service latency.
    pub latency_cycles: u64,
    /// Simulated cycles the request waited between submission and the
    /// start of its execution (virtual-time dispatch delay).
    pub queue_wait_cycles: u64,
    /// Index of the worker (== SMP core) that serviced the request.
    pub worker: usize,
    /// Whether the executing worker stole the request from a peer's ring.
    pub stolen: bool,
    /// Whether the call was serviced through a switchless channel (its
    /// world transitions amortized across a coalesced batch) rather
    /// than the classic per-call path.
    pub coalesced: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_budget() {
        let r = CallRequest::new(Wid::from_raw(1), Wid::from_raw(2), 100, 10);
        assert_eq!(r.budget_cycles, None);
        let r = r.with_budget(5_000);
        assert_eq!(r.budget_cycles, Some(5_000));
        assert_eq!(r.caller, Wid::from_raw(1));
    }

    #[test]
    fn provenance_counts_depth_past_the_recorded_window() {
        let mut r = CallRequest::new(Wid::from_raw(1), Wid::from_raw(2), 100, 10);
        assert_eq!(r.provenance.depth(), 0);
        assert_eq!(r.provenance.hops().count(), 0);
        for hop in 10..10 + MAX_HOPS as u64 + 2 {
            r = r.via(Wid::from_raw(hop));
        }
        assert_eq!(r.provenance.depth() as usize, MAX_HOPS + 2);
        let recorded: Vec<u64> = r.provenance.hops().map(|w| w.raw()).collect();
        assert_eq!(recorded, vec![10, 11, 12, 13], "oldest hops are kept");
    }

    #[test]
    fn denial_family_is_typed() {
        let deny = CallError::Denied {
            caller: Wid::from_raw(1),
            callee: Wid::from_raw(2),
        };
        assert!(deny.is_denial());
        assert_eq!(deny.denial_code(), Some(0));
        let race = CallError::LookupRace {
            wid: Wid::from_raw(1),
            attempts: 3,
        };
        assert!(!race.is_denial());
        assert_eq!(race.denial_code(), None);
        assert_eq!(
            CallError::ChainTooDeep { depth: 6, max: 4 }.denial_code(),
            Some(3)
        );
    }
}
