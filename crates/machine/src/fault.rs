//! Deterministic, seeded fault-injection plane.
//!
//! Robustness claims are only testable if failures are *reproducible*:
//! a fault schedule must be a value, not a coin flip at runtime. A
//! [`FaultPlan`] is exactly that — a set of `(virtual-time, site, kind)`
//! events, either laid out explicitly or generated from a seed by the
//! in-tree [`SplitMix64`] generator. Layers that can fail consult the
//! plan at named [`FaultSite`]s with their own virtual clock (their
//! meter's cycle count); an event whose timestamp has passed *fires*
//! exactly once and the layer then misbehaves in the prescribed way —
//! a worker stalls or crashes, a channel slot reads back corrupt, an invalidation broadcast is dropped, a
//! world-table lookup transiently vanishes.
//!
//! Two properties the rest of the stack builds on:
//!
//! * **An empty plan is a strict no-op.** [`FaultPlan::fire`] charges
//!   nothing, mutates nothing observable and returns `None`, so a
//!   runtime wired to an empty plan is cycle-for-cycle identical to one
//!   wired to no plan at all (the parity tests assert this).
//! * **Determinism in virtual time.** Event times and kinds are fixed
//!   at construction. On a single consumer the full fault schedule is
//!   reproducible bit for bit; with several concurrent consumers the
//!   *schedule* is fixed but which thread draws a given event depends
//!   on interleaving — invariant checks (exactly-one-verdict, no
//!   panics) must therefore hold under *every* draw order, which is
//!   precisely what the chaos suite exercises.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::rng::SplitMix64;

/// A named point in the stack where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A worker vCPU stalls (burns cycles making no progress) before
    /// servicing its next batch.
    WorkerStall,
    /// A worker's drain loop dies mid-run; the supervisor must respawn
    /// it (fresh call unit, reconciled backlog) without losing requests.
    WorkerCrash,
    /// A switchless channel slot reads back with a bad seqno/checksum.
    ChannelCorruption,
    /// A channel page access faults at the EPT (permission revoked or
    /// mapping torn down under the resident dispatcher).
    ChannelEptFault,
    /// An invalidation broadcast is dropped on its way to one worker's
    /// caches (a stale WT/IWT window until the next re-delivery).
    InvalidationDrop,
    /// A world-table lookup transiently fails as if the world were
    /// deleted mid-flight (the deletion race, made reproducible).
    WorldLookupRace,
}

/// Every site, in a fixed order (the per-site queue index).
pub const FAULT_SITES: [FaultSite; 6] = [
    FaultSite::WorkerStall,
    FaultSite::WorkerCrash,
    FaultSite::ChannelCorruption,
    FaultSite::ChannelEptFault,
    FaultSite::InvalidationDrop,
    FaultSite::WorldLookupRace,
];

impl FaultSite {
    /// Stable queue index of this site.
    pub fn index(self) -> usize {
        match self {
            FaultSite::WorkerStall => 0,
            FaultSite::WorkerCrash => 1,
            FaultSite::ChannelCorruption => 2,
            FaultSite::ChannelEptFault => 3,
            FaultSite::InvalidationDrop => 4,
            FaultSite::WorldLookupRace => 5,
        }
    }

    /// Human-readable site name (the catalogue key in reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WorkerStall => "worker-stall",
            FaultSite::WorkerCrash => "worker-crash",
            FaultSite::ChannelCorruption => "channel-corruption",
            FaultSite::ChannelEptFault => "channel-ept-fault",
            FaultSite::InvalidationDrop => "invalidation-drop",
            FaultSite::WorldLookupRace => "world-lookup-race",
        }
    }
}

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Burn `cycles` of virtual time making no progress.
    Stall {
        /// Cycles the stall costs.
        cycles: u64,
    },
    /// Die; the consumer is expected to respawn and reconcile.
    Crash,
    /// Silently discard the message/broadcast in flight.
    Drop,
    /// Flip bits: the payload reads back with a bad seqno/checksum.
    Corrupt,
    /// Refuse the access (EPT permission fault).
    Deny,
    /// Pretend the looked-up entity does not exist right now.
    Vanish,
}

/// One scheduled fault: fires the first time its site is consulted at
/// or after `at_cycles` of the consumer's virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time (cycles on the consulting clock) the event arms at.
    pub at_cycles: u64,
    /// What the fault does.
    pub kind: FaultKind,
}

/// A deterministic fault schedule: per-site queues of [`FaultEvent`]s,
/// consumed in timestamp order by [`FaultPlan::fire`]. Thread-safe
/// (share via `Arc`); an empty plan is a strict no-op.
#[derive(Debug, Default)]
pub struct FaultPlan {
    queues: [Mutex<VecDeque<FaultEvent>>; FAULT_SITES.len()],
    fired: [AtomicU64; FAULT_SITES.len()],
}

impl FaultPlan {
    /// An empty plan (nothing ever fires).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules one event. Events at the same site fire in `at_cycles`
    /// order; ties fire in insertion order.
    pub fn schedule(&self, at_cycles: u64, site: FaultSite, kind: FaultKind) {
        let mut q = self.lock(site);
        let pos = q.partition_point(|e| e.at_cycles <= at_cycles);
        q.insert(pos, FaultEvent { at_cycles, kind });
    }

    /// Builder-style [`FaultPlan::schedule`].
    #[must_use]
    pub fn with(self, at_cycles: u64, site: FaultSite, kind: FaultKind) -> FaultPlan {
        self.schedule(at_cycles, site, kind);
        self
    }

    /// Generates a plan from a seed: `events_per_site` events at every
    /// site, uniform over `[0, horizon_cycles)` virtual time, with
    /// site-appropriate kinds and parameter draws. The same
    /// `(seed, horizon, events)` triple always yields the same plan.
    pub fn from_seed(seed: u64, horizon_cycles: u64, events_per_site: u32) -> FaultPlan {
        let plan = FaultPlan::new();
        let mut rng = SplitMix64::new(seed);
        let horizon = horizon_cycles.max(1);
        for site in FAULT_SITES {
            for _ in 0..events_per_site {
                let at = rng.below(horizon);
                let kind = match site {
                    FaultSite::WorkerStall => FaultKind::Stall {
                        cycles: rng.range(2_000, 20_000),
                    },
                    FaultSite::WorkerCrash => FaultKind::Crash,
                    FaultSite::ChannelCorruption => FaultKind::Corrupt,
                    FaultSite::ChannelEptFault => FaultKind::Deny,
                    FaultSite::InvalidationDrop => FaultKind::Drop,
                    FaultSite::WorldLookupRace => FaultKind::Vanish,
                };
                plan.schedule(at, site, kind);
            }
        }
        plan
    }

    /// Consults the plan at `site` with the caller's virtual clock. The
    /// earliest event whose `at_cycles <= now_cycles` fires (is removed
    /// and returned); later events wait for later consultations. `None`
    /// means behave normally — for an empty plan this is free of side
    /// effects, observable state and cost.
    pub fn fire(&self, site: FaultSite, now_cycles: u64) -> Option<FaultKind> {
        let mut q = self.lock(site);
        if q.front().is_some_and(|e| e.at_cycles <= now_cycles) {
            let e = q.pop_front().expect("front just checked");
            drop(q);
            self.fired[site.index()].fetch_add(1, Ordering::Relaxed);
            Some(e.kind)
        } else {
            None
        }
    }

    /// Events still armed at `site`.
    pub fn pending(&self, site: FaultSite) -> usize {
        self.lock(site).len()
    }

    /// Events still armed across all sites.
    pub fn pending_total(&self) -> usize {
        FAULT_SITES.iter().map(|&s| self.pending(s)).sum()
    }

    /// Whether the plan has no armed events left (an exhausted plan
    /// behaves exactly like an empty one).
    pub fn is_empty(&self) -> bool {
        self.pending_total() == 0
    }

    /// Events that have fired at `site`.
    pub fn fired_count(&self, site: FaultSite) -> u64 {
        self.fired[site.index()].load(Ordering::Relaxed)
    }

    /// Events that have fired across all sites.
    pub fn fired_total(&self) -> u64 {
        FAULT_SITES.iter().map(|&s| self.fired_count(s)).sum()
    }

    fn lock(&self, site: FaultSite) -> std::sync::MutexGuard<'_, VecDeque<FaultEvent>> {
        // A consumer panicking mid-fire cannot corrupt a VecDeque pop;
        // recover the guard instead of propagating the poison.
        self.queues[site.index()]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        for site in FAULT_SITES {
            assert_eq!(plan.fire(site, u64::MAX), None);
            assert_eq!(plan.fired_count(site), 0);
        }
        assert_eq!(plan.fired_total(), 0);
    }

    #[test]
    fn events_fire_in_time_order_and_only_once() {
        let plan = FaultPlan::new()
            .with(500, FaultSite::WorkerStall, FaultKind::Stall { cycles: 9 })
            .with(100, FaultSite::WorkerStall, FaultKind::Stall { cycles: 7 });
        // Not armed yet at t=50.
        assert_eq!(plan.fire(FaultSite::WorkerStall, 50), None);
        // t=600 passes both, but one consultation pops exactly one
        // event — the earliest.
        assert_eq!(
            plan.fire(FaultSite::WorkerStall, 600),
            Some(FaultKind::Stall { cycles: 7 })
        );
        assert_eq!(
            plan.fire(FaultSite::WorkerStall, 600),
            Some(FaultKind::Stall { cycles: 9 })
        );
        assert_eq!(plan.fire(FaultSite::WorkerStall, 600), None);
        assert_eq!(plan.fired_count(FaultSite::WorkerStall), 2);
        assert!(plan.is_empty());
    }

    #[test]
    fn sites_are_independent() {
        let plan = FaultPlan::new().with(0, FaultSite::InvalidationDrop, FaultKind::Drop);
        assert_eq!(plan.fire(FaultSite::ChannelCorruption, 1_000), None);
        assert_eq!(plan.pending(FaultSite::InvalidationDrop), 1);
        assert_eq!(
            plan.fire(FaultSite::InvalidationDrop, 0),
            Some(FaultKind::Drop)
        );
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::from_seed(0xFA_17, 1_000_000, 3);
        let b = FaultPlan::from_seed(0xFA_17, 1_000_000, 3);
        assert_eq!(a.pending_total(), FAULT_SITES.len() * 3);
        for site in FAULT_SITES {
            loop {
                let (ea, eb) = (a.fire(site, u64::MAX), b.fire(site, u64::MAX));
                assert_eq!(ea, eb, "seeded schedules must agree at {}", site.name());
                if ea.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn seeded_kinds_match_their_sites() {
        let plan = FaultPlan::from_seed(7, 10_000, 2);
        assert!(matches!(
            plan.fire(FaultSite::WorkerCrash, u64::MAX),
            Some(FaultKind::Crash)
        ));
        assert!(matches!(
            plan.fire(FaultSite::WorkerStall, u64::MAX),
            Some(FaultKind::Stall { cycles } ) if (2_000..20_000).contains(&cycles)
        ));
        assert!(matches!(
            plan.fire(FaultSite::ChannelCorruption, u64::MAX),
            Some(FaultKind::Corrupt)
        ));
        assert!(matches!(
            plan.fire(FaultSite::WorldLookupRace, u64::MAX),
            Some(FaultKind::Vanish)
        ));
    }

    #[test]
    fn site_index_matches_catalogue_order() {
        for (i, site) in FAULT_SITES.iter().enumerate() {
            assert_eq!(site.index(), i);
            assert!(!site.name().is_empty());
        }
    }
}
