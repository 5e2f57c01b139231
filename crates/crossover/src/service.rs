//! Per-caller service dispatch — the flexibility argument of §3.4.
//!
//! The paper rejects hardware-checked bindings partly because software
//! authorization lets a callee do *more* than admit/refuse: "the callee
//! can implement more flexible policies such as offering different
//! services for different worlds by creating only one world in the
//! hardware." This module is that pattern as a reusable component: one
//! registered world, many callers, each mapped to its own service level —
//! all decided by the callee using the hardware-authenticated caller WID.

use std::collections::HashMap;
use std::fmt;

use crate::world::Wid;

/// A service tier the callee offers (example policy vocabulary; real
/// deployments would carry richer descriptors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceTier {
    /// Full access to every operation.
    Full,
    /// Read-only / introspection operations.
    ReadOnly,
    /// Rate-limited batch access.
    Throttled {
        /// Permitted calls per timeout window.
        calls_per_window: u32,
    },
}

impl fmt::Display for ServiceTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceTier::Full => write!(f, "full"),
            ServiceTier::ReadOnly => write!(f, "read-only"),
            ServiceTier::Throttled { calls_per_window } => {
                write!(f, "throttled({calls_per_window}/window)")
            }
        }
    }
}

/// What the registry decides for one incoming call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Serve at this tier.
    Serve(ServiceTier),
    /// Refuse: unknown caller and no default tier configured.
    Refuse,
    /// Refuse: the caller exhausted its throttle window.
    Throttle,
}

/// The callee-side service registry: caller WID → tier, with optional
/// default tier and per-caller throttle accounting.
///
/// # Example
///
/// ```
/// use xover_crossover::service::{Dispatch, ServiceRegistry, ServiceTier};
/// # let (inspector, guest) = xover_crossover::binding::test_wids();
///
/// let mut registry = ServiceRegistry::new();
/// registry.grant(inspector, ServiceTier::Full);
/// registry.grant(guest, ServiceTier::Throttled { calls_per_window: 1 });
/// assert_eq!(registry.dispatch(inspector), Dispatch::Serve(ServiceTier::Full));
/// // The throttled caller gets one call, then is deferred.
/// assert!(matches!(registry.dispatch(guest), Dispatch::Serve(_)));
/// assert_eq!(registry.dispatch(guest), Dispatch::Throttle);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServiceRegistry {
    tiers: HashMap<u64, ServiceTier>,
    default_tier: Option<ServiceTier>,
    window_usage: HashMap<u64, u32>,
    served: u64,
    refused: u64,
}

impl ServiceRegistry {
    /// Creates an empty registry that refuses unknown callers.
    pub fn new() -> ServiceRegistry {
        ServiceRegistry::default()
    }

    /// Sets a tier served to callers with no explicit grant.
    pub fn set_default(&mut self, tier: ServiceTier) -> &mut ServiceRegistry {
        self.default_tier = Some(tier);
        self
    }

    /// Grants `caller` a service tier.
    pub fn grant(&mut self, caller: Wid, tier: ServiceTier) -> &mut ServiceRegistry {
        self.tiers.insert(caller.raw(), tier);
        self
    }

    /// Revokes `caller`'s grant (falls back to the default, if any).
    pub fn revoke(&mut self, caller: Wid) -> &mut ServiceRegistry {
        self.tiers.remove(&caller.raw());
        self
    }

    /// Calls served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Calls refused (unknown or throttled).
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Decides one incoming call from the hardware-authenticated `caller`.
    pub fn dispatch(&mut self, caller: Wid) -> Dispatch {
        let tier = match self.tiers.get(&caller.raw()).copied() {
            Some(t) => t,
            None => match self.default_tier {
                Some(t) => t,
                None => {
                    self.refused += 1;
                    return Dispatch::Refuse;
                }
            },
        };
        if let ServiceTier::Throttled { calls_per_window } = tier {
            let used = self.window_usage.entry(caller.raw()).or_insert(0);
            if *used >= calls_per_window {
                self.refused += 1;
                return Dispatch::Throttle;
            }
            *used += 1;
        }
        self.served += 1;
        Dispatch::Serve(tier)
    }

    /// Resets every caller's throttle window (the callee does this from
    /// its amortized timeout tick, §3.4).
    pub fn reset_window(&mut self) {
        self.window_usage.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::test_wids;

    #[test]
    fn distinct_callers_get_distinct_tiers_from_one_world() {
        let (a, b) = test_wids();
        let mut r = ServiceRegistry::new();
        r.grant(a, ServiceTier::Full);
        r.grant(b, ServiceTier::ReadOnly);
        assert_eq!(r.dispatch(a), Dispatch::Serve(ServiceTier::Full));
        assert_eq!(r.dispatch(b), Dispatch::Serve(ServiceTier::ReadOnly));
        assert_eq!(r.served(), 2);
    }

    #[test]
    fn unknown_callers_refused_without_default() {
        let (a, b) = test_wids();
        let mut r = ServiceRegistry::new();
        r.grant(a, ServiceTier::Full);
        assert_eq!(r.dispatch(b), Dispatch::Refuse);
        assert_eq!(r.refused(), 1);
    }

    #[test]
    fn default_tier_serves_everyone() {
        let (_, b) = test_wids();
        let mut r = ServiceRegistry::new();
        r.set_default(ServiceTier::ReadOnly);
        assert_eq!(r.dispatch(b), Dispatch::Serve(ServiceTier::ReadOnly));
    }

    #[test]
    fn throttle_window_enforced_and_resettable() {
        let (a, _) = test_wids();
        let mut r = ServiceRegistry::new();
        r.grant(
            a,
            ServiceTier::Throttled {
                calls_per_window: 2,
            },
        );
        assert!(matches!(r.dispatch(a), Dispatch::Serve(_)));
        assert!(matches!(r.dispatch(a), Dispatch::Serve(_)));
        assert_eq!(r.dispatch(a), Dispatch::Throttle);
        r.reset_window();
        assert!(matches!(r.dispatch(a), Dispatch::Serve(_)));
    }

    #[test]
    fn revocation_falls_back_to_default() {
        let (a, _) = test_wids();
        let mut r = ServiceRegistry::new();
        r.grant(a, ServiceTier::Full);
        r.set_default(ServiceTier::ReadOnly);
        r.revoke(a);
        assert_eq!(r.dispatch(a), Dispatch::Serve(ServiceTier::ReadOnly));
    }
}
