//! The switchless fast path's policy layer: how long a worker stays
//! resident in a callee world per transition pair.
//!
//! The substrate — priced shared-memory channel segments — lives in
//! [`crossover::switchless`]. This module holds the configuration: off
//! (the classic per-call path) or a fixed resident budget, the number
//! of same-(caller, callee) calls one residency may drain before it
//! returns. "SGX Switchless Calls Made Configless" (PAPERS.md) argues
//! for no knob the deployer must tune, and here a fixed budget needs
//! none: an adaptive per-callee controller that doubled and halved
//! budgets from dry/saturated residency exits was measured against
//! fixed budgets and lost on every workload tried (`serve_hot` 405.2
//! vs 395.0 cycles/call for a fixed 16, the `switchless` bench's skewed
//! mix 427 vs 421), while costing every worker a shared,
//! interleaving-dependent writer. So every residency takes
//! [`SwitchlessConfig::batch_budget`], clamped into 1..=64.

#![deny(missing_docs)]

use crossover::switchless::DrainStats;

/// Whether and how the switchless layer engages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchlessMode {
    /// Classic per-call path only (the PR-2 behavior, bit for bit).
    #[default]
    Off,
    /// Coalesce with a fixed resident budget
    /// ([`SwitchlessConfig::batch_budget`]).
    Fixed,
}

/// Budget floor. At the floor a residency of one call is never opened
/// — the classic path is used — so the floor doubles as the
/// fall-back-to-classic threshold.
pub(crate) const MIN_BUDGET: usize = 1;

/// Budget ceiling (bounds worst-case residency, i.e. how long a caller
/// can wait behind a busy dispatcher).
pub(crate) const MAX_BUDGET: usize = 64;

/// Cycles a resident dispatcher spins on a dry ring before blocking
/// (returning to the caller world) — the spin-then-block knee.
pub(crate) const SPIN_CYCLES: u64 = 200;

/// Lanes (pages) per callee channel segment; callers hash onto lanes.
pub(crate) const SEGMENT_LANES: u64 = 8;

/// Switchless layer configuration. All fields have working defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchlessConfig {
    /// Operating mode.
    pub mode: SwitchlessMode,
    /// Resident-dispatcher budget: the number of coalesced calls one
    /// transition pair may amortize. Clamped into
    /// `MIN_BUDGET..=MAX_BUDGET` (1..=64).
    pub batch_budget: usize,
}

impl Default for SwitchlessConfig {
    fn default() -> SwitchlessConfig {
        SwitchlessConfig {
            mode: SwitchlessMode::default(),
            batch_budget: 16,
        }
    }
}

impl SwitchlessConfig {
    /// Convenience: `Fixed` mode at the given budget.
    pub fn fixed(budget: usize) -> SwitchlessConfig {
        SwitchlessConfig {
            mode: SwitchlessMode::Fixed,
            batch_budget: budget,
        }
    }

    /// Switchless on at the default budget of 16, the same
    /// configuration as `fixed(16)`. Outside the tests, perfbench is
    /// its only caller.
    pub fn adaptive() -> SwitchlessConfig {
        SwitchlessConfig::fixed(SwitchlessConfig::default().batch_budget)
    }

    /// Whether any coalescing happens at all.
    pub fn enabled(&self) -> bool {
        self.mode != SwitchlessMode::Off
    }

    /// Calls one coalesced residency may drain: the configured budget
    /// clamped into `MIN_BUDGET..=MAX_BUDGET`, or 0 when switchless is
    /// off.
    pub(crate) fn resident_budget(&self) -> usize {
        if self.enabled() {
            self.batch_budget.clamp(MIN_BUDGET, MAX_BUDGET)
        } else {
            0
        }
    }
}

/// One epoch's `(lane, budget)` vector. Budgets are fixed, so no epoch
/// is ever recorded: the type exists only because perfbench reads
/// [`SwitchlessSummary::epochs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSnapshot {
    /// `(lane, budget)` pairs.
    pub budgets: Vec<(usize, usize)>,
}

/// Per-worker switchless accounting, folded into the service report at
/// drain.
#[derive(Debug, Clone, Default)]
pub struct SwitchlessWorkerStats {
    /// Substrate-level drain counters (coalesced calls, transition
    /// pairs, slot/spin cycles, exit reasons).
    pub drain: DrainStats,
    /// Calls serviced on the classic per-call path (including
    /// fall-backs from aborted residencies).
    pub classic_calls: u64,
    /// Per-callee traffic: raw WID → (coalesced calls, transition
    /// pairs). The hot-pair amortization claim is checked on these.
    pub per_callee: std::collections::HashMap<u64, (u64, u64)>,
}

/// Per-callee switchless traffic in the merged service report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairTraffic {
    /// The callee world (raw WID).
    pub callee: u64,
    /// Calls coalesced into this callee's channel.
    pub coalesced: u64,
    /// Transition pairs those calls cost.
    pub pairs: u64,
}

impl PairTraffic {
    /// Amortized world transitions per coalesced call into this callee.
    pub fn transitions_per_call(&self) -> f64 {
        if self.coalesced == 0 {
            return f64::NAN;
        }
        (self.pairs * 2) as f64 / self.coalesced as f64
    }
}

/// Merged switchless accounting across the pool, in the service report.
#[derive(Debug, Clone, Default)]
pub struct SwitchlessSummary {
    /// Summed substrate drain counters.
    pub drain: DrainStats,
    /// Calls serviced on the classic per-call path.
    pub classic_calls: u64,
    /// `world_call` transitions traced across all workers (classic and
    /// coalesced alike).
    pub world_calls: u64,
    /// `world_return` transitions traced across all workers.
    pub world_returns: u64,
    /// Per-callee coalescing traffic, sorted by raw WID.
    pub per_callee: Vec<PairTraffic>,
    /// Always empty: budgets are fixed, so there is no epoch history.
    /// Kept only because perfbench still reads it.
    pub epochs: Vec<EpochSnapshot>,
}

impl SwitchlessSummary {
    /// The busiest channel by coalesced calls, if any saw traffic.
    pub fn hottest_pair(&self) -> Option<PairTraffic> {
        self.per_callee
            .iter()
            .copied()
            .max_by_key(|p| p.coalesced)
            .filter(|p| p.coalesced > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off_and_classic_compatible() {
        let c = SwitchlessConfig::default();
        assert_eq!(c.mode, SwitchlessMode::Off);
        assert!(!c.enabled());
        assert!(SwitchlessConfig::fixed(8).enabled());
        assert_eq!(SwitchlessConfig::adaptive(), SwitchlessConfig::fixed(16));
    }

    #[test]
    fn resident_budget_is_clamped_and_zero_when_off() {
        assert_eq!(SwitchlessConfig::default().resident_budget(), 0);
        assert_eq!(SwitchlessConfig::fixed(0).resident_budget(), MIN_BUDGET);
        assert_eq!(SwitchlessConfig::fixed(8).resident_budget(), 8);
        assert_eq!(SwitchlessConfig::fixed(1_000).resident_budget(), MAX_BUDGET);
    }

    #[test]
    fn pair_traffic_amortization() {
        let p = PairTraffic {
            callee: 1,
            coalesced: 16,
            pairs: 2,
        };
        assert!((p.transitions_per_call() - 0.25).abs() < 1e-12);
        let none = PairTraffic {
            callee: 1,
            coalesced: 0,
            pairs: 0,
        };
        assert!(none.transitions_per_call().is_nan());
    }
}
