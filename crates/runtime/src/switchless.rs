//! The switchless fast path's policy layer: whether a worker may stay
//! resident in a callee world across a run of calls.
//!
//! The substrate — priced shared-memory channel segments — lives in
//! [`crossover::switchless`]. This module holds the configuration, one
//! bool: off (the classic per-call path) or on. A residency serves the
//! whole same-(caller, callee) run the worker popped, so `batch_max`
//! bounds it and there is no budget to tune, the goal of "SGX
//! Switchless Calls Made Configless" (PAPERS.md). A budget below the
//! popped run was measured to only split it into more transition
//! pairs, and a residency that a §3.4 timeout aborts reopens for its
//! un-serviced tail, so no cap on classic fallbacks is needed either.

#![deny(missing_docs)]

use crossover::switchless::DrainStats;

/// Cycles a resident dispatcher spins on a dry ring before blocking
/// (returning to the caller world) — the spin-then-block knee.
pub(crate) const SPIN_CYCLES: u64 = 200;

/// Lanes (pages) per callee channel segment; callers hash onto lanes.
pub(crate) const SEGMENT_LANES: u64 = 8;

/// Switchless layer configuration: off (the default) or on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwitchlessConfig {
    on: bool,
}

impl SwitchlessConfig {
    /// Switchless on: every same-(caller, callee) run of two or more
    /// calls into a channel-equipped callee is served in one residency.
    pub fn on() -> SwitchlessConfig {
        SwitchlessConfig { on: true }
    }

    /// The same as [`SwitchlessConfig::on`]. Perfbench is its only
    /// caller.
    pub fn adaptive() -> SwitchlessConfig {
        SwitchlessConfig::on()
    }

    /// Whether any coalescing happens at all.
    pub fn enabled(&self) -> bool {
        self.on
    }
}

/// One epoch's `(lane, budget)` vector. No budget is configured, so no
/// epoch is ever recorded: the type exists only because perfbench reads
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
    /// Always empty: no budget is configured, so there is no epoch
    /// history. Kept only because perfbench still reads it.
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
        assert!(!SwitchlessConfig::default().enabled());
        assert!(SwitchlessConfig::on().enabled());
        assert_eq!(SwitchlessConfig::adaptive(), SwitchlessConfig::on());
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
