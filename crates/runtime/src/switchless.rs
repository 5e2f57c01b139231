//! The switchless fast path's policy layer: configuration and the
//! configless adaptive controller.
//!
//! The substrate — priced shared-memory channel segments — lives in
//! [`crossover::switchless`]. This module decides *how long a worker
//! stays resident* in a callee world per transition pair. "SGX
//! Switchless Calls Made Configless" (PAPERS.md) showed that a static
//! worker budget is always wrong for someone: too small and hot pairs
//! keep paying transitions, too large and cold pairs burn residency on
//! dry rings. Its answer — observe per-epoch, self-tune, no knobs the
//! deployer must set — transfers directly, with simulated virtual time
//! standing in for wall-clock epochs.
//!
//! The [`Controller`] keeps one budget per callee lane. Workers report
//! every coalesced residency: how many calls it drained, whether the
//! ring ran **dry** before the budget was spent (shrink signal — the
//! residency over-stayed) or the budget was **saturated** with work
//! possibly left behind (grow signal — it under-stayed), plus the home
//! ring's occupancy as a tiebreak. Each epoch the counters are folded
//! into the budgets: decisive saturation doubles, decisive dryness
//! halves, and a budget that bottoms out at the minimum *is* the
//! classic per-call path — falling back when rings run dry costs a
//! config flag nowhere. Two layers of hysteresis keep the fold from
//! thrashing: wide signal bands (growth needs a decisive saturation
//! majority, shrinking needs the budget to run at least twice the
//! demand the ring actually delivers) and two-epoch trend confirmation
//! (a budget moves only when consecutive epochs agree), so the
//! controller *converges* instead of orbiting the equilibrium in a
//! grow/shrink limit cycle.

#![deny(missing_docs)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crossover::prefetch::PrefetchStats;
use crossover::switchless::DrainStats;
use crossover::world::Wid;

/// Whether and how the switchless layer engages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchlessMode {
    /// Classic per-call path only (the PR-2 behavior, bit for bit).
    #[default]
    Off,
    /// Coalesce with a fixed resident budget
    /// ([`SwitchlessConfig::batch_budget`]); the controller records
    /// epochs but never adjusts — the static ablation baseline.
    Fixed,
    /// Coalesce with per-epoch adaptive budgets (configless: the
    /// defaults are starting points the controller walks away from).
    Adaptive,
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

/// Switchless layer configuration. All fields have working defaults;
/// under [`SwitchlessMode::Adaptive`] the budget is merely the
/// controller's starting point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchlessConfig {
    /// Operating mode.
    pub mode: SwitchlessMode,
    /// Initial (and, under `Fixed`, permanent) resident-dispatcher
    /// budget: the number of coalesced calls one transition pair may
    /// amortize. Clamped into `MIN_BUDGET..=MAX_BUDGET` (1..=64).
    pub batch_budget: usize,
    /// Virtual-time epoch length (cycles) between controller
    /// adjustments.
    pub epoch_cycles: u64,
    /// Opt-in wiring of the §5.1 Current-World-ID prefetch register in
    /// each worker's call unit. Off by default: the speculative walk
    /// costs [`crossover::prefetch::SPECULATIVE_WALK_CYCLES`] per
    /// context switch, which loses to a warm IWT hit — the register
    /// only pays when IWT pressure is real.
    pub prefetch_register: bool,
}

impl Default for SwitchlessConfig {
    fn default() -> SwitchlessConfig {
        SwitchlessConfig {
            mode: SwitchlessMode::default(),
            batch_budget: 16,
            epoch_cycles: 250_000,
            prefetch_register: false,
        }
    }
}

impl SwitchlessConfig {
    /// Convenience: `Fixed` mode at the given budget.
    pub fn fixed(budget: usize) -> SwitchlessConfig {
        SwitchlessConfig {
            mode: SwitchlessMode::Fixed,
            batch_budget: budget,
            ..SwitchlessConfig::default()
        }
    }

    /// Convenience: `Adaptive` mode with default seeds.
    pub fn adaptive() -> SwitchlessConfig {
        SwitchlessConfig {
            mode: SwitchlessMode::Adaptive,
            ..SwitchlessConfig::default()
        }
    }

    /// Whether any coalescing happens at all.
    pub fn enabled(&self) -> bool {
        self.mode != SwitchlessMode::Off
    }
}

/// Callee lanes the controller tracks. Callees hash onto lanes; distinct
/// callees sharing a lane share a budget, which only blurs (never
/// breaks) the adaptation — the same trade a set-associative cache
/// makes.
pub const CONTROLLER_LANES: usize = 64;

/// SplitMix64 finalizer (same family as the WT-cache index mixer).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct Lane {
    budget: AtomicUsize,
    /// Epoch counters, reset at each adjustment.
    calls: AtomicU64,
    dry: AtomicU64,
    saturated: AtomicU64,
    occupancy_sum: AtomicU64,
    residencies: AtomicU64,
    /// Direction the previous epoch pointed (hold/grow/shrink, as
    /// `Direction as usize`): the trend-confirmation state.
    last_dir: AtomicUsize,
    /// Length of the current run of consecutive same-direction epochs.
    run_len: AtomicUsize,
    /// Consecutive same-direction epochs required before a move is
    /// applied. Starts at 2 and doubles on every direction *reversal*
    /// (annealing): a lane straddling a threshold flips a couple of
    /// times, then freezes, while monotone ramps stay fast.
    confirm_need: AtomicUsize,
    /// Direction of the last *applied* move (0 until one happens) — the
    /// reversal detector behind `confirm_need`.
    last_move: AtomicUsize,
    /// Whether the lane has ever seen traffic. Snapshots cover every
    /// such lane — a cold lane skipping an epoch must not perturb the
    /// budget vector the convergence check compares.
    seen: AtomicUsize,
}

/// Which way an epoch's counters point a lane's budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Hold = 0,
    Grow = 1,
    Shrink = 2,
}

/// One controller epoch's outcome: the virtual time it closed at and the
/// budget of every lane that saw traffic during it. Benches assert
/// convergence on these — identical budget vectors across the final
/// epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSnapshot {
    /// Epoch ordinal (1-based).
    pub epoch: u64,
    /// Virtual time (cycles) the epoch closed at.
    pub at_cycles: u64,
    /// `(lane, budget)` for every lane that has ever seen traffic,
    /// sorted by lane. Never-touched lanes stay out; a touched lane
    /// idling through an epoch stays *in* (budget held), so the vector
    /// only changes when a budget actually moves.
    pub budgets: Vec<(usize, usize)>,
}

/// The configless adaptive controller: per-callee-lane resident budgets,
/// adjusted once per virtual-time epoch from worker-reported dry /
/// saturated residency exits and ring occupancy.
///
/// All state is shared-write (atomics + one mutex the epoch winner
/// takes), so every worker drives the same budgets and any worker whose
/// clock crosses the epoch boundary may fold the counters.
#[derive(Debug)]
pub struct Controller {
    config: SwitchlessConfig,
    lanes: Vec<Lane>,
    epoch: AtomicU64,
    next_epoch_at: AtomicU64,
    history: Mutex<Vec<EpochSnapshot>>,
}

impl Controller {
    /// A controller with every lane's budget seeded at
    /// `config.batch_budget` (clamped into `[MIN_BUDGET, MAX_BUDGET]`).
    pub fn new(config: SwitchlessConfig) -> Controller {
        let seed = config.batch_budget.clamp(MIN_BUDGET, MAX_BUDGET);
        Controller {
            config,
            lanes: (0..CONTROLLER_LANES)
                .map(|_| Lane {
                    budget: AtomicUsize::new(seed),
                    calls: AtomicU64::new(0),
                    dry: AtomicU64::new(0),
                    saturated: AtomicU64::new(0),
                    occupancy_sum: AtomicU64::new(0),
                    residencies: AtomicU64::new(0),
                    last_dir: AtomicUsize::new(Direction::Hold as usize),
                    run_len: AtomicUsize::new(0),
                    confirm_need: AtomicUsize::new(2),
                    last_move: AtomicUsize::new(0),
                    seen: AtomicUsize::new(0),
                })
                .collect(),
            epoch: AtomicU64::new(0),
            next_epoch_at: AtomicU64::new(config.epoch_cycles.max(1)),
            history: Mutex::new(Vec::new()),
        }
    }

    fn lane_index(callee: Wid) -> usize {
        (mix64(callee.raw()) % CONTROLLER_LANES as u64) as usize
    }

    /// Current resident budget for calls into `callee`.
    pub fn budget_for(&self, callee: Wid) -> usize {
        self.lanes[Controller::lane_index(callee)]
            .budget
            .load(Ordering::Relaxed)
    }

    /// A worker reports one coalesced residency into `callee`: how many
    /// calls it drained, whether it exited dry or saturated, and the
    /// home ring's occupancy when the batch was popped.
    pub fn observe(&self, callee: Wid, calls: u64, dry: bool, saturated: bool, occupancy: u64) {
        let lane = &self.lanes[Controller::lane_index(callee)];
        lane.calls.fetch_add(calls, Ordering::Relaxed);
        lane.occupancy_sum.fetch_add(occupancy, Ordering::Relaxed);
        lane.residencies.fetch_add(1, Ordering::Relaxed);
        if dry {
            lane.dry.fetch_add(1, Ordering::Relaxed);
        }
        if saturated {
            lane.saturated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Epoch gate, called by workers with their virtual clock. The
    /// first worker whose clock crosses the boundary wins the CAS and
    /// folds the epoch's counters into the budgets; everyone else
    /// returns immediately. Under [`SwitchlessMode::Fixed`] the epoch
    /// is still snapshotted (so convergence is observable) but budgets
    /// never move. Returns the folded snapshot when this call won the
    /// fold (the obs plane turns it into epoch-fold / budget-move
    /// events); `None` on the fast path.
    pub fn tick(&self, now_cycles: u64) -> Option<EpochSnapshot> {
        let at = self.next_epoch_at.load(Ordering::Relaxed);
        if now_cycles < at {
            return None;
        }
        if self
            .next_epoch_at
            .compare_exchange(
                at,
                at.saturating_add(self.config.epoch_cycles.max(1)),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return None; // another worker folds this epoch
        }
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let mut budgets = Vec::new();
        for (i, lane) in self.lanes.iter().enumerate() {
            let calls = lane.calls.swap(0, Ordering::Relaxed);
            let dry = lane.dry.swap(0, Ordering::Relaxed);
            let saturated = lane.saturated.swap(0, Ordering::Relaxed);
            let occ_sum = lane.occupancy_sum.swap(0, Ordering::Relaxed);
            let residencies = lane.residencies.swap(0, Ordering::Relaxed);
            let active = calls > 0 || residencies > 0;
            if active {
                lane.seen.store(1, Ordering::Relaxed);
            } else {
                if lane.seen.load(Ordering::Relaxed) == 1 {
                    // Ever-active lane idling this epoch: no signal, so
                    // the budget holds, but it stays in the snapshot so
                    // an activity gap cannot flap the budget vector.
                    budgets.push((i, lane.budget.load(Ordering::Relaxed)));
                }
                continue;
            }
            if self.config.mode == SwitchlessMode::Adaptive {
                let old = lane.budget.load(Ordering::Relaxed);
                let mean_occ = occ_sum.checked_div(residencies).unwrap_or(0);
                // Hysteresis, twice over. Wide signal bands: growth
                // needs a decisive (2×) saturation majority or mild
                // saturation backed by a deep home ring; shrinking
                // needs the budget to run at least twice the demand the
                // ring actually delivers per residency (`calls /
                // residencies`), i.e. the ring genuinely runs dry under
                // it — a final partial chunk alone is not over-staying.
                // Trend confirmation with annealing: the budget only
                // moves after `confirm_need` consecutive epochs point
                // the same way (initially two, doubling on every
                // direction reversal), so one noisy epoch never moves
                // it, a grow/shrink alternation (the classic limit
                // cycle) parks instead of thrashing, and a lane
                // straddling a decision threshold flips at most a
                // couple of times before freezing.
                let dir = if saturated > dry.saturating_mul(2) {
                    // The ring kept outpacing the budget: stay longer.
                    Direction::Grow
                } else if calls.saturating_mul(2) < old as u64 * residencies {
                    // Mean delivered demand below half the budget:
                    // residencies keep over-staying a dry ring — leave
                    // sooner (at the floor this is the classic path).
                    Direction::Shrink
                } else if saturated > dry && mean_occ as usize > old {
                    // Mild saturation plus a deep home ring: grow.
                    Direction::Grow
                } else {
                    Direction::Hold
                };
                let prev = lane.last_dir.swap(dir as usize, Ordering::Relaxed);
                let run = if dir == Direction::Hold {
                    0
                } else if prev == dir as usize {
                    lane.run_len.load(Ordering::Relaxed) + 1
                } else {
                    1
                };
                lane.run_len.store(run, Ordering::Relaxed);
                let need = lane.confirm_need.load(Ordering::Relaxed);
                let new = if dir != Direction::Hold && run >= need {
                    let applied = match dir {
                        Direction::Grow => old.saturating_mul(2).min(MAX_BUDGET),
                        Direction::Shrink => (old / 2).max(MIN_BUDGET),
                        Direction::Hold => old,
                    };
                    let last = lane.last_move.swap(dir as usize, Ordering::Relaxed);
                    if last != 0 && last != dir as usize {
                        // Reversal: anneal — demand a longer run before
                        // the next move.
                        lane.confirm_need
                            .store(need.saturating_mul(2), Ordering::Relaxed);
                    }
                    lane.run_len.store(0, Ordering::Relaxed);
                    applied
                } else {
                    old
                };
                lane.budget.store(new, Ordering::Relaxed);
            }
            budgets.push((i, lane.budget.load(Ordering::Relaxed)));
        }
        let snapshot = EpochSnapshot {
            epoch,
            at_cycles: at,
            budgets,
        };
        self.history
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(snapshot.clone());
        Some(snapshot)
    }

    /// The recorded epoch history.
    pub fn history(&self) -> Vec<EpochSnapshot> {
        self.history
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Convergence check for a recorded epoch history: at least
/// `final_epochs` epochs exist and the last `final_epochs` of them carry
/// identical budget vectors (the controller stopped moving).
pub fn converged(history: &[EpochSnapshot], final_epochs: usize) -> bool {
    if final_epochs == 0 || history.len() < final_epochs {
        return false;
    }
    let tail = &history[history.len() - final_epochs..];
    tail.windows(2).all(|w| w[0].budgets == w[1].budgets)
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
    /// The controller's epoch history (empty when switchless is off).
    pub epochs: Vec<EpochSnapshot>,
    /// Whether the §5.1 Current-World-ID register was wired into the
    /// workers' call units ([`SwitchlessConfig::prefetch_register`]).
    pub prefetch_register: bool,
    /// Merged §5.1 register counters (all zero unless it was wired).
    pub prefetch: PrefetchStats,
    /// Merged cycles the register spent on speculative table walks
    /// ([`crossover::prefetch::CurrentWidRegister::walk_cycles_spent`])
    /// — the cost side of the §5.1 trade-off, next to the hit counters
    /// that are its benefit side.
    pub register_walk_cycles: u64,
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

    fn wid(raw: u64) -> Wid {
        Wid::from_raw(raw)
    }

    #[test]
    fn defaults_are_off_and_classic_compatible() {
        let c = SwitchlessConfig::default();
        assert_eq!(c.mode, SwitchlessMode::Off);
        assert!(!c.enabled());
        assert!(SwitchlessConfig::fixed(8).enabled());
        assert!(SwitchlessConfig::adaptive().enabled());
    }

    #[test]
    fn saturation_grows_and_dryness_shrinks_the_budget() {
        let ctl = Controller::new(SwitchlessConfig {
            batch_budget: 8,
            epoch_cycles: 1_000,
            ..SwitchlessConfig::adaptive()
        });
        let hot = wid(3);
        let cold = wid(4);
        assert_eq!(ctl.budget_for(hot), 8);
        // Epoch 1 only records the trend (confirmation pending).
        for _ in 0..10 {
            ctl.observe(hot, 8, false, true, 20);
            ctl.observe(cold, 1, true, false, 0);
        }
        let _ = ctl.tick(1_000);
        assert_eq!(ctl.budget_for(hot), 8, "one epoch never moves a budget");
        assert_eq!(ctl.budget_for(cold), 8);
        // Epoch 2 confirms: the saturated lane doubles, the dry halves.
        for _ in 0..10 {
            ctl.observe(hot, 8, false, true, 20);
            ctl.observe(cold, 1, true, false, 0);
        }
        let _ = ctl.tick(2_000);
        assert_eq!(ctl.budget_for(hot), 16, "confirmed saturation doubles");
        assert_eq!(ctl.budget_for(cold), 4, "confirmed dryness halves");
        // Keep pushing: the hot lane saturates at the cap; the cold one
        // settles where the budget stops dwarfing its delivered demand
        // (one call per residency → budget 2, where pairs still
        // coalesce and anything thinner is the classic path).
        for epoch in 3..9u64 {
            for _ in 0..10 {
                ctl.observe(hot, 8, false, true, 20);
                ctl.observe(cold, 1, true, false, 0);
            }
            let _ = ctl.tick(epoch * 1_000);
        }
        assert_eq!(ctl.budget_for(hot), MAX_BUDGET);
        assert_eq!(ctl.budget_for(cold), 2);
        // Stable at the rails → the history tail is converged.
        assert!(converged(&ctl.history(), 3));
    }

    #[test]
    fn occupancy_arbitrates_mild_saturation() {
        let ctl = Controller::new(SwitchlessConfig {
            batch_budget: 4,
            epoch_cycles: 100,
            ..SwitchlessConfig::adaptive()
        });
        let w = wid(7);
        // Saturated leads dry but not decisively (2 vs 1 — inside the
        // 2× deadband); the deep home ring tips it toward growth, and
        // two confirming epochs move the budget.
        for epoch in 1..=2u64 {
            ctl.observe(w, 4, false, true, 40);
            ctl.observe(w, 4, false, true, 40);
            ctl.observe(w, 2, true, false, 40);
            let _ = ctl.tick(epoch * 100);
        }
        assert_eq!(ctl.budget_for(w), 8);
    }

    #[test]
    fn balanced_epochs_and_alternations_hold_the_budget() {
        let ctl = Controller::new(SwitchlessConfig {
            batch_budget: 8,
            epoch_cycles: 100,
            ..SwitchlessConfig::adaptive()
        });
        let w = wid(11);
        // Exact dry/saturated ties sit in the deadband: hold, even with
        // a deep ring behind them.
        ctl.observe(w, 8, false, true, 50);
        ctl.observe(w, 2, true, false, 50);
        let _ = ctl.tick(100);
        assert_eq!(ctl.budget_for(w), 8, "tied epoch holds");
        // A grow/shrink alternation — the classic limit cycle — never
        // confirms a trend, so the budget parks instead of thrashing.
        for epoch in 2..8u64 {
            if epoch % 2 == 0 {
                ctl.observe(w, 8, false, true, 50); // saturated epoch
            } else {
                ctl.observe(w, 1, true, false, 0); // dry epoch
            }
            let _ = ctl.tick(epoch * 100);
        }
        assert_eq!(ctl.budget_for(w), 8, "alternation parks the budget");
        assert!(converged(&ctl.history(), 5));
    }

    #[test]
    fn fixed_mode_snapshots_but_never_moves() {
        let ctl = Controller::new(SwitchlessConfig {
            epoch_cycles: 100,
            ..SwitchlessConfig::fixed(8)
        });
        let w = wid(9);
        for epoch in 1..5u64 {
            ctl.observe(w, 8, false, true, 50);
            let _ = ctl.tick(epoch * 100);
        }
        assert_eq!(ctl.budget_for(w), 8);
        let h = ctl.history();
        assert_eq!(h.len(), 4);
        assert!(converged(&h, 4));
    }

    #[test]
    fn only_one_worker_folds_an_epoch() {
        let ctl = Controller::new(SwitchlessConfig {
            epoch_cycles: 100,
            ..SwitchlessConfig::adaptive()
        });
        ctl.observe(wid(1), 4, false, true, 4);
        // Two workers cross the same boundary; the fold happens once.
        let _ = ctl.tick(150);
        let _ = ctl.tick(150);
        assert_eq!(ctl.history().len(), 1);
        // Next boundary is one epoch later.
        ctl.observe(wid(1), 4, false, true, 4);
        let _ = ctl.tick(199);
        assert_eq!(ctl.history().len(), 1);
        let _ = ctl.tick(200);
        assert_eq!(ctl.history().len(), 2);
    }

    #[test]
    fn reversals_anneal_the_confirmation_requirement() {
        let ctl = Controller::new(SwitchlessConfig {
            batch_budget: 8,
            epoch_cycles: 100,
            ..SwitchlessConfig::adaptive()
        });
        let w = wid(13);
        let mut epoch = 0u64;
        let mut tick = |saturated: bool, n: u64| {
            for _ in 0..n {
                epoch += 1;
                if saturated {
                    ctl.observe(w, 8, false, true, 50);
                } else {
                    ctl.observe(w, 1, true, false, 0);
                }
                let _ = ctl.tick(epoch * 100);
            }
        };
        // Two saturated epochs: first applied move (8 → 16).
        tick(true, 2);
        assert_eq!(ctl.budget_for(w), 16);
        // Two dry epochs: a reversal — applied (16 → 8), but the next
        // move now needs a 4-epoch run.
        tick(false, 2);
        assert_eq!(ctl.budget_for(w), 8);
        // Two saturated epochs no longer suffice...
        tick(true, 2);
        assert_eq!(ctl.budget_for(w), 8, "reversal doubled the requirement");
        // ...but an unbroken 4-epoch run still moves it (8 → 16), and
        // costs another doubling for the second reversal.
        tick(true, 2);
        assert_eq!(ctl.budget_for(w), 16);
        // A flip-flopping lane therefore freezes: 8 dry epochs in a row
        // are now needed, so 7 do nothing.
        tick(false, 7);
        assert_eq!(ctl.budget_for(w), 16, "annealed lane is frozen");
    }

    #[test]
    fn untouched_lanes_stay_out_but_touched_lanes_stay_in() {
        let ctl = Controller::new(SwitchlessConfig {
            epoch_cycles: 100,
            ..SwitchlessConfig::adaptive()
        });
        ctl.observe(wid(2), 3, true, false, 0);
        let _ = ctl.tick(100);
        let h = ctl.history();
        assert_eq!(h[0].budgets.len(), 1, "only the touched lane appears");
        // The lane idles through the next epoch: it must stay in the
        // snapshot (budget held) so activity gaps can't flap the
        // vector the convergence check compares.
        ctl.observe(wid(5), 1, true, false, 0);
        let _ = ctl.tick(200);
        let h = ctl.history();
        assert_eq!(h[1].budgets.len(), 2, "idle-but-seen lane persists");
        assert!(h[1].budgets.iter().any(|&(l, _)| h[0].budgets[0].0 == l));
    }

    #[test]
    fn convergence_needs_enough_history() {
        assert!(!converged(&[], 1));
        let snap = |e, b: &[(usize, usize)]| EpochSnapshot {
            epoch: e,
            at_cycles: e * 100,
            budgets: b.to_vec(),
        };
        let h = vec![snap(1, &[(0, 4)]), snap(2, &[(0, 8)]), snap(3, &[(0, 8)])];
        assert!(converged(&h, 2));
        assert!(!converged(&h, 3));
        assert!(!converged(&h, 4));
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
