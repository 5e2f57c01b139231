//! Self-healing policy for the world-call runtime.
//!
//! The fault plane ([`machine::fault`]) decides *what breaks*; this
//! module decides *how the runtime survives it*. Each worker carries a
//! private [`Supervisor`] — its healing brain — and the pool shares one
//! [`HealthState`] — the degradation ladder. The policies:
//!
//! * **Backed-off retry.** Transient failures (a world-table lookup
//!   racing a deletion) are retried under capped exponential backoff
//!   with deterministic jitter, all in *virtual time*: the backoff is
//!   charged to the worker's meter, so recovery cost shows up in the
//!   cycle accounting like any other work. Retries that exhaust the cap
//!   become typed [`crate::CallError`] dead letters, never panics.
//! * **Channel quarantine.** A corrupt or faulting channel slot is
//!   never serviced; the channel is quarantined for an exponentially
//!   growing virtual-time window (re-opened automatically when the
//!   window passes) and its traffic rides the classic path meanwhile.
//! * **Worker respawn.** An injected crash mid-drain tears down the
//!   worker's private call unit; the supervisor rebuilds it (fresh
//!   WT/IWT, cleared cursors) and requeues the entire un-serviced batch
//!   *before any verdict is recorded*, preserving exactly-one-verdict.
//!   Crash loops beyond the respawn cap dead-letter the batch instead.
//! * **Degradation ladder.** Repeated strikes walk the shared
//!   [`HealthState`] down: `Normal` → `ClassicOnly` (switchless paths
//!   disabled pool-wide) → `Shedding` (new submissions refused with
//!   `Busy`). Levels step back up after a quiet cool-down window.
//!
//! Everything here is deterministic in virtual time: the jitter comes
//! from the in-tree SplitMix64 seeded per worker, and all windows are
//! measured on worker meters, not host clocks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

use machine::rng::SplitMix64;

/// First retry backoff (cycles); doubles per attempt.
pub(crate) const BACKOFF_BASE_CYCLES: u64 = 500;
/// Ceiling on a single backoff (cycles), before jitter.
pub(crate) const BACKOFF_CAP_CYCLES: u64 = 16_000;
/// Lookup retries before a racing world is dead-lettered.
pub(crate) const LOOKUP_RETRIES: u32 = 4;
/// First quarantine window after a channel strike (cycles); doubles per
/// strike.
pub(crate) const QUARANTINE_BASE_CYCLES: u64 = 50_000;
/// Ceiling on a quarantine window (cycles), before jitter.
pub(crate) const QUARANTINE_CAP_CYCLES: u64 = 800_000;
/// Channel strikes on one worker before the pool degrades to
/// classic-only.
pub(crate) const CORRUPTION_ESCALATION_STRIKES: u32 = 4;
/// Worker respawns before a crash loop dead-letters its batch and the
/// pool degrades to shedding.
pub(crate) const RESPAWN_CAP: u32 = 8;
/// Quiet cycles before the degradation ladder steps back up a level.
pub(crate) const RECOVER_AFTER_CYCLES: u64 = 2_000_000;
/// Seed for the deterministic backoff jitter (mixed with the worker
/// index so workers don't thunder in lockstep).
const JITTER_SEED: u64 = 0x5AFE_C0DE_5AFE_C0DE;

/// Rung on the pool-wide degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// Full service: switchless channels available.
    Normal = 0,
    /// Switchless disabled pool-wide; everything rides the classic
    /// per-call path.
    ClassicOnly = 1,
    /// New submissions are refused with `Busy`; in-flight work drains.
    Shedding = 2,
}

impl DegradeLevel {
    fn from_u8(v: u8) -> DegradeLevel {
        match v {
            0 => DegradeLevel::Normal,
            1 => DegradeLevel::ClassicOnly,
            _ => DegradeLevel::Shedding,
        }
    }
}

/// Pool-shared health: the current [`DegradeLevel`] plus counters.
/// Reads on the request path are single relaxed atomic loads, so a
/// healthy pool pays (virtual-time) nothing for carrying this.
#[derive(Debug)]
pub struct HealthState {
    level: AtomicU8,
    degraded_at: AtomicU64,
    escalations: AtomicU64,
    sheds: AtomicU64,
    /// Set by [`HealthState::pin_level`] (operational drills): while
    /// pinned, [`HealthState::maybe_recover`] is a no-op so the forced
    /// rung holds for the rest of the run.
    pinned: AtomicBool,
}

impl Default for HealthState {
    fn default() -> HealthState {
        HealthState::new()
    }
}

impl HealthState {
    /// Healthy state; each rung cools down after `RECOVER_AFTER_CYCLES`
    /// (2M) quiet cycles.
    pub fn new() -> HealthState {
        HealthState {
            level: AtomicU8::new(0),
            degraded_at: AtomicU64::new(0),
            escalations: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            pinned: AtomicBool::new(false),
        }
    }

    /// Current rung.
    pub fn level(&self) -> DegradeLevel {
        DegradeLevel::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Whether switchless paths are currently disabled.
    pub fn classic_only(&self) -> bool {
        self.level.load(Ordering::Relaxed) >= DegradeLevel::ClassicOnly as u8
    }

    /// Whether new submissions should be refused with `Busy`.
    pub fn is_shedding(&self) -> bool {
        self.level.load(Ordering::Relaxed) >= DegradeLevel::Shedding as u8
    }

    /// Raises the ladder to at least `to` (never lowers it) and restarts
    /// the cool-down window at `now`.
    pub fn escalate(&self, to: DegradeLevel, now: u64) {
        let target = to as u8;
        let mut cur = self.level.load(Ordering::Relaxed);
        while cur < target {
            match self
                .level
                .compare_exchange(cur, target, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.degraded_at.store(now, Ordering::Relaxed);
                    self.escalations.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Forces the ladder to at least `to` and *pins* it there for the
    /// rest of the run: [`HealthState::maybe_recover`] becomes a no-op.
    /// This is the operational-drill hook — e.g. forcing `ClassicOnly`
    /// mid-run to rehearse a switchless-plane outage — so the drill's
    /// rung cannot quietly heal away under it.
    pub fn pin_level(&self, to: DegradeLevel, now: u64) {
        self.escalate(to, now);
        self.pinned.store(true, Ordering::Relaxed);
    }

    /// Steps the ladder down one rung if a full quiet window has passed
    /// since the last escalation (or the last step-down). Call with a
    /// worker's virtual clock; cheap enough for every batch.
    pub fn maybe_recover(&self, now: u64) {
        let cur = self.level.load(Ordering::Relaxed);
        if cur == 0 || self.pinned.load(Ordering::Relaxed) {
            return;
        }
        let since = self.degraded_at.load(Ordering::Relaxed);
        if now >= since.saturating_add(RECOVER_AFTER_CYCLES)
            && self
                .level
                .compare_exchange(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            // Each rung must earn its own quiet window.
            self.degraded_at.store(now, Ordering::Relaxed);
        }
    }

    /// Counts one submission refused because the pool is shedding.
    pub fn note_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Times the ladder was raised.
    pub fn escalations(&self) -> u64 {
        self.escalations.load(Ordering::Relaxed)
    }

    /// Submissions refused while shedding.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct ChannelHealth {
    strikes: u32,
    quarantined_until: u64,
}

/// Per-worker healing counters, merged into the service report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SupervisorReport {
    /// Injected stalls absorbed (cycles burned, batch then serviced).
    pub injected_stalls: u64,
    /// Virtual cycles lost to injected stalls.
    pub stall_cycles: u64,
    /// Worker respawns (crash healed, batch requeued).
    pub respawns: u64,
    /// Requests resolved as [`crate::CallVerdict::DeadLettered`].
    pub dead_lettered: u64,
    /// Channel slots that failed their seqno/checksum verification.
    pub corruptions_detected: u64,
    /// Channel accesses refused at the EPT (permission fault injected or
    /// mapping torn down).
    pub channel_faults: u64,
    /// Quarantine windows opened.
    pub quarantines: u64,
    /// Calls that rode the classic path because their channel was
    /// quarantined.
    pub quarantined_fallback_calls: u64,
    /// World-table lookups retried under backoff.
    pub lookup_retries: u64,
    /// Virtual cycles charged to retry backoff.
    pub backoff_cycles: u64,
    /// Invalidation broadcasts whose application was deferred by an
    /// injected drop (healed at the next batch boundary).
    pub invalidation_defers: u64,
    /// Working-set touches that failed to translate (counted, not
    /// panicked).
    pub working_set_faults: u64,
    /// Virtual cycles from first fault observation to the next completed
    /// call, one sample per fault episode (the recovery latency the
    /// bench reports).
    pub recovery_samples: Vec<u64>,
    /// WT/IWT entries pre-filled after crash-respawns (nonzero only with
    /// [`crate::RuntimeConfig::prefetch_warm_on_respawn`]).
    pub warm_fills: u64,
    /// On-CPU latency (cycles) of the first call each respawned worker
    /// serviced — the before/after comparison for respawn warming: with
    /// warming off these pay cold WT/IWT miss faults, with warming on
    /// they hit the pre-filled entries.
    pub post_respawn_latency_samples: Vec<u64>,
}

impl SupervisorReport {
    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: &SupervisorReport) {
        self.injected_stalls += other.injected_stalls;
        self.stall_cycles += other.stall_cycles;
        self.respawns += other.respawns;
        self.dead_lettered += other.dead_lettered;
        self.corruptions_detected += other.corruptions_detected;
        self.channel_faults += other.channel_faults;
        self.quarantines += other.quarantines;
        self.quarantined_fallback_calls += other.quarantined_fallback_calls;
        self.lookup_retries += other.lookup_retries;
        self.backoff_cycles += other.backoff_cycles;
        self.invalidation_defers += other.invalidation_defers;
        self.working_set_faults += other.working_set_faults;
        self.recovery_samples
            .extend_from_slice(&other.recovery_samples);
        self.warm_fills += other.warm_fills;
        self.post_respawn_latency_samples
            .extend_from_slice(&other.post_respawn_latency_samples);
    }

    /// Mean on-CPU latency of first-after-respawn calls, `NAN` with no
    /// samples (no crashes, or the pool dead-lettered instead).
    pub fn mean_post_respawn_latency_cycles(&self) -> f64 {
        if self.post_respawn_latency_samples.is_empty() {
            return f64::NAN;
        }
        self.post_respawn_latency_samples.iter().sum::<u64>() as f64
            / self.post_respawn_latency_samples.len() as f64
    }

    /// Mean virtual-time recovery latency (fault observed → next
    /// completed call), `NAN` with no samples.
    pub fn mean_recovery_cycles(&self) -> f64 {
        if self.recovery_samples.is_empty() {
            return f64::NAN;
        }
        self.recovery_samples.iter().sum::<u64>() as f64 / self.recovery_samples.len() as f64
    }

    /// Total faults this worker observed (the health probe's numerator).
    pub fn faults_observed(&self) -> u64 {
        self.injected_stalls
            + self.respawns
            + self.corruptions_detected
            + self.channel_faults
            + self.lookup_retries
            + self.invalidation_defers
            + self.working_set_faults
    }
}

/// Pool-wide healing summary carried in the service report.
#[derive(Debug, Clone, Default)]
pub struct SupervisorSummary {
    /// All workers' counters, merged.
    pub totals: SupervisorReport,
    /// Worker threads that died for real (join failed) — always 0 for
    /// injected crashes, which are healed in-thread.
    pub worker_panics: u64,
    /// Times the degradation ladder was raised.
    pub degrade_escalations: u64,
    /// Submissions refused while shedding.
    pub shed_rejections: u64,
    /// Ladder rung at drain time (0 = normal).
    pub final_degrade_level: u8,
}

/// One worker's healing brain: retry/backoff, channel quarantine and
/// respawn bookkeeping, plus the counters for the merged report.
#[derive(Debug)]
pub struct Supervisor {
    rng: SplitMix64,
    channels: HashMap<u64, ChannelHealth>,
    fault_pending_since: Option<u64>,
    /// Counters, merged into the service report at drain.
    pub report: SupervisorReport,
}

impl Supervisor {
    /// A supervisor for worker `index` (the index diversifies the jitter
    /// stream so workers don't retry in lockstep).
    pub fn new(index: usize) -> Supervisor {
        Supervisor {
            rng: SplitMix64::new(
                JITTER_SEED.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
            channels: HashMap::new(),
            fault_pending_since: None,
            report: SupervisorReport::default(),
        }
    }

    fn jitter(&mut self, span: u64) -> u64 {
        if span == 0 {
            0
        } else {
            self.rng.below(span)
        }
    }

    /// Backoff for retry number `attempt` (0-based): capped exponential
    /// plus deterministic jitter, in virtual cycles. The caller charges
    /// this to its meter.
    pub fn backoff_cycles(&mut self, attempt: u32) -> u64 {
        let raw = BACKOFF_BASE_CYCLES.saturating_mul(1u64 << attempt.min(16));
        raw.min(BACKOFF_CAP_CYCLES) + self.jitter(BACKOFF_BASE_CYCLES / 4 + 1)
    }

    /// Marks the start of a fault episode (no-op if one is already
    /// open); the episode closes — and a recovery-latency sample is
    /// taken — at the next completed call.
    pub fn note_fault(&mut self, now: u64) {
        if self.fault_pending_since.is_none() {
            self.fault_pending_since = Some(now);
        }
    }

    /// Marks a completed call: if a fault episode is open, closes it and
    /// records `now - start` as a recovery-latency sample.
    pub fn note_healthy(&mut self, now: u64) {
        if let Some(since) = self.fault_pending_since.take() {
            self.report.recovery_samples.push(now.saturating_sub(since));
        }
    }

    /// Whether `callee`'s channel may be used at virtual time `now`
    /// (i.e. it is not inside a quarantine window).
    pub fn channel_usable(&self, callee: u64, now: u64) -> bool {
        match self.channels.get(&callee) {
            Some(h) => now >= h.quarantined_until,
            None => true,
        }
    }

    fn strike_channel(&mut self, callee: u64, now: u64) {
        let jitter = self.jitter(QUARANTINE_BASE_CYCLES / 8 + 1);
        let h = self.channels.entry(callee).or_default();
        h.strikes += 1;
        let window = QUARANTINE_BASE_CYCLES
            .saturating_mul(1u64 << (h.strikes - 1).min(16))
            .min(QUARANTINE_CAP_CYCLES);
        h.quarantined_until = now.saturating_add(window).saturating_add(jitter);
        self.report.quarantines += 1;
        self.note_fault(now);
    }

    /// Records a corrupt slot on `callee`'s channel: quarantines the
    /// channel (window doubling per strike, capped, jittered).
    pub fn record_corruption(&mut self, callee: u64, now: u64) {
        self.report.corruptions_detected += 1;
        self.strike_channel(callee, now);
    }

    /// Records an EPT/translation fault on `callee`'s channel pages:
    /// same quarantine policy as corruption.
    pub fn record_channel_fault(&mut self, callee: u64, now: u64) {
        self.report.channel_faults += 1;
        self.strike_channel(callee, now);
    }

    /// Channel strikes accumulated across all callees (the escalation
    /// threshold compares against this).
    pub fn total_strikes(&self) -> u32 {
        self.channels.values().map(|h| h.strikes).sum()
    }

    /// Records an injected crash; returns the total respawn count so the
    /// caller can compare against the cap.
    pub fn record_crash(&mut self, now: u64) -> u64 {
        self.report.respawns += 1;
        self.note_fault(now);
        self.report.respawns
    }

    /// Records an injected stall of `cycles`.
    pub fn record_stall(&mut self, now: u64, cycles: u64) {
        self.report.injected_stalls += 1;
        self.report.stall_cycles += cycles;
        self.note_fault(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let mut sup = Supervisor::new(0);
        let jitter_span = BACKOFF_BASE_CYCLES / 4 + 1;
        let b0 = sup.backoff_cycles(0);
        let b3 = sup.backoff_cycles(3);
        let b20 = sup.backoff_cycles(20);
        assert!(b0 >= BACKOFF_BASE_CYCLES && b0 < BACKOFF_BASE_CYCLES + jitter_span);
        assert!(b3 >= BACKOFF_BASE_CYCLES * 8);
        assert!(b20 <= BACKOFF_CAP_CYCLES + jitter_span, "cap holds: {b20}");
    }

    #[test]
    fn backoff_is_deterministic_per_worker_and_diverse_across_workers() {
        let mut a1 = Supervisor::new(3);
        let mut a2 = Supervisor::new(3);
        let mut b = Supervisor::new(4);
        let seq1: Vec<u64> = (0..8).map(|i| a1.backoff_cycles(i)).collect();
        let seq2: Vec<u64> = (0..8).map(|i| a2.backoff_cycles(i)).collect();
        let seqb: Vec<u64> = (0..8).map(|i| b.backoff_cycles(i)).collect();
        assert_eq!(seq1, seq2, "same worker, same jitter stream");
        assert_ne!(seq1, seqb, "workers must not thunder in lockstep");
    }

    #[test]
    fn quarantine_windows_double_and_reopen() {
        let mut sup = Supervisor::new(0);
        assert!(sup.channel_usable(7, 0));
        sup.record_corruption(7, 1_000);
        assert!(!sup.channel_usable(7, 1_000));
        assert_eq!(sup.report.quarantines, 1);
        // Far enough in the future the window has passed: re-opened.
        assert!(sup.channel_usable(7, u64::MAX));
        // A second strike quarantines for (at least) twice as long.
        let base = QUARANTINE_BASE_CYCLES;
        sup.record_corruption(7, 0);
        let until_two = sup.channels[&7].quarantined_until;
        assert!(
            until_two >= 2 * base,
            "second window {until_two} >= {}",
            2 * base
        );
        // Other channels are unaffected.
        assert!(sup.channel_usable(9, 0));
        assert_eq!(sup.total_strikes(), 2);
    }

    #[test]
    fn recovery_samples_span_fault_to_next_completion() {
        let mut sup = Supervisor::new(0);
        sup.note_healthy(50); // no open episode: no sample
        assert!(sup.report.recovery_samples.is_empty());
        sup.note_fault(100);
        sup.note_fault(200); // episode already open: start unchanged
        sup.note_healthy(700);
        assert_eq!(sup.report.recovery_samples, vec![600]);
        assert!(sup.report.mean_recovery_cycles() == 600.0);
        sup.note_healthy(900); // closed: no double sample
        assert_eq!(sup.report.recovery_samples.len(), 1);
    }

    #[test]
    fn health_ladder_escalates_and_cools_down() {
        const R: u64 = RECOVER_AFTER_CYCLES;
        let h = HealthState::new();
        assert_eq!(h.level(), DegradeLevel::Normal);
        assert!(!h.classic_only() && !h.is_shedding());
        h.escalate(DegradeLevel::ClassicOnly, 10);
        assert!(h.classic_only() && !h.is_shedding());
        // Escalation never lowers.
        h.escalate(DegradeLevel::ClassicOnly, 20);
        h.escalate(DegradeLevel::Shedding, 30);
        assert!(h.is_shedding());
        assert_eq!(h.escalations(), 2);
        // Not yet quiet long enough.
        h.maybe_recover(R / 2);
        assert!(h.is_shedding());
        // One quiet window: down one rung (to classic-only)...
        h.maybe_recover(30 + R);
        assert_eq!(h.level(), DegradeLevel::ClassicOnly);
        // ...and the next rung needs its own quiet window.
        h.maybe_recover(130 + R);
        assert_eq!(h.level(), DegradeLevel::ClassicOnly);
        h.maybe_recover(30 + 2 * R);
        assert_eq!(h.level(), DegradeLevel::Normal);
        h.maybe_recover(10 * R);
        assert_eq!(h.level(), DegradeLevel::Normal);
    }

    #[test]
    fn report_absorb_merges_everything() {
        let mut a = SupervisorReport {
            respawns: 1,
            recovery_samples: vec![10],
            ..SupervisorReport::default()
        };
        let b = SupervisorReport {
            respawns: 2,
            corruptions_detected: 3,
            recovery_samples: vec![30],
            ..SupervisorReport::default()
        };
        a.absorb(&b);
        assert_eq!(a.respawns, 3);
        assert_eq!(a.corruptions_detected, 3);
        assert_eq!(a.recovery_samples, vec![10, 30]);
        assert!((a.mean_recovery_cycles() - 20.0).abs() < 1e-12);
        assert_eq!(a.faults_observed(), 3 + 3);
    }
}
