//! Offline SLO watchdog: burn-rate detection over a drained run.
//!
//! [`evaluate`] reads what a run already keeps — the drained outcomes,
//! the gateway's admit/shed decisions and, when the run was recorded,
//! the flight-recorder events — and turns every *service-level*
//! regression in it (latency blowups, shed storms, dead-letter bursts)
//! into a structured [`Incident`] carrying enough context to answer
//! "what broke, when, and where did the cycles go" without re-running
//! the workload. Three rules govern it:
//!
//! 1. **Off the call path.** It runs after `drain()` on the report, so
//!    it charges no cycle and changes no control path by construction.
//! 2. **Virtual-time windows.** Each sample lands in the fixed-width
//!    *epoch* of [`EPOCH_CYCLES`] (100 000 cycles) holding its own
//!    virtual instant: an outcome's [`CallOutcome::finished_at`], a
//!    decision event's `ts`. Epochs `0..=last` are then judged in
//!    order, so the result is a function of the samples alone — not of
//!    their order, nor of how the host interleaved the workers.
//! 3. **No static thresholds.** Like the switchless controller, the
//!    watchdog learns its baselines from the first `BASELINE_EPOCHS` (4)
//!    epochs of the run itself; objectives fire on *burn rate* — observed
//!    value over learned baseline — not on absolute numbers. The only
//!    fixed quantities are resolution floors (a baseline below the floor
//!    is clamped up to it) so a clean run's zero-valued baselines cannot
//!    make the first stray shed an incident.
//!
//! Detection uses the classic multi-window rule: an objective breaches
//! when the *short* window (the epoch under evaluation) burns at ≥
//! `HI_BURN_X100` (3× baseline) **and** the *long* window (the last
//! `LONG_EPOCHS` = 3 epochs averaged) burns at ≥ `LO_BURN_X100` (1.5×).
//! The short window gives bounded detection latency; the long window
//! suppresses one-epoch noise.
//!
//! With a recording, each incident also carries its causal context: the
//! ranked critical-path components of every request that finished
//! inside the breached window (from [`obs::causal`]) and a frozen
//! snapshot of the recorded events around the breach.

use std::collections::{BTreeMap, VecDeque};

use obs::causal::{analyze, CausalReport, CriticalPath, ALL_COMPONENTS, COMPONENT_COUNT};
use obs::{Component, Event, EventKind};

use crate::router::{CallOutcome, CallVerdict};

/// Width of one evaluation epoch in virtual cycles.
pub const EPOCH_CYCLES: u64 = 100_000;
/// Evaluated epochs used to learn baselines before judging begins.
pub(crate) const BASELINE_EPOCHS: u64 = 4;
/// Long-window length in epochs (the short window is one epoch).
pub(crate) const LONG_EPOCHS: u64 = 3;
/// Short-window burn-rate trigger, ×100 (300 = 3× baseline).
pub(crate) const HI_BURN_X100: u64 = 300;
/// Long-window burn-rate trigger, ×100 (150 = 1.5× baseline).
pub(crate) const LO_BURN_X100: u64 = 150;
/// Minimum latency samples in an epoch before its p99 is judged (thin
/// epochs are skipped, not extrapolated).
pub(crate) const MIN_SAMPLES: u64 = 8;
/// Resolution floor for learned shed-rate baselines, in basis points of
/// decided submissions (100 = 1%).
pub(crate) const SHED_FLOOR_BP: u64 = 500;
/// Resolution floor for learned per-epoch dead-letter baselines.
pub(crate) const DEAD_LETTER_FLOOR: u64 = 2;
/// Maximum flight-recorder events frozen into one incident.
pub(crate) const SNAPSHOT_EVENTS: usize = 64;

/// One service-level objective the watchdog evaluates per epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// p99 of completed-call on-CPU latency for one callee world.
    LatencyP99 {
        /// Raw WID of the callee under the objective.
        callee: u64,
    },
    /// Shed fraction of one tenant's decided submissions.
    ShedRate {
        /// The tenant (0 = untenanted traffic).
        tenant: u32,
    },
    /// Dead-lettered requests per epoch for one tenant.
    DeadLetterBudget {
        /// The tenant (0 = untenanted traffic).
        tenant: u32,
    },
}

impl Objective {
    /// Stable numeric code (carried in synthesized `SloIncident.b`).
    pub fn code(&self) -> u64 {
        match self {
            Objective::LatencyP99 { .. } => 0,
            Objective::ShedRate { .. } => 1,
            Objective::DeadLetterBudget { .. } => 2,
        }
    }

    /// The objective's subject id: callee WID or tenant id.
    pub fn subject(&self) -> u64 {
        match self {
            Objective::LatencyP99 { callee } => *callee,
            Objective::ShedRate { tenant } => *tenant as u64,
            Objective::DeadLetterBudget { tenant } => *tenant as u64,
        }
    }

    /// Stable name for exports.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::LatencyP99 { .. } => "latency_p99",
            Objective::ShedRate { .. } => "shed_rate",
            Objective::DeadLetterBudget { .. } => "dead_letter_budget",
        }
    }
}

/// One ranked critical-path contributor inside a breached window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contributor {
    /// The latency component.
    pub component: Component,
    /// Cycles the component accounts for across every request that
    /// reached its verdict inside the breached window.
    pub cycles: u64,
}

/// A structured SLO breach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// The burning objective.
    pub objective: Objective,
    /// The breached epoch's index (`window_start / EPOCH_CYCLES`).
    pub epoch: u64,
    /// Breached window start, virtual cycles (inclusive).
    pub window_start: u64,
    /// Breached window end, virtual cycles (exclusive).
    pub window_end: u64,
    /// Short-window burn rate, ×100 over the learned baseline.
    pub burn_short_x100: u64,
    /// Long-window burn rate, ×100 over the learned baseline.
    pub burn_long_x100: u64,
    /// The learned (floor-clamped) baseline the burns are relative to:
    /// cycles for latency objectives, basis points for shed rate, a
    /// count for dead-letter budgets.
    pub baseline: u64,
    /// The short-window observed value, same unit as `baseline`.
    pub observed: u64,
    /// Critical-path components of requests that reached their verdict
    /// inside the window, ranked by cycles (empty when the run was not
    /// recorded).
    pub contributors: Vec<Contributor>,
    /// Frozen flight-recorder events around the breach (bounded by
    /// `SNAPSHOT_EVENTS`; empty without a recording).
    pub snapshot: Vec<Event>,
}

impl Incident {
    /// The top-ranked critical-path contributor, if the run was
    /// recorded.
    pub fn top_contributor(&self) -> Option<Component> {
        self.contributors.first().map(|c| c.component)
    }
}

/// What [`evaluate`] hands back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchdogSummary {
    /// Every incident raised, in evaluation (epoch) order.
    pub incidents: Vec<Incident>,
    /// Epochs evaluated over the run (learning + judged).
    pub epochs_evaluated: u64,
    /// Whether the learning phase completed (a run shorter than the
    /// learning window raises no incidents by construction).
    pub baseline_ready: bool,
}

/// Per-epoch sample aggregation (pre-evaluation).
#[derive(Debug, Default)]
struct EpochAgg {
    /// Completed-call on-CPU latencies per callee, sorted at summary.
    latency: BTreeMap<u64, Vec<u64>>,
    /// (admitted, shed) decided submissions per tenant.
    decisions: BTreeMap<u32, (u64, u64)>,
    /// Dead-lettered requests per tenant.
    dead_letters: BTreeMap<u32, u64>,
}

/// An evaluated epoch's digest, kept for the long window.
#[derive(Debug, Default, Clone)]
struct EpochSummary {
    /// (p99 cycles, samples) per callee.
    latency_p99: BTreeMap<u64, (u64, u64)>,
    /// (rate in basis points, decided submissions) per tenant.
    shed_bp: BTreeMap<u32, (u64, u64)>,
    /// Dead letters per tenant.
    dead_letters: BTreeMap<u32, u64>,
}

/// Learned baselines (maxima over the learning epochs, floor-clamped at
/// judge time).
#[derive(Debug, Default)]
struct Baseline {
    epochs_learned: u64,
    latency_p99: BTreeMap<u64, u64>,
    shed_bp: BTreeMap<u32, u64>,
    dead_letters: BTreeMap<u32, u64>,
}

/// Evaluates a drained run against every objective: buckets the samples
/// into epochs by their own virtual instants, judges epochs `0..=last`
/// in order, and — when `recording` holds the run's merged events —
/// attaches each incident's causal context.
///
/// * `outcomes`: the drained outcomes. Completed calls feed the
///   per-callee latency objectives, dead letters the per-tenant budgets.
/// * `decisions`: the gateway's events (`GatewayReport::events`). Only
///   `GatewayAdmit` and `GatewayShed` are read, with `b` = tenant; they
///   feed the per-tenant shed-rate objectives. Empty without a gateway.
/// * `recording`: the merged flight-recorder events, or `None` when the
///   run was not recorded (incidents then ship without causal context).
pub fn evaluate(
    outcomes: &[CallOutcome],
    decisions: &[Event],
    recording: Option<&[Event]>,
) -> WatchdogSummary {
    let mut epochs: BTreeMap<u64, EpochAgg> = BTreeMap::new();
    for o in outcomes {
        let agg = epochs.entry(o.finished_at / EPOCH_CYCLES).or_default();
        match &o.verdict {
            CallVerdict::Completed => agg
                .latency
                .entry(o.request.callee.raw())
                .or_default()
                .push(o.latency_cycles),
            CallVerdict::DeadLettered(_) => {
                *agg.dead_letters.entry(o.request.tenant).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    for e in decisions {
        let admitted = match e.kind {
            EventKind::GatewayAdmit => true,
            EventKind::GatewayShed => false,
            _ => continue,
        };
        let slot = epochs
            .entry(e.ts / EPOCH_CYCLES)
            .or_default()
            .decisions
            .entry(e.b as u32)
            .or_insert((0, 0));
        if admitted {
            slot.0 += 1;
        } else {
            slot.1 += 1;
        }
    }
    let epochs_evaluated = epochs.keys().next_back().map_or(0, |&last| last + 1);
    // The long window is the epoch under judgment plus the retained
    // history, so the history holds one epoch fewer than the window.
    let mut history: VecDeque<EpochSummary> = VecDeque::new();
    let mut baseline = Baseline::default();
    let mut incidents = Vec::new();
    for epoch in 0..epochs_evaluated {
        let summary = summarize(epochs.remove(&epoch).unwrap_or_default());
        if baseline.epochs_learned < BASELINE_EPOCHS {
            learn(&mut baseline, &summary);
        } else {
            judge(&baseline, &history, epoch, &summary, &mut incidents);
        }
        history.push_back(summary);
        while history.len() >= LONG_EPOCHS as usize {
            history.pop_front();
        }
    }
    if let Some(events) = recording {
        attach_context(&mut incidents, events);
    }
    WatchdogSummary {
        incidents,
        epochs_evaluated,
        baseline_ready: baseline.epochs_learned >= BASELINE_EPOCHS,
    }
}

/// Judges one epoch against every learned objective.
fn judge(
    baseline: &Baseline,
    history: &VecDeque<EpochSummary>,
    epoch: u64,
    summary: &EpochSummary,
    incidents: &mut Vec<Incident>,
) {
    let mut raise = |objective: Objective, observed: u64, long_avg: u64, baseline: u64| {
        let baseline = baseline.max(1);
        let burn_short = observed.saturating_mul(100) / baseline;
        let burn_long = long_avg.saturating_mul(100) / baseline;
        if burn_short >= HI_BURN_X100 && burn_long >= LO_BURN_X100 {
            incidents.push(Incident {
                objective,
                epoch,
                window_start: epoch * EPOCH_CYCLES,
                window_end: (epoch + 1) * EPOCH_CYCLES,
                burn_short_x100: burn_short,
                burn_long_x100: burn_long,
                baseline,
                observed,
                contributors: Vec::new(),
                snapshot: Vec::new(),
            });
        }
    };
    // Latency p99 per callee: judged only against a learned baseline (a
    // callee first seen after learning has nothing to burn against) and
    // only on epochs thick enough to carry a p99.
    for (&callee, &(p99, samples)) in &summary.latency_p99 {
        if samples < MIN_SAMPLES {
            continue;
        }
        let Some(&base) = baseline.latency_p99.get(&callee) else {
            continue;
        };
        let long_avg = window_avg(history, summary, |s| {
            s.latency_p99
                .get(&callee)
                .map(|&(v, n)| (v, n >= MIN_SAMPLES))
        });
        raise(Objective::LatencyP99 { callee }, p99, long_avg, base);
    }
    // Shed rate per tenant, in basis points of decided submissions. The
    // baseline is the learned maximum clamped up to the floor, so a
    // clean run's zero baseline cannot make the first stray shed a 100×
    // burn.
    for (&tenant, &(bp, decided)) in &summary.shed_bp {
        if decided < MIN_SAMPLES {
            continue;
        }
        let base = baseline
            .shed_bp
            .get(&tenant)
            .copied()
            .unwrap_or(0)
            .max(SHED_FLOOR_BP);
        let long_avg = window_avg(history, summary, |s| {
            s.shed_bp.get(&tenant).map(|&(v, n)| (v, n >= MIN_SAMPLES))
        });
        raise(Objective::ShedRate { tenant }, bp, long_avg, base);
    }
    // Dead letters per tenant per epoch, against the learned (floored)
    // budget.
    for (&tenant, &count) in &summary.dead_letters {
        let base = baseline
            .dead_letters
            .get(&tenant)
            .copied()
            .unwrap_or(0)
            .max(DEAD_LETTER_FLOOR);
        let long_avg = window_avg(history, summary, |s| {
            Some((s.dead_letters.get(&tenant).copied().unwrap_or(0), true))
        });
        raise(
            Objective::DeadLetterBudget { tenant },
            count,
            long_avg,
            base,
        );
    }
}

/// Attaches causal context to each incident from the run's recorded
/// events: the ranked critical-path components of the requests that
/// reached their verdict inside the breached window, plus a frozen
/// event snapshot around the breach.
fn attach_context(incidents: &mut [Incident], events: &[Event]) {
    let report = analyze(events);
    for incident in incidents {
        incident.contributors = ranked_for(
            &report,
            incident.objective,
            incident.window_start,
            incident.window_end,
        )
        .into_iter()
        .filter(|&(_, cycles)| cycles > 0)
        .map(|(component, cycles)| Contributor { component, cycles })
        .collect();
        // The frozen snapshot spans one epoch of lead-in so the events
        // that *caused* the breach (often just before the window) are
        // captured alongside the breach itself.
        let from = incident.window_start.saturating_sub(EPOCH_CYCLES);
        incident.snapshot = events
            .iter()
            .filter(|e| e.ts >= from && e.ts < incident.window_end)
            .take(SNAPSHOT_EVENTS)
            .copied()
            .collect();
    }
}

/// Objective-aware contributor ranking: restrict the critical-path
/// totals to the requests that *explain* the burning objective — the
/// breached callee's completions for a latency objective, the
/// dead-lettered requests for a dead-letter budget — so healthy
/// traffic sharing the window cannot drown the causal signal. Falls
/// back to the window-wide ranking when no request in the window is
/// objective-relevant (shed storms dispatch nothing, so their context
/// is whatever the window's survivors paid).
fn ranked_for(
    report: &CausalReport,
    objective: Objective,
    from: u64,
    to: u64,
) -> Vec<(Component, u64)> {
    let relevant = |p: &CriticalPath| match objective {
        Objective::LatencyP99 { callee } => p.callee == callee && p.verdict == 0,
        Objective::DeadLetterBudget { .. } => p.verdict == 3,
        Objective::ShedRate { .. } => false,
    };
    let mut totals = [0u64; COMPONENT_COUNT];
    let mut any = false;
    for p in &report.paths {
        if p.ended_at >= from && p.ended_at <= to && relevant(p) {
            any = true;
            for (t, c) in totals.iter_mut().zip(&p.components) {
                *t += c;
            }
        }
    }
    if !any {
        return report.ranked_within(from, to);
    }
    let mut out: Vec<(Component, u64)> = ALL_COMPONENTS
        .iter()
        .map(|&c| (c, totals[c.index()]))
        .filter(|&(_, v)| v > 0)
        .collect();
    out.sort_by_key(|&(c, v)| (std::cmp::Reverse(v), c.index()));
    out
}

/// Long-window average of an objective's value: the breached epoch plus
/// the retained history, skipping epochs where the objective had no
/// judgeable sample (the `bool` in the extractor's return).
fn window_avg<F>(history: &VecDeque<EpochSummary>, current: &EpochSummary, get: F) -> u64
where
    F: Fn(&EpochSummary) -> Option<(u64, bool)>,
{
    let mut sum = 0u64;
    let mut n = 0u64;
    for s in history.iter().chain(std::iter::once(current)) {
        if let Some((v, judgeable)) = get(s) {
            if judgeable {
                sum += v;
                n += 1;
            }
        }
    }
    sum.checked_div(n).unwrap_or(0)
}

/// Exact p99 of a sample vector (nearest-rank); the watchdog judges on
/// exact order statistics rather than log-bucketed ones so the burn
/// arithmetic is reproducible to the cycle.
fn p99(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (samples.len() * 99).div_ceil(100);
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

fn summarize(agg: EpochAgg) -> EpochSummary {
    let mut s = EpochSummary::default();
    for (callee, mut lat) in agg.latency {
        let n = lat.len() as u64;
        s.latency_p99.insert(callee, (p99(&mut lat), n));
    }
    for (tenant, (admitted, shed)) in agg.decisions {
        let decided = admitted + shed;
        let bp = shed
            .saturating_mul(10_000)
            .checked_div(decided)
            .unwrap_or(0);
        s.shed_bp.insert(tenant, (bp, decided));
    }
    s.dead_letters = agg.dead_letters;
    s
}

/// Folds one learning epoch into the baselines (maxima, so the learned
/// normal is the *worst* clean epoch — generous against noise).
fn learn(base: &mut Baseline, summary: &EpochSummary) {
    for (&callee, &(v, n)) in &summary.latency_p99 {
        if n >= MIN_SAMPLES {
            let slot = base.latency_p99.entry(callee).or_insert(0);
            *slot = (*slot).max(v);
        }
    }
    for (&tenant, &(bp, _)) in &summary.shed_bp {
        let slot = base.shed_bp.entry(tenant).or_insert(0);
        *slot = (*slot).max(bp);
    }
    for (&tenant, &c) in &summary.dead_letters {
        let slot = base.dead_letters.entry(tenant).or_insert(0);
        *slot = (*slot).max(c);
    }
    base.epochs_learned += 1;
}

/// Renders a summary's incidents as a JSON array (the in-tree dialect:
/// no external serializer). Used by the `slo` bench and any caller that
/// wants incidents on disk next to `BENCH_*.json`.
pub fn incidents_to_json(summary: &WatchdogSummary) -> String {
    let mut out = String::from("[");
    for (i, inc) in summary.incidents.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let contributors = inc
            .contributors
            .iter()
            .map(|c| {
                format!(
                    "{{\"component\": \"{}\", \"cycles\": {}}}",
                    c.component.name(),
                    c.cycles
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "{{\"objective\": \"{}\", \"subject\": {}, \"epoch\": {}, \
             \"window_start\": {}, \"window_end\": {}, \"burn_short_x100\": {}, \
             \"burn_long_x100\": {}, \"baseline\": {}, \"observed\": {}, \
             \"snapshot_events\": {}, \"contributors\": [{}]}}",
            inc.objective.name(),
            inc.objective.subject(),
            inc.epoch,
            inc.window_start,
            inc.window_end,
            inc.burn_short_x100,
            inc.burn_long_x100,
            inc.baseline,
            inc.observed,
            inc.snapshot.len(),
            contributors,
        ));
    }
    out.push(']');
    out
}

/// Synthesizes one [`EventKind::SloIncident`] event per incident for
/// trace annotation: `a` = epoch, `b` = objective code, `c` = short
/// burn ×100, stamped at the breached window's start on the dedicated
/// watchdog track.
pub fn incident_events(summary: &WatchdogSummary) -> Vec<Event> {
    summary
        .incidents
        .iter()
        .map(|inc| {
            Event::new(
                inc.window_start,
                obs::WATCHDOG_TRACK,
                EventKind::SloIncident,
                inc.epoch,
                inc.objective.code(),
                inc.burn_short_x100,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{CallError, CallRequest};
    use crossover::world::Wid;

    const EPOCH: u64 = EPOCH_CYCLES;

    fn outcome(callee: u64, tenant: u32, latency: u64, verdict: CallVerdict) -> CallOutcome {
        CallOutcome {
            request: CallRequest::new(Wid::from_raw(1), Wid::from_raw(callee), 100, 10)
                .with_tenant(tenant),
            verdict,
            latency_cycles: latency,
            queue_wait_cycles: 0,
            worker: 0,
            stolen: false,
            coalesced: false,
            finished_at: 0,
        }
    }

    /// `n` completed calls to callee 7 at `latency`, finishing mid-epoch.
    fn feed_epoch(outcomes: &mut Vec<CallOutcome>, epoch: u64, latency: u64, n: usize) {
        outcomes.extend((0..n).map(|_| CallOutcome {
            finished_at: epoch * EPOCH + EPOCH / 2,
            ..outcome(7, 1, latency, CallVerdict::Completed)
        }));
    }

    fn decision(at: u64, tenant: u32, admitted: bool) -> Event {
        let kind = if admitted {
            EventKind::GatewayAdmit
        } else {
            EventKind::GatewayShed
        };
        Event::new(at, u32::MAX - 1, kind, 0, u64::from(tenant), 0)
    }

    #[test]
    fn clean_run_raises_no_incidents() {
        let mut outcomes = Vec::new();
        for e in 0..8 {
            feed_epoch(&mut outcomes, e, 100, 8);
        }
        let summary = evaluate(&outcomes, &[], None);
        assert!(summary.baseline_ready);
        assert_eq!(summary.incidents.len(), 0);
        assert_eq!(summary.epochs_evaluated, 8);
    }

    #[test]
    fn latency_burn_fires_after_learning() {
        let mut outcomes = Vec::new();
        // Four learning epochs at p99=100, one clean judged epoch, then
        // a sustained 5x regression.
        for e in 0..5 {
            feed_epoch(&mut outcomes, e, 100, 8);
        }
        for e in 5..7 {
            feed_epoch(&mut outcomes, e, 500, 8);
        }
        let summary = evaluate(&outcomes, &[], None);
        assert!(summary.baseline_ready);
        // Epoch 5: short burn 500% fires, long window (epochs 3..=5)
        // averages (100+100+500)/3 = 233% >= 150%. Epoch 6 sustains.
        assert_eq!(summary.incidents.len(), 2);
        let first = &summary.incidents[0];
        assert_eq!(first.objective, Objective::LatencyP99 { callee: 7 });
        assert_eq!(first.epoch, 5);
        assert_eq!(first.burn_short_x100, 500);
        assert_eq!(first.burn_long_x100, 233);
        assert_eq!(first.baseline, 100);
        assert_eq!(first.observed, 500);
        assert_eq!(first.window_start, 5 * EPOCH);
        assert_eq!(first.window_end, 6 * EPOCH);
    }

    #[test]
    fn single_epoch_spike_needs_the_long_window() {
        let mut outcomes = Vec::new();
        // The learned baseline is the worst learning epoch (200); the
        // judged epochs then run at half of it.
        for e in 0..4 {
            feed_epoch(&mut outcomes, e, if e == 3 { 200 } else { 100 }, 8);
        }
        feed_epoch(&mut outcomes, 4, 100, 8);
        feed_epoch(&mut outcomes, 5, 100, 8);
        // A lone 3.1x spike: the short window fires, but the long
        // window (100+100+620)/3 = 273 is only 136% of the baseline.
        feed_epoch(&mut outcomes, 6, 620, 8);
        // A second spike epoch tips the long window over:
        // (100+620+620)/3 = 446, 223% of the baseline.
        feed_epoch(&mut outcomes, 7, 620, 8);
        feed_epoch(&mut outcomes, 8, 100, 8);
        let summary = evaluate(&outcomes, &[], None);
        assert_eq!(summary.incidents.len(), 1);
        let inc = &summary.incidents[0];
        assert_eq!(inc.epoch, 7, "the lone spike epoch is vetoed");
        assert_eq!(inc.baseline, 200);
        assert_eq!(inc.burn_short_x100, 310);
        assert_eq!(inc.burn_long_x100, 223);
    }

    #[test]
    fn thin_epochs_are_skipped_not_extrapolated() {
        let mut outcomes = Vec::new();
        for e in 0..5 {
            feed_epoch(&mut outcomes, e, 100, 8);
        }
        // A 10x epoch with too few samples to judge.
        feed_epoch(&mut outcomes, 5, 1_000, 2);
        let summary = evaluate(&outcomes, &[], None);
        assert_eq!(summary.incidents.len(), 0);
    }

    #[test]
    fn shed_storm_fires_the_shed_rate_objective() {
        // Learning + clean epochs: all admitted.
        let mut decisions: Vec<Event> = (0..5u64)
            .flat_map(|e| (0..8).map(move |_| decision(e * EPOCH + 10, 1, true)))
            .collect();
        // Storm: 6/8 shed = 7500bp against the 500bp floor baseline.
        decisions.extend((0..2).map(|_| decision(5 * EPOCH + 10, 1, true)));
        decisions.extend((0..6).map(|_| decision(5 * EPOCH + 10, 1, false)));
        // Events of other kinds on the same stream are ignored.
        decisions.push(Event::new(
            5 * EPOCH + 20,
            u32::MAX - 1,
            EventKind::CompletionBatch,
            0,
            1,
            8,
        ));
        let summary = evaluate(&[], &decisions, None);
        assert_eq!(summary.incidents.len(), 1);
        let inc = &summary.incidents[0];
        assert_eq!(inc.objective, Objective::ShedRate { tenant: 1 });
        assert_eq!(inc.observed, 7_500);
        assert_eq!(inc.baseline, 500);
        assert_eq!(inc.burn_short_x100, 1_500);
    }

    #[test]
    fn dead_letter_burst_fires_the_budget_objective() {
        let mut outcomes = Vec::new();
        for e in 0..5 {
            feed_epoch(&mut outcomes, e, 100, 8);
        }
        let verdict = CallVerdict::DeadLettered(CallError::LookupRace {
            wid: Wid::from_raw(7),
            attempts: 3,
        });
        outcomes.extend((0..12).map(|_| CallOutcome {
            finished_at: 5 * EPOCH + 10,
            ..outcome(7, 2, 0, verdict.clone())
        }));
        let summary = evaluate(&outcomes, &[], None);
        assert_eq!(summary.incidents.len(), 1);
        let inc = &summary.incidents[0];
        assert_eq!(inc.objective, Objective::DeadLetterBudget { tenant: 2 });
        assert_eq!(inc.observed, 12);
        assert_eq!(inc.baseline, 2, "floor-clamped learned baseline");
        assert_eq!(inc.burn_short_x100, 600);
    }

    #[test]
    fn incident_json_and_events_round_trip_the_fields() {
        let mut outcomes = Vec::new();
        for e in 0..5 {
            feed_epoch(&mut outcomes, e, 100, 8);
        }
        feed_epoch(&mut outcomes, 5, 900, 8);
        let summary = evaluate(&outcomes, &[], None);
        assert_eq!(summary.incidents.len(), 1);
        let json = incidents_to_json(&summary);
        assert!(json.contains("\"objective\": \"latency_p99\""));
        assert!(json.contains("\"burn_short_x100\": 900"));
        assert!(json.contains("\"epoch\": 5"));
        let events = incident_events(&summary);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::SloIncident);
        assert_eq!(events[0].worker, obs::WATCHDOG_TRACK);
        assert_eq!(events[0].ts, 5 * EPOCH);
        assert_eq!(events[0].b, 0);
        assert_eq!(events[0].c, 900);
    }

    #[test]
    fn recording_attaches_contributors_and_snapshot() {
        let mut outcomes = Vec::new();
        for e in 0..5 {
            feed_epoch(&mut outcomes, e, 100, 8);
        }
        feed_epoch(&mut outcomes, 5, 900, 8);
        // A recorded classic call wholly inside the breached window:
        // dispatch +100 → call +150 → return +700 → verdict +720.
        let t = 5 * EPOCH;
        let events = vec![
            Event::new(t + 100, 0, EventKind::RequestDispatch, 1, 40, 7),
            Event::new(t + 150, 0, EventKind::WorldCall, 1, 7, 0),
            Event::new(t + 700, 0, EventKind::WorldReturn, 7, 1, 0),
            Event::new(t + 720, 0, EventKind::RequestVerdict, 1, 0, 0),
        ];
        let summary = evaluate(&outcomes, &[], Some(&events));
        assert_eq!(summary.incidents.len(), 1);
        let inc = &summary.incidents[0];
        assert_eq!(inc.top_contributor(), Some(Component::Service));
        let total: u64 = inc.contributors.iter().map(|c| c.cycles).sum();
        assert_eq!(
            total, 660,
            "queue wait + service window of the one in-window span"
        );
        assert_eq!(inc.snapshot.len(), 4);
    }
}
