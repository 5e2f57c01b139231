//! Span-tree / meter conservation checks over a recorded run.
//!
//! The obs plane and the machine-level `Trace` count the same physical
//! happenings through independent code paths: the worker emits a `WorldCall`
//! obs event at the same call sites where the CPU records a
//! `TransitionKind::WorldCall`. A lossless recording must therefore agree
//! with the machine counts per kind, every span must fit inside the run's
//! makespan, and no worker can have more span-service cycles than its clock
//! could hold. Violations mean dropped instrumentation, double counting, or
//! a stitching bug — `xover-trace` fails CI on any of them.

use std::collections::{HashMap, HashSet};

use crate::causal::check_exact;
use crate::event::EventKind;
use crate::perfetto::TraceDoc;
use crate::span::build_spans_checked;

/// Outcome of one conservation check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// All checks run over a recording.
#[derive(Debug, Clone, Default)]
pub struct ConservationReport {
    pub checks: Vec<Check>,
}

impl ConservationReport {
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    pub fn failures(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| !c.passed).collect()
    }

    fn push(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail,
        });
    }
}

/// Run every conservation check over a recording.
pub fn verify(doc: &TraceDoc) -> ConservationReport {
    let mut report = ConservationReport::default();
    let event_counts = doc.event_counts();

    // 1. Per-kind event counts equal the machine Trace counts. Only
    //    meaningful on a lossless recording: an overflowed ring legitimately
    //    under-counts.
    if doc.dropped == 0 {
        for (name, kind) in [
            ("world_call", EventKind::WorldCall),
            ("world_return", EventKind::WorldReturn),
        ] {
            if let Some(machine_count) = doc.count(name) {
                let obs_count = event_counts[kind.index()];
                report.push(
                    &format!("count:{name}"),
                    obs_count == machine_count,
                    format!("obs {obs_count} vs machine Trace {machine_count}"),
                );
            }
        }
    } else {
        report.push(
            "count:lossless",
            true,
            format!(
                "{} events dropped; per-kind count checks skipped",
                doc.dropped
            ),
        );
    }

    // 2. Timestamps within each track are monotone (rings never reorder).
    let mut last_ts: HashMap<u32, u64> = HashMap::new();
    let mut monotone = true;
    for e in &doc.events {
        let last = last_ts.entry(e.worker).or_insert(0);
        if e.ts < *last {
            monotone = false;
            break;
        }
        *last = e.ts;
    }
    report.push(
        "track-monotone",
        monotone,
        "per-track timestamps are non-decreasing".to_string(),
    );

    // 3. Span stitching is clean: no duplicate or orphaned verdicts.
    let (spans, anomalies) = build_spans_checked(&doc.events);
    report.push(
        "span-stitching",
        anomalies.is_empty(),
        if anomalies.is_empty() {
            format!("{} spans stitched", spans.len())
        } else {
            anomalies.join("; ")
        },
    );

    // 4. Every span fits inside the makespan, and the service cycles on each
    //    worker sum to no more than the makespan — a worker clock cannot
    //    exceed the slowest clock, and service slices on one clock are
    //    disjoint.
    let mut per_worker_service: HashMap<u32, u64> = HashMap::new();
    let mut inside = true;
    for s in &spans {
        if s.ended_at > doc.makespan_cycles {
            inside = false;
        }
        *per_worker_service.entry(s.worker).or_insert(0) += s.service_cycles();
    }
    report.push(
        "span-in-makespan",
        inside,
        format!("all span ends <= makespan {}", doc.makespan_cycles),
    );
    let worst = per_worker_service.values().copied().max().unwrap_or(0);
    report.push(
        "service-sum-in-makespan",
        worst <= doc.makespan_cycles,
        format!(
            "max per-worker span service sum {worst} vs makespan {}",
            doc.makespan_cycles
        ),
    );

    // 5. Every dispatched request reaches exactly one verdict. Counted over
    //    unique request seqs, not raw events: supervisor crash-retries
    //    legitimately re-dispatch the same request (two RequestDispatch
    //    events, one seq, one verdict), so raw counts diverge under fault
    //    injection while the per-request invariant still holds.
    let mut dispatched: HashSet<u64> = HashSet::new();
    let mut decided: HashSet<u64> = HashSet::new();
    for e in &doc.events {
        match e.kind {
            EventKind::RequestDispatch => {
                dispatched.insert(e.a);
            }
            EventKind::RequestVerdict => {
                decided.insert(e.a);
            }
            _ => {}
        }
    }
    report.push(
        "verdicts-vs-dispatches",
        doc.dropped > 0 || dispatched == decided,
        format!(
            "{} unique requests decided vs {} dispatched",
            decided.len(),
            dispatched.len()
        ),
    );

    // 6. Gateway conservation, when the recording carries gateway traffic.
    //    Every admitted submission must come back through exactly one
    //    completion batch (admits == sum of batch sizes), and the gateway's
    //    own submitted counter must equal admits + sheds — a shed is
    //    reported, never silent. Recordings from gateway-less runs carry no
    //    gateway events or counters and skip this check entirely, so older
    //    traces stay valid.
    let admits = event_counts[EventKind::GatewayAdmit.index()];
    let sheds = event_counts[EventKind::GatewayShed.index()];
    let delivered: u64 = doc
        .events
        .iter()
        .filter(|e| e.kind == EventKind::CompletionBatch)
        .map(|e| e.a)
        .sum();
    let batches = event_counts[EventKind::CompletionBatch.index()];
    let gateway_submitted = doc.count("gateway_submitted");
    let has_gateway = admits + sheds + batches > 0 || gateway_submitted.is_some();
    if has_gateway && doc.dropped == 0 {
        report.push(
            "gateway-admits-vs-completions",
            admits == delivered,
            format!("{admits} admits vs {delivered} completions delivered"),
        );
        if let Some(submitted) = gateway_submitted {
            report.push(
                "gateway-submitted-conservation",
                admits + sheds == submitted,
                format!("{admits} admits + {sheds} sheds vs {submitted} submitted"),
            );
        }
    }

    // 7. Budget conservation: every budget change decided by the switchless
    //    controller's epoch fold carries the epoch of the fold that decided
    //    it, and that fold must appear in the recording — a budget move
    //    without a fold means the controller acted outside an epoch
    //    boundary. Recordings without budget changes skip the check, so
    //    older traces stay valid.
    let budget_changes =
        event_counts[EventKind::BudgetGrow.index()] + event_counts[EventKind::BudgetShrink.index()];
    if budget_changes > 0 && doc.dropped == 0 {
        let folds: HashSet<u64> = doc
            .events
            .iter()
            .filter(|e| e.kind == EventKind::EpochFold)
            .map(|e| e.a)
            .collect();
        let orphaned = doc
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::BudgetGrow | EventKind::BudgetShrink))
            .filter(|e| !folds.contains(&e.c))
            .count();
        report.push(
            "budget-changes-vs-folds",
            orphaned == 0,
            format!(
                "{budget_changes} budget changes, {orphaned} without a matching epoch fold \
                 ({} folds recorded)",
                folds.len()
            ),
        );
    }

    // 8. Authz conservation: every policy denial is audited exactly once.
    //    Each `AuthzDeny` event must pair with exactly one Denied-family
    //    verdict (code 4) for the same request — a deny without a verdict
    //    is a silently dropped request, a denied verdict without a deny
    //    event is an unaudited refusal, and duplicates on either side mean
    //    double-denies. Recordings without authz traffic skip the check,
    //    so older traces stay valid; an overflowed ring skips it too.
    let mut deny_events: HashMap<u64, u64> = HashMap::new();
    let mut denied_verdicts: HashMap<u64, u64> = HashMap::new();
    for e in &doc.events {
        match e.kind {
            EventKind::AuthzDeny => *deny_events.entry(e.a).or_insert(0) += 1,
            EventKind::RequestVerdict if e.b == 4 => {
                *denied_verdicts.entry(e.a).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    if (!deny_events.is_empty() || !denied_verdicts.is_empty()) && doc.dropped == 0 {
        let same_requests = deny_events.len() == denied_verdicts.len()
            && deny_events.keys().all(|k| denied_verdicts.contains_key(k));
        let no_doubles =
            deny_events.values().all(|&n| n == 1) && denied_verdicts.values().all(|&n| n == 1);
        report.push(
            "authz-denies-vs-verdicts",
            same_requests && no_doubles,
            format!(
                "{} deny events over {} requests vs {} denied verdicts over {} requests",
                deny_events.values().sum::<u64>(),
                deny_events.len(),
                denied_verdicts.values().sum::<u64>(),
                denied_verdicts.len()
            ),
        );
    }

    // 9. Critical-path identity: every stitched span decomposes into
    //    named latency components that sum to its measured end-to-end
    //    cycles exactly — virtual time only advances through metered
    //    charges, so the decomposition has no unattributed residue. An
    //    overflowed ring can orphan the interior boundaries of a span,
    //    so the check only runs on lossless recordings.
    if doc.dropped == 0 {
        let (paths, violations) = check_exact(&doc.events);
        report.push(
            "critical-path",
            violations.is_empty(),
            if violations.is_empty() {
                format!("{} requests decomposed cycle-exactly", paths.len())
            } else {
                violations.join("; ")
            },
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::ring::SUBMIT_TRACK;

    fn clean_doc() -> TraceDoc {
        TraceDoc {
            benchmark: "unit".into(),
            frequency_ghz: 1.0,
            workers: 1,
            makespan_cycles: 200,
            total_cycles: 200,
            counts: vec![("world_call".into(), 1), ("world_return".into(), 1)],
            events: vec![
                Event::new(5, SUBMIT_TRACK, EventKind::RequestEnqueue, 0, 1, 2),
                Event::new(20, 0, EventKind::RequestDispatch, 0, 15, 2),
                Event::new(21, 0, EventKind::WorldCall, 1, 2, 0),
                Event::new(90, 0, EventKind::WorldReturn, 2, 1, 0),
                Event::new(100, 0, EventKind::RequestVerdict, 0, 0, 0),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn clean_recording_passes() {
        let report = verify(&clean_doc());
        assert!(report.ok(), "failures: {:?}", report.failures());
    }

    #[test]
    fn count_mismatch_fails() {
        let mut doc = clean_doc();
        doc.counts[0].1 = 5; // machine saw 5 world calls, obs saw 1
        let report = verify(&doc);
        assert!(!report.ok());
        assert!(report
            .failures()
            .iter()
            .any(|c| c.name == "count:world_call"));
    }

    #[test]
    fn span_escaping_makespan_fails() {
        let mut doc = clean_doc();
        doc.makespan_cycles = 50;
        let report = verify(&doc);
        assert!(report
            .failures()
            .iter()
            .any(|c| c.name == "span-in-makespan" || c.name == "service-sum-in-makespan"));
    }

    #[test]
    fn dropped_recording_skips_count_checks() {
        let mut doc = clean_doc();
        doc.dropped = 3;
        doc.counts[0].1 = 99; // would fail the count check if it ran
        let report = verify(&doc);
        assert!(report.ok(), "failures: {:?}", report.failures());
    }

    #[test]
    fn crash_retry_redispatch_still_conserves_verdicts() {
        // A supervisor retry re-dispatches seq 0: two dispatch events, one
        // verdict. The per-request invariant must still hold.
        let mut doc = clean_doc();
        doc.events
            .insert(2, Event::new(20, 0, EventKind::RequestDispatch, 0, 15, 2));
        let report = verify(&doc);
        assert!(
            report
                .checks
                .iter()
                .any(|c| c.name == "verdicts-vs-dispatches" && c.passed),
            "failures: {:?}",
            report.failures()
        );
    }

    #[test]
    fn undecided_dispatch_fails() {
        // Seq 7 is dispatched but never reaches a verdict.
        let mut doc = clean_doc();
        doc.events
            .push(Event::new(150, 0, EventKind::RequestDispatch, 7, 0, 2));
        let report = verify(&doc);
        assert!(report
            .failures()
            .iter()
            .any(|c| c.name == "verdicts-vs-dispatches"));
    }

    #[test]
    fn gateway_free_recording_skips_gateway_checks() {
        let report = verify(&clean_doc());
        assert!(report
            .checks
            .iter()
            .all(|c| !c.name.starts_with("gateway-")));
    }

    #[test]
    fn gateway_conservation_passes_on_balanced_traffic() {
        let mut doc = clean_doc();
        let gw = u32::MAX - 1;
        doc.counts.push(("gateway_submitted".into(), 3));
        doc.events
            .push(Event::new(10, gw, EventKind::GatewayAdmit, 0, 0, 2));
        doc.events
            .push(Event::new(12, gw, EventKind::GatewayAdmit, 1, 0, 2));
        doc.events
            .push(Event::new(14, gw, EventKind::GatewayShed, 2, 0, 0));
        doc.events
            .push(Event::new(200, gw, EventKind::CompletionBatch, 2, 0, 0));
        let report = verify(&doc);
        assert!(report.ok(), "failures: {:?}", report.failures());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "gateway-admits-vs-completions"));
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "gateway-submitted-conservation"));
    }

    #[test]
    fn gateway_lost_completion_fails() {
        // Two admits, but only one completion delivered.
        let mut doc = clean_doc();
        let gw = u32::MAX - 1;
        doc.events
            .push(Event::new(10, gw, EventKind::GatewayAdmit, 0, 0, 2));
        doc.events
            .push(Event::new(12, gw, EventKind::GatewayAdmit, 1, 0, 2));
        doc.events
            .push(Event::new(200, gw, EventKind::CompletionBatch, 1, 0, 0));
        let report = verify(&doc);
        assert!(report
            .failures()
            .iter()
            .any(|c| c.name == "gateway-admits-vs-completions"));
    }

    #[test]
    fn gateway_silent_shed_fails() {
        // Gateway claims 5 submitted but only 1 admit + 1 shed are recorded:
        // three submissions vanished without a verdict or a shed record.
        let mut doc = clean_doc();
        let gw = u32::MAX - 1;
        doc.counts.push(("gateway_submitted".into(), 5));
        doc.events
            .push(Event::new(10, gw, EventKind::GatewayAdmit, 0, 0, 2));
        doc.events
            .push(Event::new(14, gw, EventKind::GatewayShed, 1, 0, 0));
        doc.events
            .push(Event::new(200, gw, EventKind::CompletionBatch, 1, 0, 0));
        let report = verify(&doc);
        assert!(report
            .failures()
            .iter()
            .any(|c| c.name == "gateway-submitted-conservation"));
    }

    #[test]
    fn budget_free_recording_skips_budget_check() {
        let report = verify(&clean_doc());
        assert!(report
            .checks
            .iter()
            .all(|c| c.name != "budget-changes-vs-folds"));
    }

    #[test]
    fn budget_change_with_matching_fold_passes() {
        let mut doc = clean_doc();
        doc.events
            .push(Event::new(120, 0, EventKind::EpochFold, 3, 1, 0));
        doc.events
            .push(Event::new(120, 0, EventKind::BudgetGrow, 7, 16, 3));
        doc.events
            .push(Event::new(120, 0, EventKind::BudgetShrink, 9, 4, 3));
        let report = verify(&doc);
        assert!(report.ok(), "failures: {:?}", report.failures());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "budget-changes-vs-folds"));
    }

    #[test]
    fn orphaned_budget_change_fails() {
        // A grow stamped with epoch 5, but no fold for epoch 5 was recorded.
        let mut doc = clean_doc();
        doc.events
            .push(Event::new(120, 0, EventKind::EpochFold, 3, 1, 0));
        doc.events
            .push(Event::new(130, 0, EventKind::BudgetGrow, 7, 16, 5));
        let report = verify(&doc);
        assert!(report
            .failures()
            .iter()
            .any(|c| c.name == "budget-changes-vs-folds"));
    }

    #[test]
    fn authz_free_recording_skips_authz_check() {
        let report = verify(&clean_doc());
        assert!(report
            .checks
            .iter()
            .all(|c| c.name != "authz-denies-vs-verdicts"));
    }

    #[test]
    fn paired_deny_and_denied_verdict_pass() {
        let mut doc = clean_doc();
        doc.events
            .push(Event::new(110, 0, EventKind::RequestDispatch, 9, 0, 2));
        doc.events
            .push(Event::new(111, 0, EventKind::AuthzDeny, 9, 0, 1));
        doc.events
            .push(Event::new(111, 0, EventKind::RequestVerdict, 9, 4, 0));
        let report = verify(&doc);
        assert!(report.ok(), "failures: {:?}", report.failures());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "authz-denies-vs-verdicts"));
    }

    #[test]
    fn silent_deny_drop_fails() {
        // A deny event whose request never reaches a Denied verdict.
        let mut doc = clean_doc();
        doc.events
            .push(Event::new(150, 0, EventKind::AuthzDeny, 9, 0, 1));
        let report = verify(&doc);
        assert!(report
            .failures()
            .iter()
            .any(|c| c.name == "authz-denies-vs-verdicts"));
    }

    #[test]
    fn double_deny_fails() {
        let mut doc = clean_doc();
        doc.events
            .push(Event::new(110, 0, EventKind::RequestDispatch, 9, 0, 2));
        doc.events
            .push(Event::new(111, 0, EventKind::AuthzDeny, 9, 0, 1));
        doc.events
            .push(Event::new(112, 0, EventKind::AuthzDeny, 9, 0, 1));
        doc.events
            .push(Event::new(113, 0, EventKind::RequestVerdict, 9, 4, 0));
        let report = verify(&doc);
        assert!(report
            .failures()
            .iter()
            .any(|c| c.name == "authz-denies-vs-verdicts"));
    }

    #[test]
    fn unaudited_denied_verdict_fails() {
        // A Denied verdict with no AuthzDeny audit event.
        let mut doc = clean_doc();
        doc.events
            .push(Event::new(110, 0, EventKind::RequestDispatch, 9, 0, 2));
        doc.events
            .push(Event::new(111, 0, EventKind::RequestVerdict, 9, 4, 0));
        let report = verify(&doc);
        assert!(report
            .failures()
            .iter()
            .any(|c| c.name == "authz-denies-vs-verdicts"));
    }

    #[test]
    fn clean_recording_decomposes_cycle_exactly() {
        let report = verify(&clean_doc());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "critical-path" && c.passed));
    }

    #[test]
    fn cross_worker_verdict_breaks_the_critical_path_identity() {
        // A span whose verdict lands on a different track than its
        // dispatch stitches (with an anomaly) but cannot be walked as
        // one window — the decomposition must refuse it loudly.
        let mut doc = clean_doc();
        doc.events
            .push(Event::new(150, 0, EventKind::RequestDispatch, 9, 0, 2));
        doc.events
            .push(Event::new(160, 1, EventKind::RequestVerdict, 9, 0, 0));
        let report = verify(&doc);
        assert!(report.failures().iter().any(|c| c.name == "critical-path"));
    }

    #[test]
    fn dropped_recording_skips_critical_path_check() {
        let mut doc = clean_doc();
        doc.dropped = 1;
        let report = verify(&doc);
        assert!(report.checks.iter().all(|c| c.name != "critical-path"));
    }

    #[test]
    fn reordered_track_fails() {
        let mut doc = clean_doc();
        doc.events
            .push(Event::new(10, 0, EventKind::WorldCall, 1, 2, 0));
        let report = verify(&doc);
        assert!(report.failures().iter().any(|c| c.name == "track-monotone"));
    }
}
