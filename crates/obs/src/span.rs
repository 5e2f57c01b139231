//! Per-request span trees stitched from recorded events.
//!
//! A request's lifecycle is `queued → dispatched → [classic | resident-drain]
//! → verdict`. The submit side emits `RequestEnqueue` (stamped with the
//! service's virtual admission clock), the servicing worker emits
//! `RequestDispatch` (carrying the settled queue-wait) and `RequestVerdict`
//! (carrying the verdict and whether a resident drain serviced the request).
//! Stitching joins these on the per-request sequence number into [`Span`]s
//! with explicit queue-wait and service phases.

use std::collections::HashMap;

use crate::event::{Event, EventKind};

/// One request's reconstructed lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Submission sequence number (the join key).
    pub seq: u64,
    /// Worker that serviced the request.
    pub worker: u32,
    /// Caller world id (from the enqueue event; `u64::MAX` if it was
    /// dropped from the ring).
    pub caller: u64,
    /// Callee world id.
    pub callee: u64,
    /// Virtual admission time (None if the enqueue event was dropped).
    pub enqueued_at: Option<u64>,
    /// Worker-clock time the request was picked up.
    pub dispatched_at: u64,
    /// Settled queue-wait phase, in cycles (authoritative, from the worker).
    pub queue_wait: u64,
    /// Worker-clock time the verdict was recorded.
    pub ended_at: u64,
    /// Verdict code: 0=completed, 1=timed-out, 2=failed, 3=dead-lettered,
    /// 4=denied.
    pub verdict: u8,
    /// Whether a resident drain serviced the request.
    pub coalesced: bool,
    /// Whether the request was stolen from a peer worker's ring.
    pub stolen: bool,
}

impl Span {
    /// Service phase: dispatch to verdict on the worker's clock. For drained
    /// requests this is the request's slice of the residency (its
    /// drain-amortized share); for classic requests it also includes any
    /// supervisor retry backoff.
    pub fn service_cycles(&self) -> u64 {
        self.ended_at.saturating_sub(self.dispatched_at)
    }

    /// End-to-end: queue wait plus service.
    pub fn total_cycles(&self) -> u64 {
        self.queue_wait + self.service_cycles()
    }

    pub fn verdict_name(&self) -> &'static str {
        verdict_name(self.verdict)
    }
}

pub fn verdict_name(code: u8) -> &'static str {
    match code {
        0 => "completed",
        1 => "timed-out",
        2 => "failed",
        3 => "dead-lettered",
        4 => "denied",
        _ => "unknown",
    }
}

#[derive(Default)]
struct Partial {
    caller: Option<u64>,
    callee: Option<u64>,
    enqueued_at: Option<u64>,
    dispatched_at: Option<u64>,
    queue_wait: u64,
    ended_at: Option<u64>,
    verdict: u8,
    verdicts_seen: u64,
    coalesced: bool,
    stolen: bool,
    worker: u32,
}

/// Stitch spans out of a merged (or per-ring) event stream. Requests whose
/// dispatch or verdict events were dropped from an overflowed ring are
/// omitted; `seq`s are returned in ascending order.
pub fn build_spans(events: &[Event]) -> Vec<Span> {
    let (spans, _) = build_spans_checked(events);
    spans
}

/// Like [`build_spans`] but also reports stitching anomalies (duplicate
/// verdicts, verdicts without a dispatch) for conservation checking.
pub fn build_spans_checked(events: &[Event]) -> (Vec<Span>, Vec<String>) {
    let mut partials: HashMap<u64, Partial> = HashMap::new();
    let mut anomalies = Vec::new();
    for e in events {
        match e.kind {
            EventKind::RequestEnqueue => {
                let p = partials.entry(e.a).or_default();
                p.enqueued_at = Some(e.ts);
                p.caller = Some(e.b);
                p.callee = Some(e.c);
            }
            EventKind::RequestDispatch => {
                let p = partials.entry(e.a).or_default();
                p.dispatched_at = Some(e.ts);
                p.queue_wait = e.b;
                p.callee.get_or_insert(e.c);
                p.worker = e.worker;
            }
            EventKind::RequestSteal => {
                partials.entry(e.a).or_default().stolen = true;
            }
            EventKind::DrainExtend => {
                partials.entry(e.a).or_default().coalesced = true;
            }
            EventKind::RequestVerdict => {
                let p = partials.entry(e.a).or_default();
                p.ended_at = Some(e.ts);
                p.verdict = e.b as u8;
                p.coalesced |= e.c != 0;
                p.verdicts_seen += 1;
                if p.worker != e.worker && p.dispatched_at.is_some() {
                    anomalies.push(format!(
                        "seq {}: dispatch on worker {} but verdict on worker {}",
                        e.a, p.worker, e.worker
                    ));
                }
            }
            _ => {}
        }
    }
    let mut spans = Vec::new();
    for (seq, p) in &partials {
        if p.verdicts_seen > 1 {
            anomalies.push(format!("seq {seq}: {} verdicts", p.verdicts_seen));
        }
        match (p.dispatched_at, p.ended_at) {
            (Some(dispatched_at), Some(ended_at)) => {
                if ended_at < dispatched_at {
                    anomalies.push(format!("seq {seq}: verdict before dispatch"));
                    continue;
                }
                spans.push(Span {
                    seq: *seq,
                    worker: p.worker,
                    caller: p.caller.unwrap_or(u64::MAX),
                    callee: p.callee.unwrap_or(u64::MAX),
                    enqueued_at: p.enqueued_at,
                    dispatched_at,
                    queue_wait: p.queue_wait,
                    ended_at,
                    verdict: p.verdict,
                    coalesced: p.coalesced,
                    stolen: p.stolen,
                });
            }
            (None, Some(_)) => {
                anomalies.push(format!("seq {seq}: verdict without dispatch"));
            }
            _ => {} // dropped mid-flight; not an anomaly on an overflowed ring
        }
    }
    spans.sort_by_key(|s| s.seq);
    (spans, anomalies)
}

/// The `n` slowest spans by end-to-end cycles, slowest first.
pub fn top_slowest(spans: &[Span], n: usize) -> Vec<Span> {
    let mut sorted: Vec<Span> = spans.to_vec();
    sorted.sort_by_key(|s| std::cmp::Reverse((s.total_cycles(), s.seq)));
    sorted.truncate(n);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::SUBMIT_TRACK;

    fn enq(ts: u64, seq: u64, caller: u64, callee: u64) -> Event {
        Event::new(
            ts,
            SUBMIT_TRACK,
            EventKind::RequestEnqueue,
            seq,
            caller,
            callee,
        )
    }

    fn disp(ts: u64, w: u32, seq: u64, wait: u64, callee: u64) -> Event {
        Event::new(ts, w, EventKind::RequestDispatch, seq, wait, callee)
    }

    fn verdict(ts: u64, w: u32, seq: u64, code: u64, coalesced: u64) -> Event {
        Event::new(ts, w, EventKind::RequestVerdict, seq, code, coalesced)
    }

    #[test]
    fn stitches_full_lifecycle() {
        let events = [
            enq(10, 0, 1, 2),
            disp(40, 0, 0, 30, 2),
            verdict(90, 0, 0, 0, 0),
            enq(12, 1, 1, 3),
            disp(50, 1, 1, 38, 3),
            verdict(300, 1, 1, 1, 1),
            disp(60, 0, 2, 0, 2),
            verdict(60, 0, 2, 4, 0),
        ];
        let spans = build_spans(&events);
        assert_eq!(spans.len(), 3);
        let s0 = &spans[0];
        assert_eq!((s0.seq, s0.caller, s0.callee), (0, 1, 2));
        assert_eq!(s0.enqueued_at, Some(10));
        assert_eq!(s0.queue_wait, 30);
        assert_eq!(s0.service_cycles(), 50);
        assert_eq!(s0.total_cycles(), 80);
        assert_eq!(s0.verdict_name(), "completed");
        let s1 = &spans[1];
        assert!(s1.coalesced);
        assert_eq!(s1.verdict_name(), "timed-out");
        // A policy denial resolves at dispatch with zero service time.
        let s2 = &spans[2];
        assert_eq!(s2.service_cycles(), 0);
        assert_eq!(s2.verdict_name(), "denied");
    }

    #[test]
    fn incomplete_spans_are_skipped_and_flagged() {
        let events = [
            enq(10, 0, 1, 2),        // never dispatched (dropped events)
            verdict(90, 0, 7, 0, 0), // verdict without dispatch
        ];
        let (spans, anomalies) = build_spans_checked(&events);
        assert!(spans.is_empty());
        assert_eq!(anomalies.len(), 1);
        assert!(anomalies[0].contains("seq 7"));
    }

    #[test]
    fn top_slowest_orders_by_total() {
        let events = [
            disp(0, 0, 0, 5, 2),
            verdict(10, 0, 0, 0, 0),
            disp(0, 0, 1, 100, 2),
            verdict(50, 0, 1, 0, 0),
            disp(0, 0, 2, 0, 2),
            verdict(500, 0, 2, 0, 0),
        ];
        let spans = build_spans(&events);
        let top = top_slowest(&spans, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].seq, 2);
        assert_eq!(top[1].seq, 1);
    }
}
