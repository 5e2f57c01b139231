//! Chrome/Perfetto `trace_event` export and recording round-trip.
//!
//! A [`TraceDoc`] is one recorded run: the merged event stream plus the
//! cross-check counts and clock metadata needed to replay it. It renders to
//! a single JSON document that is simultaneously
//!
//! 1. a valid Chrome `trace_event` file (`"traceEvents"` array — open it in
//!    Perfetto or `chrome://tracing` directly): one track per worker, one
//!    `"submit"` track, `"X"` complete events for request service slices and
//!    resident drains, `s`/`f` flow arrows from enqueue to dispatch, and
//!    `"i"` instants for fault-plane events and SLO incidents;
//! 2. a lossless recording (`"xover"` section carries every raw event),
//!    parsed back by [`TraceDoc::parse`] for `xover-trace` replay and
//!    conservation checks. Extra top-level keys are explicitly allowed by
//!    the trace_event spec, so one file serves both purposes.
//!
//! Timestamps: `trace_event` wants microseconds. Virtual cycles divided by
//! `frequency_ghz × 1000` give virtual microseconds — wall-meaningless but
//! proportional, which is all a timeline needs.

use std::fmt::Write as _;

use crate::event::{counts_by_kind, Event, EventKind};
use crate::json::{self, escape, Json};
use crate::span::{build_spans, Span};

/// A recorded run, ready to export or replay.
#[derive(Debug, Clone, Default)]
pub struct TraceDoc {
    /// Which benchmark/config produced this recording.
    pub benchmark: String,
    /// Simulated core frequency used for cycle→µs conversion.
    pub frequency_ghz: f64,
    /// Worker count in the run.
    pub workers: usize,
    /// Makespan in virtual cycles (slowest worker clock).
    pub makespan_cycles: u64,
    /// Sum of all worker clocks.
    pub total_cycles: u64,
    /// Cross-check counts from the machine-level `Trace` (name → count);
    /// conservation requires per-kind obs event counts to equal these.
    pub counts: Vec<(String, u64)>,
    /// Merged event stream, time-ordered.
    pub events: Vec<Event>,
    /// Events dropped from overflowed rings (exact).
    pub dropped: u64,
}

impl TraceDoc {
    fn us(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.frequency_ghz * 1000.0)
    }

    /// Machine-level cross-check count by name, if recorded.
    pub fn count(&self, name: &str) -> Option<u64> {
        self.counts.iter().find(|(n, _)| n == name).map(|&(_, c)| c)
    }

    /// Spans stitched from the recorded events.
    pub fn spans(&self) -> Vec<Span> {
        build_spans(&self.events)
    }

    /// Render the combined Perfetto + recording JSON document.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\n");
        let _ = writeln!(out, "    \"benchmark\": \"{}\",", escape(&self.benchmark));
        let _ = writeln!(out, "    \"frequency_ghz\": {},", self.frequency_ghz);
        let _ = writeln!(out, "    \"workers\": {},", self.workers);
        let _ = writeln!(out, "    \"makespan_cycles\": {},", self.makespan_cycles);
        let _ = writeln!(out, "    \"total_cycles\": {},", self.total_cycles);
        let _ = writeln!(out, "    \"obs_dropped\": {}", self.dropped);
        out.push_str("  },\n  \"traceEvents\": [\n");
        let mut first = true;
        {
            let mut emit = |line: String| {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                out.push_str("    ");
                out.push_str(&line);
            };
            self.render_trace_events(&mut emit);
        }
        out.push_str("\n  ],\n");
        self.render_xover_section(&mut out);
        out.push_str("}\n");
        out
    }

    fn render_trace_events(&self, emit: &mut dyn FnMut(String)) {
        // Track naming metadata.
        emit(
            "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, \
              \"args\": {\"name\": \"xover\"}}"
                .to_string(),
        );
        emit(
            "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": 0, \
              \"args\": {\"name\": \"submit\"}}"
                .to_string(),
        );
        for w in 0..self.workers {
            emit(format!(
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"name\": \"worker {}\"}}}}",
                w + 1,
                w
            ));
        }

        // Request service slices + flow arrows from enqueue to dispatch.
        for s in self.spans() {
            let tid = s.worker as usize + 1;
            emit(format!(
                "{{\"name\": \"w{}\\u2192w{}\", \"cat\": \"call\", \"ph\": \"X\", \
                 \"ts\": {:.4}, \"dur\": {:.4}, \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"seq\": {}, \"queue_wait_cycles\": {}, \"verdict\": \"{}\", \
                 \"coalesced\": {}, \"stolen\": {}}}}}",
                s.caller,
                s.callee,
                self.us(s.dispatched_at),
                self.us(s.service_cycles().max(1)),
                tid,
                s.seq,
                s.queue_wait,
                s.verdict_name(),
                s.coalesced,
                s.stolen,
            ));
            if let Some(enq) = s.enqueued_at {
                emit(format!(
                    "{{\"name\": \"req\", \"cat\": \"flow\", \"ph\": \"s\", \"id\": {}, \
                     \"ts\": {:.4}, \"pid\": 1, \"tid\": 0}}",
                    s.seq,
                    self.us(enq)
                ));
                emit(format!(
                    "{{\"name\": \"req\", \"cat\": \"flow\", \"ph\": \"f\", \"bp\": \"e\", \
                     \"id\": {}, \"ts\": {:.4}, \"pid\": 1, \"tid\": {}}}",
                    s.seq,
                    self.us(s.dispatched_at),
                    tid
                ));
            }
        }

        // Resident-drain slices: match open/close per worker track.
        let mut open: Vec<Option<(u64, u64, u64)>> = vec![None; self.workers + 1];
        for e in &self.events {
            let w = e.worker as usize;
            if w >= self.workers {
                continue;
            }
            match e.kind {
                EventKind::DrainOpen => open[w] = Some((e.ts, e.a, e.b)),
                EventKind::DrainClose => {
                    if let Some((start, caller, callee)) = open[w].take() {
                        emit(format!(
                            "{{\"name\": \"drain w{}\\u2192w{}\", \"cat\": \"drain\", \
                             \"ph\": \"X\", \"ts\": {:.4}, \"dur\": {:.4}, \"pid\": 1, \
                             \"tid\": {}, \"args\": {{\"serviced\": {}, \"reason\": {}}}}}",
                            caller,
                            callee,
                            self.us(start),
                            self.us(e.ts.saturating_sub(start).max(1)),
                            w + 1,
                            e.b,
                            e.c,
                        ));
                    }
                }
                _ => {}
            }
        }

        // Instants for the fault plane and SLO incidents.
        for e in &self.events {
            let tid = if e.worker == crate::ring::SUBMIT_TRACK {
                0
            } else {
                e.worker as usize + 1
            };
            match e.kind {
                EventKind::FaultObserved
                | EventKind::RetryBackoff
                | EventKind::Quarantine
                | EventKind::Respawn
                | EventKind::DeadLetter
                | EventKind::Stall => {
                    emit(format!(
                        "{{\"name\": \"{}\", \"cat\": \"fault\", \"ph\": \"i\", \"s\": \"t\", \
                         \"ts\": {:.4}, \"pid\": 1, \"tid\": {}, \
                         \"args\": {{\"a\": {}, \"b\": {}}}}}",
                        e.kind.name(),
                        self.us(e.ts),
                        tid,
                        e.a,
                        e.b,
                    ));
                }
                EventKind::SloIncident => {
                    // Watchdog annotations are process-scoped: an SLO
                    // breach belongs to the run, not to one worker lane.
                    emit(format!(
                        "{{\"name\": \"slo_incident\", \"cat\": \"slo\", \"ph\": \"i\", \
                         \"s\": \"p\", \"ts\": {:.4}, \"pid\": 1, \"tid\": 0, \
                         \"args\": {{\"epoch\": {}, \"objective\": {}, \"burn_x100\": {}}}}}",
                        self.us(e.ts),
                        e.a,
                        e.b,
                        e.c,
                    ));
                }
                _ => {}
            }
        }
    }

    fn render_xover_section(&self, out: &mut String) {
        out.push_str("  \"xover\": {\n    \"counts\": {");
        for (i, (name, count)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", escape(name), count);
        }
        out.push_str("},\n    \"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let _ = write!(
                out,
                "      {{\"t\": {}, \"w\": {}, \"k\": \"{}\", \"a\": {}, \"b\": {}, \"c\": {}}}",
                e.ts,
                e.worker,
                e.kind.name(),
                e.a,
                e.b,
                e.c
            );
            out.push_str(if i + 1 == self.events.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("    ]\n  }\n");
    }

    /// Parse a document produced by [`TraceDoc::render_json`].
    pub fn parse(text: &str) -> Result<TraceDoc, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let other = doc.get("otherData").ok_or("missing otherData")?;
        let xover = doc.get("xover").ok_or("missing xover section")?;
        let get_u64 = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing {key}"))
        };
        let mut counts = Vec::new();
        if let Some(Json::Obj(fields)) = xover.get("counts") {
            for (name, value) in fields {
                counts.push((name.clone(), value.as_u64().ok_or("bad count")?));
            }
        }
        let mut events = Vec::new();
        for item in xover
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("missing events")?
        {
            let kind_name = item.get("k").and_then(Json::as_str).ok_or("event kind")?;
            let kind = EventKind::from_name(kind_name)
                .ok_or_else(|| format!("unknown event kind '{kind_name}'"))?;
            events.push(Event {
                ts: get_u64(item, "t")?,
                worker: get_u64(item, "w")? as u32,
                kind,
                a: get_u64(item, "a")?,
                b: get_u64(item, "b")?,
                c: get_u64(item, "c")?,
            });
        }
        Ok(TraceDoc {
            benchmark: other
                .get("benchmark")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            frequency_ghz: other
                .get("frequency_ghz")
                .and_then(Json::as_f64)
                .ok_or("missing frequency_ghz")?,
            workers: get_u64(other, "workers")? as usize,
            makespan_cycles: get_u64(other, "makespan_cycles")?,
            total_cycles: get_u64(other, "total_cycles")?,
            counts,
            events,
            dropped: get_u64(other, "obs_dropped")?,
        })
    }

    /// Per-kind counts over the recorded events.
    pub fn event_counts(&self) -> [u64; EventKind::COUNT] {
        counts_by_kind(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::SUBMIT_TRACK;

    fn sample_doc() -> TraceDoc {
        TraceDoc {
            benchmark: "unit".into(),
            frequency_ghz: 3.4,
            workers: 2,
            makespan_cycles: 1000,
            total_cycles: 1800,
            counts: vec![("world_call".into(), 2), ("world_return".into(), 2)],
            events: vec![
                Event::new(5, SUBMIT_TRACK, EventKind::RequestEnqueue, 0, 1, 2),
                Event::new(20, 0, EventKind::RequestDispatch, 0, 15, 2),
                Event::new(21, 0, EventKind::WorldCall, 1, 2, 0),
                Event::new(90, 0, EventKind::WorldReturn, 2, 1, 0),
                Event::new(100, 0, EventKind::RequestVerdict, 0, 0, 0),
                Event::new(30, 1, EventKind::DrainOpen, 1, 3, 4),
                Event::new(31, 1, EventKind::WorldCall, 1, 3, 0),
                Event::new(80, 1, EventKind::WorldReturn, 3, 1, 0),
                Event::new(90, 1, EventKind::DrainClose, 3, 4, 0),
                Event::new(95, 1, EventKind::FaultObserved, 5, 0, 0),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn render_parse_round_trip_is_lossless() {
        let doc = sample_doc();
        let text = doc.render_json();
        let parsed = TraceDoc::parse(&text).expect("parse back");
        assert_eq!(parsed.benchmark, doc.benchmark);
        assert_eq!(parsed.frequency_ghz, doc.frequency_ghz);
        assert_eq!(parsed.workers, doc.workers);
        assert_eq!(parsed.makespan_cycles, doc.makespan_cycles);
        assert_eq!(parsed.total_cycles, doc.total_cycles);
        assert_eq!(parsed.counts, doc.counts);
        assert_eq!(parsed.events, doc.events);
        assert_eq!(parsed.dropped, doc.dropped);
    }

    #[test]
    fn rendered_json_is_valid_and_has_trace_events() {
        let text = sample_doc().render_json();
        let parsed = json::parse(&text).expect("valid json");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // Metadata (4) + span slice + 2 flow + drain slice + instant.
        assert!(events.len() >= 8, "got {} trace events", events.len());
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        for required in ["M", "X", "s", "f", "i"] {
            assert!(phases.contains(&required), "missing ph {required}");
        }
    }

    #[test]
    fn empty_doc_renders_and_parses() {
        let doc = TraceDoc {
            frequency_ghz: 1.0,
            ..TraceDoc::default()
        };
        let text = doc.render_json();
        let parsed = TraceDoc::parse(&text).expect("parse");
        assert!(parsed.events.is_empty());
    }
}
