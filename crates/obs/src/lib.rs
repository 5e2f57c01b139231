//! Virtual-time observability plane for the CrossOver reproduction.
//!
//! The simulator's clocks are *virtual*: every worker advances a
//! [`Meter`](../machine/account/struct.Meter.html) in deterministic cycles.
//! This crate records what happened on those clocks without perturbing them —
//! a magic-trace-style flight recorder plus Dapper-style per-request spans:
//!
//! - [`Event`] / [`EventKind`]: compact typed records stamped with virtual
//!   cycles (request enqueue/dispatch/steal, world_call/return, WT/IWT/TLB
//!   hit-miss deltas, resident-drain open/extend/close, supervisor faults,
//!   gateway admit/shed, table maintenance and authz decisions).
//! - [`EventRing`]: a bounded per-worker flight recorder. Each worker thread
//!   owns its ring exclusively while running (single producer); the service
//!   drains it after join (single consumer), so recording is lock-free and
//!   wait-free by construction. Overflow drops the *newest* events and counts
//!   them exactly, preserving the recorded prefix in order.
//! - [`Recorder`]: the worker-side handle. `Recorder::off()` compiles every
//!   emission to a single branch on a `None` — the `Off` mode's cost.
//! - [`Span`] / [`build_spans`]: per-request span trees stitched from events
//!   (queued → dispatched → [classic | resident-drain] → verdict) with
//!   queue-wait and service phases.
//! - [`LogHistogram`]: HDR-style log-bucketed histogram (≤ 3.2% relative
//!   error) replacing sorted-Vec percentile scans in hot reporting loops.
//! - [`Registry`]: a dependency-free metrics registry with a
//!   Prometheus-style text renderer.
//! - [`TraceDoc`]: a recorded run — merged events plus cross-check counts —
//!   that renders to Chrome/Perfetto `trace_event` JSON and parses back (via
//!   the in-tree [`json`] parser) for replay and conservation checks.
//!
//! Everything here is host-side bookkeeping: no API in this crate charges
//! virtual cycles, so an instrumented run is cycle-exact with an
//! uninstrumented one (asserted by the runtime's obs parity tests).

pub mod causal;
pub mod config;
pub mod event;
pub mod hist;
pub mod json;
pub mod perfetto;
pub mod registry;
pub mod ring;
pub mod span;
pub mod verify;

pub use causal::{decompose, CausalReport, Component, CriticalPath, COMPONENT_COUNT};
pub use config::{ObsConfig, ObsMode, DEFAULT_RING_CAPACITY};
pub use event::{Event, EventKind};
pub use hist::LogHistogram;
pub use perfetto::TraceDoc;
pub use registry::Registry;
pub use ring::{EventRing, ObsReport, Recorder, SUBMIT_TRACK, WATCHDOG_TRACK};
pub use span::{build_spans, top_slowest, Span};
pub use verify::{verify, ConservationReport};
