//! Glue from runtime reports to the obs crate's exporters.
//!
//! The obs crate is deliberately runtime-agnostic (it knows events,
//! spans, histograms and documents — not services); this module is the
//! one place that maps a drained [`ServiceReport`] onto those types:
//! [`trace_doc`] builds the combined Perfetto/recording document and
//! [`metrics_registry`] the Prometheus-style text dump. Both are
//! post-hoc: they run after the pool has drained and charge nothing to
//! any virtual clock.

use std::collections::BTreeMap;

use obs::{LogHistogram, Registry, TraceDoc, SUBMIT_TRACK};

use crate::router::CallVerdict;
use crate::service::ServiceReport;
use crate::watchdog::{incident_events, WatchdogSummary};

/// Builds the recording document for a drained run, or `None` when the
/// run was not recorded ([`crate::RuntimeConfig::obs`] was off).
///
/// The machine-level `world_call`/`world_return` trace counts ride
/// along as cross-check counts: `obs::verify` holds the obs event
/// stream to them, which is what makes a recording trustworthy rather
/// than merely plausible.
pub fn trace_doc(benchmark: &str, report: &ServiceReport, frequency_ghz: f64) -> Option<TraceDoc> {
    let recorded = report.obs.as_ref()?;
    Some(TraceDoc {
        benchmark: benchmark.to_string(),
        frequency_ghz,
        workers: recorded.worker_rings.len(),
        makespan_cycles: report.smp.makespan_cycles(),
        total_cycles: report.smp.total_cycles(),
        counts: vec![
            ("world_call".to_string(), report.switchless.world_calls),
            ("world_return".to_string(), report.switchless.world_returns),
        ],
        events: recorded.merged_events(),
        dropped: recorded.dropped(),
    })
}

/// Annotates a recorded trace with the watchdog's incidents: one
/// synthesized [`obs::EventKind::SloIncident`] event per incident on
/// the dedicated watchdog track (stamped at the breached window's
/// start), then restores the stream's `(ts, submit-first)` merge order
/// so conservation checks and the Perfetto renderer see a well-ordered
/// document. Purely post-hoc — the recording itself never contains
/// watchdog events.
pub fn annotate_trace(doc: &mut TraceDoc, summary: &WatchdogSummary) {
    if summary.incidents.is_empty() {
        return;
    }
    doc.events.extend(incident_events(summary));
    doc.events
        .sort_by_key(|e| (e.ts, if e.worker == SUBMIT_TRACK { 0 } else { 1 }));
}

/// Flattens a drained run into a metrics registry (counters plus the
/// log-bucketed latency and queue-wait histograms), ready for
/// [`Registry::render_prometheus`]. Works with or without recording —
/// the histograms are always built at drain.
pub fn metrics_registry(report: &ServiceReport) -> Registry {
    let mut reg = Registry::new();
    reg.counter_set("xover_requests_completed", report.completed);
    reg.counter_set("xover_requests_timed_out", report.timed_out);
    reg.counter_set("xover_requests_failed", report.failed);
    reg.counter_set("xover_requests_dead_lettered", report.dead_lettered);
    reg.counter_set("xover_requests_denied", report.denied);
    reg.counter_set("xover_requests_rejected_busy", report.rejected_busy);
    reg.counter_set("xover_requests_submitted", report.submitted);
    reg.counter_set("xover_requests_admitted", report.admitted);
    reg.counter_set("xover_requests_shed", report.shed);
    reg.counter_set("xover_batches", report.batches);
    reg.counter_set("xover_batches_stolen", report.stolen);
    reg.counter_set("xover_world_calls", report.switchless.world_calls);
    reg.counter_set("xover_world_returns", report.switchless.world_returns);
    reg.counter_set("xover_wt_hits", report.wt.hits);
    reg.counter_set("xover_wt_misses", report.wt.misses);
    reg.counter_set("xover_iwt_hits", report.iwt.hits);
    reg.counter_set("xover_iwt_misses", report.iwt.misses);
    reg.counter_set("xover_tlb_hits", report.tlb.hits);
    reg.counter_set("xover_tlb_misses", report.tlb.misses);
    reg.counter_set("xover_makespan_cycles", report.smp.makespan_cycles());
    reg.counter_set("xover_total_cycles", report.smp.total_cycles());
    reg.counter_set("xover_table_lookups", report.table.lookups);
    reg.counter_set(
        "xover_table_writer_acquisitions",
        report.table.writer_acquisitions,
    );
    reg.counter_set(
        "xover_table_writer_contended",
        report.table.writer_contended,
    );
    reg.counter_set("xover_table_live_worlds", report.table.live);
    reg.counter_set("xover_table_resident_entries", report.table.resident);
    reg.counter_set("xover_table_evictions", report.table.evictions);
    reg.counter_set("xover_table_refaults", report.table.refaults);
    reg.counter_set("xover_table_grace_reclaims", report.table.grace_reclaims);
    reg.counter_set("xover_table_retired_pending", report.table.retired_pending);
    reg.counter_set("xover_table_cold_bytes", report.table.cold_bytes);
    if let Some(recorded) = &report.obs {
        reg.counter_set("xover_obs_events", recorded.total_events() as u64);
        reg.counter_set("xover_obs_dropped", recorded.dropped());
    }
    // Authz-plane gauges, exported whenever the plane was live. The
    // per-family deny counters partition `xover_authz_denied_total`;
    // the generation gauge is the revocation clock dashboards line the
    // `revocation` events up against.
    let az = &report.authz;
    if az.enabled {
        reg.counter_set("xover_authz_enabled", 1);
        reg.counter_set("xover_authz_checks", az.checks);
        reg.counter_set("xover_authz_denied_total", az.total_denied());
        reg.counter_set("xover_authz_denied_grant", az.denied);
        reg.counter_set("xover_authz_denied_revoked", az.revoked_denies);
        reg.counter_set("xover_authz_denied_rate_limited", az.rate_limited);
        reg.counter_set("xover_authz_denied_chain_too_deep", az.chain_too_deep);
        reg.counter_set("xover_authz_revocations", az.revocations);
        reg.counter_set("xover_authz_generation", az.generation);
    }
    // SLO watchdog gauges, exported whenever the plane was live. The
    // per-incident gauges are name-indexed (the registry is plain
    // counters) so dashboards can line each breach up against the
    // `slo_incident` trace annotations.
    if let Some(wd) = &report.watchdog {
        reg.counter_set("xover_slo_watchdog_enabled", 1);
        reg.counter_set("xover_slo_incidents", wd.incidents.len() as u64);
        reg.counter_set("xover_slo_epochs_evaluated", wd.epochs_evaluated);
        reg.counter_set("xover_slo_baseline_ready", wd.baseline_ready as u64);
        reg.counter_set("xover_slo_late_samples", wd.late_samples);
        for (i, inc) in wd.incidents.iter().enumerate() {
            reg.counter_set(&format!("xover_incident{i}_epoch"), inc.epoch);
            reg.counter_set(
                &format!("xover_incident{i}_objective_code"),
                inc.objective.code(),
            );
            reg.counter_set(
                &format!("xover_incident{i}_subject"),
                inc.objective.subject(),
            );
            reg.counter_set(
                &format!("xover_incident{i}_burn_short_x100"),
                inc.burn_short_x100,
            );
            reg.counter_set(
                &format!("xover_incident{i}_burn_long_x100"),
                inc.burn_long_x100,
            );
            reg.counter_set(
                &format!("xover_incident{i}_detected_at_cycles"),
                inc.detected_at,
            );
            if let Some(top) = inc.top_contributor() {
                reg.counter_set(
                    &format!("xover_incident{i}_top_component"),
                    top.index() as u64,
                );
            }
        }
    }
    reg.histogram_set("xover_service_latency_cycles", report.latency_hist.clone());
    reg.histogram_set("xover_queue_wait_cycles", report.queue_wait_hist.clone());
    // Per-callee and per-tenant completed-call latency histograms
    // (name-indexed like the per-incident gauges; each histogram
    // renders its own quantile gauges, so per-callee and per-tenant
    // p50/p99 come for free in the Prometheus dump).
    let mut per_callee: BTreeMap<u64, LogHistogram> = BTreeMap::new();
    for o in &report.outcomes {
        if o.verdict == CallVerdict::Completed {
            per_callee
                .entry(o.request.callee.raw())
                .or_default()
                .record(o.latency_cycles);
        }
    }
    for (callee, hist) in per_callee {
        reg.histogram_set(&format!("xover_callee{callee}_latency_cycles"), hist);
    }
    for t in &report.tenant_latency {
        let id = t.tenant;
        reg.histogram_set(&format!("xover_tenant{id}_latency_cycles"), t.hist.clone());
    }
    reg
}
