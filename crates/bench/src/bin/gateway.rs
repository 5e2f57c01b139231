//! Async-gateway serving harness: emit `BENCH_gateway.json`.
//!
//! Drives the `xover-gateway` reactor with open-loop traffic
//! (`workloads::openloop`) and reports the numbers the PR's headline
//! claims are made on:
//!
//! * **Pipelined vs blocking** — the same Poisson arrival trace served
//!   two ways at equal worker count: through the gateway's submission
//!   rings (thousands of calls in flight, switchless channels engaged)
//!   and through a modeled blocking-submit baseline where each tenant
//!   keeps exactly one call outstanding and pays a wake/notify round
//!   trip per call. Open-loop throughput must be ≥ 2× blocking at 4
//!   workers; asserted in-process.
//! * **Overload sweep** — offered load swept past saturation at fixed
//!   ring/quota knobs. The p99 end-to-end latency of *admitted* calls
//!   must stay bounded (ring capacity and quota cap what an admitted
//!   call can wait behind) while shed counts grow monotonically with
//!   offered load — overload surfaces as explicit, attributed sheds,
//!   never as silent tail growth.
//! * **Conservation** — every enqueued submission is admitted or shed;
//!   every admitted call yields exactly one verdict and one delivered
//!   completion (`admitted == completed + dead_lettered` in this
//!   fault-free config). Asserted in-process, and reported as
//!   `lost_verdicts`/`duplicated_verdicts` for the CI gate.
//!
//! Usage: `gateway [output-path] [--trace-out PATH]` (default
//! `BENCH_gateway.json`). With `--trace-out` the 2× overload point is
//! re-run with the obs plane recording and the combined trace (worker
//! tracks + gateway admit/shed/batch track) written to the given path.

use std::fmt::Write as _;

use gateway::{
    gateway_trace_doc, Gateway, GatewayConfig, GatewayReport, TenantClass, TenantConfig,
};
use machine::rng::SplitMix64;
use runtime::{CallRequest, ObsConfig, RuntimeConfig, SwitchlessConfig, WorldCallService};
use workloads::openloop::{generate, Arrival, ArrivalProcess, OpenLoopConfig};

const FREQUENCY_GHZ: f64 = 3.4;
const WORKERS: usize = 4;
const TENANTS: u32 = 4;
const WORKING_SET_PAGES: u64 = 8;
const HORIZON_CYCLES: u64 = 3_000_000;
const SEED: u64 = 0x6A7E_BEEF;

/// Cycles a blocking submitter pays per call on top of service latency:
/// the submit-side block/wake round trip (two scheduler handoffs, an
/// IPI-ish kick and the cache damage of bouncing between client and
/// worker). The pipelined path pays this once per *ring doorbell*, i.e.
/// effectively never per call — that asymmetry, plus the coalescing the
/// deep pipeline enables, is exactly what the gateway exists to buy.
const BLOCKING_NOTIFY_CYCLES: u64 = 1_200;

/// Tenants × (user + kernel), working sets and channels everywhere.
fn build_service(
    config: RuntimeConfig,
) -> (
    WorldCallService,
    Vec<(crossover::world::Wid, crossover::world::Wid)>,
) {
    let mut svc = WorldCallService::new(config);
    let mut worlds = Vec::new();
    for t in 0..u64::from(TENANTS) {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("gw-{t}")))
            .expect("create vm");
        let user = svc
            .register_guest_user(vm, 0x1000 * (t + 1), 0x40_0000)
            .expect("register user world");
        let kernel = svc
            .register_guest_kernel(vm, 0x10_0000 * (t + 1), 0xFFFF_8000)
            .expect("register kernel world");
        for &w in &[user, kernel] {
            svc.attach_working_set(w, vm, WORKING_SET_PAGES)
                .expect("attach working set");
            svc.attach_channel(w, vm).expect("attach channel");
        }
        worlds.push((user, kernel));
    }
    (svc, worlds)
}

/// Maps an open-loop arrival onto a call: the tenant's user world calls
/// a kernel world picked by the arrival's Zipf rank (its own kernel for
/// rank 0 half the callee space, cross-tenant otherwise), with a small
/// body so per-call overhead — the thing pipelining amortizes — stays
/// the dominant cost.
fn to_request(
    a: &Arrival,
    worlds: &[(crossover::world::Wid, crossover::world::Wid)],
    rng: &mut SplitMix64,
) -> CallRequest {
    let caller = worlds[a.tenant as usize].0;
    let callee = worlds[a.callee_rank % worlds.len()].1;
    CallRequest::new(caller, callee, a.work_cycles, a.work_cycles / 3)
        .with_touches(rng.below(WORKING_SET_PAGES / 2))
        .with_tenant(a.tenant)
}

fn arrivals(mean_gap_cycles: f64, bursty: bool) -> Vec<Arrival> {
    generate(&OpenLoopConfig {
        tenants: TENANTS,
        horizon_cycles: HORIZON_CYCLES,
        callees: TENANTS as usize,
        zipf_s: 1.0,
        work_cycles: (300, 800),
        process: if bursty {
            ArrivalProcess::BurstyOnOff {
                mean_gap_cycles: mean_gap_cycles / 4.0,
                on_cycles: HORIZON_CYCLES / 12,
                off_cycles: HORIZON_CYCLES / 4,
            }
        } else {
            ArrivalProcess::Poisson { mean_gap_cycles }
        },
        seed: SEED,
    })
}

fn service_config(calls: usize, switchless: SwitchlessConfig, obs: ObsConfig) -> RuntimeConfig {
    RuntimeConfig {
        workers: WORKERS,
        queue_capacity: calls + 16,
        batch_max: 32,
        switchless,
        obs,
        ..RuntimeConfig::default()
    }
}

/// Runs a trace through the ring-mode gateway.
fn run_gateway(trace: &[Arrival], tenants: Vec<TenantConfig>, obs: ObsConfig) -> GatewayReport {
    let (svc, worlds) = build_service(service_config(trace.len(), SwitchlessConfig::on(), obs));
    let mut gw = Gateway::new(GatewayConfig::rings(tenants));
    let mut rng = SplitMix64::new(SEED ^ 0xFEED);
    for a in trace {
        gw.enqueue(a.tenant, a.at_cycles, to_request(a, &worlds, &mut rng));
    }
    gw.run(svc)
}

fn deep_tenants() -> Vec<TenantConfig> {
    (0..TENANTS)
        .map(|_| TenantConfig::new(TenantClass::Silver, 512, 4_096))
        .collect()
}

fn sweep_tenants() -> Vec<TenantConfig> {
    vec![
        TenantConfig::new(TenantClass::Gold, 64, 256),
        TenantConfig::new(TenantClass::Silver, 64, 256),
        TenantConfig::new(TenantClass::Silver, 64, 256),
        TenantConfig::new(TenantClass::Bronze, 64, 256),
    ]
}

/// The blocking-submit baseline, derived at equal worker count: the
/// same requests run classic (no channels — a blocking client can never
/// coalesce, it has exactly one call in flight), then each tenant's
/// calls chained serially with a notify round trip apiece. With one
/// outstanding call per tenant and as many workers as tenants, chains
/// never queue — the baseline's makespan is the slowest tenant's chain,
/// which is the best case for blocking submission.
fn blocking_baseline_makespan(trace: &[Arrival]) -> (u64, u64) {
    let (mut svc, worlds) = build_service(service_config(
        trace.len(),
        SwitchlessConfig::default(), // Off: classic per-call path
        ObsConfig::off(),
    ));
    let mut rng = SplitMix64::new(SEED ^ 0xFEED);
    for a in trace {
        svc.submit(to_request(a, &worlds, &mut rng))
            .expect("queue open");
    }
    svc.start();
    let report = svc.drain();
    let mut chain = vec![0u64; TENANTS as usize];
    for o in &report.outcomes {
        chain[o.request.tenant as usize] += o.latency_cycles + BLOCKING_NOTIFY_CYCLES;
    }
    let makespan = chain.iter().copied().max().unwrap_or(0);
    (makespan, report.completed)
}

/// (lost, duplicated) over the gateway's token space: every admitted
/// token must appear exactly once among delivered completions.
fn delivery_conservation(report: &GatewayReport) -> (u64, u64) {
    let mut seen: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    for t in &report.tenants {
        for c in t.completions.iter() {
            *seen.entry(c.token).or_insert(0) += 1;
        }
    }
    let dup = seen.values().filter(|&&c| c > 1).count() as u64;
    let lost = report.admitted.saturating_sub(seen.len() as u64);
    (lost, dup)
}

struct SweepRow {
    label: &'static str,
    offered: u64,
    admitted: u64,
    shed: u64,
    shed_ring_full: u64,
    shed_busy: u64,
    p50_e2e: u64,
    p99_e2e: u64,
    makespan: u64,
}

fn main() {
    let mut out_path = "BENCH_gateway.json".to_string();
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out needs a path")),
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            positional => out_path = positional.to_string(),
        }
    }

    // ---- Part A: pipelined open-loop vs blocking submission. ---------
    // Offered load comfortably under capacity, so nothing sheds and the
    // comparison is throughput of the *same completed work*.
    let trace = arrivals(1_600.0, false);
    let gw = run_gateway(&trace, deep_tenants(), ObsConfig::off());
    gw.check_conservation().expect("gateway conservation");
    assert_eq!(gw.shed, 0, "part A must run below the shed point");
    assert_eq!(gw.admitted, trace.len() as u64);
    let (lost, dup) = delivery_conservation(&gw);
    assert_eq!((lost, dup), (0, 0), "part A delivery conservation");
    assert_eq!(
        gw.admitted,
        gw.service.completed + gw.service.dead_lettered,
        "admitted calls resolve to completed or dead-lettered"
    );
    let (blocking_makespan, blocking_completed) = blocking_baseline_makespan(&trace);
    assert_eq!(blocking_completed, trace.len() as u64);
    let pipelined_makespan = gw.service.smp.makespan_cycles();
    let pipelined_tput = gw.admitted as f64 / pipelined_makespan as f64;
    let blocking_tput = blocking_completed as f64 / blocking_makespan as f64;
    let speedup = pipelined_tput / blocking_tput;
    assert!(
        speedup >= 2.0,
        "pipelined submission must be >= 2x blocking at {WORKERS} workers, got {speedup:.2}x"
    );
    let coalesced = gw.service.outcomes.iter().filter(|o| o.coalesced).count() as u64;
    eprintln!(
        "part A: {} calls, pipelined makespan {} vs blocking {} ({speedup:.2}x), \
         {coalesced} coalesced, p99 e2e {}",
        gw.admitted,
        pipelined_makespan,
        blocking_makespan,
        gw.e2e_percentile(99.0)
    );

    // ---- Part B: overload sweep at fixed ring/quota knobs. -----------
    // Mean per-tenant inter-arrival gaps chosen around the measured
    // service rate: 0.5x offers half the pool's capacity, 4x more than
    // double-saturates it. Same horizon, same knobs — only offered load
    // moves.
    let mut rows: Vec<SweepRow> = Vec::new();
    for (label, gap, bursty) in [
        ("0.5x", 1_400.0, false),
        ("1x", 700.0, false),
        ("2x", 350.0, false),
        ("4x", 175.0, false),
        ("burst", 700.0, true),
    ] {
        let trace = arrivals(gap, bursty);
        let report = run_gateway(&trace, sweep_tenants(), ObsConfig::off());
        report.check_conservation().expect("sweep conservation");
        let (lost, dup) = delivery_conservation(&report);
        assert_eq!((lost, dup), (0, 0), "sweep {label}: delivery conservation");
        assert_eq!(
            report.admitted,
            report.service.completed + report.service.dead_lettered,
            "sweep {label}: verdict conservation"
        );
        eprintln!(
            "part B {label:>5}: offered {:>6} admitted {:>6} shed {:>6} \
             (ring-full {:>6}, busy {:>4})  p99 e2e {:>9}",
            report.submitted,
            report.admitted,
            report.shed,
            report.shed_ring_full,
            report.shed_busy,
            report.e2e_percentile(99.0),
        );
        rows.push(SweepRow {
            label,
            offered: report.submitted,
            admitted: report.admitted,
            shed: report.shed,
            shed_ring_full: report.shed_ring_full,
            shed_busy: report.shed_busy,
            p50_e2e: report.e2e_percentile(50.0),
            p99_e2e: report.e2e_percentile(99.0),
            makespan: report.service.smp.makespan_cycles(),
        });
    }
    // Sheds must grow monotonically with offered load across the
    // Poisson points...
    for pair in rows[..4].windows(2) {
        assert!(
            pair[1].shed >= pair[0].shed,
            "shed counts must be monotone in offered load: {} ({}) then {} ({})",
            pair[0].shed,
            pair[0].label,
            pair[1].shed,
            pair[1].label
        );
    }
    assert!(
        rows[3].shed > 0,
        "4x offered load must overflow the rings somewhere"
    );
    // ...while the admitted-call p99 stays bounded. Ring capacity and
    // quota cap what an admitted call can sit behind (~ring_capacity
    // calls' worth of service, ≈320k cycles at these knobs), so once
    // admission control bites the tail goes *flat*: quadrupling offered
    // load past saturation must not move the admitted p99 by more than
    // a sliver, and nothing may approach horizon scale — the signature
    // of the unbounded queue this design exists to prevent.
    let saturated_p99 = rows[1].p99_e2e.max(1);
    for row in &rows[2..4] {
        assert!(
            row.p99_e2e <= saturated_p99 + saturated_p99 / 2,
            "{}: admitted p99 {} grew past 1.5x the 1x-saturation p99 {} — \
             the tail is tracking offered load, not the ring bound",
            row.label,
            row.p99_e2e,
            saturated_p99
        );
    }
    for row in &rows {
        assert!(
            row.p99_e2e < HORIZON_CYCLES / 4,
            "{}: admitted p99 {} is horizon-scale — the bound is gone",
            row.label,
            row.p99_e2e
        );
    }

    // ---- Emit the JSON document. -------------------------------------
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"benchmark\": \"xover async tenant gateway\",\n\
         \x20 \"workers\": {WORKERS},\n\
         \x20 \"tenants\": {TENANTS},\n\
         \x20 \"pipelined_vs_blocking\": {{\n\
         \x20   \"calls\": {},\n\
         \x20   \"pipelined_makespan_cycles\": {pipelined_makespan},\n\
         \x20   \"blocking_makespan_cycles\": {blocking_makespan},\n\
         \x20   \"pipelined_calls_per_mcycle\": {:.2},\n\
         \x20   \"blocking_calls_per_mcycle\": {:.2},\n\
         \x20   \"pipelined_vs_blocking_x\": {speedup:.2},\n\
         \x20   \"coalesced_calls\": {coalesced},\n\
         \x20   \"blocking_notify_cycles\": {BLOCKING_NOTIFY_CYCLES},\n\
         \x20   \"lost_verdicts\": {lost},\n\
         \x20   \"duplicated_verdicts\": {dup}\n\
         \x20 }},\n  \"overload_sweep\": [\n",
        gw.admitted,
        pipelined_tput * 1e6,
        blocking_tput * 1e6,
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n\
             \x20     \"offered\": \"{}\",\n\
             \x20     \"submitted\": {},\n\
             \x20     \"admitted\": {},\n\
             \x20     \"shed\": {},\n\
             \x20     \"shed_ring_full\": {},\n\
             \x20     \"shed_busy\": {},\n\
             \x20     \"admitted_p50_e2e_cycles\": {},\n\
             \x20     \"admitted_p99_e2e_cycles\": {},\n\
             \x20     \"makespan_cycles\": {}\n\
             \x20   }}",
            r.label,
            r.offered,
            r.admitted,
            r.shed,
            r.shed_ring_full,
            r.shed_busy,
            r.p50_e2e,
            r.p99_e2e,
            r.makespan,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&out_path, out).expect("write benchmark json");
    eprintln!("wrote {out_path}");

    if let Some(trace_path) = trace_out {
        let trace = arrivals(350.0, false);
        let report = run_gateway(&trace, sweep_tenants(), ObsConfig::ring());
        let doc = gateway_trace_doc("gateway overload 2x", &report, FREQUENCY_GHZ);
        std::fs::write(&trace_path, doc.render_json()).expect("write trace json");
        eprintln!("wrote {trace_path} ({} events)", doc.events.len());
    }
}
