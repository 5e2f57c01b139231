//! Fault-plane robustness harness: emit `BENCH_faults.json`.
//!
//! Exercises the deterministic fault-injection plane (`machine::fault`)
//! against the self-healing runtime and reports the numbers the PR's
//! headline claims are made on:
//!
//! * **Parity** — with an installed-but-*empty* [`FaultPlan`] the
//!   runtime is bit-for-bit identical to a run with no plan at all:
//!   same verdict stream, same total cycles. Asserted exactly.
//! * **Chaos matrix** — seeded fault schedules (8 seeds × light/heavy
//!   intensity, varied worker counts) injecting stalls,
//!   crashes, slot corruption, EPT denials, dropped invalidations and
//!   lookup races. Every submitted call must resolve to exactly one
//!   verdict: zero lost, zero duplicated, asserted per run.
//! * **Recovery latency** — virtual cycles from each fault observation
//!   to the next completed call, pooled across the matrix.
//! * **Degraded-mode overhead** — the steady-state cost of the
//!   automatic switchless → classic degradation (classic-only vs
//!   channels engaged, same stream), plus a corruption-storm run
//!   showing the escalation actually trips.
//!
//! Usage: `faults [output-path] [--trace-out PATH]` (default
//! `BENCH_faults.json`). With `--trace-out` one chaos run is repeated
//! with the obs plane recording and its combined Perfetto/recording
//! JSON written to the given path — faults, retries, quarantines and
//! respawns show up as instant markers on the worker tracks.

use std::fmt::Write as _;

use machine::fault::{FaultKind, FaultPlan, FaultSite};
use machine::rng::SplitMix64;
use runtime::{
    trace_doc, CallRequest, ObsConfig, RuntimeConfig, ServiceReport, SwitchlessConfig,
    WorldCallService,
};

const FREQUENCY_GHZ: f64 = 3.4;

const PARITY_CALLS: u64 = 2_000;
const CHAOS_CALLS: u64 = 1_500;
const DEGRADED_CALLS: u64 = 2_000;
const CHAOS_SEEDS: [u64; 8] = [
    0x0001,
    0xBEEF,
    0x5EED_CAFE,
    0xDEAD_10CC,
    0x0F00_BA44,
    0x7777_7777,
    0x0C0F_FEE0,
    0x41,
];
const STREAM_SEED: u64 = 0xFA_117;
const HORIZON_CYCLES: u64 = 10_000_000;
const WORKING_SET_PAGES: u64 = 8;

/// Two tenants × (user + kernel), working sets and channels everywhere.
fn build_service(config: RuntimeConfig) -> (WorldCallService, Vec<crossover::world::Wid>) {
    let mut svc = WorldCallService::new(config);
    let mut worlds = Vec::new();
    for t in 0..2u64 {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("fault-{t}")))
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
        worlds.push(user);
        worlds.push(kernel);
    }
    (svc, worlds)
}

/// Skewed draws with touches, tagged with the submission index;
/// `abusive` arms a 5% fraction with guaranteed-expiring budgets.
fn draw_request(
    rng: &mut SplitMix64,
    worlds: &[crossover::world::Wid],
    tag: u64,
    abusive: bool,
) -> CallRequest {
    let (caller, callee) = loop {
        let (a, b) = if rng.flip() {
            (worlds[0], worlds[1]) // hot pair keeps the channels busy
        } else {
            (
                worlds[rng.below(worlds.len() as u64) as usize],
                worlds[rng.below(worlds.len() as u64) as usize],
            )
        };
        if a != b {
            break (a, b);
        }
    };
    let work_cycles = 2_000 + rng.below(2_000);
    let mut req = CallRequest::new(caller, callee, work_cycles, work_cycles / 3)
        .with_touches(rng.below(2 * WORKING_SET_PAGES))
        .with_tag(tag);
    if abusive && rng.chance(0.05) {
        req = req.with_budget(work_cycles / 4);
    }
    req
}

fn run(
    plan: Option<FaultPlan>,
    workers: usize,
    switchless: SwitchlessConfig,
    calls: u64,
    abusive: bool,
    obs: ObsConfig,
) -> ServiceReport {
    let (mut svc, worlds) = build_service(RuntimeConfig {
        workers,
        queue_capacity: calls as usize + 16,
        batch_max: 32,
        switchless,
        obs,
        ..RuntimeConfig::default()
    });
    if let Some(plan) = plan {
        svc.set_fault_plan(plan);
    }
    let mut rng = SplitMix64::new(STREAM_SEED);
    for tag in 0..calls {
        svc.submit(draw_request(&mut rng, &worlds, tag, abusive))
            .expect("queue open while benching");
    }
    svc.start();
    svc.drain()
}

/// The exactly-one-verdict check: every tag in `[0, calls)` appears
/// exactly once in the outcome stream. Returns (lost, duplicated).
fn conservation(report: &ServiceReport, calls: u64) -> (u64, u64) {
    let mut seen = vec![0u32; calls as usize];
    for o in &report.outcomes {
        seen[o.request.tag as usize] += 1;
    }
    let lost = seen.iter().filter(|&&c| c == 0).count() as u64;
    let dup = seen.iter().filter(|&&c| c > 1).count() as u64;
    (lost, dup)
}

struct ChaosRow {
    seed: u64,
    intensity: &'static str,
    workers: usize,
    completed: u64,
    timed_out: u64,
    failed: u64,
    dead_lettered: u64,
    injected_stalls: u64,
    respawns: u64,
    corruptions: u64,
    quarantines: u64,
    invalidation_defers: u64,
    lookup_retries: u64,
    backoff_cycles: u64,
    degrade_escalations: u64,
    mean_recovery_cycles: f64,
    makespan_cycles: u64,
}

fn chaos_matrix() -> (Vec<ChaosRow>, Vec<u64>) {
    let mut rows = Vec::new();
    let mut recovery = Vec::new();
    for (i, seed) in CHAOS_SEEDS.into_iter().enumerate() {
        for (intensity, events_per_site) in [("light", 2u32), ("heavy", 6u32)] {
            let workers = [1, 2, 4, 8][i % 4];
            let salt = if intensity == "heavy" {
                seed.rotate_left(17) ^ 0x00DD_F00D
            } else {
                seed
            };
            let plan = FaultPlan::from_seed(salt, HORIZON_CYCLES, events_per_site);
            let report = run(
                Some(plan),
                workers,
                SwitchlessConfig::on(),
                CHAOS_CALLS,
                true,
                ObsConfig::off(),
            );
            let (lost, dup) = conservation(&report, CHAOS_CALLS);
            assert_eq!(lost, 0, "seed {seed:#x}/{intensity}: lost verdicts");
            assert_eq!(dup, 0, "seed {seed:#x}/{intensity}: duplicated verdicts");
            assert_eq!(
                report.completed + report.timed_out + report.failed + report.dead_lettered,
                CHAOS_CALLS,
                "seed {seed:#x}/{intensity}: verdict counters must partition the stream"
            );
            assert_eq!(report.supervisor.worker_panics, 0);
            let t = &report.supervisor.totals;
            recovery.extend_from_slice(&t.recovery_samples);
            eprintln!(
                "chaos seed {seed:#010x} {intensity:>5}  w={workers}  \
                 ok/to/fail/dead {:>4}/{:>2}/{:>2}/{:>2}  stalls {} respawns {} corrupt {} \
                 defers {} retries {}",
                report.completed,
                report.timed_out,
                report.failed,
                report.dead_lettered,
                t.injected_stalls,
                t.respawns,
                t.corruptions_detected,
                t.invalidation_defers,
                t.lookup_retries,
            );
            rows.push(ChaosRow {
                seed,
                intensity,
                workers,
                completed: report.completed,
                timed_out: report.timed_out,
                failed: report.failed,
                dead_lettered: report.dead_lettered,
                injected_stalls: t.injected_stalls,
                respawns: t.respawns,
                corruptions: t.corruptions_detected,
                quarantines: t.quarantines,
                invalidation_defers: t.invalidation_defers,
                lookup_retries: t.lookup_retries,
                backoff_cycles: t.backoff_cycles,
                degrade_escalations: report.supervisor.degrade_escalations,
                mean_recovery_cycles: t.mean_recovery_cycles(),
                makespan_cycles: report.smp.makespan_cycles(),
            });
        }
    }
    (rows, recovery)
}

/// Re-runs one chaos configuration with the obs plane recording and
/// writes the combined Perfetto/recording document.
fn trace_run(trace_path: &str) {
    let plan = FaultPlan::from_seed(CHAOS_SEEDS[0], HORIZON_CYCLES, 4);
    let report = run(
        Some(plan),
        2,
        SwitchlessConfig::on(),
        CHAOS_CALLS,
        true,
        ObsConfig::ring(),
    );
    let doc = trace_doc("faults chaos", &report, FREQUENCY_GHZ)
        .expect("obs was enabled for the traced run");
    std::fs::write(trace_path, doc.render_json()).expect("write trace json");
    eprintln!("wrote {trace_path} ({} events)", doc.events.len());
}

fn main() {
    let mut out_path = "BENCH_faults.json".to_string();
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out needs a path")),
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            positional => out_path = positional.to_string(),
        }
    }

    // ---- Parity: an empty plan is free, cycle for cycle. -------------
    let bare = run(
        None,
        1,
        SwitchlessConfig::on(),
        PARITY_CALLS,
        true,
        ObsConfig::off(),
    );
    let armed = run(
        Some(FaultPlan::new()),
        1,
        SwitchlessConfig::on(),
        PARITY_CALLS,
        true,
        ObsConfig::off(),
    );
    assert_eq!(bare.outcomes.len(), armed.outcomes.len());
    for (a, b) in bare.outcomes.iter().zip(armed.outcomes.iter()) {
        assert_eq!(a.request, b.request, "empty-plan parity: request order");
        assert_eq!(a.verdict, b.verdict, "empty-plan parity: verdicts");
        assert_eq!(
            a.latency_cycles, b.latency_cycles,
            "empty-plan parity: latency"
        );
    }
    assert_eq!(
        bare.smp.total_cycles(),
        armed.smp.total_cycles(),
        "an installed-but-empty fault plan must cost zero cycles"
    );
    assert_eq!(armed.supervisor.totals.faults_observed(), 0);
    eprintln!(
        "parity: {} calls, {} cycles, empty plan exact",
        PARITY_CALLS,
        bare.smp.total_cycles()
    );

    // ---- Chaos matrix: zero lost / duplicated verdicts. --------------
    let (chaos, recovery) = chaos_matrix();
    let faults_observed: u64 = chaos
        .iter()
        .map(|r| {
            r.injected_stalls
                + r.respawns
                + r.corruptions
                + r.invalidation_defers
                + r.lookup_retries
        })
        .sum();
    assert!(
        faults_observed > 0,
        "the seed matrix must actually inject faults"
    );
    assert!(
        !recovery.is_empty(),
        "fault episodes must yield recovery-latency samples"
    );
    let mean_recovery = recovery.iter().sum::<u64>() as f64 / recovery.len() as f64;
    eprintln!(
        "chaos: {} runs, {} recovery samples, mean recovery {:.0} cycles",
        chaos.len(),
        recovery.len(),
        mean_recovery
    );

    // ---- Degraded mode: the cost of falling back to classic-only. ----
    // Steady state: the same stream with channels engaged vs the
    // classic-only ladder rung (switchless off models a pool pinned at
    // `DegradeLevel::ClassicOnly`). Both runs are clean and
    // deterministic, so the delta *is* the degradation overhead.
    let engaged = run(
        None,
        1,
        SwitchlessConfig::on(),
        DEGRADED_CALLS,
        false,
        ObsConfig::off(),
    );
    let classic_only = run(
        None,
        1,
        SwitchlessConfig::default(), // mode Off == classic-only rung
        DEGRADED_CALLS,
        false,
        ObsConfig::off(),
    );
    assert_eq!(engaged.completed, DEGRADED_CALLS);
    assert_eq!(classic_only.completed, DEGRADED_CALLS);
    let cpc_engaged = engaged.smp.total_cycles() as f64 / engaged.completed as f64;
    let cpc_classic = classic_only.smp.total_cycles() as f64 / classic_only.completed as f64;
    let degraded_overhead_pct = (cpc_classic - cpc_engaged) / cpc_engaged * 100.0;
    assert!(
        degraded_overhead_pct > 0.0,
        "classic-only must cost more than the switchless fast path \
         (else the degradation ladder is pointless)"
    );
    // A corruption storm must actually trip the escalation to that rung.
    let storm = FaultPlan::new();
    for _ in 0..32 {
        storm.schedule(0, FaultSite::ChannelCorruption, FaultKind::Corrupt);
    }
    let stormed = run(
        Some(storm),
        1,
        SwitchlessConfig::on(),
        DEGRADED_CALLS,
        false,
        ObsConfig::off(),
    );
    let (lost, dup) = conservation(&stormed, DEGRADED_CALLS);
    assert_eq!((lost, dup), (0, 0), "corruption storm: conservation");
    assert!(
        stormed.supervisor.degrade_escalations > 0,
        "a corruption storm must escalate the degradation ladder"
    );
    let storm_corruptions = stormed.supervisor.totals.corruptions_detected;
    eprintln!(
        "degraded: engaged {cpc_engaged:.0} cyc/call, classic-only {cpc_classic:.0} \
         ({degraded_overhead_pct:.1}% overhead); storm detected {storm_corruptions} \
         corruptions, {} escalations",
        stormed.supervisor.degrade_escalations
    );

    // ---- Emit the JSON document. -------------------------------------
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"benchmark\": \"xover fault plane and self-healing runtime\",\n\
         \x20 \"parity\": {{\n\
         \x20   \"calls\": {PARITY_CALLS},\n\
         \x20   \"total_cycles\": {},\n\
         \x20   \"empty_plan_exact\": true\n\
         \x20 }},\n",
        bare.smp.total_cycles()
    );
    let _ = write!(
        out,
        "  \"chaos_summary\": {{\n\
         \x20   \"runs\": {},\n\
         \x20   \"calls_per_run\": {CHAOS_CALLS},\n\
         \x20   \"lost_verdicts\": 0,\n\
         \x20   \"duplicated_verdicts\": 0,\n\
         \x20   \"faults_observed\": {faults_observed},\n\
         \x20   \"recovery_samples\": {},\n\
         \x20   \"mean_recovery_cycles\": {mean_recovery:.1}\n\
         \x20 }},\n",
        chaos.len(),
        recovery.len()
    );
    let _ = write!(
        out,
        "  \"degraded_mode\": {{\n\
         \x20   \"engaged_cycles_per_call\": {cpc_engaged:.1},\n\
         \x20   \"classic_only_cycles_per_call\": {cpc_classic:.1},\n\
         \x20   \"overhead_pct\": {degraded_overhead_pct:.1},\n\
         \x20   \"storm_corruptions_detected\": {storm_corruptions},\n\
         \x20   \"storm_escalations\": {}\n\
         \x20 }},\n  \"chaos\": [\n",
        stormed.supervisor.degrade_escalations
    );
    for (i, r) in chaos.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n\
             \x20     \"seed\": {},\n\
             \x20     \"intensity\": \"{}\",\n\
             \x20     \"workers\": {},\n\
             \x20     \"completed\": {},\n\
             \x20     \"timed_out\": {},\n\
             \x20     \"failed\": {},\n\
             \x20     \"dead_lettered\": {},\n\
             \x20     \"injected_stalls\": {},\n\
             \x20     \"respawns\": {},\n\
             \x20     \"corruptions\": {},\n\
             \x20     \"quarantines\": {},\n\
             \x20     \"invalidation_defers\": {},\n\
             \x20     \"lookup_retries\": {},\n\
             \x20     \"backoff_cycles\": {},\n\
             \x20     \"degrade_escalations\": {},\n\
             \x20     \"mean_recovery_cycles\": {:.1},\n\
             \x20     \"makespan_cycles\": {}\n\
             \x20   }}",
            r.seed,
            r.intensity,
            r.workers,
            r.completed,
            r.timed_out,
            r.failed,
            r.dead_lettered,
            r.injected_stalls,
            r.respawns,
            r.corruptions,
            r.quarantines,
            r.invalidation_defers,
            r.lookup_retries,
            r.backoff_cycles,
            r.degrade_escalations,
            r.mean_recovery_cycles,
            r.makespan_cycles,
        );
        out.push_str(if i + 1 < chaos.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&out_path, out).expect("write benchmark json");
    eprintln!("wrote {out_path}");
    if let Some(trace_path) = trace_out {
        trace_run(&trace_path);
    }
}
