//! Hot-path ablation sweep: emit `BENCH_hotpath.json`.
//!
//! Runs the same seeded world-call workload under two service
//! configurations and sweeps the worker count for each:
//!
//! * **baseline** — the unified TLB disabled, so every working-set
//!   touch pays a full two-stage page walk (24 priced PTE accesses),
//!   the way hardware whose world switch flushes translations would.
//! * **tuned** — the EPTP-tagged unified TLB on.
//!
//! Both run on the service's per-worker lock-free rings with the
//! default set-associative WT/IWT geometry, and both service the
//! identical request stream (same seed, no budgeted calls — timeout
//! behaviour is pinned by the runtime's own tests), so the simulated
//! cycles are directly comparable and deterministic.
//! The binary asserts the overhaul's acceptance criteria in-process:
//!
//! 1. at 4 workers, tuned spends ≥ 20% fewer simulated cycles per
//!    completed call than baseline;
//! 2. tuned cycles-per-call stays under an absolute ceiling (a
//!    regression tripwire for the CI perf-smoke job);
//! 3. tuned simulated throughput scales monotonically with workers.
//!
//! Usage: `hotpath [output-path] [--trace-out PATH] [--metrics-out PATH]`
//! (default `BENCH_hotpath.json`). With `--trace-out` the tuned 4-worker
//! point is repeated twice back to back — obs off, then obs on — both
//! host walls and their ratio (the recording overhead) are printed and
//! held under a loose 2× tripwire, and the obs-on run's combined
//! Perfetto/recording document is written to PATH (replay it with
//! `xover-trace`, or load it in <https://ui.perfetto.dev>).
//! `--metrics-out` additionally dumps the obs-on run's Prometheus-style
//! text metrics.

use std::fmt::Write as _;
use std::time::Instant;

use machine::rng::SplitMix64;
use runtime::report::hit_rate;
use runtime::{
    metrics_registry, trace_doc, CallRequest, ObsConfig, RuntimeConfig, ServiceReport,
    WorldCallService,
};

const CALLS_PER_POINT: u64 = 6_000;
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];
const SEED: u64 = 0x0_5CA1_AB1E;
const WORKING_SET_PAGES: u64 = 16;
/// Acceptance: tuned must beat baseline by at least this at 4 workers.
const MIN_IMPROVEMENT_PCT: f64 = 20.0;
/// CI tripwire: simulated cycles per completed call, tuned, any width.
const TUNED_CYCLES_PER_CALL_CEILING: f64 = 6_000.0;

#[derive(Clone, Copy)]
struct Config {
    name: &'static str,
    unified_tlb: bool,
}

const CONFIGS: [Config; 2] = [
    Config {
        name: "baseline",
        unified_tlb: false,
    },
    Config {
        name: "tuned",
        unified_tlb: true,
    },
];

struct Point {
    workers: usize,
    completed: u64,
    failed: u64,
    batches: u64,
    makespan_cycles: u64,
    total_cycles: u64,
    cycles_per_call: f64,
    wt_hit_rate: f64,
    iwt_hit_rate: f64,
    tlb_hit_rate: f64,
    queue_wait_cycles: u64,
    queue_wait_mean_cycles: f64,
    stolen: u64,
}

fn build_service(
    cfg: Config,
    workers: usize,
    obs: ObsConfig,
) -> (WorldCallService, Vec<crossover::world::Wid>) {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers,
        queue_capacity: CALLS_PER_POINT as usize,
        unified_tlb: cfg.unified_tlb,
        obs,
        ..RuntimeConfig::default()
    });
    let mut worlds = Vec::new();
    for t in 0..4u64 {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("hot-{t}")))
            .expect("create vm");
        let user = svc
            .register_guest_user(vm, 0x1000 * (t + 1), 0x40_0000)
            .expect("register user world");
        let kernel = svc
            .register_guest_kernel(vm, 0x10_0000 * (t + 1), 0xFFFF_8000)
            .expect("register kernel world");
        svc.attach_working_set(user, vm, WORKING_SET_PAGES)
            .expect("attach user working set");
        svc.attach_working_set(kernel, vm, WORKING_SET_PAGES)
            .expect("attach kernel working set");
        worlds.push(user);
        worlds.push(kernel);
    }
    (svc, worlds)
}

/// Same skewed draw as the serve bench, minus budgets: every call must
/// complete in every configuration, so cycles-per-completed-call is an
/// apples-to-apples number.
fn draw_request(rng: &mut SplitMix64, worlds: &[crossover::world::Wid]) -> CallRequest {
    let caller = worlds[rng.below(worlds.len() as u64) as usize];
    let callee = loop {
        let w = if rng.flip() {
            worlds[rng.below(2) as usize] // hot pair
        } else {
            worlds[rng.below(worlds.len() as u64) as usize]
        };
        if w != caller {
            break w;
        }
    };
    let work_cycles = 200 + rng.below(2_000);
    let touches = rng.below(2 * WORKING_SET_PAGES);
    CallRequest::new(caller, callee, work_cycles, work_cycles / 3).with_touches(touches)
}

/// Pre-fills the seeded stream, then starts and drains the pool.
/// Returns the report and the host wall time of start → drain.
fn serve(cfg: Config, workers: usize, obs: ObsConfig) -> (ServiceReport, f64) {
    let (mut svc, worlds) = build_service(cfg, workers, obs);
    let mut rng = SplitMix64::new(SEED);
    for _ in 0..CALLS_PER_POINT {
        svc.submit(draw_request(&mut rng, &worlds))
            .expect("rings open while benching");
    }
    let wall = Instant::now();
    svc.start();
    let report = svc.drain();
    (report, wall.elapsed().as_secs_f64() * 1e3)
}

fn run_point(cfg: Config, workers: usize) -> Point {
    let (report, _) = serve(cfg, workers, ObsConfig::off());
    assert_eq!(
        report.completed, CALLS_PER_POINT,
        "unbudgeted calls against live worlds all complete"
    );
    Point {
        workers,
        completed: report.completed,
        failed: report.failed,
        batches: report.batches,
        makespan_cycles: report.smp.makespan_cycles(),
        total_cycles: report.smp.total_cycles(),
        cycles_per_call: report.smp.total_cycles() as f64 / report.completed as f64,
        wt_hit_rate: hit_rate(report.wt.hits, report.wt.misses),
        iwt_hit_rate: hit_rate(report.iwt.hits, report.iwt.misses),
        tlb_hit_rate: hit_rate(report.tlb.hits, report.tlb.misses),
        queue_wait_cycles: report.queue_wait_cycles,
        queue_wait_mean_cycles: report.mean_queue_wait_cycles(),
        stolen: report.stolen,
    }
}

fn write_point(out: &mut String, p: &Point) {
    let _ = write!(
        out,
        "      {{\n\
         \x20       \"workers\": {},\n\
         \x20       \"completed\": {},\n\
         \x20       \"failed\": {},\n\
         \x20       \"batches\": {},\n\
         \x20       \"makespan_cycles\": {},\n\
         \x20       \"total_cycles\": {},\n\
         \x20       \"cycles_per_call\": {:.1},\n\
         \x20       \"wt_hit_rate\": {:.4},\n\
         \x20       \"iwt_hit_rate\": {:.4},\n\
         \x20       \"tlb_hit_rate\": {:.4},\n\
         \x20       \"queue_wait_cycles\": {},\n\
         \x20       \"queue_wait_mean_cycles\": {:.1},\n\
         \x20       \"stolen\": {}\n\
         \x20     }}",
        p.workers,
        p.completed,
        p.failed,
        p.batches,
        p.makespan_cycles,
        p.total_cycles,
        p.cycles_per_call,
        p.wt_hit_rate,
        p.iwt_hit_rate,
        p.tlb_hit_rate,
        p.queue_wait_cycles,
        p.queue_wait_mean_cycles,
        p.stolen,
    );
}

/// Re-runs the tuned 4-worker point twice back to back, obs off then
/// obs on, so the recording overhead is measured on the spot (virtual
/// time is unaffected by recording — events charge zero cycles — so
/// only host wall can differ), and writes the obs-on run's combined
/// Perfetto/recording document plus, optionally, its text metrics.
fn trace_run(trace_path: &str, metrics_path: Option<&str>) {
    let (_, off_ms) = serve(CONFIGS[1], 4, ObsConfig::off());
    let (report, on_ms) = serve(CONFIGS[1], 4, ObsConfig::ring());
    let ratio = if off_ms > 0.0 { on_ms / off_ms } else { 1.0 };
    eprintln!(
        "trace point: obs off {off_ms:.1} ms, obs on {on_ms:.1} ms host wall \
         ({:+.1}% overhead)",
        (ratio - 1.0) * 100.0
    );
    // Loose tripwire only: host wall is noisy (CI, laptops); the
    // measured overhead on a quiet machine is documented in DESIGN.md.
    assert!(
        ratio < 2.0,
        "obs-on host wall more than doubled ({ratio:.2}x) — recording cost regressed"
    );
    let doc = trace_doc("hotpath tuned", &report, 3.4).expect("obs was enabled for the traced run");
    std::fs::write(trace_path, doc.render_json()).expect("write trace json");
    eprintln!("wrote {trace_path} ({} events)", doc.events.len());
    if let Some(metrics_path) = metrics_path {
        let reg = metrics_registry(&report);
        std::fs::write(metrics_path, reg.render_prometheus()).expect("write metrics dump");
        eprintln!("wrote {metrics_path}");
    }
}

fn main() {
    let mut out_path = "BENCH_hotpath.json".to_string();
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out needs a path")),
            "--metrics-out" => {
                metrics_out = Some(it.next().expect("--metrics-out needs a path"));
            }
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            positional => out_path = positional.to_string(),
        }
    }

    let mut sweeps: Vec<(Config, Vec<Point>)> = Vec::new();
    for cfg in CONFIGS {
        let mut points = Vec::new();
        for workers in WORKER_SWEEP {
            let p = run_point(cfg, workers);
            eprintln!(
                "{:>8} workers={:2}  {:>7.0} cyc/call  wt/iwt/tlb {:.2}/{:.2}/{:.2}  \
                 wait {:>7.0} cyc/call mean  stolen {}",
                cfg.name,
                p.workers,
                p.cycles_per_call,
                p.wt_hit_rate,
                p.iwt_hit_rate,
                p.tlb_hit_rate,
                p.queue_wait_mean_cycles,
                p.stolen,
            );
            points.push(p);
        }
        sweeps.push((cfg, points));
    }

    let cpc_at = |name: &str, workers: usize| -> f64 {
        sweeps
            .iter()
            .find(|(c, _)| c.name == name)
            .and_then(|(_, ps)| ps.iter().find(|p| p.workers == workers))
            .map(|p| p.cycles_per_call)
            .expect("sweep point present")
    };
    let baseline_cpc = cpc_at("baseline", 4);
    let tuned_cpc = cpc_at("tuned", 4);
    let improvement_pct = (baseline_cpc - tuned_cpc) / baseline_cpc * 100.0;
    eprintln!(
        "4-worker cycles/call: baseline {baseline_cpc:.0}, tuned {tuned_cpc:.0} \
         ({improvement_pct:.1}% fewer)"
    );

    // Acceptance 1: the overhaul pays for itself.
    assert!(
        improvement_pct >= MIN_IMPROVEMENT_PCT,
        "tuned must spend >= {MIN_IMPROVEMENT_PCT}% fewer cycles/call than baseline \
         at 4 workers (got {improvement_pct:.1}%)"
    );
    // Acceptance 2: absolute ceiling (CI perf-smoke tripwire).
    let tuned = &sweeps.iter().find(|(c, _)| c.name == "tuned").unwrap().1;
    for p in tuned.iter() {
        assert!(
            p.cycles_per_call <= TUNED_CYCLES_PER_CALL_CEILING,
            "tuned cycles/call {} at {} workers exceeds ceiling {}",
            p.cycles_per_call,
            p.workers,
            TUNED_CYCLES_PER_CALL_CEILING
        );
    }
    // Acceptance 3: tuned throughput (completed / makespan) scales
    // monotonically with workers — simulated cycles, so deterministic.
    for w in tuned.windows(2) {
        let thr = |p: &Point| p.completed as f64 / p.makespan_cycles as f64;
        assert!(
            thr(&w[1]) > thr(&w[0]),
            "tuned throughput must scale monotonically ({} -> {} workers)",
            w[0].workers,
            w[1].workers
        );
    }

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"benchmark\": \"xover hot-path ablation sweep\",\n  \
         \"calls_per_point\": {CALLS_PER_POINT},\n  \
         \"working_set_pages\": {WORKING_SET_PAGES},\n  \
         \"improvement_pct_4_workers\": {improvement_pct:.1},\n  \
         \"configs\": [\n"
    );
    for (i, (cfg, points)) in sweeps.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n      \"name\": \"{}\",\n      \
             \"unified_tlb\": {},\n      \"points\": [\n",
            cfg.name, cfg.unified_tlb
        );
        for (j, p) in points.iter().enumerate() {
            write_point(&mut out, p);
            out.push_str(if j + 1 < points.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n    }");
        out.push_str(if i + 1 < sweeps.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&out_path, out).expect("write benchmark json");
    eprintln!("wrote {out_path}");
    if let Some(trace_path) = trace_out {
        trace_run(&trace_path, metrics_out.as_deref());
    }
}
