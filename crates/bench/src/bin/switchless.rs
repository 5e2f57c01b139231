//! Switchless fast-path ablation: emit `BENCH_switchless.json`.
//!
//! Sweeps the pop size `batch_max` (4 / 16 / 32), which bounds the
//! same-caller run one residency drains, and runs switchless off (the
//! PR-2 tuned hot path: lock-free rings + unified TLB) and on at each
//! point over the same seeded request stream. Switchless has no knob of
//! its own, so the headline compares `on-32` against `off-32`.
//!
//! Two workloads bound the design from both sides:
//!
//! * **skewed** — Zipf(1.3) callers and callees over eight guest worlds,
//!   every world carrying a channel. This is the shape the layer is
//!   built for: deep same-pair runs that amortize one
//!   save/call/return/restore transition pair across a whole batch.
//! * **uniform** — the same worlds and channels but uniform draws, so
//!   same-pair runs are rare and the layer should stay out of the way.
//!
//! The binary asserts the PR's acceptance criteria in-process:
//!
//! 1. on the skewed workload, `on-32` spends ≥ 25% fewer simulated
//!    cycles per completed call than `off-32`;
//! 2. the hottest (caller, callee) pair pays < 1.0 world transitions
//!    per call under `on-32` (the classic path pays exactly 2.0);
//! 3. on the uniform workload, `on-32` does not regress (≤ 5% slower
//!    at worst) — the layer stays out of the way when same-pair runs
//!    are rare.
//!
//! Usage: `switchless [output-path] [--trace-out PATH]` (default
//! `BENCH_switchless.json`). With `--trace-out` the on-32/skewed
//! point is re-run with the obs plane recording and its combined
//! Perfetto/recording JSON written to the given path — the resident
//! drains show up as `drain wA→wB` slices on the worker tracks.

use std::fmt::Write as _;

use machine::rng::{SplitMix64, Zipf};
use runtime::{
    trace_doc, CallRequest, ObsConfig, RuntimeConfig, SwitchlessConfig, WorldCallService,
};

const FREQUENCY_GHZ: f64 = 3.4;

const CALLS_PER_POINT: u64 = 8_000;
const WORKERS: usize = 4;
const SEED: u64 = 0x5EED_C0A1;
/// Zipf exponent for the skewed workload's caller/callee draws.
const ZIPF_S: f64 = 1.3;
const WORKING_SET_PAGES: u64 = 8;
/// The `batch_max` the asserts and the recording run at.
const HEADLINE_BATCH_MAX: usize = 32;
/// The asserted configuration: switchless on at the headline pop.
const HEADLINE: &str = "on-32";
/// What the headline is measured against: switchless off, same pop.
const BASELINE: &str = "off-32";
/// Acceptance 1: on-32 vs off-32, skewed workload.
const MIN_IMPROVEMENT_PCT: f64 = 25.0;
/// Acceptance 3: on-32 vs off-32, uniform workload, either way.
const UNIFORM_BAND_PCT: f64 = 5.0;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Skewed,
    Uniform,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Skewed => "skewed",
            Workload::Uniform => "uniform",
        }
    }
}

/// Sweep points: `(name, batch_max, switchless)`.
fn configs() -> Vec<(&'static str, usize, SwitchlessConfig)> {
    let (off, on) = (SwitchlessConfig::default(), SwitchlessConfig::on());
    vec![
        ("off-4", 4, off),
        ("on-4", 4, on),
        ("off-16", 16, off),
        ("on-16", 16, on),
        (BASELINE, HEADLINE_BATCH_MAX, off),
        (HEADLINE, HEADLINE_BATCH_MAX, on),
    ]
}

/// Eight guest worlds (4 tenants × user/kernel), working sets and
/// switchless channels on all of them.
fn build_service(
    batch_max: usize,
    switchless: SwitchlessConfig,
    obs: ObsConfig,
) -> (WorldCallService, Vec<crossover::world::Wid>) {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers: WORKERS,
        queue_capacity: CALLS_PER_POINT as usize,
        batch_max,
        switchless,
        obs,
        ..RuntimeConfig::default()
    });
    let mut worlds = Vec::new();
    let mut vms = Vec::new();
    for t in 0..4u64 {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("sw-{t}")))
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
        vms.push(vm);
    }
    // Every callee gets a channel; whether it is *used* is the
    // configuration's call (switchless off = classic path), which is
    // the point of the ablation.
    for (i, &w) in worlds.iter().enumerate() {
        svc.attach_channel(w, vms[i / 2]).expect("attach channel");
    }
    (svc, worlds)
}

/// Draws one request. Skewed: Zipf over both endpoints, so deep
/// same-(caller, callee) runs reach the dispatcher. Uniform: flat draws,
/// so they almost never do. Bodies are small — the regime where the
/// 460-cycle transition pair dominates and coalescing has something to
/// amortize.
fn draw_request(
    rng: &mut SplitMix64,
    zipf: &Zipf,
    worlds: &[crossover::world::Wid],
    workload: Workload,
) -> CallRequest {
    let draw = |rng: &mut SplitMix64| -> usize {
        match workload {
            Workload::Skewed => zipf.sample(rng),
            Workload::Uniform => rng.below(worlds.len() as u64) as usize,
        }
    };
    let callee = worlds[draw(rng)];
    let caller = loop {
        let w = worlds[draw(rng)];
        if w != callee {
            break w;
        }
    };
    let work_cycles = 60 + rng.below(240);
    let touches = rng.below(4);
    CallRequest::new(caller, callee, work_cycles, work_cycles / 3).with_touches(touches)
}

struct Point {
    name: &'static str,
    batch_max: usize,
    completed: u64,
    cycles_per_call: f64,
    makespan_cycles: u64,
    total_cycles: u64,
    coalesced_calls: u64,
    classic_calls: u64,
    transition_pairs: u64,
    /// World transitions (calls + returns) per completed call, whole
    /// run. Classic pays exactly 2.0; coalescing pushes it below.
    transitions_per_call: f64,
    /// Transitions per call on the hottest (caller, callee) channel
    /// pair — the headline amortization number.
    hot_pair_transitions_per_call: f64,
    slot_cycles: u64,
    spin_cycles: u64,
    dry_exits: u64,
    saturated_exits: u64,
}

fn run_point(
    name: &'static str,
    batch_max: usize,
    switchless: SwitchlessConfig,
    workload: Workload,
) -> Point {
    let (mut svc, worlds) = build_service(batch_max, switchless, ObsConfig::off());
    let zipf = Zipf::new(worlds.len(), ZIPF_S);
    let mut rng = SplitMix64::new(SEED);
    for _ in 0..CALLS_PER_POINT {
        svc.submit(draw_request(&mut rng, &zipf, &worlds, workload))
            .expect("dispatcher open while benching");
    }
    svc.start();
    let report = svc.drain();
    assert_eq!(
        report.completed, CALLS_PER_POINT,
        "unbudgeted calls against live worlds all complete ({name})"
    );
    let sw = &report.switchless;
    let hot = sw.hottest_pair();
    Point {
        name,
        batch_max,
        completed: report.completed,
        cycles_per_call: report.smp.total_cycles() as f64 / report.completed as f64,
        makespan_cycles: report.smp.makespan_cycles(),
        total_cycles: report.smp.total_cycles(),
        coalesced_calls: sw.drain.coalesced_calls,
        classic_calls: sw.classic_calls,
        transition_pairs: sw.drain.transition_pairs,
        transitions_per_call: (sw.world_calls + sw.world_returns) as f64 / report.completed as f64,
        hot_pair_transitions_per_call: hot.map(|p| p.transitions_per_call()).unwrap_or(2.0),
        slot_cycles: sw.drain.slot_cycles,
        spin_cycles: sw.drain.spin_cycles,
        dry_exits: sw.drain.dry_exits,
        saturated_exits: sw.drain.saturated_exits,
    }
}

fn write_point(out: &mut String, p: &Point) {
    let _ = write!(
        out,
        "      {{\n\
         \x20       \"name\": \"{}\",\n\
         \x20       \"batch_max\": {},\n\
         \x20       \"completed\": {},\n\
         \x20       \"cycles_per_call\": {:.1},\n\
         \x20       \"makespan_cycles\": {},\n\
         \x20       \"total_cycles\": {},\n\
         \x20       \"coalesced_calls\": {},\n\
         \x20       \"classic_calls\": {},\n\
         \x20       \"transition_pairs\": {},\n\
         \x20       \"transitions_per_call\": {:.3},\n\
         \x20       \"hot_pair_transitions_per_call\": {:.3},\n\
         \x20       \"slot_cycles\": {},\n\
         \x20       \"spin_cycles\": {},\n\
         \x20       \"dry_exits\": {},\n\
         \x20       \"saturated_exits\": {}\n\
         \x20     }}",
        p.name,
        p.batch_max,
        p.completed,
        p.cycles_per_call,
        p.makespan_cycles,
        p.total_cycles,
        p.coalesced_calls,
        p.classic_calls,
        p.transition_pairs,
        p.transitions_per_call,
        p.hot_pair_transitions_per_call,
        p.slot_cycles,
        p.spin_cycles,
        p.dry_exits,
        p.saturated_exits,
    );
}

/// Records the on-32/skewed point with the obs plane on and writes
/// the combined Perfetto/recording document.
fn trace_run(trace_path: &str) {
    let (mut svc, worlds) = build_service(
        HEADLINE_BATCH_MAX,
        SwitchlessConfig::on(),
        ObsConfig::ring(),
    );
    let zipf = Zipf::new(worlds.len(), ZIPF_S);
    let mut rng = SplitMix64::new(SEED);
    for _ in 0..CALLS_PER_POINT {
        svc.submit(draw_request(&mut rng, &zipf, &worlds, Workload::Skewed))
            .expect("dispatcher open while tracing");
    }
    svc.start();
    let report = svc.drain();
    let doc = trace_doc("switchless on-32 skewed", &report, FREQUENCY_GHZ)
        .expect("obs was enabled for the traced run");
    std::fs::write(trace_path, doc.render_json()).expect("write trace json");
    eprintln!("wrote {trace_path} ({} events)", doc.events.len());
}

fn main() {
    let mut out_path = "BENCH_switchless.json".to_string();
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out needs a path")),
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            positional => out_path = positional.to_string(),
        }
    }

    let mut sweeps: Vec<(Workload, Vec<Point>)> = Vec::new();
    for workload in [Workload::Skewed, Workload::Uniform] {
        let mut points = Vec::new();
        for (name, batch_max, cfg) in configs() {
            let p = run_point(name, batch_max, cfg, workload);
            eprintln!(
                "{:>8} {:>10}  {:>6.0} cyc/call  {:.3} trans/call  hot {:.3}  \
                 coalesced {:>5}  dry/sat {:>4}/{:<4}",
                workload.name(),
                p.name,
                p.cycles_per_call,
                p.transitions_per_call,
                p.hot_pair_transitions_per_call,
                p.coalesced_calls,
                p.dry_exits,
                p.saturated_exits,
            );
            points.push(p);
        }
        sweeps.push((workload, points));
    }

    let cpc = |workload: Workload, name: &str| -> f64 {
        sweeps
            .iter()
            .find(|(w, _)| *w == workload)
            .and_then(|(_, ps)| ps.iter().find(|p| p.name == name))
            .map(|p| p.cycles_per_call)
            .expect("sweep point present")
    };

    // Acceptance 1: coalescing pays on the workload it is built for.
    let base_skewed = cpc(Workload::Skewed, BASELINE);
    let headline_skewed = cpc(Workload::Skewed, HEADLINE);
    let improvement_pct = (base_skewed - headline_skewed) / base_skewed * 100.0;
    eprintln!(
        "skewed cycles/call: {BASELINE} {base_skewed:.0}, {HEADLINE} {headline_skewed:.0} \
         ({improvement_pct:.1}% fewer)"
    );
    assert!(
        improvement_pct >= MIN_IMPROVEMENT_PCT,
        "{HEADLINE} must spend >= {MIN_IMPROVEMENT_PCT}% fewer cycles/call than \
         {BASELINE} on the skewed workload (got {improvement_pct:.1}%)"
    );

    // Acceptance 2: the hot pair amortizes below one transition per call
    // (classic is exactly two).
    let p = sweeps[0].1.iter().find(|p| p.name == HEADLINE).unwrap();
    assert!(
        p.hot_pair_transitions_per_call < 1.0,
        "{HEADLINE}: hot pair must pay < 1.0 transitions/call (got {:.3})",
        p.hot_pair_transitions_per_call
    );

    // Acceptance 3: nothing to coalesce, nothing lost.
    let base_uniform = cpc(Workload::Uniform, BASELINE);
    let headline_uniform = cpc(Workload::Uniform, HEADLINE);
    let uniform_delta_pct = (headline_uniform - base_uniform) / base_uniform * 100.0;
    eprintln!(
        "uniform cycles/call: {BASELINE} {base_uniform:.0}, {HEADLINE} {headline_uniform:.0} \
         ({uniform_delta_pct:+.1}%)"
    );
    assert!(
        uniform_delta_pct <= UNIFORM_BAND_PCT,
        "{HEADLINE} must not regress more than {UNIFORM_BAND_PCT}% vs {BASELINE} \
         on the uniform workload (got {uniform_delta_pct:+.1}%)"
    );

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"benchmark\": \"xover switchless fast-path ablation\",\n  \
         \"calls_per_point\": {CALLS_PER_POINT},\n  \
         \"workers\": {WORKERS},\n  \
         \"zipf_exponent\": {ZIPF_S},\n  \
         \"improvement_pct_skewed\": {improvement_pct:.1},\n  \
         \"uniform_delta_pct\": {uniform_delta_pct:.1},\n  \
         \"workloads\": [\n"
    );
    for (i, (workload, points)) in sweeps.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n      \"name\": \"{}\",\n      \"points\": [\n",
            workload.name()
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
        trace_run(&trace_path);
    }
}
