//! The paper-core workload: the five Table-4 micro-ops redirected
//! through Proxos, HyperShell, Tahoma and ShadowContext, original and
//! optimized, on the sequential core. It touches none of the runtime.

use std::time::Instant;

use guestos::syscall::{Syscall, SyscallRet};
use machine::account::Delta;
use machine::cost::Frequency;
use machine::rng::SplitMix64;
use machine::trace::TransitionKind;
use systems::env::CrossVmEnv;
use systems::hypershell::HyperShell;
use systems::proxos::Proxos;
use systems::shadowcontext::ShadowContext;
use systems::tahoma::Tahoma;
use systems::SystemError;
use workloads::lmbench::{LmbenchHarness, LmbenchMode, LmbenchOp};
use workloads::micro::{run_redirected, MicroOp, RedirectTarget};

use runtime::report::percentile;

use crate::spans::Recorder;
use crate::{alloc, machine_speed, median, Outcome, RunArgs, FREQUENCY_GHZ};

/// Redirected ops per measured pass: 100 rounds of the 40-cell grid
/// plus a seeded partial round. Fixed, because the systems' CPUs keep
/// an unbounded full-event trace: host cost per op grows with the pass
/// length, so passes of equal length are what compare.
const OPS_PER_PASS: usize = 4_010;

/// Latency limit of one redirected op for `slo_attainment`: 10 µs at
/// 3.4 GHz.
const SLO_LIMIT_CYCLES: u64 = 34_000;

/// Instructions CrossOver adds per redirected call (Table 7, §7.2).
const TABLE7_DELTA: u64 = 33;

const SYSTEMS: [&str; 4] = ["proxos", "hypershell", "tahoma", "shadowcontext"];

/// Paper Table 4 cells (µs) as recorded in EXPERIMENTS.md: per op,
/// (original, optimized) for Proxos, HyperShell, Tahoma, ShadowContext.
fn paper_cells(op: MicroOp) -> [(f64, f64); 4] {
    match op {
        MicroOp::NullSyscall => [(3.35, 0.42), (2.60, 0.72), (42.0, 0.68), (3.40, 0.71)],
        MicroOp::NullIo => [(2.44, 0.50), (2.57, 0.80), (42.6, 0.72), (3.67, 0.79)],
        MicroOp::OpenClose => [(8.18, 1.91), (6.03, 2.29), (89.1, 2.21), (7.52, 2.26)],
        MicroOp::Stat => [(4.31, 0.69), (2.87, 0.98), (43.5, 0.94), (3.69, 0.99)],
        MicroOp::Pipe => [(15.79, 4.73), (13.1, 4.99), (172.6, 4.95), (17.10, 5.02)],
    }
}

/// One case-study system in one mode, behind a single concrete type so
/// the eight can share a vector.
enum Target {
    Proxos(Proxos),
    HyperShell(HyperShell),
    Tahoma(Tahoma),
    ShadowContext(ShadowContext),
}

impl Target {
    /// System `index` (in [`SYSTEMS`] order), original or optimized.
    fn build(index: usize, optimized: bool) -> Result<Target, SystemError> {
        Ok(match (index, optimized) {
            (0, false) => Target::Proxos(Proxos::baseline()?),
            (0, true) => Target::Proxos(Proxos::optimized()?),
            (1, false) => Target::HyperShell(HyperShell::baseline()?),
            (1, true) => Target::HyperShell(HyperShell::optimized()?),
            (2, false) => Target::Tahoma(Tahoma::baseline()?),
            (2, true) => Target::Tahoma(Tahoma::optimized()?),
            (3, false) => Target::ShadowContext(ShadowContext::baseline()?),
            _ => Target::ShadowContext(ShadowContext::optimized()?),
        })
    }

    fn inner(&mut self) -> &mut dyn RedirectTarget {
        match self {
            Target::Proxos(t) => t,
            Target::HyperShell(t) => t,
            Target::Tahoma(t) => t,
            Target::ShadowContext(t) => t,
        }
    }

    /// (intervention-free world switches, VM exits) the CPU has traced.
    fn trace_counts(&mut self) -> (u64, u64) {
        let trace = self.inner().env_mut().platform.cpu().trace();
        (
            trace.intervention_free_switches(),
            trace.count(TransitionKind::VmExit),
        )
    }
}

impl RedirectTarget for Target {
    fn label(&self) -> &'static str {
        match self {
            Target::Proxos(t) => t.label(),
            Target::HyperShell(t) => t.label(),
            Target::Tahoma(t) => t.label(),
            Target::ShadowContext(t) => t.label(),
        }
    }

    fn env_mut(&mut self) -> &mut CrossVmEnv {
        self.inner().env_mut()
    }

    fn redirect(&mut self, syscall: &Syscall) -> Result<SyscallRet, SystemError> {
        self.inner().redirect(syscall)
    }
}

/// A cell of the Table-4 grid: (system index, optimized, op).
type Cell = (usize, bool, MicroOp);

fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for op in MicroOp::ALL {
        for sys in 0..SYSTEMS.len() {
            for optimized in [false, true] {
                out.push((sys, optimized, op));
            }
        }
    }
    out
}

fn slot(sys: usize, optimized: bool) -> usize {
    sys * 2 + usize::from(optimized)
}

fn micros(delta: &Delta) -> f64 {
    delta.micros(Frequency::GHZ_3_4)
}

/// Mean absolute error (%) of the 40 Table-4 (original, optimized)
/// cells against the paper's values, each cell measured the way the
/// Table-4 report measures it: fresh systems, one warm-up, one run.
pub fn table4_err_pct() -> f64 {
    let mut errors = Vec::new();
    for (sys, optimized, op) in cells() {
        let mut target = Target::build(sys, optimized).expect("build system");
        let _ = run_redirected(&mut target, op).expect("warm-up");
        let us = micros(&run_redirected(&mut target, op).expect("measured run"));
        let (orig, opt) = paper_cells(op)[sys];
        let paper = if optimized { opt } else { orig };
        errors.push((us - paper).abs() / paper * 100.0);
    }
    errors.iter().sum::<f64>() / errors.len() as f64
}

/// Table 7's w/ CrossOver minus native instruction count for each
/// single-syscall lmbench op.
fn table7_deltas() -> Result<Vec<(LmbenchOp, u64)>, SystemError> {
    let mut harness = LmbenchHarness::new()?;
    let mut out = Vec::new();
    for op in LmbenchOp::ALL {
        if op == LmbenchOp::OpenClose {
            continue; // two syscalls, counted per pair in the table
        }
        let native = harness.instructions(op, LmbenchMode::Native)?;
        let with = harness.instructions(op, LmbenchMode::WithCrossOver)?;
        out.push((op, with.saturating_sub(native)));
    }
    Ok(out)
}

/// One measured pass over fresh systems, summarized so that keeping
/// every pass costs the process no memory worth measuring.
struct Pass {
    /// Machine speed measured just before the pass.
    speed: f64,
    setup_s: f64,
    run_s: f64,
    /// Mean, median and p99 cycles of one redirected op.
    mean_cycles: f64,
    p50_cycles: u64,
    p99_cycles: u64,
    /// Ops that finished within [`SLO_LIMIT_CYCLES`].
    within_slo: u64,
    host_ns_first_tenth: f64,
    host_ns_last_tenth: f64,
    rss_bytes_per_op: f64,
    world_switches: u64,
    vmexits: u64,
    failed: u64,
}

/// Runs one pass; returns its summary and the per-cell cycle samples,
/// indexed like [`cells`].
fn run_pass(
    sequence: &[usize],
    grid: &[Cell],
    rec: &mut Recorder,
) -> Result<(Pass, Vec<Vec<u64>>), SystemError> {
    rec.next_request();
    let (speed, _) = rec.time("calibrate", |_| machine_speed());
    let (targets, setup_s) = rec.time("setup.systems", |_| -> Result<Vec<Target>, SystemError> {
        let mut v = Vec::with_capacity(8);
        for sys in 0..SYSTEMS.len() {
            for optimized in [false, true] {
                v.push(Target::build(sys, optimized)?);
            }
        }
        Ok(v)
    });
    let mut targets = targets?;
    let counts = |targets: &mut Vec<Target>| {
        targets
            .iter_mut()
            .map(Target::trace_counts)
            .fold((0, 0), |(s, e), (ds, de)| (s + ds, e + de))
    };
    let (switches0, exits0) = counts(&mut targets);
    let rss0 = alloc::proc_status_kb("VmRSS").unwrap_or(0);
    let mut cycles = Vec::with_capacity(sequence.len());
    let mut by_cell = vec![Vec::new(); grid.len()];
    let mut host_ns = Vec::with_capacity(sequence.len());
    let mut failed = 0;
    let (_, run_s) = rec.time("redirect.loop", |_| {
        for &cell in sequence {
            let (sys, optimized, op) = grid[cell];
            let t = Instant::now();
            let result = run_redirected(&mut targets[slot(sys, optimized)], op);
            host_ns.push(t.elapsed().as_nanos() as f64);
            match result {
                Ok(delta) => {
                    cycles.push(delta.cycles.0);
                    by_cell[cell].push(delta.cycles.0);
                }
                Err(_) => failed += 1,
            }
        }
    });
    let rss1 = alloc::proc_status_kb("VmRSS").unwrap_or(0);
    let (switches1, exits1) = counts(&mut targets);
    let tenth = (sequence.len() / 10).max(1);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mean_cycles = cycles.iter().sum::<u64>() as f64 / cycles.len().max(1) as f64;
    let within_slo = cycles.iter().filter(|&&c| c <= SLO_LIMIT_CYCLES).count() as u64;
    cycles.sort_unstable();
    let pass = Pass {
        speed,
        setup_s,
        run_s,
        mean_cycles,
        p50_cycles: percentile(&cycles, 50.0),
        p99_cycles: percentile(&cycles, 99.0),
        within_slo,
        host_ns_first_tenth: mean(&host_ns[..tenth]),
        host_ns_last_tenth: mean(&host_ns[host_ns.len() - tenth..]),
        rss_bytes_per_op: rss1.saturating_sub(rss0) as f64 * 1024.0 / sequence.len() as f64,
        world_switches: switches1 - switches0,
        vmexits: exits1 - exits0,
        failed,
    };
    Ok((pass, by_cell))
}

/// The seeded op sequence: shuffled rounds of the whole grid, so every
/// cell runs equally often, cut at a length that is not a whole number
/// of rounds, so the last partial round's cells vary with the seed.
fn op_sequence(seed: u64, grid_len: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x007A_B1E4);
    let mut out = Vec::with_capacity(OPS_PER_PASS + grid_len);
    while out.len() < OPS_PER_PASS {
        let mut round: Vec<usize> = (0..grid_len).collect();
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend(round);
    }
    out.truncate(OPS_PER_PASS);
    out
}

pub fn run(args: &RunArgs, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let grid = cells();
    let sequence = op_sequence(args.seed, grid.len());
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut by_cell = Vec::new();
    while passes.len() < 3 || started.elapsed().as_secs_f64() < args.seconds {
        match run_pass(&sequence, &grid, rec) {
            Ok((pass, cells)) => {
                out.attempted += sequence.len() as u64;
                out.failed += pass.failed;
                passes.push(pass);
                by_cell = cells;
            }
            Err(e) => {
                out.errors
                    .push(format!("paper_redirect: system construction failed: {e}"));
                return out;
            }
        }
    }

    // Output checks: Table 7's +33 exactly, and optimized beats
    // original in all 20 Table-4 cells.
    let deltas = table7_deltas();
    match &deltas {
        Ok(d) => {
            for &(op, delta) in d {
                out.check(delta == TABLE7_DELTA, || {
                    format!(
                        "Table 7 {}: CrossOver adds {delta} instructions, expected {TABLE7_DELTA}",
                        op.name()
                    )
                });
            }
        }
        Err(e) => out.errors.push(format!("Table 7 harness failed: {e}")),
    }
    let last = passes.last().expect("at least one pass");
    let cell_median = |cell: usize| -> f64 {
        let mut v = by_cell[cell].clone();
        v.sort_unstable();
        percentile(&v, 50.0) as f64 / (FREQUENCY_GHZ * 1e3)
    };
    let index_of = |sys: usize, optimized: bool, op: MicroOp| {
        grid.iter()
            .position(|&c| c == (sys, optimized, op))
            .expect("cell in grid")
    };
    for op in MicroOp::ALL {
        for (sys, name) in SYSTEMS.iter().enumerate() {
            let orig = cell_median(index_of(sys, false, op));
            let opt = cell_median(index_of(sys, true, op));
            out.check(opt < orig, || {
                format!(
                    "{name} {}: optimized {opt:.3} us does not beat original {orig:.3} us",
                    op.name()
                )
            });
        }
    }

    let ops = sequence.len() as f64;
    let pass_metric = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let cycles_per_op = pass_metric(&|p| p.mean_cycles);
    let m = &mut out.end_to_end;
    m.push("cycles_per_call", cycles_per_op);
    m.push("e2e_p50_cycles", pass_metric(&|p| p.p50_cycles as f64));
    m.push("e2e_p99_cycles", pass_metric(&|p| p.p99_cycles as f64));
    m.push(
        "slo_attainment",
        pass_metric(&|p| p.within_slo as f64 / ops),
    );
    // One closed-loop client: its sustainable rate is one op per mean
    // op latency of virtual time.
    m.push("slo_rate_mcalls_per_s", FREQUENCY_GHZ * 1e3 / cycles_per_op);
    m.push(
        "success_share",
        pass_metric(&|p| 1.0 - p.failed as f64 / ops),
    );
    let speed = pass_metric(&|p| p.speed);
    m.push("host_calls_per_s", pass_metric(&|p| ops / p.run_s) / speed);
    m.push("setup_s", pass_metric(&|p| p.setup_s) * speed);
    m.push(
        "peak_rss_mb",
        alloc::proc_status_kb("VmHWM").unwrap_or(0) as f64 / 1024.0,
    );
    m.push("table4_err_pct", table4_err_pct());
    eprintln!(
        "paper_redirect: {} passes of {} ops, {:.1} cycles/op",
        passes.len(),
        sequence.len(),
        cycles_per_op
    );

    if args.trace {
        let m = &mut out.per_layer;
        for (sys, name) in SYSTEMS.iter().enumerate() {
            for (optimized, mode) in [(false, "orig"), (true, "opt")] {
                let us: Vec<f64> = MicroOp::ALL
                    .iter()
                    .map(|&op| cell_median(index_of(sys, optimized, op)))
                    .collect();
                m.push(
                    format!("systems.{name}.{mode}_us"),
                    us.iter().sum::<f64>() / us.len() as f64,
                );
            }
        }
        m.push(
            "machine.trace.world_switches_per_op",
            last.world_switches as f64 / ops,
        );
        m.push("machine.trace.vmexits_per_op", last.vmexits as f64 / ops);
        let delta = deltas
            .as_ref()
            .ok()
            .and_then(|d| d.first().map(|&(_, v)| v))
            .unwrap_or(0);
        m.push("machine.instr_delta_per_redirect", delta as f64);
        m.push(
            "paper.host_ns_first_tenth",
            pass_metric(&|p| p.host_ns_first_tenth),
        );
        m.push(
            "paper.host_ns_last_tenth",
            pass_metric(&|p| p.host_ns_last_tenth),
        );
        m.push(
            "paper.rss_bytes_per_op",
            pass_metric(&|p| p.rss_bytes_per_op),
        );
    }
    out
}
