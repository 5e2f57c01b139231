//! End-to-end benchmark of the CrossOver reproduction on two clocks.
//!
//! * **virtual** — cycles of the modelled CrossOver machine, which is
//!   what the paper's claims are about;
//! * **host** — time the Rust simulator and runtime take to serve the
//!   traffic.
//!
//! Three workloads, each built from `--seed` alone:
//!
//! * `serve_hot` — open-loop tenants through the gateway into a
//!   one-worker `WorldCallService` over eight worlds, switchless
//!   channels on: the fast path (warm caches, deep coalesced batches).
//! * `serve_cold_burst` — bursty tenants through the gateway into a
//!   two-worker pool over thousands of worlds with small working sets,
//!   switchless off: the slow path (cache and TLB misses, table
//!   evictions, singleton batches, stealing, sheds).
//! * `paper_redirect` — the five Table-4 micro-ops through the four
//!   case-study systems, original and optimized, on the sequential core.
//!
//! Usage:
//! `xover-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any failed
//! output check prints the violations on standard error and exits 1
//! without a result.

mod alloc;
mod paper;
mod serve;
mod spans;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Clock of the modelled machine, for converting cycles to seconds.
pub const FREQUENCY_GHZ: f64 = 3.4;

/// The end-to-end metrics every `--trace 0` run prints, with units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("cycles_per_call", "cycles"),
    ("e2e_p50_cycles", "cycles"),
    ("e2e_p99_cycles", "cycles"),
    ("slo_attainment", "share"),
    ("slo_rate_mcalls_per_s", "Mcalls/s"),
    ("success_share", "share"),
    ("host_calls_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("table4_err_pct", "%"),
];

/// The per-layer metrics every `--trace 1` run prints, with units. A
/// layer a workload bypasses reads 0 there.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("gateway.admission_wait_p99_cycles", "cycles"),
    ("gateway.shed_ring_full", "count"),
    ("gateway.shed_busy", "count"),
    ("gateway.ring_high_water", "count"),
    ("gateway.completion_batches", "count"),
    ("gateway.enqueue_ns", "ns"),
    ("runtime.ring.queue_wait_p50_cycles", "cycles"),
    ("runtime.ring.queue_wait_p99_cycles", "cycles"),
    ("runtime.ring.stolen_share", "share"),
    ("runtime.ring.push_pop_ns", "ns"),
    ("runtime.worker.batches", "count"),
    ("runtime.worker.mean_batch_size", "calls"),
    ("runtime.worker.allocs_per_call", "count"),
    ("runtime.worker.alloc_bytes_per_call", "bytes"),
    ("runtime.switchless.coalesced_share", "share"),
    ("runtime.switchless.transitions_per_call", "count"),
    ("runtime.switchless.hot_pair_transitions_per_call", "count"),
    ("runtime.switchless.slot_cycles_per_call", "cycles"),
    ("runtime.switchless.spin_cycles_per_call", "cycles"),
    ("runtime.switchless.dry_exits", "count"),
    ("runtime.switchless.saturated_exits", "count"),
    ("runtime.switchless.epochs_to_converge", "count"),
    ("runtime.epoch.lookup_ns_p50", "ns"),
    ("runtime.epoch.lookup_ns_p99", "ns"),
    ("runtime.epoch.evictions", "count"),
    ("runtime.epoch.refaults", "count"),
    ("runtime.epoch.grace_reclaims", "count"),
    ("runtime.epoch.resident", "count"),
    ("runtime.epoch.cold_bytes", "bytes"),
    ("crossover.wtc.wt_hit_rate", "share"),
    ("crossover.wtc.iwt_hit_rate", "share"),
    ("crossover.wtc.wt_fills", "count"),
    ("crossover.wtc.wt_evictions", "count"),
    ("crossover.wtc.lookup_ns", "ns"),
    ("mmu.tlb.hit_rate", "share"),
    ("mmu.tlb.walk_cycles_per_call", "cycles"),
    ("hypervisor.platform.access_gva_ns", "ns"),
    ("runtime.supervisor.retries", "count"),
    ("runtime.supervisor.dead_lettered", "count"),
    ("obs.causal.queue_wait", "cycles"),
    ("obs.causal.steal_hop", "cycles"),
    ("obs.causal.transition", "cycles"),
    ("obs.causal.service", "cycles"),
    ("obs.causal.slot", "cycles"),
    ("obs.causal.backoff", "cycles"),
    ("obs.causal.recovery", "cycles"),
    ("obs.causal.other", "cycles"),
    ("obs.tracing_overhead_ratio", "ratio"),
    ("obs.traced_cycles_delta_pct", "%"),
    ("systems.proxos.orig_us", "us"),
    ("systems.proxos.opt_us", "us"),
    ("systems.hypershell.orig_us", "us"),
    ("systems.hypershell.opt_us", "us"),
    ("systems.tahoma.orig_us", "us"),
    ("systems.tahoma.opt_us", "us"),
    ("systems.shadowcontext.orig_us", "us"),
    ("systems.shadowcontext.opt_us", "us"),
    ("machine.trace.world_switches_per_op", "count"),
    ("machine.trace.vmexits_per_op", "count"),
    ("machine.instr_delta_per_redirect", "instructions"),
    ("paper.host_ns_first_tenth", "ns"),
    ("paper.host_ns_last_tenth", "ns"),
    ("paper.rss_bytes_per_op", "bytes"),
];

/// Metric values a workload measured, by name.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// Renders `table`'s metrics in its order, reading 0 for any the
    /// workload did not measure; names outside `table` are errors.
    fn to_json(&self, table: &[(&str, &str)], errors: &mut Vec<String>) -> String {
        for (name, _) in &self.0 {
            if !table.iter().any(|(n, _)| n == name) {
                errors.push(format!("metric {name} is not in the metric table"));
            }
        }
        let fields: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .0
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |&(_, v)| v);
                if !value.is_finite() {
                    errors.push(format!("metric {name} is not finite: {value}"));
                }
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Calls (or redirected ops) submitted across the measured rounds.
    pub attempted: u64,
    /// Calls that ended in a failure verdict (timed out, failed,
    /// dead-lettered or denied) or redirects that returned an error.
    /// Gateway sheds are refusals, not failures: they are counted in
    /// `success_share` and `slo_attainment` instead.
    pub failed: u64,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Violated output checks; any entry fails the run.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a violated check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Wall seconds the calibration unit takes on both vCPUs at the
/// reference machine speed the host metrics are expressed in (a quiet
/// two-vCPU 2.1 GHz x86-64 VM).
pub const CALIBRATION_REFERENCE_S: f64 = 0.0033;

/// How fast the machine runs right now relative to the reference: 1.0
/// at reference speed, 0.5 when the calibration unit takes twice as
/// long. Median host rates are divided by the median speed of the run
/// and median host times multiplied, so a busy neighbour on a shared
/// host cancels out of the reported numbers.
pub fn machine_speed() -> f64 {
    CALIBRATION_REFERENCE_S / calibrate()
}

/// Wall seconds two threads (one per vCPU) take to each run one fixed
/// unit of host work at once: how fast the machine is right now. The
/// unit mixes cache-resident table updates with short-lived small
/// allocations, the two costs the simulator's host time is made of. It
/// is the benchmark's own code, so no change to the program under test
/// can move it. The tables are allocated here and the unit's
/// allocations are freed as soon as made, so the calibration threads
/// leave no memory behind in `peak_rss_mb`.
fn calibrate() -> f64 {
    let unit = |mut table: Vec<u64>| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for _ in 0..300_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (table.len() - 1);
            acc = acc.wrapping_add(table[i]);
            table[i] = acc;
        }
        for i in 0..20_000u64 {
            acc = acc.wrapping_add(u64::from(std::hint::black_box(vec![i as u8; 48])[0]));
        }
        acc
    };
    let tables: Vec<Vec<u64>> = (0..2).map(|_| (0..1u64 << 16).collect()).collect();
    let t = std::time::Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = tables
            .into_iter()
            .map(|table| s.spawn(move || unit(table)))
            .collect();
        for h in handles {
            std::hint::black_box(h.join().expect("calibration thread"));
        }
    });
    t.elapsed().as_secs_f64()
}

struct Args {
    workload: String,
    run: RunArgs,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        run: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: xover-perfbench --workload <serve_hot|serve_cold_burst|paper_redirect> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut rec = spans::Recorder::new();
    let outcome = match args.workload.as_str() {
        "serve_hot" => serve::run(&serve::Shape::hot(), &args.run, &mut rec),
        "serve_cold_burst" => serve::run(&serve::Shape::cold_burst(), &args.run, &mut rec),
        "paper_redirect" => paper::run(&args.run, &mut rec),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    finish(&args, outcome, &rec)
}

/// The run parameters the workloads see.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn finish(args: &Args, mut outcome: Outcome, rec: &spans::Recorder) -> ExitCode {
    let (metrics, table): (&Metrics, &[(&str, &str)]) = if args.run.trace {
        (&outcome.per_layer, &PER_LAYER)
    } else {
        (&outcome.end_to_end, &END_TO_END)
    };
    let json = metrics.to_json(table, &mut outcome.errors);
    if outcome.attempted == 0 {
        outcome.errors.push("no calls attempted".to_string());
    }
    if !outcome.errors.is_empty() {
        for e in &outcome.errors {
            eprintln!("check failed: {e}");
        }
        return ExitCode::from(1);
    }
    for (name, count, self_ns) in rec.self_times() {
        eprintln!(
            "span {name:<28} x{count:<5} self {:>10.3} ms",
            self_ns as f64 / 1e6
        );
    }
    let dir = std::path::Path::new(".bench_spans");
    let path = dir.join(format!(
        "{}-{}-trace{}.json",
        args.workload, args.run.seed, args.run.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.to_json()))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
        outcome.attempted, outcome.failed,
    );
    ExitCode::SUCCESS
}
