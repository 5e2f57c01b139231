//! The serving-stack workloads: seeded open-loop arrivals →
//! `Gateway::{enqueue, run}` → a `WorldCallService` worker pool.
//!
//! Every e2e latency is measured from the arrival's due instant in
//! virtual time, so generator lateness is zero by construction.

use std::collections::HashMap;
use std::time::Instant;

use crossover::world::Wid;
use crossover::wtc::{CacheGeometry, WtCache};
use gateway::{
    gateway_trace_doc, Gateway, GatewayConfig, GatewayReport, TenantClass, TenantConfig,
};
use machine::rng::SplitMix64;
use mmu::addr::PAGE_SIZE;
use mmu::perms::Perms;
use mmu::tlb::TWO_STAGE_WALK_CYCLES;
use obs::causal::{analyze, check_exact, ALL_COMPONENTS};
use runtime::{
    CallRequest, CallVerdict, ObsConfig, RingSet, RuntimeConfig, SwitchlessConfig, WorldCallService,
};
use workloads::openloop::{generate, ArrivalProcess, OpenLoopConfig};

use runtime::report::percentile;

use crate::spans::Recorder;
use crate::{alloc, machine_speed, median, Outcome, RunArgs, FREQUENCY_GHZ};

/// Relative slack around the untraced rounds' cycles/call envelope that
/// the traced round must fall in.
const ENVELOPE_SLACK: f64 = 0.005;
/// Entry points of the registered user and kernel worlds.
const USER_ENTRY: u64 = 0x40_0000;
const KERNEL_ENTRY: u64 = 0xFFFF_8000;

/// A serving workload's fixed shape; only the seed varies between runs.
pub struct Shape {
    pub name: &'static str,
    /// Worker threads of the pool.
    workers: usize,
    tenants: u32,
    /// Guest VMs per tenant.
    vms_per_tenant: u32,
    /// Worlds registered per VM. With 2, a VM holds one user world (the
    /// tenant's caller) and one kernel world.
    worlds_per_vm: u32,
    working_set_pages: u64,
    /// Each call touches `0..=max_touches` working-set pages.
    max_touches: u64,
    switchless: SwitchlessConfig,
    /// Per-VM world quota (`None`: the shipped default).
    quota: Option<usize>,
    zipf_s: f64,
    work_cycles: (u64, u64),
    process: ArrivalProcess,
    horizon_cycles: u64,
    gateway_tenants: Vec<TenantConfig>,
    /// e2e latency limit (cycles) for `slo_attainment` and the ladder.
    slo_limit_cycles: u64,
    /// Mean offered-rate rungs for `slo_rate_mcalls_per_s`, in Mcalls/s
    /// of virtual time at 3.4 GHz: (lowest, highest, step). Absolute
    /// constants, never derived from measured capacity.
    ladder_mcalls: (f64, f64, f64),
}

impl Shape {
    /// Four tenants, eight user/kernel worlds, Zipf(1.2) callees,
    /// working sets that fit the unified TLB, switchless channels with
    /// the adaptive controller, Poisson arrivals below capacity.
    pub fn hot() -> Shape {
        Shape {
            name: "serve_hot",
            // One worker: with two OS-thread workers this shape's virtual
            // tail flips between regimes with host load (p99 ~1.0k vs
            // ~1.5k cycles on one seed), which no bound holds. One
            // worker makes every virtual number exact.
            workers: 1,
            tenants: 4,
            vms_per_tenant: 1,
            worlds_per_vm: 2,
            working_set_pages: 8,
            max_touches: 3,
            switchless: SwitchlessConfig::adaptive(),
            quota: None,
            zipf_s: 1.2,
            work_cycles: (60, 300),
            process: ArrivalProcess::Poisson {
                mean_gap_cycles: 2_200.0,
            },
            horizon_cycles: 64_000_000,
            gateway_tenants: (0..4)
                .map(|_| TenantConfig::new(TenantClass::Silver, 4_096, 16_384))
                .collect(),
            slo_limit_cycles: 10_000,
            ladder_mcalls: (2.0, 16.0, 0.25),
        }
    }

    /// A world population twice the epoch table's 4,096-entry eviction
    /// floor, near-uniform callees, two-page working sets whose total
    /// exceeds the TLB, switchless off, on/off bursts against tight
    /// per-tenant rings in three classes.
    pub fn cold_burst() -> Shape {
        Shape {
            name: "serve_cold_burst",
            // Both vCPUs: singleton batches keep this shape's virtual
            // numbers steady under two workers, so the multi-worker ring
            // and steal path is measured here.
            workers: 2,
            tenants: 4,
            vms_per_tenant: 4,
            worlds_per_vm: 512,
            working_set_pages: 2,
            max_touches: 2,
            switchless: SwitchlessConfig::default(),
            quota: Some(1_024),
            zipf_s: 0.2,
            work_cycles: (200, 800),
            // Each ON window offers more than the gateway's admission
            // model can place, so the tight rings shed; the long OFF
            // window lets the pool drain, keeping the mean rate below
            // its measured capacity.
            process: ArrivalProcess::BurstyOnOff {
                mean_gap_cycles: 1_000.0,
                on_cycles: 50_000,
                off_cycles: 1_950_000,
            },
            horizon_cycles: 100_000_000,
            gateway_tenants: vec![
                TenantConfig::new(TenantClass::Gold, 16, 32),
                TenantConfig::new(TenantClass::Silver, 12, 24),
                TenantConfig::new(TenantClass::Silver, 12, 24),
                TenantConfig::new(TenantClass::Bronze, 8, 16),
            ],
            slo_limit_cycles: 1_500_000,
            ladder_mcalls: (0.1, 1.0, 0.02),
        }
    }

    fn worlds(&self) -> usize {
        (self.tenants * self.vms_per_tenant * self.worlds_per_vm) as usize
    }
}

/// One generated call: indices into the world population, not WIDs, so
/// the program under test receives only the trace.
#[derive(Debug, Clone, Copy)]
struct Call {
    at: u64,
    tenant: u32,
    caller: usize,
    callee: usize,
    work: u64,
    touches: u64,
}

/// The population index of world `w` of VM `v` of tenant `t`.
fn world_index(shape: &Shape, tenant: u32, vm: u32, w: u32) -> usize {
    ((tenant * shape.vms_per_tenant + vm) * shape.worlds_per_vm + w) as usize
}

/// Generates the open-loop trace for `shape` with its arrival gaps
/// multiplied by `gap_scale` (1.0 except on the ladder).
fn generate_calls(shape: &Shape, seed: u64, gap_scale: f64, horizon: u64) -> Vec<Call> {
    let population = shape.worlds();
    let process = match shape.process {
        ArrivalProcess::Poisson { mean_gap_cycles } => ArrivalProcess::Poisson {
            mean_gap_cycles: mean_gap_cycles * gap_scale,
        },
        ArrivalProcess::BurstyOnOff {
            mean_gap_cycles,
            on_cycles,
            off_cycles,
        } => ArrivalProcess::BurstyOnOff {
            mean_gap_cycles: mean_gap_cycles * gap_scale,
            on_cycles,
            off_cycles,
        },
    };
    let arrivals = generate(&OpenLoopConfig {
        tenants: shape.tenants,
        horizon_cycles: horizon,
        callees: population,
        zipf_s: shape.zipf_s,
        work_cycles: shape.work_cycles,
        process,
        seed,
    });
    let mut rng = SplitMix64::new(seed ^ 0xCA11_E25E_ED00);
    let per_tenant = (shape.vms_per_tenant * shape.worlds_per_vm) as u64;
    arrivals
        .iter()
        .map(|a| {
            // The caller is one of the tenant's own user worlds.
            let caller = if shape.worlds_per_vm == 2 {
                world_index(shape, a.tenant, 0, 0)
            } else {
                let k = rng.below(per_tenant) as u32;
                world_index(
                    shape,
                    a.tenant,
                    k / shape.worlds_per_vm,
                    k % shape.worlds_per_vm,
                )
            };
            // Spread popularity ranks over the whole population so the
            // hottest callees are not all one tenant's.
            let mut callee = (a.callee_rank * 2_654_435_761) % population;
            if callee == caller {
                callee = (callee + 1) % population;
            }
            Call {
                at: a.at_cycles,
                tenant: a.tenant,
                caller,
                callee,
                work: a.work_cycles,
                touches: rng.below(shape.max_touches + 1),
            }
        })
        .collect()
}

/// Service with every VM, world, working set and channel of `shape`
/// registered; not started.
fn build_service(shape: &Shape, calls: usize, obs: ObsConfig) -> (WorldCallService, Vec<Wid>) {
    let mut config = RuntimeConfig {
        workers: shape.workers,
        queue_capacity: calls + 16,
        switchless: shape.switchless,
        obs,
        ..RuntimeConfig::default()
    };
    if let Some(quota) = shape.quota {
        config.quota = quota;
    }
    let mut svc = WorldCallService::new(config);
    let mut worlds = Vec::with_capacity(shape.worlds());
    for t in 0..shape.tenants {
        for v in 0..shape.vms_per_tenant {
            let vm = svc
                .create_vm(hypervisor::vm::VmConfig::named(&format!("t{t}-vm{v}")))
                .expect("create vm");
            for w in 0..shape.worlds_per_vm {
                let cr3 = 0x1000 * (u64::from(w) + 1);
                let wid = if shape.worlds_per_vm == 2 && w == 1 {
                    svc.register_guest_kernel(vm, 0x10_0000, KERNEL_ENTRY)
                } else {
                    svc.register_guest_user(vm, cr3, USER_ENTRY)
                }
                .expect("register world");
                svc.attach_working_set(wid, vm, shape.working_set_pages)
                    .expect("attach working set");
                if shape.switchless.enabled() {
                    svc.attach_channel(wid, vm).expect("attach channel");
                }
                worlds.push(wid);
            }
        }
    }
    (svc, worlds)
}

fn request(call: &Call, worlds: &[Wid]) -> CallRequest {
    CallRequest::new(
        worlds[call.caller],
        worlds[call.callee],
        call.work,
        call.work / 3,
    )
    .with_touches(call.touches)
    .with_tenant(call.tenant)
}

/// A ring-mode gateway with every call of the trace staged.
fn stage(shape: &Shape, calls: &[Call], worlds: &[Wid]) -> Gateway {
    let mut gw = Gateway::new(GatewayConfig::rings(shape.gateway_tenants.clone()));
    for c in calls {
        gw.enqueue(c.tenant, c.at, request(c, worlds));
    }
    gw
}

/// Builds the service and stages the trace: the timed set-up. Returns
/// the seconds spent in `Gateway::enqueue` alongside.
fn setup(
    shape: &Shape,
    calls: &[Call],
    obs: ObsConfig,
    rec: &mut Recorder,
) -> (Gateway, WorldCallService, f64) {
    let ((svc, worlds), _) = rec.time("setup.service", |_| build_service(shape, calls.len(), obs));
    let (gw, enqueue_s) = rec.time("setup.enqueue", |_| stage(shape, calls, &worlds));
    (gw, svc, enqueue_s)
}

/// One measured round's results.
struct Round {
    report: GatewayReport,
    setup_s: f64,
    enqueue_s: f64,
    run_s: f64,
    allocs: u64,
    alloc_bytes: u64,
}

fn run_round(shape: &Shape, calls: &[Call], obs: ObsConfig, rec: &mut Recorder) -> Round {
    rec.next_request();
    let ((gw, svc, enqueue_s), setup_s) = rec.time("setup", |r| setup(shape, calls, obs, r));
    let (a0, b0) = alloc::snapshot();
    let (report, run_s) = rec.time("gateway.run", |_| gw.run(svc));
    let (a1, b1) = alloc::snapshot();
    Round {
        report,
        setup_s,
        enqueue_s,
        run_s,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

/// Calls whose verdict is not `Completed`.
fn failures(report: &GatewayReport) -> u64 {
    let s = &report.service;
    s.timed_out + s.failed + s.dead_lettered + s.denied
}

/// The output checks every round must pass.
fn check_round(out: &mut Outcome, shape: &Shape, report: &GatewayReport, submitted: usize) {
    let tag = shape.name;
    if let Err(e) = report.check_conservation() {
        out.errors.push(format!("{tag}: {e}"));
    }
    out.check(report.submitted == submitted as u64, || {
        format!(
            "{tag}: gateway saw {} of {submitted} submissions",
            report.submitted
        )
    });
    let mut seen: HashMap<u64, u32> = HashMap::new();
    for t in &report.tenants {
        for c in t.completions.iter() {
            *seen.entry(c.token).or_insert(0) += 1;
        }
    }
    let duplicated = seen.values().filter(|&&n| n > 1).count();
    out.check(duplicated == 0, || {
        format!("{tag}: {duplicated} tokens delivered twice")
    });
    out.check(seen.len() as u64 == report.admitted, || {
        format!(
            "{tag}: {} admitted but {} distinct tokens delivered",
            report.admitted,
            seen.len()
        )
    });
    let s = &report.service;
    out.check(report.admitted == s.completed + failures(report), || {
        format!(
            "{tag}: admitted {} != completed {} + non-completed verdicts {}",
            report.admitted,
            s.completed,
            failures(report)
        )
    });
}

/// The virtual-clock e2e numbers of one round.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Virtual {
    cycles_per_call: f64,
    p50: u64,
    p99: u64,
    slo_attainment: f64,
    success_share: f64,
}

fn virtual_metrics(shape: &Shape, report: &GatewayReport) -> Virtual {
    let within = report
        .tenants
        .iter()
        .flat_map(|t| t.completions.iter())
        .filter(|c| {
            c.verdict == CallVerdict::Completed && c.end_to_end_cycles() <= shape.slo_limit_cycles
        })
        .count();
    let submitted = report.submitted.max(1) as f64;
    Virtual {
        cycles_per_call: report.service.smp.total_cycles() as f64
            / report.service.completed.max(1) as f64,
        p50: report.e2e_percentile(50.0),
        p99: report.e2e_percentile(99.0),
        slo_attainment: within as f64 / submitted,
        success_share: report.service.completed as f64 / submitted,
    }
}

/// p99 end-to-end latency over every *submitted* call, a shed counting
/// as a miss; `u64::MAX` when more than one call in a hundred is shed.
fn p99_submitted(report: &GatewayReport) -> u64 {
    let rank = ((report.submitted as f64) * 0.99).ceil() as usize;
    match rank.checked_sub(1) {
        None => 0,
        Some(i) => report
            .admitted_e2e_cycles
            .get(i)
            .copied()
            .unwrap_or(u64::MAX),
    }
}

/// Whether a mean offered rate of `rung` Mcalls/s meets the limit: the
/// p99 over submitted calls (sheds are misses) within it, and no
/// growing backlog (the last delivery lands within one limit of the
/// horizon).
fn rung_passes(shape: &Shape, seed: u64, rung: f64, out: &mut Outcome) -> bool {
    let horizon = shape.horizon_cycles;
    let calls = generate_calls(
        shape,
        seed ^ rung.to_bits(),
        mean_rate(shape) / rung,
        horizon,
    );
    let (svc, worlds) = build_service(shape, calls.len(), ObsConfig::off());
    let report = stage(shape, &calls, &worlds).run(svc);
    check_round(out, shape, &report, calls.len());
    let last_done = report
        .tenants
        .iter()
        .flat_map(|t| t.completions.iter())
        .map(|c| c.done_cycles)
        .max()
        .unwrap_or(0);
    p99_submitted(&report) <= shape.slo_limit_cycles
        && last_done <= horizon + shape.slo_limit_cycles
}

/// Highest ladder rung that passes, found by bisection over the rungs
/// (latency grows with offered rate); 0 when even the lowest fails.
fn slo_rate(shape: &Shape, seed: u64, out: &mut Outcome) -> f64 {
    let (lo, hi, step) = shape.ladder_mcalls;
    let rung = |i: usize| lo + step * i as f64;
    let rungs = ((hi - lo) / step).round() as usize + 1;
    if !rung_passes(shape, seed, rung(0), out) {
        return 0.0;
    }
    let (mut pass, mut fail) = (0, rungs);
    while fail - pass > 1 {
        let mid = (pass + fail) / 2;
        if rung_passes(shape, seed, rung(mid), out) {
            pass = mid;
        } else {
            fail = mid;
        }
    }
    rung(pass)
}

/// The shape's own mean offered rate in Mcalls/s of virtual time.
fn mean_rate(shape: &Shape) -> f64 {
    let (gap, duty) = match shape.process {
        ArrivalProcess::Poisson { mean_gap_cycles } => (mean_gap_cycles, 1.0),
        ArrivalProcess::BurstyOnOff {
            mean_gap_cycles,
            on_cycles,
            off_cycles,
        } => (
            mean_gap_cycles,
            on_cycles as f64 / (on_cycles + off_cycles) as f64,
        ),
    };
    f64::from(shape.tenants) / gap * duty * FREQUENCY_GHZ * 1e3
}

/// Runs a serving workload: measured rounds until `seconds` elapse,
/// then, with tracing, one recorded round and the per-layer replays.
pub fn run(shape: &Shape, args: &RunArgs, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let calls = generate_calls(shape, args.seed, 1.0, shape.horizon_cycles);
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut speeds = Vec::new();
    let mut virtuals: Vec<Virtual> = Vec::new();
    let mut slo_rate_value = None;
    let mut last: Option<Round> = None;
    while virtuals.len() < 3 || started.elapsed().as_secs_f64() < args.seconds {
        // Machine speed is sampled on both sides of the round, which is
        // far longer than one calibration unit.
        speeds.push(rec.time("calibrate", |_| machine_speed()).0);
        let round = run_round(shape, &calls, ObsConfig::off(), rec);
        speeds.push(rec.time("calibrate", |_| machine_speed()).0);
        check_round(&mut out, shape, &round.report, calls.len());
        out.attempted += round.report.submitted;
        out.failed += failures(&round.report);
        setups.push(round.setup_s);
        rates.push(round.report.service.completed as f64 / round.run_s);
        virtuals.push(virtual_metrics(shape, &round.report));
        // The ladder is virtual time only and repeats closely, so one
        // climb per run gives it; the remaining rounds measure host time.
        if slo_rate_value.is_none() {
            let (rate, _) = rec.time("ladder", |_| slo_rate(shape, args.seed, &mut out));
            slo_rate_value = Some(rate);
        }
        last = Some(round);
        if !out.errors.is_empty() {
            return out;
        }
    }
    let last = last.expect("at least one round");
    let pick = |f: fn(&Virtual) -> f64| median(&virtuals.iter().map(f).collect::<Vec<_>>());

    let m = &mut out.end_to_end;
    m.push("cycles_per_call", pick(|v| v.cycles_per_call));
    m.push("e2e_p50_cycles", pick(|v| v.p50 as f64));
    m.push("e2e_p99_cycles", pick(|v| v.p99 as f64));
    m.push("slo_attainment", pick(|v| v.slo_attainment));
    m.push(
        "slo_rate_mcalls_per_s",
        slo_rate_value.expect("ladder climbed"),
    );
    m.push("success_share", pick(|v| v.success_share));
    let speed = median(&speeds);
    m.push("host_calls_per_s", median(&rates) / speed);
    m.push("setup_s", median(&setups) * speed);
    m.push(
        "peak_rss_mb",
        alloc::proc_status_kb("VmHWM").unwrap_or(0) as f64 / 1024.0,
    );
    m.push("table4_err_pct", crate::paper::table4_err_pct());
    eprintln!(
        "{}: {} rounds, {} calls/round, {} completed, {} shed; e2e p50/p99 {}/{} cycles",
        shape.name,
        virtuals.len(),
        calls.len(),
        last.report.service.completed,
        last.report.shed,
        last.report.e2e_percentile(50.0),
        last.report.e2e_percentile(99.0),
    );

    if args.trace {
        per_layer(shape, &calls, &last, &virtuals, rec, &mut out);
    }
    out
}

/// The traced round, the virtual-equality check against the untraced
/// rounds, and every per-layer metric.
fn per_layer(
    shape: &Shape,
    calls: &[Call],
    untraced: &Round,
    virtuals: &[Virtual],
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let obs = ObsConfig::ring_with_capacity(calls.len() * 16 + 1_024);
    let traced = run_round(shape, calls, obs, rec);
    check_round(out, shape, &traced.report, calls.len());
    // The reactor decides admissions before the pool starts, so its
    // counts must repeat exactly. With one worker the pool is
    // deterministic and every virtual number must too. With two, the
    // pool's cycles depend on how the OS interleaves the worker threads,
    // so the traced round must land inside the untraced rounds' envelope.
    let (u, t) = (&untraced.report, &traced.report);
    out.check(
        (t.admitted, t.shed_ring_full, t.shed_busy, t.shed_health)
            == (u.admitted, u.shed_ring_full, u.shed_busy, u.shed_health),
        || {
            format!(
                "{}: traced admissions differ from the untraced round",
                shape.name
            )
        },
    );
    let traced_virtual = virtual_metrics(shape, &traced.report);
    if shape.workers == 1 {
        out.check(virtuals.iter().all(|v| *v == traced_virtual), || {
            format!(
                "{}: traced virtual metrics {traced_virtual:?} differ from an untraced round",
                shape.name
            )
        });
    }
    let cycles: Vec<f64> = virtuals.iter().map(|v| v.cycles_per_call).collect();
    let lo = cycles.iter().copied().fold(f64::INFINITY, f64::min) * (1.0 - ENVELOPE_SLACK);
    let hi = cycles.iter().copied().fold(0.0, f64::max) * (1.0 + ENVELOPE_SLACK);
    out.check((lo..=hi).contains(&traced_virtual.cycles_per_call), || {
        format!(
            "{}: traced cycles/call {} outside the untraced envelope [{lo}, {hi}]",
            shape.name, traced_virtual.cycles_per_call
        )
    });
    let doc = gateway_trace_doc(shape.name, &traced.report, FREQUENCY_GHZ);
    out.check(doc.dropped == 0, || {
        format!("{}: trace dropped {} events", shape.name, doc.dropped)
    });
    let verified = runtime::verify(&doc);
    for f in verified.failures() {
        out.errors
            .push(format!("{}: obs::verify: {f:?}", shape.name));
    }
    let ((_, violations), _) = rec.time("obs.check_exact", |_| check_exact(&doc.events));
    for v in violations.iter().take(5) {
        out.errors.push(format!("{}: causal: {v}", shape.name));
    }
    let (causal, _) = rec.time("obs.causal.decompose", |_| analyze(&doc.events));

    let r = &untraced.report;
    let s = &r.service;
    let completed = s.completed.max(1) as f64;
    let m = &mut out.per_layer;

    // gateway
    let mut admission_wait: Vec<u64> = r
        .tenants
        .iter()
        .flat_map(|t| t.completions.iter())
        .map(|c| c.admitted_cycles - c.arrival_cycles)
        .collect();
    admission_wait.sort_unstable();
    m.push(
        "gateway.admission_wait_p99_cycles",
        percentile(&admission_wait, 99.0) as f64,
    );
    m.push("gateway.shed_ring_full", r.shed_ring_full as f64);
    m.push("gateway.shed_busy", r.shed_busy as f64);
    let high_water = r
        .tenants
        .iter()
        .map(|t| t.ring_high_water)
        .max()
        .unwrap_or(0);
    m.push("gateway.ring_high_water", high_water as f64);
    m.push("gateway.completion_batches", r.completion_batches as f64);
    m.push(
        "gateway.enqueue_ns",
        untraced.enqueue_s * 1e9 / calls.len() as f64,
    );

    // runtime.ring
    let mut waits: Vec<u64> = s.outcomes.iter().map(|o| o.queue_wait_cycles).collect();
    waits.sort_unstable();
    m.push(
        "runtime.ring.queue_wait_p50_cycles",
        percentile(&waits, 50.0) as f64,
    );
    m.push(
        "runtime.ring.queue_wait_p99_cycles",
        percentile(&waits, 99.0) as f64,
    );
    let stolen = s.outcomes.iter().filter(|o| o.stolen).count() as f64;
    m.push("runtime.ring.stolen_share", stolen / completed);
    let callees: Vec<usize> = calls.iter().map(|c| c.callee).collect();
    m.push(
        "runtime.ring.push_pop_ns",
        ring_push_pop_ns(&callees, shape.workers, rec),
    );

    // runtime.worker
    m.push("runtime.worker.batches", s.batches as f64);
    m.push(
        "runtime.worker.mean_batch_size",
        completed / s.batches.max(1) as f64,
    );
    m.push(
        "runtime.worker.allocs_per_call",
        untraced.allocs as f64 / completed,
    );
    m.push(
        "runtime.worker.alloc_bytes_per_call",
        untraced.alloc_bytes as f64 / completed,
    );

    // runtime.switchless
    let sw = &s.switchless;
    m.push(
        "runtime.switchless.coalesced_share",
        sw.drain.coalesced_calls as f64 / completed,
    );
    m.push(
        "runtime.switchless.transitions_per_call",
        (sw.world_calls + sw.world_returns) as f64 / completed,
    );
    let hot_pair = sw.hottest_pair().map_or(0.0, |p| p.transitions_per_call());
    m.push("runtime.switchless.hot_pair_transitions_per_call", hot_pair);
    m.push(
        "runtime.switchless.slot_cycles_per_call",
        sw.drain.slot_cycles as f64 / completed,
    );
    m.push(
        "runtime.switchless.spin_cycles_per_call",
        sw.drain.spin_cycles as f64 / completed,
    );
    m.push("runtime.switchless.dry_exits", sw.drain.dry_exits as f64);
    m.push(
        "runtime.switchless.saturated_exits",
        sw.drain.saturated_exits as f64,
    );
    m.push(
        "runtime.switchless.epochs_to_converge",
        epochs_to_converge(&sw.epochs) as f64,
    );

    // runtime.epoch (counters from the run, host times from a replay of
    // the workload's callee sequence against a freshly built table)
    let (svc, worlds) = build_service(shape, calls.len(), ObsConfig::off());
    let callee_wids: Vec<Wid> = calls.iter().map(|c| worlds[c.callee]).collect();
    let (lookup_p50, lookup_p99) = rec
        .time("replay.table_lookup", |_| {
            table_lookup_ns(&svc, &callee_wids)
        })
        .0;
    m.push("runtime.epoch.lookup_ns_p50", lookup_p50);
    m.push("runtime.epoch.lookup_ns_p99", lookup_p99);
    m.push("runtime.epoch.evictions", s.table.evictions as f64);
    m.push("runtime.epoch.refaults", s.table.refaults as f64);
    m.push(
        "runtime.epoch.grace_reclaims",
        s.table.grace_reclaims as f64,
    );
    m.push("runtime.epoch.resident", s.table.resident as f64);
    m.push("runtime.epoch.cold_bytes", s.table.cold_bytes as f64);

    // crossover.wtc
    m.push("crossover.wtc.wt_hit_rate", s.wt.hit_rate());
    m.push("crossover.wtc.iwt_hit_rate", s.iwt.hit_rate());
    m.push("crossover.wtc.wt_fills", s.wt.fills as f64);
    m.push("crossover.wtc.wt_evictions", s.wt.evictions as f64);
    let wtc_ns = rec
        .time("replay.wtc", |_| wtc_lookup_ns(&svc, &callee_wids))
        .0;
    m.push("crossover.wtc.lookup_ns", wtc_ns);

    // mmu.tlb / hypervisor.platform
    m.push("mmu.tlb.hit_rate", s.tlb.hit_rate());
    m.push(
        "mmu.tlb.walk_cycles_per_call",
        (s.tlb.misses * TWO_STAGE_WALK_CYCLES) as f64 / completed,
    );
    let touches: Vec<(Wid, u64)> = calls
        .iter()
        .map(|c| (worlds[c.callee], c.touches))
        .collect();
    let gva_ns = rec
        .time("replay.access_gva", |_| access_gva_ns(&svc, &touches))
        .0;
    m.push("hypervisor.platform.access_gva_ns", gva_ns);

    // runtime.supervisor
    m.push(
        "runtime.supervisor.retries",
        s.supervisor.totals.lookup_retries as f64,
    );
    m.push("runtime.supervisor.dead_lettered", s.dead_lettered as f64);

    // obs.causal: cycles per completed call of each component.
    let traced_completed = traced.report.service.completed.max(1) as f64;
    for c in ALL_COMPONENTS {
        m.push(
            format!("obs.causal.{}", c.name()),
            causal.totals[c.index()] as f64 / traced_completed,
        );
    }
    m.push("obs.tracing_overhead_ratio", traced.run_s / untraced.run_s);
    m.push(
        "obs.traced_cycles_delta_pct",
        (traced_virtual.cycles_per_call / median(&cycles) - 1.0) * 100.0,
    );
}

/// First controller epoch from which the budget vector never changes
/// again (0 when the controller is off).
fn epochs_to_converge(epochs: &[runtime::EpochSnapshot]) -> usize {
    let Some(last) = epochs.last() else { return 0 };
    epochs
        .iter()
        .rposition(|e| e.budgets != last.budgets)
        .map_or(1, |i| i + 2)
}

/// Per-lookup host ns of the world table, sampled in chunks of 32
/// lookups: (p50, p99) over chunks.
fn table_lookup_ns(svc: &WorldCallService, wids: &[Wid]) -> (f64, f64) {
    const CHUNK: usize = 32;
    let table = svc.table();
    let mut samples: Vec<u64> = Vec::with_capacity(wids.len() / CHUNK + 1);
    for chunk in wids.chunks(CHUNK) {
        let t = Instant::now();
        for &w in chunk {
            std::hint::black_box(table.lookup(std::hint::black_box(w)));
        }
        samples.push((t.elapsed().as_nanos() as u64 * 1_000) / chunk.len() as u64);
    }
    samples.sort_unstable();
    (
        percentile(&samples, 50.0) as f64 / 1_000.0,
        percentile(&samples, 99.0) as f64 / 1_000.0,
    )
}

/// Host ns per WT-cache lookup (with a fill from the table on a miss)
/// over the callee sequence, on a cache of the workers' default shape.
fn wtc_lookup_ns(svc: &WorldCallService, wids: &[Wid]) -> f64 {
    let table = svc.table();
    let mut cache = WtCache::with_geometry(CacheGeometry::default());
    let t = Instant::now();
    for &w in wids {
        if cache.lookup(std::hint::black_box(w)).is_none() {
            let entry = table.lookup(w).expect("registered world");
            cache.fill(entry);
        }
    }
    t.elapsed().as_nanos() as f64 / wids.len().max(1) as f64
}

/// Host ns per `Platform::access_gva` over each call's working-set
/// touches, on a clone of the service's platform.
fn access_gva_ns(svc: &WorldCallService, touches: &[(Wid, u64)]) -> f64 {
    let mut platform = svc.platform().clone();
    let mut n = 0u64;
    let t = Instant::now();
    for &(wid, count) in touches {
        let mem = svc.working_set(wid).expect("attached working set");
        for i in 0..count {
            let gva = mem.base + (i % mem.pages) * PAGE_SIZE;
            std::hint::black_box(platform.access_gva(&mem.pt, gva, Perms::rw()).ok());
            n += 1;
        }
    }
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Host ns per push + pop on a `RingSet` with one ring per worker, each
/// callee routed to its home ring.
fn ring_push_pop_ns(callees: &[usize], workers: usize, rec: &mut Recorder) -> f64 {
    rec.time("replay.ring", |_| {
        let rings: RingSet<usize> = RingSet::new(workers, 1_024);
        let t = Instant::now();
        for &callee in callees {
            let home = callee % workers;
            rings.try_push(home, callee).expect("ring has room");
            std::hint::black_box(rings.try_pop_local(home));
        }
        t.elapsed().as_nanos() as f64 / callees.len().max(1) as f64
    })
    .0
}
