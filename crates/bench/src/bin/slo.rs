//! SLO watchdog harness: emit `BENCH_slo.json`.
//!
//! Runs the burn-rate watchdog (`runtime::watchdog::evaluate`) over
//! drained runs and asserts its claims:
//!
//! * **Clean runs are silent.** Three seeded clean runs must raise zero
//!   incidents: baselines are learned from the run itself, so an
//!   undisturbed workload never burns.
//! * **Fault burst.** A mid-run burst of injected world-lookup races
//!   (fired well after the learning horizon) must raise an incident
//!   within a bounded number of epochs of the burst, and the incident's
//!   causal attribution must point at the recovery plane (recovery /
//!   backoff cycles), not at healthy service time.
//! * **Switchless-off shift.** Forcing the degradation ladder to
//!   `ClassicOnly` mid-run (the operational drill) makes every call pay
//!   its own transition pair; the watchdog must raise a latency-p99
//!   incident within a bounded number of epochs of the shift whose top
//!   service-side contributor is `transition` — the paper's world-switch
//!   tax, named by the causal decomposition.
//!
//! Usage: `slo [output-path] [--trace-out PATH]` (default
//! `BENCH_slo.json`). With `--trace-out` the fault-burst recording is
//! annotated with its `slo_incident` markers and written as the
//! combined Perfetto/recording JSON.

use std::fmt::Write as _;

use machine::fault::{FaultKind, FaultPlan, FaultSite};
use machine::rng::SplitMix64;
use obs::Component;
use runtime::watchdog::EPOCH_CYCLES;
use runtime::{
    annotate_trace, evaluate, incidents_to_json, trace_doc, CallRequest, DegradeLevel, Incident,
    ObsConfig, RuntimeConfig, ServiceReport, SwitchlessConfig, WatchdogSummary, WorldCallService,
};

const FREQUENCY_GHZ: f64 = 3.4;
const CLEAN_SEEDS: [u64; 3] = [0x51_0001, 0x51_0002, 0x51_0003];
const CLEAN_CALLS: u64 = 2_500;
const BURST_CALLS: u64 = 4_000;
/// The burst arms at virtual cycle 1M — epoch 10, six epochs past the
/// end of baseline learning (4 epochs × 100k cycles).
const BURST_AT: u64 = 1_000_000;
const BURST_FAULTS: usize = 160;
/// Sized so the stream far outlasts the drill trip: the host-side spin
/// that watches the virtual clock reacts hundreds of kilocycles late
/// (the simulation outruns the observer), and the regression needs
/// several post-shift epochs to burn through the detector's windows.
const SHIFT_CALLS: u64 = 60_000;
/// The drill trips once the pool's virtual clock passes 1.5M cycles.
const SHIFT_AT: u64 = 1_500_000;
/// Detection-latency bound, in epochs past the regression's epoch.
const DETECT_EPOCH_BOUND: u64 = 6;
const WORKING_SET_PAGES: u64 = 8;

/// Two tenants × (user + kernel), working sets and channels everywhere.
fn build_service(config: RuntimeConfig) -> (WorldCallService, Vec<crossover::world::Wid>) {
    let mut svc = WorldCallService::new(config);
    let mut worlds = Vec::new();
    for t in 0..2u64 {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("slo-{t}")))
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

/// The mixed stream the clean and fault-burst scenarios run: skewed
/// hot-pair traffic with moderate bodies, tagged and tenanted. The
/// burst scenario pins `tenants` to 1 so its dead letters land on one
/// tenant's budget instead of diluting across accounts.
fn draw_mixed(
    rng: &mut SplitMix64,
    worlds: &[crossover::world::Wid],
    tag: u64,
    tenants: u64,
) -> CallRequest {
    let (caller, callee) = loop {
        let (a, b) = if rng.flip() {
            (worlds[0], worlds[1])
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
    CallRequest::new(caller, callee, work_cycles, work_cycles / 3)
        .with_touches(rng.below(WORKING_SET_PAGES))
        .with_tenant((tag % tenants) as u32)
        .with_tag(tag)
}

/// The shift stream: one hot pair with tiny RPC-style bodies, so the
/// coalesced fast path amortizes the transition pair to (near) zero and
/// the forced classic path makes that pair the dominant latency term.
fn draw_hot(rng: &mut SplitMix64, worlds: &[crossover::world::Wid], tag: u64) -> CallRequest {
    // Tiny bodies: the request is all overhead, so losing the
    // switchless path shows up as transition cycles, not service time.
    let work_cycles = 10 + rng.below(10);
    CallRequest::new(worlds[0], worlds[1], work_cycles, 0)
        .with_tenant((tag % 2) as u32)
        .with_tag(tag)
}

fn run_mixed(
    seed: u64,
    calls: u64,
    tenants: u64,
    plan: Option<FaultPlan>,
    switchless: SwitchlessConfig,
    obs: ObsConfig,
) -> ServiceReport {
    let (mut svc, worlds) = build_service(RuntimeConfig {
        workers: 1,
        queue_capacity: calls as usize + 16,
        batch_max: 32,
        switchless,
        obs,
        ..RuntimeConfig::default()
    });
    if let Some(plan) = plan {
        svc.set_fault_plan(plan);
    }
    let mut rng = SplitMix64::new(seed);
    for tag in 0..calls {
        svc.submit(draw_mixed(&mut rng, &worlds, tag, tenants))
            .expect("queue open while benching");
    }
    svc.start();
    svc.drain()
}

/// Runs the hot-pair stream and trips the `ClassicOnly` drill once the
/// pool's virtual clock passes `shift_at`. Returns the report and the
/// virtual time the drill actually landed at.
fn run_shift(seed: u64, calls: u64, shift_at: u64) -> (ServiceReport, u64) {
    let (mut svc, worlds) = build_service(RuntimeConfig {
        workers: 1,
        queue_capacity: calls as usize + 16,
        batch_max: 32,
        switchless: SwitchlessConfig::on(),
        obs: ObsConfig::ring_with_capacity(1 << 20),
        ..RuntimeConfig::default()
    });
    let mut rng = SplitMix64::new(seed);
    for tag in 0..calls {
        svc.submit(draw_hot(&mut rng, &worlds, tag))
            .expect("queue open while benching");
    }
    svc.start();
    loop {
        let now = svc.virtual_now();
        if now >= shift_at {
            break;
        }
        std::hint::spin_loop();
    }
    svc.force_degrade(DegradeLevel::ClassicOnly);
    let shifted_at = svc.virtual_now();
    assert!(
        shifted_at != u64::MAX,
        "the pool drained before the drill tripped; raise SHIFT_CALLS"
    );
    (svc.drain(), shifted_at)
}

/// The watchdog's verdict on a drained run (no gateway, so no
/// admission decisions), with causal context when the run was recorded.
fn watch(report: &ServiceReport) -> WatchdogSummary {
    let recording = report.obs.as_ref().map(|o| o.merged_events());
    evaluate(&report.outcomes, &[], recording.as_deref())
}

/// First incident at or after `epoch`, in evaluation order.
fn first_incident_after(summary: &WatchdogSummary, epoch: u64) -> Option<&Incident> {
    summary.incidents.iter().find(|i| i.epoch >= epoch)
}

/// Top contributor ignoring queue wait — the closed-loop harness
/// preloads its queue, so dispatch delay reflects the harness, not the
/// service regression the incident is about.
fn top_service_side(incident: &Incident) -> Option<Component> {
    incident
        .contributors
        .iter()
        .map(|c| c.component)
        .find(|&c| c != Component::QueueWait)
}

fn main() {
    let mut out_path = "BENCH_slo.json".to_string();
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out needs a path")),
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            positional => out_path = positional.to_string(),
        }
    }

    // ---- Clean runs: zero incidents across three seeds. --------------
    let mut clean_rows = Vec::new();
    for seed in CLEAN_SEEDS {
        let report = run_mixed(
            seed,
            CLEAN_CALLS,
            2,
            None,
            SwitchlessConfig::on(),
            ObsConfig::off(),
        );
        let wd = watch(&report);
        assert!(
            wd.incidents.is_empty(),
            "seed {seed:#x}: clean run raised {} incidents",
            wd.incidents.len()
        );
        assert!(wd.baseline_ready, "seed {seed:#x}: baselines must settle");
        eprintln!(
            "clean seed {seed:#010x}: {} epochs evaluated, 0 incidents",
            wd.epochs_evaluated
        );
        clean_rows.push((seed, wd.epochs_evaluated));
    }

    // ---- Fault burst: bounded detection, recovery-plane attribution. -
    let plan = FaultPlan::new();
    for _ in 0..BURST_FAULTS {
        plan.schedule(BURST_AT, FaultSite::WorldLookupRace, FaultKind::Vanish);
    }
    let burst = run_mixed(
        CLEAN_SEEDS[0],
        BURST_CALLS,
        1,
        Some(plan),
        // Classic-only traffic: every call resolves its caller through
        // the table, so the armed burst drains back-to-back instead of
        // trickling through the rare non-coalesced lookups.
        SwitchlessConfig::default(),
        ObsConfig::ring_with_capacity(1 << 18),
    );
    let burst_wd = watch(&burst);
    let burst_epoch = BURST_AT / EPOCH_CYCLES;
    let incident = first_incident_after(&burst_wd, burst_epoch)
        .expect("the fault burst must raise an incident");
    let burst_detect_epochs = incident.epoch - burst_epoch;
    assert!(
        burst_detect_epochs <= DETECT_EPOCH_BOUND,
        "burst detected {burst_detect_epochs} epochs late (bound {DETECT_EPOCH_BOUND})"
    );
    let burst_top = top_service_side(incident).expect("incident carries contributors");
    assert!(
        matches!(burst_top, Component::Recovery | Component::Backoff),
        "fault burst must be attributed to the recovery plane, got {burst_top:?}"
    );
    let burst_objective = incident.objective.name();
    eprintln!(
        "burst: epoch {burst_epoch} + {burst_detect_epochs} → {} incident, top {}, \
         {} incidents total",
        burst_objective,
        burst_top.name(),
        burst_wd.incidents.len()
    );
    if let Some(trace_path) = &trace_out {
        let mut doc =
            trace_doc("slo fault burst", &burst, FREQUENCY_GHZ).expect("burst run records");
        annotate_trace(&mut doc, &burst_wd);
        std::fs::write(trace_path, doc.render_json()).expect("write trace json");
        eprintln!("wrote {trace_path} ({} events)", doc.events.len());
    }

    // ---- Switchless-off shift: the transition tax, named. ------------
    let (shift, shifted_at) = run_shift(CLEAN_SEEDS[0], SHIFT_CALLS, SHIFT_AT);
    let shift_wd = watch(&shift);
    let shift_epoch = shifted_at / EPOCH_CYCLES;
    let incident = first_incident_after(&shift_wd, shift_epoch)
        .expect("the switchless-off drill must raise an incident");
    let shift_detect_epochs = incident.epoch - shift_epoch;
    assert!(
        shift_detect_epochs <= DETECT_EPOCH_BOUND,
        "shift detected {shift_detect_epochs} epochs late (bound {DETECT_EPOCH_BOUND})"
    );
    assert_eq!(
        incident.objective.name(),
        "latency_p99",
        "forcing classic-only must burn the latency objective"
    );
    // Attribution is judged on the first *full* classic-only epoch: the
    // epoch the drill lands in mixes drained and classic completions, so
    // its window is contaminated by construction.
    let settled = first_incident_after(&shift_wd, shift_epoch + 1)
        .expect("the burn must persist past the landing epoch");
    let shift_top = top_service_side(settled).expect("incident carries contributors");
    assert_eq!(
        shift_top,
        Component::Transition,
        "the classic-only shift must be attributed to transition cycles"
    );
    eprintln!(
        "shift: drill at cycle {shifted_at} (epoch {shift_epoch}) + {shift_detect_epochs} → \
         latency_p99 incident, top transition, {} incidents total",
        shift_wd.incidents.len()
    );

    // ---- Emit the JSON document. -------------------------------------
    let mut outj = String::new();
    let _ = write!(
        outj,
        "{{\n  \"benchmark\": \"xover SLO watchdog\",\n\
         \x20 \"epoch_cycles\": {EPOCH_CYCLES},\n\
         \x20 \"detect_epoch_bound\": {DETECT_EPOCH_BOUND},\n\
         \x20 \"clean\": [\n"
    );
    for (i, (seed, epochs)) in clean_rows.iter().enumerate() {
        let _ = write!(
            outj,
            "    {{\"seed\": {seed}, \"epochs_evaluated\": {epochs}, \"incidents\": 0}}"
        );
        outj.push_str(if i + 1 < clean_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = write!(
        outj,
        "  ],\n  \"fault_burst\": {{\n\
         \x20   \"burst_at_cycles\": {BURST_AT},\n\
         \x20   \"burst_epoch\": {burst_epoch},\n\
         \x20   \"injected_faults\": {BURST_FAULTS},\n\
         \x20   \"detect_epochs\": {burst_detect_epochs},\n\
         \x20   \"objective\": \"{burst_objective}\",\n\
         \x20   \"top_contributor\": \"{}\",\n\
         \x20   \"incidents\": {}\n\
         \x20 }},\n",
        burst_top.name(),
        incidents_to_json(&burst_wd)
    );
    let _ = write!(
        outj,
        "  \"degrade_shift\": {{\n\
         \x20   \"shift_at_cycles\": {shifted_at},\n\
         \x20   \"shift_epoch\": {shift_epoch},\n\
         \x20   \"detect_epochs\": {shift_detect_epochs},\n\
         \x20   \"objective\": \"latency_p99\",\n\
         \x20   \"top_contributor\": \"transition\",\n\
         \x20   \"incidents\": {}\n\
         \x20 }}\n}}\n",
        incidents_to_json(&shift_wd)
    );
    std::fs::write(&out_path, outj).expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
