//! The shared service fixture of the runtime's property suites: two
//! tenants × (user + kernel) worlds, every world with a working set and
//! a switchless channel, driven by a seeded skewed request stream. One
//! topology exercises the classic and coalesced paths, the TLB and both
//! caches, so a plane that perturbs any of them shows up here.

#![allow(dead_code)] // each suite uses a different subset

use crossover::world::Wid;
use machine::fault::FaultPlan;
use machine::rng::SplitMix64;
use xover_runtime::{CallRequest, RuntimeConfig, ServiceReport, WorldCallService};

pub const WORKING_SET_PAGES: u64 = 8;

/// A single-worker configuration sized to hold `calls` pre-start
/// submissions: with one worker the run is deterministic in virtual
/// time, so two runs can be compared cycle for cycle.
pub fn single_worker(calls: u64) -> RuntimeConfig {
    RuntimeConfig {
        workers: 1,
        queue_capacity: calls as usize + 16,
        batch_max: 32,
        ..RuntimeConfig::default()
    }
}

/// Builds the two-tenant topology. Returns `[user0, kernel0, user1,
/// kernel1]`; `[user0, kernel0]` is the hot pair.
pub fn build_service(config: RuntimeConfig) -> (WorldCallService, Vec<Wid>) {
    let mut svc = WorldCallService::new(config);
    let mut worlds = Vec::new();
    for t in 0..2u64 {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("tenant-{t}")))
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

/// The request mix a suite draws. Both share the skew (half the draws
/// hit the hot pair, so channels engage; the rest any distinct pair)
/// and a 5% abusive fraction whose budget sits below the body, so
/// timeout verdicts appear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// 1,000–3,000-cycle bodies, touches inside the working set, three
    /// tenant ids: the parity rows.
    Parity,
    /// 2,000–4,000-cycle bodies, touches up to twice the working set,
    /// no tenant id: the chaos suites. The longer bodies stretch the
    /// run over more of a [`FaultPlan::from_seed`] horizon, so more of
    /// the scheduled faults fire.
    Chaos,
}

/// One request of `stream`, tagged with `tag` for one-to-one joins.
pub fn draw_request(rng: &mut SplitMix64, worlds: &[Wid], tag: u64, stream: Stream) -> CallRequest {
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
    let (body_base, touch_bound) = match stream {
        Stream::Parity => (1_000, WORKING_SET_PAGES),
        Stream::Chaos => (2_000, 2 * WORKING_SET_PAGES),
    };
    let work_cycles = body_base + rng.below(2_000);
    let mut req = CallRequest::new(caller, callee, work_cycles, work_cycles / 3)
        .with_touches(rng.below(touch_bound))
        .with_tag(tag);
    if stream == Stream::Parity {
        req = req.with_tenant((tag % 3) as u32);
    }
    if rng.chance(0.05) {
        req = req.with_budget(work_cycles / 4);
    }
    req
}

/// Submits `calls` seeded draws of `stream` before start (optionally
/// under a fault plan), then runs the pool to drain. Returns the report
/// and how many of the plan's events fired (0 with no plan).
pub fn run_armed(
    config: RuntimeConfig,
    plan: Option<FaultPlan>,
    stream: Stream,
    seed: u64,
    calls: u64,
) -> (ServiceReport, u64) {
    let (mut svc, worlds) = build_service(config);
    if let Some(plan) = plan {
        svc.set_fault_plan(plan);
    }
    let armed = svc.fault_plan().cloned();
    let mut rng = SplitMix64::new(seed);
    for tag in 0..calls {
        svc.submit(draw_request(&mut rng, &worlds, tag, stream))
            .expect("queue open");
    }
    svc.start();
    let report = svc.drain();
    let fired = armed.map_or(0, |p| p.fired_total());
    (report, fired)
}

/// [`run_armed`] over the parity stream, report only.
pub fn run(config: RuntimeConfig, plan: Option<FaultPlan>, seed: u64, calls: u64) -> ServiceReport {
    run_armed(config, plan, Stream::Parity, seed, calls).0
}

/// Everything observable in virtual time must match: the outcome stream
/// (request order, verdicts, latencies, paths), total and makespan
/// cycles, WT/IWT/TLB statistics, queue wait and transition counts.
pub fn assert_cycle_exact(a: &ServiceReport, b: &ServiceReport, label: &str) {
    assert_eq!(a.outcomes, b.outcomes, "{label}: outcome streams diverge");
    assert_eq!(
        a.smp.total_cycles(),
        b.smp.total_cycles(),
        "{label}: total cycles diverge"
    );
    assert_eq!(
        a.smp.makespan_cycles(),
        b.smp.makespan_cycles(),
        "{label}: makespan diverges"
    );
    assert_eq!(a.wt, b.wt, "{label}: WT stats diverge");
    assert_eq!(a.iwt, b.iwt, "{label}: IWT stats diverge");
    assert_eq!(a.tlb, b.tlb, "{label}: TLB stats diverge");
    assert_eq!(
        a.queue_wait_cycles, b.queue_wait_cycles,
        "{label}: queue wait diverges"
    );
    assert_eq!(
        a.switchless.world_calls, b.switchless.world_calls,
        "{label}: world_call counts diverge"
    );
    assert_eq!(
        a.switchless.world_returns, b.switchless.world_returns,
        "{label}: world_return counts diverge"
    );
}
