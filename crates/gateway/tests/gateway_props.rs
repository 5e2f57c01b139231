//! Gateway properties.
//!
//! The gateway's contract has two legs:
//!
//! 1. **Rings reorder, never rewrite.** For any seeded schedule the
//!    ring reactor yields the same per-tenant verdict multisets as
//!    blocking submission — admission control may delay or reorder
//!    calls, but what each call *is* (and therefore how it ends) is
//!    untouched. With spaced arrivals and generous quotas the
//!    admission order collapses to arrival order and the equality is
//!    exact, outcome for outcome, including under an injected fault
//!    plan.
//! 2. **Overload sheds loudly.** Undersized rings shed with explicit
//!    reasons, `submitted == admitted + shed` at every level, and the
//!    recorded trace replays through `obs::verify`'s gateway checks.
//!    The SLO watchdog reads those admit/shed decisions: a tenant whose
//!    ring overflows burns its shed-rate objective.
//!
//! Single worker, except the delivery-order property, which holds for
//! any verdict interleaving and so also runs on two workers.

use machine::fault::{FaultKind, FaultPlan, FaultSite};
use machine::rng::SplitMix64;
use obs::EventKind;
use runtime::{
    evaluate, CallRequest, CallVerdict, DegradeLevel, Objective, ObsConfig, RuntimeConfig,
    ServiceReport, SwitchlessConfig, WorldCallService,
};
use xover_gateway::{
    gateway_trace_doc, Gateway, GatewayConfig, GatewayReport, TenantClass, TenantConfig,
};

const SEED: u64 = 0x06A7_EA11;
const CALLS: u64 = 400;
const TENANTS: u32 = 3;
const WORKING_SET_PAGES: u64 = 8;

/// Tenants × (user + kernel) with working sets and switchless channels:
/// the same service shape as the obs/fault parity suites, so the
/// gateway is exercised over every servicing path.
fn build_service(
    obs: ObsConfig,
    plan: Option<FaultPlan>,
) -> (WorldCallService, Vec<Vec<crossover::world::Wid>>) {
    build_service_on(1, obs, plan)
}

/// [`build_service`] on `workers` workers.
fn build_service_on(
    workers: usize,
    obs: ObsConfig,
    plan: Option<FaultPlan>,
) -> (WorldCallService, Vec<Vec<crossover::world::Wid>>) {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers,
        queue_capacity: CALLS as usize + 16,
        batch_max: 32,
        switchless: SwitchlessConfig::on(),
        obs,
        ..RuntimeConfig::default()
    });
    if let Some(plan) = plan {
        svc.set_fault_plan(plan);
    }
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
        worlds.push(vec![user, kernel]);
    }
    (svc, worlds)
}

/// One tenant-attributed request: intra-tenant user→kernel half the
/// time (the hot pair, so channels engage), any cross pair otherwise;
/// 5% abusive with a budget far below the body so the timeout verdict
/// is a function of the request alone, order be damned.
fn draw_request(
    rng: &mut SplitMix64,
    worlds: &[Vec<crossover::world::Wid>],
    tenant: u32,
    i: u64,
) -> CallRequest {
    let own = &worlds[tenant as usize];
    let (caller, callee) = if rng.flip() {
        (own[0], own[1])
    } else {
        loop {
            let a = own[rng.below(2) as usize];
            let other = &worlds[rng.below(worlds.len() as u64) as usize];
            let b = other[rng.below(2) as usize];
            if a != b {
                break (a, b);
            }
        }
    };
    let work_cycles = 1_000 + rng.below(2_000);
    let mut req = CallRequest::new(caller, callee, work_cycles, work_cycles / 3)
        .with_touches(rng.below(WORKING_SET_PAGES))
        .with_tag(i)
        .with_tenant(tenant);
    if rng.chance(0.05) {
        req = req.with_budget(work_cycles / 4);
    }
    req
}

/// The seeded open-loop schedule: (tenant, arrival, request) triples in
/// arrival order, one stream interleaved round-robin with strictly
/// increasing arrival instants.
fn schedule(seed: u64, gap: u64) -> Vec<(u32, u64, CallRequest)> {
    // The worlds vector is only a shape here; requests drawn against
    // one service are submitted to another with identical registration
    // order, so the Wids line up.
    let (_svc, worlds) = build_service(ObsConfig::default(), None);
    let mut rng = SplitMix64::new(seed);
    (0..CALLS)
        .map(|i| {
            let tenant = (i % u64::from(TENANTS)) as u32;
            (tenant, i * gap, draw_request(&mut rng, &worlds, tenant, i))
        })
        .collect()
}

fn sorted_verdicts_per_tenant(label: &str, outcomes: &[(u32, CallVerdict)]) -> Vec<Vec<String>> {
    let mut per: Vec<Vec<String>> = vec![Vec::new(); TENANTS as usize];
    for (tenant, verdict) in outcomes {
        assert!(
            (*tenant as usize) < per.len(),
            "{label}: outcome for unknown tenant {tenant}"
        );
        per[*tenant as usize].push(format!("{verdict:?}"));
    }
    for v in &mut per {
        v.sort();
    }
    per
}

/// Blocking-submission baseline: the same schedule pushed through
/// `submit` in arrival order, no gateway anywhere.
fn run_direct(seed: u64, gap: u64, plan: Option<FaultPlan>) -> ServiceReport {
    let (mut svc, _worlds) = build_service(ObsConfig::default(), plan);
    for (_tenant, _at, req) in schedule(seed, gap) {
        svc.submit(req).expect("queue open");
    }
    svc.start();
    svc.drain()
}

fn run_gateway(
    seed: u64,
    gap: u64,
    config: GatewayConfig,
    obs: ObsConfig,
    plan: Option<FaultPlan>,
) -> GatewayReport {
    run_gateway_on(1, seed, gap, config, obs, plan)
}

/// [`run_gateway`] on `workers` workers.
fn run_gateway_on(
    workers: usize,
    seed: u64,
    gap: u64,
    config: GatewayConfig,
    obs: ObsConfig,
    plan: Option<FaultPlan>,
) -> GatewayReport {
    let (svc, _worlds) = build_service_on(workers, obs, plan);
    let mut gw = Gateway::new(config);
    for (tenant, at, req) in schedule(seed, gap) {
        gw.enqueue(tenant, at, req);
    }
    gw.run(svc)
}

fn generous() -> GatewayConfig {
    GatewayConfig::rings(vec![
        TenantConfig::new(TenantClass::Gold, CALLS as usize, CALLS as usize),
        TenantConfig::new(TenantClass::Silver, CALLS as usize, CALLS as usize),
        TenantConfig::new(TenantClass::Bronze, CALLS as usize, CALLS as usize),
    ])
}

/// Leg 1a: spaced arrivals + generous quotas collapse admission order
/// to arrival order — the gateway is then *exactly* blocking
/// submission, outcome for outcome, across seeds and under faults.
#[test]
fn spaced_arrivals_match_direct_exactly_even_under_faults() {
    // Arrivals 5k cycles apart: each is admitted before the next lands.
    const GAP: u64 = 5_000;
    fn make_plan(case: u8) -> Option<FaultPlan> {
        match case {
            0 => None,
            1 => Some(FaultPlan::new().with(120_000, FaultSite::WorkerCrash, FaultKind::Crash)),
            _ => Some(
                FaultPlan::new()
                    .with(90_000, FaultSite::WorkerCrash, FaultKind::Crash)
                    .with(
                        240_000,
                        FaultSite::WorkerStall,
                        FaultKind::Stall { cycles: 8_000 },
                    ),
            ),
        }
    }
    for (seed, case) in [(SEED, 0u8), (0xD00_D1E, 0), (SEED, 1), (0xBAD_CAFE, 2)] {
        let direct = run_direct(seed, GAP, make_plan(case));
        let gw = run_gateway(seed, GAP, generous(), ObsConfig::default(), make_plan(case));
        assert_eq!(gw.shed, 0, "seed {seed:#x}: nothing to shed");
        assert_eq!(gw.admitted, CALLS);
        // The wire requests only differ in the tag field (gateway
        // tokens are assigned in arrival order, and the schedule's tags
        // already are the arrival index) — so the full outcome streams
        // must coincide.
        assert_eq!(
            gw.service.outcomes, direct.outcomes,
            "seed {seed:#x}: gateway diverged from blocking submission"
        );
        gw.check_conservation().expect("conservation");
        // Every admitted call came back on its tenant's completion ring.
        for t in &gw.tenants {
            assert_eq!(
                t.admitted,
                t.completions.len() as u64,
                "tenant {}",
                t.tenant
            );
        }
    }
}

/// Leg 1b: with every arrival at t=0 the WRR scheduler genuinely
/// reorders admissions across tenants — verdict multisets per tenant
/// must still match blocking submission, because admission control may
/// move a call, never change it.
#[test]
fn wrr_reordering_preserves_per_tenant_verdict_multisets() {
    for seed in [SEED, 0x5EED_0002, 0x5EED_0003] {
        let direct = run_direct(seed, 0, None);
        let config = GatewayConfig::rings(vec![
            TenantConfig::new(TenantClass::Gold, 8, CALLS as usize),
            TenantConfig::new(TenantClass::Silver, 4, CALLS as usize),
            TenantConfig::new(TenantClass::Bronze, 2, CALLS as usize),
        ]);
        let gw = run_gateway(seed, 0, config, ObsConfig::default(), None);
        assert_eq!(gw.shed, 0, "seed {seed:#x}: rings sized for the burst");
        assert_eq!(gw.admitted, CALLS);
        let direct_verdicts: Vec<(u32, CallVerdict)> = direct
            .outcomes
            .iter()
            .map(|o| (o.request.tenant, o.verdict.clone()))
            .collect();
        let gw_verdicts: Vec<(u32, CallVerdict)> = gw
            .tenants
            .iter()
            .flat_map(|t| t.completions.iter().map(|c| (c.tenant, c.verdict.clone())))
            .collect();
        assert_eq!(
            sorted_verdicts_per_tenant("gateway", &gw_verdicts),
            sorted_verdicts_per_tenant("direct", &direct_verdicts),
            "seed {seed:#x}: per-tenant verdict multisets diverge"
        );
        gw.check_conservation().expect("conservation");
        // Completions hand the original user tag back even though the
        // wire tag carried the gateway token.
        for t in &gw.tenants {
            for c in t.completions.iter() {
                assert_eq!(c.user_tag % u64::from(TENANTS), u64::from(c.tenant));
            }
        }
    }
}

/// Pass 2's delivery contract, on one and two workers: each tenant's
/// completions arrive in `(done_cycles, token)` order, in full batches
/// of 8 plus one final partial batch, and every batch the rings count
/// is one `completion_batch` event.
#[test]
fn completions_arrive_in_order_in_full_batches() {
    for workers in [1, 2] {
        for (seed, gap) in [(SEED, 0), (0x5EED_0002, 700), (0x5EED_0003, 2_000)] {
            let config = GatewayConfig::rings(vec![
                TenantConfig::new(TenantClass::Gold, 8, CALLS as usize),
                TenantConfig::new(TenantClass::Silver, 4, CALLS as usize),
                TenantConfig::new(TenantClass::Bronze, 2, CALLS as usize),
            ]);
            let gw = run_gateway_on(workers, seed, gap, config, ObsConfig::default(), None);
            let label = format!("{workers} workers, seed {seed:#x}, gap {gap}");
            assert_eq!(gw.admitted, CALLS, "{label}: rings sized for the trace");
            gw.check_conservation().expect("conservation");
            for t in &gw.tenants {
                let order: Vec<(u64, u64)> = t
                    .completions
                    .iter()
                    .map(|c| (c.done_cycles, c.token))
                    .collect();
                assert!(
                    order.windows(2).all(|w| w[0] < w[1]),
                    "{label}: tenant {} delivered out of (done, token) order",
                    t.tenant
                );
                assert_eq!(
                    t.completions.batches(),
                    t.admitted.div_ceil(8),
                    "{label}: tenant {} batches",
                    t.tenant
                );
            }
            let batch_events = gw
                .events
                .iter()
                .filter(|e| e.kind == EventKind::CompletionBatch)
                .count() as u64;
            assert_eq!(batch_events, gw.completion_batches, "{label}");
        }
    }
}

/// Leg 2a: undersized rings shed at the door with explicit accounting,
/// and the recorded trace replays through `obs::verify`.
#[test]
fn overload_sheds_loudly_and_trace_verifies() {
    let config = GatewayConfig::rings(vec![
        TenantConfig::new(TenantClass::Gold, 4, 8),
        TenantConfig::new(TenantClass::Silver, 4, 8),
        TenantConfig::new(TenantClass::Bronze, 4, 8),
    ]);
    let gw = run_gateway(SEED, 0, config, ObsConfig::ring(), None);
    assert!(
        gw.shed > 0,
        "an all-at-once burst must overflow 8-deep rings"
    );
    assert!(
        gw.shed_ring_full > 0,
        "the overflow must be ring-full sheds"
    );
    assert_eq!(gw.submitted, CALLS);
    assert_eq!(gw.submitted, gw.admitted + gw.shed);
    assert_eq!(gw.completions_delivered, gw.admitted);
    assert_eq!(gw.service.outcomes.len() as u64, gw.admitted);
    gw.check_conservation().expect("conservation");
    for t in &gw.tenants {
        assert_eq!(t.submitted, t.admitted + t.shed(), "tenant {}", t.tenant);
        assert!(t.ring_high_water <= 8, "tenant {}", t.tenant);
    }
    // Bounded-by-construction: nothing an admitted call waits behind
    // exceeds ring + quota + the pool, so its end-to-end latency is
    // finite and the p99 is a real number over admitted calls only.
    assert!(gw.e2e_percentile(99.0) > 0);
    let doc = gateway_trace_doc("gateway_props", &gw, 2.0);
    let report = obs::verify(&doc);
    assert!(
        report.ok(),
        "trace verification failed: {:?}",
        report.failures()
    );
}

/// Leg 2b: a service already at the `Shedding` rung sheds at the
/// gateway — the pool never sees a single request, and every shed is
/// accounted with the health reason.
#[test]
fn health_shedding_sheds_at_the_gateway() {
    let (svc, worlds) = build_service(ObsConfig::default(), None);
    svc.health().escalate(DegradeLevel::Shedding, 0);
    let mut gw = Gateway::new(generous());
    let mut rng = SplitMix64::new(SEED);
    for i in 0..CALLS {
        let tenant = (i % u64::from(TENANTS)) as u32;
        gw.enqueue(tenant, i * 50, draw_request(&mut rng, &worlds, tenant, i));
    }
    let report = gw.run(svc);
    assert_eq!(report.admitted, 0);
    assert_eq!(report.shed, CALLS);
    assert_eq!(report.shed_health, CALLS);
    assert!(
        report.service.outcomes.is_empty(),
        "the pool must see nothing"
    );
    assert_eq!(report.service.admitted, 0, "service-side ledger agrees");
    report.check_conservation().expect("conservation");
}

/// Leg 2c: the watchdog's shed-rate objective, end to end. Two tenants
/// arrive steadily through the learning epochs; after them, tenant 1
/// bursts into an 8-deep ring. The gateway's own admit/shed events must
/// burn `ShedRate` for tenant 1 alone. The same schedule through rings
/// deep enough to hold the burst sheds nothing and burns nothing.
#[test]
fn ring_overflow_after_learning_burns_the_shed_rate_objective() {
    const STEADY_GAP: u64 = 10_000;
    const STEADY_CALLS: u64 = 120;
    /// Epoch 8: four epochs past the four learning epochs.
    const BURST_AT: u64 = 800_000;
    const BURST_CALLS: u64 = 60;
    let run = |ring_capacity: usize| {
        let (svc, worlds) = build_service(ObsConfig::default(), None);
        let mut gw = Gateway::new(GatewayConfig::rings(vec![
            TenantConfig::new(TenantClass::Silver, 4, ring_capacity),
            TenantConfig::new(TenantClass::Silver, 4, ring_capacity),
        ]));
        let mut rng = SplitMix64::new(SEED);
        let mut i = 0;
        let mut arrive = |gw: &mut Gateway, tenant: u32, at: u64| {
            gw.enqueue(tenant, at, draw_request(&mut rng, &worlds, tenant, i));
            i += 1;
        };
        for k in 0..STEADY_CALLS {
            arrive(&mut gw, 0, k * STEADY_GAP);
            arrive(&mut gw, 1, k * STEADY_GAP + STEADY_GAP / 2);
        }
        for k in 0..BURST_CALLS {
            arrive(&mut gw, 1, BURST_AT + k * 100);
        }
        let report = gw.run(svc);
        report.check_conservation().expect("conservation");
        let summary = evaluate(&report.service.outcomes, &report.events, None);
        (report, summary)
    };

    let (overloaded, summary) = run(8);
    assert!(
        overloaded.tenants[1].shed_ring_full > 0,
        "the burst overflows"
    );
    assert_eq!(overloaded.tenants[0].shed(), 0, "tenant 0 never overflows");
    assert!(summary.baseline_ready);
    let shed_incidents: Vec<_> = summary
        .incidents
        .iter()
        .filter(|i| matches!(i.objective, Objective::ShedRate { .. }))
        .collect();
    assert!(
        shed_incidents
            .iter()
            .any(|i| i.epoch == BURST_AT / runtime::watchdog::EPOCH_CYCLES),
        "the burst epoch must burn: {:?}",
        summary.incidents
    );
    for inc in &shed_incidents {
        assert_eq!(inc.objective, Objective::ShedRate { tenant: 1 });
    }

    let (control, summary) = run(CALLS as usize);
    assert_eq!(control.shed, 0, "deep rings hold the burst");
    assert!(summary.baseline_ready);
    assert!(
        summary.incidents.is_empty(),
        "an un-overloaded run burns nothing: {:?}",
        summary.incidents
    );
}
