//! Event-stream lifecycle pairing: every admitted request's
//! `RequestEnqueue` is matched by exactly one terminal `RequestVerdict`
//! with the same sequence number — across the chaos seed matrix (the
//! same generated fault schedules the fault-properties suite runs) and
//! worker counts 1–4. This is the event-stream mirror of the runtime's
//! exactly-one-verdict invariant: the flight recorder must not lose a
//! request's ending or invent a second one, even when the schedule
//! crashes workers, drops invalidations and dead-letters crash-looped
//! calls.

use std::collections::BTreeMap;

use machine::fault::FaultPlan;
use machine::rng::SplitMix64;
use xover_runtime::{
    CallRequest, EventKind, ObsConfig, RuntimeConfig, SwitchlessConfig, WorldCallService,
};

const CHAOS_CALLS: u64 = 400;
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
const WORKING_SET_PAGES: u64 = 8;

fn build_service(config: RuntimeConfig) -> (WorldCallService, Vec<crossover::world::Wid>) {
    let mut svc = WorldCallService::new(config);
    let mut worlds = Vec::new();
    for t in 0..2u64 {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("pair-{t}")))
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

fn draw_request(rng: &mut SplitMix64, worlds: &[crossover::world::Wid], tag: u64) -> CallRequest {
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
    let mut req = CallRequest::new(caller, callee, work_cycles, work_cycles / 3)
        .with_touches(rng.below(2 * WORKING_SET_PAGES))
        .with_tag(tag);
    if rng.chance(0.05) {
        req = req.with_budget(work_cycles / 4);
    }
    req
}

/// Every `RequestEnqueue` pairs with exactly one `RequestVerdict`
/// carrying the same sequence number, and no verdict appears for a
/// sequence that was never enqueued — under every seeded chaos
/// schedule.
#[test]
fn every_enqueue_pairs_with_exactly_one_terminal_verdict() {
    for (i, &seed) in CHAOS_SEEDS.iter().enumerate() {
        let workers = 1 + (i % 4);
        let (mut svc, worlds) = build_service(RuntimeConfig {
            workers,
            queue_capacity: CHAOS_CALLS as usize + 16,
            batch_max: 32,
            switchless: SwitchlessConfig::fixed(8),
            obs: ObsConfig::ring_with_capacity(1 << 16),
            ..RuntimeConfig::default()
        });
        svc.set_fault_plan(FaultPlan::from_seed(seed, 3_000_000, 4));
        let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9);
        for tag in 0..CHAOS_CALLS {
            svc.submit(draw_request(&mut rng, &worlds, tag))
                .expect("queue open");
        }
        svc.start();
        let report = svc.drain();
        let label = format!("seed={seed:#x}/workers={workers}");

        let recorded = report.obs.as_ref().expect("recording on");
        assert_eq!(recorded.dropped(), 0, "{label}: pairing needs lossless");
        let events = recorded.merged_events();

        let mut enqueued: BTreeMap<u64, u64> = BTreeMap::new();
        let mut ended: BTreeMap<u64, u64> = BTreeMap::new();
        for e in &events {
            match e.kind {
                EventKind::RequestEnqueue => *enqueued.entry(e.a).or_insert(0) += 1,
                EventKind::RequestVerdict => *ended.entry(e.a).or_insert(0) += 1,
                _ => {}
            }
        }
        for (&seq, &n) in &enqueued {
            assert_eq!(n, 1, "{label}: seq {seq} enqueued {n} times");
        }
        for (&seq, &n) in &ended {
            assert_eq!(n, 1, "{label}: seq {seq} reached {n} verdicts");
            assert!(
                enqueued.contains_key(&seq),
                "{label}: verdict for never-enqueued seq {seq}"
            );
        }
        for &seq in enqueued.keys() {
            assert!(
                ended.contains_key(&seq),
                "{label}: seq {seq} enqueued but never reached a verdict"
            );
        }
        // The stream agrees with the drained ledger end to end.
        assert_eq!(
            enqueued.len() as u64,
            CHAOS_CALLS,
            "{label}: enqueue events"
        );
        assert_eq!(
            ended.len(),
            report.outcomes.len(),
            "{label}: one verdict event per outcome"
        );
    }
}
