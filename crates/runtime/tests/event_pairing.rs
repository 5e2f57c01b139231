//! Event-stream lifecycle pairing: every admitted request's
//! `RequestEnqueue` is matched by exactly one terminal `RequestVerdict`
//! with the same sequence number — across the chaos seed matrix (the
//! same generated fault schedules the fault-properties suite runs) and
//! worker counts 1–4. This is the event-stream mirror of the runtime's
//! exactly-one-verdict invariant: the flight recorder must not lose a
//! request's ending or invent a second one, even when the schedule
//! crashes workers, drops invalidations and dead-letters crash-looped
//! calls.

mod common;

use common::Stream;

use std::collections::BTreeMap;

use machine::fault::FaultPlan;
use xover_runtime::{EventKind, ObsConfig, RuntimeConfig, SwitchlessConfig};

const CHAOS_CALLS: u64 = 400;
/// Floor on the events that fire across all `CHAOS_SEEDS` (each plan
/// schedules 24, 192 in total). Runs fire 41–45; a stream of shorter
/// calls ends before much of the 3M-cycle horizon and fires ~33.
const CHAOS_FIRED_FLOOR: u64 = 36;
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

/// Every `RequestEnqueue` pairs with exactly one `RequestVerdict`
/// carrying the same sequence number, and no verdict appears for a
/// sequence that was never enqueued — under every seeded chaos
/// schedule.
#[test]
fn every_enqueue_pairs_with_exactly_one_terminal_verdict() {
    let mut fired_total = 0;
    for (i, &seed) in CHAOS_SEEDS.iter().enumerate() {
        let workers = 1 + (i % 4);
        let config = RuntimeConfig {
            workers,
            queue_capacity: CHAOS_CALLS as usize + 16,
            batch_max: 32,
            switchless: SwitchlessConfig::fixed(8),
            obs: ObsConfig::ring_with_capacity(1 << 16),
            ..RuntimeConfig::default()
        };
        let plan = FaultPlan::from_seed(seed, 3_000_000, 4);
        let (report, fired) = common::run_armed(
            config,
            Some(plan),
            Stream::Chaos,
            seed ^ 0x9E37_79B9,
            CHAOS_CALLS,
        );
        let label = format!("seed={seed:#x}/workers={workers}");
        assert!(fired > 0, "{label}: no scheduled fault fired");
        fired_total += fired;

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
    assert!(
        fired_total >= CHAOS_FIRED_FLOOR,
        "only {fired_total} scheduled faults fired (floor {CHAOS_FIRED_FLOOR})"
    );
}
