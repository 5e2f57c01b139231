//! Property test: worker caches never serve stale entries after
//! `delete_world` returns.
//!
//! A seeded PRNG drives randomised schedules — worker counts, warm-up
//! traffic, delete timing — against a live pool. The OS scheduler adds
//! real nondeterminism on top; the invariant must hold under every
//! interleaving: a call submitted strictly *after* the delete was
//! logged for the workers to pull may never complete against the dead
//! world, no matter which worker (or thief) picks it up or how warm that
//! worker's private WT/IWT caches were.
//!
//! Post-delete calls are tagged with unique `work_cycles` markers so the
//! drained outcomes can be matched back to their submission point.

use machine::rng::SplitMix64;
use xover_runtime::{CallRequest, CallVerdict, RuntimeConfig, WorldCallService};

/// Marker base far above any warm-up call's work so outcomes are
/// attributable: warm-up bodies stay below 3_000 cycles.
const MARKER_BASE: u64 = 1_000_000;

#[test]
fn deleted_worlds_fail_on_every_worker_across_seeded_schedules() {
    for seed in [3u64, 0xBADC_0FFE, 0x00C0_FFEE, 41] {
        let mut rng = SplitMix64::new(seed);
        let workers = 1 + rng.below(4) as usize;
        let mut svc = WorldCallService::new(RuntimeConfig {
            workers,
            queue_capacity: 4096,
            ..RuntimeConfig::default()
        });
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named("prop"))
            .unwrap();
        let mut worlds = Vec::new();
        for w in 0..6u64 {
            worlds.push(
                svc.register_guest_kernel(vm, 0x1000 * (w + 1), 0xFFFF_8000)
                    .unwrap(),
            );
        }
        let caller = svc.register_guest_user(vm, 0x9_0000, 0x40_0000).unwrap();
        svc.start();

        let mut marker = MARKER_BASE;
        let mut must_fail = Vec::new(); // (marker, deleted wid)
        let mut live: Vec<_> = worlds.clone();
        while live.len() > 2 {
            // Warm every worker's caches with random traffic.
            for _ in 0..rng.below(64) {
                let callee = live[rng.below(live.len() as u64) as usize];
                svc.submit(CallRequest::new(caller, callee, 100 + rng.below(2_000), 10))
                    .unwrap();
            }
            // Delete a random live world...
            let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
            svc.delete_world(victim).unwrap();
            // ...then aim marked calls at it, strictly after the
            // delete returned. Every one must fail.
            for _ in 0..1 + rng.below(8) {
                svc.submit(CallRequest::new(caller, victim, marker, 10))
                    .unwrap();
                must_fail.push((marker, victim));
                marker += 1;
            }
        }
        let report = svc.drain();
        assert!(!must_fail.is_empty());
        for (marker, wid) in must_fail {
            let outcome = report
                .outcomes
                .iter()
                .find(|o| o.request.work_cycles == marker)
                .expect("marked call was serviced");
            assert!(
                matches!(outcome.verdict, CallVerdict::Failed(_)),
                "call {marker} against deleted {wid:?} returned {:?} \
                 (seed {seed:#x}, {workers} workers) — stale cache entry",
                outcome.verdict,
            );
        }
    }
}
