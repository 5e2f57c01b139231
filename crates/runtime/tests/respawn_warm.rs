//! Respawn warming: after a crash-respawn tears down a worker's private
//! WT/IWT caches, [`RuntimeConfig::prefetch_warm_on_respawn`] pre-fills
//! the fresh unit from recent call history via priced `manage_wtc` fills,
//! so the first post-respawn calls hit instead of eating cold miss
//! faults. The before/after recovery-latency sample lands in
//! `SupervisorSummary` either way, making the two configurations
//! directly comparable.

use machine::fault::{FaultKind, FaultPlan, FaultSite};
use xover_runtime::{CallRequest, CallVerdict, RuntimeConfig, ServiceReport, WorldCallService};

const CALLS: u64 = 200;
const CRASH_AT_CYCLES: u64 = 150_000;

/// One hot (caller, callee) pair, single worker, submit-before-start:
/// fully deterministic in virtual time, with one crash mid-backlog.
fn run(warm: bool) -> ServiceReport {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers: 1,
        queue_capacity: CALLS as usize + 16,
        prefetch_warm_on_respawn: warm,
        ..RuntimeConfig::default()
    });
    let vm1 = svc
        .create_vm(hypervisor::vm::VmConfig::named("warm-a"))
        .expect("create vm");
    let vm2 = svc
        .create_vm(hypervisor::vm::VmConfig::named("warm-b"))
        .expect("create vm");
    let caller = svc
        .register_guest_user(vm1, 0x1000, 0x40_0000)
        .expect("register caller");
    let callee = svc
        .register_guest_kernel(vm2, 0x2000, 0xFFFF_8000)
        .expect("register callee");
    svc.set_fault_plan(FaultPlan::new().with(
        CRASH_AT_CYCLES,
        FaultSite::WorkerCrash,
        FaultKind::Crash,
    ));
    for tag in 0..CALLS {
        svc.submit(CallRequest::new(caller, callee, 2_000, 500).with_tag(tag))
            .expect("queue open");
    }
    svc.start();
    svc.drain()
}

#[test]
fn warming_cuts_post_respawn_recovery_latency() {
    let cold = run(false);
    let warm = run(true);

    for (label, report) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(
            report.supervisor.totals.respawns, 1,
            "{label}: the scheduled crash must respawn exactly once"
        );
        assert_eq!(
            report.outcomes.len() as u64,
            CALLS,
            "{label}: exactly one verdict per call, crash or not"
        );
        assert_eq!(report.completed, CALLS, "{label}: requeued batch completes");
        assert_eq!(
            report.supervisor.totals.post_respawn_latency_samples.len(),
            1,
            "{label}: one respawn, one recovery sample"
        );
    }

    // Warming must not change what is serviced, only how fast the fresh
    // caches come back: identical verdict streams call for call.
    for (a, b) in cold.outcomes.iter().zip(warm.outcomes.iter()) {
        assert_eq!(a.request.tag, b.request.tag, "service order must match");
        assert_eq!(a.verdict, CallVerdict::Completed);
        assert_eq!(b.verdict, CallVerdict::Completed);
    }

    assert_eq!(
        cold.supervisor.totals.warm_fills, 0,
        "warming off must not fill anything"
    );
    assert!(
        warm.supervisor.totals.warm_fills >= 2,
        "warming must pre-fill at least the hot pair, got {}",
        warm.supervisor.totals.warm_fills
    );

    // The before/after comparison: the warmed first-after-respawn call
    // hits the pre-filled WT/IWT entries instead of taking cold miss
    // faults, so its on-CPU latency is strictly lower.
    let cold_sample = cold.supervisor.totals.post_respawn_latency_samples[0];
    let warm_sample = warm.supervisor.totals.post_respawn_latency_samples[0];
    assert!(
        warm_sample < cold_sample,
        "warmed recovery {warm_sample} must undercut cold recovery {cold_sample}"
    );
    assert!(
        warm.supervisor.totals.mean_post_respawn_latency_cycles() == warm_sample as f64,
        "one sample, mean equals it"
    );
    assert!(cold
        .supervisor
        .totals
        .mean_post_respawn_latency_cycles()
        .is_finite());
}

#[test]
fn no_crash_means_no_samples_and_no_fills() {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers: 1,
        prefetch_warm_on_respawn: true,
        ..RuntimeConfig::default()
    });
    let vm1 = svc
        .create_vm(hypervisor::vm::VmConfig::named("quiet-a"))
        .expect("create vm");
    let vm2 = svc
        .create_vm(hypervisor::vm::VmConfig::named("quiet-b"))
        .expect("create vm");
    let caller = svc
        .register_guest_user(vm1, 0x1000, 0x40_0000)
        .expect("register caller");
    let callee = svc
        .register_guest_kernel(vm2, 0x2000, 0xFFFF_8000)
        .expect("register callee");
    for _ in 0..32 {
        svc.submit(CallRequest::new(caller, callee, 1_000, 100))
            .expect("queue open");
    }
    svc.start();
    let report = svc.drain();
    assert_eq!(report.completed, 32);
    assert_eq!(report.supervisor.totals.warm_fills, 0);
    assert!(report
        .supervisor
        .totals
        .post_respawn_latency_samples
        .is_empty());
    assert!(report
        .supervisor
        .totals
        .mean_post_respawn_latency_cycles()
        .is_nan());
}
