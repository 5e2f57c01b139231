//! Worker respawn: an injected crash tears down a worker's private
//! call unit mid-backlog. The worker rebuilds it with cold WT/IWT
//! caches and requeues the un-serviced batch whole, so every call still
//! gets exactly one verdict, in submission order.

use machine::fault::{FaultKind, FaultPlan, FaultSite};
use xover_runtime::{CallRequest, CallVerdict, RuntimeConfig, WorldCallService};

const CALLS: u64 = 200;
const CRASH_AT_CYCLES: u64 = 150_000;

/// One hot (caller, callee) pair, single worker, submit-before-start:
/// fully deterministic in virtual time, with one crash mid-backlog.
#[test]
fn one_crash_respawns_once_and_keeps_every_verdict_in_order() {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers: 1,
        queue_capacity: CALLS as usize + 16,
        ..RuntimeConfig::default()
    });
    let vm1 = svc
        .create_vm(hypervisor::vm::VmConfig::named("respawn-a"))
        .expect("create vm");
    let vm2 = svc
        .create_vm(hypervisor::vm::VmConfig::named("respawn-b"))
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
    let report = svc.drain();

    assert_eq!(
        report.supervisor.totals.respawns, 1,
        "the scheduled crash must respawn exactly once"
    );
    assert_eq!(
        report.outcomes.len() as u64,
        CALLS,
        "exactly one verdict per call, crash or not"
    );
    assert_eq!(report.completed, CALLS, "requeued batch completes");
    // The requeued batch keeps its place: service order is submission
    // order, call for call.
    for (tag, outcome) in (0..CALLS).zip(&report.outcomes) {
        assert_eq!(outcome.request.tag, tag, "service order must match");
        assert_eq!(outcome.verdict, CallVerdict::Completed);
    }
}
