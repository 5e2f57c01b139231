//! Authorization-plane properties: the xover-authz contract.
//!
//! Four invariants pin the callee-side policy engine to the behavior
//! DESIGN.md §14 promises:
//!
//! 1. **Off and permissive are both free.** The default (`Off`) builds
//!    no policy at all; a permissive enforcing policy checks everything
//!    and denies nothing. Both must be bit-for-bit cycle-exact against
//!    each other, because authz checks are host-side bookkeeping that
//!    charge zero virtual cycles — pinned by the plane parity table
//!    (`tests/parity.rs`).
//! 2. **Default-closed policies deny ungranted callers as verdicts.**
//!    Every refusal is a typed [`CallVerdict::Denied`] outcome that
//!    participates in verdict conservation, lands in the per-tenant
//!    ledger, and pairs one-to-one with an `AuthzDeny` obs event
//!    (checked by `obs::verify`'s `authz-denies-vs-verdicts`).
//! 3. **Revocation invalidates within one batch.** Work submitted after
//!    a revocation — including against a still-warm switchless pair —
//!    resolves `Revoked`, and the worker witnesses the generation bump
//!    as a `Revocation` event.
//! 4. **A deleted world's WID never authorizes again.** Deleting a
//!    world auto-revokes its WID; re-registering the same guest context
//!    mints a *new* WID (WIDs are never reused), and replays of the old
//!    one are refused even under a default-open policy.

mod common;

use std::time::Duration;

use common::build_service;
use xover_runtime::{
    trace_doc, AuthzConfig, CallError, CallRequest, CallVerdict, EventKind, ObsConfig,
    RateLimitConfig, RuntimeConfig, ServiceReport, SwitchlessConfig, WorldCallService,
};

fn conserved(report: &ServiceReport) -> u64 {
    report.completed + report.timed_out + report.failed + report.dead_lettered + report.denied
}

/// Invariant 2: under a default-closed policy, ungranted callers get
/// `Denied` verdicts that conserve, bill to the right tenant, and pair
/// one-to-one with `AuthzDeny` events in the recording. The policy is
/// the only check and runs once per call before any path is picked, so
/// with switchless on (every world has a channel) a denial never rides
/// a channel while the granted pair still coalesces.
#[test]
fn ungranted_callers_are_denied_with_paired_events() {
    const CALLS: u64 = 120;
    for switchless in [SwitchlessConfig::default(), SwitchlessConfig::on()] {
        let (svc, worlds) = build_service(RuntimeConfig {
            workers: 2,
            queue_capacity: CALLS as usize + 16,
            switchless,
            authz: AuthzConfig::enforcing(),
            obs: ObsConfig::ring(),
            ..RuntimeConfig::default()
        });
        let label = format!("{switchless:?}");
        let policy = svc.authz().expect("enforcing builds a policy").clone();
        policy.grant_all(worlds[0]); // tenant 1's user world may call anyone
        for tag in 0..CALLS {
            // Even tags: granted caller (tenant 1). Odd: ungranted (tenant 2).
            let (caller, callee, tenant) = if tag % 2 == 0 {
                (worlds[0], worlds[1], 1)
            } else {
                (worlds[2], worlds[3], 2)
            };
            svc.submit(
                CallRequest::new(caller, callee, 1_000, 300)
                    .with_tag(tag)
                    .with_tenant(tenant),
            )
            .expect("queue open");
        }
        let mut svc = svc;
        svc.start();
        let report = svc.drain();

        assert_eq!(report.outcomes.len() as u64, CALLS, "{label}");
        assert_eq!(conserved(&report), CALLS, "{label}: denied must conserve");
        assert_eq!(report.denied, CALLS / 2, "{label}");
        assert_eq!(report.completed, CALLS / 2, "{label}");
        for o in &report.outcomes {
            match &o.verdict {
                CallVerdict::Completed => assert_eq!(o.request.caller, worlds[0], "{label}"),
                CallVerdict::Denied(CallError::Denied { caller, .. }) => {
                    assert_eq!(*caller, worlds[2], "{label}");
                    assert_eq!(o.latency_cycles, 0, "{label}: a denial executes nothing");
                    assert!(!o.coalesced, "{label}: a denial never rides a channel");
                }
                other => panic!("{label}: unexpected verdict {other:?}"),
            }
        }
        if switchless.enabled() {
            assert!(
                report.switchless.drain.coalesced_calls > 0,
                "{label}: the granted pair still coalesces"
            );
        }
        let tenant = |id: u32| {
            report
                .per_tenant
                .iter()
                .find(|t| t.tenant == id)
                .unwrap_or_else(|| panic!("{label}: tenant {id} billed"))
        };
        assert_eq!(
            tenant(2).denied,
            CALLS / 2,
            "{label}: denials bill to the denied tenant"
        );
        assert_eq!(tenant(1).denied, 0, "{label}");
        assert_eq!(report.authz.denied, CALLS / 2, "{label}");
        assert_eq!(report.authz.checks, CALLS, "{label}: one check per call");

        // Recording: one AuthzDeny per denial, and the exporter's own
        // deny-vs-verdict pairing check agrees.
        let doc = trace_doc("authz_props", &report, 3.4).expect("obs enabled");
        let denies = doc
            .events
            .iter()
            .filter(|e| e.kind == EventKind::AuthzDeny)
            .count() as u64;
        assert_eq!(denies, report.denied, "{label}");
        let conservation = xover_runtime::verify(&doc);
        assert!(
            conservation.ok(),
            "{label}: conservation checks failed: {:?}",
            conservation.failures()
        );
        assert!(
            conservation
                .checks
                .iter()
                .any(|c| c.name == "authz-denies-vs-verdicts"),
            "{label}: the deny-pairing check must have run on a denying trace"
        );
    }
}

/// Invariant 3: revocation lands within one batch — calls submitted
/// after `revoke` resolve `Revoked` even though the pair was warm and
/// switchless-resident, and the worker records the generation bump.
#[test]
fn revocation_invalidates_warm_work_and_is_witnessed() {
    let (svc, worlds) = build_service(RuntimeConfig {
        workers: 1,
        queue_capacity: 256,
        authz: AuthzConfig::permissive(),
        obs: ObsConfig::ring(),
        ..RuntimeConfig::default()
    });
    let policy = svc.authz().expect("policy").clone();
    let caller = worlds[0];
    let callee = worlds[1];
    let mut svc = svc;
    svc.start();

    // Warm the pair (residency, caches, call history).
    for _ in 0..16 {
        svc.submit(CallRequest::new(caller, callee, 800, 200).with_tag(1))
            .expect("queue open");
    }
    std::thread::sleep(Duration::from_millis(300));

    // Revoke mid-run, then aim more calls at the same warm pair.
    let generation = policy.revoke(caller);
    assert_eq!(generation, 1);
    for _ in 0..8 {
        svc.submit(CallRequest::new(caller, callee, 800, 200).with_tag(2))
            .expect("queue open");
    }
    std::thread::sleep(Duration::from_millis(300));
    let report = svc.drain();

    for o in report.outcomes.iter().filter(|o| o.request.tag == 1) {
        assert_eq!(o.verdict, CallVerdict::Completed, "pre-revoke work runs");
    }
    for o in report.outcomes.iter().filter(|o| o.request.tag == 2) {
        assert!(
            matches!(
                o.verdict,
                CallVerdict::Denied(CallError::Revoked { generation: 1, .. })
            ),
            "post-revoke work must be refused, got {:?}",
            o.verdict
        );
    }
    assert_eq!(report.authz.revocations, 1);
    assert_eq!(report.authz.revoked_denies, 8);
    assert_eq!(conserved(&report), report.outcomes.len() as u64);

    // The worker witnessed the generation edge at a batch boundary.
    let doc = trace_doc("authz_props", &report, 3.4).expect("obs enabled");
    let revocations: Vec<_> = doc
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Revocation)
        .collect();
    assert_eq!(revocations.len(), 1, "one generation bump, one witness");
    assert_eq!(revocations[0].a, 1, "event carries the new generation");
    assert_eq!(revocations[0].b, 0, "and the generation it replaced");
}

/// Rate limits price floods in virtual time: a caller with a private
/// burst-N bucket and no refill gets exactly N calls through, the rest
/// refused `RateLimited` — all conserved, none executed.
#[test]
fn token_bucket_throttles_floods_as_verdicts() {
    const FLOOD: u64 = 32;
    const BURST: u64 = 5;
    let (svc, worlds) = build_service(RuntimeConfig {
        workers: 1,
        queue_capacity: FLOOD as usize + 16,
        authz: AuthzConfig::permissive(),
        ..RuntimeConfig::default()
    });
    let policy = svc.authz().expect("policy").clone();
    policy.set_rate(
        worlds[0],
        RateLimitConfig {
            burst: BURST,
            refill_per_mcycle: 0,
        },
    );
    for tag in 0..FLOOD {
        svc.submit(CallRequest::new(worlds[0], worlds[1], 500, 100).with_tag(tag))
            .expect("queue open");
    }
    let mut svc = svc;
    svc.start();
    let report = svc.drain();

    assert_eq!(report.completed, BURST, "exactly the burst gets through");
    assert_eq!(report.denied, FLOOD - BURST);
    assert_eq!(report.authz.rate_limited, FLOOD - BURST);
    assert_eq!(conserved(&report), FLOOD);
    for o in &report.outcomes {
        if let CallVerdict::Denied(err) = &o.verdict {
            assert!(matches!(err, CallError::RateLimited { .. }));
        }
    }
    // The other caller's bucket is untouched by the flood.
    assert!(policy.would_admit(worlds[2], worlds[3]));
}

/// Confused-deputy chains die at the policy: a granted deputy cannot
/// launder calls for an ungranted origin, and over-deep chains are cut
/// by the depth bound before any grant is consulted.
#[test]
fn deputy_chains_are_refused_end_to_end() {
    let (svc, worlds) = build_service(RuntimeConfig {
        workers: 1,
        queue_capacity: 64,
        authz: AuthzConfig::enforcing(),
        ..RuntimeConfig::default()
    });
    let policy = svc.authz().expect("policy").clone();
    policy.grant_all(worlds[0]); // the deputy
    policy.grant_all(worlds[2]); // an honest origin
                                 // Tag 0: honest relay — origin and deputy both granted.
    svc.submit(
        CallRequest::new(worlds[0], worlds[1], 500, 100)
            .via(worlds[2])
            .with_tag(0),
    )
    .expect("queue open");
    // Tag 1: laundering — ungranted origin rides the granted deputy.
    svc.submit(
        CallRequest::new(worlds[0], worlds[1], 500, 100)
            .via(worlds[3])
            .with_tag(1),
    )
    .expect("queue open");
    // Tag 2: over-deep chain (3 hops > max_chain_depth 2).
    svc.submit(
        CallRequest::new(worlds[0], worlds[1], 500, 100)
            .via(worlds[2])
            .via(worlds[2])
            .via(worlds[2])
            .with_tag(2),
    )
    .expect("queue open");
    let mut svc = svc;
    svc.start();
    let report = svc.drain();

    let verdict_of = |tag: u64| {
        &report
            .outcomes
            .iter()
            .find(|o| o.request.tag == tag)
            .expect("outcome present")
            .verdict
    };
    assert_eq!(verdict_of(0), &CallVerdict::Completed);
    assert!(matches!(
        verdict_of(1),
        CallVerdict::Denied(CallError::Denied { caller, .. }) if *caller == worlds[3]
    ));
    assert!(matches!(
        verdict_of(2),
        CallVerdict::Denied(CallError::ChainTooDeep { depth: 3, max: 2 })
    ));
    assert_eq!(report.authz.chain_too_deep, 1);
    assert_eq!(conserved(&report), 3);
}

/// Invariant 4 (the stale-WID property): deleting a
/// world revokes its WID; re-registering the same guest context mints a
/// fresh WID; and replays of the dead WID are refused `Revoked` even
/// under a default-open policy — the successor never inherits, the
/// predecessor never resurrects.
#[test]
fn deleted_wid_never_authorizes_across_refault() {
    let config = RuntimeConfig {
        workers: 1,
        queue_capacity: 256,
        authz: AuthzConfig::permissive(),
        ..RuntimeConfig::default()
    };
    let mut svc = WorldCallService::new(config);
    let vm = svc
        .create_vm(hypervisor::vm::VmConfig::named("stale"))
        .expect("create vm");
    let old = svc
        .register_guest_user(vm, 0x1000, 0x40_0000)
        .expect("register caller");
    let callee = svc
        .register_guest_kernel(vm, 0x10_0000, 0xFFFF_8000)
        .expect("register callee");
    svc.start();

    // The old identity works while it lives.
    svc.submit(CallRequest::new(old, callee, 500, 100).with_tag(0))
        .expect("queue open");
    std::thread::sleep(Duration::from_millis(200));

    // Delete, then re-register the *same* guest context. The table
    // slot refaults; the WID must not.
    svc.delete_world(old).expect("delete caller");
    let successor = svc
        .register_guest_user(vm, 0x1000, 0x40_0000)
        .expect("re-register same context");
    assert_ne!(successor.raw(), old.raw(), "WIDs are never reused");

    // Replay the corpse: denied by revocation — not a table miss,
    // a policy refusal, even though this policy is default-open.
    svc.submit(CallRequest::new(old, callee, 500, 100).with_tag(1))
        .expect("queue open");
    // The successor is its own principal and passes default-allow.
    svc.submit(CallRequest::new(successor, callee, 500, 100).with_tag(2))
        .expect("queue open");
    let report = svc.drain();

    let verdict_of = |tag: u64| {
        &report
            .outcomes
            .iter()
            .find(|o| o.request.tag == tag)
            .expect("outcome present")
            .verdict
    };
    assert_eq!(verdict_of(0), &CallVerdict::Completed);
    assert!(
        matches!(
            verdict_of(1),
            CallVerdict::Denied(CallError::Revoked { .. })
        ),
        "stale WID must be refused as revoked, got {:?}",
        verdict_of(1)
    );
    assert_eq!(
        verdict_of(2),
        &CallVerdict::Completed,
        "the successor authorizes as itself"
    );
    assert_eq!(report.authz.revocations, 1, "delete auto-revokes");
    assert_eq!(conserved(&report), 3);
}
