//! Adversarial-tenant harness for the authorization plane: emit
//! `BENCH_authz.json`.
//!
//! Drives seeded [`workloads::adversary`] schedules — forged and stale
//! WIDs, quota and channel floods, confused-deputy chains, cache-set
//! probes — against an enforcing [`runtime::AuthzPolicy`], with and
//! without the fault plane injecting chaos underneath, and reports the
//! numbers the PR's claims are made on:
//!
//! * **Parity** — `AuthzConfig::off()` (no policy object) and a
//!   permissive enforcing policy are bit-for-bit cycle-exact against
//!   each other on a clean stream: same verdicts, same latencies, same
//!   cache meters, same total cycles. Asserted exactly.
//! * **Adversary × chaos matrix** — 8 seeds × {clean, faulted}: every
//!   must-deny adversarial call resolves to a `Denied`-family verdict
//!   (zero policy bypasses), every submitted call resolves exactly once
//!   (zero lost, zero duplicated), and the verdict counters partition
//!   the stream — all asserted per run, chaos or no chaos.
//! * **Deny families** — the matrix exercises all four refusal kinds
//!   (grant, revoked, rate-limited, chain-too-deep) plus host-side
//!   quota refusals; each must be observed at least once.
//! * **Revocation latency** — a mid-run revocation of a warm, resident
//!   caller is witnessed by the worker as a `Revocation` event, and no
//!   more than one batch of that caller's calls completes after the
//!   witness.
//!
//! Usage: `authz [output-path] [--trace-out PATH]` (default
//! `BENCH_authz.json`). With `--trace-out` the revocation probe's
//! recording is written as a combined Perfetto/recording document.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

use crossover::world::Wid;
use machine::fault::FaultPlan;
use machine::rng::SplitMix64;
use runtime::{
    trace_doc, AuthzConfig, CallError, CallRequest, CallVerdict, EventKind, ObsConfig,
    RateLimitConfig, RuntimeConfig, ServiceReport, SwitchlessConfig, WorldCallService,
};
use workloads::adversary::{AdversaryPlan, AttackKind};

const FREQUENCY_GHZ: f64 = 3.4;

const PARITY_CALLS: u64 = 2_000;
const LEGIT_CALLS: u64 = 800;
const ADV_OPS: usize = 48;
const GHOSTS: usize = 4;
const BATCH_MAX: usize = 32;
const HORIZON_CYCLES: u64 = 10_000_000;
const STREAM_SEED: u64 = 0xA0_7421;
const WORKING_SET_PAGES: u64 = 8;
/// Tags for adversarial calls the policy must refuse.
const DENY_TAG_BASE: u64 = 1 << 32;
/// Tags for the metered adversary (granted but rate-limited): these may
/// complete inside the token budget, so they are conservation-checked
/// but not bypass-checked.
const METERED_TAG_BASE: u64 = 1 << 33;
/// The metered adversary's contract: a tiny burst, a trickle refill.
const METERED_RATE: RateLimitConfig = RateLimitConfig {
    burst: 3,
    refill_per_mcycle: 1,
};
const SEEDS: [u64; 8] = [
    0x0001,
    0xBEEF,
    0x5EED_CAFE,
    0xDEAD_10CC,
    0x0F00_BA44,
    0x7777_7777,
    0x0C0F_FEE0,
    0x41,
];

/// The fault-bench topology (two tenants × user+kernel, channels and
/// working sets everywhere) plus the adversary's own VM: an ungranted
/// world, a granted-but-metered world, and a set of ghosts — worlds
/// registered and deleted before the run, whose WIDs the stale-replay
/// attack resurrects.
struct Harness {
    svc: WorldCallService,
    legit: Vec<Wid>,
    ghosts: Vec<Wid>,
    adv: Wid,
    metered: Wid,
    adv_vm: hypervisor::vm::VmId,
    /// One past the highest WID minted at build time; forged WIDs are
    /// offset far beyond it so quota-flood registrations never collide.
    forge_base: u64,
}

fn build(workers: usize, authz: AuthzConfig, obs: ObsConfig) -> Harness {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers,
        queue_capacity: 8_192,
        batch_max: BATCH_MAX,
        switchless: SwitchlessConfig::on(),
        authz,
        obs,
        ..RuntimeConfig::default()
    });
    let mut legit = Vec::new();
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
        legit.push(user);
        legit.push(kernel);
    }
    let adv_vm = svc
        .create_vm(hypervisor::vm::VmConfig::named("adversary"))
        .expect("create adversary vm");
    let adv = svc
        .register_guest_user(adv_vm, 0xBAD0_0000, 0x40_0000)
        .expect("register adversary world");
    let metered = svc
        .register_guest_kernel(adv_vm, 0xBAD1_0000, 0xFFFF_8000)
        .expect("register metered world");
    let mut ghosts = Vec::new();
    for g in 0..GHOSTS as u64 {
        let ghost = svc
            .register_guest_user(adv_vm, 0xDEAD_0000 + 0x1000 * g, 0x40_0000)
            .expect("register ghost world");
        ghosts.push(ghost);
    }
    if let Some(policy) = svc.authz() {
        for &w in &legit {
            policy.grant_all(w);
        }
        policy.grant_all(metered);
        policy.set_rate(metered, METERED_RATE);
    }
    // Delete the ghosts *after* grants exist: with an enforcing policy
    // installed, `delete_world` auto-revokes, pinning each ghost WID
    // dead for good.
    for &ghost in &ghosts {
        svc.delete_world(ghost).expect("delete ghost");
    }
    let forge_base = ghosts.iter().map(|w| w.raw()).max().unwrap_or(0) + 1;
    Harness {
        svc,
        legit,
        ghosts,
        adv,
        metered,
        adv_vm,
        forge_base,
    }
}

fn legit_request(rng: &mut SplitMix64, legit: &[Wid], tag: u64) -> CallRequest {
    let (caller, callee) = loop {
        let (a, b) = if rng.flip() {
            (legit[0], legit[1])
        } else {
            (
                legit[rng.below(legit.len() as u64) as usize],
                legit[rng.below(legit.len() as u64) as usize],
            )
        };
        if a != b {
            break (a, b);
        }
    };
    let work_cycles = 2_000 + rng.below(2_000);
    CallRequest::new(caller, callee, work_cycles, work_cycles / 3)
        .with_touches(rng.below(2 * WORKING_SET_PAGES))
        .with_tag(tag)
        .with_tenant(1 + (tag % 2) as u32)
}

/// What one lowered adversary schedule submitted.
#[derive(Default)]
struct Lowered {
    must_deny: u64,
    metered: u64,
    quota_attempts: u64,
    quota_refusals: u64,
}

/// Lowers abstract [`workloads::adversary`] ops onto the harness:
/// forged/stale callers, floods, deputy chains and probes become tagged
/// `CallRequest`s; quota floods become host-side registration attempts.
fn lower(h: &Harness, plan: &AdversaryPlan) -> Lowered {
    let mut out = Lowered::default();
    let mut quota_cr3 = 0u64;
    let victims = &h.legit;
    fn submit_deny(h: &Harness, out: &mut Lowered, req: CallRequest) {
        h.svc
            .submit(req.with_tag(DENY_TAG_BASE + out.must_deny).with_tenant(9))
            .expect("queue open");
        out.must_deny += 1;
    }
    for op in plan.ops() {
        let victim = victims[op.victim % victims.len()];
        match op.kind {
            AttackKind::ForgedWid => {
                // A WID far past anything ever minted: identity forgery.
                let forged = Wid::from_raw(h.forge_base + 1_000_000 + op.wid_offset);
                submit_deny(h, &mut out, CallRequest::new(forged, victim, 1_000, 300));
            }
            AttackKind::StaleReplay => {
                // A deleted (and therefore revoked) WID, replayed.
                let ghost = h.ghosts[op.wid_offset as usize % h.ghosts.len()];
                submit_deny(h, &mut out, CallRequest::new(ghost, victim, 1_000, 300));
            }
            AttackKind::QuotaExhaust => {
                for _ in 0..op.burst {
                    out.quota_attempts += 1;
                    quota_cr3 += 1;
                    if h.svc
                        .register_guest_user(h.adv_vm, 0xF100_0000 + 0x1000 * quota_cr3, 0x40_0000)
                        .is_err()
                    {
                        out.quota_refusals += 1;
                    }
                }
            }
            AttackKind::ChannelFlood => {
                // The metered adversary hammers one victim channel; the
                // token bucket lets the contract burst through and
                // refuses the rest.
                for _ in 0..op.burst {
                    h.svc
                        .submit(
                            CallRequest::new(h.metered, victim, 1_000, 300)
                                .with_tag(METERED_TAG_BASE + out.metered)
                                .with_tenant(9),
                        )
                        .expect("queue open");
                    out.metered += 1;
                }
            }
            AttackKind::ConfusedDeputy => {
                // A granted deputy laundering the ungranted adversary's
                // authority through a provenance chain.
                let deputy = victim;
                let callee = victims[(op.victim + 1) % victims.len()];
                let mut req = CallRequest::new(deputy, callee, 1_000, 300);
                for _ in 0..op.hops {
                    req = req.via(h.adv);
                }
                submit_deny(h, &mut out, req);
            }
            AttackKind::CacheProbe => {
                // Probe one WT/IWT set by hammering the victim that maps
                // to it from the ungranted world.
                let target = victims[op.set_index as usize % victims.len()];
                for _ in 0..op.burst {
                    submit_deny(h, &mut out, CallRequest::new(h.adv, target, 600, 200));
                }
            }
        }
    }
    out
}

/// Exactly-one-verdict over sparse tags. Returns (lost, duplicated).
fn conservation(report: &ServiceReport, expected: &[u64]) -> (u64, u64) {
    let mut seen: HashMap<u64, u32> = HashMap::new();
    for o in &report.outcomes {
        *seen.entry(o.request.tag).or_insert(0) += 1;
    }
    let lost = expected.iter().filter(|t| !seen.contains_key(t)).count() as u64;
    let dup = seen.values().filter(|&&c| c > 1).count() as u64;
    (lost, dup)
}

struct Row {
    seed: u64,
    faulted: bool,
    workers: usize,
    legit_completed: u64,
    denied: u64,
    bypasses: u64,
    quota_refusals: u64,
    checks: u64,
    makespan_cycles: u64,
}

fn matrix_run(seed: u64, faulted: bool, workers: usize) -> (Row, ServiceReport) {
    let mut h = build(workers, AuthzConfig::enforcing(), ObsConfig::off());
    if faulted {
        let salt = seed.rotate_left(17) ^ 0x00DD_F00D;
        h.svc
            .set_fault_plan(FaultPlan::from_seed(salt, HORIZON_CYCLES, 3));
    }
    let mut rng = SplitMix64::new(STREAM_SEED ^ seed);
    let mut expected: Vec<u64> = Vec::new();
    for tag in 0..LEGIT_CALLS {
        h.svc
            .submit(legit_request(&mut rng, &h.legit, tag))
            .expect("queue open");
        expected.push(tag);
    }
    let plan = AdversaryPlan::from_seed(seed, ADV_OPS, h.legit.len(), HORIZON_CYCLES);
    let lowered = lower(&h, &plan);
    expected.extend((0..lowered.must_deny).map(|i| DENY_TAG_BASE + i));
    expected.extend((0..lowered.metered).map(|i| METERED_TAG_BASE + i));
    h.svc.start();
    let report = h.svc.drain();

    // Zero policy bypasses: every must-deny adversarial call resolved to
    // a Denied-family verdict — it never reached execution, chaos or not.
    let bypasses = report
        .outcomes
        .iter()
        .filter(|o| {
            o.request.tag >= DENY_TAG_BASE
                && o.request.tag < METERED_TAG_BASE
                && !matches!(o.verdict, CallVerdict::Denied(_))
        })
        .count() as u64;
    let tag = format!("seed {seed:#x} faulted={faulted}");
    assert_eq!(bypasses, 0, "{tag}: adversarial calls bypassed the policy");
    let (lost, dup) = conservation(&report, &expected);
    assert_eq!(lost, 0, "{tag}: lost verdicts");
    assert_eq!(dup, 0, "{tag}: duplicated verdicts");
    assert_eq!(
        report.completed + report.timed_out + report.failed + report.dead_lettered + report.denied,
        expected.len() as u64,
        "{tag}: verdict counters must partition the stream"
    );
    assert_eq!(report.supervisor.worker_panics, 0, "{tag}: panics");
    let legit_completed = report
        .outcomes
        .iter()
        .filter(|o| o.request.tag < LEGIT_CALLS && o.verdict == CallVerdict::Completed)
        .count() as u64;
    eprintln!(
        "adversary seed {seed:#010x} {}  w={workers}  legit-ok {legit_completed:>3}  \
         denied {:>3}  bypasses 0  quota-refused {}",
        if faulted { "chaos" } else { "clean" },
        report.denied,
        lowered.quota_refusals,
    );
    let row = Row {
        seed,
        faulted,
        workers,
        legit_completed,
        denied: report.denied,
        bypasses,
        quota_refusals: lowered.quota_refusals,
        checks: report.authz.checks,
        makespan_cycles: report.smp.makespan_cycles(),
    };
    (row, report)
}

/// Parity: a clean legit-only stream under `Off` and under a permissive
/// enforcing policy, zipped verdict for verdict and meter for meter.
fn parity() -> (u64, u64) {
    let run = |authz: AuthzConfig| {
        let mut h = build(1, authz, ObsConfig::off());
        let mut rng = SplitMix64::new(STREAM_SEED);
        for tag in 0..PARITY_CALLS {
            h.svc
                .submit(legit_request(&mut rng, &h.legit, tag))
                .expect("queue open");
        }
        h.svc.start();
        h.svc.drain()
    };
    let off = run(AuthzConfig::off());
    let open = run(AuthzConfig::permissive());
    assert_eq!(off.outcomes.len(), open.outcomes.len());
    for (i, (a, b)) in off.outcomes.iter().zip(open.outcomes.iter()).enumerate() {
        assert_eq!(a.request, b.request, "authz parity: request order at {i}");
        assert_eq!(a.verdict, b.verdict, "authz parity: verdict at {i}");
        assert_eq!(a.latency_cycles, b.latency_cycles, "authz parity: latency");
        assert_eq!(a.coalesced, b.coalesced, "authz parity: execution path");
    }
    assert_eq!(off.smp.total_cycles(), open.smp.total_cycles());
    assert_eq!(off.smp.makespan_cycles(), open.smp.makespan_cycles());
    assert_eq!(off.wt, open.wt, "authz parity: WT meter");
    assert_eq!(off.iwt, open.iwt, "authz parity: IWT meter");
    assert_eq!(off.tlb, open.tlb, "authz parity: TLB meter");
    assert_eq!(
        off.switchless.world_calls, open.switchless.world_calls,
        "authz parity: world calls"
    );
    assert_eq!(open.authz.total_denied(), 0);
    assert_eq!(open.authz.checks, PARITY_CALLS);
    (off.smp.total_cycles(), open.authz.checks)
}

/// Revocation latency: revoke a warm, switchless-resident caller
/// mid-run; the worker must witness the generation bump and complete at
/// most one more batch of that caller's calls after the witness. With
/// `trace_out` the probe's recording is written as a combined
/// Perfetto/recording document.
fn revocation_probe(trace_out: Option<&str>) -> (u64, u64) {
    let mut h = build(1, AuthzConfig::permissive(), ObsConfig::ring());
    let policy = h.svc.authz().expect("policy").clone();
    let (caller, callee) = (h.legit[0], h.legit[1]);
    h.svc.start();
    for _ in 0..64 {
        h.svc
            .submit(CallRequest::new(caller, callee, 800, 200).with_tag(1))
            .expect("queue open");
    }
    std::thread::sleep(Duration::from_millis(300));
    // The ghost deletions at build time already bumped the generation
    // (delete auto-revokes), so assert relative to the current clock.
    let before = policy.generation();
    let generation = policy.revoke(caller);
    assert_eq!(generation, before + 1);
    for _ in 0..64 {
        h.svc
            .submit(CallRequest::new(caller, callee, 800, 200).with_tag(2))
            .expect("queue open");
    }
    std::thread::sleep(Duration::from_millis(300));
    let report = h.svc.drain();
    for o in report.outcomes.iter().filter(|o| o.request.tag == 2) {
        assert!(
            matches!(
                o.verdict,
                CallVerdict::Denied(CallError::Revoked { generation: g, .. }) if g == generation
            ),
            "post-revoke call must be refused, got {:?}",
            o.verdict
        );
    }
    let doc = trace_doc("authz revocation", &report, FREQUENCY_GHZ).expect("obs on");
    let witness_ts = doc
        .events
        .iter()
        .find(|e| e.kind == EventKind::Revocation)
        .expect("the worker must witness the revocation")
        .ts;
    // Every call in this run is the revoked caller's, so completions
    // after the witness are exactly the overrun we are bounding.
    let after_witness = doc
        .events
        .iter()
        .filter(|e| e.kind == EventKind::RequestVerdict && e.b == 0 && e.ts > witness_ts)
        .count() as u64;
    assert!(
        after_witness <= BATCH_MAX as u64,
        "revocation overran one batch: {after_witness} completions after the witness"
    );
    if let Some(trace_path) = trace_out {
        std::fs::write(trace_path, doc.render_json()).expect("write trace json");
        eprintln!("wrote {trace_path} ({} events)", doc.events.len());
    }
    (after_witness, witness_ts)
}

fn main() {
    let mut out_path = "BENCH_authz.json".to_string();
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out needs a path")),
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            positional => out_path = positional.to_string(),
        }
    }

    // ---- Parity: the plane is free when it denies nothing. -----------
    let (parity_cycles, parity_checks) = parity();
    eprintln!(
        "parity: {PARITY_CALLS} calls, {parity_cycles} cycles, off == permissive exact \
         ({parity_checks} checks charged zero cycles)"
    );

    // ---- Adversary × chaos matrix. -----------------------------------
    let mut rows = Vec::new();
    let mut totals = runtime::AuthzSummary::default();
    let mut quota_attempts = 0u64;
    for (i, seed) in SEEDS.into_iter().enumerate() {
        for faulted in [false, true] {
            let workers = [1, 2, 4, 8][i % 4];
            let (row, report) = matrix_run(seed, faulted, workers);
            totals.checks += report.authz.checks;
            totals.denied += report.authz.denied;
            totals.revoked_denies += report.authz.revoked_denies;
            totals.rate_limited += report.authz.rate_limited;
            totals.chain_too_deep += report.authz.chain_too_deep;
            totals.revocations += report.authz.revocations;
            quota_attempts += row.quota_refusals;
            rows.push(row);
        }
    }
    // Every refusal family must actually fire across the matrix — a
    // family the adversary can't trigger is a family nothing tests.
    assert!(totals.denied > 0, "grant denials never fired");
    assert!(totals.revoked_denies > 0, "stale replays never fired");
    assert!(totals.rate_limited > 0, "rate limiting never fired");
    assert!(totals.chain_too_deep > 0, "chain bound never fired");
    assert!(quota_attempts > 0, "quota refusals never fired");
    let denied_total: u64 = rows.iter().map(|r| r.denied).sum();
    eprintln!(
        "matrix: {} runs, 0 bypasses, 0 lost, {denied_total} denied \
         (grant {} revoked {} rate {} chain {})",
        rows.len(),
        totals.denied,
        totals.revoked_denies,
        totals.rate_limited,
        totals.chain_too_deep
    );

    // ---- Revocation latency. -----------------------------------------
    let (after_witness, witness_ts) = revocation_probe(trace_out.as_deref());
    eprintln!(
        "revocation: witnessed at ts {witness_ts}, {after_witness} completions after \
         the witness (bound: one batch of {BATCH_MAX})"
    );

    // ---- Emit the JSON document. -------------------------------------
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"benchmark\": \"xover adversarial tenants vs the authorization plane\",\n\
         \x20 \"parity\": {{\n\
         \x20   \"calls\": {PARITY_CALLS},\n\
         \x20   \"total_cycles\": {parity_cycles},\n\
         \x20   \"authz_off_exact\": true,\n\
         \x20   \"permissive_exact\": true\n\
         \x20 }},\n"
    );
    let _ = write!(
        out,
        "  \"adversary_summary\": {{\n\
         \x20   \"runs\": {},\n\
         \x20   \"legit_calls_per_run\": {LEGIT_CALLS},\n\
         \x20   \"adversary_ops_per_run\": {ADV_OPS},\n\
         \x20   \"policy_bypasses\": 0,\n\
         \x20   \"lost_verdicts\": 0,\n\
         \x20   \"duplicated_verdicts\": 0,\n\
         \x20   \"denied_total\": {denied_total},\n\
         \x20   \"quota_refusals\": {quota_attempts}\n\
         \x20 }},\n",
        rows.len()
    );
    let _ = write!(
        out,
        "  \"deny_families\": {{\n\
         \x20   \"grant\": {},\n\
         \x20   \"revoked\": {},\n\
         \x20   \"rate_limited\": {},\n\
         \x20   \"chain_too_deep\": {}\n\
         \x20 }},\n",
        totals.denied, totals.revoked_denies, totals.rate_limited, totals.chain_too_deep
    );
    let _ = write!(
        out,
        "  \"revocation\": {{\n\
         \x20   \"batch_max\": {BATCH_MAX},\n\
         \x20   \"completions_after_witness\": {after_witness},\n\
         \x20   \"within_one_batch\": true\n\
         \x20 }},\n  \"matrix\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n\
             \x20     \"seed\": {},\n\
             \x20     \"faulted\": {},\n\
             \x20     \"workers\": {},\n\
             \x20     \"legit_completed\": {},\n\
             \x20     \"denied\": {},\n\
             \x20     \"bypasses\": {},\n\
             \x20     \"quota_refusals\": {},\n\
             \x20     \"authz_checks\": {},\n\
             \x20     \"makespan_cycles\": {}\n\
             \x20   }}",
            r.seed,
            r.faulted,
            r.workers,
            r.legit_completed,
            r.denied,
            r.bypasses,
            r.quota_refusals,
            r.checks,
            r.makespan_cycles,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&out_path, out).expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
