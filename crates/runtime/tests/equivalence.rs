//! Epoch-vs-sequential equivalence property.
//!
//! The epoch table's contract is that concurrency is *purely* an
//! implementation property: driven by a single worker, it must be
//! indistinguishable from the sequential `WorldTable` + `WorldCallUnit`
//! stack. This test replays identical seeded schedules of create /
//! delete / world_call operations through both stacks and asserts that
//! every observable agrees: minted WIDs, per-operation results, cache
//! hit/miss/fill/invalidation statistics, and the platform's metered
//! cycles and instructions.

use crossover::call::{Direction, WorldCallUnit};
use crossover::table::{WorldLookup, WorldTable};
use crossover::world::{Wid, WorldDescriptor};
use hypervisor::platform::Platform;
use hypervisor::vm::VmConfig;
use machine::rng::SplitMix64;
use xover_runtime::EpochWorldTable;

const CASES: u64 = 32;
const OPS_PER_CASE: usize = 120;
const QUOTA: usize = 6;

/// The pool of registrable descriptors: two VMs × (user + kernel) ×
/// three page-table roots, plus two host worlds. Small enough that the
/// schedule keeps re-registering the same contexts (exercising the
/// replacement path) and hitting the quota.
fn descriptor_pool(p: &Platform) -> Vec<WorldDescriptor> {
    let vms = p.vm_ids();
    let mut pool = Vec::new();
    for &vm in &vms {
        for i in 0..3u64 {
            let cr3 = 0x1000 * (i + 1) + 0x10_0000 * (vm.index() as u64 + 1);
            pool.push(WorldDescriptor::guest_user(p, vm, cr3, 0x40_0000).unwrap());
            pool.push(WorldDescriptor::guest_kernel(p, vm, cr3 + 0x800, 0xFFFF_8000).unwrap());
        }
    }
    pool.push(WorldDescriptor::host_kernel(0xAA_0000, 0xE000));
    pool.push(WorldDescriptor::host_user(0xBB_0000, 0xF000));
    pool
}

/// One randomized schedule step.
#[derive(Debug, Clone, Copy)]
enum Op {
    Create(usize),
    Delete(u64),
    Call { caller: u64, callee: u64 },
}

fn schedule(rng: &mut SplitMix64, pool_len: usize, ops: usize) -> Vec<Op> {
    let mut minted_upper = 1u64; // upper bound on raw WIDs minted so far
    (0..ops)
        .map(|_| match rng.below(10) {
            0..=3 => {
                minted_upper += 1;
                Op::Create(rng.below(pool_len as u64) as usize)
            }
            4 => Op::Delete(1 + rng.below(minted_upper)),
            _ => Op::Call {
                caller: 1 + rng.below(minted_upper),
                callee: 1 + rng.below(minted_upper),
            },
        })
        .collect()
}

/// Both stacks under test share this shape: a platform, a call unit, and
/// some table driven through the schedule.
struct Run {
    platform: Platform,
    unit: WorldCallUnit,
}

impl Run {
    fn new(template: &Platform) -> Run {
        Run {
            platform: template.clone(),
            unit: WorldCallUnit::new(),
        }
    }

    /// Schedules the caller world's context onto the vCPU (free), then
    /// issues the call+return pair exactly as the runtime worker does.
    /// Returns a compact result code for comparison.
    fn call<T: crossover::table::WorldLookup>(
        &mut self,
        table: &T,
        caller_entry: Option<crossover::world::WorldEntry>,
        callee: Wid,
    ) -> String {
        let Some(entry) = caller_entry else {
            return "no-caller".to_string();
        };
        let cpu = self.platform.cpu_mut();
        cpu.force_mode(entry.context.mode());
        cpu.force_cr3(entry.context.ptp);
        cpu.load_eptp(0, entry.context.eptp);
        match self
            .unit
            .world_call(&mut self.platform, table, callee, Direction::Call)
        {
            Err(e) => format!("call-err:{e}"),
            Ok(out) => {
                let ret =
                    self.unit
                        .world_call(&mut self.platform, table, out.from, Direction::Return);
                match ret {
                    Err(e) => format!("ret-err:{e}"),
                    Ok(r) => format!("ok:{}->{}", out.from, r.to),
                }
            }
        }
    }
}

#[test]
fn epoch_table_is_observably_sequential() {
    let mut template = Platform::new_default();
    template.create_vm(VmConfig::named("eq-a")).unwrap();
    template.create_vm(VmConfig::named("eq-b")).unwrap();
    let pool = descriptor_pool(&template);

    for case in 0..CASES {
        let seed = 0x5EED_0000 + case;
        eprintln!("equivalence case seed: {seed:#x}");
        let mut rng = SplitMix64::new(seed);
        let ops = schedule(&mut rng, pool.len(), OPS_PER_CASE);

        let mut seq_table = WorldTable::with_quota(QUOTA);
        // One reader slot: the schedule drives the table the way a
        // single worker would.
        let epoch = EpochWorldTable::new(1, QUOTA);
        let mut seq = Run::new(&template);
        let mut ept = Run::new(&template);

        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Create(d) => {
                    let a = seq_table.create(pool[d]);
                    let b = epoch.create(pool[d]);
                    assert_eq!(a, b, "case {case} op {i}: create diverged");
                }
                Op::Delete(raw) => {
                    let wid = Wid::from_raw(raw);
                    let a = seq_table.delete(wid);
                    let b = epoch.delete(wid);
                    assert_eq!(a, b, "case {case} op {i}: delete diverged");
                    if a.is_ok() {
                        // manage_wtc invalidate on both units (what a
                        // worker does when it pulls the retire log).
                        seq.unit.manage_wtc_invalidate(&mut seq.platform, wid);
                        ept.unit.manage_wtc_invalidate(&mut ept.platform, wid);
                    }
                }
                Op::Call { caller, callee } => {
                    let caller = Wid::from_raw(caller);
                    let callee = Wid::from_raw(callee);
                    let seq_entry = seq_table.lookup(caller).copied();
                    let ept_entry = epoch.lookup_pinned(0, caller);
                    assert_eq!(
                        seq_entry, ept_entry,
                        "case {case} op {i}: caller lookup diverged"
                    );
                    let a = seq.call(&seq_table, seq_entry, callee);
                    let b = ept.call(&epoch, ept_entry, callee);
                    assert_eq!(a, b, "case {case} op {i}: call outcome diverged");
                }
            }
            // The context index agrees after every operation, for every
            // pool context, bound or not.
            for d in &pool {
                assert_eq!(
                    WorldLookup::wid_of(&seq_table, &d.context),
                    WorldLookup::wid_of(&epoch, &d.context),
                    "case {case} op {i}: context index diverged for {}",
                    d.context
                );
            }
        }

        // End-of-schedule observables.
        assert_eq!(seq_table.len(), epoch.len(), "case {case}: table size");
        assert_eq!(
            seq.unit.wt_stats(),
            ept.unit.wt_stats(),
            "case {case}: WT-cache statistics"
        );
        assert_eq!(
            seq.unit.iwt_stats(),
            ept.unit.iwt_stats(),
            "case {case}: IWT-cache statistics"
        );
        assert_eq!(
            seq.platform.cpu().meter().cycles(),
            ept.platform.cpu().meter().cycles(),
            "case {case}: metered cycles"
        );
        assert_eq!(
            seq.platform.cpu().meter().instructions(),
            ept.platform.cpu().meter().instructions(),
            "case {case}: metered instructions"
        );
    }
}

/// The same schedule driven through a 1-worker `WorldCallService` must
/// produce the same per-call verdicts as direct sequential execution
/// (latency/metering aside, since the service adds save/restore framing).
/// One world is deleted before the pool starts, so calls from and into
/// it exercise the miss path without racing the deletion against
/// service order.
#[test]
fn single_worker_service_matches_direct_call_results() {
    use xover_runtime::{CallRequest, CallVerdict, RuntimeConfig, WorldCallService};

    let mut svc = WorldCallService::new(RuntimeConfig {
        workers: 1,
        quota: QUOTA,
        // batch_max 1 disables destination batching, which would reorder
        // the queue; with one worker this makes outcomes strictly FIFO.
        batch_max: 1,
        ..RuntimeConfig::default()
    });
    let vm1 = svc.create_vm(VmConfig::named("svc-a")).unwrap();
    let vm2 = svc.create_vm(VmConfig::named("svc-b")).unwrap();
    let u = svc.register_guest_user(vm1, 0x1000, 0x40_0000).unwrap();
    let k = svc.register_guest_kernel(vm2, 0x2000, 0xFFFF_8000).unwrap();
    let h = svc
        .register_world(WorldDescriptor::host_kernel(0xAA_0000, 0xE000))
        .unwrap();
    let doomed = svc
        .register_world(WorldDescriptor::host_user(0xBB_0000, 0xF000))
        .unwrap();
    svc.delete_world(doomed).unwrap();

    // Sequential oracle: same worlds in a plain WorldTable.
    let mut oracle_table = WorldTable::with_quota(QUOTA);
    let template = svc.platform().clone();
    let ou = oracle_table
        .create(WorldDescriptor::guest_user(&template, vm1, 0x1000, 0x40_0000).unwrap())
        .unwrap();
    let ok_ = oracle_table
        .create(WorldDescriptor::guest_kernel(&template, vm2, 0x2000, 0xFFFF_8000).unwrap())
        .unwrap();
    let oh = oracle_table
        .create(WorldDescriptor::host_kernel(0xAA_0000, 0xE000))
        .unwrap();
    let od = oracle_table
        .create(WorldDescriptor::host_user(0xBB_0000, 0xF000))
        .unwrap();
    oracle_table.delete(od).unwrap();
    assert_eq!((u, k, h, doomed), (ou, ok_, oh, od), "same WIDs minted");

    let worlds = [u, k, h, doomed];
    let ghost = Wid::from_raw(999);
    let mut rng = SplitMix64::new(0xFACE);
    let mut requests = Vec::new();
    for _ in 0..200 {
        let caller = worlds[rng.below(4) as usize];
        let callee = if rng.chance(0.05) {
            ghost
        } else {
            worlds[rng.below(4) as usize]
        };
        if callee == caller {
            continue;
        }
        requests.push(CallRequest::new(caller, callee, 50 + rng.below(500), 10));
    }

    // Oracle verdicts by direct sequential execution.
    let mut oracle = Run::new(&template);
    let expect: Vec<bool> = requests
        .iter()
        .map(|r| {
            let entry = oracle_table.lookup(r.caller).copied();
            oracle
                .call(&oracle_table, entry, r.callee)
                .starts_with("ok:")
        })
        .collect();

    svc.start();
    for r in &requests {
        svc.submit(*r).unwrap();
    }
    let report = svc.drain();
    assert_eq!(report.outcomes.len(), requests.len());
    assert!(
        requests
            .iter()
            .any(|r| r.caller == doomed || r.callee == doomed),
        "the schedule exercises the deleted world"
    );
    // One worker: outcomes arrive in submission order.
    for (i, (outcome, want_ok)) in report.outcomes.iter().zip(&expect).enumerate() {
        assert_eq!(
            outcome.verdict == CallVerdict::Completed,
            *want_ok,
            "request {i}: service and sequential oracle disagree ({:?})",
            outcome.verdict
        );
    }
}
