//! Report generators: one function per paper table/figure, plus the
//! ablations of the designs the paper rejects.
//!
//! Every table prints **paper** and **measured** values side by side so
//! the reproduction is auditable row by row. Measured values come from
//! executing the simulated systems, never from the paper constants.

use std::fmt::Write as _;

use crossover::alt::{
    async_message_call, crossover_call_equivalent, sync_ipi_call, AltCallProfile,
};
use crossover::binding::{bound_world_call, BindingTable};
use crossover::call::{Direction, WorldCallUnit};
use crossover::manager::{AuthPolicy, WorldManager};
use crossover::plan::{HopPlanner, Mechanism};
use crossover::prefetch::prefetch_tradeoff;
use crossover::table::WorldTable;
use crossover::world::WorldDescriptor;
use crossover::wtc::CacheStats;
use guestos::syscall::Syscall;
use hypervisor::platform::Platform;
use hypervisor::sched::SchedModel;
use hypervisor::vm::VmConfig;
use machine::account::Delta;
use machine::cost::Frequency;
use machine::mode::CpuMode;
use machine::trace::TransitionKind;
use systems::crossvm::vmfunc_cross_vm_syscall;
use systems::env::CrossVmEnv;
use systems::hypershell::HyperShell;
use systems::paths::survey;
use systems::proxos::Proxos;
use systems::shadowcontext::ShadowContext;
use systems::tahoma::Tahoma;
use workloads::lmbench::{LmbenchHarness, LmbenchMode, LmbenchOp};
use workloads::micro::{run_native, run_redirected, MicroOp, RedirectTarget};
use workloads::openssh::{paper_rows, scp_throughput, SshMode, FILE_SIZES_MB};
use workloads::utilities::{overhead_reduction, run_utility, utilities, UtilityMode};

const FREQ: Frequency = Frequency::GHZ_3_4;

/// Table 1: the eleven surveyed systems' actual vs minimal cross-ring
/// calls.
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: systems relying on cross-world calls (crossings computed from encoded paths)"
    );
    let _ = writeln!(
        out,
        "{:<26} {:<11} {:<9} {:>8} {:>7} {:>7}",
        "System", "Category", "Semantic", "Minimal", "Actual", "Times"
    );
    for s in survey() {
        let _ = writeln!(
            out,
            "{:<26} {:<11} {:<9} {:>8} {:>7} {:>7}",
            s.name,
            s.category.to_string(),
            s.semantic,
            s.minimal_crossings(),
            s.actual_crossings(),
            s.ratio_label(),
        );
    }
    out
}

/// Table 3: world-call classification — hop counts per mechanism.
pub fn table3() -> String {
    let planner = HopPlanner::new(2);
    // Paper's reported cells: (HW, SW, VMFUNC, CrossOver); None = blank.
    type PaperRow = (Option<u32>, Option<u32>, Option<u32>, u32);
    let paper: [PaperRow; 10] = [
        (Some(1), None, None, 1),
        (Some(1), None, None, 1),
        (Some(1), None, None, 1),
        (Some(1), None, None, 1),
        (None, Some(3), None, 1),
        (None, Some(2), None, 1),
        (None, Some(2), None, 1),
        (None, Some(2), Some(1), 1),
        (None, Some(4), Some(1), 1),
        (None, Some(4), Some(2), 1),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3: world-call classification (hops computed by BFS planner)"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>3} {:>4} {:>5}  {:>9} {:>9} {:>11} {:>13}",
        "Type", "H/G", "Ring", "Space", "HW(paper)", "SW(paper)", "VMF(paper)", "XOver(paper)"
    );
    for (i, (from, to)) in HopPlanner::table3_pairs().into_iter().enumerate() {
        // The paper's HW column lists only *single direct transitions*;
        // multi-hop compositions belong to the SW column.
        let hw = planner
            .hops(from, to, Mechanism::HardwareDirect)
            .filter(|&h| h == 1);
        let sw = planner.hops(from, to, Mechanism::Existing);
        let vmf = planner.hops(from, to, Mechanism::Vmfunc);
        let xo = planner.hops(from, to, Mechanism::CrossOver);
        let (phw, psw, pvmf, pxo) = paper[i];
        let cell = |m: Option<u32>, p: Option<u32>| match (m, p) {
            (Some(m), Some(p)) => format!("{m}({p})"),
            (Some(m), None) => format!("{m}(-)"),
            (None, _) => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<22} {:>3} {:>4} {:>5}  {:>9} {:>9} {:>11} {:>13}",
            format!("{from} <-> {to}"),
            if from.crosses_hg(&to) { "y" } else { "" },
            if from.crosses_ring(&to) { "y" } else { "" },
            if from.crosses_space(&to) { "y" } else { "" },
            cell(hw, phw),
            cell(sw, psw),
            cell(vmf, pvmf),
            cell(xo, Some(pxo)),
        );
    }
    let _ = writeln!(
        out,
        "cells are measured(paper); '-' = no path under that mechanism"
    );
    out
}

struct Table4Row {
    op: MicroOp,
    native_us: f64,
    // (original, optimized) per system, in us.
    systems: [(f64, f64); 4],
}

/// Paper Table 4 cells: per op, [(orig, opt); Proxos, HyperShell, Tahoma,
/// ShadowContext].
fn table4_paper(op: MicroOp) -> [(f64, f64); 4] {
    match op {
        MicroOp::NullSyscall => [(3.35, 0.42), (2.60, 0.72), (42.0, 0.68), (3.40, 0.71)],
        MicroOp::NullIo => [(2.44, 0.50), (2.57, 0.80), (42.6, 0.72), (3.67, 0.79)],
        MicroOp::OpenClose => [(8.18, 1.91), (6.03, 2.29), (89.1, 2.21), (7.52, 2.26)],
        MicroOp::Stat => [(4.31, 0.69), (2.87, 0.98), (43.5, 0.94), (3.69, 0.99)],
        MicroOp::Pipe => [(15.79, 4.73), (13.1, 4.99), (172.6, 4.95), (17.10, 5.02)],
    }
}

fn measure_pair<B, O>(op: MicroOp, mut base: B, mut opt: O) -> (f64, f64)
where
    B: RedirectTarget,
    O: RedirectTarget,
{
    // One warm-up run (populates caches, creates dummy processes), then
    // one measured run — the simulation is deterministic.
    let _ = run_redirected(&mut base, op).expect("warm-up");
    let b = run_redirected(&mut base, op).expect("baseline run");
    let _ = run_redirected(&mut opt, op).expect("warm-up");
    let o = run_redirected(&mut opt, op).expect("optimized run");
    (b.micros(FREQ), o.micros(FREQ))
}

fn table4_rows() -> Vec<Table4Row> {
    MicroOp::ALL
        .into_iter()
        .map(|op| {
            let mut env = CrossVmEnv::new("native", "peer").expect("env");
            let _ = run_native(&mut env, op).expect("warm-up");
            let native_us = run_native(&mut env, op).expect("native run").micros(FREQ);
            let proxos = measure_pair(
                op,
                Proxos::baseline().expect("proxos"),
                Proxos::optimized().expect("proxos"),
            );
            let hypershell = measure_pair(
                op,
                HyperShell::baseline().expect("hypershell"),
                HyperShell::optimized().expect("hypershell"),
            );
            let tahoma = measure_pair(
                op,
                Tahoma::baseline().expect("tahoma"),
                Tahoma::optimized().expect("tahoma"),
            );
            let shadow = measure_pair(
                op,
                ShadowContext::baseline().expect("shadowcontext"),
                ShadowContext::optimized().expect("shadowcontext"),
            );
            Table4Row {
                op,
                native_us,
                systems: [proxos, hypershell, tahoma, shadow],
            }
        })
        .collect()
}

/// Table 4: microbenchmark latencies for the four systems, original vs
/// optimized, with latency reductions.
pub fn table4() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4: microbenchmarks (us; measured, paper in parens; reduction = 1 - opt/orig)"
    );
    let names = ["Proxos", "HyperShell", "Tahoma", "ShadowContext"];
    for row in table4_rows() {
        let paper = table4_paper(row.op);
        let _ = writeln!(
            out,
            "\n{:<18} native {:.2} us (paper {:.2})",
            row.op.name(),
            row.native_us,
            row.op.paper_native_us()
        );
        for (i, name) in names.iter().enumerate() {
            let (orig, opt) = row.systems[i];
            let (porig, popt) = paper[i];
            let red = 100.0 * (1.0 - opt / orig);
            let pred = 100.0 * (1.0 - popt / porig);
            let _ = writeln!(
                out,
                "  {name:<14} orig {orig:>7.2} ({porig:>6.2})   opt {opt:>5.2} ({popt:>4.2})   reduction {red:>5.1}% ({pred:.1}%)"
            );
        }
    }
    out
}

/// Table 5: six utility tools, native vs redirected with and without
/// CrossOver.
pub fn table5() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 5: utility tools (ms; measured, paper in parens)"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>16} {:>18} {:>18} {:>20}",
        "Utility", "Native", "w/o CrossOver", "w/ CrossOver", "Overhead reduction"
    );
    for u in utilities() {
        let native = run_utility(&u, UtilityMode::Native).expect("native");
        let without = run_utility(&u, UtilityMode::WithoutCrossOver).expect("without");
        let with = run_utility(&u, UtilityMode::WithCrossOver).expect("with");
        let red = 100.0 * overhead_reduction(without, with);
        let pred = 100.0 * overhead_reduction(u.paper_without_ms, u.paper_with_ms);
        let _ = writeln!(
            out,
            "{:<8} {:>7.2} ({:>5.2}) {:>9.2} ({:>6.2}) {:>9.2} ({:>6.2}) {:>11.1}% ({:.1}%)",
            u.name,
            native,
            u.paper_native_ms,
            without,
            u.paper_without_ms,
            with,
            u.paper_with_ms,
            red,
            pred
        );
    }
    out
}

/// Table 6: OpenSSH/scp throughput for the split server.
pub fn table6() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 6: OpenSSH scp throughput (MB/s; measured, paper in parens)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>16} {:>18} {:>18} {:>14}",
        "Size (MB)", "Native", "w/ CrossOver", "w/o CrossOver", "Improvement"
    );
    let paper = paper_rows();
    for (i, mb) in FILE_SIZES_MB.into_iter().enumerate() {
        let native = scp_throughput(SshMode::Native, mb).expect("native");
        let with = scp_throughput(SshMode::WithCrossOver, mb).expect("with");
        let without = scp_throughput(SshMode::WithoutCrossOver, mb).expect("without");
        let imp = 100.0 * (with - without) / without;
        let (_, pn, pw, pwo) = paper[i];
        let pimp = 100.0 * (pw - pwo) / pwo;
        let _ = writeln!(
            out,
            "{:<10} {:>7.1} ({:>5.1}) {:>9.1} ({:>6.1}) {:>9.1} ({:>6.1}) {:>7.0}% ({:.0}%)",
            mb, native, pn, with, pw, without, pwo, imp, pimp
        );
    }
    out
}

/// Table 7: instruction counts per lmbench operation under QEMU-style
/// accounting.
pub fn table7() -> String {
    let mut harness = LmbenchHarness::new().expect("harness");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 7: instruction counts (measured, paper in parens)"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>16} {:>20} {:>22}",
        "Benchmark", "Native", "w/ CrossOver", "w/o CrossOver"
    );
    for op in LmbenchOp::ALL {
        let native = harness
            .instructions(op, LmbenchMode::Native)
            .expect("native");
        let with = harness
            .instructions(op, LmbenchMode::WithCrossOver)
            .expect("with");
        let without = harness
            .instructions(op, LmbenchMode::WithoutCrossOver)
            .expect("without");
        let _ = writeln!(
            out,
            "{:<12} {:>8} ({:>5}) {:>11} ({:>6}) {:>13} ({:>6})",
            op.name(),
            native,
            op.paper_native(),
            with,
            op.paper_with_crossover(),
            without,
            op.paper_without_crossover(),
        );
    }
    out
}

/// Figure 1: direct vs indirect ring crossings in a virtualized machine.
pub fn figure1() -> String {
    let planner = HopPlanner::new(2);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1: ring crossings — direct (1 hop in hardware) vs indirect (multiple hops)"
    );
    let worlds = planner.worlds();
    for &from in &worlds {
        for &to in &worlds {
            if from == to {
                continue;
            }
            let direct = planner.hops(from, to, Mechanism::HardwareDirect) == Some(1);
            let sw = planner.hops(from, to, Mechanism::Existing);
            let _ = writeln!(
                out,
                "  {from:<8} -> {to:<8}  {}",
                if direct {
                    "direct (solid line)".to_string()
                } else {
                    format!(
                        "indirect, {} hops via existing mechanisms",
                        sw.map_or("∞".into(), |h| h.to_string())
                    )
                }
            );
        }
    }
    out
}

fn trace_of<F>(label: &str, env_trace: F) -> String
where
    F: FnOnce() -> Vec<machine::trace::Event>,
{
    let mut out = String::new();
    let _ = writeln!(out, "{label}:");
    let mut step = 0;
    for e in env_trace() {
        if e.changed_mode() {
            step += 1;
            let _ = writeln!(
                out,
                "  ({step}) {:<16} {} -> {}",
                e.kind.to_string(),
                e.from,
                e.to
            );
        } else {
            let _ = writeln!(out, "      {:<16} ({})", e.kind.to_string(), e.from);
        }
    }
    out
}

/// Figure 2: executed cross-world call traces of the four baseline
/// systems (numbered mode changes match the paper's step diagrams).
pub fn figure2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: cross-world calls in existing systems (executed traces)"
    );

    let mut p = Proxos::baseline().expect("proxos");
    let _ = p.redirected_syscall(&Syscall::Null);
    p.env.settle_in_vm1().expect("settle");
    out += &trace_of("(a) Proxos: syscall redirection", || {
        p.env.platform.cpu_mut().record_events();
        let _ = p.redirected_syscall(&Syscall::Null);
        p.env.platform.cpu().trace().events().to_vec()
    });

    let mut h = HyperShell::baseline().expect("hypershell");
    let _ = h.reverse_syscall(&Syscall::Null);
    h.env.settle_in_vm1().expect("settle");
    out += &trace_of("(b) HyperShell: reverse syscall execution", || {
        h.env.platform.cpu_mut().record_events();
        let _ = h.reverse_syscall(&Syscall::Null);
        h.env.platform.cpu().trace().events().to_vec()
    });

    let mut t = Tahoma::baseline().expect("tahoma");
    let _ = t.browser_call(&Syscall::Null);
    t.env.settle_in_vm1().expect("settle");
    out += &trace_of("(c) Tahoma: browser-call over TCP RPC", || {
        t.env.platform.cpu_mut().record_events();
        let _ = t.browser_call(&Syscall::Null);
        t.env.platform.cpu().trace().events().to_vec()
    });

    let mut s = ShadowContext::baseline().expect("shadowcontext");
    let _ = s.introspect_syscall(&Syscall::Null);
    s.env.settle_in_vm1().expect("settle");
    out += &trace_of("(d) ShadowContext: introspection syscall", || {
        s.env.platform.cpu_mut().record_events();
        let _ = s.introspect_syscall(&Syscall::Null);
        s.env.platform.cpu().trace().events().to_vec()
    });

    // Contrast: the same call, optimized — two VMFUNCs, no hypervisor.
    let mut p = Proxos::optimized().expect("proxos");
    let _ = p.redirected_syscall(&Syscall::Null);
    p.env.settle_in_vm1().expect("settle");
    out += &trace_of(
        "(contrast) Proxos optimized: the same redirected syscall via VMFUNC",
        || {
            p.env.platform.cpu_mut().record_events();
            let _ = p.redirected_syscall(&Syscall::Null);
            p.env.platform.cpu().trace().events().to_vec()
        },
    );
    out
}

/// Figure 3: the world-call process — one registered caller calling a
/// world in another VM and returning.
pub fn figure3() -> String {
    let mut p = Platform::new_default();
    let vm1 = p.create_vm(VmConfig::named("VM-1")).expect("vm1");
    let vm2 = p.create_vm(VmConfig::named("VM-2")).expect("vm2");
    let mut mgr = WorldManager::new();
    let caller_desc = WorldDescriptor::guest_user(&p, vm1, 0x1000, 0x40_0000).expect("caller desc");
    let callee_desc =
        WorldDescriptor::guest_kernel(&p, vm2, 0x2000, 0xFFFF_8000).expect("callee desc");
    let caller = mgr
        .register_world(&mut p, caller_desc)
        .expect("register caller");
    let callee = mgr
        .register_world(&mut p, callee_desc)
        .expect("register callee");
    p.vmentry(vm1).expect("vmentry");
    p.cpu_mut().force_cr3(0x1000);
    p.cpu_mut().record_events();
    let token = mgr.call(&mut p, caller, callee).expect("call");
    p.cpu_mut().charge_work(626, 200, "callee service");
    mgr.ret(&mut p, token).expect("ret");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3: world-call process (user-2 in VM-1 calls a world in VM-2)"
    );
    for e in p.cpu().trace().events() {
        let _ = writeln!(out, "  {e}");
    }
    let _ = writeln!(
        out,
        "  hypervisor interventions during call+return: {}",
        p.cpu().trace().hypervisor_interventions()
    );
    out
}

/// Figure 4: the eight steps of a VMFUNC cross-VM system call.
pub fn figure4() -> String {
    let mut env = CrossVmEnv::new("VM-1", "VM-2").expect("env");
    let _ = vmfunc_cross_vm_syscall(&mut env, &Syscall::Null);
    env.settle_in_vm1().expect("settle");
    env.platform.cpu_mut().record_events();
    let _ = vmfunc_cross_vm_syscall(&mut env, &Syscall::Null).expect("cross-vm syscall");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4: cross-VM system call process (executed trace)"
    );
    let steps = [
        "(1) system call",
        "(2) set CR3=CR, disable INT, set IDT=IDT2",
        "(4) VMFUNC to VM-2",
        "(5) enable INT, exec syscall",
        "(7) disable INT, VMFUNC back",
        "(8) set IDT=IDT1, enable INT, restore CR3, return",
    ];
    let _ = writeln!(out, "  paper steps: {}", steps.join("; "));
    for e in env.platform.cpu().trace().events() {
        let _ = writeln!(out, "  {e}");
    }
    out
}

/// WT- and IWT-cache statistics after `rounds` world calls that
/// round-robin over 6 caller/callee pairs (12 worlds) on a world-call unit
/// with `capacity` entries per cache: Figure 5's workload and the
/// `sweeps capacity` series.
pub fn wtc_round_robin(capacity: usize, rounds: usize) -> (CacheStats, CacheStats) {
    let mut p = Platform::new_default();
    let vm1 = p.create_vm(VmConfig::named("a")).expect("vm");
    let vm2 = p.create_vm(VmConfig::named("b")).expect("vm");
    let mut table = WorldTable::with_quota(64);
    let mut unit = WorldCallUnit::with_capacity(capacity);
    let mut wids = Vec::new();
    for i in 0..6u64 {
        let caller_desc = WorldDescriptor::guest_user(&p, vm1, 0x1000 * (i + 1), 0).expect("desc");
        let callee_desc =
            WorldDescriptor::guest_kernel(&p, vm2, 0x1000 * (i + 1), 0).expect("desc");
        wids.push((
            table.create(caller_desc).expect("create"),
            table.create(callee_desc).expect("create"),
            0x1000 * (i + 1),
        ));
    }
    p.vmentry(vm1).expect("vmentry");
    for round in 0..rounds {
        let (_, callee, cr3) = wids[round % wids.len()];
        p.cpu_mut().force_cr3(cr3);
        // Ensure we are in the caller's context (vm1 user).
        if p.current_vm() != Some(vm1) {
            // Force back via a direct switch (hypervisor-style reset).
            p.crossover_switch(
                TransitionKind::WorldReturn,
                CpuMode::GUEST_USER,
                cr3,
                p.eptp_of(vm1).expect("eptp"),
            )
            .expect("reset");
        }
        let _ = unit.world_call(&mut p, &table, callee, Direction::Call);
    }
    (unit.wt_stats(), unit.iwt_stats())
}

/// Figure 5: the extended-VMFUNC datapath — world-table cache behaviour
/// under a multi-world workload, including a capacity sweep.
pub fn figure5() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 5: world-table caches (WT keyed by WID, IWT keyed by context)"
    );
    for capacity in [2usize, 4, 8, 16, 32] {
        let (wt, iwt) = wtc_round_robin(capacity, 20);
        let _ = writeln!(
            out,
            "  capacity {capacity:>2}: WT hit-rate {:>5.1}% ({} fills, {} evictions) | IWT hit-rate {:>5.1}% ({} fills, {} evictions)",
            100.0 * wt.hit_rate(),
            wt.fills,
            wt.evictions,
            100.0 * iwt.hit_rate(),
            iwt.fills,
            iwt.evictions,
        );
    }
    let _ = writeln!(
        out,
        "  (software-managed fill on miss; a miss costs one exception to the hypervisor)"
    );
    out
}

/// A redirected NULL syscall through Proxos, original and optimized, with
/// the target VM's scheduler at `load` (§7.1.2): the `sweeps load` series
/// and the ablations' load sweep.
pub fn redirected_null_under_load(load: u32) -> (Delta, Delta) {
    let mut base = Proxos::baseline().expect("proxos");
    base.env.platform.set_sched(SchedModel::loaded(load));
    let b = run_redirected(&mut base, MicroOp::NullSyscall).expect("baseline");
    let mut opt = Proxos::optimized().expect("proxos");
    opt.env.platform.set_sched(SchedModel::loaded(load));
    let o = run_redirected(&mut opt, MicroOp::NullSyscall).expect("optimized");
    (b, o)
}

/// Warm call+return cycles through `WorldManager` with the callee's
/// software allow-list doing authorization.
fn software_auth_roundtrip_cycles() -> u64 {
    let mut platform = Platform::new_default();
    let vm1 = platform.create_vm(VmConfig::named("a")).expect("vm");
    let vm2 = platform.create_vm(VmConfig::named("b")).expect("vm");
    let mut mgr = WorldManager::new();
    let cd = WorldDescriptor::guest_user(&platform, vm1, 0x1000, 0).expect("desc");
    let ed = WorldDescriptor::guest_kernel(&platform, vm2, 0x2000, 0).expect("desc");
    let caller = mgr.register_world(&mut platform, cd).expect("register");
    let callee = mgr.register_world(&mut platform, ed).expect("register");
    mgr.set_policy(callee, AuthPolicy::allow([caller]));
    platform.vmentry(vm1).expect("vmentry");
    platform.cpu_mut().force_cr3(0x1000);
    // Warm.
    let t = mgr.call(&mut platform, caller, callee).expect("call");
    mgr.ret(&mut platform, t).expect("ret");
    let before = platform.cpu().meter().cycles();
    let t = mgr.call(&mut platform, caller, callee).expect("call");
    mgr.ret(&mut platform, t).expect("ret");
    platform.cpu().meter().cycles() - before
}

/// Warm call+return cycles with the §3.4 hardware binding table checking
/// the pair instead of callee software.
fn binding_table_roundtrip_cycles() -> u64 {
    let mut platform = Platform::new_default();
    let vm1 = platform.create_vm(VmConfig::named("a")).expect("vm");
    let vm2 = platform.create_vm(VmConfig::named("b")).expect("vm");
    let mut table = WorldTable::new();
    let cd = WorldDescriptor::guest_user(&platform, vm1, 0x1000, 0).expect("desc");
    let ed = WorldDescriptor::guest_kernel(&platform, vm2, 0x2000, 0).expect("desc");
    let caller = table.create(cd).expect("create");
    let callee = table.create(ed).expect("create");
    let mut unit = WorldCallUnit::new();
    let mut bindings = BindingTable::new();
    bindings.bind(caller, callee);
    platform.vmentry(vm1).expect("vmentry");
    platform.cpu_mut().force_cr3(0x1000);
    let mut round_trip = |platform: &mut Platform| {
        bound_world_call(
            &mut unit,
            &bindings,
            platform,
            &table,
            caller,
            callee,
            Direction::Call,
        )
        .expect("call");
        bound_world_call(
            &mut unit,
            &bindings,
            platform,
            &table,
            callee,
            caller,
            Direction::Return,
        )
        .expect("return");
    };
    // Warm the caches.
    round_trip(&mut platform);
    let before = platform.cpu().meter().cycles();
    // Hardware-checked call: no callee-side software auth needed.
    platform.cpu_mut().charge_work(30, 10, "save state");
    round_trip(&mut platform);
    platform.cpu_mut().charge_work(30, 10, "restore state");
    platform.cpu().meter().cycles() - before
}

/// (fill-on-miss, prefetch) cycles over `context_switches` switches of a
/// 32-process machine where only `worlds_registered` address spaces have
/// world entries. Every switch pays the register's speculative walk;
/// on-demand filling pays one WTC miss fault per registered world, ever
/// (§5.1: "prefetching a non-existed world at every context switch will
/// cause cache miss and useless world table walk").
fn prefetch_ablation_cycles(worlds_registered: usize, context_switches: u64) -> (u64, u64) {
    let mut platform = Platform::new_default();
    let vm = platform.create_vm(VmConfig::named("prefetch")).expect("vm");
    let mut table = WorldTable::with_quota(64);
    let registered: Vec<u64> = (0..worlds_registered as u64)
        .map(|i| 0x1000 + i * 0x1000)
        .collect();
    for &cr3 in &registered {
        table
            .create(WorldDescriptor::guest_user(&platform, vm, cr3, 0).expect("desc"))
            .expect("register");
    }
    platform.vmentry(vm).expect("vmentry");
    let unregistered: Vec<u64> = (worlds_registered as u64..32)
        .map(|i| 0x100_0000 + i * 0x1000)
        .collect();
    let (prefetch, on_demand) = prefetch_tradeoff(
        &mut platform,
        &table,
        &registered,
        &unregistered,
        context_switches,
    );
    (on_demand, prefetch)
}

/// (shared memory, hypervisor copy) cycles for a stat-sized payload, end
/// to end on ShadowContext's two implementations (§6).
fn param_copy_ablation() -> (u64, u64) {
    let stat = Syscall::Stat {
        path: "/etc/passwd".into(),
    };
    let mut opt = ShadowContext::optimized().expect("shadowcontext");
    let (_, shared) = opt.measure_syscall(&stat).expect("measure");
    let mut base = ShadowContext::baseline().expect("shadowcontext");
    let (_, copied) = base.measure_syscall(&stat).expect("measure");
    (shared.cycles.0, copied.cycles.0)
}

/// Ablations of the designs the paper rejects, in modelled cycles: the
/// §3.4 binding table, the §3.3 async and IPI calls with §7.1.2's
/// target-load sweep, the §5.1 Current-World-ID register and §6's
/// parameter copying.
pub fn ablations() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: binding table (hardware auth) vs software allow-list"
    );
    let _ = writeln!(
        out,
        "  software-auth warm round trip: {} cycles",
        software_auth_roundtrip_cycles()
    );
    let _ = writeln!(
        out,
        "  binding-table warm round trip: {} cycles\n",
        binding_table_roundtrip_cycles()
    );

    let _ = writeln!(
        out,
        "Ablation: rejected call designs (NULL-class service, 4 KiB working set)"
    );
    let profile = AltCallProfile::default();
    let mut p = Platform::new_default();
    for load in [0u32, 2, 8] {
        let asy = async_message_call(&mut p, &SchedModel::loaded(load), profile);
        let _ = writeln!(out, "  async message-passing, load {load}: {asy} cycles");
    }
    let ipi = sync_ipi_call(&mut p, profile).expect("host context");
    let _ = writeln!(out, "  synchronous IPI:              {ipi} cycles");
    let xo = crossover_call_equivalent(&mut p, profile);
    let _ = writeln!(out, "  CrossOver world_call:         {xo} cycles\n");

    let _ = writeln!(
        out,
        "Ablation: Current-World-ID prefetch register (§5.1 alternative)"
    );
    for (worlds, switches) in [(2usize, 1000u64), (16, 1000)] {
        let (on_demand, prefetch) = prefetch_ablation_cycles(worlds, switches);
        let _ = writeln!(
            out,
            "  {worlds:>2} worlds, {switches} ctx switches: fill-on-miss {on_demand} cycles vs prefetch {prefetch} cycles"
        );
    }
    let _ = writeln!(out);

    let (shared, copied) = param_copy_ablation();
    let _ = writeln!(out, "Ablation: parameter passing for a redirected stat");
    let _ = writeln!(out, "  shared memory (copy once):     {shared} cycles");
    let _ = writeln!(out, "  hypervisor copies (copy twice): {copied} cycles\n");

    let _ = writeln!(
        out,
        "Sweep: target-VM load vs redirected NULL syscall (§7.1.2 claim)"
    );
    for load in [0u32, 1, 4, 16] {
        let (b, o) = redirected_null_under_load(load);
        let _ = writeln!(
            out,
            "  load {load:>2}: original {:>8} cycles, CrossOver {:>6} cycles",
            b.cycles.0, o.cycles.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_systems() {
        let t = table1();
        for name in ["Proxos", "Xen-Blanket", "ShadowContext", "CloudVisor"] {
            assert!(t.contains(name), "missing {name}:\n{t}");
        }
        assert!(t.contains("4.5X"));
    }

    #[test]
    fn table3_has_ten_rows_and_crossover_column() {
        let t = table3();
        assert!(t.contains("U_VM1 <-> K_host"));
        assert!(t.contains("U_VM1 <-> K_VM2"));
        // CrossOver column: always 1, printed as 1(1) at each row's end
        // (other columns may also contain 1(1) cells).
        let rows: Vec<&str> = t.lines().filter(|l| l.contains("<->")).collect();
        assert_eq!(rows.len(), 10, "{t}");
        for row in rows {
            assert!(row.trim_end().ends_with("1(1)"), "{row}");
        }
        // The SW column's worst case matches the paper: 4 hops.
        assert!(t.contains("4(4)"), "{t}");
    }

    #[test]
    fn table6_shows_crossover_beating_baseline() {
        let t = table6();
        assert!(t.contains("1024"));
        assert!(t.contains("Improvement"));
    }

    #[test]
    fn table7_shows_plus_33() {
        let t = table7();
        assert!(t.contains("getppid"));
        assert!(t.contains("1880"), "native+33 column:\n{t}");
    }

    #[test]
    fn figure2_traces_have_numbered_steps() {
        let f = figure2();
        assert!(f.contains("(a) Proxos"));
        assert!(f.contains("(d) ShadowContext"));
        assert!(f.contains("(1)"));
        assert!(f.contains("vmexit"));
    }

    #[test]
    fn figure3_is_intervention_free() {
        let f = figure3();
        assert!(
            f.contains("hypervisor interventions during call+return: 0"),
            "{f}"
        );
        assert!(f.contains("world_call"));
    }

    #[test]
    fn figure4_shows_two_vmfuncs() {
        let f = figure4();
        assert_eq!(f.matches("vmfunc").count(), 2, "{f}");
    }

    #[test]
    fn figure5_hit_rate_improves_with_capacity() {
        let f = figure5();
        assert!(f.contains("capacity  2"));
        assert!(f.contains("capacity 32"));
    }
}
