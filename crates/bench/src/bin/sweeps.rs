//! Parameter sweeps as CSV series — the quantitative backing for the
//! paper's discussion points that have no table of their own.
//!
//! ```text
//! sweeps load       # target-VM load vs redirected-call latency (§7.1.2)
//! sweeps capacity   # world-table-cache capacity vs hit rate (§5.1)
//! sweeps payload    # transfer size vs redirection cost (§6 copying)
//! sweeps nested     # nesting depth vs cross-world hops (§1 motivation)
//! sweeps all        # everything
//! ```

use crossover::plan::{HopPlanner, Mechanism, WorldCoord};
use guestos::syscall::Syscall;
use machine::cost::Frequency;
use systems::crossvm::{hypervisor_cross_vm_syscall, vmfunc_cross_vm_syscall};
use systems::env::CrossVmEnv;
use xover_bench::reports::{redirected_null_under_load, wtc_round_robin};

fn sweep_load() {
    println!("# target-VM load vs redirected NULL syscall latency (us)");
    println!("load,original_us,crossover_us");
    for load in [0u32, 1, 2, 4, 8, 16, 32] {
        let (b, o) = redirected_null_under_load(load);
        println!(
            "{load},{:.3},{:.3}",
            b.micros(Frequency::GHZ_3_4),
            o.micros(Frequency::GHZ_3_4)
        );
    }
    println!();
}

fn sweep_capacity() {
    println!("# world-table-cache capacity vs hit rate (6 caller/callee pairs, round robin)");
    println!("capacity,wt_hit_rate,iwt_hit_rate,wt_evictions");
    for capacity in [1usize, 2, 3, 4, 6, 8, 12, 16, 24, 32] {
        let (wt, iwt) = wtc_round_robin(capacity, 60);
        println!(
            "{capacity},{:.3},{:.3},{}",
            wt.hit_rate(),
            iwt.hit_rate(),
            wt.evictions
        );
    }
    println!();
}

fn sweep_payload() {
    println!("# write payload size vs redirected syscall latency (us)");
    println!("bytes,hypervisor_us,vmfunc_us");
    let mut env = CrossVmEnv::new("a", "b").expect("env");
    // Open a target file in the remote VM once.
    let fd = match hypervisor_cross_vm_syscall(
        &mut env,
        &Syscall::Open {
            path: "/payload-target".into(),
            create: true,
        },
    )
    .expect("open")
    {
        guestos::SyscallRet::Fd(fd) => fd,
        other => unreachable!("open returned {other:?}"),
    };
    env.settle_in_vm1().expect("settle");
    for bytes in [0usize, 64, 256, 1024, 4096, 16384] {
        let write = Syscall::Write {
            fd,
            data: vec![0u8; bytes],
        };
        let snap = env.platform.cpu().meter().snapshot();
        hypervisor_cross_vm_syscall(&mut env, &write).expect("baseline write");
        let base = env.platform.cpu().meter().since(snap);
        env.settle_in_vm1().expect("settle");
        let snap = env.platform.cpu().meter().snapshot();
        vmfunc_cross_vm_syscall(&mut env, &write).expect("vmfunc write");
        let opt = env.platform.cpu().meter().since(snap);
        println!(
            "{bytes},{:.3},{:.3}",
            base.micros(Frequency::GHZ_3_4),
            opt.micros(Frequency::GHZ_3_4)
        );
    }
    println!();
}

fn sweep_nested() {
    println!("# cross-VM call hops by nesting depth and mechanism");
    println!("topology,sw_hops,vmfunc_hops,crossover_hops");
    // Flat: U_VM1 -> U_VM2.
    let flat = HopPlanner::new(2);
    let (f, t) = (WorldCoord::guest_user(1), WorldCoord::guest_user(2));
    println!(
        "flat-L1,{},{},{}",
        flat.hops(f, t, Mechanism::Existing).expect("reachable"),
        flat.hops(f, t, Mechanism::Vmfunc).expect("reachable"),
        flat.hops(f, t, Mechanism::CrossOver).expect("reachable"),
    );
    // Nested: U_VM1.1 -> U_VM1.2 (two L2s under one guest hypervisor).
    let nested = HopPlanner::with_nested(1, 2);
    let (f, t) = (WorldCoord::nested_user(1, 1), WorldCoord::nested_user(1, 2));
    println!(
        "nested-L2,{},{},{}",
        nested.hops(f, t, Mechanism::Existing).expect("reachable"),
        nested
            .hops(f, t, Mechanism::Vmfunc)
            .map_or("-".into(), |h| h.to_string()),
        nested.hops(f, t, Mechanism::CrossOver).expect("reachable"),
    );
    println!();
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match arg.as_str() {
        "load" => sweep_load(),
        "capacity" => sweep_capacity(),
        "payload" => sweep_payload(),
        "nested" => sweep_nested(),
        "all" => {
            sweep_load();
            sweep_capacity();
            sweep_payload();
            sweep_nested();
        }
        other => {
            eprintln!("unknown sweep '{other}' (load|capacity|payload|nested|all)");
            std::process::exit(2);
        }
    }
}
