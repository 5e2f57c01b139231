//! Dumps the annotated transition trace of any system's redirected call —
//! a debugging lens over the simulation.
//!
//! ```text
//! trace proxos-original        # Figure 2(a)'s path, step by step
//! trace proxos-optimized
//! trace hypershell-original
//! trace hypershell-optimized
//! trace tahoma-original
//! trace tahoma-optimized
//! trace shadowcontext-original
//! trace shadowcontext-optimized
//! trace crossover              # the full world_call path
//! trace native                 # a plain guest syscall
//! ```

use guestos::syscall::Syscall;
use machine::cost::Frequency;
use systems::crossvm::{crossover_cross_vm_syscall, CrossOverChannel};
use systems::env::CrossVmEnv;
use systems::hypershell::HyperShell;
use systems::proxos::Proxos;
use systems::shadowcontext::ShadowContext;
use systems::tahoma::Tahoma;

/// Prints the events recorded since `record_events`; an empty window is
/// an error, so a call path that stopped recording cannot pass silently.
fn dump(env: &CrossVmEnv, label: &str) -> Result<(), Box<dyn std::error::Error>> {
    let trace = env.platform.cpu().trace();
    if trace.events().is_empty() {
        return Err(format!("{label}: no transition events were recorded").into());
    }
    println!("{label}: NULL syscall transition trace\n");
    let mut cycles = 0u64;
    for e in trace.events() {
        cycles += e.cycles;
        println!("  {e}   [+{} cy]", e.cycles);
    }
    println!(
        "\n  {} transitions, {} ring crossings, {} hypervisor interventions",
        trace.len(),
        trace.ring_crossings(),
        trace.hypervisor_interventions()
    );
    println!(
        "  transition cycles: {} ({:.3} us; work cycles excluded)",
        cycles,
        machine::cost::Cycles(cycles).as_micros(Frequency::GHZ_3_4)
    );
    Ok(())
}

fn run(which: &str) -> Result<(), Box<dyn std::error::Error>> {
    match which {
        "native" => {
            let mut env = CrossVmEnv::new("vm1", "vm2")?;
            env.k1.syscall(&mut env.platform, Syscall::Null)?;
            env.settle_in_vm1()?;
            env.platform.cpu_mut().record_events();
            env.k1.syscall(&mut env.platform, Syscall::Null)?;
            dump(&env, "native")?;
        }
        "crossover" => {
            let mut env = CrossVmEnv::new("vm1", "vm2")?;
            let mut ch = CrossOverChannel::setup(&mut env)?;
            crossover_cross_vm_syscall(&mut env, &mut ch, &Syscall::Null)?;
            env.settle_in_vm1()?;
            env.platform.cpu_mut().record_events();
            crossover_cross_vm_syscall(&mut env, &mut ch, &Syscall::Null)?;
            dump(&env, "crossover world_call")?;
        }
        sys => {
            let (name, mode) = sys
                .rsplit_once('-')
                .ok_or("expected <system>-<original|optimized>")?;
            let optimized = match mode {
                "original" => false,
                "optimized" => true,
                other => return Err(format!("unknown mode {other}").into()),
            };
            macro_rules! drive {
                ($ty:ident, $call:ident) => {{
                    let mut s = if optimized {
                        $ty::optimized()?
                    } else {
                        $ty::baseline()?
                    };
                    s.$call(&Syscall::Null)?;
                    s.env.settle_in_vm1()?;
                    s.env.platform.cpu_mut().record_events();
                    s.$call(&Syscall::Null)?;
                    dump(&s.env, sys)?;
                }};
            }
            match name {
                "proxos" => drive!(Proxos, redirected_syscall),
                "hypershell" => drive!(HyperShell, reverse_syscall),
                "tahoma" => drive!(Tahoma, browser_call),
                "shadowcontext" => drive!(ShadowContext, introspect_syscall),
                other => return Err(format!("unknown system {other}").into()),
            }
        }
    }
    Ok(())
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| {
        eprintln!("usage: trace <native|crossover|proxos-original|proxos-optimized|...>");
        std::process::exit(2);
    });
    if let Err(e) = run(&which) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
