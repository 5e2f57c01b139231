//! Quickstart: two worlds, one intervention-free cross-world call.
//!
//! Builds the simulated machine, registers a caller world (an application
//! in VM-1) and a callee world (a service kernel in VM-2), performs a
//! `world_call` round trip, and prints the transition trace to show that
//! the hypervisor never ran.
//!
//! Run with: `cargo run --example quickstart`

use crossover::manager::WorldManager;
use crossover::world::WorldDescriptor;
use hypervisor::platform::Platform;
use hypervisor::vm::VmConfig;
use machine::cost::Frequency;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A machine with the paper's Haswell 3.4 GHz cost model.
    let mut platform = Platform::new_default();
    let vm1 = platform.create_vm(VmConfig::named("app-vm"))?;
    let vm2 = platform.create_vm(VmConfig::named("service-vm"))?;

    // One-time setup: both sides register their worlds with the
    // hypervisor and get unforgeable World IDs.
    let mut manager = WorldManager::new();
    let caller_desc = WorldDescriptor::guest_user(&platform, vm1, 0x1000, 0x40_0000)?;
    let callee_desc = WorldDescriptor::guest_kernel(&platform, vm2, 0x2000, 0xFFFF_8000)?;
    let caller = manager.register_world(&mut platform, caller_desc)?;
    let callee = manager.register_world(&mut platform, callee_desc)?;
    println!("registered caller {caller} and callee {callee}");

    // Enter the caller's world.
    platform.vmentry(vm1)?;
    platform.cpu_mut().force_cr3(0x1000);
    // Keep every transition's event from here on, to print them below.
    platform.cpu_mut().record_events();

    // The cross-world call: one hardware transition each way.
    let snap = platform.cpu().meter().snapshot();
    let token = manager.call(&mut platform, caller, callee)?;
    println!(
        "now executing {} in mode {}",
        token.callee,
        platform.cpu().mode()
    );
    platform.cpu_mut().charge_work(626, 200, "service body");
    manager.ret(&mut platform, token)?;
    let delta = platform.cpu().meter().since(snap);

    println!("\ntransition trace:");
    for event in platform.cpu().trace().events() {
        println!("  {event}");
    }
    println!(
        "\nround trip: {:.3} us, hypervisor interventions: {}",
        delta.micros(Frequency::GHZ_3_4),
        platform.cpu().trace().hypervisor_interventions()
    );
    assert_eq!(platform.cpu().trace().hypervisor_interventions(), 0);
    // Every counted transition was also recorded as an event.
    let trace = platform.cpu().trace();
    assert_eq!(trace.events().len() as u64, trace.len());
    Ok(())
}
