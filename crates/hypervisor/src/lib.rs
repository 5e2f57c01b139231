//! A KVM-like hypervisor for the CrossOver reproduction.
//!
//! The baseline systems the paper studies (Proxos, HyperShell, Tahoma,
//! ShadowContext) all bounce through the hypervisor on every cross-world
//! interaction; CrossOver's entire contribution is removing those bounces.
//! This crate provides the hypervisor whose intervention is being removed:
//!
//! * [`vm`] — virtual machines and their per-VM state (EPT, EPTP list,
//!   VM id used as the VMFUNC index in §4.3).
//! * [`vmcs`] — the VM control structure: saved guest context across
//!   VMExit/VMEntry.
//! * [`exit`] — VMExit reasons.
//! * [`platform`] — the [`platform::Platform`]: one simulated machine
//!   binding a CPU, host physical memory, the hypervisor state and the
//!   VMFUNC logic together. All upper layers (guest OS, CrossOver, case
//!   studies) operate through `&mut Platform`.
//! * [`sched`] — the VM/process scheduling-latency model that dominates
//!   the baseline systems' worst cases (§7.1.1's "up to 35X" Proxos note).
//! * [`smp`] — per-core meters, one core per runtime worker, merged when
//!   the worker pool drains.
//!
//! # Example
//!
//! ```
//! use xover_hypervisor::platform::Platform;
//! use xover_hypervisor::vm::VmConfig;
//!
//! let mut p = Platform::new_default();
//! let vm1 = p.create_vm(VmConfig::default())?;
//! let vm2 = p.create_vm(VmConfig::default())?;
//! p.setup_vmfunc_eptp_list(vm1)?;
//! p.setup_vmfunc_eptp_list(vm2)?;
//! // Enter VM 1 and VMFUNC over to VM 2's EPT without a VMExit.
//! p.vmentry(vm1)?;
//! let before = p.cpu().trace().hypervisor_interventions();
//! p.vmfunc_switch_ept(vm2.index())?;
//! assert_eq!(p.cpu().trace().hypervisor_interventions(), before);
//! # Ok::<(), xover_hypervisor::HvError>(())
//! ```

pub mod exit;
pub mod platform;
pub mod sched;
pub mod smp;
pub mod vm;
pub mod vmcs;

pub use exit::ExitReason;
pub use platform::Platform;
pub use sched::SchedModel;
pub use vm::{VmConfig, VmId};
pub use vmcs::Vmcs;

use std::fmt;

use mmu::addr::Gpa;

/// Errors raised by hypervisor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HvError {
    /// Referenced a VM id that does not exist.
    NoSuchVm {
        /// The offending id.
        vm: VmId,
    },
    /// VMFUNC invoked with an EPTP-list index that is not populated.
    /// On real hardware this raises a VMExit with "VM function fault".
    InvalidEptpIndex {
        /// The index passed to VMFUNC.
        index: u16,
    },
    /// VMFUNC invoked while in VMX root operation (host side), where it is
    /// architecturally undefined.
    VmfuncFromRoot,
    /// VMEntry attempted while already in non-root operation.
    AlreadyInGuest,
    /// VMExit processed while not in non-root operation.
    NotInGuest,
    /// The per-VM EPTP list was never configured.
    EptpListNotConfigured {
        /// The VM whose list is missing.
        vm: VmId,
    },
    /// An MMU error encountered while manipulating guest memory.
    Mmu(mmu::MmuError),
    /// The hypervisor refused to map a shared region (e.g. overlap).
    SharedRegionConflict {
        /// The guest-physical address that conflicted.
        gpa: Gpa,
    },
}

impl fmt::Display for HvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HvError::NoSuchVm { vm } => write!(f, "no such VM: {vm}"),
            HvError::InvalidEptpIndex { index } => {
                write!(f, "VMFUNC fault: EPTP list index {index} is not populated")
            }
            HvError::VmfuncFromRoot => write!(f, "VMFUNC executed in VMX root operation"),
            HvError::AlreadyInGuest => write!(f, "VMEntry while already in non-root operation"),
            HvError::NotInGuest => write!(f, "VMExit processed while in root operation"),
            HvError::EptpListNotConfigured { vm } => {
                write!(f, "EPTP list not configured for {vm}")
            }
            HvError::Mmu(e) => write!(f, "guest memory error: {e}"),
            HvError::SharedRegionConflict { gpa } => {
                write!(f, "shared region conflicts with existing mapping at {gpa}")
            }
        }
    }
}

impl std::error::Error for HvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HvError::Mmu(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mmu::MmuError> for HvError {
    fn from(e: mmu::MmuError) -> HvError {
        HvError::Mmu(e)
    }
}
