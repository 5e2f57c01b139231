//! CrossOver: flexible cross-world calls — the paper's core contribution.
//!
//! A **world** is an address space in a specific privilege mode (§3.2). A
//! **world_call** switches the CPU directly from one registered world to
//! another — changing host/guest operation, ring, page-table root and EPT
//! pointer in a single instruction — with *authentication* done in
//! hardware (unforgeable World IDs looked up in a hypervisor-managed world
//! table) and *authorization* left to callee software. No hypervisor or OS
//! kernel runs on the call path; the privileged software is only involved
//! at registration time and on world-table-cache misses.
//!
//! Module map:
//!
//! * [`world`] — world identities: [`world::Wid`], [`world::WorldContext`]
//!   (the H/G + ring + EPTP + PTP tuple) and [`world::WorldDescriptor`].
//! * [`table`] — the hypervisor-managed [`table::WorldTable`] with per-VM
//!   creation quotas (the anti-DoS measure of §3.2).
//! * [`wtc`] — the two software-managed hardware caches of §5.1:
//!   [`wtc::WtCache`] (WID → entry, for callee lookup) and
//!   [`wtc::IwtCache`] (context → WID, for caller identification).
//! * [`call`] — the [`call::WorldCallUnit`]: the extended-VMFUNC hardware
//!   logic that executes `world_call` (VMFUNC leaf 0x1) and `manage_wtc`
//!   (leaf 0x2).
//! * [`manager`] — the software layer: [`manager::WorldManager`] for
//!   registration hypercalls, per-world call stacks with control-flow
//!   integrity checks, callee authorization policies, and the timeout
//!   defence against non-returning callees (§3.4).
//! * [`binding`] — the §3.4 alternative design: a hardware-checked
//!   caller/callee binding table (ablation).
//! * [`prefetch`] — the §5.1 alternative design: a Current-World-ID
//!   register reloaded at every context switch (ablation).
//! * [`switchless`] — shared-memory call channels priced as guest-memory
//!   accesses: the substrate for coalescing many calls into one world
//!   transition pair (amortized transitions/call < 1 on hot pairs).
//! * [`plan`] — the hop planner behind Table 3 and Table 1: minimal
//!   transition counts between any two worlds under each mechanism.
//!
//! # Example: two worlds, one intervention-free call
//!
//! ```
//! use hypervisor::platform::Platform;
//! use hypervisor::vm::VmConfig;
//! use machine::mode::CpuMode;
//! use xover_crossover::manager::WorldManager;
//! use xover_crossover::world::WorldDescriptor;
//!
//! let mut p = Platform::new_default();
//! let vm1 = p.create_vm(VmConfig::named("caller"))?;
//! let vm2 = p.create_vm(VmConfig::named("callee"))?;
//! let mut mgr = WorldManager::new();
//!
//! // Registration (one-time, via the hypervisor).
//! let caller_desc = WorldDescriptor::guest_user(&p, vm1, 0x1000, 0x4000_0000)?;
//! let callee_desc = WorldDescriptor::guest_kernel(&p, vm2, 0x2000, 0xffff_8000_0000)?;
//! let caller = mgr.register_world(&mut p, caller_desc)?;
//! let callee = mgr.register_world(&mut p, callee_desc)?;
//!
//! // Enter the caller world and call: no VMExit happens.
//! p.vmentry(vm1)?;
//! p.cpu_mut().force_cr3(0x1000);
//! let exits_before = p.cpu().trace().hypervisor_interventions();
//! let token = mgr.call(&mut p, caller, callee)?;
//! assert_eq!(p.cpu().mode(), CpuMode::GUEST_KERNEL);
//! mgr.ret(&mut p, token)?;
//! assert_eq!(p.cpu().trace().hypervisor_interventions(), exits_before);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod alt;
pub mod binding;
pub mod call;
pub mod image;
pub mod manager;
pub mod plan;
pub mod prefetch;
pub mod switchless;
pub mod table;
pub mod world;
pub mod wtc;

pub use call::WorldCallUnit;
pub use manager::{AuthPolicy, CallToken, WorldManager};
pub use plan::{HopPlanner, Mechanism, WorldCoord};
pub use switchless::{ChannelSegment, DrainStats};
pub use table::{WorldLookup, WorldTable};
pub use world::{Wid, WorldContext, WorldDescriptor};

use std::fmt;

use world::WorldContext as Ctx;

/// Errors raised by CrossOver operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldError {
    /// The per-VM world-creation quota would be exceeded (anti-DoS, §3.2).
    QuotaExceeded {
        /// The quota that was hit.
        quota: usize,
    },
    /// `world_call` executed from a context that never registered a world
    /// — raises an exception to the hypervisor (§3.3).
    NotAWorld {
        /// The unregistered context.
        context: Ctx,
    },
    /// The callee WID does not name a present world-table entry.
    InvalidWid {
        /// The offending WID.
        wid: Wid,
    },
    /// Callee software rejected the caller (authorization, §3.4).
    AuthorizationDenied {
        /// Who called.
        caller: Wid,
        /// Who refused.
        callee: Wid,
    },
    /// A world "returned" to a caller that was not expecting it —
    /// the control-flow-integrity check on the caller's call stack.
    ControlFlowViolation {
        /// The peer the caller expected to return.
        expected: Wid,
        /// The WID that actually arrived.
        got: Wid,
    },
    /// A return was attempted with no outstanding call.
    NoOutstandingCall {
        /// The world whose stack was empty.
        wid: Wid,
    },
    /// The binding table has no (caller, callee) pair (§3.4 alternative).
    NotBound {
        /// Caller of the rejected call.
        caller: Wid,
        /// Callee of the rejected call.
        callee: Wid,
    },
    /// The callee exceeded its cycle budget and the hypervisor cancelled
    /// the call on timeout (§3.4 DoS defence).
    CalleeTimeout {
        /// The cancelled callee.
        callee: Wid,
    },
    /// An underlying hypervisor/platform failure.
    Hv(hypervisor::HvError),
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::QuotaExceeded { quota } => {
                write!(f, "world-creation quota of {quota} exceeded")
            }
            WorldError::NotAWorld { context } => {
                write!(f, "world_call from unregistered context {context}")
            }
            WorldError::InvalidWid { wid } => write!(f, "invalid world id {wid}"),
            WorldError::AuthorizationDenied { caller, callee } => {
                write!(f, "callee {callee} refused caller {caller}")
            }
            WorldError::ControlFlowViolation { expected, got } => {
                write!(
                    f,
                    "control-flow violation: expected return from {expected}, got {got}"
                )
            }
            WorldError::NoOutstandingCall { wid } => {
                write!(f, "no outstanding call on {wid}'s stack")
            }
            WorldError::NotBound { caller, callee } => {
                write!(f, "no binding registered for {caller} -> {callee}")
            }
            WorldError::CalleeTimeout { callee } => {
                write!(f, "callee {callee} timed out; call cancelled by hypervisor")
            }
            WorldError::Hv(e) => write!(f, "platform error: {e}"),
        }
    }
}

impl std::error::Error for WorldError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorldError::Hv(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hypervisor::HvError> for WorldError {
    fn from(e: hypervisor::HvError) -> WorldError {
        WorldError::Hv(e)
    }
}
