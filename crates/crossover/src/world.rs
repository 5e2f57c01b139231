//! World identities: WIDs, contexts and descriptors.

use std::fmt;

use hypervisor::platform::Platform;
use hypervisor::vm::VmId;
use hypervisor::HvError;
use machine::mode::{CpuMode, Operation, Ring};

/// An unforgeable World ID (§3.2).
///
/// WIDs are allocated by the hypervisor from a monotonic counter and never
/// reused, so a deleted world's WID can never be spoofed by a later
/// registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Wid(u64);

impl Wid {
    /// Creates a WID from its raw value.
    ///
    /// Only hypervisor-side allocators (the [`crate::table::WorldTable`]
    /// and the runtime's epoch table that mirrors it) should mint
    /// WIDs; unforgeability comes from the table honouring only WIDs it
    /// allocated, not from hiding the constructor.
    pub fn from_raw(raw: u64) -> Wid {
        Wid(raw)
    }

    /// The raw value (register encoding of the WID).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Wid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wid:{}", self.0)
    }
}

/// The hardware-visible execution context that identifies a world: the
/// fields the IWT cache is keyed by (§5.1: "H/G, Ring, EPTP and PTP").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorldContext {
    /// Host or guest operation.
    pub operation: Operation,
    /// Privilege ring.
    pub ring: Ring,
    /// EPT pointer (0 for host-side worlds, which bypass the EPT).
    pub eptp: u64,
    /// Guest page-table root (the PTP field of the world table).
    pub ptp: u64,
}

impl WorldContext {
    /// The combined privilege mode of this context.
    pub fn mode(&self) -> CpuMode {
        CpuMode::new(self.operation, self.ring)
    }

    /// Captures the current context of the platform's CPU — what the
    /// `world_call` hardware reads to identify the caller.
    pub fn capture(platform: &Platform) -> WorldContext {
        let cpu = platform.cpu();
        WorldContext {
            operation: cpu.mode().operation(),
            ring: cpu.mode().ring(),
            eptp: cpu.eptp(),
            ptp: cpu.cr3(),
        }
    }
}

impl fmt::Display for WorldContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} eptp={:#x} ptp={:#x}]",
            self.mode(),
            self.eptp,
            self.ptp
        )
    }
}

/// Everything a namespace supplies when registering itself as a world:
/// its context plus its single entry-point address (§3.2: "each world has
/// only one entry point").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldDescriptor {
    /// The execution context.
    pub context: WorldContext,
    /// Guest-virtual entry point jumped to on every incoming call.
    pub entry_point: u64,
    /// Owning VM, used for quota accounting. Host-side worlds have none.
    pub owner: Option<VmId>,
}

impl WorldDescriptor {
    /// Descriptor for a guest *user* world in `vm` with page-table root
    /// `cr3` and entry point `entry`.
    ///
    /// # Errors
    ///
    /// [`HvError::NoSuchVm`] if `vm` is unknown.
    pub fn guest_user(
        platform: &Platform,
        vm: VmId,
        cr3: u64,
        entry: u64,
    ) -> Result<WorldDescriptor, HvError> {
        Ok(WorldDescriptor {
            context: WorldContext {
                operation: Operation::NonRoot,
                ring: Ring::Ring3,
                eptp: platform.eptp_of(vm)?,
                ptp: cr3,
            },
            entry_point: entry,
            owner: Some(vm),
        })
    }

    /// Descriptor for a guest *kernel* world in `vm`.
    ///
    /// # Errors
    ///
    /// [`HvError::NoSuchVm`] if `vm` is unknown.
    pub fn guest_kernel(
        platform: &Platform,
        vm: VmId,
        cr3: u64,
        entry: u64,
    ) -> Result<WorldDescriptor, HvError> {
        Ok(WorldDescriptor {
            context: WorldContext {
                operation: Operation::NonRoot,
                ring: Ring::Ring0,
                eptp: platform.eptp_of(vm)?,
                ptp: cr3,
            },
            entry_point: entry,
            owner: Some(vm),
        })
    }

    /// Descriptor for a host *user* world (e.g. HyperShell's shell, had
    /// the paper's security fix not moved it into a VM).
    pub fn host_user(cr3: u64, entry: u64) -> WorldDescriptor {
        WorldDescriptor {
            context: WorldContext {
                operation: Operation::Root,
                ring: Ring::Ring3,
                eptp: 0,
                ptp: cr3,
            },
            entry_point: entry,
            owner: None,
        }
    }

    /// Descriptor for a host *kernel* world.
    pub fn host_kernel(cr3: u64, entry: u64) -> WorldDescriptor {
        WorldDescriptor {
            context: WorldContext {
                operation: Operation::Root,
                ring: Ring::Ring0,
                eptp: 0,
                ptp: cr3,
            },
            entry_point: entry,
            owner: None,
        }
    }
}

/// One world-table entry (Figure 5's world table structure: P, WID, H/G,
/// Ring, EPTP, PTP, PC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldEntry {
    /// Present bit.
    pub present: bool,
    /// The world's id.
    pub wid: Wid,
    /// Execution context (H/G, Ring, EPTP, PTP).
    pub context: WorldContext,
    /// Entry-point PC.
    pub entry_point: u64,
}

/// Size of a packed [`WorldEntry`]: WID, EPTP, PTP and PC at 8 bytes
/// each plus one flags byte (present, H/G, ring).
pub const PACKED_ENTRY_BYTES: usize = 33;

impl WorldEntry {
    /// Serializes the entry into its compact fixed-width form — the
    /// record format cold worlds are demoted to when an evictable table
    /// pages them out. Stable across the round trip with
    /// [`WorldEntry::unpack`]; no pointers, no padding.
    pub fn pack(&self) -> [u8; PACKED_ENTRY_BYTES] {
        let mut out = [0u8; PACKED_ENTRY_BYTES];
        out[0..8].copy_from_slice(&self.wid.raw().to_le_bytes());
        out[8..16].copy_from_slice(&self.context.eptp.to_le_bytes());
        out[16..24].copy_from_slice(&self.context.ptp.to_le_bytes());
        out[24..32].copy_from_slice(&self.entry_point.to_le_bytes());
        let ring = match self.context.ring {
            Ring::Ring0 => 0u8,
            Ring::Ring1 => 1,
            Ring::Ring2 => 2,
            Ring::Ring3 => 3,
        };
        out[32] = u8::from(self.present)
            | (u8::from(matches!(self.context.operation, Operation::NonRoot)) << 1)
            | (ring << 2);
        out
    }

    /// Deserializes a record produced by [`WorldEntry::pack`].
    pub fn unpack(bytes: &[u8; PACKED_ENTRY_BYTES]) -> WorldEntry {
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let flags = bytes[32];
        WorldEntry {
            present: flags & 1 != 0,
            wid: Wid::from_raw(word(0)),
            context: WorldContext {
                operation: if flags & 2 != 0 {
                    Operation::NonRoot
                } else {
                    Operation::Root
                },
                ring: match (flags >> 2) & 3 {
                    0 => Ring::Ring0,
                    1 => Ring::Ring1,
                    2 => Ring::Ring2,
                    _ => Ring::Ring3,
                },
                eptp: word(8),
                ptp: word(16),
            },
            entry_point: word(24),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervisor::vm::VmConfig;

    #[test]
    fn context_capture_reflects_cpu() {
        let mut p = Platform::new_default();
        let vm = p.create_vm(VmConfig::default()).unwrap();
        p.vmentry(vm).unwrap();
        p.cpu_mut().force_cr3(0x123_4000);
        let ctx = WorldContext::capture(&p);
        assert_eq!(ctx.operation, Operation::NonRoot);
        assert_eq!(ctx.ring, Ring::Ring3);
        assert_eq!(ctx.ptp, 0x123_4000);
        assert_eq!(ctx.eptp, p.eptp_of(vm).unwrap());
    }

    #[test]
    fn guest_descriptors_pick_up_vm_eptp() {
        let mut p = Platform::new_default();
        let vm1 = p.create_vm(VmConfig::default()).unwrap();
        let vm2 = p.create_vm(VmConfig::default()).unwrap();
        let u = WorldDescriptor::guest_user(&p, vm1, 0x1000, 0x400000).unwrap();
        let k = WorldDescriptor::guest_kernel(&p, vm2, 0x2000, 0x800000).unwrap();
        assert_ne!(u.context.eptp, k.context.eptp);
        assert_eq!(u.context.ring, Ring::Ring3);
        assert_eq!(k.context.ring, Ring::Ring0);
        assert_eq!(u.owner, Some(vm1));
    }

    #[test]
    fn host_descriptors_have_no_ept() {
        let h = WorldDescriptor::host_user(0x9000, 0x1000);
        assert_eq!(h.context.eptp, 0);
        assert_eq!(h.owner, None);
        assert!(h.context.operation.is_host());
    }

    #[test]
    fn unknown_vm_rejected() {
        let p = Platform::new_default();
        assert!(WorldDescriptor::guest_user(&p, VmId::new(7), 0, 0).is_err());
    }

    #[test]
    fn wid_display() {
        assert_eq!(Wid::from_raw(5).to_string(), "wid:5");
        assert_eq!(Wid::from_raw(5).raw(), 5);
    }
}
