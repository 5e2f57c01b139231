//! The hypervisor-managed world table (§3.2).
//!
//! The table lives "in a region of memory that can be accessed only by the
//! highest privileged software"; guests manipulate it exclusively through
//! registration hypercalls. WIDs are minted from a monotonic counter and
//! never reused, which is what makes them unforgeable: no sequence of
//! create/delete operations can make a stale WID name a new world.

use std::collections::HashMap;

use hypervisor::vm::VmId;

use crate::world::{Wid, WorldContext, WorldDescriptor, WorldEntry};
use crate::WorldError;

/// Default per-VM world-creation quota (§3.2: "a hypervisor can limit the
/// number of worlds a VM can create to avoid DoS attacks").
pub const DEFAULT_WORLD_QUOTA: usize = 16;

/// Read-only world resolution: what the hardware walk needs on a
/// WT-/IWT-cache miss.
///
/// [`WorldTable`] is the sequential implementation; the runtime crate's
/// epoch-protected table implements the same contract for concurrent
/// readers, so the [`crate::call::WorldCallUnit`] can drive either.
pub trait WorldLookup {
    /// Resolves a WID to its entry (WT-cache miss walk).
    fn entry_of(&self, wid: Wid) -> Option<WorldEntry>;

    /// Resolves a hardware context to its WID (IWT-cache miss walk).
    fn wid_of(&self, context: &WorldContext) -> Option<Wid>;
}

impl WorldLookup for WorldTable {
    fn entry_of(&self, wid: Wid) -> Option<WorldEntry> {
        self.lookup(wid).copied()
    }

    fn wid_of(&self, context: &WorldContext) -> Option<Wid> {
        self.lookup_context(context)
    }
}

/// The world table.
///
/// # Example
///
/// ```
/// use xover_crossover::table::WorldTable;
/// use xover_crossover::world::WorldDescriptor;
///
/// let mut table = WorldTable::new();
/// let wid = table.create(WorldDescriptor::host_user(0x1000, 0x40_0000))?;
/// assert!(table.lookup(wid).is_some());
/// table.delete(wid)?;
/// assert!(table.lookup(wid).is_none());
/// # Ok::<(), xover_crossover::WorldError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WorldTable {
    entries: HashMap<u64, WorldEntry>,
    by_context: HashMap<WorldContext, Wid>,
    owners: HashMap<u64, Option<VmId>>,
    per_vm_count: HashMap<VmId, usize>,
    next_wid: u64,
    quota: usize,
}

impl WorldTable {
    /// Creates an empty table with the default quota.
    pub fn new() -> WorldTable {
        WorldTable::with_quota(DEFAULT_WORLD_QUOTA)
    }

    /// Creates an empty table with a custom per-VM quota.
    ///
    /// # Panics
    ///
    /// Panics if `quota` is zero.
    pub fn with_quota(quota: usize) -> WorldTable {
        assert!(quota > 0, "quota must be positive");
        WorldTable {
            entries: HashMap::new(),
            by_context: HashMap::new(),
            owners: HashMap::new(),
            per_vm_count: HashMap::new(),
            next_wid: 1,
            quota,
        }
    }

    /// Number of present worlds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no worlds are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The per-VM quota.
    pub fn quota(&self) -> usize {
        self.quota
    }

    /// Registers a world and mints its WID.
    ///
    /// # Errors
    ///
    /// [`WorldError::QuotaExceeded`] if the owning VM is at its quota.
    /// Re-registering an identical context replaces the old entry
    /// (the old WID is invalidated) without consuming extra quota.
    pub fn create(&mut self, descriptor: WorldDescriptor) -> Result<Wid, WorldError> {
        // Replacement: same context re-registered.
        if let Some(old) = self.by_context.get(&descriptor.context).copied() {
            self.entries.remove(&old.raw());
            self.owners.remove(&old.raw());
            if let Some(vm) = descriptor.owner {
                // Quota slot is reused, no decrement needed — but keep
                // the count consistent since we re-add below.
                *self.per_vm_count.entry(vm).or_insert(1) -= 1;
            }
        } else if let Some(vm) = descriptor.owner {
            let count = self.per_vm_count.entry(vm).or_insert(0);
            if *count >= self.quota {
                return Err(WorldError::QuotaExceeded { quota: self.quota });
            }
        }
        let wid = Wid::from_raw(self.next_wid);
        self.next_wid += 1;
        self.insert_entry(descriptor, wid);
        Ok(wid)
    }

    fn insert_entry(&mut self, descriptor: WorldDescriptor, wid: Wid) {
        let entry = WorldEntry {
            present: true,
            wid,
            context: descriptor.context,
            entry_point: descriptor.entry_point,
        };
        self.entries.insert(wid.raw(), entry);
        self.by_context.insert(descriptor.context, wid);
        self.owners.insert(wid.raw(), descriptor.owner);
        if let Some(vm) = descriptor.owner {
            *self.per_vm_count.entry(vm).or_insert(0) += 1;
        }
    }

    /// Deletes a world.
    ///
    /// # Errors
    ///
    /// [`WorldError::InvalidWid`] if absent.
    pub fn delete(&mut self, wid: Wid) -> Result<(), WorldError> {
        let entry = self
            .entries
            .remove(&wid.raw())
            .ok_or(WorldError::InvalidWid { wid })?;
        self.by_context.remove(&entry.context);
        if let Some(Some(vm)) = self.owners.remove(&wid.raw()) {
            if let Some(c) = self.per_vm_count.get_mut(&vm) {
                *c = c.saturating_sub(1);
            }
        }
        Ok(())
    }

    /// Looks up a world by WID — the walk the hypervisor performs on a
    /// WT-cache miss.
    pub fn lookup(&self, wid: Wid) -> Option<&WorldEntry> {
        self.entries.get(&wid.raw())
    }

    /// Looks up a world by context — the walk on an IWT-cache miss.
    pub fn lookup_context(&self, context: &WorldContext) -> Option<Wid> {
        self.by_context.get(context).copied()
    }

    /// Number of worlds owned by `vm`.
    pub fn world_count(&self, vm: VmId) -> usize {
        self.per_vm_count.get(&vm).copied().unwrap_or(0)
    }

    /// Iterates over all present entries.
    pub fn iter(&self) -> impl Iterator<Item = &WorldEntry> + '_ {
        self.entries.values()
    }
}

impl Default for WorldTable {
    fn default() -> WorldTable {
        WorldTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervisor::platform::Platform;
    use hypervisor::vm::VmConfig;

    fn guest_desc(p: &Platform, vm: VmId, cr3: u64) -> WorldDescriptor {
        WorldDescriptor::guest_user(p, vm, cr3, 0x40_0000).unwrap()
    }

    #[test]
    fn wids_are_never_reused() {
        let mut t = WorldTable::new();
        let a = t.create(WorldDescriptor::host_user(0x1000, 0)).unwrap();
        t.delete(a).unwrap();
        let b = t.create(WorldDescriptor::host_user(0x1000, 0)).unwrap();
        assert_ne!(a, b, "a deleted WID must never name a new world");
        assert!(t.lookup(a).is_none());
        assert!(t.lookup(b).is_some());
    }

    #[test]
    fn context_lookup_inverts_wid_lookup() {
        let mut t = WorldTable::new();
        let d = WorldDescriptor::host_kernel(0x3000, 0xFF);
        let wid = t.create(d).unwrap();
        assert_eq!(t.lookup_context(&d.context), Some(wid));
        assert_eq!(t.lookup(wid).unwrap().entry_point, 0xFF);
    }

    #[test]
    fn quota_enforced_per_vm() {
        let mut p = Platform::new_default();
        let vm1 = p.create_vm(VmConfig::default()).unwrap();
        let vm2 = p.create_vm(VmConfig::default()).unwrap();
        let mut t = WorldTable::with_quota(2);
        t.create(guest_desc(&p, vm1, 0x1000)).unwrap();
        t.create(guest_desc(&p, vm1, 0x2000)).unwrap();
        assert_eq!(
            t.create(guest_desc(&p, vm1, 0x3000)),
            Err(WorldError::QuotaExceeded { quota: 2 })
        );
        // vm2's quota is independent.
        assert!(t.create(guest_desc(&p, vm2, 0x1000)).is_ok());
        assert_eq!(t.world_count(vm1), 2);
        assert_eq!(t.world_count(vm2), 1);
    }

    #[test]
    fn delete_releases_quota() {
        let mut p = Platform::new_default();
        let vm = p.create_vm(VmConfig::default()).unwrap();
        let mut t = WorldTable::with_quota(1);
        let wid = t.create(guest_desc(&p, vm, 0x1000)).unwrap();
        t.delete(wid).unwrap();
        assert!(t.create(guest_desc(&p, vm, 0x2000)).is_ok());
    }

    #[test]
    fn host_worlds_are_unquota_ed() {
        let mut t = WorldTable::with_quota(1);
        for i in 0..10 {
            t.create(WorldDescriptor::host_user(0x1000 * (i + 1), 0))
                .unwrap();
        }
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn reregistering_same_context_replaces_old_wid() {
        let mut p = Platform::new_default();
        let vm = p.create_vm(VmConfig::default()).unwrap();
        let mut t = WorldTable::with_quota(1);
        let old = t.create(guest_desc(&p, vm, 0x1000)).unwrap();
        let new = t.create(guest_desc(&p, vm, 0x1000)).unwrap();
        assert_ne!(old, new);
        assert!(t.lookup(old).is_none(), "old WID invalidated");
        assert_eq!(t.world_count(vm), 1, "no extra quota consumed");
    }

    #[test]
    fn delete_unknown_wid_errors() {
        let mut t = WorldTable::new();
        let ghost = Wid::from_raw(99);
        assert_eq!(t.delete(ghost), Err(WorldError::InvalidWid { wid: ghost }));
    }

    #[test]
    #[should_panic(expected = "quota must be positive")]
    fn zero_quota_panics() {
        WorldTable::with_quota(0);
    }
}
