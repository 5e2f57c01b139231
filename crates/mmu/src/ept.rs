//! Extended page tables: GPA → HPA mappings identified by an EPT pointer.
//!
//! One EPT per guest VM (plus extra EPTs for VMFUNC-based world views).
//! Switching the active EPT is what VMFUNC(0) does without a VMExit, and
//! what makes the paper's cross-VM calls possible: the same CR3/GVA resolve
//! through a *different* EPT into a different VM's memory.

use crate::addr::{Gpa, Hpa, PAGE_SIZE};
use crate::pagetable::HUGE_PAGE_SIZE;
use crate::perms::Perms;
use crate::radix::{HugeError, Radix};
use crate::MmuError;

/// A leaf EPT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EptEntry {
    /// The host-physical frame backing this guest-physical page.
    pub hpa: Hpa,
    /// Access permissions granted by the hypervisor.
    pub perms: Perms,
}

/// An extended page table, the second translation stage.
///
/// # Example
///
/// ```
/// use xover_mmu::addr::{Gpa, Hpa};
/// use xover_mmu::ept::Ept;
/// use xover_mmu::perms::Perms;
///
/// let mut ept = Ept::new(0xAA000);
/// ept.map(Gpa(0x2000), Hpa(0x5000), Perms::rwx())?;
/// assert_eq!(ept.translate(Gpa(0x20ff), Perms::r())?, Hpa(0x50ff));
/// # Ok::<(), xover_mmu::MmuError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ept {
    eptp: u64,
    table: Radix<EptEntry>,
}

impl Ept {
    /// Creates an empty EPT whose pointer value is `eptp`.
    pub fn new(eptp: u64) -> Ept {
        Ept {
            eptp,
            table: Radix::new(),
        }
    }

    /// The EPT pointer (a host-physical address in real hardware; an
    /// opaque identifier here).
    pub fn eptp(&self) -> u64 {
        self.eptp
    }

    /// Number of mapped guest-physical pages.
    pub fn mapped_pages(&self) -> u64 {
        self.table.len()
    }

    /// Maps the guest-physical page containing `gpa` to host frame `hpa`.
    ///
    /// # Errors
    ///
    /// * [`MmuError::Misaligned`] if either address is not page-aligned.
    /// * [`MmuError::AlreadyMapped`] if the page is already mapped.
    pub fn map(&mut self, gpa: Gpa, hpa: Hpa, perms: Perms) -> Result<(), MmuError> {
        if !gpa.is_page_aligned() {
            return Err(MmuError::Misaligned { addr: gpa.value() });
        }
        if !hpa.is_page_aligned() {
            return Err(MmuError::Misaligned { addr: hpa.value() });
        }
        if self.table.lookup(gpa.frame_number()).is_some() {
            return Err(MmuError::AlreadyMapped { addr: gpa.value() });
        }
        self.table
            .insert(gpa.frame_number(), EptEntry { hpa, perms })
            .map_err(|e| match e {
                HugeError::Overlap { .. } => MmuError::AlreadyMapped { addr: gpa.value() },
                _ => MmuError::Misaligned { addr: gpa.value() },
            })?;
        Ok(())
    }

    /// Maps a 2 MiB huge EPT page (the large-page backing real
    /// hypervisors prefer for guest RAM). Both addresses must be 2 MiB
    /// aligned.
    ///
    /// # Errors
    ///
    /// * [`MmuError::Misaligned`] on misaligned addresses.
    /// * [`MmuError::AlreadyMapped`] on overlap.
    pub fn map_huge(&mut self, gpa: Gpa, hpa: Hpa, perms: Perms) -> Result<(), MmuError> {
        if !gpa.value().is_multiple_of(HUGE_PAGE_SIZE) {
            return Err(MmuError::Misaligned { addr: gpa.value() });
        }
        if !hpa.value().is_multiple_of(HUGE_PAGE_SIZE) {
            return Err(MmuError::Misaligned { addr: hpa.value() });
        }
        self.table
            .insert_huge(gpa.frame_number(), 1, EptEntry { hpa, perms })
            .map_err(|e| match e {
                HugeError::Overlap { .. } => MmuError::AlreadyMapped { addr: gpa.value() },
                _ => MmuError::Misaligned { addr: gpa.value() },
            })
    }

    /// Unmaps a 2 MiB huge EPT page.
    pub fn unmap_huge(&mut self, gpa: Gpa) -> Option<EptEntry> {
        self.table.remove_huge(gpa.frame_number(), 1)
    }

    /// Maps or replaces the mapping for the page containing `gpa`.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::Misaligned`] on unaligned addresses.
    pub fn remap(
        &mut self,
        gpa: Gpa,
        hpa: Hpa,
        perms: Perms,
    ) -> Result<Option<EptEntry>, MmuError> {
        if !gpa.is_page_aligned() {
            return Err(MmuError::Misaligned { addr: gpa.value() });
        }
        if !hpa.is_page_aligned() {
            return Err(MmuError::Misaligned { addr: hpa.value() });
        }
        self.table
            .insert(gpa.frame_number(), EptEntry { hpa, perms })
            .map_err(|e| match e {
                HugeError::Overlap { .. } => MmuError::AlreadyMapped { addr: gpa.value() },
                _ => MmuError::Misaligned { addr: gpa.value() },
            })
    }

    /// Removes the mapping for the page containing `gpa`.
    pub fn unmap(&mut self, gpa: Gpa) -> Option<EptEntry> {
        self.table.remove(gpa.frame_number())
    }

    /// Looks up the entry covering `gpa` without a permission check.
    pub fn entry(&self, gpa: Gpa) -> Option<&EptEntry> {
        self.table.lookup(gpa.frame_number())
    }

    /// Translates `gpa` to a host-physical address, checking `access`.
    ///
    /// # Errors
    ///
    /// * [`MmuError::EptViolation`] if unmapped.
    /// * [`MmuError::PermissionDenied`] if access is not permitted.
    pub fn translate(&self, gpa: Gpa, access: Perms) -> Result<Hpa, MmuError> {
        let (entry, _, covered) = self
            .table
            .walk_with_coverage(gpa.frame_number())
            .ok_or(MmuError::EptViolation { gpa })?;
        if !entry.perms.allows(access) {
            return Err(MmuError::PermissionDenied {
                required: access,
                granted: entry.perms,
            });
        }
        let region = PAGE_SIZE << covered;
        Ok(entry.hpa + (gpa.value() & (region - 1)))
    }

    /// Iterates over `(guest-physical page base, entry)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Gpa, &EptEntry)> + '_ {
        self.table.iter().map(|(f, e)| (Gpa::from_frame(f), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate() {
        let mut ept = Ept::new(1);
        ept.map(Gpa(0x2000), Hpa(0x5000), Perms::rwx()).unwrap();
        assert_eq!(ept.translate(Gpa(0x2e11), Perms::x()).unwrap(), Hpa(0x5e11));
    }

    #[test]
    fn violation_on_unmapped() {
        let ept = Ept::new(1);
        assert!(matches!(
            ept.translate(Gpa(0x9000), Perms::r()),
            Err(MmuError::EptViolation { gpa: Gpa(0x9000) })
        ));
    }

    #[test]
    fn two_epts_give_same_gpa_different_hpa() {
        // The essence of a VMFUNC world switch: one GPA, two views.
        let mut ept_a = Ept::new(1);
        let mut ept_b = Ept::new(2);
        ept_a.map(Gpa(0x2000), Hpa(0x5000), Perms::rw()).unwrap();
        ept_b.map(Gpa(0x2000), Hpa(0x7000), Perms::rw()).unwrap();
        assert_eq!(
            ept_a.translate(Gpa(0x2000), Perms::r()).unwrap(),
            Hpa(0x5000)
        );
        assert_eq!(
            ept_b.translate(Gpa(0x2000), Perms::r()).unwrap(),
            Hpa(0x7000)
        );
    }

    #[test]
    fn permission_denied_on_ept_protected_page() {
        let mut ept = Ept::new(1);
        ept.map(Gpa(0x2000), Hpa(0x5000), Perms::r()).unwrap();
        assert!(matches!(
            ept.translate(Gpa(0x2000), Perms::w()),
            Err(MmuError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn unmap_and_remap() {
        let mut ept = Ept::new(1);
        ept.map(Gpa(0x2000), Hpa(0x5000), Perms::rw()).unwrap();
        assert!(ept.unmap(Gpa(0x2000)).is_some());
        assert!(ept.unmap(Gpa(0x2000)).is_none());
        ept.remap(Gpa(0x2000), Hpa(0x6000), Perms::rw()).unwrap();
        assert_eq!(ept.translate(Gpa(0x2000), Perms::r()).unwrap(), Hpa(0x6000));
        assert_eq!(ept.mapped_pages(), 1);
    }

    #[test]
    fn misaligned_rejected() {
        let mut ept = Ept::new(1);
        assert!(ept.map(Gpa(0x2001), Hpa(0x5000), Perms::r()).is_err());
        assert!(ept.map(Gpa(0x2000), Hpa(0x5008), Perms::r()).is_err());
    }

    #[test]
    fn unmap_huge_frees_the_nodes_it_empties() {
        let mut ept = Ept::new(0);
        let baseline = ept.table.node_count();
        ept.map_huge(Gpa(HUGE_PAGE_SIZE), Hpa(0), Perms::rwx())
            .unwrap();
        assert_eq!(ept.table.node_count(), baseline + 2);
        assert!(ept.unmap_huge(Gpa(HUGE_PAGE_SIZE)).is_some());
        assert_eq!(ept.table.node_count(), baseline);
    }

    #[test]
    fn huge_ept_backing_translates_across_the_region() {
        use crate::pagetable::HUGE_PAGE_SIZE;
        let mut ept = Ept::new(1);
        ept.map_huge(Gpa(0), Hpa(HUGE_PAGE_SIZE), Perms::rwx())
            .unwrap();
        assert_eq!(
            ept.translate(Gpa(0x1F_0000), Perms::r()).unwrap(),
            Hpa(HUGE_PAGE_SIZE + 0x1F_0000)
        );
        // 4 KiB overlap rejected; removal frees the region.
        assert!(ept.map(Gpa(0x4000), Hpa(0x8000), Perms::r()).is_err());
        assert!(ept.unmap_huge(Gpa(0)).is_some());
        assert!(ept.map(Gpa(0x4000), Hpa(0x8000), Perms::r()).is_ok());
    }
}
