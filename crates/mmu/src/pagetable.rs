//! Guest page tables: GVA → GPA mappings identified by a CR3 root value.

use crate::addr::{Gpa, Gva, PAGE_SIZE};
use crate::perms::Perms;
use crate::radix::{HugeError, Radix};
use crate::MmuError;

/// Size of a huge (2 MiB) page mapping.
pub const HUGE_PAGE_SIZE: u64 = PAGE_SIZE * 512;

/// A leaf page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// The guest-physical page this virtual page maps to.
    pub gpa: Gpa,
    /// Access permissions granted by the guest OS.
    pub perms: Perms,
}

/// A guest page table, the first translation stage.
///
/// Identified by its `cr3` root value; loading that value into the CPU's
/// CR3 register activates this address space. In the cross-VM syscall of
/// §4.3, caller and callee processes are arranged to have the *same* CR3
/// value in their respective VMs so that a VMFUNC EPT switch lands in a
/// valid address space.
///
/// # Example
///
/// ```
/// use xover_mmu::addr::{Gpa, Gva};
/// use xover_mmu::pagetable::PageTable;
/// use xover_mmu::perms::Perms;
///
/// let mut pt = PageTable::new(0x1000);
/// pt.map(Gva(0x7fff_0000), Gpa(0x3000), Perms::rw())?;
/// assert_eq!(pt.translate(Gva(0x7fff_0042), Perms::r())?, Gpa(0x3042));
/// # Ok::<(), xover_mmu::MmuError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    cr3: u64,
    table: Radix<Pte>,
}

impl PageTable {
    /// Creates an empty page table rooted at `cr3`.
    pub fn new(cr3: u64) -> PageTable {
        PageTable {
            cr3,
            table: Radix::new(),
        }
    }

    /// The CR3 root value identifying this address space.
    pub fn cr3(&self) -> u64 {
        self.cr3
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.table.len()
    }

    /// Maps the page containing `gva` to the page containing `gpa`.
    ///
    /// # Errors
    ///
    /// * [`MmuError::Misaligned`] if either address is not page-aligned.
    /// * [`MmuError::AlreadyMapped`] if the virtual page is already mapped
    ///   (use [`PageTable::remap`] to replace).
    pub fn map(&mut self, gva: Gva, gpa: Gpa, perms: Perms) -> Result<(), MmuError> {
        if !gva.is_page_aligned() {
            return Err(MmuError::Misaligned { addr: gva.value() });
        }
        if !gpa.is_page_aligned() {
            return Err(MmuError::Misaligned { addr: gpa.value() });
        }
        if self.table.lookup(gva.frame_number()).is_some() {
            return Err(MmuError::AlreadyMapped { addr: gva.value() });
        }
        self.table
            .insert(gva.frame_number(), Pte { gpa, perms })
            .map_err(|e| match e {
                HugeError::Overlap { .. } => MmuError::AlreadyMapped { addr: gva.value() },
                _ => MmuError::Misaligned { addr: gva.value() },
            })?;
        Ok(())
    }

    /// Maps a 2 MiB huge page: `gva` and `gpa` must be 2 MiB-aligned.
    ///
    /// # Errors
    ///
    /// * [`MmuError::Misaligned`] on misaligned addresses.
    /// * [`MmuError::AlreadyMapped`] if any 4 KiB page inside the range
    ///   is already mapped.
    pub fn map_huge(&mut self, gva: Gva, gpa: Gpa, perms: Perms) -> Result<(), MmuError> {
        if !gva.value().is_multiple_of(HUGE_PAGE_SIZE) {
            return Err(MmuError::Misaligned { addr: gva.value() });
        }
        if !gpa.value().is_multiple_of(HUGE_PAGE_SIZE) {
            return Err(MmuError::Misaligned { addr: gpa.value() });
        }
        self.table
            .insert_huge(gva.frame_number(), 1, Pte { gpa, perms })
            .map_err(|e| match e {
                HugeError::Overlap { .. } => MmuError::AlreadyMapped { addr: gva.value() },
                _ => MmuError::Misaligned { addr: gva.value() },
            })
    }

    /// Unmaps a 2 MiB huge page mapped with [`PageTable::map_huge`].
    pub fn unmap_huge(&mut self, gva: Gva) -> Option<Pte> {
        self.table.remove_huge(gva.frame_number(), 1)
    }

    /// Maps or replaces the mapping for the page containing `gva`.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::Misaligned`] if either address is not aligned.
    pub fn remap(&mut self, gva: Gva, gpa: Gpa, perms: Perms) -> Result<Option<Pte>, MmuError> {
        if !gva.is_page_aligned() {
            return Err(MmuError::Misaligned { addr: gva.value() });
        }
        if !gpa.is_page_aligned() {
            return Err(MmuError::Misaligned { addr: gpa.value() });
        }
        self.table
            .insert(gva.frame_number(), Pte { gpa, perms })
            .map_err(|e| match e {
                HugeError::Overlap { .. } => MmuError::AlreadyMapped { addr: gva.value() },
                _ => MmuError::Misaligned { addr: gva.value() },
            })
    }

    /// Removes the mapping for the page containing `gva`.
    pub fn unmap(&mut self, gva: Gva) -> Option<Pte> {
        self.table.remove(gva.frame_number())
    }

    /// Looks up the PTE covering `gva` without a permission check.
    pub fn entry(&self, gva: Gva) -> Option<&Pte> {
        self.table.lookup(gva.frame_number())
    }

    /// Translates `gva` to a guest-physical address, checking `access`.
    ///
    /// # Errors
    ///
    /// * [`MmuError::PageFault`] if unmapped.
    /// * [`MmuError::PermissionDenied`] if mapped without the requested
    ///   access.
    pub fn translate(&self, gva: Gva, access: Perms) -> Result<Gpa, MmuError> {
        let (pte, _, covered) = self
            .table
            .walk_with_coverage(gva.frame_number())
            .ok_or(MmuError::PageFault { gva })?;
        if !pte.perms.allows(access) {
            return Err(MmuError::PermissionDenied {
                required: access,
                granted: pte.perms,
            });
        }
        // A leaf covering 2^covered frames maps a (PAGE_SIZE << covered)
        // region; the in-region offset is preserved.
        let region = PAGE_SIZE << covered;
        Ok(pte.gpa + (gva.value() & (region - 1)))
    }

    /// Iterates over `(virtual page base, pte)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Gva, &Pte)> + '_ {
        self.table.iter().map(|(f, pte)| (Gva::from_frame(f), pte))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_unmap() {
        let mut pt = PageTable::new(0x1000);
        pt.map(Gva(0x4000), Gpa(0x8000), Perms::rw()).unwrap();
        assert_eq!(pt.translate(Gva(0x4abc), Perms::w()).unwrap(), Gpa(0x8abc));
        assert_eq!(pt.mapped_pages(), 1);
        let pte = pt.unmap(Gva(0x4000)).unwrap();
        assert_eq!(pte.gpa, Gpa(0x8000));
        assert!(matches!(
            pt.translate(Gva(0x4000), Perms::r()),
            Err(MmuError::PageFault { .. })
        ));
    }

    #[test]
    fn misaligned_map_rejected() {
        let mut pt = PageTable::new(0);
        assert!(matches!(
            pt.map(Gva(0x4001), Gpa(0x8000), Perms::r()),
            Err(MmuError::Misaligned { addr: 0x4001 })
        ));
        assert!(matches!(
            pt.map(Gva(0x4000), Gpa(0x8010), Perms::r()),
            Err(MmuError::Misaligned { addr: 0x8010 })
        ));
    }

    #[test]
    fn double_map_rejected_but_remap_allowed() {
        let mut pt = PageTable::new(0);
        pt.map(Gva(0x4000), Gpa(0x8000), Perms::r()).unwrap();
        assert!(matches!(
            pt.map(Gva(0x4000), Gpa(0x9000), Perms::r()),
            Err(MmuError::AlreadyMapped { .. })
        ));
        let old = pt.remap(Gva(0x4000), Gpa(0x9000), Perms::rw()).unwrap();
        assert_eq!(old.unwrap().gpa, Gpa(0x8000));
        assert_eq!(pt.translate(Gva(0x4000), Perms::w()).unwrap(), Gpa(0x9000));
    }

    #[test]
    fn permission_enforcement() {
        let mut pt = PageTable::new(0);
        // Read-only code page, like the cross-ring code page of §4.3.
        pt.map(Gva(0xC000), Gpa(0xD000), Perms::rx()).unwrap();
        assert!(pt.translate(Gva(0xC000), Perms::x()).is_ok());
        assert!(matches!(
            pt.translate(Gva(0xC000), Perms::w()),
            Err(MmuError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn iter_in_order() {
        let mut pt = PageTable::new(0);
        pt.map(Gva(0x9000), Gpa(0x1000), Perms::r()).unwrap();
        pt.map(Gva(0x2000), Gpa(0x2000), Perms::r()).unwrap();
        let bases: Vec<Gva> = pt.iter().map(|(g, _)| g).collect();
        assert_eq!(bases, vec![Gva(0x2000), Gva(0x9000)]);
    }

    #[test]
    fn huge_page_mapping_and_translation() {
        let mut pt = PageTable::new(0);
        pt.map_huge(Gva(HUGE_PAGE_SIZE), Gpa(2 * HUGE_PAGE_SIZE), Perms::rw())
            .unwrap();
        // Offsets anywhere inside the 2 MiB region translate.
        let gva = Gva(HUGE_PAGE_SIZE + 0x12_345);
        assert_eq!(
            pt.translate(gva, Perms::r()).unwrap(),
            Gpa(2 * HUGE_PAGE_SIZE + 0x12_345)
        );
        // A 4 KiB map inside the huge region is rejected.
        assert!(matches!(
            pt.map(Gva(HUGE_PAGE_SIZE + 0x5000), Gpa(0x9000), Perms::r()),
            Err(MmuError::AlreadyMapped { .. })
        ));
        // Unmap removes the whole region.
        assert!(pt.unmap_huge(Gva(HUGE_PAGE_SIZE)).is_some());
        assert!(pt.translate(gva, Perms::r()).is_err());
    }

    #[test]
    fn unmap_huge_frees_the_nodes_it_empties() {
        let mut pt = PageTable::new(0);
        let baseline = pt.table.node_count();
        pt.map_huge(Gva(HUGE_PAGE_SIZE), Gpa(0), Perms::rw())
            .unwrap();
        assert_eq!(pt.table.node_count(), baseline + 2);
        assert!(pt.unmap_huge(Gva(HUGE_PAGE_SIZE)).is_some());
        assert_eq!(pt.table.node_count(), baseline);
    }

    #[test]
    fn misaligned_huge_map_rejected() {
        let mut pt = PageTable::new(0);
        assert!(pt
            .map_huge(Gva(HUGE_PAGE_SIZE + 0x1000), Gpa(0), Perms::r())
            .is_err());
        assert!(pt
            .map_huge(Gva(0), Gpa(HUGE_PAGE_SIZE + 0x1000), Perms::r())
            .is_err());
    }
}
