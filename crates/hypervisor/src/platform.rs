//! The simulated machine: one CPU, host physical memory, hypervisor state
//! and the VMFUNC logic.
//!
//! All upper layers (guest kernels, the CrossOver world manager, the case
//! studies) drive the machine through `&mut Platform`. The platform's job
//! is to make every world transition *explicit and priced*: a VMExit saves
//! guest state into the VMCS, charges the hardware transition plus the
//! handler work for its reason, and flips the CPU to host kernel mode; a
//! VMFUNC validates the EPTP-list index and switches the active EPT without
//! any of that.

use machine::cost::CostModel;
use machine::cpu::Cpu;
use machine::mode::CpuMode;
use machine::trace::TransitionKind;
use mmu::addr::{Gpa, Gva, Hpa, PAGE_SIZE};
use mmu::ept::Ept;
use mmu::pagetable::PageTable;
use mmu::perms::Perms;
use mmu::phys::PhysMemory;
use mmu::tlb::{
    Tlb, TlbStats, STAGE1_WALK_ACCESSES, STAGE1_WALK_CYCLES, TLB_HIT_CYCLES, TWO_STAGE_WALK_CYCLES,
};
use mmu::translate::{translate, TWO_STAGE_WALK_ACCESSES};

use crate::exit::ExitReason;
use crate::sched::SchedModel;
use crate::vm::{Vm, VmConfig, VmId};
use crate::vmcs::Vmcs;
use crate::HvError;

/// The simulated machine.
///
/// A clone models another core of the same machine. Host RAM is shared
/// copy-on-write ([`PhysMemory`]), so a clone costs a reference-count
/// increment rather than a copy of every frame. The CPU and the unified
/// TLB are per-core state: each clone gets its own, as in hardware.
///
/// # Example
///
/// ```
/// use xover_hypervisor::platform::Platform;
/// use xover_hypervisor::vm::VmConfig;
/// use xover_hypervisor::exit::ExitReason;
///
/// let mut p = Platform::new_default();
/// let vm = p.create_vm(VmConfig::named("guest-a"))?;
/// p.vmentry(vm)?;
/// p.vmexit(ExitReason::Vmcall(1))?;     // guest traps to the hypervisor
/// assert!(p.cpu().mode().is_hypervisor());
/// p.vmentry(vm)?;                        // hypervisor resumes the guest
/// # Ok::<(), xover_hypervisor::HvError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    cpu: Cpu,
    phys: PhysMemory,
    epts: Vec<Ept>,
    vms: Vec<Vm>,
    vmcs: Vec<Vmcs>,
    /// VM whose VMCS is active (the VM we VMEntered), if in non-root mode.
    current_vm: Option<VmId>,
    /// EPT arena index currently translating guest accesses. May differ
    /// from `current_vm`'s primary EPT after a VMFUNC.
    active_ept: Option<usize>,
    sched: SchedModel,
    hypercalls: u64,
    /// Per-core unified GVA→HPA TLB tagged by (CR3, EPTP). Cloning the
    /// platform clones the TLB, so each simulated core has its own —
    /// exactly like hardware.
    tlb: Tlb,
    /// Ablation switch: with the TLB disabled every [`Platform::access_gva`]
    /// pays the full page walk (the pre-CrossOver baseline).
    tlb_enabled: bool,
}

/// Default unified-TLB capacity: 128 sets × 4 ways, the L2 STLB size of
/// the Haswell parts the paper measures on.
pub const DEFAULT_UNIFIED_TLB_CAPACITY: usize = 512;

impl Platform {
    /// Creates a platform with the given cost model.
    pub fn new(cost: CostModel) -> Platform {
        let mut cpu = Cpu::new(0, cost);
        // The machine powers on in the hypervisor.
        cpu.force_mode(CpuMode::HOST_KERNEL);
        Platform {
            cpu,
            phys: PhysMemory::new(),
            epts: Vec::new(),
            vms: Vec::new(),
            vmcs: Vec::new(),
            current_vm: None,
            active_ept: None,
            sched: SchedModel::idle(),
            hypercalls: 0,
            tlb: Tlb::new(DEFAULT_UNIFIED_TLB_CAPACITY),
            tlb_enabled: true,
        }
    }

    /// Creates a platform with the Haswell 3.4 GHz cost model.
    pub fn new_default() -> Platform {
        Platform::new(CostModel::haswell_3_4ghz())
    }

    /// The CPU.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable CPU access (for charging work and reading meters).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Host physical memory.
    pub fn phys(&self) -> &PhysMemory {
        &self.phys
    }

    /// Mutable host physical memory.
    pub fn phys_mut(&mut self) -> &mut PhysMemory {
        &mut self.phys
    }

    /// The scheduling model used for cross-VM wakeups.
    pub fn sched(&self) -> &SchedModel {
        &self.sched
    }

    /// Replaces the scheduling model (benchmarks sweep target-VM load).
    pub fn set_sched(&mut self, sched: SchedModel) {
        self.sched = sched;
    }

    /// Number of hypercalls dispatched so far.
    pub fn hypercall_count(&self) -> u64 {
        self.hypercalls
    }

    /// Ids of all VMs, in creation order.
    pub fn vm_ids(&self) -> Vec<VmId> {
        self.vms.iter().map(|v| v.id()).collect()
    }

    /// The VM whose VMCS is active, if the CPU is in non-root operation.
    pub fn current_vm(&self) -> Option<VmId> {
        self.current_vm
    }

    /// The EPT arena index currently translating guest accesses.
    pub fn active_ept(&self) -> Option<usize> {
        self.active_ept
    }

    fn vm(&self, id: VmId) -> Result<&Vm, HvError> {
        self.vms
            .get(id.index() as usize)
            .ok_or(HvError::NoSuchVm { vm: id })
    }

    fn vm_mut(&mut self, id: VmId) -> Result<&mut Vm, HvError> {
        self.vms
            .get_mut(id.index() as usize)
            .ok_or(HvError::NoSuchVm { vm: id })
    }

    /// Creates a VM with a fresh primary EPT. The new VM's id doubles as
    /// the EPTP-list index other VMs use to VMFUNC into it (§4.3).
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; returns `Result` for future
    /// quota enforcement symmetry with the world table.
    pub fn create_vm(&mut self, config: VmConfig) -> Result<VmId, HvError> {
        let id = VmId::new(self.vms.len() as u16);
        let ept_index = self.epts.len();
        // EPTP value: arena index + 1 so 0 stays invalid.
        self.epts.push(Ept::new(ept_index as u64 + 1));
        self.vms.push(Vm::new(id, config, ept_index));
        self.vmcs.push(Vmcs::new());
        Ok(id)
    }

    /// Read access to a VM's metadata.
    pub fn vm_info(&self, id: VmId) -> Result<&Vm, HvError> {
        self.vm(id)
    }

    /// Read access to a VM's VMCS.
    pub fn vmcs(&self, id: VmId) -> Result<&Vmcs, HvError> {
        self.vm(id)?;
        Ok(&self.vmcs[id.index() as usize])
    }

    /// Mutable access to a VM's VMCS (guest kernels update saved CR3 etc.
    /// when they switch processes while the VM is descheduled).
    pub fn vmcs_mut(&mut self, id: VmId) -> Result<&mut Vmcs, HvError> {
        self.vm(id)?;
        Ok(&mut self.vmcs[id.index() as usize])
    }

    /// Immutable access to a VM's primary EPT.
    pub fn ept(&self, id: VmId) -> Result<&Ept, HvError> {
        let vm = self.vm(id)?;
        Ok(&self.epts[vm.ept()])
    }

    /// Mutable access to a VM's primary EPT.
    pub fn ept_mut(&mut self, id: VmId) -> Result<&mut Ept, HvError> {
        let ept = self.vm(id)?.ept();
        Ok(&mut self.epts[ept])
    }

    /// Access an EPT by arena index (used after VMFUNC, when the active
    /// EPT is not the current VM's primary one).
    pub fn ept_by_index(&self, index: usize) -> Option<&Ept> {
        self.epts.get(index)
    }

    // ---------------------------------------------------------------
    // Guest memory management
    // ---------------------------------------------------------------

    /// Backs the guest-physical page containing `gpa` in `vm` with a fresh
    /// host frame, returning the frame base.
    ///
    /// # Errors
    ///
    /// * [`HvError::NoSuchVm`] for an unknown VM.
    /// * [`HvError::Mmu`] if the page is already mapped or misaligned.
    pub fn back_guest_page(&mut self, vm: VmId, gpa: Gpa, perms: Perms) -> Result<Hpa, HvError> {
        let ept_index = self.vm(vm)?.ept();
        let hpa = self.phys.alloc_frame();
        self.epts[ept_index].map(gpa, hpa, perms)?;
        Ok(hpa)
    }

    /// Backs a 2 MiB-aligned guest-physical region of `vm` with one huge
    /// EPT page (512 contiguous, aligned host frames) — the large-page
    /// backing real hypervisors prefer for guest RAM.
    ///
    /// # Errors
    ///
    /// * [`HvError::NoSuchVm`] for an unknown VM.
    /// * [`HvError::Mmu`] on misalignment or overlap.
    pub fn back_guest_huge_page(&mut self, vm: VmId, gpa: Gpa) -> Result<Hpa, HvError> {
        let ept_index = self.vm(vm)?.ept();
        let hpa = self.phys.alloc_frames_aligned(512, 512);
        self.epts[ept_index].map_huge(gpa, hpa, Perms::rwx())?;
        Ok(hpa)
    }

    /// Allocates `pages` fresh guest-physical pages in `vm` (bump
    /// allocated), backs them, and returns the guest-physical base.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::NoSuchVm`] for an unknown VM.
    pub fn alloc_guest_pages(&mut self, vm: VmId, pages: u64) -> Result<Gpa, HvError> {
        let base = self.vm_mut(vm)?.alloc_gpa_range(pages);
        for i in 0..pages {
            self.back_guest_page(vm, base + i * PAGE_SIZE, Perms::rwx())?;
        }
        Ok(base)
    }

    /// Reads guest-physical memory of `vm` through its primary EPT.
    ///
    /// # Errors
    ///
    /// [`HvError::Mmu`] on unmapped or permission-denied pages.
    pub fn read_gpa(&self, vm: VmId, gpa: Gpa, buf: &mut [u8]) -> Result<(), HvError> {
        let ept = self.ept(vm)?;
        // Translate page by page; accesses may span pages.
        let mut addr = gpa;
        let mut done = 0usize;
        while done < buf.len() {
            let hpa = ept.translate(addr, Perms::r())?;
            let n = (buf.len() - done).min((PAGE_SIZE - addr.page_offset()) as usize);
            self.phys.read(hpa, &mut buf[done..done + n])?;
            done += n;
            addr = addr.page_base() + PAGE_SIZE;
        }
        Ok(())
    }

    /// Writes guest-physical memory of `vm` through its primary EPT.
    ///
    /// # Errors
    ///
    /// [`HvError::Mmu`] on unmapped or permission-denied pages.
    pub fn write_gpa(&mut self, vm: VmId, gpa: Gpa, data: &[u8]) -> Result<(), HvError> {
        let ept_index = self.vm(vm)?.ept();
        let mut addr = gpa;
        let mut done = 0usize;
        while done < data.len() {
            let hpa = self.epts[ept_index].translate(addr, Perms::w())?;
            let n = (data.len() - done).min((PAGE_SIZE - addr.page_offset()) as usize);
            self.phys.write(hpa, &data[done..done + n])?;
            done += n;
            addr = addr.page_base() + PAGE_SIZE;
        }
        Ok(())
    }

    /// Maps one fresh host frame at `gpa` in *both* VMs — the inter-VM
    /// shared memory page used for parameter passing (§3.3 world-call
    /// setup, §4.3 cross-VM syscalls). Returns the shared frame.
    ///
    /// # Errors
    ///
    /// * [`HvError::NoSuchVm`] for unknown VMs.
    /// * [`HvError::SharedRegionConflict`] if either VM already maps `gpa`.
    pub fn map_shared_page(
        &mut self,
        vm_a: VmId,
        vm_b: VmId,
        gpa: Gpa,
        perms: Perms,
    ) -> Result<Hpa, HvError> {
        let ept_a = self.vm(vm_a)?.ept();
        let ept_b = self.vm(vm_b)?.ept();
        if self.epts[ept_a].entry(gpa).is_some() || self.epts[ept_b].entry(gpa).is_some() {
            return Err(HvError::SharedRegionConflict { gpa });
        }
        let hpa = self.phys.alloc_frame();
        self.epts[ept_a].map(gpa, hpa, perms)?;
        if ept_b != ept_a {
            self.epts[ept_b].map(gpa, hpa, perms)?;
        }
        Ok(hpa)
    }

    /// Maps one fresh read-execute host frame at the *same* guest-physical
    /// address in every existing VM — the cross-ring code page of §4.3
    /// ("we map a non-writable code page to the same guest physical
    /// address ... so that changing address space does not require loading
    /// and storing all context information"). Returns the shared frame.
    ///
    /// # Errors
    ///
    /// [`HvError::SharedRegionConflict`] if any VM already maps `gpa`.
    pub fn map_code_page_all_vms(&mut self, gpa: Gpa) -> Result<Hpa, HvError> {
        for vm in &self.vms {
            if self.epts[vm.ept()].entry(gpa).is_some() {
                return Err(HvError::SharedRegionConflict { gpa });
            }
        }
        let hpa = self.phys.alloc_frame();
        for ept in self.vms.iter().map(|v| v.ept()).collect::<Vec<_>>() {
            self.epts[ept].map(gpa, hpa, Perms::rx())?;
        }
        Ok(hpa)
    }

    // ---------------------------------------------------------------
    // VMX transitions
    // ---------------------------------------------------------------

    /// VMEntry: restores `vm`'s saved context and resumes the guest.
    /// Delivers any pending virtual interrupt (charging the injection).
    ///
    /// # Errors
    ///
    /// * [`HvError::AlreadyInGuest`] if the CPU is in non-root operation.
    /// * [`HvError::NoSuchVm`] for an unknown VM.
    pub fn vmentry(&mut self, vm: VmId) -> Result<(), HvError> {
        if self.cpu.mode().operation().is_guest() {
            return Err(HvError::AlreadyInGuest);
        }
        self.vm(vm)?;
        let vmcs = self.vmcs[vm.index() as usize].clone();
        // Resolve the EPT the guest was running under.
        let ept_index = match self.vms[vm.index() as usize].eptp_entry(vmcs.guest_eptp_index) {
            Some(i) => i,
            None => self.vms[vm.index() as usize].ept(),
        };
        if vmcs.pending_interrupt.is_some() {
            self.cpu.touch(TransitionKind::InterruptInject);
            self.vmcs[vm.index() as usize].pending_interrupt = None;
        }
        self.cpu
            .transition(TransitionKind::VmEntry, vmcs.guest_mode);
        self.cpu.force_cr3(vmcs.guest_cr3);
        self.cpu
            .load_eptp(vmcs.guest_eptp_index, self.epts[ept_index].eptp());
        *self.cpu.regs_mut() = vmcs.guest_regs;
        self.current_vm = Some(vm);
        self.active_ept = Some(ept_index);
        Ok(())
    }

    /// VMExit: saves the current guest context into its VMCS, charges the
    /// hardware transition plus `reason`'s handler work, and lands the CPU
    /// in the hypervisor.
    ///
    /// # Errors
    ///
    /// [`HvError::NotInGuest`] if the CPU is already in root operation.
    pub fn vmexit(&mut self, reason: ExitReason) -> Result<(), HvError> {
        if self.cpu.mode().operation().is_host() {
            return Err(HvError::NotInGuest);
        }
        let vm = self.current_vm.expect("non-root implies a current VM");
        let vmcs = &mut self.vmcs[vm.index() as usize];
        vmcs.guest_mode = self.cpu.mode();
        vmcs.guest_cr3 = self.cpu.cr3();
        vmcs.guest_eptp_index = self.cpu.eptp_index();
        vmcs.guest_idt = self.cpu.idt_base();
        vmcs.guest_interrupts_enabled = self.cpu.interrupts_enabled();
        vmcs.guest_regs = *self.cpu.regs();
        vmcs.last_exit = Some(reason);
        if let ExitReason::Vmcall(_) = reason {
            self.hypercalls += 1;
        }
        self.cpu
            .transition(TransitionKind::VmExit, CpuMode::HOST_KERNEL);
        self.cpu.charge_work(
            reason.handler_cycles(),
            reason.handler_instructions(),
            "vmexit handler",
        );
        self.current_vm = None;
        self.active_ept = None;
        Ok(())
    }

    /// Convenience: a hypercall round trip — VMExit with `Vmcall(nr)`,
    /// then VMEntry back into the same VM.
    ///
    /// # Errors
    ///
    /// Propagates [`Platform::vmexit`] / [`Platform::vmentry`] errors.
    pub fn hypercall_roundtrip(&mut self, nr: u64) -> Result<(), HvError> {
        let vm = self.current_vm.ok_or(HvError::NotInGuest)?;
        self.vmexit(ExitReason::Vmcall(nr))?;
        self.vmentry(vm)
    }

    /// Queues a virtual interrupt for `vm`, charging the injection work.
    /// The interrupt is delivered at the next [`Platform::vmentry`].
    ///
    /// # Errors
    ///
    /// [`HvError::NoSuchVm`] for an unknown VM.
    pub fn inject_interrupt(&mut self, vm: VmId, vector: u8) -> Result<(), HvError> {
        self.vm(vm)?;
        self.cpu.touch(TransitionKind::InterruptInject);
        self.vmcs[vm.index() as usize].pending_interrupt = Some(vector);
        Ok(())
    }

    /// Charges the scheduling latency of waking a process inside `vm`
    /// (the redirected-call servicing delay of the baseline systems).
    ///
    /// # Errors
    ///
    /// [`HvError::NoSuchVm`] for an unknown VM.
    pub fn charge_wakeup(&mut self, vm: VmId) -> Result<(), HvError> {
        self.vm(vm)?;
        let cycles = self.sched.wakeup_latency_cycles();
        let instructions = self.sched.wakeup_latency_instructions();
        self.cpu
            .charge_work(cycles, instructions, "scheduler wakeup");
        Ok(())
    }

    // ---------------------------------------------------------------
    // VMFUNC
    // ---------------------------------------------------------------

    /// Configures `vm`'s VMFUNC EPTP list, populating one slot per
    /// *currently existing* VM at that VM's id index (§4.3: "the
    /// hypervisor will ... keep track of each VM's EPT pointer by storing
    /// it in the EPT-list address with an offset, which is the same as the
    /// VM ID"). Call again after creating more VMs to refresh.
    ///
    /// # Errors
    ///
    /// [`HvError::NoSuchVm`] for an unknown VM.
    pub fn setup_vmfunc_eptp_list(&mut self, vm: VmId) -> Result<(), HvError> {
        self.vm(vm)?;
        let entries: Vec<(u16, usize)> =
            self.vms.iter().map(|v| (v.id().index(), v.ept())).collect();
        let vm_state = &mut self.vms[vm.index() as usize];
        if !vm_state.has_eptp_list() {
            vm_state.init_eptp_list();
        }
        for (index, ept) in entries {
            vm_state.set_eptp_entry(index, ept);
        }
        Ok(())
    }

    /// Executes `VMFUNC(0)` with EPTP-list index `index`: switches the
    /// active EPT without a VMExit. Callable from any guest ring.
    ///
    /// # Errors
    ///
    /// * [`HvError::VmfuncFromRoot`] if executed host-side.
    /// * [`HvError::EptpListNotConfigured`] if the current VM has no list.
    /// * [`HvError::InvalidEptpIndex`] if the slot is empty — on real
    ///   hardware this is a VM-function fault VMExit; callers that want
    ///   that behaviour chain [`Platform::vmexit`] with
    ///   [`ExitReason::VmfuncFault`].
    pub fn vmfunc_switch_ept(&mut self, index: u16) -> Result<(), HvError> {
        if self.cpu.mode().operation().is_host() {
            return Err(HvError::VmfuncFromRoot);
        }
        let vm = self.current_vm.expect("non-root implies a current VM");
        let vm_state = &self.vms[vm.index() as usize];
        if !vm_state.has_eptp_list() {
            return Err(HvError::EptpListNotConfigured { vm });
        }
        let ept_index = vm_state
            .eptp_entry(index)
            .ok_or(HvError::InvalidEptpIndex { index })?;
        self.cpu.touch(TransitionKind::Vmfunc);
        self.cpu.load_eptp(index, self.epts[ept_index].eptp());
        self.active_ept = Some(ept_index);
        Ok(())
    }

    /// Performs a full CrossOver world switch (the extended-VMFUNC
    /// hardware of §5.1): in **one** priced transition the CPU changes
    /// privilege mode, guest page-table root and EPT pointer, without any
    /// hypervisor involvement.
    ///
    /// `eptp == 0` designates a host-side world (no EPT translation);
    /// otherwise `eptp` must be the pointer of a registered EPT. The
    /// platform's current-VM/active-EPT bookkeeping follows the switch, so
    /// a subsequent VMExit is attributed to the world actually running.
    ///
    /// `kind` must be [`TransitionKind::WorldCall`] or
    /// [`TransitionKind::WorldReturn`]; it is supplied by the CrossOver
    /// call unit, which owns the world table and performs all checks
    /// *before* invoking the switch.
    ///
    /// # Errors
    ///
    /// [`HvError::InvalidEptpIndex`] if `eptp` is non-zero and matches no
    /// registered EPT.
    pub fn crossover_switch(
        &mut self,
        kind: TransitionKind,
        to_mode: CpuMode,
        cr3: u64,
        eptp: u64,
    ) -> Result<(), HvError> {
        debug_assert!(matches!(
            kind,
            TransitionKind::WorldCall | TransitionKind::WorldReturn
        ));
        if eptp == 0 {
            self.cpu.transition(kind, to_mode);
            self.cpu.force_cr3(cr3);
            self.cpu.load_eptp(0, 0);
            self.current_vm = None;
            self.active_ept = None;
            return Ok(());
        }
        let ept_index = self
            .epts
            .iter()
            .position(|e| e.eptp() == eptp)
            .ok_or(HvError::InvalidEptpIndex { index: 0 })?;
        self.cpu.transition(kind, to_mode);
        self.cpu.force_cr3(cr3);
        self.cpu.load_eptp(ept_index as u16, eptp);
        self.active_ept = Some(ept_index);
        // Attribute execution to the VM owning this EPT as its primary,
        // if any (extra per-world EPTs belong to their creating VM).
        self.current_vm = self
            .vms
            .iter()
            .find(|v| v.ept() == ept_index)
            .map(|v| v.id());
        Ok(())
    }

    /// The EPT pointer value of `vm`'s primary EPT — what a CrossOver
    /// world entry stores in its EPTP field.
    ///
    /// # Errors
    ///
    /// [`HvError::NoSuchVm`] for an unknown VM.
    pub fn eptp_of(&self, vm: VmId) -> Result<u64, HvError> {
        Ok(self.epts[self.vm(vm)?.ept()].eptp())
    }

    /// Reads guest-physical memory through the *active* EPT (which may be
    /// another VM's after a VMFUNC).
    ///
    /// # Errors
    ///
    /// * [`HvError::NotInGuest`] if no EPT is active.
    /// * [`HvError::Mmu`] on translation failure.
    pub fn read_active_gpa(&self, gpa: Gpa, buf: &mut [u8]) -> Result<(), HvError> {
        let ept_index = self.active_ept.ok_or(HvError::NotInGuest)?;
        let ept = &self.epts[ept_index];
        let mut addr = gpa;
        let mut done = 0usize;
        while done < buf.len() {
            let hpa = ept.translate(addr, Perms::r())?;
            let n = (buf.len() - done).min((PAGE_SIZE - addr.page_offset()) as usize);
            self.phys.read(hpa, &mut buf[done..done + n])?;
            done += n;
            addr = addr.page_base() + PAGE_SIZE;
        }
        Ok(())
    }

    /// Writes guest-physical memory through the *active* EPT.
    ///
    /// # Errors
    ///
    /// * [`HvError::NotInGuest`] if no EPT is active.
    /// * [`HvError::Mmu`] on translation failure.
    pub fn write_active_gpa(&mut self, gpa: Gpa, data: &[u8]) -> Result<(), HvError> {
        let ept_index = self.active_ept.ok_or(HvError::NotInGuest)?;
        let mut addr = gpa;
        let mut done = 0usize;
        while done < data.len() {
            let hpa = self.epts[ept_index].translate(addr, Perms::w())?;
            let n = (data.len() - done).min((PAGE_SIZE - addr.page_offset()) as usize);
            self.phys.write(hpa, &data[done..done + n])?;
            done += n;
            addr = addr.page_base() + PAGE_SIZE;
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Unified TLB: priced virtual-address accesses
    // ---------------------------------------------------------------

    /// The core's unified TLB.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// The core's TLB statistics.
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// Whether [`Platform::access_gva`] consults the TLB.
    pub fn tlb_enabled(&self) -> bool {
        self.tlb_enabled
    }

    /// Enables or disables the TLB (ablation: the disabled configuration
    /// pays a full walk on every access, like a machine without EPTP
    /// tagging that must flush on every world switch).
    pub fn set_tlb_enabled(&mut self, enabled: bool) {
        self.tlb_enabled = enabled;
    }

    /// Flushes the core's TLB (a full `invept`-style sweep).
    pub fn flush_tlb(&mut self) {
        self.tlb.flush();
    }

    /// Invalidates every TLB entry tagged with `eptp` — required after an
    /// EPT edit that removes or tightens a mapping. (Edits that only *add*
    /// mappings cannot leave stale entries, since absent translations are
    /// never cached.)
    pub fn invalidate_tlb_eptp(&mut self, eptp: u64) {
        self.tlb.invalidate_eptp(eptp);
    }

    /// Performs one priced virtual-memory access under the CPU's current
    /// (CR3, EPTP) tags: TLB hit costs [`TLB_HIT_CYCLES`]; a miss walks
    /// `pt` (and the active EPT in guest mode) for the full hardware walk
    /// cost and fills the TLB. Because entries are tagged, a `world_call`
    /// EPT switch leaves them resident — repeated calls hit, which is the
    /// fast path the paper's Table 4 numbers rely on.
    ///
    /// Outside guest mode (no active EPT, host worlds) the walk is
    /// single-stage and the guest-physical result is used as the host
    /// frame identity-mapped.
    ///
    /// # Errors
    ///
    /// [`HvError::Mmu`] on translation failure at either stage.
    pub fn access_gva(&mut self, pt: &PageTable, gva: Gva, access: Perms) -> Result<Hpa, HvError> {
        let cr3 = self.cpu.cr3();
        let eptp = self.cpu.eptp();
        if self.tlb_enabled {
            if let Some(entry) = self.tlb.lookup(cr3, eptp, gva) {
                if entry.perms.allows(access) {
                    self.cpu.charge_work(TLB_HIT_CYCLES, 1, "tlb hit");
                    return Ok(entry.hpa_base + gva.page_offset());
                }
                // Cached with narrower permissions: hardware re-walks to
                // confirm the wider access, then upgrades the entry.
            }
        }
        let (hpa, walk_cycles, walk_accesses) = match self.active_ept {
            Some(index) => (
                translate(pt, &self.epts[index], gva, access)?,
                TWO_STAGE_WALK_CYCLES,
                TWO_STAGE_WALK_ACCESSES as u64,
            ),
            None => {
                let gpa = pt.translate(gva, access)?;
                (
                    Hpa(gpa.value()),
                    STAGE1_WALK_CYCLES,
                    STAGE1_WALK_ACCESSES as u64,
                )
            }
        };
        self.cpu
            .charge_work(walk_cycles, walk_accesses, "page walk");
        if self.tlb_enabled {
            self.tlb.insert(cr3, eptp, gva, hpa.page_base(), access);
        }
        Ok(hpa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::mode::CpuMode;

    fn two_vm_platform() -> (Platform, VmId, VmId) {
        let mut p = Platform::new_default();
        let a = p.create_vm(VmConfig::named("a")).unwrap();
        let b = p.create_vm(VmConfig::named("b")).unwrap();
        p.setup_vmfunc_eptp_list(a).unwrap();
        p.setup_vmfunc_eptp_list(b).unwrap();
        (p, a, b)
    }

    #[test]
    fn starts_in_hypervisor() {
        let p = Platform::new_default();
        assert!(p.cpu().mode().is_hypervisor());
        assert_eq!(p.current_vm(), None);
    }

    #[test]
    fn vmentry_vmexit_round_trip_saves_state() {
        let (mut p, a, _) = two_vm_platform();
        p.vmentry(a).unwrap();
        assert_eq!(p.current_vm(), Some(a));
        assert_eq!(p.cpu().mode(), CpuMode::GUEST_USER);
        p.cpu_mut().regs_mut().rax = 99;
        p.vmexit(ExitReason::Hlt).unwrap();
        assert!(p.cpu().mode().is_hypervisor());
        assert_eq!(p.vmcs(a).unwrap().guest_regs.rax, 99);
        assert_eq!(p.vmcs(a).unwrap().last_exit, Some(ExitReason::Hlt));
        // Re-entry restores registers.
        p.cpu_mut().regs_mut().rax = 0;
        p.vmentry(a).unwrap();
        assert_eq!(p.cpu().regs().rax, 99);
    }

    #[test]
    fn double_vmentry_rejected() {
        let (mut p, a, b) = two_vm_platform();
        p.vmentry(a).unwrap();
        assert_eq!(p.vmentry(b), Err(HvError::AlreadyInGuest));
    }

    #[test]
    fn vmexit_from_host_rejected() {
        let (mut p, _, _) = two_vm_platform();
        assert_eq!(p.vmexit(ExitReason::Hlt), Err(HvError::NotInGuest));
    }

    #[test]
    fn vmfunc_switches_ept_without_intervention() {
        let (mut p, a, b) = two_vm_platform();
        p.vmentry(a).unwrap();
        let interventions = p.cpu().trace().hypervisor_interventions();
        p.vmfunc_switch_ept(b.index()).unwrap();
        assert_eq!(p.cpu().trace().hypervisor_interventions(), interventions);
        assert_eq!(p.active_ept(), Some(p.vm_info(b).unwrap().ept()));
        // VMCS still belongs to VM a: we did not VMExit.
        assert_eq!(p.current_vm(), Some(a));
        // And back.
        p.vmfunc_switch_ept(a.index()).unwrap();
        assert_eq!(p.active_ept(), Some(p.vm_info(a).unwrap().ept()));
    }

    #[test]
    fn vmfunc_invalid_index_faults() {
        let (mut p, a, _) = two_vm_platform();
        p.vmentry(a).unwrap();
        assert_eq!(
            p.vmfunc_switch_ept(77),
            Err(HvError::InvalidEptpIndex { index: 77 })
        );
    }

    #[test]
    fn vmfunc_without_list_fails() {
        let mut p = Platform::new_default();
        let a = p.create_vm(VmConfig::default()).unwrap();
        p.vmentry(a).unwrap();
        assert_eq!(
            p.vmfunc_switch_ept(0),
            Err(HvError::EptpListNotConfigured { vm: a })
        );
    }

    #[test]
    fn vmfunc_from_root_rejected() {
        let (mut p, _, _) = two_vm_platform();
        assert_eq!(p.vmfunc_switch_ept(0), Err(HvError::VmfuncFromRoot));
    }

    #[test]
    fn shared_page_aliases_one_frame() {
        let (mut p, a, b) = two_vm_platform();
        let gpa = Gpa(0x8000);
        let hpa = p.map_shared_page(a, b, gpa, Perms::rw()).unwrap();
        p.write_gpa(a, gpa, b"ping").unwrap();
        let mut buf = [0u8; 4];
        p.read_gpa(b, gpa, &mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        assert!(p.phys().is_backed(hpa));
        // Conflict on re-mapping.
        assert!(matches!(
            p.map_shared_page(a, b, gpa, Perms::rw()),
            Err(HvError::SharedRegionConflict { .. })
        ));
    }

    #[test]
    fn vmfunc_view_reads_target_vm_memory() {
        let (mut p, a, b) = two_vm_platform();
        // Same GPA in both VMs, different content.
        let gpa = p.alloc_guest_pages(a, 1).unwrap();
        p.back_guest_page(b, gpa, Perms::rwx()).unwrap();
        p.write_gpa(a, gpa, b"from-a").unwrap();
        p.write_gpa(b, gpa, b"from-b").unwrap();

        p.vmentry(a).unwrap();
        let mut buf = [0u8; 6];
        p.read_active_gpa(gpa, &mut buf).unwrap();
        assert_eq!(&buf, b"from-a");
        p.vmfunc_switch_ept(b.index()).unwrap();
        p.read_active_gpa(gpa, &mut buf).unwrap();
        assert_eq!(&buf, b"from-b");
    }

    #[test]
    fn code_page_shared_across_all_vms() {
        let (mut p, a, b) = two_vm_platform();
        let gpa = Gpa(0xC000);
        let hpa = p.map_code_page_all_vms(gpa).unwrap();
        assert_eq!(p.ept(a).unwrap().entry(gpa).unwrap().hpa, hpa);
        assert_eq!(p.ept(b).unwrap().entry(gpa).unwrap().hpa, hpa);
        // Read-execute only: guests cannot write their call gate.
        assert!(p.write_gpa(a, gpa, b"overwrite").is_err());
    }

    #[test]
    fn pending_interrupt_delivered_on_entry() {
        let (mut p, a, _) = two_vm_platform();
        p.inject_interrupt(a, 0x20).unwrap();
        assert_eq!(p.vmcs(a).unwrap().pending_interrupt, Some(0x20));
        let injections_before = p.cpu().trace().count(TransitionKind::InterruptInject);
        p.vmentry(a).unwrap();
        assert_eq!(p.vmcs(a).unwrap().pending_interrupt, None);
        assert_eq!(
            p.cpu().trace().count(TransitionKind::InterruptInject),
            injections_before + 1
        );
    }

    #[test]
    fn hypercall_roundtrip_counts() {
        let (mut p, a, _) = two_vm_platform();
        p.vmentry(a).unwrap();
        p.hypercall_roundtrip(42).unwrap();
        assert_eq!(p.hypercall_count(), 1);
        assert_eq!(p.current_vm(), Some(a));
    }

    #[test]
    fn wakeup_charges_scale_with_load() {
        let (mut p, a, _) = two_vm_platform();
        let before = p.cpu().meter().cycles();
        p.charge_wakeup(a).unwrap();
        let idle_cost = p.cpu().meter().cycles() - before;

        p.set_sched(SchedModel::loaded(4));
        let before = p.cpu().meter().cycles();
        p.charge_wakeup(a).unwrap();
        let loaded_cost = p.cpu().meter().cycles() - before;
        assert!(loaded_cost > idle_cost);
    }

    #[test]
    fn crossover_switch_changes_everything_in_one_transition() {
        let (mut p, a, b) = two_vm_platform();
        p.vmentry(a).unwrap();
        let eptp_b = p.eptp_of(b).unwrap();
        let transitions_before = p.cpu().trace().len();
        p.crossover_switch(
            TransitionKind::WorldCall,
            CpuMode::GUEST_KERNEL,
            0xBEEF_0000,
            eptp_b,
        )
        .unwrap();
        assert_eq!(p.cpu().trace().len(), transitions_before + 1);
        assert_eq!(p.cpu().mode(), CpuMode::GUEST_KERNEL);
        assert_eq!(p.cpu().cr3(), 0xBEEF_0000);
        assert_eq!(p.cpu().eptp(), eptp_b);
        assert_eq!(p.current_vm(), Some(b));
    }

    #[test]
    fn crossover_switch_to_host_world() {
        let (mut p, a, _) = two_vm_platform();
        p.vmentry(a).unwrap();
        p.crossover_switch(TransitionKind::WorldCall, CpuMode::HOST_USER, 0x77000, 0)
            .unwrap();
        assert_eq!(p.cpu().mode(), CpuMode::HOST_USER);
        assert_eq!(p.current_vm(), None);
        assert_eq!(p.active_ept(), None);
    }

    #[test]
    fn crossover_switch_rejects_unknown_eptp() {
        let (mut p, a, _) = two_vm_platform();
        p.vmentry(a).unwrap();
        assert!(matches!(
            p.crossover_switch(
                TransitionKind::WorldCall,
                CpuMode::GUEST_KERNEL,
                0,
                0xDEAD_BEEF
            ),
            Err(HvError::InvalidEptpIndex { .. })
        ));
    }

    #[test]
    fn unknown_vm_errors() {
        let mut p = Platform::new_default();
        let ghost = VmId::new(9);
        assert_eq!(p.vmentry(ghost), Err(HvError::NoSuchVm { vm: ghost }));
        assert!(p.vm_info(ghost).is_err());
        assert!(p.inject_interrupt(ghost, 1).is_err());
        assert!(p.charge_wakeup(ghost).is_err());
    }

    #[test]
    fn access_gva_hit_is_cheap_miss_pays_walk() {
        let (mut p, a, _) = two_vm_platform();
        let gpa = p.alloc_guest_pages(a, 1).unwrap();
        let mut pt = PageTable::new(0x1000);
        pt.map(Gva(0x4000_0000), gpa, Perms::rw()).unwrap();
        p.vmentry(a).unwrap();
        p.cpu_mut().force_cr3(0x1000);

        let before = p.cpu().meter().cycles();
        p.access_gva(&pt, Gva(0x4000_0010), Perms::r()).unwrap();
        let miss_cost = p.cpu().meter().cycles() - before;
        assert_eq!(miss_cost, TWO_STAGE_WALK_CYCLES);

        let before = p.cpu().meter().cycles();
        let hpa = p.access_gva(&pt, Gva(0x4000_0020), Perms::r()).unwrap();
        let hit_cost = p.cpu().meter().cycles() - before;
        assert_eq!(hit_cost, TLB_HIT_CYCLES);
        assert_eq!(hpa.page_offset(), 0x20);
        assert_eq!(p.tlb_stats().hits, 1);
        assert_eq!(p.tlb_stats().misses, 1);
    }

    #[test]
    fn world_switch_preserves_tlb_entries() {
        let (mut p, a, b) = two_vm_platform();
        let gpa = p.alloc_guest_pages(a, 1).unwrap();
        p.back_guest_page(b, gpa, Perms::rwx()).unwrap();
        let mut pt = PageTable::new(0x1000);
        pt.map(Gva(0x4000_0000), gpa, Perms::rw()).unwrap();
        let eptp_a = p.eptp_of(a).unwrap();
        let eptp_b = p.eptp_of(b).unwrap();

        p.vmentry(a).unwrap();
        p.cpu_mut().force_cr3(0x1000);
        p.access_gva(&pt, Gva(0x4000_0000), Perms::r()).unwrap();

        // world_call into b and back: a's entry must still hit.
        p.crossover_switch(
            TransitionKind::WorldCall,
            CpuMode::GUEST_KERNEL,
            0x1000,
            eptp_b,
        )
        .unwrap();
        p.access_gva(&pt, Gva(0x4000_0000), Perms::r()).unwrap(); // b's view: miss
        p.crossover_switch(
            TransitionKind::WorldReturn,
            CpuMode::GUEST_USER,
            0x1000,
            eptp_a,
        )
        .unwrap();
        let misses_before = p.tlb_stats().misses;
        p.access_gva(&pt, Gva(0x4000_0000), Perms::r()).unwrap();
        assert_eq!(p.tlb_stats().misses, misses_before, "no flush on VMFUNC");
        assert_eq!(p.tlb_stats().hits, 1);
    }

    #[test]
    fn tlb_disabled_pays_walk_every_time() {
        let (mut p, a, _) = two_vm_platform();
        let gpa = p.alloc_guest_pages(a, 1).unwrap();
        let mut pt = PageTable::new(0x1000);
        pt.map(Gva(0x4000_0000), gpa, Perms::rw()).unwrap();
        p.set_tlb_enabled(false);
        p.vmentry(a).unwrap();
        p.cpu_mut().force_cr3(0x1000);
        let before = p.cpu().meter().cycles();
        p.access_gva(&pt, Gva(0x4000_0000), Perms::r()).unwrap();
        p.access_gva(&pt, Gva(0x4000_0000), Perms::r()).unwrap();
        let cost = p.cpu().meter().cycles() - before;
        assert_eq!(cost, 2 * TWO_STAGE_WALK_CYCLES);
        assert_eq!(p.tlb_stats().hits + p.tlb_stats().misses, 0);
    }

    #[test]
    fn access_gva_permission_upgrade_rewalks_once() {
        let (mut p, a, _) = two_vm_platform();
        let gpa = p.alloc_guest_pages(a, 1).unwrap();
        let mut pt = PageTable::new(0x1000);
        pt.map(Gva(0x4000_0000), gpa, Perms::rw()).unwrap();
        p.vmentry(a).unwrap();
        p.cpu_mut().force_cr3(0x1000);
        p.access_gva(&pt, Gva(0x4000_0000), Perms::r()).unwrap();
        // Write access: cached read-only entry cannot satisfy it — the
        // hardware re-walks and upgrades. A second write then hits.
        p.access_gva(&pt, Gva(0x4000_0000), Perms::w()).unwrap();
        let before = p.cpu().meter().cycles();
        p.access_gva(&pt, Gva(0x4000_0000), Perms::w()).unwrap();
        assert_eq!(p.cpu().meter().cycles() - before, TLB_HIT_CYCLES);
    }

    #[test]
    fn host_access_gva_is_single_stage() {
        let mut p = Platform::new_default();
        let mut pt = PageTable::new(0xE000);
        pt.map(Gva(0x7000_0000), Gpa(0x3000), Perms::rw()).unwrap();
        p.cpu_mut().force_cr3(0xE000);
        let before = p.cpu().meter().cycles();
        let hpa = p.access_gva(&pt, Gva(0x7000_0040), Perms::r()).unwrap();
        assert_eq!(p.cpu().meter().cycles() - before, STAGE1_WALK_CYCLES);
        assert_eq!(hpa, Hpa(0x3040));
    }

    #[test]
    fn huge_page_backing_spans_two_megabytes() {
        let (mut p, a, _) = two_vm_platform();
        let gpa = Gpa(0x20_0000); // 2 MiB aligned
        let hpa = p.back_guest_huge_page(a, gpa).unwrap();
        assert_eq!(hpa.value() % 0x20_0000, 0, "host backing is aligned");
        // Reads and writes work anywhere in the region.
        p.write_gpa(a, gpa + 0x1F_F000, b"edge").unwrap();
        let mut buf = [0u8; 4];
        p.read_gpa(a, gpa + 0x1F_F000, &mut buf).unwrap();
        assert_eq!(&buf, b"edge");
        // Overlapping 4 KiB backing is refused.
        assert!(p.back_guest_page(a, gpa + 0x1000, Perms::rw()).is_err());
    }
}
