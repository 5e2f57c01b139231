//! The virtual CPU.
//!
//! A [`Cpu`] bundles the privilege mode, a minimal register file, the
//! control state that world switches manipulate (CR3, the current EPTP, the
//! IDT base, the interrupt flag) and the accounting machinery ([`Meter`] and
//! [`Trace`]). Higher layers — the hypervisor, guest OSes and CrossOver
//! itself — perform all their transitions through this type so that every
//! ring crossing is priced and traced.

use std::fmt;

use crate::account::Meter;
use crate::cost::CostModel;
use crate::mode::{CpuMode, Ring};
use crate::trace::{Trace, TransitionKind};

/// Errors raised by privileged operations on the [`Cpu`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuError {
    /// The operation requires ring 0 but the CPU is in a less privileged
    /// ring.
    PrivilegeViolation {
        /// What was attempted.
        operation: &'static str,
        /// The ring the CPU was in.
        ring: Ring,
    },
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::PrivilegeViolation { operation, ring } => {
                write!(f, "{operation} attempted from {ring}, requires ring-0")
            }
        }
    }
}

impl std::error::Error for CpuError {}

/// General-purpose registers used for call/return values and the
/// `world_call` calling convention (the paper passes the peer WID in a
/// register).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Registers {
    /// Return value / syscall number.
    pub rax: u64,
    /// First argument.
    pub rdi: u64,
    /// Second argument.
    pub rsi: u64,
    /// Third argument.
    pub rdx: u64,
    /// Stack pointer.
    pub rsp: u64,
    /// Instruction pointer.
    pub rip: u64,
}

/// The simulated CPU.
///
/// # Example
///
/// ```
/// use xover_machine::cost::CostModel;
/// use xover_machine::cpu::Cpu;
/// use xover_machine::mode::CpuMode;
/// use xover_machine::trace::TransitionKind;
///
/// let mut cpu = Cpu::new(0, CostModel::haswell_3_4ghz());
/// cpu.transition(TransitionKind::SyscallEnter, CpuMode::GUEST_KERNEL);
/// cpu.write_cr3(0x4000)?;
/// assert_eq!(cpu.cr3(), 0x4000);
/// # Ok::<(), xover_machine::cpu::CpuError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    id: u32,
    mode: CpuMode,
    regs: Registers,
    cr3: u64,
    eptp: u64,
    eptp_index: u16,
    idt_base: u64,
    interrupts_enabled: bool,
    cost: CostModel,
    meter: Meter,
    trace: Trace,
}

impl Cpu {
    /// Creates a CPU with the given id and cost model, starting in guest
    /// user mode with a counting-only trace: transition counts and ring
    /// crossings, but no per-event records (see [`Cpu::record_events`]).
    pub fn new(id: u32, cost: CostModel) -> Cpu {
        Cpu {
            id,
            mode: CpuMode::GUEST_USER,
            regs: Registers::default(),
            cr3: 0,
            eptp: 0,
            eptp_index: 0,
            idt_base: 0,
            interrupts_enabled: true,
            cost,
            meter: Meter::new(),
            trace: Trace::counting_only(),
        }
    }

    /// This CPU's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Current privilege mode.
    pub fn mode(&self) -> CpuMode {
        self.mode
    }

    /// The register file.
    pub fn regs(&self) -> &Registers {
        &self.regs
    }

    /// Mutable access to the register file.
    pub fn regs_mut(&mut self) -> &mut Registers {
        &mut self.regs
    }

    /// Current CR3 (guest page-table root, a guest-physical address).
    pub fn cr3(&self) -> u64 {
        self.cr3
    }

    /// Current EPT pointer (a host-physical address).
    pub fn eptp(&self) -> u64 {
        self.eptp
    }

    /// Index of the current EPTP within the VM's EPTP list.
    pub fn eptp_index(&self) -> u16 {
        self.eptp_index
    }

    /// Current IDT base address.
    pub fn idt_base(&self) -> u64 {
        self.idt_base
    }

    /// Whether maskable interrupts are enabled.
    pub fn interrupts_enabled(&self) -> bool {
        self.interrupts_enabled
    }

    /// The cost model pricing this CPU's transitions.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The accumulated meter.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// Mutable meter access, for charging software work.
    pub fn meter_mut(&mut self) -> &mut Meter {
        &mut self.meter
    }

    /// The transition trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Clears the transition trace (meter is unaffected).
    pub fn clear_trace(&mut self) {
        self.trace.clear();
    }

    /// Clears the transition trace and starts keeping every [`Event`] from
    /// here on, for callers that print the events of the operation that
    /// follows (meter is unaffected).
    ///
    /// [`Event`]: crate::trace::Event
    pub fn record_events(&mut self) {
        self.trace = Trace::new();
    }

    /// Performs a transition of `kind` into `to` mode, charging its price
    /// and recording it. Returns the new mode.
    ///
    /// This is the single funnel through which all mode changes flow; it
    /// performs no policy checks — callers (hypervisor, OS, CrossOver
    /// hardware logic) enforce who may transition where.
    pub fn transition(&mut self, kind: TransitionKind, to: CpuMode) -> CpuMode {
        let price = self.cost.price(kind);
        self.meter
            .charge_transition(price.cycles, price.instructions);
        self.trace
            .record(kind, self.mode, to, price.cycles, price.instructions);
        self.mode = to;
        to
    }

    /// Records a priced operation that does not change the privilege mode
    /// (CR3 writes, IDT swaps, cache fills, ...).
    pub fn touch(&mut self, kind: TransitionKind) {
        let mode = self.mode;
        self.transition(kind, mode);
    }

    /// Charges arbitrary software work (syscall bodies, handlers, crypto).
    pub fn charge_work(&mut self, cycles: u64, instructions: u64, label: &str) {
        self.meter.charge_work(cycles, instructions, label);
    }

    /// Writes CR3, switching the guest address space.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::PrivilegeViolation`] unless the CPU is in ring 0:
    /// this restriction is why the paper's VMFUNC-based cross-VM *user*
    /// calls must first trap into their own guest kernel (§4.3).
    pub fn write_cr3(&mut self, value: u64) -> Result<(), CpuError> {
        if !self.mode.ring().is_kernel() {
            return Err(CpuError::PrivilegeViolation {
                operation: "mov cr3",
                ring: self.mode.ring(),
            });
        }
        self.touch(TransitionKind::Cr3Write);
        self.cr3 = value;
        Ok(())
    }

    /// Loads a new IDT base (`lidt`).
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::PrivilegeViolation`] unless in ring 0.
    pub fn write_idt(&mut self, base: u64) -> Result<(), CpuError> {
        if !self.mode.ring().is_kernel() {
            return Err(CpuError::PrivilegeViolation {
                operation: "lidt",
                ring: self.mode.ring(),
            });
        }
        self.touch(TransitionKind::IdtSwap);
        self.idt_base = base;
        Ok(())
    }

    /// Disables or enables maskable interrupts (`cli`/`sti`).
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::PrivilegeViolation`] unless in ring 0.
    pub fn set_interrupts(&mut self, enabled: bool) -> Result<(), CpuError> {
        if !self.mode.ring().is_kernel() {
            return Err(CpuError::PrivilegeViolation {
                operation: if enabled { "sti" } else { "cli" },
                ring: self.mode.ring(),
            });
        }
        self.touch(TransitionKind::InterruptMask);
        self.interrupts_enabled = enabled;
        Ok(())
    }

    /// Installs a new EPT pointer. Called by the VMFUNC/world_call hardware
    /// logic and by the hypervisor on VMEntry; *not* privilege-checked here
    /// because VMFUNC is architecturally callable from any ring once the
    /// hypervisor has enabled it (§4.1).
    pub fn load_eptp(&mut self, index: u16, eptp: u64) {
        self.eptp_index = index;
        self.eptp = eptp;
    }

    /// Directly sets CR3 without a privilege check or charge — used by the
    /// hypervisor when restoring a world's context on VMEntry and by the
    /// `world_call` hardware logic (the hardware does not execute `mov cr3`;
    /// the switch cost is folded into the `world_call` price).
    pub fn force_cr3(&mut self, value: u64) {
        self.cr3 = value;
    }

    /// Directly sets the privilege mode without a transition record — used
    /// only when *constructing* initial vCPU state, never on a running path.
    pub fn force_mode(&mut self, mode: CpuMode) {
        self.mode = mode;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::mode::{CpuMode, Operation, Ring};

    fn cpu() -> Cpu {
        Cpu::new(0, CostModel::haswell_3_4ghz())
    }

    #[test]
    fn transition_charges_and_records() {
        let mut c = cpu();
        c.transition(TransitionKind::SyscallEnter, CpuMode::GUEST_KERNEL);
        assert_eq!(c.mode(), CpuMode::GUEST_KERNEL);
        let price = c.cost_model().price(TransitionKind::SyscallEnter);
        assert_eq!(c.meter().cycles(), price.cycles);
        assert_eq!(c.trace().len(), 1);
        assert_eq!(c.trace().ring_crossings(), 1);
    }

    #[test]
    fn cr3_write_requires_ring0() {
        let mut c = cpu();
        // Guest user: must fail.
        let err = c.write_cr3(0x1000).unwrap_err();
        assert!(matches!(err, CpuError::PrivilegeViolation { .. }));
        assert_eq!(c.cr3(), 0);

        c.transition(TransitionKind::SyscallEnter, CpuMode::GUEST_KERNEL);
        c.write_cr3(0x1000).unwrap();
        assert_eq!(c.cr3(), 0x1000);
    }

    #[test]
    fn idt_and_interrupt_ops_require_ring0() {
        let mut c = cpu();
        assert!(c.write_idt(0x2000).is_err());
        assert!(c.set_interrupts(false).is_err());
        c.force_mode(CpuMode::GUEST_KERNEL);
        c.write_idt(0x2000).unwrap();
        c.set_interrupts(false).unwrap();
        assert_eq!(c.idt_base(), 0x2000);
        assert!(!c.interrupts_enabled());
    }

    #[test]
    fn ring1_cannot_write_cr3() {
        let mut c = cpu();
        c.force_mode(CpuMode::new(Operation::NonRoot, Ring::Ring1));
        assert!(c.write_cr3(0x3000).is_err());
    }

    #[test]
    fn load_eptp_unprivileged() {
        let mut c = cpu();
        // VMFUNC logic may run in guest user mode.
        c.load_eptp(2, 0xdead_0000);
        assert_eq!(c.eptp_index(), 2);
        assert_eq!(c.eptp(), 0xdead_0000);
    }

    #[test]
    fn touch_does_not_change_mode() {
        let mut c = cpu();
        c.force_mode(CpuMode::GUEST_KERNEL);
        let before = c.mode();
        c.touch(TransitionKind::WtcFill);
        assert_eq!(c.mode(), before);
        assert_eq!(c.trace().count(TransitionKind::WtcFill), 1);
        assert_eq!(c.trace().ring_crossings(), 0);
    }

    #[test]
    fn charge_work_reaches_meter() {
        let mut c = cpu();
        c.charge_work(786, 640, "syscall body");
        assert_eq!(c.meter().cycles(), 786);
        assert_eq!(c.meter().instructions(), 640);
        // Work is not a transition.
        assert!(c.trace().is_empty());
    }

    #[test]
    fn privilege_error_display() {
        let err = CpuError::PrivilegeViolation {
            operation: "mov cr3",
            ring: Ring::Ring3,
        };
        assert_eq!(
            err.to_string(),
            "mov cr3 attempted from ring-3, requires ring-0"
        );
    }

    #[test]
    fn counting_only_cpu_keeps_stats() {
        let mut c = Cpu::new(1, CostModel::uniform(10));
        c.transition(TransitionKind::Vmfunc, CpuMode::GUEST_USER);
        assert!(c.trace().events().is_empty());
        assert_eq!(c.trace().count(TransitionKind::Vmfunc), 1);
    }

    #[test]
    fn record_events_clears_then_records() {
        let mut c = cpu();
        c.transition(TransitionKind::SyscallEnter, CpuMode::GUEST_KERNEL);
        c.record_events();
        assert!(c.trace().is_empty());
        c.transition(TransitionKind::SyscallExit, CpuMode::GUEST_USER);
        let events = c.trace().events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            (events[0].seq, events[0].kind),
            (0, TransitionKind::SyscallExit)
        );
        // Clearing keeps recording on.
        c.clear_trace();
        c.transition(TransitionKind::SyscallEnter, CpuMode::GUEST_KERNEL);
        assert_eq!(c.trace().events().len(), 1);
        // The meter saw every transition.
        let price = |k| c.cost_model().price(k).cycles;
        let expected = 2 * price(TransitionKind::SyscallEnter) + price(TransitionKind::SyscallExit);
        assert_eq!(c.meter().cycles(), expected);
    }
}
