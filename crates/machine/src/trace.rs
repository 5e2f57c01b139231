//! Transition event tracing.
//!
//! Every world transition the simulated CPU performs is counted by a
//! [`Trace`]. The paper's Table 1 and Figure 2 count *ring crossings and
//! context switches* along each system's call path; in this reproduction
//! those counts are **derived from the trace of an actual execution**, not
//! hardcoded, which is what makes the reproduction falsifiable.
//!
//! Counting is all a [`crate::cpu::Cpu`] does by default: per-kind counts,
//! ring crossings and the sequence number cost a fixed few words however
//! long the run. Keeping each [`Event`] as well is opt-in, through
//! [`crate::cpu::Cpu::record_events`], which the callers that print event
//! lines use just before the operation they print: the Figure 2–4
//! reports, the `trace` binary and the quickstart example.

use std::fmt;

use crate::mode::CpuMode;

/// The kinds of world transitions and privileged operations the CPU can
/// perform. Each kind is priced by a [`crate::cost::CostModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionKind {
    /// `syscall`/`int 0x80`: user to kernel within one address-space family.
    SyscallEnter,
    /// `sysret`/`iret`: kernel back to user.
    SyscallExit,
    /// VMX non-root to root (trap to the hypervisor), including `vmcall`.
    VmExit,
    /// VMX root to non-root (resume a guest).
    VmEntry,
    /// `VMFUNC(0)`: EPTP switch without leaving non-root operation.
    Vmfunc,
    /// Write to CR3 (guest page-table root change).
    Cr3Write,
    /// `lidt`: swap the interrupt descriptor table (Fig. 4 step ②/⑦).
    IdtSwap,
    /// `cli`/`sti` pair around the non-atomic switch window.
    InterruptMask,
    /// Hypervisor injecting a virtual interrupt into a guest.
    InterruptInject,
    /// Guest OS process context switch (scheduler included).
    ContextSwitch,
    /// Host OS process context switch.
    HostContextSwitch,
    /// Full CrossOver `world_call` (VMFUNC index 0x1): EPTP + CR3 + mode +
    /// PC switch in one instruction.
    WorldCall,
    /// `world_call` used in the return direction.
    WorldReturn,
    /// `manage_wtc` (VMFUNC index 0x2): world-table-cache fill/invalidate.
    WtcFill,
    /// World-table-cache miss: exception to the hypervisor, world-table
    /// walk, cache fill, and retry.
    WtcMissFault,
    /// Inter-processor interrupt, send side (used by rejected async design).
    IpiSend,
    /// Inter-processor interrupt, receive side.
    IpiReceive,
}

impl TransitionKind {
    /// Number of distinct kinds (array-map size for the cost model).
    pub const COUNT: usize = 17;

    /// All kinds, in declaration order.
    pub const ALL: [TransitionKind; TransitionKind::COUNT] = [
        TransitionKind::SyscallEnter,
        TransitionKind::SyscallExit,
        TransitionKind::VmExit,
        TransitionKind::VmEntry,
        TransitionKind::Vmfunc,
        TransitionKind::Cr3Write,
        TransitionKind::IdtSwap,
        TransitionKind::InterruptMask,
        TransitionKind::InterruptInject,
        TransitionKind::ContextSwitch,
        TransitionKind::HostContextSwitch,
        TransitionKind::WorldCall,
        TransitionKind::WorldReturn,
        TransitionKind::WtcFill,
        TransitionKind::WtcMissFault,
        TransitionKind::IpiSend,
        TransitionKind::IpiReceive,
    ];

    /// Dense index for array-backed maps.
    pub fn index(self) -> usize {
        // Discriminants are assigned in declaration order, which is also the
        // order of `ALL` — the density test below pins this down. A direct
        // cast keeps `record()` O(1) instead of scanning `ALL` per event.
        self as usize
    }

    /// Whether this kind crosses between privilege modes (counts as a
    /// "ring crossing" in the paper's Table 1 accounting).
    pub fn is_mode_crossing(self) -> bool {
        matches!(
            self,
            TransitionKind::SyscallEnter
                | TransitionKind::SyscallExit
                | TransitionKind::VmExit
                | TransitionKind::VmEntry
                | TransitionKind::WorldCall
                | TransitionKind::WorldReturn
        )
    }

    /// Whether this kind switches address spaces without the hypervisor's
    /// involvement (the intervention-free switches CrossOver introduces).
    pub fn is_intervention_free_switch(self) -> bool {
        matches!(
            self,
            TransitionKind::Vmfunc | TransitionKind::WorldCall | TransitionKind::WorldReturn
        )
    }
}

impl fmt::Display for TransitionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TransitionKind::SyscallEnter => "syscall",
            TransitionKind::SyscallExit => "sysret",
            TransitionKind::VmExit => "vmexit",
            TransitionKind::VmEntry => "vmentry",
            TransitionKind::Vmfunc => "vmfunc",
            TransitionKind::Cr3Write => "cr3-write",
            TransitionKind::IdtSwap => "idt-swap",
            TransitionKind::InterruptMask => "int-mask",
            TransitionKind::InterruptInject => "int-inject",
            TransitionKind::ContextSwitch => "ctx-switch",
            TransitionKind::HostContextSwitch => "host-ctx-switch",
            TransitionKind::WorldCall => "world_call",
            TransitionKind::WorldReturn => "world_return",
            TransitionKind::WtcFill => "wtc-fill",
            TransitionKind::WtcMissFault => "wtc-miss-fault",
            TransitionKind::IpiSend => "ipi-send",
            TransitionKind::IpiReceive => "ipi-receive",
        };
        f.write_str(name)
    }
}

/// One recorded transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number within the trace.
    pub seq: u64,
    /// What happened.
    pub kind: TransitionKind,
    /// Mode before the transition.
    pub from: CpuMode,
    /// Mode after the transition.
    pub to: CpuMode,
    /// Cycles charged.
    pub cycles: u64,
    /// Instructions charged.
    pub instructions: u64,
}

impl Event {
    /// Whether the privilege mode actually changed.
    pub fn changed_mode(&self) -> bool {
        self.from != self.to
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.changed_mode() {
            write!(
                f,
                "#{:<4} {:<16} {} -> {}",
                self.seq,
                self.kind.to_string(),
                self.from,
                self.to
            )
        } else {
            write!(
                f,
                "#{:<4} {:<16} ({})",
                self.seq,
                self.kind.to_string(),
                self.from
            )
        }
    }
}

/// Transition statistics, plus an append-only log of [`Event`]s when
/// created with [`Trace::new`] (a [`Trace::counting_only`] trace keeps
/// only the statistics).
///
/// # Example
///
/// ```
/// use xover_machine::mode::CpuMode;
/// use xover_machine::trace::{Trace, TransitionKind};
///
/// let mut trace = Trace::new();
/// trace.record(TransitionKind::SyscallEnter,
///              CpuMode::GUEST_USER, CpuMode::GUEST_KERNEL, 100, 12);
/// trace.record(TransitionKind::SyscallExit,
///              CpuMode::GUEST_KERNEL, CpuMode::GUEST_USER, 100, 10);
/// assert_eq!(trace.ring_crossings(), 2);
/// assert_eq!(trace.count(TransitionKind::SyscallEnter), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<Event>,
    enabled: bool,
    next_seq: u64,
    counts: [u64; TransitionKind::COUNT],
    mode_changes: u64,
}

impl Trace {
    /// Creates an empty, enabled trace.
    pub fn new() -> Trace {
        Trace {
            enabled: true,
            ..Trace::default()
        }
    }

    /// Creates a trace that keeps statistics but discards per-event
    /// records, so its size stays fixed however many transitions it
    /// counts. Every [`crate::cpu::Cpu`] starts with one.
    pub fn counting_only() -> Trace {
        Trace {
            enabled: false,
            ..Trace::default()
        }
    }

    /// Appends an event and returns it.
    pub fn record(
        &mut self,
        kind: TransitionKind,
        from: CpuMode,
        to: CpuMode,
        cycles: u64,
        instructions: u64,
    ) -> Event {
        let event = Event {
            seq: self.next_seq,
            kind,
            from,
            to,
            cycles,
            instructions,
        };
        self.next_seq += 1;
        self.counts[kind.index()] += 1;
        if from != to {
            self.mode_changes += 1;
        }
        if self.enabled {
            self.events.push(event);
        }
        event
    }

    /// The recorded events (empty if constructed with
    /// [`Trace::counting_only`]).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Total number of transitions recorded (including discarded ones).
    pub fn len(&self) -> u64 {
        self.next_seq
    }

    /// Whether no transitions have been recorded.
    pub fn is_empty(&self) -> bool {
        self.next_seq == 0
    }

    /// How many transitions of `kind` were recorded.
    pub fn count(&self, kind: TransitionKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Number of transitions that changed the privilege mode — the paper's
    /// "ring crossings" metric from Table 1.
    pub fn ring_crossings(&self) -> u64 {
        self.mode_changes
    }

    /// Number of world switches that bounced through the hypervisor
    /// (VMExit + VMEntry pairs plus injections).
    pub fn hypervisor_interventions(&self) -> u64 {
        self.count(TransitionKind::VmExit)
            + self.count(TransitionKind::VmEntry)
            + self.count(TransitionKind::InterruptInject)
    }

    /// Number of intervention-free switches (VMFUNC / world_call family).
    pub fn intervention_free_switches(&self) -> u64 {
        TransitionKind::ALL
            .iter()
            .filter(|k| k.is_intervention_free_switch())
            .map(|k| self.count(*k))
            .sum()
    }

    /// Clears all events and statistics while preserving the enabled flag.
    pub fn clear(&mut self) {
        let enabled = self.enabled;
        *self = Trace {
            enabled,
            ..Trace::default()
        };
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for event in &self.events {
            writeln!(f, "{event}")?;
        }
        write!(
            f,
            "({} transitions, {} ring crossings)",
            self.len(),
            self.ring_crossings()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::CpuMode;

    #[test]
    fn kind_indices_are_dense_and_unique() {
        let mut seen = [false; TransitionKind::COUNT];
        for kind in TransitionKind::ALL {
            let i = kind.index();
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn record_accumulates_counts() {
        let mut t = Trace::new();
        for _ in 0..3 {
            t.record(
                TransitionKind::Vmfunc,
                CpuMode::GUEST_KERNEL,
                CpuMode::GUEST_KERNEL,
                150,
                1,
            );
        }
        assert_eq!(t.count(TransitionKind::Vmfunc), 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.events().len(), 3);
        // Same-mode VMFUNC is not a ring crossing.
        assert_eq!(t.ring_crossings(), 0);
    }

    #[test]
    fn ring_crossings_counts_only_mode_changes() {
        let mut t = Trace::new();
        t.record(
            TransitionKind::SyscallEnter,
            CpuMode::GUEST_USER,
            CpuMode::GUEST_KERNEL,
            100,
            12,
        );
        t.record(
            TransitionKind::Cr3Write,
            CpuMode::GUEST_KERNEL,
            CpuMode::GUEST_KERNEL,
            120,
            1,
        );
        t.record(
            TransitionKind::VmExit,
            CpuMode::GUEST_KERNEL,
            CpuMode::HOST_KERNEL,
            1000,
            60,
        );
        assert_eq!(t.ring_crossings(), 2);
    }

    #[test]
    fn counting_only_discards_events_but_keeps_stats() {
        let mut t = Trace::counting_only();
        t.record(
            TransitionKind::WorldCall,
            CpuMode::GUEST_USER,
            CpuMode::GUEST_KERNEL,
            200,
            1,
        );
        assert!(t.events().is_empty());
        assert_eq!(t.len(), 1);
        assert_eq!(t.count(TransitionKind::WorldCall), 1);
        assert_eq!(t.ring_crossings(), 1);
    }

    #[test]
    fn intervention_accounting() {
        let mut t = Trace::new();
        t.record(
            TransitionKind::VmExit,
            CpuMode::GUEST_KERNEL,
            CpuMode::HOST_KERNEL,
            1000,
            60,
        );
        t.record(
            TransitionKind::InterruptInject,
            CpuMode::HOST_KERNEL,
            CpuMode::HOST_KERNEL,
            600,
            35,
        );
        t.record(
            TransitionKind::VmEntry,
            CpuMode::HOST_KERNEL,
            CpuMode::GUEST_KERNEL,
            700,
            40,
        );
        t.record(
            TransitionKind::Vmfunc,
            CpuMode::GUEST_KERNEL,
            CpuMode::GUEST_KERNEL,
            150,
            1,
        );
        assert_eq!(t.hypervisor_interventions(), 3);
        assert_eq!(t.intervention_free_switches(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = Trace::new();
        t.record(
            TransitionKind::SyscallEnter,
            CpuMode::GUEST_USER,
            CpuMode::GUEST_KERNEL,
            100,
            12,
        );
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.ring_crossings(), 0);
        assert_eq!(t.count(TransitionKind::SyscallEnter), 0);
        // Still records after clear.
        t.record(
            TransitionKind::SyscallEnter,
            CpuMode::GUEST_USER,
            CpuMode::GUEST_KERNEL,
            100,
            12,
        );
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn display_includes_mode_change_arrow() {
        let mut t = Trace::new();
        let e = t.record(
            TransitionKind::SyscallEnter,
            CpuMode::GUEST_USER,
            CpuMode::GUEST_KERNEL,
            100,
            12,
        );
        let s = e.to_string();
        assert!(s.contains("syscall"));
        assert!(s.contains("->"));
    }

    #[test]
    fn mode_crossing_classification() {
        assert!(TransitionKind::SyscallEnter.is_mode_crossing());
        assert!(TransitionKind::WorldCall.is_mode_crossing());
        assert!(!TransitionKind::Cr3Write.is_mode_crossing());
        assert!(TransitionKind::Vmfunc.is_intervention_free_switch());
        assert!(!TransitionKind::VmExit.is_intervention_free_switch());
    }
}
