//! Simulated CPU substrate for the CrossOver reproduction.
//!
//! The ISCA'15 CrossOver paper measures systems whose performance is
//! dominated by *world transitions*: syscalls, VMExits/VMEntries, VMFUNC
//! invocations, context switches and the proposed `world_call`. This crate
//! provides the hardware model those transitions run on:
//!
//! * [`mode`] — privilege state: host/guest (VMX root/non-root) operation and
//!   protection rings, combined into a [`mode::CpuMode`].
//! * [`cost`] — a calibrated [`cost::CostModel`] mapping each
//!   [`trace::TransitionKind`] to cycles and instructions, with a Haswell
//!   i7-4770 @ 3.4 GHz preset matching the paper's evaluation platform.
//! * [`account`] — cycle/instruction meters ([`account::Meter`]) that the
//!   rest of the stack charges work against.
//! * [`trace`] — counts of every transition (and, once a caller opts in,
//!   the events themselves), from which ring-crossing counts (Table 1,
//!   Figure 2) are derived rather than assumed.
//! * [`cpu`] — the virtual CPU: register file, control registers, current
//!   mode, and checked mode-transition helpers.
//!
//! # Example
//!
//! ```
//! use xover_machine::cost::CostModel;
//! use xover_machine::cpu::Cpu;
//! use xover_machine::mode::{CpuMode, Operation, Ring};
//! use xover_machine::trace::TransitionKind;
//!
//! let mut cpu = Cpu::new(0, CostModel::haswell_3_4ghz());
//! assert_eq!(cpu.mode(), CpuMode::new(Operation::NonRoot, Ring::Ring3));
//! // A syscall enters guest ring 0 and charges the calibrated cost.
//! cpu.transition(TransitionKind::SyscallEnter,
//!                CpuMode::new(Operation::NonRoot, Ring::Ring0));
//! assert!(cpu.meter().cycles() > 0);
//! ```

pub mod account;
pub mod cost;
pub mod cpu;
pub mod fault;
pub mod mode;
pub mod rng;
pub mod trace;

pub use account::Meter;
pub use cost::{CostModel, Cycles, Frequency};
pub use cpu::Cpu;
pub use mode::{CpuMode, Operation, Ring};
pub use trace::{Event, Trace, TransitionKind};
