//! Umbrella crate for the CrossOver (ISCA'15) reproduction.
//!
//! Re-exports every workspace crate under one roof so the examples and
//! integration tests can use a single dependency. See the individual crates
//! for the real documentation:
//!
//! * [`machine`] — simulated CPU, cost model, accounting, tracing.
//! * [`mmu`] — guest page tables, EPT, two-stage translation, TLB.
//! * [`hypervisor`] — VMs, vCPUs, VMExit/VMEntry, VMFUNC, scheduling.
//! * [`guestos`] — xv6-like guest kernel with a syscall dispatcher.
//! * [`crossover`] — the paper's contribution: worlds, world table,
//!   `world_call`, WT/IWT caches, hop planner.
//! * [`systems`] — Proxos, HyperShell, Tahoma, ShadowContext case studies.
//! * [`workloads`] — lmbench micro-ops, utilities, OpenSSH scp model.
//! * [`runtime`] — the concurrent multi-vCPU world-call service:
//!   epoch world table, call router, worker pool.

pub use crossover;
pub use guestos;
pub use hypervisor;
pub use machine;
pub use mmu;
pub use runtime;
pub use systems;
pub use workloads;
