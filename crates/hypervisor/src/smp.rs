//! Per-core meters for the runtime's worker pool.
//!
//! The main [`crate::platform::Platform`] is single-vCPU (faithful to
//! the paper's benchmark guests). A worker pool runs one such platform
//! per worker; when it drains, it merges each worker's meter into one
//! core of an [`SmpMachine`], so reports read system-wide work
//! ([`SmpMachine::total_cycles`]) and wall-clock
//! ([`SmpMachine::makespan_cycles`]) from one place. The §3.3 IPI-based
//! call design is priced on the single platform meter instead
//! (`crossover::alt::sync_ipi_call`).

use machine::cost::CostModel;
use machine::cpu::Cpu;
use machine::mode::CpuMode;

/// Identifier of a core in an [`SmpMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreId(pub u32);

/// A multi-core machine: per-core CPUs, each with its own meter and
/// trace.
///
/// # Example
///
/// ```
/// use xover_hypervisor::smp::{CoreId, SmpMachine};
///
/// let mut smp = SmpMachine::new(4);
/// smp.core_mut(CoreId(2))?.charge_work(100, 10, "callee body");
/// assert_eq!(smp.total_cycles(), 100);
/// assert_eq!(smp.makespan_cycles(), 100);
/// # Ok::<(), xover_hypervisor::smp::SmpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SmpMachine {
    cores: Vec<Cpu>,
}

/// Errors from SMP operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmpError {
    /// Referenced a core that does not exist.
    NoSuchCore {
        /// The offending id.
        core: CoreId,
    },
    /// A machine needs at least one core.
    ZeroCores,
}

impl std::fmt::Display for SmpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmpError::NoSuchCore { core } => write!(f, "no such core: {}", core.0),
            SmpError::ZeroCores => write!(f, "an SMP machine needs at least one core"),
        }
    }
}

impl std::error::Error for SmpError {}

impl SmpMachine {
    /// Creates a machine with `cores` cores (Haswell cost model), all in
    /// host kernel mode.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: u32) -> SmpMachine {
        SmpMachine::try_new(cores).expect("need at least one core")
    }

    /// Fallible constructor for callers sizing the machine from runtime
    /// configuration (e.g. a worker-pool service), where a zero count is
    /// an input error rather than a programming bug.
    ///
    /// # Errors
    ///
    /// [`SmpError::ZeroCores`] if `cores` is zero.
    pub fn try_new(cores: u32) -> Result<SmpMachine, SmpError> {
        if cores == 0 {
            return Err(SmpError::ZeroCores);
        }
        let cores: Vec<Cpu> = (0..cores)
            .map(|i| {
                let mut cpu = Cpu::new(i, CostModel::haswell_3_4ghz());
                cpu.force_mode(CpuMode::HOST_KERNEL);
                cpu
            })
            .collect();
        Ok(SmpMachine { cores })
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Read access to one core's CPU.
    ///
    /// # Errors
    ///
    /// [`SmpError::NoSuchCore`] for an unknown core.
    pub fn core(&self, id: CoreId) -> Result<&Cpu, SmpError> {
        self.cores
            .get(id.0 as usize)
            .ok_or(SmpError::NoSuchCore { core: id })
    }

    /// Mutable access to one core's CPU.
    ///
    /// # Errors
    ///
    /// [`SmpError::NoSuchCore`] for an unknown core.
    pub fn core_mut(&mut self, id: CoreId) -> Result<&mut Cpu, SmpError> {
        self.cores
            .get_mut(id.0 as usize)
            .ok_or(SmpError::NoSuchCore { core: id })
    }

    /// Total cycles across all cores (system-wide work).
    pub fn total_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.meter().cycles()).sum()
    }

    /// The maximum single-core cycle count (a proxy for wall-clock when
    /// cores run concurrently).
    pub fn makespan_cycles(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.meter().cycles())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_core_meters_are_independent() {
        let mut smp = SmpMachine::new(2);
        smp.core_mut(CoreId(0)).unwrap().charge_work(100, 10, "a");
        assert_eq!(smp.core(CoreId(0)).unwrap().meter().cycles(), 100);
        assert_eq!(smp.core(CoreId(1)).unwrap().meter().cycles(), 0);
        assert_eq!(smp.total_cycles(), 100);
        assert_eq!(smp.makespan_cycles(), 100);
        assert_eq!(
            smp.core(CoreId(9)).err(),
            Some(SmpError::NoSuchCore { core: CoreId(9) })
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        SmpMachine::new(0);
    }

    #[test]
    fn try_new_reports_zero_cores_as_an_error() {
        assert_eq!(SmpMachine::try_new(0).err(), Some(SmpError::ZeroCores));
        assert_eq!(SmpMachine::try_new(3).unwrap().core_count(), 3);
        assert!(SmpError::ZeroCores
            .to_string()
            .contains("at least one core"));
    }
}
