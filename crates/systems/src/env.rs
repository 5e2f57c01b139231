//! The two-VM environment all case studies run in.
//!
//! §6: "For cross-VM call, we create two VMs which are exactly the same to
//! support such calling." The environment sets up the platform, one guest
//! kernel per VM, an application process in VM-1, a helper/stub/dummy
//! process in VM-2, the VMFUNC EPTP lists, the cross-ring code page mapped
//! at the same guest-physical address in both VMs, and the inter-VM shared
//! memory page for parameter passing.

use guestos::kernel::Kernel;
use guestos::process::Pid;
use hypervisor::platform::Platform;
use hypervisor::vm::{VmConfig, VmId};
use machine::account::Delta;
use machine::cost::CostModel;
use mmu::addr::Gpa;
use mmu::perms::Perms;

use crate::SystemError;

/// Guest-physical address of the cross-ring code page (§4.3), identical
/// in every VM.
pub const CODE_PAGE_GPA: Gpa = Gpa(0xC000);

/// Guest-physical address of the inter-VM shared memory page used for
/// parameter and result passing.
pub const SHARED_PAGE_GPA: Gpa = Gpa(0xD000);

/// A two-VM world: the setting of every case study.
///
/// # Example
///
/// ```
/// use xover_systems::env::CrossVmEnv;
///
/// let mut env = CrossVmEnv::new("trusted", "untrusted")?;
/// // VM-1 is executing; its app process is current.
/// assert_eq!(env.platform.current_vm(), Some(env.vm1));
/// # Ok::<(), xover_systems::SystemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CrossVmEnv {
    /// The simulated machine.
    pub platform: Platform,
    /// First VM (the caller side: app / shell / manager / trusted VM).
    pub vm1: VmId,
    /// Second VM (the callee side: stub / helper / instance / untrusted).
    pub vm2: VmId,
    /// VM-1's kernel.
    pub k1: Kernel,
    /// VM-2's kernel.
    pub k2: Kernel,
    /// The application process in VM-1.
    pub app: Pid,
    /// The stub / helper / dummy process in VM-2 that services redirected
    /// calls.
    pub remote: Pid,
    /// VM-1's helper context (same CR3 as VM-2's, per §4.3).
    pub helper1: Pid,
    /// VM-2's helper context.
    pub helper2: Pid,
}

impl CrossVmEnv {
    /// Builds the environment with the default Haswell cost model and
    /// enters VM-1 ready to run its app.
    ///
    /// # Errors
    ///
    /// Propagates platform and guest-OS setup failures.
    pub fn new(name1: &str, name2: &str) -> Result<CrossVmEnv, SystemError> {
        CrossVmEnv::with_cost_model(name1, name2, CostModel::haswell_3_4ghz())
    }

    /// Builds the environment with a custom cost model.
    ///
    /// # Errors
    ///
    /// Propagates platform and guest-OS setup failures.
    pub fn with_cost_model(
        name1: &str,
        name2: &str,
        cost: CostModel,
    ) -> Result<CrossVmEnv, SystemError> {
        let mut platform = Platform::new(cost);
        let vm1 = platform.create_vm(VmConfig::named(name1))?;
        let vm2 = platform.create_vm(VmConfig::named(name2))?;
        platform.setup_vmfunc_eptp_list(vm1)?;
        platform.setup_vmfunc_eptp_list(vm2)?;
        // §4.3: cross-ring code page at the same GPA in all VMs, and the
        // shared parameter page aliased into both.
        platform.map_code_page_all_vms(CODE_PAGE_GPA)?;
        platform.map_shared_page(vm1, vm2, SHARED_PAGE_GPA, Perms::rw())?;

        let mut k1 = Kernel::new(vm1, name1);
        let mut k2 = Kernel::new(vm2, name2);
        let app = k1.spawn(&mut platform, "app")?;
        let helper1 = k1.spawn_helper(&mut platform)?;
        let remote = k2.spawn(&mut platform, "stub")?;
        let helper2 = k2.spawn_helper(&mut platform)?;
        k1.run(app);
        k2.run(remote);
        platform.vmentry(vm1)?;
        // The app's address space is live.
        let app_cr3 = k1.process(app).expect("just spawned").cr3();
        platform.cpu_mut().force_cr3(app_cr3);
        Ok(CrossVmEnv {
            platform,
            vm1,
            vm2,
            k1,
            k2,
            app,
            remote,
            helper1,
            helper2,
        })
    }

    /// Measures the meter delta of running `f` on this environment.
    ///
    /// # Errors
    ///
    /// Propagates errors from `f`.
    pub fn measure<T>(
        &mut self,
        f: impl FnOnce(&mut CrossVmEnv) -> Result<T, SystemError>,
    ) -> Result<(T, Delta), SystemError> {
        let snap = self.platform.cpu().meter().snapshot();
        let value = f(self)?;
        let delta = self.platform.cpu().meter().since(snap);
        Ok((value, delta))
    }

    /// Restores the CPU to "VM-1 app running in user mode" — the resting
    /// state between benchmark iterations.
    ///
    /// # Errors
    ///
    /// Propagates VMEntry failures.
    pub fn settle_in_vm1(&mut self) -> Result<(), SystemError> {
        if self.platform.current_vm() != Some(self.vm1) {
            if self.platform.cpu().mode().operation().is_guest() {
                self.platform.vmexit(hypervisor::ExitReason::Hlt)?;
            }
            self.platform.vmentry(self.vm1)?;
        }
        let cr3 = self.k1.process(self.app).expect("app exists").cr3();
        self.platform.cpu_mut().force_cr3(cr3);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestos::syscall::Syscall;

    #[test]
    fn env_setup_invariants() {
        let env = CrossVmEnv::new("a", "b").unwrap();
        assert_eq!(env.platform.current_vm(), Some(env.vm1));
        // Helper contexts share one CR3 across VMs.
        assert_eq!(
            env.k1.process(env.helper1).unwrap().cr3(),
            env.k2.process(env.helper2).unwrap().cr3()
        );
        // Code page mapped at the same GPA in both VMs, read-execute.
        let e1 = env
            .platform
            .ept(env.vm1)
            .unwrap()
            .entry(CODE_PAGE_GPA)
            .unwrap();
        let e2 = env
            .platform
            .ept(env.vm2)
            .unwrap()
            .entry(CODE_PAGE_GPA)
            .unwrap();
        assert_eq!(e1.hpa, e2.hpa);
        assert!(!e1.perms.can_write());
    }

    #[test]
    fn shared_page_carries_data_between_vms() {
        let mut env = CrossVmEnv::new("a", "b").unwrap();
        env.platform
            .write_gpa(env.vm1, SHARED_PAGE_GPA, b"params")
            .unwrap();
        let mut buf = [0u8; 6];
        env.platform
            .read_gpa(env.vm2, SHARED_PAGE_GPA, &mut buf)
            .unwrap();
        assert_eq!(&buf, b"params");
    }

    #[test]
    fn native_syscalls_work_in_vm1() {
        let mut env = CrossVmEnv::new("a", "b").unwrap();
        let (ret, delta) = env
            .measure(|e| {
                e.k1.syscall(&mut e.platform, Syscall::Null)
                    .map_err(Into::into)
            })
            .unwrap();
        assert_eq!(ret, guestos::SyscallRet::Unit);
        assert_eq!(delta.cycles.0, 986, "native NULL syscall = 0.29 us");
    }

    #[test]
    fn settle_returns_to_vm1_from_anywhere() {
        let mut env = CrossVmEnv::new("a", "b").unwrap();
        env.platform.vmexit(hypervisor::ExitReason::Hlt).unwrap();
        env.platform.vmentry(env.vm2).unwrap();
        env.settle_in_vm1().unwrap();
        assert_eq!(env.platform.current_vm(), Some(env.vm1));
        assert_eq!(
            env.platform.cpu().cr3(),
            env.k1.process(env.app).unwrap().cr3()
        );
    }
}
