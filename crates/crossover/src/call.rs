//! The `world_call` hardware logic (extended VMFUNC, §5.1).
//!
//! [`WorldCallUnit`] models the processing logic added next to VMFUNC in
//! Figure 5b: on `world_call` it identifies the caller through the IWT
//! cache, resolves the callee through the WT cache, and switches the CPU
//! to the callee's world in a single transition. Cache misses raise an
//! exception to the hypervisor, which walks the world table and fills the
//! missing entry via `manage_wtc` (VMFUNC leaf 0x2) — all of which is
//! priced, so workloads with poor world locality pay for it.

use hypervisor::platform::Platform;
use machine::trace::TransitionKind;

use crate::table::WorldLookup;
use crate::world::{Wid, WorldContext, WorldEntry};
use crate::wtc::{CacheStats, IwtCache, WtCache, DEFAULT_WTC_CAPACITY};
use crate::WorldError;

/// Whether a `world_call` is an outbound call or a return. Architecturally
/// both are the same instruction (§3.3: "when return, the processor still
/// uses world_call"); the distinction only selects the trace label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Caller → callee.
    Call,
    /// Callee → caller.
    Return,
}

/// What the hardware hands the destination world after a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchOutcome {
    /// The WID of the world that invoked `world_call` (passed to the
    /// destination in a register for authorization).
    pub from: Wid,
    /// The world now executing.
    pub to: Wid,
    /// Entry point the PC was set to.
    pub entry_point: u64,
}

/// The hardware world-call unit: both world-table caches plus the switch
/// logic.
///
/// # Example
///
/// See the crate-level example; [`crate::manager::WorldManager`] wraps
/// this unit together with the software-side state.
#[derive(Debug, Clone)]
pub struct WorldCallUnit {
    wt: WtCache,
    iwt: IwtCache,
}

impl WorldCallUnit {
    /// Creates a unit with default cache capacities.
    pub fn new() -> WorldCallUnit {
        WorldCallUnit::with_capacity(DEFAULT_WTC_CAPACITY)
    }

    /// Creates a unit with custom (equal) cache capacities.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> WorldCallUnit {
        WorldCallUnit {
            wt: WtCache::new(capacity),
            iwt: IwtCache::new(capacity),
        }
    }

    /// Creates a unit whose caches share an explicit sets × ways shape.
    pub fn with_geometry(geometry: crate::wtc::CacheGeometry) -> WorldCallUnit {
        WorldCallUnit {
            wt: WtCache::with_geometry(geometry),
            iwt: IwtCache::with_geometry(geometry),
        }
    }

    /// WT-cache statistics.
    pub fn wt_stats(&self) -> CacheStats {
        self.wt.stats()
    }

    /// IWT-cache statistics.
    pub fn iwt_stats(&self) -> CacheStats {
        self.iwt.stats()
    }

    /// Identifies the caller world from the CPU's current context,
    /// handling the IWT-cache miss path.
    ///
    /// # Errors
    ///
    /// [`WorldError::NotAWorld`] if the context is not registered — the
    /// "namespace issues a world call without creating a world first"
    /// exception of §3.3.
    fn identify_caller<T: WorldLookup>(
        &mut self,
        platform: &mut Platform,
        table: &T,
    ) -> Result<Wid, WorldError> {
        let ctx = WorldContext::capture(platform);
        if let Some(wid) = self.iwt.lookup(&ctx) {
            return Ok(wid);
        }
        // Miss: exception to the hypervisor, which walks the world table.
        platform.cpu_mut().touch(TransitionKind::WtcMissFault);
        match table.wid_of(&ctx) {
            Some(wid) => {
                platform.cpu_mut().touch(TransitionKind::WtcFill);
                self.iwt.fill(ctx, wid);
                Ok(wid)
            }
            None => Err(WorldError::NotAWorld { context: ctx }),
        }
    }

    /// Resolves the callee's world-table entry, handling the WT-cache
    /// miss path.
    ///
    /// # Errors
    ///
    /// [`WorldError::InvalidWid`] if no present entry names `callee`.
    fn resolve_callee<T: WorldLookup>(
        &mut self,
        platform: &mut Platform,
        table: &T,
        callee: Wid,
    ) -> Result<WorldEntry, WorldError> {
        if let Some(entry) = self.wt.lookup(callee) {
            return Ok(entry);
        }
        platform.cpu_mut().touch(TransitionKind::WtcMissFault);
        match table.entry_of(callee) {
            Some(entry) => {
                platform.cpu_mut().touch(TransitionKind::WtcFill);
                self.wt.fill(entry);
                Ok(entry)
            }
            None => Err(WorldError::InvalidWid { wid: callee }),
        }
    }

    /// Executes `world_call` (VMFUNC leaf 0x1): identify caller, resolve
    /// callee, switch worlds in one transition, pass the caller's WID in
    /// `rdi` and land at the callee's entry point.
    ///
    /// # Errors
    ///
    /// * [`WorldError::NotAWorld`] — caller context unregistered.
    /// * [`WorldError::InvalidWid`] — callee WID not present.
    /// * [`WorldError::Hv`] — the destination EPTP is not a registered
    ///   EPT (corrupt world table).
    pub fn world_call<T: WorldLookup>(
        &mut self,
        platform: &mut Platform,
        table: &T,
        callee: Wid,
        direction: Direction,
    ) -> Result<SwitchOutcome, WorldError> {
        let caller = self.identify_caller(platform, table)?;
        let entry = self.resolve_callee(platform, table, callee)?;
        let kind = match direction {
            Direction::Call => TransitionKind::WorldCall,
            Direction::Return => TransitionKind::WorldReturn,
        };
        platform.crossover_switch(
            kind,
            entry.context.mode(),
            entry.context.ptp,
            entry.context.eptp,
        )?;
        let regs = platform.cpu_mut().regs_mut();
        regs.rdi = caller.raw();
        regs.rip = entry.entry_point;
        Ok(SwitchOutcome {
            from: caller,
            to: entry.wid,
            entry_point: entry.entry_point,
        })
    }

    /// `manage_wtc` fill: pre-load both caches for `wid` from the table
    /// (the hypervisor does this after registration so the first call is
    /// already a hit, as in the paper's Table 7 evaluation).
    ///
    /// # Errors
    ///
    /// [`WorldError::InvalidWid`] if `wid` is not present.
    pub fn manage_wtc_fill<T: WorldLookup>(
        &mut self,
        platform: &mut Platform,
        table: &T,
        wid: Wid,
    ) -> Result<(), WorldError> {
        let entry = table.entry_of(wid).ok_or(WorldError::InvalidWid { wid })?;
        platform.cpu_mut().touch(TransitionKind::WtcFill);
        self.wt.fill(entry);
        self.iwt.fill(entry.context, wid);
        Ok(())
    }

    /// `manage_wtc` invalidate: purge `wid` from both caches (after the
    /// hypervisor deletes a world).
    pub fn manage_wtc_invalidate(&mut self, platform: &mut Platform, wid: Wid) {
        platform.cpu_mut().touch(TransitionKind::WtcFill);
        self.wt.invalidate(wid);
        self.iwt.invalidate_wid(wid);
    }
}

impl Default for WorldCallUnit {
    fn default() -> WorldCallUnit {
        WorldCallUnit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::WorldTable;
    use crate::world::WorldDescriptor;
    use hypervisor::vm::{VmConfig, VmId};
    use machine::mode::CpuMode;

    struct Fixture {
        platform: Platform,
        table: WorldTable,
        unit: WorldCallUnit,
        vm1: VmId,
        vm2: VmId,
        caller: Wid,
        callee: Wid,
    }

    fn fixture() -> Fixture {
        let mut platform = Platform::new_default();
        let vm1 = platform.create_vm(VmConfig::named("vm1")).unwrap();
        let vm2 = platform.create_vm(VmConfig::named("vm2")).unwrap();
        let mut table = WorldTable::new();
        let caller = table
            .create(WorldDescriptor::guest_user(&platform, vm1, 0x1000, 0x40_0000).unwrap())
            .unwrap();
        let callee = table
            .create(WorldDescriptor::guest_kernel(&platform, vm2, 0x2000, 0xFFFF_8000).unwrap())
            .unwrap();
        platform.vmentry(vm1).unwrap();
        platform.cpu_mut().force_cr3(0x1000);
        Fixture {
            platform,
            table,
            unit: WorldCallUnit::new(),
            vm1,
            vm2,
            caller,
            callee,
        }
    }

    #[test]
    fn call_switches_world_and_passes_wid() {
        let mut f = fixture();
        let outcome = f
            .unit
            .world_call(&mut f.platform, &f.table, f.callee, Direction::Call)
            .unwrap();
        assert_eq!(outcome.from, f.caller);
        assert_eq!(outcome.to, f.callee);
        assert_eq!(f.platform.cpu().mode(), CpuMode::GUEST_KERNEL);
        assert_eq!(f.platform.cpu().cr3(), 0x2000);
        assert_eq!(f.platform.cpu().regs().rdi, f.caller.raw());
        assert_eq!(f.platform.cpu().regs().rip, 0xFFFF_8000);
        assert_eq!(f.platform.current_vm(), Some(f.vm2));
    }

    #[test]
    fn no_hypervisor_intervention_on_hit_path() {
        let mut f = fixture();
        // Pre-fill (manage_wtc) so the call itself is all hits.
        f.unit
            .manage_wtc_fill(&mut f.platform, &f.table, f.caller)
            .unwrap();
        f.unit
            .manage_wtc_fill(&mut f.platform, &f.table, f.callee)
            .unwrap();
        let exits = f.platform.cpu().trace().hypervisor_interventions();
        let faults = f.platform.cpu().trace().count(TransitionKind::WtcMissFault);
        f.unit
            .world_call(&mut f.platform, &f.table, f.callee, Direction::Call)
            .unwrap();
        assert_eq!(f.platform.cpu().trace().hypervisor_interventions(), exits);
        assert_eq!(
            f.platform.cpu().trace().count(TransitionKind::WtcMissFault),
            faults
        );
    }

    #[test]
    fn cold_call_pays_two_miss_faults() {
        let mut f = fixture();
        f.unit
            .world_call(&mut f.platform, &f.table, f.callee, Direction::Call)
            .unwrap();
        // One IWT miss (caller) + one WT miss (callee).
        assert_eq!(
            f.platform.cpu().trace().count(TransitionKind::WtcMissFault),
            2
        );
        // Warm second call from the same pair: return then re-call.
        f.unit
            .world_call(&mut f.platform, &f.table, f.caller, Direction::Return)
            .unwrap();
        let faults = f.platform.cpu().trace().count(TransitionKind::WtcMissFault);
        f.unit
            .world_call(&mut f.platform, &f.table, f.callee, Direction::Call)
            .unwrap();
        assert_eq!(
            f.platform.cpu().trace().count(TransitionKind::WtcMissFault),
            faults,
            "warm path must not fault"
        );
    }

    #[test]
    fn unregistered_caller_context_is_rejected() {
        let mut f = fixture();
        // CPU context with a CR3 that never registered a world.
        f.platform.cpu_mut().force_cr3(0xBAD0_0000);
        let err = f
            .unit
            .world_call(&mut f.platform, &f.table, f.callee, Direction::Call)
            .unwrap_err();
        assert!(matches!(err, WorldError::NotAWorld { .. }));
    }

    #[test]
    fn invalid_callee_wid_is_rejected() {
        let mut f = fixture();
        let ghost = Wid::from_raw(999);
        let err = f
            .unit
            .world_call(&mut f.platform, &f.table, ghost, Direction::Call)
            .unwrap_err();
        assert_eq!(err, WorldError::InvalidWid { wid: ghost });
        // The CPU must not have switched anywhere.
        assert_eq!(f.platform.cpu().mode(), CpuMode::GUEST_USER);
        assert_eq!(f.platform.current_vm(), Some(f.vm1));
    }

    #[test]
    fn deleted_world_becomes_uncallable_after_invalidate() {
        let mut f = fixture();
        f.unit
            .manage_wtc_fill(&mut f.platform, &f.table, f.callee)
            .unwrap();
        f.table.delete(f.callee).unwrap();
        f.unit.manage_wtc_invalidate(&mut f.platform, f.callee);
        let err = f
            .unit
            .world_call(&mut f.platform, &f.table, f.callee, Direction::Call)
            .unwrap_err();
        assert_eq!(err, WorldError::InvalidWid { wid: f.callee });
    }

    #[test]
    fn stale_cache_entry_would_hit_without_invalidate() {
        // Documents *why* manage_wtc invalidation matters: the caches are
        // software-managed, so deleting a table entry alone leaves a stale
        // (still switchable) cache line until the hypervisor invalidates.
        let mut f = fixture();
        f.unit
            .manage_wtc_fill(&mut f.platform, &f.table, f.caller)
            .unwrap();
        f.unit
            .manage_wtc_fill(&mut f.platform, &f.table, f.callee)
            .unwrap();
        f.table.delete(f.callee).unwrap();
        // No invalidate: the call still succeeds from cache.
        assert!(f
            .unit
            .world_call(&mut f.platform, &f.table, f.callee, Direction::Call)
            .is_ok());
    }

    #[test]
    fn return_direction_traces_world_return() {
        let mut f = fixture();
        f.unit
            .world_call(&mut f.platform, &f.table, f.callee, Direction::Call)
            .unwrap();
        f.unit
            .world_call(&mut f.platform, &f.table, f.caller, Direction::Return)
            .unwrap();
        let t = f.platform.cpu().trace();
        assert_eq!(t.count(TransitionKind::WorldCall), 1);
        assert_eq!(t.count(TransitionKind::WorldReturn), 1);
        assert_eq!(f.platform.cpu().mode(), CpuMode::GUEST_USER);
        assert_eq!(f.platform.cpu().cr3(), 0x1000);
    }
}
