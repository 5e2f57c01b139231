//! Switchless call channels: priced shared-memory request/response rings.
//!
//! The classic `world_call` path charges every call a full caller→callee
//! →caller transition pair plus state save/restore, even when thousands
//! of calls target the same callee back to back. The switchless layer
//! amortizes that: callers deposit requests in a shared-memory ring and
//! a *callee-resident dispatcher* drains a whole batch per transition
//! pair, so the amortized transitions/call on a hot pair drops below
//! one (the same cost structure ZC-switchless exploits for SGX
//! ecalls — see PAPERS.md).
//!
//! The simulation stays honest by pricing the ring as what it is:
//! guest memory. A [`ChannelSegment`] is a real allocated guest-memory
//! region mapped into the callee's address space; every request-slot
//! read and response-slot write the resident dispatcher performs is a
//! [`hypervisor::platform::Platform::access_gva`] through the worker's
//! unified TLB — a warm slot costs one cycle, a cold one pays the full
//! two-stage walk. Nothing about the channel is free.
//!
//! Layout: one segment per callee world, one *lane* (page) per caller
//! hash, so each (caller-world, callee-world) pair owns a private ring
//! of [`SLOTS_PER_LANE`] cache-line-sized slots and two pairs never
//! false-share a line.
//!
//! The *dispatcher policy* — how long a worker stays resident in the
//! callee world, when it spins versus returns — lives in the runtime
//! crate; this module is the hardware/memory substrate plus the cost
//! bookkeeping both sides share.

#![deny(missing_docs)]

use hypervisor::platform::Platform;
use hypervisor::HvError;
use machine::trace::TransitionKind;
use mmu::addr::{Gva, PAGE_SIZE};
use mmu::pagetable::PageTable;
use mmu::perms::Perms;

use crate::manager::{RESTORE_STATE_CYCLES, SAVE_STATE_CYCLES};
use crate::world::Wid;

/// Bytes per ring slot: one cache line carries the marshalled request
/// (or response) header, matching how real switchless runtimes size
/// their entries to avoid false sharing.
pub const SLOT_BYTES: u64 = 64;

/// Slots per lane: one page of cache-line slots.
pub const SLOTS_PER_LANE: u64 = PAGE_SIZE / SLOT_BYTES;

/// SplitMix64 finalizer — the same mixer the WT-cache index uses, so
/// adjacent WIDs spread across lanes instead of clustering.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One callee world's shared request/response segment: `lanes` pages of
/// guest memory mapped rw into the callee's address space, each lane a
/// private ring for one caller-hash.
///
/// The segment is allocated before the worker pool starts (like a
/// working set: the pages must exist in the EPT every worker clones)
/// and is immutable afterwards; per-worker slot cursors and statistics
/// live with the worker, so segments can be shared read-only across the
/// pool.
#[derive(Debug, Clone)]
pub struct ChannelSegment {
    pt: PageTable,
    base: Gva,
    lanes: u64,
}

impl ChannelSegment {
    /// Wraps an allocated, mapped region as a channel segment.
    ///
    /// `pt` must be rooted at the callee world's PTP and map `lanes`
    /// consecutive rw pages at `base` (the runtime service does the
    /// allocation and mapping, exactly as it does for working sets).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(pt: PageTable, base: Gva, lanes: u64) -> ChannelSegment {
        assert!(lanes > 0, "a channel segment needs at least one lane");
        ChannelSegment { pt, base, lanes }
    }

    /// Number of lanes (pages) in the segment.
    pub fn lanes(&self) -> u64 {
        self.lanes
    }

    /// First mapped guest-virtual address.
    pub fn base(&self) -> Gva {
        self.base
    }

    /// The lane `caller`'s requests ride in.
    pub fn lane_of(&self, caller: Wid) -> u64 {
        mix64(caller.raw()) % self.lanes
    }

    /// Guest-virtual address of slot `seq` in `lane`.
    fn slot_gva(&self, lane: u64, seq: u64) -> Gva {
        debug_assert!(lane < self.lanes);
        self.base + lane * PAGE_SIZE + (seq % SLOTS_PER_LANE) * SLOT_BYTES
    }

    /// The resident dispatcher writes one response slot: a priced guest
    /// memory access through the platform's current (CR3, EPTP) tags —
    /// i.e. through the *callee's* mapping, since the dispatcher runs
    /// resident in the callee world. Returns the cycles charged (one on
    /// a TLB hit, a full walk on a miss).
    ///
    /// # Errors
    ///
    /// [`HvError::Mmu`] if the segment does not translate (the service
    /// mapped it before start, so this indicates a torn-down EPT).
    pub fn write_response(
        &self,
        platform: &mut Platform,
        lane: u64,
        seq: u64,
    ) -> Result<u64, HvError> {
        self.priced_access(platform, lane, seq)
    }

    /// The integrity tag a well-formed slot carries: a mix of the
    /// segment base, lane and sequence number, so a slot overwritten by
    /// a misbehaving caller (or an injected fault) cannot replay a tag
    /// from another slot. Both sides can compute it without sharing
    /// secrets — this is corruption *detection* for self-healing, not
    /// authentication (§3.4 leaves that to the callee's checks).
    pub fn slot_checksum(&self, lane: u64, seq: u64) -> u64 {
        mix64(self.base.0 ^ lane.rotate_left(48) ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Reads one request slot *and* verifies its header: the same priced
    /// slot access as [`ChannelSegment::write_response`] plus a
    /// seqno/checksum comparison against the expected tag. Verification reads only the
    /// slot's own cache line, so it adds no cycles beyond the slot
    /// access itself. `corrupted` is the fault-injection hook: when set,
    /// the slot reads back as if a misbehaving caller scribbled on it.
    ///
    /// # Errors
    ///
    /// [`HvError::Mmu`] if the slot page no longer translates (EPT
    /// permission fault / torn-down mapping).
    pub fn read_request_verified(
        &self,
        platform: &mut Platform,
        lane: u64,
        seq: u64,
        corrupted: bool,
    ) -> Result<SlotRead, HvError> {
        let cycles = self.priced_access(platform, lane, seq)?;
        let expected_checksum = self.slot_checksum(lane, seq);
        Ok(SlotRead {
            cycles,
            expected_seqno: seq,
            seqno: if corrupted {
                seq ^ 0x8000_0000_0000_0001
            } else {
                seq
            },
            expected_checksum,
            checksum: if corrupted {
                expected_checksum ^ 0xDEAD_BEEF_0BAD_F00D
            } else {
                expected_checksum
            },
        })
    }

    fn priced_access(&self, platform: &mut Platform, lane: u64, seq: u64) -> Result<u64, HvError> {
        let before = platform.cpu().meter().cycles();
        // rw: request and response share the slot's line, and a single
        // perms tag avoids spurious permission-upgrade re-walks.
        platform.access_gva(&self.pt, self.slot_gva(lane, seq), Perms::rw())?;
        Ok(platform.cpu().meter().cycles() - before)
    }
}

/// One verified request-slot read: the cycles the access cost plus the
/// header fields a corruption check compares. Produced by
/// [`ChannelSegment::read_request_verified`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRead {
    /// Cycles charged for the slot access (TLB hit or walk).
    pub cycles: u64,
    /// Sequence number the slot header carried.
    pub seqno: u64,
    /// Sequence number the dispatcher expected.
    pub expected_seqno: u64,
    /// Integrity tag the slot header carried.
    pub checksum: u64,
    /// Integrity tag recomputed from (segment, lane, seq).
    pub expected_checksum: u64,
}

impl SlotRead {
    /// Whether the slot header survived intact (seqno and checksum both
    /// match). A failed check means the channel contents cannot be
    /// trusted — the dispatcher must fall back and quarantine the
    /// channel, never service the slot.
    pub fn intact(&self) -> bool {
        self.seqno == self.expected_seqno && self.checksum == self.expected_checksum
    }
}

/// Cycles one *classic* call spends on pure switching that a coalesced
/// batch amortizes across its members: caller state save, `world_call`,
/// `world_call` return and state restore. The callee body, ring slot
/// traffic and any WTC/TLB misses are *not* in here — those are paid
/// per call on both paths.
pub fn transition_pair_cycles(platform: &Platform) -> u64 {
    let model = platform.cpu().cost_model();
    SAVE_STATE_CYCLES
        + RESTORE_STATE_CYCLES
        + model.price(TransitionKind::WorldCall).cycles
        + model.price(TransitionKind::WorldReturn).cycles
}

/// Per-pair drain accounting a resident dispatcher accumulates; the
/// runtime sums these into its service report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Calls serviced through a channel (coalesced).
    pub coalesced_calls: u64,
    /// Caller→callee→caller transition pairs paid for those calls.
    pub transition_pairs: u64,
    /// Cycles charged for request/response slot accesses.
    pub slot_cycles: u64,
    /// Virtual-time cycles charged to spin-then-block waits.
    pub spin_cycles: u64,
    /// Residencies that ended because the ring ran dry before the
    /// budget was spent (the controller's shrink signal).
    pub dry_exits: u64,
    /// Residencies that ended with budget exhausted and work possibly
    /// left (the controller's grow signal).
    pub saturated_exits: u64,
    /// Residencies aborted by the §3.4 timeout machinery.
    pub timeout_aborts: u64,
    /// Groups that fell back to the classic path mid-flight (callee
    /// vanished, control-flow violation).
    pub fallback_groups: u64,
    /// Returns the hypervisor had to force because the caller world was
    /// deleted while the dispatcher was resident.
    pub forced_returns: u64,
}

impl DrainStats {
    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: &DrainStats) {
        self.coalesced_calls += other.coalesced_calls;
        self.transition_pairs += other.transition_pairs;
        self.slot_cycles += other.slot_cycles;
        self.spin_cycles += other.spin_cycles;
        self.dry_exits += other.dry_exits;
        self.saturated_exits += other.saturated_exits;
        self.timeout_aborts += other.timeout_aborts;
        self.fallback_groups += other.fallback_groups;
        self.forced_returns += other.forced_returns;
    }

    /// Amortized world transitions per coalesced call (2 per pair); the
    /// switchless claim is that this is `< 1.0` on hot pairs. Returns
    /// `f64::NAN` when no calls were coalesced.
    pub fn transitions_per_call(&self) -> f64 {
        if self.coalesced_calls == 0 {
            return f64::NAN;
        }
        (self.transition_pairs * 2) as f64 / self.coalesced_calls as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervisor::vm::VmConfig;

    fn mapped_segment(platform: &mut Platform, lanes: u64) -> (ChannelSegment, u64) {
        let vm = platform.create_vm(VmConfig::named("seg")).unwrap();
        let gpa = platform.alloc_guest_pages(vm, lanes).unwrap();
        let base = Gva(0x5000_0000);
        let mut pt = PageTable::new(0xAB00_0000);
        for i in 0..lanes {
            pt.map(base + i * PAGE_SIZE, gpa + i * PAGE_SIZE, Perms::rw())
                .unwrap();
        }
        let eptp = platform.eptp_of(vm).unwrap();
        platform.vmentry(vm).unwrap();
        platform.cpu_mut().force_cr3(0xAB00_0000);
        (ChannelSegment::new(pt, base, lanes), eptp)
    }

    #[test]
    fn slot_accesses_are_priced_through_the_tlb() {
        let mut p = Platform::new_default();
        let (seg, _) = mapped_segment(&mut p, 2);
        // Cold slot: full two-stage walk. Warm slot in the same lane
        // (same page): one-cycle TLB hit.
        let cold = seg
            .read_request_verified(&mut p, 0, 0, false)
            .unwrap()
            .cycles;
        let warm = seg.write_response(&mut p, 0, 0).unwrap();
        assert!(cold > warm, "cold {cold} must out-cost warm {warm}");
        assert_eq!(warm, 1, "warm slot access is one cycle (TLB hit)");
        // A different lane is a different page: cold again.
        let other = seg
            .read_request_verified(&mut p, 1, 0, false)
            .unwrap()
            .cycles;
        assert_eq!(other, cold, "each lane pays its own first walk");
    }

    #[test]
    fn sequential_slots_wrap_within_the_lane() {
        let mut p = Platform::new_default();
        let (seg, _) = mapped_segment(&mut p, 1);
        assert_eq!(seg.slot_gva(0, 0), seg.slot_gva(0, SLOTS_PER_LANE));
        assert_ne!(seg.slot_gva(0, 0), seg.slot_gva(0, 1));
        // Wrapping never leaves the mapped page.
        for seq in 0..3 * SLOTS_PER_LANE {
            seg.read_request_verified(&mut p, 0, seq, false).unwrap();
        }
    }

    #[test]
    fn lanes_spread_callers() {
        let pt = PageTable::new(0x1000);
        let seg = ChannelSegment::new(pt, Gva(0x9000_0000), 8);
        let mut seen = std::collections::HashSet::new();
        for raw in 1..64u64 {
            let lane = seg.lane_of(Wid::from_raw(raw));
            assert!(lane < 8);
            seen.insert(lane);
        }
        assert!(seen.len() > 4, "mixer should use most lanes, got {seen:?}");
    }

    #[test]
    fn verified_reads_cost_the_same_as_plain_reads() {
        let mut p = Platform::new_default();
        let (seg, _) = mapped_segment(&mut p, 1);
        let plain = seg.write_response(&mut p, 0, 0).unwrap();
        let mut q = Platform::new_default();
        let (seg2, _) = mapped_segment(&mut q, 1);
        let verified = seg2.read_request_verified(&mut q, 0, 0, false).unwrap();
        // Verification rides in the slot's own cache line: zero extra
        // cycles, identical pricing (the empty-plan parity depends on it).
        assert_eq!(verified.cycles, plain);
        assert!(verified.intact());
    }

    #[test]
    fn corrupted_slots_are_detected_not_serviced() {
        let mut p = Platform::new_default();
        let (seg, _) = mapped_segment(&mut p, 2);
        let bad = seg.read_request_verified(&mut p, 1, 3, true).unwrap();
        assert!(!bad.intact());
        assert_ne!(bad.checksum, bad.expected_checksum);
        assert_ne!(bad.seqno, bad.expected_seqno);
        // The tag binds lane and sequence: different slots, different tags.
        assert_ne!(seg.slot_checksum(0, 0), seg.slot_checksum(1, 0));
        assert_ne!(seg.slot_checksum(0, 0), seg.slot_checksum(0, 1));
    }

    #[test]
    fn transition_pair_cycles_matches_the_cost_model() {
        let p = Platform::new_default();
        // 30 save + 30 restore + 200 call + 200 return with the default
        // Haswell-derived model.
        assert_eq!(transition_pair_cycles(&p), 460);
    }

    #[test]
    fn drain_stats_absorb_and_amortize() {
        let mut a = DrainStats {
            coalesced_calls: 12,
            transition_pairs: 2,
            ..DrainStats::default()
        };
        let b = DrainStats {
            coalesced_calls: 4,
            transition_pairs: 2,
            slot_cycles: 9,
            ..DrainStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.coalesced_calls, 16);
        assert_eq!(a.transition_pairs, 4);
        assert_eq!(a.slot_cycles, 9);
        assert!((a.transitions_per_call() - 0.5).abs() < 1e-12);
        assert!(DrainStats::default().transitions_per_call().is_nan());
    }
}
