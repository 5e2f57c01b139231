//! Epoch-protected lock-free world table with cold-world eviction.
//!
//! The runtime's one world table. A table that took a lock on every
//! WT/IWT miss walk, or broadcast every `delete_world` to every worker,
//! would cap the service at toy scale. This module builds the *read
//! path* as an epoch/RCU-protected structure in the spirit of the
//! in-tree Vyukov rings: dependency-free, unsafe-but-argued, and
//! property-tested. Driven sequentially it is indistinguishable from
//! the sequential [`crossover::table::WorldTable`] (see
//! `tests/equivalence.rs`).
//!
//! # Read path
//!
//! The table is published as a two-level radix: an atomically-swapped
//! root `TableArray` holding a power-of-two array of bucket pointers,
//! each bucket an immutable sorted slice of entries. A reader pins its
//! per-worker epoch slot, loads the root, loads one bucket, binary
//! searches, and unpins — no locks, no CAS loops, no allocation:
//! wait-free in the number of resident entries. Writers (registration,
//! deletion, eviction, refault) serialize behind one mutex and publish
//! by copy-on-write: build a replacement bucket (or, on growth, a
//! doubled root), swap the pointer, and push the old structure onto a
//! limbo list tagged with the post-swap epoch.
//!
//! The context → WID index that an IWT miss consults lives outside the
//! writer mutex, behind its own read-write lock. Only registration and
//! deletion change it, and they take the writer mutex first and the
//! index second, so a context lookup shares the index with every other
//! reader and never waits on eviction, refaults or maintenance.
//!
//! # Grace periods
//!
//! Reclamation is the classic epoch argument. The global epoch `E` is
//! incremented *after* each pointer swap; a structure retired at epoch
//! `t` may be freed once every pinned reader slot holds an epoch `>= t`
//! (or is quiescent): a reader pinned at `v >= t` pinned *after* the
//! increment, hence after the swap, and can only have observed the new
//! pointer. Readers never write into the structure they read (beyond
//! relaxed access stamps), so ABA does not arise.
//!
//! # Deletion without broadcast
//!
//! `delete` does not broadcast to every worker. It unpublishes the
//! entry (so table misses are immediate) and appends the WID to a
//! *retire log*; each worker pulls the log's tail at its next batch
//! boundary and invalidates its private WT/IWT caches then. A worker's
//! caches may therefore serve a deleted world only within the batch
//! that overlapped the delete (the one-batch staleness bound), and
//! `delete` stays O(1) instead of O(workers).
//!
//! # Cold-world eviction
//!
//! Resident memory is bounded by the *hot set*, not the live-world
//! count. Every lookup stamps the entry with a global tick and feeds
//! the observed reuse distance (current tick − previous stamp) into a
//! log₂ histogram; maintenance derives the eviction window online as a
//! multiple of the p90 reuse distance, so the policy tracks the
//! workload with no hand-set knob. Entries idle longer than the window
//! are demoted — packed into the compact serialized form of
//! [`WorldEntry::pack`] inside a paged cold store — and faulted back in
//! transparently on their next lookup (a *refault*, through the writer
//! lock). Eviction is invisible to worker caches: an evicted world is
//! still live, so no invalidation is needed or sent.
//!
//! Workers offer maintenance at every batch boundary, but
//! [`EpochWorldTable::maintain_paced`] runs a pass only once the lookup
//! tick has advanced a window's share of one sweep since the previous
//! pass, so one full sweep of the buckets spans one window. A world idle
//! past the window is therefore demoted within one further window.

use std::collections::HashMap;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};

use crossover::table::WorldLookup;
use crossover::world::{Wid, WorldContext, WorldDescriptor, WorldEntry, PACKED_ENTRY_BYTES};
use crossover::WorldError;
use hypervisor::vm::VmId;

/// A quiescent (unpinned) reader slot.
const QUIESCENT: u64 = u64::MAX;

/// Buckets examined per maintenance pass: the sweep is incremental so
/// the cost of one pass stays bounded regardless of table size.
const SWEEP_BUCKETS: usize = 64;

/// Target mean bucket occupancy before the root doubles.
const MAX_AVG_BUCKET: usize = 48;

/// Reuse-distance samples required before eviction switches on.
const MIN_WINDOW_SAMPLES: u64 = 1024;

/// Floor for the derived eviction window, in lookup ticks.
const MIN_WINDOW: u64 = 4096;

/// Entries per cold-store page.
const COLD_PAGE_SLOTS: usize = 128;

/// One resident slot: the entry plus its last-access stamp. The stamp is
/// atomic so readers can update it through a shared bucket reference.
#[derive(Debug)]
struct Slot {
    entry: WorldEntry,
    last_access: AtomicU64,
}

impl Slot {
    fn new(entry: WorldEntry, tick: u64) -> Slot {
        Slot {
            entry,
            last_access: AtomicU64::new(tick),
        }
    }

    fn duplicate(&self) -> Slot {
        Slot {
            entry: self.entry,
            last_access: AtomicU64::new(self.last_access.load(Ordering::Relaxed)),
        }
    }
}

/// An immutable published bucket: entries sorted by raw WID.
#[derive(Debug, Default)]
struct Bucket {
    slots: Vec<Slot>,
}

impl Bucket {
    fn find(&self, wid: u64) -> Option<&Slot> {
        self.slots
            .binary_search_by_key(&wid, |s| s.entry.wid.raw())
            .ok()
            .map(|i| &self.slots[i])
    }
}

/// The published root: a power-of-two radix of bucket pointers. Buckets
/// hash by `wid & mask`; WIDs are monotonic, so identity-mod-power-of-two
/// spreads them uniformly.
#[derive(Debug)]
struct TableArray {
    mask: u64,
    buckets: Vec<AtomicPtr<Bucket>>,
}

impl TableArray {
    fn alloc(buckets: usize) -> *mut TableArray {
        debug_assert!(buckets.is_power_of_two());
        Box::into_raw(Box::new(TableArray {
            mask: buckets as u64 - 1,
            buckets: (0..buckets)
                .map(|_| AtomicPtr::new(Box::into_raw(Box::default())))
                .collect(),
        }))
    }

    fn bucket(&self, wid: u64) -> &AtomicPtr<Bucket> {
        &self.buckets[(wid & self.mask) as usize]
    }
}

/// A structure retired from the published tree, freeable once every
/// reader has advanced past `epoch`.
#[derive(Debug)]
enum Garbage {
    Bucket(*mut Bucket),
    Array(*mut TableArray),
}

// Garbage pointers are uniquely owned once retired: the writer that
// unlinked them is the only path to them, and readers stop holding them
// after the grace period — which is exactly what reclaim() waits for.
unsafe impl Send for Garbage {}

#[derive(Debug)]
struct LimboItem {
    epoch: u64,
    garbage: Garbage,
}

/// Paged store for demoted (cold) worlds: fixed-width packed records in
/// page-sized slabs, indexed by WID, with slot reuse.
#[derive(Debug, Default)]
struct ColdStore {
    pages: Vec<Box<[u8]>>,
    index: HashMap<u64, usize>,
    free: Vec<usize>,
}

impl ColdStore {
    fn insert(&mut self, entry: WorldEntry) {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = self.pages.len() * COLD_PAGE_SLOTS;
            self.pages
                .push(vec![0u8; COLD_PAGE_SLOTS * PACKED_ENTRY_BYTES].into_boxed_slice());
            self.free.extend((slot + 1..slot + COLD_PAGE_SLOTS).rev());
            slot
        });
        let (page, at) = (slot / COLD_PAGE_SLOTS, slot % COLD_PAGE_SLOTS);
        let bytes = entry.pack();
        self.pages[page][at * PACKED_ENTRY_BYTES..(at + 1) * PACKED_ENTRY_BYTES]
            .copy_from_slice(&bytes);
        self.index.insert(entry.wid.raw(), slot);
    }

    fn get(&self, wid: u64) -> Option<WorldEntry> {
        let slot = *self.index.get(&wid)?;
        let (page, at) = (slot / COLD_PAGE_SLOTS, slot % COLD_PAGE_SLOTS);
        let bytes: &[u8; PACKED_ENTRY_BYTES] = self.pages[page]
            [at * PACKED_ENTRY_BYTES..(at + 1) * PACKED_ENTRY_BYTES]
            .try_into()
            .expect("fixed-width record");
        Some(WorldEntry::unpack(bytes))
    }

    fn remove(&mut self, wid: u64) -> Option<WorldEntry> {
        let entry = self.get(wid)?;
        let slot = self.index.remove(&wid).expect("get() just hit");
        self.free.push(slot);
        Some(entry)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn bytes(&self) -> usize {
        self.pages.len() * COLD_PAGE_SLOTS * PACKED_ENTRY_BYTES
    }
}

/// Writer-side state, serialized behind one mutex: registration indexes
/// (ownership, per-VM quota), the cold store, the limbo list and the
/// eviction sweep cursor.
#[derive(Debug, Default)]
struct WriterState {
    owners: HashMap<u64, Option<VmId>>,
    per_vm: HashMap<VmId, usize>,
    next_wid: u64,
    cold: ColdStore,
    limbo: Vec<LimboItem>,
    sweep_cursor: usize,
}

/// What one [`EpochWorldTable::maintain`] pass did. Deltas since the
/// previous pass, so the calling worker can emit obs events without
/// double counting across workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainOutcome {
    /// Entries demoted to the cold store by this pass.
    pub evicted: u64,
    /// Retired structures freed after their grace period since the
    /// previous pass (table-wide: refaults reclaim too).
    pub reclaimed: u64,
    /// Cold-store refaults since the previous pass (table-wide).
    pub refaults: u64,
}

/// Point-in-time health counters for a runtime table, reported through
/// [`crate::service::ServiceReport`] and the metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableHealth {
    /// Live worlds (resident + cold).
    pub live: u64,
    /// Entries resident in the published lock-free tree.
    pub resident: u64,
    /// Worlds demoted to the cold store so far.
    pub evictions: u64,
    /// Cold worlds faulted back in so far.
    pub refaults: u64,
    /// Retired structures freed after their grace period so far.
    pub grace_reclaims: u64,
    /// Retired structures still waiting out their grace period.
    pub retired_pending: u64,
    /// Current eviction window in lookup ticks (0 while calibrating).
    pub eviction_window: u64,
    /// Cold-store footprint in bytes.
    pub cold_bytes: u64,
    /// Lookups served so far, pinned and unpinned.
    pub lookups: u64,
    /// Writer-lock acquisitions so far: registrations, deletions,
    /// refaults, unpinned lookups and maintenance passes. Context
    /// lookups never take it.
    pub writer_acquisitions: u64,
    /// Writer-lock acquisitions that found the lock held and blocked.
    pub writer_contended: u64,
}

/// The epoch-protected world table. Same observable semantics as the
/// sequential [`crossover::table::WorldTable`] — monotonic never-reused
/// WIDs, per-VM quotas enforced at registration, context replacement —
/// with wait-free reads, O(1) deletion and hot-set-bounded resident
/// memory.
#[derive(Debug)]
pub struct EpochWorldTable {
    root: AtomicPtr<TableArray>,
    epoch: AtomicU64,
    /// One pin slot per worker; QUIESCENT when the worker is not reading.
    pins: Vec<AtomicU64>,
    /// Global lookup tick; reuse distances are measured in these.
    tick: AtomicU64,
    live: AtomicU64,
    resident: AtomicU64,
    lookups: AtomicU64,
    evictions: AtomicU64,
    refaults: AtomicU64,
    refaults_unreported: AtomicU64,
    reclaims: AtomicU64,
    reclaims_unreported: AtomicU64,
    limbo_len: AtomicU64,
    /// Cold-store footprint, republished after each sweep that demotes
    /// (pages are never freed), so a health snapshot takes no lock.
    cold_bytes: AtomicU64,
    writer_acquisitions: AtomicU64,
    writer_contended: AtomicU64,
    /// Derived eviction window; `u64::MAX` while calibrating.
    window: AtomicU64,
    /// Lookup tick from which the next paced maintenance pass is due;
    /// `u64::MAX` while a claimed pass is running.
    next_pass: AtomicU64,
    dist_hist: Vec<AtomicU64>,
    dist_samples: AtomicU64,
    retired_len: AtomicUsize,
    retired: Mutex<Vec<Wid>>,
    writer: Mutex<WriterState>,
    /// Context → WID, changed only by holders of `writer` (locked first).
    by_context: RwLock<HashMap<WorldContext, Wid>>,
    quota: usize,
}

// The raw pointers inside are owned by the table (current tree) or by
// the limbo list (retired structures); both are reclaimed only under the
// writer mutex after a grace period, and freed in Drop.
unsafe impl Send for EpochWorldTable {}
unsafe impl Sync for EpochWorldTable {}

impl EpochWorldTable {
    /// Creates a table with `worker_slots` reader pin slots and the given
    /// per-VM quota.
    ///
    /// # Panics
    ///
    /// Panics if `worker_slots` or `quota` is zero.
    pub fn new(worker_slots: usize, quota: usize) -> EpochWorldTable {
        assert!(worker_slots > 0, "need at least one reader slot");
        assert!(quota > 0, "quota must be positive");
        let buckets = (worker_slots * 4).next_power_of_two().max(64);
        EpochWorldTable {
            root: AtomicPtr::new(TableArray::alloc(buckets)),
            epoch: AtomicU64::new(1),
            pins: (0..worker_slots)
                .map(|_| AtomicU64::new(QUIESCENT))
                .collect(),
            tick: AtomicU64::new(0),
            live: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            refaults: AtomicU64::new(0),
            refaults_unreported: AtomicU64::new(0),
            reclaims: AtomicU64::new(0),
            reclaims_unreported: AtomicU64::new(0),
            limbo_len: AtomicU64::new(0),
            cold_bytes: AtomicU64::new(0),
            writer_acquisitions: AtomicU64::new(0),
            writer_contended: AtomicU64::new(0),
            window: AtomicU64::new(u64::MAX),
            next_pass: AtomicU64::new(0),
            dist_hist: (0..65).map(|_| AtomicU64::new(0)).collect(),
            dist_samples: AtomicU64::new(0),
            retired_len: AtomicUsize::new(0),
            retired: Mutex::new(Vec::new()),
            writer: Mutex::new(WriterState {
                next_wid: 1,
                ..WriterState::default()
            }),
            by_context: RwLock::default(),
            quota,
        }
    }

    /// The per-VM quota.
    pub fn quota(&self) -> usize {
        self.quota
    }

    /// Buckets in the currently-published root array.
    pub fn bucket_count(&self) -> usize {
        unsafe { &*self.root.load(Ordering::SeqCst) }.buckets.len()
    }

    fn lock_writer(&self) -> MutexGuard<'_, WriterState> {
        self.writer_acquisitions.fetch_add(1, Ordering::Relaxed);
        match self.writer.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.writer_contended.fetch_add(1, Ordering::Relaxed);
                self.writer.lock().unwrap_or_else(|e| e.into_inner())
            }
            Err(std::sync::TryLockError::Poisoned(g)) => g.into_inner(),
        }
    }

    // ---- read path -------------------------------------------------

    /// Wait-free WID → entry lookup from worker `slot`. Pins the slot,
    /// walks the published snapshot, unpins. Falls back to the writer
    /// lock only on a resident miss (cold-store refault or a genuine
    /// miss).
    pub fn lookup_pinned(&self, slot: usize, wid: Wid) -> Option<WorldEntry> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let pin = &self.pins[slot];
        // Pin order matters: publish our epoch *before* loading the root
        // so a writer that swaps after our pin-store tags its garbage
        // with an epoch greater than ours.
        pin.store(self.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        let hit = self.resident_lookup(wid, true);
        pin.store(QUIESCENT, Ordering::Release);
        match hit {
            Some(entry) => Some(entry),
            None => self.miss_slow(wid),
        }
    }

    /// Unpinned lookup for external (non-worker) callers: takes the
    /// writer lock, which also excludes concurrent publication.
    pub fn lookup(&self, wid: Wid) -> Option<WorldEntry> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut st = self.lock_writer();
        if let Some(entry) = self.resident_lookup(wid, true) {
            return Some(entry);
        }
        self.refault_locked(&mut st, wid)
    }

    /// Walks the published tree. Caller must either hold a pin or the
    /// writer lock. `stamp` updates the access tick and the
    /// reuse-distance histogram on a hit.
    fn resident_lookup(&self, wid: Wid, stamp: bool) -> Option<WorldEntry> {
        let arr = unsafe { &*self.root.load(Ordering::SeqCst) };
        let bucket = unsafe { &*arr.bucket(wid.raw()).load(Ordering::SeqCst) };
        let slot = bucket.find(wid.raw())?;
        if stamp {
            let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
            let prev = slot.last_access.swap(now, Ordering::Relaxed);
            let dist = now.saturating_sub(prev);
            // log2 bucket index = bit length of the distance.
            let idx = (64 - dist.leading_zeros()) as usize;
            self.dist_hist[idx].fetch_add(1, Ordering::Relaxed);
            self.dist_samples.fetch_add(1, Ordering::Relaxed);
        }
        Some(slot.entry)
    }

    /// Resident-miss slow path: re-check under the writer lock (the
    /// entry may have been republished concurrently), then try the cold
    /// store.
    fn miss_slow(&self, wid: Wid) -> Option<WorldEntry> {
        let mut st = self.lock_writer();
        if let Some(entry) = self.resident_lookup(wid, true) {
            return Some(entry);
        }
        self.refault_locked(&mut st, wid)
    }

    /// Faults a cold world back into the published tree, then frees
    /// what limbo allows: refaults are the writes of the call path, and
    /// paced maintenance passes may be a window apart.
    fn refault_locked(&self, st: &mut WriterState, wid: Wid) -> Option<WorldEntry> {
        let entry = st.cold.remove(wid.raw())?;
        self.publish_insert(st, entry);
        self.reclaim(st);
        self.resident.fetch_add(1, Ordering::Relaxed);
        self.refaults.fetch_add(1, Ordering::Relaxed);
        self.refaults_unreported.fetch_add(1, Ordering::Relaxed);
        Some(entry)
    }

    // ---- write path (all under the writer mutex) -------------------

    /// Retires `garbage` at the epoch that follows a pointer swap.
    fn retire(&self, st: &mut WriterState, garbage: Garbage) {
        // fetch_add returns the pre-increment value; the tag is the
        // post-increment epoch, so "pinned >= tag" implies the reader
        // pinned after the swap that orphaned this structure.
        let tag = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        st.limbo.push(LimboItem {
            epoch: tag,
            garbage,
        });
        self.limbo_len
            .store(st.limbo.len() as u64, Ordering::Relaxed);
    }

    /// Swaps one bucket pointer and retires the old bucket.
    fn publish_bucket(&self, st: &mut WriterState, arr: &TableArray, wid: u64, bucket: Bucket) {
        let fresh = Box::into_raw(Box::new(bucket));
        let old = arr.bucket(wid).swap(fresh, Ordering::SeqCst);
        self.retire(st, Garbage::Bucket(old));
    }

    /// Copy-on-write insert of `entry`, growing the root first if the
    /// mean bucket occupancy would exceed [`MAX_AVG_BUCKET`].
    ///
    /// Growth counts *resident* entries, not live worlds. Only resident
    /// entries occupy buckets — cold worlds live in the cold store and
    /// cost a lookup nothing until they refault, and a refault re-enters
    /// through here — so the resident count is exactly what bounds the
    /// binary search a reader performs. Sizing the root by live worlds
    /// would grow it for worlds no reader touches, and the root never
    /// shrinks, so resident memory would track registrations rather than
    /// the hot set. The invariant is therefore `resident <=
    /// bucket_count() * MAX_AVG_BUCKET` after every publication; a run
    /// whose maintenance demotes never-read worlds may legitimately
    /// never grow.
    fn publish_insert(&self, st: &mut WriterState, entry: WorldEntry) {
        let resident = self.resident.load(Ordering::Relaxed) as usize;
        if resident + 1 > self.bucket_count() * MAX_AVG_BUCKET {
            self.grow(st);
        }
        let arr = unsafe { &*self.root.load(Ordering::SeqCst) };
        let old = unsafe { &*arr.bucket(entry.wid.raw()).load(Ordering::SeqCst) };
        let mut slots: Vec<Slot> = old.slots.iter().map(Slot::duplicate).collect();
        let at = slots
            .binary_search_by_key(&entry.wid.raw(), |s| s.entry.wid.raw())
            .expect_err("WIDs are never reused, so an insert never collides");
        slots.insert(at, Slot::new(entry, self.tick.load(Ordering::Relaxed)));
        self.publish_bucket(st, arr, entry.wid.raw(), Bucket { slots });
    }

    /// Copy-on-write removal. Returns false if `wid` was not resident.
    fn publish_remove(&self, st: &mut WriterState, wid: Wid) -> bool {
        let arr = unsafe { &*self.root.load(Ordering::SeqCst) };
        let old = unsafe { &*arr.bucket(wid.raw()).load(Ordering::SeqCst) };
        let Ok(at) = old
            .slots
            .binary_search_by_key(&wid.raw(), |s| s.entry.wid.raw())
        else {
            return false;
        };
        let slots: Vec<Slot> = old
            .slots
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != at)
            .map(|(_, s)| s.duplicate())
            .collect();
        self.publish_bucket(st, arr, wid.raw(), Bucket { slots });
        true
    }

    /// Doubles the root radix, rehashing every resident entry into a new
    /// array, and retires the old array and all its buckets.
    fn grow(&self, st: &mut WriterState) {
        let old_ptr = self.root.load(Ordering::SeqCst);
        let old = unsafe { &*old_ptr };
        let doubled = old.buckets.len() * 2;
        let fresh_ptr = TableArray::alloc(doubled);
        let fresh = unsafe { &*fresh_ptr };
        for bucket in &old.buckets {
            let bucket = unsafe { &*bucket.load(Ordering::SeqCst) };
            for slot in &bucket.slots {
                let target = fresh.bucket(slot.entry.wid.raw());
                let b = unsafe { &mut *target.load(Ordering::SeqCst) };
                b.slots.push(slot.duplicate());
            }
        }
        for bucket in &fresh.buckets {
            let b = unsafe { &mut *bucket.load(Ordering::SeqCst) };
            b.slots.sort_by_key(|s| s.entry.wid.raw());
        }
        let prev = self.root.swap(fresh_ptr, Ordering::SeqCst);
        debug_assert_eq!(prev, old_ptr);
        for bucket in &old.buckets {
            let b = bucket.load(Ordering::SeqCst);
            self.retire(st, Garbage::Bucket(b));
        }
        self.retire(st, Garbage::Array(prev));
    }

    /// Registers a world and mints its WID, with the sequential table's
    /// exact semantics: re-registering an identical context replaces the
    /// old entry (old WID invalidated, quota slot transferred); otherwise
    /// the owning VM's quota is checked before the WID is minted.
    ///
    /// # Errors
    ///
    /// [`WorldError::QuotaExceeded`] if the owning VM is at its quota.
    pub fn create(&self, descriptor: WorldDescriptor) -> Result<Wid, WorldError> {
        let mut st = self.lock_writer();
        // Only writer-mutex holders change the index, so this read stays
        // current until the insert below.
        let replaced = self.context_index().get(&descriptor.context).copied();
        match replaced {
            Some(old) => {
                // The replaced entry may be resident or already demoted.
                if self.publish_remove(&mut st, old) {
                    self.resident.fetch_sub(1, Ordering::Relaxed);
                } else {
                    st.cold.remove(old.raw()).expect("index and store agree");
                }
                st.owners.remove(&old.raw());
                self.live.fetch_sub(1, Ordering::Relaxed);
            }
            None => {
                if let Some(vm) = descriptor.owner {
                    let count = st.per_vm.get(&vm).copied().unwrap_or(0);
                    if count >= self.quota {
                        return Err(WorldError::QuotaExceeded { quota: self.quota });
                    }
                    *st.per_vm.entry(vm).or_insert(0) += 1;
                }
            }
        }
        // Mint only after the quota check so refused registrations never
        // consume a WID.
        let wid = Wid::from_raw(st.next_wid);
        st.next_wid += 1;
        let entry = WorldEntry {
            present: true,
            wid,
            context: descriptor.context,
            entry_point: descriptor.entry_point,
        };
        self.publish_insert(&mut st, entry);
        self.by_context
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(descriptor.context, wid);
        st.owners.insert(wid.raw(), descriptor.owner);
        self.live.fetch_add(1, Ordering::Relaxed);
        self.resident.fetch_add(1, Ordering::Relaxed);
        Ok(wid)
    }

    /// Deletes a world: unpublishes it (resident or cold) and appends
    /// the WID to the retire log for workers to pull at their next batch
    /// boundary. O(1) in the worker count — no broadcast.
    ///
    /// # Errors
    ///
    /// [`WorldError::InvalidWid`] if absent.
    pub fn delete(&self, wid: Wid) -> Result<(), WorldError> {
        let mut st = self.lock_writer();
        // Resolve the entry first — resident tree or cold store — so the
        // context index unlinks without any scan. Safe without a pin:
        // the writer lock excludes concurrent publication.
        let entry = self
            .resident_lookup(wid, false)
            .or_else(|| st.cold.get(wid.raw()))
            .ok_or(WorldError::InvalidWid { wid })?;
        if self.publish_remove(&mut st, wid) {
            self.resident.fetch_sub(1, Ordering::Relaxed);
        } else {
            st.cold.remove(wid.raw()).expect("entry resolved as cold");
        }
        // The context may have been rebound by a later replacement; only
        // unlink it if it still names this WID.
        {
            let mut index = self.by_context.write().unwrap_or_else(|e| e.into_inner());
            if index.get(&entry.context) == Some(&wid) {
                index.remove(&entry.context);
            }
        }
        if let Some(Some(vm)) = st.owners.remove(&wid.raw()) {
            if let Some(c) = st.per_vm.get_mut(&vm) {
                *c = c.saturating_sub(1);
            }
        }
        self.live.fetch_sub(1, Ordering::Relaxed);
        drop(st);
        // Publish the retirement for worker caches. Program order on the
        // deleting thread plus the ring's release/acquire hand-off means
        // any submission made after delete() returns is seen by a worker
        // only after this store — so the one-batch staleness bound holds.
        let mut log = self.retired.lock().unwrap_or_else(|e| e.into_inner());
        log.push(wid);
        self.retired_len.store(log.len(), Ordering::Release);
        Ok(())
    }

    /// Looks up a world by context: the IWT-miss path of every world
    /// call. Shares the context index's read lock and never takes the
    /// writer mutex. A lookup that starts after `delete` returns never
    /// resolves to the deleted WID.
    pub fn lookup_context(&self, context: &WorldContext) -> Option<Wid> {
        self.context_index().get(context).copied()
    }

    fn context_index(&self) -> std::sync::RwLockReadGuard<'_, HashMap<WorldContext, Wid>> {
        self.by_context.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of worlds owned by `vm`.
    pub fn world_count(&self, vm: VmId) -> usize {
        self.lock_writer().per_vm.get(&vm).copied().unwrap_or(0)
    }

    /// Live worlds (resident + cold) — a maintained atomic, not a walk.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed) as usize
    }

    /// Whether no worlds are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ---- retire log ------------------------------------------------

    /// Current length of the retire log; a fresh worker (or a respawned
    /// one, whose caches are empty) starts its cursor here.
    pub fn retired_len(&self) -> usize {
        self.retired_len.load(Ordering::Acquire)
    }

    /// Pulls retirements the caller has not seen yet, advancing its
    /// cursor. One atomic load when nothing is new.
    pub fn pull_retired(&self, cursor: &mut usize) -> Vec<Wid> {
        let len = self.retired_len.load(Ordering::Acquire);
        if *cursor >= len {
            return Vec::new();
        }
        let log = self.retired.lock().unwrap_or_else(|e| e.into_inner());
        let fresh = log[*cursor..].to_vec();
        *cursor = log.len();
        fresh
    }

    // ---- maintenance -----------------------------------------------

    /// One incremental maintenance pass: recompute the eviction window
    /// from the reuse-distance histogram, sweep a bounded number of
    /// buckets demoting idle entries, and free limbo structures whose
    /// grace period has elapsed. Non-blocking: if the writer lock is
    /// held, the pass is skipped (another thread is making progress).
    pub fn maintain(&self) -> MaintainOutcome {
        let Ok(mut st) = self.writer.try_lock() else {
            return MaintainOutcome::default();
        };
        self.writer_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.pass(&mut st)
    }

    /// A maintenance offer paced by the eviction window: runs one
    /// [`maintain`](Self::maintain)-sized pass only once the lookup tick
    /// has advanced `window × SWEEP_BUCKETS / bucket_count()` since the
    /// previous paced pass (`MIN_WINDOW`, 4,096 ticks, while
    /// calibrating), so one full sweep spans one window. Otherwise two
    /// atomic loads and no lock. A compare-exchange claims a due pass
    /// for one caller, which then waits for the writer lock rather than
    /// skip the pass, so a world idle past the window is demoted within
    /// one further window.
    pub fn maintain_paced(&self) -> MaintainOutcome {
        // Relaxed throughout: the claim publishes no data, and the pass
        // itself runs under the writer mutex.
        let due = self.next_pass.load(Ordering::Relaxed);
        let now = self.tick.load(Ordering::Relaxed);
        if now < due
            || self
                .next_pass
                .compare_exchange(due, u64::MAX, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return MaintainOutcome::default();
        }
        let mut st = self.lock_writer();
        let outcome = self.pass(&mut st);
        let window = match self.window.load(Ordering::Relaxed) {
            u64::MAX => MIN_WINDOW,
            w => w,
        };
        // The root only changes under the writer lock held here.
        let stride = window.saturating_mul(SWEEP_BUCKETS as u64) / self.bucket_count() as u64;
        self.next_pass
            .store(now.saturating_add(stride), Ordering::Relaxed);
        outcome
    }

    /// One bounded pass under the writer lock: recompute the window,
    /// sweep, reclaim.
    fn pass(&self, st: &mut WriterState) -> MaintainOutcome {
        self.recompute_window();
        let evicted = self.sweep(st);
        self.reclaim(st);
        MaintainOutcome {
            evicted,
            reclaimed: self.reclaims_unreported.swap(0, Ordering::Relaxed),
            refaults: self.refaults_unreported.swap(0, Ordering::Relaxed),
        }
    }

    /// Derives the eviction window from the log₂ reuse-distance
    /// histogram: 8× the p90 observed reuse distance, floored. Until
    /// enough samples accumulate the window stays `u64::MAX` (eviction
    /// off), so tiny runs never evict.
    fn recompute_window(&self) {
        let samples = self.dist_samples.load(Ordering::Relaxed);
        if samples < MIN_WINDOW_SAMPLES {
            return;
        }
        let target = samples - samples / 10; // p90
        let mut cum = 0u64;
        for (idx, bucket) in self.dist_hist.iter().enumerate() {
            cum += bucket.load(Ordering::Relaxed);
            if cum >= target {
                // Bucket idx covers distances < 2^idx; window = 8x that.
                let p90 = 1u64.checked_shl(idx as u32).unwrap_or(u64::MAX / 8);
                self.window
                    .store(p90.saturating_mul(8).max(MIN_WINDOW), Ordering::Relaxed);
                return;
            }
        }
    }

    /// Sweeps up to [`SWEEP_BUCKETS`] buckets, demoting entries idle
    /// longer than the window. Returns entries evicted.
    fn sweep(&self, st: &mut WriterState) -> u64 {
        let window = self.window.load(Ordering::Relaxed);
        if window == u64::MAX {
            return 0;
        }
        let now = self.tick.load(Ordering::Relaxed);
        let arr = unsafe { &*self.root.load(Ordering::SeqCst) };
        let buckets = arr.buckets.len();
        let mut evicted = 0u64;
        for _ in 0..SWEEP_BUCKETS.min(buckets) {
            let i = st.sweep_cursor % buckets;
            st.sweep_cursor = st.sweep_cursor.wrapping_add(1);
            let bucket = unsafe { &*arr.buckets[i].load(Ordering::SeqCst) };
            // Partition with a single stamp read per slot: reading twice
            // could race a concurrent reader's stamp and land an entry in
            // both the kept bucket and the cold store. The replacement is
            // built only from the first idle slot on (copying the kept
            // prefix then), so a pass that demotes nothing allocates
            // nothing.
            let mut keep: Option<Vec<Slot>> = None;
            let mut demoted = 0u64;
            for (j, slot) in bucket.slots.iter().enumerate() {
                let idle = now.saturating_sub(slot.last_access.load(Ordering::Relaxed));
                if idle > window {
                    st.cold.insert(slot.entry);
                    demoted += 1;
                    keep.get_or_insert_with(|| {
                        let mut kept = Vec::with_capacity(bucket.slots.len() - 1);
                        kept.extend(bucket.slots[..j].iter().map(Slot::duplicate));
                        kept
                    });
                } else if let Some(kept) = &mut keep {
                    kept.push(slot.duplicate());
                }
            }
            let Some(keep) = keep else {
                continue;
            };
            let fresh = Box::into_raw(Box::new(Bucket { slots: keep }));
            let old = arr.buckets[i].swap(fresh, Ordering::SeqCst);
            self.retire(st, Garbage::Bucket(old));
            evicted += demoted;
        }
        if evicted > 0 {
            self.resident.fetch_sub(evicted, Ordering::Relaxed);
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            self.cold_bytes
                .store(st.cold.bytes() as u64, Ordering::Relaxed);
        }
        evicted
    }

    /// Frees limbo structures whose grace period has elapsed: a retired
    /// structure tagged `t` is freeable once every pin slot is quiescent
    /// or holds an epoch `>= t`.
    fn reclaim(&self, st: &mut WriterState) {
        if st.limbo.is_empty() {
            return;
        }
        let safe_before = self
            .pins
            .iter()
            .map(|p| p.load(Ordering::SeqCst))
            .filter(|&v| v != QUIESCENT)
            .min()
            .unwrap_or(u64::MAX);
        let mut freed = 0u64;
        st.limbo.retain(|item| {
            if item.epoch <= safe_before {
                unsafe {
                    match item.garbage {
                        Garbage::Bucket(b) => drop(Box::from_raw(b)),
                        Garbage::Array(a) => drop(Box::from_raw(a)),
                    }
                }
                freed += 1;
                false
            } else {
                true
            }
        });
        self.limbo_len
            .store(st.limbo.len() as u64, Ordering::Relaxed);
        if freed > 0 {
            self.reclaims.fetch_add(freed, Ordering::Relaxed);
            self.reclaims_unreported.fetch_add(freed, Ordering::Relaxed);
        }
    }

    // ---- reporting -------------------------------------------------

    /// Point-in-time health snapshot. Takes no lock, so reading it
    /// never moves `writer_acquisitions`.
    pub fn health(&self) -> TableHealth {
        let window = self.window.load(Ordering::Relaxed);
        TableHealth {
            live: self.live.load(Ordering::Relaxed),
            resident: self.resident.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            refaults: self.refaults.load(Ordering::Relaxed),
            grace_reclaims: self.reclaims.load(Ordering::Relaxed),
            retired_pending: self.limbo_len.load(Ordering::Relaxed),
            eviction_window: if window == u64::MAX { 0 } else { window },
            cold_bytes: self.cold_bytes() as u64,
            lookups: self.lookups.load(Ordering::Relaxed),
            writer_acquisitions: self.writer_acquisitions.load(Ordering::Relaxed),
            writer_contended: self.writer_contended.load(Ordering::Relaxed),
        }
    }

    /// Cold-store footprint in bytes.
    pub fn cold_bytes(&self) -> usize {
        self.cold_bytes.load(Ordering::Relaxed) as usize
    }

    /// Worlds currently demoted to the cold store.
    pub fn cold_count(&self) -> usize {
        self.lock_writer().cold.len()
    }

    /// Entries resident in the published tree.
    pub fn resident_count(&self) -> usize {
        self.resident.load(Ordering::Relaxed) as usize
    }
}

impl Drop for EpochWorldTable {
    fn drop(&mut self) {
        let st = self.writer.get_mut().unwrap_or_else(|e| e.into_inner());
        for item in st.limbo.drain(..) {
            unsafe {
                match item.garbage {
                    Garbage::Bucket(b) => drop(Box::from_raw(b)),
                    Garbage::Array(a) => drop(Box::from_raw(a)),
                }
            }
        }
        let root = self.root.swap(ptr::null_mut(), Ordering::SeqCst);
        if !root.is_null() {
            unsafe {
                let arr = Box::from_raw(root);
                for bucket in &arr.buckets {
                    let b = bucket.swap(ptr::null_mut(), Ordering::SeqCst);
                    if !b.is_null() {
                        drop(Box::from_raw(b));
                    }
                }
            }
        }
    }
}

impl WorldLookup for EpochWorldTable {
    fn entry_of(&self, wid: Wid) -> Option<WorldEntry> {
        self.lookup(wid)
    }

    fn wid_of(&self, context: &WorldContext) -> Option<Wid> {
        self.lookup_context(context)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn host(cr3: u64) -> WorldDescriptor {
        WorldDescriptor::host_user(cr3, 0xE000)
    }

    #[test]
    fn wids_are_monotonic_and_lookups_resolve() {
        let t = EpochWorldTable::new(2, 16);
        let mut last = 0;
        for i in 0..200 {
            let wid = t.create(host(0x1000 * (i + 1))).unwrap();
            assert!(wid.raw() > last);
            last = wid.raw();
        }
        assert_eq!(t.len(), 200);
        for raw in 1..=200u64 {
            let e = t.lookup_pinned(0, Wid::from_raw(raw)).unwrap();
            assert_eq!(e.wid.raw(), raw);
            assert!(e.present);
        }
        assert!(t.lookup_pinned(0, Wid::from_raw(999)).is_none());
    }

    #[test]
    fn replacement_invalidates_old_wid() {
        let t = EpochWorldTable::new(1, 16);
        let old = t.create(host(0x1000)).unwrap();
        let new = t.create(host(0x1000)).unwrap();
        assert_ne!(old, new);
        assert!(t.lookup(old).is_none());
        assert!(t.lookup(new).is_some());
        assert_eq!(t.lookup_context(&host(0x1000).context), Some(new));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn context_lookups_never_take_the_writer_lock() {
        let t = EpochWorldTable::new(1, 16);
        let contexts: Vec<WorldContext> = (0..8)
            .map(|i| {
                let d = host(0x1000 * (i + 1));
                t.create(d).unwrap();
                d.context
            })
            .collect();
        let before = t.health().writer_acquisitions;
        for i in 0..1_000 {
            assert!(t.lookup_context(&contexts[i % contexts.len()]).is_some());
        }
        assert!(t.lookup_context(&host(0xF_F000).context).is_none());
        assert_eq!(t.health().writer_acquisitions, before);
    }

    #[test]
    fn reregistered_context_keeps_its_new_binding_through_old_deletes() {
        let t = EpochWorldTable::new(1, 16);
        let context = host(0x1000).context;
        let old = t.create(host(0x1000)).unwrap();
        let new = t.create(host(0x1000)).unwrap();
        assert_eq!(t.lookup_context(&context), Some(new));
        // The replaced WID is already gone, so deleting it fails and the
        // new binding survives.
        assert_eq!(t.delete(old), Err(WorldError::InvalidWid { wid: old }));
        assert_eq!(t.lookup_context(&context), Some(new));
        // Deleting the binding's own WID unlinks it.
        t.delete(new).unwrap();
        assert_eq!(t.lookup_context(&context), None);
        let again = t.create(host(0x1000)).unwrap();
        assert!(again > new);
        assert_eq!(t.lookup_context(&context), Some(again));
    }

    #[test]
    fn delete_logs_retirement_without_broadcast() {
        let t = EpochWorldTable::new(4, 16);
        let a = t.create(host(0x1000)).unwrap();
        let b = t.create(host(0x2000)).unwrap();
        assert_eq!(t.retired_len(), 0);
        t.delete(a).unwrap();
        assert!(t.lookup(a).is_none());
        assert!(t.lookup(b).is_some());
        let mut cursor = 0;
        assert_eq!(t.pull_retired(&mut cursor), vec![a]);
        assert!(t.pull_retired(&mut cursor).is_empty());
        // A second worker with its own cursor sees the same log.
        let mut other = 0;
        assert_eq!(t.pull_retired(&mut other), vec![a]);
        assert_eq!(
            t.delete(a),
            Err(WorldError::InvalidWid { wid: a }),
            "double delete errors"
        );
    }

    #[test]
    fn quota_enforced_at_registration_and_released_on_delete() {
        use hypervisor::platform::Platform;
        use hypervisor::vm::VmConfig;
        let mut p = Platform::new_default();
        let vm = p.create_vm(VmConfig::default()).unwrap();
        let t = EpochWorldTable::new(2, 2);
        let d = |cr3| WorldDescriptor::guest_user(&p, vm, cr3, 0).unwrap();
        let first = t.create(d(0x1000)).unwrap();
        t.create(d(0x2000)).unwrap();
        assert_eq!(
            t.create(d(0x3000)),
            Err(WorldError::QuotaExceeded { quota: 2 })
        );
        assert_eq!(t.world_count(vm), 2);
        // Refusal minted nothing.
        let host_wid = t.create(host(0x9000)).unwrap();
        assert_eq!(host_wid.raw(), first.raw() + 2);
        t.delete(first).unwrap();
        assert!(t.create(d(0x3000)).is_ok());
    }

    #[test]
    fn grow_keeps_every_entry_resolvable() {
        let t = EpochWorldTable::new(1, 16);
        let initial_buckets = t.bucket_count();
        let n = (initial_buckets * MAX_AVG_BUCKET * 2) as u64;
        for i in 0..n {
            t.create(host(0x1000 + i * 8)).unwrap();
        }
        assert!(t.bucket_count() > initial_buckets, "root should have grown");
        for raw in 1..=n {
            assert!(t.lookup_pinned(0, Wid::from_raw(raw)).is_some());
        }
    }

    #[test]
    fn eviction_demotes_idle_worlds_and_refaults_them() {
        let t = EpochWorldTable::new(1, 16);
        let cold_wid = t.create(host(0x9_0000)).unwrap();
        let hot: Vec<Wid> = (0..8)
            .map(|i| t.create(host(0x1000 + i * 8)).unwrap())
            .collect();
        // Drive enough lookups on the hot set to calibrate the window,
        // then push the tick far past it while the cold world idles.
        for round in 0..(MIN_WINDOW * 3) {
            let wid = hot[(round % 8) as usize];
            assert!(t.lookup_pinned(0, wid).is_some());
        }
        let mut evicted = 0;
        for _ in 0..64 {
            evicted += t.maintain().evicted;
            if evicted > 0 {
                break;
            }
        }
        assert!(evicted >= 1, "idle world should be demoted");
        let h = t.health();
        assert!(h.evictions >= 1);
        assert_eq!(h.live, 9, "eviction does not delete");
        assert!(h.resident < h.live);
        assert!(h.cold_bytes > 0);
        // Refault: the cold world resolves transparently on next lookup.
        let back = t.lookup_pinned(0, cold_wid).unwrap();
        assert_eq!(back.wid, cold_wid);
        assert_eq!(back.context.ptp, 0x9_0000);
        assert!(back.present);
        assert!(t.health().refaults >= 1);
        // And a deleted cold world releases cleanly too.
        t.delete(cold_wid).unwrap();
        assert!(t.lookup(cold_wid).is_none());
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn maintenance_without_idle_entries_retires_nothing() {
        let t = EpochWorldTable::new(1, 16);
        let hot: Vec<Wid> = (0..8)
            .map(|i| t.create(host(0x1000 + i * 8)).unwrap())
            .collect();
        for round in 0..(MIN_WINDOW * 3) {
            assert!(t.lookup_pinned(0, hot[(round % 8) as usize]).is_some());
        }
        // The first pass calibrates the window and frees the insert
        // garbage; every world was read within the window.
        assert_eq!(t.maintain().evicted, 0);
        assert!(t.health().eviction_window > 0, "the sweep must run");
        let buckets = |t: &EpochWorldTable| -> Vec<*mut Bucket> {
            // SAFETY: the root array is freed only after a grow retires
            // it, and this single-threaded test registers no world here.
            let arr = unsafe { &*t.root.load(Ordering::SeqCst) };
            arr.buckets
                .iter()
                .map(|b| b.load(Ordering::SeqCst))
                .collect()
        };
        let before = (t.epoch.load(Ordering::SeqCst), t.health(), buckets(&t));
        let m = t.maintain();
        assert_eq!((m.evicted, m.reclaimed), (0, 0));
        assert_eq!(t.epoch.load(Ordering::SeqCst), before.0, "nothing retired");
        assert_eq!(t.health().retired_pending, before.1.retired_pending);
        assert_eq!(t.health().evictions, 0);
        assert_eq!(buckets(&t), before.2, "no bucket was republished");
    }

    #[test]
    fn delete_of_cold_world_releases_quota() {
        use hypervisor::platform::Platform;
        use hypervisor::vm::VmConfig;
        let mut p = Platform::new_default();
        let vm = p.create_vm(VmConfig::default()).unwrap();
        let t = EpochWorldTable::new(1, 1);
        let d = |cr3| WorldDescriptor::guest_user(&p, vm, cr3, 0).unwrap();
        let guest = t.create(d(0x5000)).unwrap();
        let hot = t.create(host(0x1000)).unwrap();
        for _ in 0..(MIN_WINDOW * 3) {
            t.lookup_pinned(0, hot).unwrap();
        }
        let mut evicted = 0;
        for _ in 0..64 {
            evicted += t.maintain().evicted;
        }
        assert!(evicted >= 1);
        assert!(t.create(d(0x6000)).is_err(), "quota still held while cold");
        t.delete(guest).unwrap();
        assert!(t.create(d(0x6000)).is_ok(), "cold delete released quota");
    }

    #[test]
    fn pinned_reader_blocks_reclaim_until_quiescent() {
        let t = EpochWorldTable::new(2, 16);
        t.create(host(0x1000)).unwrap();
        // Pin slot 1 at the current epoch by hand (simulating a reader
        // parked mid-lookup), then force a publication.
        t.pins[1].store(t.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        t.create(host(0x2000)).unwrap(); // swaps a bucket, retires the old one
        let before = t.health().retired_pending;
        assert!(before > 0);
        let freed = t.maintain().reclaimed;
        // The pinned slot predates the retirement epoch, so at least the
        // newest garbage must survive.
        assert!(
            t.health().retired_pending > 0,
            "pinned reader must hold back the newest garbage (freed={freed})"
        );
        // Unpin: everything reclaims.
        t.pins[1].store(QUIESCENT, Ordering::SeqCst);
        t.maintain();
        assert_eq!(t.health().retired_pending, 0);
        assert!(t.health().grace_reclaims >= before);
    }

    /// Mean resident occupancy per bucket, read under the writer lock so
    /// the resident count and the published root are one consistent
    /// snapshot (every update to either happens under that lock).
    fn mean_occupancy_within_bound(t: &EpochWorldTable) -> bool {
        let _writer = t.lock_writer();
        t.resident_count() <= t.bucket_count() * MAX_AVG_BUCKET
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        let t = Arc::new(EpochWorldTable::new(4, 64));
        let seed: Vec<Wid> = (0..64)
            .map(|i| t.create(host(0x10_0000 + i * 8)).unwrap())
            .collect();
        let before = t.bucket_count();
        // A registration burst past the current root's capacity with no
        // maintenance in between: nothing can demote the new worlds, so
        // residency must cross the grow threshold whatever the readers
        // do to the reuse-distance histogram.
        let burst = (before * MAX_AVG_BUCKET) as u64 + 1;
        let churn = 1_000u64;
        let mut handles = Vec::new();
        for slot in 0..3usize {
            let t = Arc::clone(&t);
            let seed = seed.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..20_000usize {
                    let wid = seed[(round * 7 + slot) % seed.len()];
                    let e = t
                        .lookup_pinned(slot, wid)
                        .expect("a live world always resolves, resident or cold");
                    assert_eq!(e.wid, wid, "lookup must never return a foreign entry");
                }
            }));
        }
        // Writer thread: the burst (forcing a root grow), then further
        // registrations interleaved with maintenance (eviction, grace
        // reclamation), all concurrently with the readers.
        {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..burst {
                    t.create(host(0x90_0000 + i * 8)).unwrap();
                }
                for i in burst..burst + churn {
                    t.create(host(0x90_0000 + i * 8)).unwrap();
                    if i % 16 == 0 {
                        t.maintain();
                        assert!(mean_occupancy_within_bound(&t));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        t.maintain();
        let live = 64 + burst + churn;
        assert_eq!(t.len() as u64, live);
        assert!(t.bucket_count() > before, "the burst must grow the root");
        assert!(mean_occupancy_within_bound(&t));
        // Every live world resolves, whether it stayed resident or was
        // demoted by the maintenance passes.
        for raw in 1..=live {
            let wid = Wid::from_raw(raw);
            assert_eq!(t.lookup_pinned(0, wid).map(|e| e.wid), Some(wid));
        }
    }

    #[test]
    fn context_lookups_race_reregistration_and_delete() {
        const CONTEXTS: usize = 8;
        const ROUNDS: u64 = 2_000;
        let t = EpochWorldTable::new(3, 64);
        let descriptors: Vec<WorldDescriptor> = (0..CONTEXTS as u64)
            .map(|i| host(0x20_0000 + i * 0x1000))
            .collect();
        // Per context, every WID at or below this floor is dead: stored
        // after the `create` that replaced it or the `delete` that
        // removed it returned.
        let floors: Vec<AtomicU64> = (0..CONTEXTS).map(|_| AtomicU64::new(0)).collect();
        let done = AtomicU64::new(0);
        // Readers count violations instead of panicking, so a failing
        // reader cannot leave the writer waiting on `reads` forever.
        let (reads, resolved, violations) =
            (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        let mut bound: Vec<Option<Wid>> = vec![None; CONTEXTS];
        std::thread::scope(|s| {
            for slot in 0..2usize {
                let (t, descriptors, floors, done) = (&t, &descriptors, &floors, &done);
                let (reads, resolved, violations) = (&reads, &resolved, &violations);
                s.spawn(move || {
                    let mut round = slot;
                    while done.load(Ordering::Acquire) == 0 {
                        let k = round % CONTEXTS;
                        round += 1;
                        let floor = floors[k].load(Ordering::Acquire);
                        if let Some(wid) = t.lookup_context(&descriptors[k].context) {
                            resolved.fetch_add(1, Ordering::Relaxed);
                            // Never a retired WID; the entry may be gone
                            // by now, but never foreign.
                            let foreign = t
                                .lookup_pinned(slot, wid)
                                .is_some_and(|e| e.context != descriptors[k].context);
                            if wid.raw() <= floor || foreign {
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        reads.fetch_add(1, Ordering::Release);
                    }
                });
            }
            // Releases the readers however the writer leaves this scope,
            // so a writer panic fails the test instead of hanging it.
            struct Release<'a>(&'a AtomicU64);
            impl Drop for Release<'_> {
                fn drop(&mut self) {
                    self.0.store(1, Ordering::Release);
                }
            }
            let _release = Release(&done);
            for round in 0..ROUNDS {
                let k = (round as usize * 5) % CONTEXTS;
                if round % 3 == 2 {
                    if let Some(wid) = bound[k].take() {
                        t.delete(wid).unwrap();
                        floors[k].store(wid.raw(), Ordering::Release);
                    }
                } else {
                    let wid = t.create(descriptors[k]).unwrap();
                    if let Some(old) = bound[k].replace(wid) {
                        floors[k].store(old.raw(), Ordering::Release);
                    }
                }
                // Force the interleaving: readers make two lookups after
                // every write before the next one.
                let target = reads.load(Ordering::Acquire) + 2;
                while reads.load(Ordering::Acquire) < target {
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(
            violations.load(Ordering::Relaxed),
            0,
            "stale or foreign WIDs"
        );
        assert!(resolved.load(Ordering::Relaxed) > 0, "no lookup resolved");
        for (d, wid) in descriptors.iter().zip(&bound) {
            assert_eq!(t.lookup_context(&d.context), *wid);
        }
    }

    #[test]
    fn packed_entry_round_trips() {
        use machine::mode::{Operation, Ring};
        for (op, ring) in [
            (Operation::Root, Ring::Ring0),
            (Operation::Root, Ring::Ring3),
            (Operation::NonRoot, Ring::Ring0),
            (Operation::NonRoot, Ring::Ring1),
            (Operation::NonRoot, Ring::Ring2),
            (Operation::NonRoot, Ring::Ring3),
        ] {
            let entry = WorldEntry {
                present: true,
                wid: Wid::from_raw(0xDEAD_BEEF_0BAD_F00D),
                context: WorldContext {
                    operation: op,
                    ring,
                    eptp: 0x7777_0000,
                    ptp: 0x1234_5000,
                },
                entry_point: 0xFFFF_8000_0000_1000,
            };
            assert_eq!(WorldEntry::unpack(&entry.pack()), entry);
        }
    }

    #[test]
    #[should_panic(expected = "at least one reader slot")]
    fn zero_slots_panics() {
        EpochWorldTable::new(0, 4);
    }
}
