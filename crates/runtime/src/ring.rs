//! Lock-free per-worker request rings with work stealing.
//!
//! This is the service's dispatch structure. Each worker owns a bounded
//! ring (its inbox; submissions are routed to a home ring by callee,
//! preserving destination affinity), and an idle worker *steals* from
//! its peers' rings so load imbalance cannot strand queued calls.
//!
//! Each ring is a Vyukov bounded queue: every slot carries a sequence
//! number that encodes, without locks, whether the slot is free for the
//! producer lap or holds data for the consumer lap. Producers and
//! consumers each do one CAS on the hot path; both ends are multi-access
//! safe, which stealing (extra consumers) and open submission (any tenant
//! thread producing into any ring) require.
//!
//! Backpressure is observable: `try_push` reports [`PushError::Busy`]
//! when the home ring is full, so the service can reject rather than
//! buffer without bound (the admission-control analogue of the paper's
//! anti-DoS quotas). `close` lets every ring drain and then wakes
//! blocked poppers with `None`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Why a non-blocking push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The home ring is at capacity — backpressure; retry later or shed
    /// load.
    Busy(T),
    /// The ring set is closed and accepts no further items.
    Closed(T),
}

/// One slot of a ring. `seq` is the Vyukov sequence number stored
/// relative to the slot's index: the lap's first position when free for
/// writing, that + 1 when readable. Relative numbering makes a fresh
/// slot all zero bytes.
struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded lock-free queue (Vyukov's MPMC design): fixed power-of-two
/// capacity, one CAS per push/pop, no allocation after construction.
/// The slots come from a zeroed allocation, so a large ring touches no
/// slot memory until a push reaches it.
pub struct Ring<T> {
    mask: usize,
    slots: Box<[Slot<T>]>,
    /// Producer cursor.
    tail: AtomicUsize,
    /// Consumer cursor.
    head: AtomicUsize,
}

// Safety: slots are plain storage; the sequence-number protocol ensures a
// value is written exactly once before being read exactly once, with the
// Release/Acquire pair on `seq` ordering the payload access.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// Creates a ring holding at least `capacity` items (rounded up to a
    /// power of two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Ring<T> {
        assert!(capacity > 0, "ring capacity must be positive");
        let cap = capacity.next_power_of_two();
        // SAFETY: an all-zero `Slot` is a relative sequence number of 0
        // (free for lap 0) next to an uninitialized value.
        let slots = unsafe { Box::<[Slot<T>]>::new_zeroed_slice(cap).assume_init() };
        Ring {
            mask: cap - 1,
            slots,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
        }
    }

    /// The (rounded) capacity.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Approximate occupancy (exact when quiescent).
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Relaxed);
        tail.saturating_sub(head)
    }

    /// Whether the ring is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lock-free push; hands the item back if the ring is full.
    ///
    /// # Errors
    ///
    /// `Err(item)` when full.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let lap = pos & !self.mask;
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - lap as isize;
            if diff == 0 {
                // Slot free for this lap: claim it.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        unsafe { (*slot.value.get()).write(item) };
                        slot.seq.store(lap + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if diff < 0 {
                // Slot still holds last lap's value: ring is full.
                return Err(item);
            } else {
                // Another producer claimed this position; reload.
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Lock-free pop; `None` if the ring is empty.
    pub fn try_pop(&self) -> Option<T> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let lap = pos & !self.mask;
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - (lap + 1) as isize;
            if diff == 0 {
                // Slot readable: claim it.
                match self.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let item = unsafe { (*slot.value.get()).assume_init_read() };
                        // Mark free for the producer's next lap.
                        slot.seq.store(lap + self.mask + 1, Ordering::Release);
                        return Some(item);
                    }
                    Err(current) => pos = current,
                }
            } else if diff < 0 {
                // Slot not yet written this lap: ring is empty.
                return None;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Release any undelivered items.
        while self.try_pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

/// Exponential-ish backoff for the (rare) blocking edges of the lock-free
/// paths: spin briefly, then yield the OS thread.
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 16 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// One ring per worker plus a shared close flag: the lock-free dispatcher.
///
/// Submissions are routed to a *home* ring (the service hashes the callee,
/// so calls into the same world land in the same inbox and batch
/// naturally); a worker pops its own ring first and steals from its peers
/// only when its inbox is empty.
#[derive(Debug)]
pub struct RingSet<T> {
    rings: Vec<Ring<T>>,
    closed: AtomicBool,
}

impl<T: Send> RingSet<T> {
    /// Creates `workers` rings of `capacity` items each (rounded up to a
    /// power of two).
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `capacity` is zero.
    pub fn new(workers: usize, capacity: usize) -> RingSet<T> {
        assert!(workers > 0, "need at least one ring");
        RingSet {
            rings: (0..workers).map(|_| Ring::new(capacity)).collect(),
            closed: AtomicBool::new(false),
        }
    }

    /// Total queued items across all rings (approximate).
    pub fn len(&self) -> usize {
        self.rings.iter().map(Ring::len).sum()
    }

    /// Whether every ring is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued items in `home`'s ring alone (approximate under
    /// concurrency, like [`RingSet::len`]). The switchless controller
    /// samples this as its ring-occupancy signal.
    pub fn len_of(&self, home: usize) -> usize {
        self.rings[home].len()
    }

    /// Closes the dispatcher: pending items remain poppable, new pushes
    /// fail, and blocked poppers return `None` once everything drains.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Whether [`RingSet::close`] has been called.
    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Non-blocking push to `home`'s ring.
    ///
    /// # Errors
    ///
    /// * [`PushError::Busy`] — the home ring is full (backpressure).
    /// * [`PushError::Closed`] — the dispatcher is closed.
    pub fn try_push(&self, home: usize, item: T) -> Result<(), PushError<T>> {
        if self.is_closed() {
            return Err(PushError::Closed(item));
        }
        self.rings[home].try_push(item).map_err(PushError::Busy)
    }

    /// Blocking push to `home`'s ring: spins/yields until space frees up.
    ///
    /// # Errors
    ///
    /// Hands the item back if the dispatcher is (or becomes) closed.
    pub fn push(&self, home: usize, item: T) -> Result<(), T> {
        let mut item = item;
        let mut spins = 0;
        loop {
            if self.is_closed() {
                return Err(item);
            }
            match self.rings[home].try_push(item) {
                Ok(()) => return Ok(()),
                Err(back) => item = back,
            }
            backoff(&mut spins);
        }
    }

    /// Non-blocking pop from `home`'s own ring only (no stealing) — used
    /// by workers to opportunistically extend a local batch.
    pub fn try_pop_local(&self, home: usize) -> Option<T> {
        self.rings[home].try_pop()
    }

    /// Blocking pop with work stealing: `home`'s ring first, then each
    /// peer ring in round-robin order. The boolean is `true` if the item
    /// was stolen from a peer. Returns `None` once the dispatcher is
    /// closed *and* every ring has drained.
    pub fn pop(&self, home: usize) -> Option<(T, bool)> {
        let n = self.rings.len();
        let mut spins = 0;
        loop {
            if let Some(item) = self.rings[home].try_pop() {
                return Some((item, false));
            }
            for k in 1..n {
                if let Some(item) = self.rings[(home + k) % n].try_pop() {
                    return Some((item, true));
                }
            }
            // Check *after* the sweep: a close that raced with pushes is
            // caught next iteration, after the rings were re-examined.
            if self.is_closed() && self.rings.iter().all(Ring::is_empty) {
                return None;
            }
            backoff(&mut spins);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ring_fifo_single_thread() {
        let r = Ring::new(8);
        for i in 0..5 {
            r.try_push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(r.try_pop(), Some(i));
        }
        assert_eq!(r.try_pop(), None);
    }

    #[test]
    fn ring_reports_full() {
        let r = Ring::new(2);
        r.try_push(1).unwrap();
        r.try_push(2).unwrap();
        assert_eq!(r.try_push(3), Err(3));
        assert_eq!(r.try_pop(), Some(1));
        r.try_push(3).unwrap();
        assert_eq!(r.try_pop(), Some(2));
        assert_eq!(r.try_pop(), Some(3));
    }

    #[test]
    fn ring_capacity_rounds_to_power_of_two() {
        let r = Ring::<u8>::new(5);
        assert_eq!(r.capacity(), 8);
    }

    #[test]
    fn ring_wraps_many_laps() {
        let r = Ring::new(4);
        for lap in 0..100u64 {
            for i in 0..4 {
                r.try_push(lap * 4 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(r.try_pop(), Some(lap * 4 + i));
            }
        }
    }

    #[test]
    fn ring_drop_releases_pending_items() {
        let payload = Arc::new(());
        let r = Ring::new(4);
        r.try_push(Arc::clone(&payload)).unwrap();
        r.try_push(Arc::clone(&payload)).unwrap();
        drop(r);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn ring_concurrent_producers_consumers_move_everything() {
        let r = Arc::new(Ring::new(8));
        let done = Arc::new(AtomicBool::new(false));
        let mut producers = Vec::new();
        for t in 0..4u64 {
            let r = Arc::clone(&r);
            producers.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let mut v = t * 1000 + i;
                    loop {
                        match r.try_push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let r = Arc::clone(&r);
            let done = Arc::clone(&done);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match r.try_pop() {
                        Some(v) => got.push(v),
                        None if done.load(Ordering::SeqCst) && r.is_empty() => break,
                        None => std::thread::yield_now(),
                    }
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        done.store(true, Ordering::SeqCst);
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), 2000);
        all.dedup();
        assert_eq!(all.len(), 2000, "every item delivered exactly once");
    }

    #[test]
    fn ringset_busy_backpressure_on_home_ring() {
        let rs: RingSet<u8> = RingSet::new(2, 2);
        rs.try_push(0, 1).unwrap();
        rs.try_push(0, 2).unwrap();
        assert!(matches!(rs.try_push(0, 3), Err(PushError::Busy(3))));
        // The other ring is independent.
        rs.try_push(1, 9).unwrap();
    }

    #[test]
    fn ringset_close_rejects_pushes_but_drains() {
        let rs: RingSet<char> = RingSet::new(1, 4);
        rs.try_push(0, 'a').unwrap();
        rs.close();
        assert!(matches!(rs.try_push(0, 'b'), Err(PushError::Closed('b'))));
        assert_eq!(rs.push(0, 'c'), Err('c'));
        assert_eq!(rs.pop(0), Some(('a', false)));
        assert_eq!(rs.pop(0), None);
    }

    #[test]
    fn ringset_steals_from_peer() {
        let rs: RingSet<u8> = RingSet::new(2, 4);
        rs.try_push(1, 42).unwrap();
        // Worker 0's own ring is empty; it steals from ring 1.
        assert_eq!(rs.pop(0), Some((42, true)));
    }

    #[test]
    fn ringset_prefers_own_ring() {
        let rs: RingSet<u8> = RingSet::new(2, 4);
        rs.try_push(0, 7).unwrap();
        rs.try_push(1, 8).unwrap();
        assert_eq!(rs.pop(0), Some((7, false)));
        assert_eq!(rs.pop(0), Some((8, true)));
    }

    #[test]
    fn ringset_concurrent_submit_and_steal() {
        let rs: Arc<RingSet<u64>> = Arc::new(RingSet::new(4, 1024));
        let mut producers = Vec::new();
        for t in 0..4u64 {
            let rs = Arc::clone(&rs);
            producers.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    // All producers target ring 0: stealing must spread it.
                    rs.push(0, t * 1000 + i).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for w in 0..4 {
            let rs = Arc::clone(&rs);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some((v, _)) = rs.pop(w) {
                    got.push(v);
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        rs.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), 1000);
        all.dedup();
        assert_eq!(all.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_ring_panics() {
        Ring::<u8>::new(0);
    }
}
