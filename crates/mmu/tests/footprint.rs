//! Host-memory footprint of a world's address space.
//!
//! A world in the serving runtime is a guest page table over a two-page
//! working set. These checks count the heap bytes such tables hold, with a
//! counting global allocator, so a change that makes page-table nodes or
//! physical frames dense again fails here rather than only as a larger
//! peak RSS in a benchmark run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xover_mmu::addr::{Gpa, Gva, PAGE_SIZE};
use xover_mmu::pagetable::PageTable;
use xover_mmu::perms::Perms;
use xover_mmu::phys::PhysMemory;

/// Counts the bytes each thread holds, so the test harness's own threads
/// do not disturb a measurement.
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add_live(delta: i64) {
    // A const-initialised `Cell` has no destructor, so this never fails.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap bytes the current thread holds beyond those it held at `since`.
fn live_since(since: i64) -> i64 {
    LIVE.with(Cell::get) - since
}

const WORLDS: usize = 1024;

/// Upper bound on the host bytes one two-page world may hold: its page
/// table and its share of the frame map. Dense 512-slot nodes and eagerly
/// zeroed frames cost about 57 KiB.
const MAX_BYTES_PER_WORLD: i64 = 2048;

#[test]
fn a_two_page_world_costs_under_two_kib() {
    let start = LIVE.with(Cell::get);
    let mut mem = PhysMemory::new();
    let mut worlds = Vec::with_capacity(WORLDS);
    let mut backings = Vec::with_capacity(WORLDS);
    for w in 0..WORLDS as u64 {
        let mut pt = PageTable::new(0x1000 * (w + 1));
        let backing = mem.alloc_frames(2);
        backings.push(backing);
        for page in 0..2 {
            let gva = Gva(0x40_0000 + page * PAGE_SIZE);
            pt.map(gva, Gpa(backing.value() + page * PAGE_SIZE), Perms::rw())
                .unwrap();
        }
        worlds.push(pt);
    }
    let per_world = live_since(start) / WORLDS as i64;
    assert!(
        per_world <= MAX_BYTES_PER_WORLD,
        "{per_world} B per two-page world (bound {MAX_BYTES_PER_WORLD} B)"
    );
    assert_eq!(
        worlds.iter().map(PageTable::mapped_pages).sum::<u64>(),
        2 * WORLDS as u64
    );
    assert_eq!(mem.frame_count(), 2 * WORLDS);

    // A frame holds bytes only once written, and only that frame does.
    let first = backings[0];
    let before = LIVE.with(Cell::get);
    mem.write(first + 7, &[1]).unwrap();
    assert_eq!(live_since(before), PAGE_SIZE as i64, "one write, one frame");
    mem.write(first + 8, &[2]).unwrap();
    let mut buf = [0xff; 2];
    mem.read(first + PAGE_SIZE, &mut buf).unwrap();
    assert_eq!(buf, [0, 0], "the unwritten neighbour reads as zeros");
    assert_eq!(live_since(before), PAGE_SIZE as i64, "no further frame");
}
