//! Simulated host physical memory and frame allocation.
//!
//! Host frames back everything in the simulated machine: guest RAM, shared
//! parameter-passing pages, and the cross-ring code page. Frames are
//! allocated lazily and stored sparsely, so "32 GB" machines cost only what
//! they touch: a frame is backed (reads and writes to it succeed) from its
//! allocation, but holds no bytes until its first write, and reads of an
//! unwritten frame return zeros. Clones share their frames copy-on-write:
//! every simulated core sees the same host RAM, and a clone pays for a
//! private copy only when it first allocates or writes.

use std::collections::HashMap;
use std::sync::Arc;

use crate::addr::{Hpa, PAGE_SIZE};
use crate::MmuError;

/// Simulated host physical memory: a sparse set of 4 KiB frames, each
/// zero until first written, plus a bump allocator for new frames. Cloning is one reference-count
/// increment; the first mutation on either side of a shared clone copies
/// the frame set, so the other side's bytes never change.
///
/// # Example
///
/// ```
/// use xover_mmu::phys::PhysMemory;
///
/// let mut mem = PhysMemory::new();
/// let frame = mem.alloc_frame();
/// mem.write(frame, &[1, 2, 3])?;
/// let mut buf = [0u8; 3];
/// mem.read(frame, &mut buf)?;
/// assert_eq!(buf, [1, 2, 3]);
/// # Ok::<(), xover_mmu::MmuError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhysMemory {
    /// Backed frames; `None` until the frame's first write.
    frames: Arc<HashMap<u64, Option<Box<[u8]>>>>,
    next_frame: u64,
}

impl PhysMemory {
    /// Creates empty physical memory. Frame numbers start at 1 so that
    /// `Hpa(0)` stays an obviously-invalid null value.
    pub fn new() -> PhysMemory {
        PhysMemory {
            frames: Arc::default(),
            next_frame: 1,
        }
    }

    /// Backs a fresh frame and returns its base address. The frame reads
    /// as zeros and holds no host bytes until its first write.
    pub fn alloc_frame(&mut self) -> Hpa {
        let n = self.next_frame;
        self.next_frame += 1;
        Arc::make_mut(&mut self.frames).insert(n, None);
        Hpa::from_frame(n)
    }

    /// Allocates `count` consecutive frames, returning the first base.
    pub fn alloc_frames(&mut self, count: u64) -> Hpa {
        assert!(count > 0, "must allocate at least one frame");
        let first = self.alloc_frame();
        for _ in 1..count {
            self.alloc_frame();
        }
        first
    }

    /// Allocates `count` consecutive frames whose first frame number is a
    /// multiple of `align_frames` (e.g. 512 for a 2 MiB-aligned huge-page
    /// backing). Skipped frame numbers are simply never handed out.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `align_frames` is zero.
    pub fn alloc_frames_aligned(&mut self, count: u64, align_frames: u64) -> Hpa {
        assert!(count > 0, "must allocate at least one frame");
        assert!(align_frames > 0, "alignment must be positive");
        let rem = self.next_frame % align_frames;
        if rem != 0 {
            self.next_frame += align_frames - rem;
        }
        self.alloc_frames(count)
    }

    /// Whether the frame containing `hpa` is backed.
    pub fn is_backed(&self, hpa: Hpa) -> bool {
        self.frames.contains_key(&hpa.frame_number())
    }

    /// Number of allocated frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Reads `buf.len()` bytes starting at `hpa`. The access may span
    /// frame boundaries as long as every touched frame is backed.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::BadPhysAddr`] if any touched frame is unbacked.
    pub fn read(&self, hpa: Hpa, buf: &mut [u8]) -> Result<(), MmuError> {
        let mut addr = hpa;
        let mut done = 0usize;
        while done < buf.len() {
            let frame = self
                .frames
                .get(&addr.frame_number())
                .ok_or(MmuError::BadPhysAddr { hpa: addr })?;
            let off = addr.page_offset() as usize;
            let n = (buf.len() - done).min(PAGE_SIZE as usize - off);
            let dst = &mut buf[done..done + n];
            match frame {
                Some(bytes) => dst.copy_from_slice(&bytes[off..off + n]),
                None => dst.fill(0),
            }
            done += n;
            addr = addr.page_base() + PAGE_SIZE;
        }
        Ok(())
    }

    /// Writes `data` starting at `hpa`, spanning frames if needed.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::BadPhysAddr`] if any touched frame is unbacked.
    /// No bytes are written unless every touched frame is backed.
    pub fn write(&mut self, hpa: Hpa, data: &[u8]) -> Result<(), MmuError> {
        // Validate first so partial writes never happen.
        let mut addr = hpa;
        let mut remaining = data.len();
        while remaining > 0 {
            if !self.frames.contains_key(&addr.frame_number()) {
                return Err(MmuError::BadPhysAddr { hpa: addr });
            }
            let off = addr.page_offset() as usize;
            let n = remaining.min(PAGE_SIZE as usize - off);
            remaining -= n;
            addr = addr.page_base() + PAGE_SIZE;
        }
        let frames = Arc::make_mut(&mut self.frames);
        let mut addr = hpa;
        let mut done = 0usize;
        while done < data.len() {
            let frame = frames
                .get_mut(&addr.frame_number())
                .expect("validated above")
                .get_or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
            let off = addr.page_offset() as usize;
            let n = (data.len() - done).min(PAGE_SIZE as usize - off);
            frame[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
            addr = addr.page_base() + PAGE_SIZE;
        }
        Ok(())
    }

    /// Reads a little-endian u64 at `hpa`.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::BadPhysAddr`] on unbacked memory.
    pub fn read_u64(&self, hpa: Hpa) -> Result<u64, MmuError> {
        let mut buf = [0u8; 8];
        self.read(hpa, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a little-endian u64 at `hpa`.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::BadPhysAddr`] on unbacked memory.
    pub fn write_u64(&mut self, hpa: Hpa, value: u64) -> Result<(), MmuError> {
        self.write(hpa, &value.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_frames_are_distinct_and_zeroed() {
        let mut m = PhysMemory::new();
        let a = m.alloc_frame();
        let b = m.alloc_frame();
        assert_ne!(a, b);
        let mut buf = [0xffu8; 16];
        m.read(a, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(m.frame_count(), 2);
    }

    #[test]
    fn only_written_frames_hold_bytes() {
        let mut m = PhysMemory::new();
        let first = m.alloc_frames(3);
        let materialized = |m: &PhysMemory| m.frames.values().filter(|f| f.is_some()).count();
        assert_eq!(materialized(&m), 0);
        // A write spanning into the second frame's first byte materialises
        // the first two frames, and nothing else.
        m.write(first + (PAGE_SIZE - 1), &[7, 8]).unwrap();
        assert_eq!(materialized(&m), 2);
        let mut buf = [0xffu8; 4];
        m.read(first + 2 * PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(buf, [0; 4], "an unwritten frame reads as zeros");
        m.read(first + (PAGE_SIZE - 2), &mut buf).unwrap();
        assert_eq!(buf, [0, 7, 8, 0]);
        assert_eq!((m.frame_count(), materialized(&m)), (3, 2));
    }

    #[test]
    fn null_hpa_is_never_backed() {
        let mut m = PhysMemory::new();
        m.alloc_frame();
        assert!(!m.is_backed(Hpa(0)));
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = PhysMemory::new();
        let f = m.alloc_frame();
        m.write(f + 100, b"crossover").unwrap();
        let mut buf = [0u8; 9];
        m.read(f + 100, &mut buf).unwrap();
        assert_eq!(&buf, b"crossover");
    }

    #[test]
    fn cross_frame_access_spans_consecutive_frames() {
        let mut m = PhysMemory::new();
        let first = m.alloc_frames(2);
        let data: Vec<u8> = (0..=255).collect();
        // Start 100 bytes before the frame boundary.
        let start = first + (PAGE_SIZE - 100);
        m.write(start, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        m.read(start, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn unbacked_access_fails_without_partial_write() {
        let mut m = PhysMemory::new();
        let f = m.alloc_frame();
        // Frame after `f` is unbacked; this write spans into it.
        let start = f + (PAGE_SIZE - 4);
        let err = m.write(start, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap_err();
        assert!(matches!(err, MmuError::BadPhysAddr { .. }));
        // The backed prefix must not have been modified.
        let mut buf = [0u8; 4];
        m.read(start, &mut buf).unwrap();
        assert_eq!(buf, [0; 4]);
    }

    #[test]
    fn u64_round_trip() {
        let mut m = PhysMemory::new();
        let f = m.alloc_frame();
        m.write_u64(f + 8, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(f + 8).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn alloc_zero_frames_panics() {
        PhysMemory::new().alloc_frames(0);
    }

    #[test]
    fn aligned_allocation_is_aligned_and_contiguous() {
        let mut m = PhysMemory::new();
        m.alloc_frame(); // desync the allocator
        let base = m.alloc_frames_aligned(512, 512);
        assert_eq!(base.frame_number() % 512, 0);
        // All 512 frames are backed.
        for i in 0..512u64 {
            assert!(m.is_backed(base + i * PAGE_SIZE));
        }
    }

    #[test]
    fn clones_share_frames_until_either_side_mutates() {
        let mut a = PhysMemory::new();
        let f = a.alloc_frame();
        a.write(f, b"shared").unwrap();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.frames, &b.frames), "a clone copies no frame");

        // A write on the clone is private to it.
        b.write(f, b"clone!").unwrap();
        let mut buf = [0u8; 6];
        a.read(f, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
        b.read(f, &mut buf).unwrap();
        assert_eq!(&buf, b"clone!");

        // So is an allocation on the original.
        let c = a.clone();
        let g = a.alloc_frame();
        assert_eq!(
            (a.frame_count(), b.frame_count(), c.frame_count()),
            (2, 1, 1)
        );
        assert!(!b.is_backed(g) && !c.is_backed(g));
        a.write(g, b"orig").unwrap();
        c.read(f, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
    }
}
