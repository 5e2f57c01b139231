//! A 4-level radix table over page frame numbers, the structure shared by
//! guest page tables and EPTs.
//!
//! x86-64 paging resolves a 48-bit virtual address through four levels of
//! 512-entry tables (9 bits per level, 12 bits page offset). This module
//! implements that radix shape generically over the leaf payload: guest
//! page tables store ([`crate::addr::Gpa`], [`crate::perms::Perms`]) leaves
//! and EPTs store ([`crate::addr::Hpa`], [`crate::perms::Perms`]) leaves.
//! Intermediate nodes are allocated from an internal arena, so a `Radix`
//! behaves like real hardware tables: hierarchical, and walkable level by
//! level (the walk depth is observable for cost accounting).
//!
//! Nodes are sparse on the host: each keeps only its occupied slots, as a
//! list sorted by slot index, so an absent index is an empty slot. A world
//! that maps a couple of pages pays for a few short lists rather than four
//! 512-slot arrays. The modelled table is unchanged: the same indices
//! resolve at the same levels, so walk depths and the cycles charged for
//! them are exactly those of a dense table.

/// Bits resolved per level.
const LEVEL_BITS: u32 = 9;
/// Entries per table node.
const FANOUT: usize = 1 << LEVEL_BITS;
/// Number of levels.
pub const LEVELS: usize = 4;
/// Maximum frame-number width covered by the table (36 bits = 48-bit
/// addresses with 4 KiB pages).
pub const FRAME_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// Index of a node in the arena.
type NodeId = u32;

#[derive(Debug, Clone)]
enum Slot<T> {
    Table(NodeId),
    Leaf(T),
}

/// One table node: its occupied slots, sorted by index (`< FANOUT`).
#[derive(Debug, Clone)]
struct Node<T> {
    slots: Vec<(u16, Slot<T>)>,
}

impl<T> Node<T> {
    fn new() -> Node<T> {
        Node { slots: Vec::new() }
    }

    fn position(&self, i: usize) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&(i as u16), |&(k, _)| k)
    }

    fn get(&self, i: usize) -> Option<&Slot<T>> {
        self.position(i).ok().map(|p| &self.slots[p].1)
    }

    fn get_mut(&mut self, i: usize) -> Option<&mut Slot<T>> {
        self.position(i).ok().map(|p| &mut self.slots[p].1)
    }

    /// Puts `slot` at index `i`, returning the slot it replaced.
    fn put(&mut self, i: usize, slot: Slot<T>) -> Option<Slot<T>> {
        match self.position(i) {
            Ok(p) => Some(std::mem::replace(&mut self.slots[p].1, slot)),
            Err(p) => {
                self.slots.insert(p, (i as u16, slot));
                None
            }
        }
    }

    fn take(&mut self, i: usize) -> Option<Slot<T>> {
        self.position(i).ok().map(|p| self.slots.remove(p).1)
    }
}

/// Statistics about walks performed, used for cost accounting: a real
/// page walk costs one memory access per level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Number of lookups performed.
    pub walks: u64,
    /// Total levels touched across all walks.
    pub levels_touched: u64,
}

/// A sparse 4-level radix map from page frame numbers to `T`.
///
/// # Example
///
/// ```
/// use xover_mmu::radix::Radix;
///
/// let mut r: Radix<&'static str> = Radix::new();
/// r.insert(0x1_2345, "hello").unwrap();
/// assert_eq!(r.lookup(0x1_2345), Some(&"hello"));
/// assert_eq!(r.lookup(0x1_2346), None);
/// ```
#[derive(Debug, Clone)]
pub struct Radix<T> {
    arena: Vec<Node<T>>,
    root: NodeId,
    len: u64,
    free: Vec<NodeId>,
}

impl<T> Radix<T> {
    /// Creates an empty table.
    pub fn new() -> Radix<T> {
        Radix {
            arena: vec![Node::new()],
            root: 0,
            len: 0,
            free: Vec::new(),
        }
    }

    /// Number of leaf entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the table has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn indices(frame: u64) -> [usize; LEVELS] {
        let mut idx = [0usize; LEVELS];
        for (level, slot) in idx.iter_mut().enumerate() {
            let shift = LEVEL_BITS * (LEVELS - 1 - level) as u32;
            *slot = ((frame >> shift) & (FANOUT as u64 - 1)) as usize;
        }
        idx
    }

    fn check_frame(frame: u64) -> Result<(), FrameOutOfRange> {
        if frame >> FRAME_BITS != 0 {
            Err(FrameOutOfRange { frame })
        } else {
            Ok(())
        }
    }

    /// Takes a node from the free list (freed nodes are empty) or grows
    /// the arena.
    fn alloc_node(&mut self) -> NodeId {
        if let Some(id) = self.free.pop() {
            id
        } else {
            self.arena.push(Node::new());
            (self.arena.len() - 1) as NodeId
        }
    }

    /// Walks from the root along `frame`'s indices `idx` to the node at
    /// `leaf_level`, allocating missing intermediate nodes.
    ///
    /// # Errors
    ///
    /// [`HugeError::Overlap`] if a leaf above `leaf_level` covers `frame`.
    fn descend_or_create(
        &mut self,
        frame: u64,
        idx: &[usize; LEVELS],
        leaf_level: usize,
    ) -> Result<NodeId, HugeError> {
        let mut node = self.root;
        for &i in idx.iter().take(leaf_level) {
            node = match self.arena[node as usize].get(i) {
                Some(Slot::Table(child)) => *child,
                Some(Slot::Leaf(_)) => return Err(HugeError::Overlap { frame }),
                None => {
                    let child = self.alloc_node();
                    self.arena[node as usize].put(i, Slot::Table(child));
                    child
                }
            };
        }
        Ok(node)
    }

    /// Inserts a 4 KiB leaf for `frame`, replacing and returning any
    /// previous same-size leaf.
    ///
    /// # Errors
    ///
    /// * [`HugeError::OutOfRange`] if `frame` does not fit in 36 bits.
    /// * [`HugeError::Overlap`] if the region is covered by a huge leaf.
    pub fn insert(&mut self, frame: u64, value: T) -> Result<Option<T>, HugeError> {
        if Self::check_frame(frame).is_err() {
            return Err(HugeError::OutOfRange { frame });
        }
        let idx = Self::indices(frame);
        let node = self.descend_or_create(frame, &idx, LEVELS - 1)?;
        match self.arena[node as usize].put(idx[LEVELS - 1], Slot::Leaf(value)) {
            Some(Slot::Leaf(old)) => Ok(Some(old)),
            None => {
                self.len += 1;
                Ok(None)
            }
            Some(Slot::Table(_)) => unreachable!("tables never sit at the last level"),
        }
    }

    /// Removes a huge leaf installed with [`Radix::insert_huge`], freeing
    /// any intermediate nodes that become empty.
    pub fn remove_huge(&mut self, frame: u64, huge_levels: u32) -> Option<T> {
        let leaf_level = LEVELS.checked_sub(1 + huge_levels as usize)?;
        self.remove_at(frame, leaf_level)
    }

    /// Looks up the leaf for `frame`.
    pub fn lookup(&self, frame: u64) -> Option<&T> {
        self.walk(frame).map(|(v, _)| v)
    }

    /// Looks up the leaf for `frame`, also reporting how many levels the
    /// walk touched (for cost accounting; a miss still touches the levels
    /// down to the first empty slot). Finds both 4 KiB leaves (level 4)
    /// and huge leaves installed higher up.
    pub fn walk(&self, frame: u64) -> Option<(&T, u32)> {
        self.walk_with_coverage(frame).map(|(v, l, _)| (v, l))
    }

    /// Like [`Radix::walk`], additionally reporting how many low frame
    /// bits the found leaf covers (0 for a 4 KiB leaf, 9 for a 2 MiB huge
    /// leaf, ...).
    pub fn walk_with_coverage(&self, frame: u64) -> Option<(&T, u32, u32)> {
        if Self::check_frame(frame).is_err() {
            return None;
        }
        let idx = Self::indices(frame);
        let mut node = self.root;
        for (level, &i) in idx.iter().enumerate() {
            match self.arena[node as usize].get(i)? {
                Slot::Table(child) => node = *child,
                Slot::Leaf(v) => {
                    let covered = LEVEL_BITS * (LEVELS - 1 - level) as u32;
                    return Some((v, level as u32 + 1, covered));
                }
            }
        }
        None
    }

    /// Inserts a *huge* leaf at `huge_levels` above the bottom (1 = a
    /// 2 MiB page covering 512 frames). `frame` must be aligned to the
    /// coverage.
    ///
    /// # Errors
    ///
    /// [`HugeError`] on out-of-range, misaligned, or overlapping frames.
    pub fn insert_huge(&mut self, frame: u64, huge_levels: u32, value: T) -> Result<(), HugeError> {
        if Self::check_frame(frame).is_err() {
            return Err(HugeError::OutOfRange { frame });
        }
        assert!(
            (1..LEVELS as u32).contains(&huge_levels),
            "huge_levels must be within the table height"
        );
        let covered = LEVEL_BITS * huge_levels;
        if frame & ((1 << covered) - 1) != 0 {
            return Err(HugeError::Misaligned { frame });
        }
        let leaf_level = LEVELS - 1 - huge_levels as usize;
        let idx = Self::indices(frame);
        let node = self.descend_or_create(frame, &idx, leaf_level)?;
        let n = &mut self.arena[node as usize];
        if n.get(idx[leaf_level]).is_some() {
            return Err(HugeError::Overlap { frame });
        }
        n.put(idx[leaf_level], Slot::Leaf(value));
        self.len += 1;
        Ok(())
    }

    /// Mutable lookup.
    pub fn lookup_mut(&mut self, frame: u64) -> Option<&mut T> {
        if Self::check_frame(frame).is_err() {
            return None;
        }
        let idx = Self::indices(frame);
        let mut node = self.root;
        for &i in idx.iter().take(LEVELS - 1) {
            match self.arena[node as usize].get(i)? {
                Slot::Table(child) => node = *child,
                Slot::Leaf(_) => return None,
            }
        }
        match self.arena[node as usize].get_mut(idx[LEVELS - 1])? {
            Slot::Leaf(v) => Some(v),
            Slot::Table(_) => None,
        }
    }

    /// Removes and returns the leaf for `frame`, freeing any intermediate
    /// nodes that become empty.
    pub fn remove(&mut self, frame: u64) -> Option<T> {
        self.remove_at(frame, LEVELS - 1)
    }

    /// Removes the leaf sitting at `leaf_level` on `frame`'s path, then
    /// frees the nodes it leaves empty bottom-up (never the root).
    fn remove_at(&mut self, frame: u64, leaf_level: usize) -> Option<T> {
        if Self::check_frame(frame).is_err() {
            return None;
        }
        let idx = Self::indices(frame);
        let mut path = [self.root; LEVELS];
        for level in 0..leaf_level {
            match self.arena[path[level] as usize].get(idx[level])? {
                Slot::Table(child) => path[level + 1] = *child,
                Slot::Leaf(_) => return None,
            }
        }
        let n = &mut self.arena[path[leaf_level] as usize];
        let value = match n.take(idx[leaf_level])? {
            Slot::Leaf(v) => v,
            table => {
                // Not a leaf: restore and bail.
                n.put(idx[leaf_level], table);
                return None;
            }
        };
        self.len -= 1;
        for level in (1..=leaf_level).rev() {
            let id = path[level];
            if !self.arena[id as usize].slots.is_empty() {
                break;
            }
            self.free.push(id);
            self.arena[path[level - 1] as usize].take(idx[level - 1]);
        }
        Some(value)
    }

    /// Iterates over `(base frame, &value)` pairs in ascending frame
    /// order. Huge leaves yield the base frame of their covered range.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        // (node, frame prefix, next position in its slot list, depth)
        let mut stack: Vec<(NodeId, u64, usize, usize)> = vec![(self.root, 0, 0, 0)];
        std::iter::from_fn(move || loop {
            let (node, prefix, pos, depth) = stack.pop()?;
            let Some((i, slot)) = self.arena[node as usize].slots.get(pos) else {
                continue;
            };
            stack.push((node, prefix, pos + 1, depth));
            let raw = (prefix << LEVEL_BITS) | u64::from(*i);
            match slot {
                Slot::Table(child) => stack.push((*child, raw, 0, depth + 1)),
                Slot::Leaf(v) => {
                    let shift = LEVEL_BITS * (LEVELS - 1 - depth) as u32;
                    return Some((raw << shift, v));
                }
            }
        })
    }

    /// Number of arena nodes currently allocated (diagnostic).
    pub fn node_count(&self) -> usize {
        self.arena.len() - self.free.len()
    }
}

impl<T> Default for Radix<T> {
    fn default() -> Radix<T> {
        Radix::new()
    }
}

/// Error returned when a frame number exceeds the 36-bit range the 4-level
/// table covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameOutOfRange {
    /// The offending frame number.
    pub frame: u64,
}

impl std::fmt::Display for FrameOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame number {:#x} exceeds the {FRAME_BITS}-bit range of a 4-level table",
            self.frame
        )
    }
}

impl std::error::Error for FrameOutOfRange {}

/// Errors from huge-leaf insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HugeError {
    /// Frame number out of table range.
    OutOfRange {
        /// The offending frame.
        frame: u64,
    },
    /// The frame is not aligned to the huge-leaf coverage.
    Misaligned {
        /// The offending frame.
        frame: u64,
    },
    /// The region already contains 4 KiB mappings (or another leaf).
    Overlap {
        /// The conflicting frame.
        frame: u64,
    },
}

impl std::fmt::Display for HugeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HugeError::OutOfRange { frame } => write!(f, "frame {frame:#x} out of range"),
            HugeError::Misaligned { frame } => {
                write!(f, "frame {frame:#x} not aligned to huge coverage")
            }
            HugeError::Overlap { frame } => {
                write!(f, "region at frame {frame:#x} already mapped")
            }
        }
    }
}

impl std::error::Error for HugeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_round_trip() {
        let mut r = Radix::new();
        assert_eq!(r.insert(42, "a").unwrap(), None);
        assert_eq!(r.lookup(42), Some(&"a"));
        assert_eq!(r.insert(42, "b").unwrap(), Some("a"));
        assert_eq!(r.remove(42), Some("b"));
        assert_eq!(r.lookup(42), None);
        assert!(r.is_empty());
    }

    #[test]
    fn distinct_frames_do_not_collide() {
        let mut r = Radix::new();
        // Frames that differ only in one level's index.
        let frames = [0u64, 1, 512, 512 * 512, 512 * 512 * 512, 0xF_FFFF_FFFF];
        for (i, &f) in frames.iter().enumerate() {
            r.insert(f, i).unwrap();
        }
        for (i, &f) in frames.iter().enumerate() {
            assert_eq!(r.lookup(f), Some(&i), "frame {f:#x}");
        }
        assert_eq!(r.len(), frames.len() as u64);
    }

    #[test]
    fn out_of_range_frame_rejected() {
        let mut r: Radix<u8> = Radix::new();
        assert!(r.insert(1 << FRAME_BITS, 0).is_err());
        assert_eq!(r.lookup(1 << FRAME_BITS), None);
        assert_eq!(r.remove(1 << FRAME_BITS), None);
    }

    #[test]
    fn walk_reports_four_levels_on_hit() {
        let mut r = Radix::new();
        r.insert(7, ()).unwrap();
        let (_, levels) = r.walk(7).unwrap();
        assert_eq!(levels, 4);
    }

    #[test]
    fn remove_frees_empty_nodes() {
        let mut r = Radix::new();
        let baseline = r.node_count();
        r.insert(0x1_0000_0000, 1).unwrap();
        assert!(r.node_count() > baseline);
        r.remove(0x1_0000_0000);
        assert_eq!(r.node_count(), baseline);
        // Arena slots are recycled.
        r.insert(0x2_0000_0000, 2).unwrap();
        assert_eq!(r.lookup(0x2_0000_0000), Some(&2));
    }

    #[test]
    fn iter_yields_sorted_frames() {
        let mut r = Radix::new();
        let mut frames = vec![99u64, 3, 0x8_0000, 512, 4, 0xF_FFFF_FFFF];
        for &f in &frames {
            r.insert(f, f * 2).unwrap();
        }
        frames.sort_unstable();
        let got: Vec<(u64, u64)> = r.iter().map(|(f, v)| (f, *v)).collect();
        assert_eq!(got.len(), frames.len());
        for (i, &f) in frames.iter().enumerate() {
            assert_eq!(got[i], (f, f * 2));
        }
    }

    #[test]
    fn lookup_mut_mutates() {
        let mut r = Radix::new();
        r.insert(5, 10).unwrap();
        *r.lookup_mut(5).unwrap() += 1;
        assert_eq!(r.lookup(5), Some(&11));
        assert!(r.lookup_mut(6).is_none());
    }

    #[test]
    fn dense_range_stress() {
        let mut r = Radix::new();
        for f in 0..2048u64 {
            r.insert(f, f).unwrap();
        }
        assert_eq!(r.len(), 2048);
        for f in 0..2048u64 {
            assert_eq!(r.lookup(f), Some(&f));
        }
        for f in (0..2048u64).step_by(2) {
            assert_eq!(r.remove(f), Some(f));
        }
        assert_eq!(r.len(), 1024);
        for f in 0..2048u64 {
            if f % 2 == 0 {
                assert_eq!(r.lookup(f), None);
            } else {
                assert_eq!(r.lookup(f), Some(&f));
            }
        }
    }

    #[test]
    fn huge_leaf_covers_its_range() {
        let mut r = Radix::new();
        r.insert_huge(512, 1, "huge").unwrap();
        for probe in [512u64, 700, 1023] {
            let (v, _, covered) = r.walk_with_coverage(probe).unwrap();
            assert_eq!(*v, "huge");
            assert_eq!(covered, 9);
        }
        assert!(r.walk_with_coverage(511).is_none());
        assert!(r.walk_with_coverage(1024).is_none());
    }

    #[test]
    fn huge_leaf_rejects_misalignment_and_overlap() {
        let mut r = Radix::new();
        assert_eq!(
            r.insert_huge(513, 1, 0),
            Err(HugeError::Misaligned { frame: 513 })
        );
        r.insert(600, 1).unwrap();
        assert_eq!(
            r.insert_huge(512, 1, 0),
            Err(HugeError::Overlap { frame: 512 })
        );
        // And the reverse: a 4 KiB insert under a huge leaf.
        r.insert_huge(1024, 1, 2).unwrap();
        assert_eq!(r.insert(1100, 9), Err(HugeError::Overlap { frame: 1100 }));
    }

    /// The oracle for `matches_a_btreemap_reference_model`: leaves by
    /// base frame, each with its height above 4 KiB (0, 1 or 2) and value.
    type Model = std::collections::BTreeMap<u64, (u32, u64)>;

    /// The leaf covering `frame`, as (base, height, value). Leaves never
    /// overlap, so only the nearest base at or below `frame` can cover it.
    fn covering(model: &Model, frame: u64) -> Option<(u64, u32, u64)> {
        let (&base, &(height, value)) = model.range(..=frame).next_back()?;
        (frame < base + (1 << (LEVEL_BITS * height))).then_some((base, height, value))
    }

    #[test]
    fn matches_a_btreemap_reference_model() {
        use machine::rng::SplitMix64;
        /// Frames one 1 GiB leaf covers.
        const GIB: u64 = 1 << (2 * LEVEL_BITS);
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let mut r: Radix<u64> = Radix::new();
            let mut model = Model::new();
            // Frames crowd into three 1 GiB regions (a dozen 4 KiB frames in
            // three 2 MiB slots each) so that leaves of every size collide;
            // one draw in 32 is out of range.
            let draw = |rng: &mut SplitMix64| {
                if rng.below(32) == 0 {
                    return (1 << FRAME_BITS) + rng.below(4);
                }
                rng.below(3) * GIB + rng.below(3) * FANOUT as u64 + rng.below(4)
            };
            for step in 0..400u64 {
                let frame = draw(&mut rng);
                let in_range = frame >> FRAME_BITS == 0;
                match rng.below(8) {
                    0 | 1 => {
                        let want = if !in_range {
                            Err(HugeError::OutOfRange { frame })
                        } else if matches!(covering(&model, frame), Some((_, h, _)) if h > 0) {
                            Err(HugeError::Overlap { frame })
                        } else {
                            Ok(model.insert(frame, (0, step)).map(|(_, v)| v))
                        };
                        assert_eq!(r.insert(frame, step), want, "seed {seed} insert {frame:#x}");
                    }
                    2 | 3 => {
                        // Mostly 2 MiB, sometimes 1 GiB; one in four
                        // misaligned by a frame.
                        let height = if rng.below(4) == 0 { 2 } else { 1 };
                        let span = 1u64 << (LEVEL_BITS * height);
                        let base = (frame & !(span - 1)) + u64::from(rng.below(4) == 0);
                        let want = if base >> FRAME_BITS != 0 {
                            Err(HugeError::OutOfRange { frame: base })
                        } else if !base.is_multiple_of(span) {
                            Err(HugeError::Misaligned { frame: base })
                        } else if covering(&model, base).is_some()
                            || model.range(base..base + span).next().is_some()
                        {
                            Err(HugeError::Overlap { frame: base })
                        } else {
                            model.insert(base, (height, step));
                            Ok(())
                        };
                        let got = r.insert_huge(base, height, step);
                        assert_eq!(got, want, "seed {seed} insert_huge {base:#x}/{height}");
                    }
                    4 => {
                        let want = match model.get(&frame) {
                            Some(&(0, v)) => model.remove(&frame).map(|_| v),
                            _ => None,
                        };
                        assert_eq!(r.remove(frame), want, "seed {seed} remove {frame:#x}");
                    }
                    5 => {
                        let height = 1 + rng.below(2) as u32;
                        let base = frame & !((1u64 << (LEVEL_BITS * height)) - 1);
                        let want = match model.get(&base) {
                            Some(&(h, v)) if h == height && in_range => {
                                model.remove(&base);
                                Some(v)
                            }
                            _ => None,
                        };
                        let got = r.remove_huge(frame, height);
                        assert_eq!(got, want, "seed {seed} remove_huge {frame:#x}/{height}");
                    }
                    6 => {
                        let got = r.lookup_mut(frame).map(|v| {
                            *v += 1_000_000;
                            *v
                        });
                        let want = match model.get_mut(&frame) {
                            Some((0, v)) => {
                                *v += 1_000_000;
                                Some(*v)
                            }
                            _ => None,
                        };
                        assert_eq!(got, want, "seed {seed} lookup_mut {frame:#x}");
                    }
                    _ => {
                        // A 4 KiB leaf is found at level 4, a 2 MiB leaf at
                        // level 3, a 1 GiB leaf at level 2: the depth the
                        // TLB prices a walk by.
                        let want = covering(&model, frame)
                            .filter(|_| in_range)
                            .map(|(_, h, v)| (v, 4 - h, LEVEL_BITS * h));
                        let got = r.walk_with_coverage(frame).map(|(v, l, c)| (*v, l, c));
                        assert_eq!(got, want, "seed {seed} walk {frame:#x}");
                    }
                }
                assert_eq!(r.len(), model.len() as u64, "seed {seed} step {step}");
                if model.is_empty() {
                    assert_eq!(r.node_count(), 1, "seed {seed} step {step}: empty table");
                }
            }
            let got: Vec<(u64, u64)> = r.iter().map(|(f, v)| (f, *v)).collect();
            let want: Vec<(u64, u64)> = model.iter().map(|(&f, &(_, v))| (f, v)).collect();
            assert_eq!(got, want, "seed {seed}: iter order");
            // Emptying the table frees every node but the root.
            for (&base, &(height, v)) in &model {
                let got = if height == 0 {
                    r.remove(base)
                } else {
                    r.remove_huge(base, height)
                };
                assert_eq!(got, Some(v));
            }
            assert!(r.is_empty());
            assert_eq!(r.node_count(), 1, "seed {seed}: nodes left after emptying");
        }
    }

    #[test]
    fn huge_leaf_remove_and_iter_base_frames() {
        let mut r = Radix::new();
        r.insert_huge(512, 1, "huge").unwrap();
        r.insert(3, "small").unwrap();
        let frames: Vec<u64> = r.iter().map(|(f, _)| f).collect();
        assert_eq!(frames, vec![3, 512]);
        assert_eq!(r.remove_huge(512, 1), Some("huge"));
        assert_eq!(r.remove_huge(512, 1), None);
        assert_eq!(r.len(), 1);
    }
}
