use std::collections::HashMap;

use acx_geom::scan::PairedColumns;
use acx_geom::{object_size_bytes, Scalar};

/// Handle to one cluster's sequential object segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentId(pub u32);

/// One cluster's members, stored sequentially: a parallel id array plus
/// dimension-major coordinate columns, and the segment's position in the
/// (virtual) disk layout.
#[derive(Debug)]
struct Segment {
    ids: Vec<u32>,
    /// Dimension-major (SoA) columns: `cols[2d]` holds every member's
    /// lower bound in dimension `d`, `cols[2d + 1]` the upper bound. All
    /// `2·dims` columns are exactly `ids.len()` long.
    cols: Box<[Vec<Scalar>]>,
    /// Reserved capacity in objects (allocation size on the layout).
    capacity: usize,
    /// Byte offset of the segment in the virtual sequential layout.
    offset: u64,
}

impl Segment {
    fn new(dims: usize, capacity: usize) -> Self {
        Self {
            ids: Vec::with_capacity(capacity),
            cols: (0..2 * dims)
                .map(|_| Vec::with_capacity(capacity))
                .collect(),
            capacity,
            offset: 0,
        }
    }

    /// Interleaved flat coordinates of member `index`, appended to `out`.
    fn read_into(&self, index: usize, out: &mut Vec<Scalar>) {
        for col in self.cols.iter() {
            out.push(col[index]);
        }
    }
}

/// Sequential cluster storage with reserved slack (paper §6, "Storage
/// Utilization").
///
/// Each cluster's objects are stored contiguously — in memory for cache
/// locality, on disk to favour sequential transfer. Coordinates are kept
/// in *dimension-major* columns (one contiguous `lo` and `hi` column per
/// dimension) so the batch verification kernel
/// ([`acx_geom::scan::scan_columns`]) streams one column at a time at
/// memory bandwidth; see [`SegmentStore::columns`]. Because a relocation
/// is expensive, every created or relocated segment reserves
/// `reserve_fraction` extra places (the paper uses 20–30 %, guaranteeing
/// ≥ 70 % utilization right after a relocation).
///
/// The store also maintains a *virtual byte layout* (bump allocation +
/// relocation) so the disk scenario can reason about segment offsets, and
/// counts relocations so tests can assert they stay rare.
///
/// Object ids must be unique across the whole store: the store keeps an
/// id → (segment, position) map so [`SegmentStore::position_of`] answers
/// in O(1) instead of scanning a segment, and the map is maintained
/// through [`SegmentStore::push`], [`SegmentStore::swap_remove`],
/// [`SegmentStore::extract`], [`SegmentStore::remove`], [`SegmentStore::merge_into`] and segment
/// relocations (a relocation changes a segment's layout offset, never the
/// positions of its members).
#[derive(Debug)]
pub struct SegmentStore {
    dims: usize,
    object_bytes: usize,
    reserve_fraction: f64,
    segments: Vec<Option<Segment>>,
    free_slots: Vec<u32>,
    next_offset: u64,
    relocations: u64,
    live_objects: usize,
    /// object id → (segment slot, index within the segment).
    positions: HashMap<u32, (u32, u32)>,
}

impl SegmentStore {
    /// Creates a store for `dims`-dimensional objects with the paper's
    /// default 25 % reserve.
    pub fn new(dims: usize) -> Self {
        Self::with_reserve(dims, 0.25)
    }

    /// Creates a store with an explicit reserve fraction in `[0, 1]`.
    pub fn with_reserve(dims: usize, reserve_fraction: f64) -> Self {
        assert!(dims > 0, "dims must be positive");
        assert!(
            (0.0..=1.0).contains(&reserve_fraction),
            "reserve fraction must be in [0,1]"
        );
        Self {
            dims,
            object_bytes: object_size_bytes(dims),
            reserve_fraction,
            segments: Vec::new(),
            free_slots: Vec::new(),
            next_offset: 0,
            relocations: 0,
            live_objects: 0,
            positions: HashMap::new(),
        }
    }

    /// Dimensionality of stored objects.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bytes per stored object (id + `2·dims` scalars).
    pub fn object_bytes(&self) -> usize {
        self.object_bytes
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len() - self.free_slots.len()
    }

    /// Total number of stored objects across all segments.
    pub fn len(&self) -> usize {
        self.live_objects
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.live_objects == 0
    }

    /// How many times a segment had to be moved because it outgrew its
    /// reservation.
    pub fn relocations(&self) -> u64 {
        self.relocations
    }

    /// Storage utilization: live object slots over reserved slots.
    pub fn utilization(&self) -> f64 {
        let mut used = 0usize;
        let mut cap = 0usize;
        for seg in self.segments.iter().flatten() {
            used += seg.ids.len();
            cap += seg.capacity;
        }
        if cap == 0 {
            1.0
        } else {
            used as f64 / cap as f64
        }
    }

    fn reserved_capacity(&self, n: usize) -> usize {
        // n live objects plus the reserve, at least one slot.
        ((n as f64 * (1.0 + self.reserve_fraction)).ceil() as usize).max(1)
    }

    fn alloc_bytes(&mut self, capacity: usize) -> u64 {
        let offset = self.next_offset;
        self.next_offset += (capacity * self.object_bytes) as u64;
        offset
    }

    /// Creates an empty segment sized for `expected` objects.
    pub fn create(&mut self, expected: usize) -> SegmentId {
        let capacity = self.reserved_capacity(expected.max(1));
        let offset = self.alloc_bytes(capacity);
        let mut seg = Segment::new(self.dims, capacity);
        seg.offset = offset;
        if let Some(slot) = self.free_slots.pop() {
            self.segments[slot as usize] = Some(seg);
            SegmentId(slot)
        } else {
            self.segments.push(Some(seg));
            SegmentId((self.segments.len() - 1) as u32)
        }
    }

    fn segment(&self, id: SegmentId) -> &Segment {
        self.segments[id.0 as usize]
            .as_ref()
            .expect("segment was removed")
    }

    fn segment_mut(&mut self, id: SegmentId) -> &mut Segment {
        self.segments[id.0 as usize]
            .as_mut()
            .expect("segment was removed")
    }

    /// Appends one object; relocates the segment (with fresh reserve) when
    /// the reservation is exhausted.
    ///
    /// `flat` is interleaved `[lo0, hi0, lo1, hi1, …]`; the store
    /// distributes it into the dimension-major columns.
    ///
    /// `object_id` must not already be stored anywhere in the store
    /// (checked by a debug assertion): the position map keeps exactly one
    /// location per id.
    pub fn push(&mut self, id: SegmentId, object_id: u32, flat: &[Scalar]) {
        assert_eq!(flat.len(), 2 * self.dims, "coordinate arity mismatch");
        let object_bytes = self.object_bytes;
        let needs_relocation = {
            let seg = self.segment(id);
            seg.ids.len() == seg.capacity
        };
        if needs_relocation {
            let new_capacity = self.reserved_capacity(self.segment(id).ids.len() + 1);
            let new_offset = {
                let offset = self.next_offset;
                self.next_offset += (new_capacity * object_bytes) as u64;
                offset
            };
            let seg = self.segment_mut(id);
            seg.capacity = new_capacity;
            seg.offset = new_offset;
            let grow = new_capacity - seg.ids.len();
            seg.ids.reserve(grow);
            for col in seg.cols.iter_mut() {
                col.reserve(grow);
            }
            self.relocations += 1;
        }
        let seg = self.segment_mut(id);
        seg.ids.push(object_id);
        for (col, &v) in seg.cols.iter_mut().zip(flat) {
            col.push(v);
        }
        let index = (seg.ids.len() - 1) as u32;
        let previous = self.positions.insert(object_id, (id.0, index));
        debug_assert!(
            previous.is_none(),
            "object id #{object_id} pushed twice into the store"
        );
        self.live_objects += 1;
    }

    /// Removes the object at `index` by swapping in the last member.
    /// Returns the removed object id.
    pub fn swap_remove(&mut self, id: SegmentId, index: usize) -> u32 {
        let (removed, moved) = {
            let seg = self.segment_mut(id);
            let removed = seg.ids.swap_remove(index);
            for col in seg.cols.iter_mut() {
                col.swap_remove(index);
            }
            let moved = seg.ids.get(index).copied();
            (removed, moved)
        };
        if let Some(moved) = moved {
            self.positions.insert(moved, (id.0, index as u32));
        }
        self.positions.remove(&removed);
        self.live_objects -= 1;
        removed
    }

    /// Removes every member `takes` accepts and returns their ids and
    /// interleaved coordinates (as [`SegmentStore::remove`] does for a
    /// whole segment). Members are tested front to back and a removed
    /// member's place is taken by the segment's last, which is tested
    /// next: the removal order, and the survivors' positions, of one
    /// [`SegmentStore::swap_remove`] per match.
    pub fn extract(
        &mut self,
        id: SegmentId,
        mut takes: impl FnMut(&[Scalar]) -> bool,
    ) -> (Vec<u32>, Vec<Scalar>) {
        let seg = self.segments[id.0 as usize]
            .as_mut()
            .expect("segment was removed");
        let (mut ids, mut coords) = (Vec::new(), Vec::new());
        let mut flat = Vec::with_capacity(seg.cols.len());
        let mut index = 0;
        while index < seg.ids.len() {
            flat.clear();
            seg.read_into(index, &mut flat);
            if !takes(&flat) {
                index += 1;
                continue;
            }
            ids.push(seg.ids.swap_remove(index));
            for col in seg.cols.iter_mut() {
                col.swap_remove(index);
            }
            coords.extend_from_slice(&flat);
            if let Some(&moved) = seg.ids.get(index) {
                self.positions.insert(moved, (id.0, index as u32));
            }
        }
        for object_id in &ids {
            self.positions.remove(object_id);
        }
        self.live_objects -= ids.len();
        (ids, coords)
    }

    /// Object ids of a segment, in storage order.
    pub fn ids(&self, id: SegmentId) -> &[u32] {
        &self.segment(id).ids
    }

    /// Dimension-major column view of a segment, ready for the batch
    /// verification kernel ([`acx_geom::scan::scan_columns`]).
    pub fn columns(&self, id: SegmentId) -> PairedColumns<'_> {
        PairedColumns::new(&self.segment(id).cols)
    }

    /// Lower-bound column of dimension `d`, one scalar per member.
    pub fn lo_col(&self, id: SegmentId, d: usize) -> &[Scalar] {
        &self.segment(id).cols[2 * d]
    }

    /// Upper-bound column of dimension `d`, one scalar per member.
    pub fn hi_col(&self, id: SegmentId, d: usize) -> &[Scalar] {
        &self.segment(id).cols[2 * d + 1]
    }

    /// Interleaved flat coordinates (`[lo0, hi0, …]`) of the member at
    /// `index`, gathered from the columns into a fresh vector.
    pub fn object_flat(&self, id: SegmentId, index: usize) -> Vec<Scalar> {
        let mut out = Vec::with_capacity(2 * self.dims);
        self.segment(id).read_into(index, &mut out);
        out
    }

    /// Gathers the member at `index` into `out` (cleared first) as
    /// interleaved flat coordinates — the allocation-free variant of
    /// [`SegmentStore::object_flat`] for loops with a reusable buffer.
    pub fn read_object_into(&self, id: SegmentId, index: usize, out: &mut Vec<Scalar>) {
        out.clear();
        self.segment(id).read_into(index, out);
    }

    /// All coordinates of a segment as one interleaved flat vector
    /// (`2·dims` scalars per object, storage order) — the row-major
    /// serialization used by persistence and bulk moves.
    pub fn interleaved_coords(&self, id: SegmentId) -> Vec<Scalar> {
        let seg = self.segment(id);
        let n = seg.ids.len();
        let mut out = Vec::with_capacity(n * 2 * self.dims);
        for index in 0..n {
            seg.read_into(index, &mut out);
        }
        out
    }

    /// Number of objects in a segment.
    pub fn segment_len(&self, id: SegmentId) -> usize {
        self.segment(id).ids.len()
    }

    /// Segment and in-segment position currently holding `object_id`, in
    /// O(1) via the position map (no segment scan).
    pub fn position_of(&self, object_id: u32) -> Option<(SegmentId, usize)> {
        self.positions
            .get(&object_id)
            .map(|&(slot, index)| (SegmentId(slot), index as usize))
    }

    /// Whether the store holds an object with this id.
    pub fn contains_object(&self, object_id: u32) -> bool {
        self.positions.contains_key(&object_id)
    }

    /// Byte offset of the segment in the virtual layout.
    pub fn offset(&self, id: SegmentId) -> u64 {
        self.segment(id).offset
    }

    /// Bytes occupied by live objects of the segment.
    pub fn used_bytes(&self, id: SegmentId) -> u64 {
        (self.segment(id).ids.len() * self.object_bytes) as u64
    }

    /// Removes a segment entirely, returning its members as ids plus
    /// interleaved flat coordinates (storage order).
    pub fn remove(&mut self, id: SegmentId) -> (Vec<u32>, Vec<Scalar>) {
        let coords = self.interleaved_coords(id);
        let seg = self.segments[id.0 as usize]
            .take()
            .expect("segment was removed");
        self.free_slots.push(id.0);
        self.live_objects -= seg.ids.len();
        for object_id in &seg.ids {
            self.positions.remove(object_id);
        }
        (seg.ids, coords)
    }

    /// Moves every member of `src` into `dst` (used by cluster merging),
    /// removing `src`. Returns how many objects moved.
    pub fn merge_into(&mut self, src: SegmentId, dst: SegmentId) -> usize {
        let (ids, coords) = self.remove(src);
        let moved = ids.len();
        let width = 2 * self.dims;
        for (i, object_id) in ids.into_iter().enumerate() {
            self.push(dst, object_id, &coords[i * width..(i + 1) * width]);
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(lo: Scalar, hi: Scalar) -> Vec<Scalar> {
        vec![lo, hi, lo, hi]
    }

    #[test]
    fn create_push_read_roundtrip() {
        let mut s = SegmentStore::new(2);
        let seg = s.create(4);
        s.push(seg, 7, &flat(0.1, 0.2));
        s.push(seg, 9, &flat(0.3, 0.4));
        assert_eq!(s.ids(seg), &[7, 9]);
        assert_eq!(s.segment_len(seg), 2);
        assert_eq!(s.interleaved_coords(seg).len(), 2 * 4);
        assert_eq!(s.object_flat(seg, 0), flat(0.1, 0.2));
        assert_eq!(s.object_flat(seg, 1), flat(0.3, 0.4));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn columns_are_dimension_major() {
        let mut s = SegmentStore::new(2);
        let seg = s.create(4);
        s.push(seg, 1, &[0.1, 0.2, 0.3, 0.4]);
        s.push(seg, 2, &[0.5, 0.6, 0.7, 0.8]);
        assert_eq!(s.lo_col(seg, 0), &[0.1, 0.5]);
        assert_eq!(s.hi_col(seg, 0), &[0.2, 0.6]);
        assert_eq!(s.lo_col(seg, 1), &[0.3, 0.7]);
        assert_eq!(s.hi_col(seg, 1), &[0.4, 0.8]);
        let cols = s.columns(seg);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols.lo_col(1), &[0.3, 0.7]);
    }

    #[test]
    fn read_object_into_reuses_the_buffer() {
        let mut s = SegmentStore::new(2);
        let seg = s.create(2);
        s.push(seg, 1, &flat(0.1, 0.15));
        s.push(seg, 2, &flat(0.2, 0.25));
        let mut buf = Vec::new();
        s.read_object_into(seg, 1, &mut buf);
        assert_eq!(buf, flat(0.2, 0.25));
        s.read_object_into(seg, 0, &mut buf);
        assert_eq!(buf, flat(0.1, 0.15));
    }

    #[test]
    fn push_beyond_reserve_relocates() {
        let mut s = SegmentStore::with_reserve(2, 0.25);
        let seg = s.create(4); // capacity = ceil(4·1.25) = 5
        let first_offset = s.offset(seg);
        for i in 0..5 {
            s.push(seg, i, &flat(0.0, 1.0));
        }
        assert_eq!(s.relocations(), 0);
        s.push(seg, 5, &flat(0.0, 1.0)); // sixth object exceeds capacity
        assert_eq!(s.relocations(), 1);
        assert_ne!(s.offset(seg), first_offset);
        assert_eq!(s.segment_len(seg), 6);
    }

    #[test]
    fn utilization_at_least_70_percent_after_relocation() {
        let mut s = SegmentStore::with_reserve(2, 0.30);
        let seg = s.create(1);
        for i in 0..1000 {
            s.push(seg, i, &flat(0.0, 1.0));
        }
        // Right after any relocation: used/capacity = 1/1.3 ≈ 0.77 ≥ 0.7.
        assert!(s.utilization() >= 0.70, "utilization {}", s.utilization());
    }

    #[test]
    fn swap_remove_keeps_arrays_parallel() {
        let mut s = SegmentStore::new(2);
        let seg = s.create(4);
        s.push(seg, 1, &flat(0.1, 0.15));
        s.push(seg, 2, &flat(0.2, 0.25));
        s.push(seg, 3, &flat(0.3, 0.35));
        let removed = s.swap_remove(seg, 0);
        assert_eq!(removed, 1);
        assert_eq!(s.ids(seg), &[3, 2]);
        assert_eq!(s.object_flat(seg, 0), flat(0.3, 0.35)); // object 3 moved to slot 0
        assert_eq!(s.object_flat(seg, 1), flat(0.2, 0.25)); // object 2 untouched
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn swap_remove_last_element() {
        let mut s = SegmentStore::new(1);
        let seg = s.create(2);
        s.push(seg, 1, &[0.1, 0.2]);
        s.push(seg, 2, &[0.3, 0.4]);
        assert_eq!(s.swap_remove(seg, 1), 2);
        assert_eq!(s.ids(seg), &[1]);
        assert_eq!(s.interleaved_coords(seg), vec![0.1, 0.2]);
    }

    #[test]
    fn remove_segment_recycles_slot() {
        let mut s = SegmentStore::new(1);
        let a = s.create(2);
        s.push(a, 1, &[0.0, 1.0]);
        let (ids, coords) = s.remove(a);
        assert_eq!(ids, vec![1]);
        assert_eq!(coords, vec![0.0, 1.0]);
        assert_eq!(s.len(), 0);
        assert_eq!(s.segment_count(), 0);
        let b = s.create(2);
        assert_eq!(b.0, a.0, "slot should be recycled");
    }

    #[test]
    fn merge_into_moves_all_members() {
        let mut s = SegmentStore::new(1);
        let a = s.create(2);
        let b = s.create(2);
        s.push(a, 1, &[0.0, 0.1]);
        s.push(a, 2, &[0.2, 0.3]);
        s.push(b, 3, &[0.4, 0.5]);
        let moved = s.merge_into(a, b);
        assert_eq!(moved, 2);
        assert_eq!(s.segment_count(), 1);
        assert_eq!(s.segment_len(b), 3);
        let mut ids = s.ids(b).to_vec();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn offsets_are_disjoint_in_layout() {
        let mut s = SegmentStore::new(2);
        let a = s.create(10);
        let b = s.create(10);
        let bytes_a = 13 * s.object_bytes() as u64; // ceil(10·1.25)=13 slots
        assert!(s.offset(b) >= s.offset(a) + bytes_a);
    }

    #[test]
    #[should_panic(expected = "coordinate arity mismatch")]
    fn push_rejects_wrong_arity() {
        let mut s = SegmentStore::new(2);
        let seg = s.create(1);
        s.push(seg, 1, &[0.0, 1.0]); // needs 4 scalars for 2 dims
    }

    #[test]
    fn object_bytes_matches_geom_layout() {
        let s = SegmentStore::new(16);
        assert_eq!(s.object_bytes(), 132);
    }

    /// `extract` leaves exactly what one `swap_remove` per match does:
    /// removal order, survivor order and positions.
    #[test]
    fn extract_equals_a_swap_remove_per_match() {
        let fill = |s: &mut SegmentStore| {
            let seg = s.create(4);
            for i in 0..300u32 {
                let x = (i * 37 % 100) as Scalar / 100.0;
                s.push(seg, i, &[x, x, 0.0, (i % 7) as Scalar]);
            }
            seg
        };
        let takes = |flat: &[Scalar]| flat[0] < 0.4 || flat[3] == 6.0;
        let (mut one_by_one, mut batched) = (SegmentStore::new(2), SegmentStore::new(2));
        let (a, b) = (fill(&mut one_by_one), fill(&mut batched));

        let (mut ids, mut coords) = (Vec::new(), Vec::new());
        let mut index = 0;
        while index < one_by_one.segment_len(a) {
            let flat = one_by_one.object_flat(a, index);
            if takes(&flat) {
                ids.push(one_by_one.swap_remove(a, index));
                coords.extend(flat);
            } else {
                index += 1;
            }
        }
        assert_eq!(batched.extract(b, takes), (ids.clone(), coords));
        assert!(ids.len() > 100 && one_by_one.segment_len(a) > 100);
        assert_eq!(batched.ids(b), one_by_one.ids(a));
        assert_eq!(batched.interleaved_coords(b), one_by_one.interleaved_coords(a));
        assert_eq!(batched.len(), one_by_one.len());
        for i in 0..300u32 {
            assert_eq!(batched.position_of(i), one_by_one.position_of(i), "object {i}");
        }
        // Nothing matches: nothing moves.
        assert_eq!(batched.extract(b, |_| false), (Vec::new(), Vec::new()));
        assert_eq!(batched.ids(b), one_by_one.ids(a));
    }

    #[test]
    fn position_of_tracks_push_and_swap_remove() {
        let mut s = SegmentStore::new(2);
        let a = s.create(4);
        let b = s.create(4);
        s.push(a, 1, &flat(0.1, 0.15));
        s.push(a, 2, &flat(0.2, 0.25));
        s.push(a, 3, &flat(0.3, 0.35));
        s.push(b, 4, &flat(0.4, 0.45));
        assert_eq!(s.position_of(1), Some((a, 0)));
        assert_eq!(s.position_of(3), Some((a, 2)));
        assert_eq!(s.position_of(4), Some((b, 0)));
        assert_eq!(s.position_of(9), None);
        assert!(s.contains_object(2));
        // Removing the first member swaps the last one into its place.
        s.swap_remove(a, 0);
        assert_eq!(s.position_of(1), None);
        assert_eq!(s.position_of(3), Some((a, 0)));
        assert_eq!(s.position_of(2), Some((a, 1)));
    }

    #[test]
    fn position_of_survives_relocation_and_merge() {
        let mut s = SegmentStore::with_reserve(2, 0.25);
        let a = s.create(2); // capacity 3: fourth push relocates
        for i in 0..6 {
            s.push(a, i, &flat(0.0, 1.0));
        }
        assert!(s.relocations() > 0);
        for i in 0..6 {
            assert_eq!(s.position_of(i), Some((a, i as usize)));
        }
        let b = s.create(2);
        s.push(b, 10, &flat(0.5, 0.6));
        s.merge_into(a, b);
        for i in 0..6 {
            let (seg, idx) = s.position_of(i).expect("merged member is mapped");
            assert_eq!(seg, b);
            assert_eq!(s.ids(b)[idx], i);
        }
        assert_eq!(s.position_of(10), Some((b, 0)));
    }

    #[test]
    fn removing_a_segment_unmaps_its_members() {
        let mut s = SegmentStore::new(1);
        let a = s.create(2);
        s.push(a, 1, &[0.0, 1.0]);
        s.push(a, 2, &[0.2, 0.4]);
        s.remove(a);
        assert_eq!(s.position_of(1), None);
        assert_eq!(s.position_of(2), None);
        assert!(!s.contains_object(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Create(u8),
        Push(u8),
        SwapRemove(u8, u8),
        Merge(u8, u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            1 => (1u8..8).prop_map(Op::Create),
            5 => (0u8..6).prop_map(Op::Push),
            2 => (0u8..6, 0u8..16).prop_map(|(s, k)| Op::SwapRemove(s, k)),
            1 => (0u8..6, 0u8..6).prop_map(|(a, b)| Op::Merge(a, b)),
        ]
    }

    proptest! {
        /// The segment store behaves like a vector of (id, coords) lists
        /// under arbitrary create/push/remove/merge sequences, and its
        /// id array and coordinate columns never fall out of sync. Object
        /// ids are drawn from a counter: the store requires them unique.
        #[test]
        fn store_matches_model(ops in prop::collection::vec(op(), 1..80)) {
            let dims = 2;
            let mut store = SegmentStore::new(dims);
            let mut live: Vec<SegmentId> = Vec::new();
            let mut model: Vec<Vec<(u32, Vec<Scalar>)>> = Vec::new();
            let mut next_id = 0u32;
            for op in ops {
                match op {
                    Op::Create(expected) => {
                        live.push(store.create(expected as usize));
                        model.push(Vec::new());
                    }
                    Op::Push(s) => {
                        if live.is_empty() { continue; }
                        let k = s as usize % live.len();
                        let id = next_id;
                        next_id += 1;
                        let flat = vec![id as f32 / 1000.0, 1.0, 0.25, 0.75];
                        store.push(live[k], id, &flat);
                        model[k].push((id, flat));
                    }
                    Op::SwapRemove(s, idx) => {
                        if live.is_empty() { continue; }
                        let k = s as usize % live.len();
                        if model[k].is_empty() { continue; }
                        let i = idx as usize % model[k].len();
                        let removed = store.swap_remove(live[k], i);
                        let (expected, _) = model[k].swap_remove(i);
                        prop_assert_eq!(removed, expected);
                    }
                    Op::Merge(a, b) => {
                        if live.len() < 2 { continue; }
                        let ka = a as usize % live.len();
                        let mut kb = b as usize % live.len();
                        if ka == kb { kb = (kb + 1) % live.len(); }
                        let moved = store.merge_into(live[ka], live[kb]);
                        prop_assert_eq!(moved, model[ka].len());
                        let mut taken = std::mem::take(&mut model[ka]);
                        model[kb].append(&mut taken);
                        live.remove(ka);
                        model.remove(ka);
                    }
                }
                // Global consistency: the store mirrors the model, and
                // the per-object flat gather agrees with the columns.
                let total: usize = model.iter().map(|m| m.len()).sum();
                prop_assert_eq!(store.len(), total);
                prop_assert_eq!(store.segment_count(), live.len());
                for (k, seg) in live.iter().enumerate() {
                    prop_assert_eq!(store.segment_len(*seg), model[k].len());
                    let mut got: Vec<u32> = store.ids(*seg).to_vec();
                    let mut want: Vec<u32> = model[k].iter().map(|(id, _)| *id).collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(
                        store.interleaved_coords(*seg).len(),
                        model[k].len() * 2 * store.dims()
                    );
                    for (idx, id) in store.ids(*seg).iter().enumerate() {
                        let flat = store.object_flat(*seg, idx);
                        let (_, expected) = model[k]
                            .iter()
                            .find(|(mid, _)| mid == id)
                            .expect("model holds every stored id");
                        prop_assert_eq!(&flat, expected, "columns diverged for #{}", id);
                        for d in 0..store.dims() {
                            prop_assert_eq!(store.lo_col(*seg, d)[idx], flat[2 * d]);
                            prop_assert_eq!(store.hi_col(*seg, d)[idx], flat[2 * d + 1]);
                        }
                    }
                }
            }
        }

        /// The O(1) position map agrees with a linear scan of every
        /// segment after arbitrary push/swap_remove/relocation/merge
        /// sequences (tiny initial reservations force relocations).
        #[test]
        fn position_map_agrees_with_linear_scan(ops in prop::collection::vec(op(), 1..120)) {
            let mut store = SegmentStore::with_reserve(1, 0.25);
            let mut live: Vec<SegmentId> = Vec::new();
            let mut lens: Vec<usize> = Vec::new();
            let mut next_id = 0u32;
            for op in ops {
                match op {
                    Op::Create(_) => {
                        // Reserve a single slot so growth relocates early.
                        live.push(store.create(1));
                        lens.push(0);
                    }
                    Op::Push(s) => {
                        if live.is_empty() { continue; }
                        let k = s as usize % live.len();
                        store.push(live[k], next_id, &[0.25, 0.75]);
                        next_id += 1;
                        lens[k] += 1;
                    }
                    Op::SwapRemove(s, idx) => {
                        if live.is_empty() { continue; }
                        let k = s as usize % live.len();
                        if lens[k] == 0 { continue; }
                        store.swap_remove(live[k], idx as usize % lens[k]);
                        lens[k] -= 1;
                    }
                    Op::Merge(a, b) => {
                        if live.len() < 2 { continue; }
                        let ka = a as usize % live.len();
                        let mut kb = b as usize % live.len();
                        if ka == kb { kb = (kb + 1) % live.len(); }
                        store.merge_into(live[ka], live[kb]);
                        lens[kb] += lens[ka];
                        live.remove(ka);
                        lens.remove(ka);
                    }
                }
                // The map and a linear scan must name the same position
                // for every stored object, and map nothing else.
                let mut mapped = 0usize;
                for seg in &live {
                    for (idx, id) in store.ids(*seg).iter().enumerate() {
                        prop_assert_eq!(
                            store.position_of(*id),
                            Some((*seg, idx)),
                            "map disagrees with scan for object #{}",
                            id
                        );
                        mapped += 1;
                    }
                }
                prop_assert_eq!(mapped, store.len());
                prop_assert_eq!(store.position_of(next_id), None);
            }
        }

        /// The paper's §6 guarantee: a segment that has grown past its
        /// initial reservation keeps utilization ≥ 1/(1 + reserve) — the
        /// worst case is the instant right after a relocation.
        #[test]
        fn grown_segment_keeps_utilization_floor(pushes in 20usize..400) {
            let mut store = SegmentStore::with_reserve(1, 0.30);
            let seg = store.create(1);
            for i in 0..pushes {
                store.push(seg, i as u32, &[0.0, 1.0]);
            }
            prop_assert!(store.relocations() > 0, "test premise: segment must grow");
            prop_assert!(
                store.utilization() >= 0.70,
                "utilization {} after {} pushes",
                store.utilization(),
                pushes
            );
        }
    }
}
