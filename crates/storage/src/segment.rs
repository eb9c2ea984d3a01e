use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};

use acx_geom::scan::PairedColumns;
use acx_geom::{object_size_bytes, Scalar};

/// The position map's hash of an object id: murmur3's 64-bit finalizer
/// over the id XORed with a key drawn once per store from `std`'s
/// [`RandomState`].
///
/// Ids are small integers, often dense or strided (`k << 12`), and the
/// map picks its bucket from the hash's low bits. A multiply alone
/// leaves those bits a linear function of the id, so for a sizable
/// share of keys a dense or strided run of ids lands in a fraction of
/// the buckets; the finalizer's xor-shifts fold every id bit into every
/// hash bit, so any run of distinct ids spreads as a random function
/// would. The key means no fixed id set collides in every process.
#[derive(Debug)]
struct IdHash {
    key: u64,
}

impl IdHash {
    fn new() -> Self {
        Self {
            key: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher(self.key)
    }
}

/// The key, XORed with the one id written.
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the position map is keyed by u32 ids only")
    }

    fn write_u32(&mut self, id: u32) {
        self.0 ^= u64::from(id);
    }

    fn finish(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }
}

/// Handle to one cluster's sequential object segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentId(pub u32);

/// One cluster's members, stored sequentially: a parallel id array plus
/// dimension-major coordinate columns.
#[derive(Debug)]
struct Segment {
    ids: Vec<u32>,
    /// Dimension-major (SoA) columns: `cols[2d]` holds every member's
    /// lower bound in dimension `d`, `cols[2d + 1]` the upper bound. All
    /// `2·dims` columns are exactly `ids.len()` long.
    cols: Box<[Vec<Scalar>]>,
    /// Members `..ordered` are in key order (see [`SegmentStore`]) but
    /// for `strays` of them; members `ordered..` are the unordered tail.
    ordered: usize,
    /// Upper bound on the members of the ordered run that a removal
    /// swapped in from elsewhere.
    strays: usize,
}

impl Segment {
    /// The locality key of every member: the lower bound in dimension 0.
    fn keys(&self) -> &[Scalar] {
        &self.cols[0]
    }

    /// The store keeps every column as long as the id array; checked
    /// wherever the lengths change, so [`SegmentStore::columns`] need not.
    fn check_columns(&self) {
        assert!(
            self.cols.iter().all(|col| col.len() == self.ids.len()),
            "segment columns fell out of step with the id array"
        );
    }

    /// Interleaved flat coordinates of member `index`, appended to `out`.
    fn read_into(&self, index: usize, out: &mut Vec<Scalar>) {
        for col in self.cols.iter() {
            out.push(col[index]);
        }
    }

    /// Extends the ordered run over members `from..`, just appended, as
    /// pushing them one at a time would: while the run reaches the end
    /// of the segment, a member whose key is no lower than the one
    /// before it joins the run.
    fn extend_run(&mut self, from: usize) {
        if self.ordered != from {
            return;
        }
        let keys = &self.cols[0];
        let mut ordered = from;
        while ordered < keys.len() && (ordered == 0 || keys[ordered - 1] <= keys[ordered]) {
            ordered += 1;
        }
        self.ordered = ordered;
    }
}

/// `index` as the position map stores it.
///
/// # Panics
///
/// Panics if `index` does not fit in a `u32`: a segment holds at most
/// `u32::MAX` members, and a wrapped index would map an object to
/// another member's place.
fn slot_index(index: usize) -> u32 {
    u32::try_from(index).expect("a segment holds at most u32::MAX members")
}

/// Sequential cluster storage (paper §6).
///
/// Each cluster's objects are stored contiguously — in memory for cache
/// locality, on disk to favour sequential transfer. Coordinates are kept
/// in *dimension-major* columns (one contiguous `lo` and `hi` column per
/// dimension) so the batch verification kernel
/// ([`acx_geom::scan::scan_columns`]) streams one column at a time at
/// memory bandwidth; see [`SegmentStore::columns`]. A segment is created
/// with room for the members its owner expects and grows as a `Vec` does.
///
/// Object ids must be unique across the whole store: every operation
/// keeps an id → (segment, position) map, so [`SegmentStore::position_of`]
/// answers in O(1) instead of scanning a segment.
///
/// It is the only id map of an index: an owner that gives each of its
/// clusters one segment finds an object's cluster through the object's
/// segment, so every insert, remove and moved member pays one map
/// update, not two. Its entry count is the store's [`SegmentStore::len`].
/// The map hashes with a keyed murmur3 finalizer instead of SipHash: ids
/// are not attacker-chosen, and the finalizer spreads dense and strided
/// ids alike over the buckets.
///
/// A cluster split and a cluster merge move members between segments
/// in bulk, column to column, with no per-member gather:
/// [`SegmentStore::split_into`] moves the members a predicate on one
/// dimension accepts into another segment, and
/// [`SegmentStore::merge_into`] appends one segment's columns to
/// another's and frees the first. Each leaves what a `push` of every
/// moved member would: the same storage order, ordered run and position
/// entries.
///
/// A segment's members are kept in *key order* — ascending lower bound
/// in dimension 0 ([`SegmentStore::key`]) — so that the kernel's
/// 64-object blocks hold members that agree on dimension 0 and most of
/// them are rejected by their first pass word. The order is **soft**: no
/// answer, statistic or decision depends on it (each is a sum over
/// members), and a member out of place costs its block a pass word or
/// two. That makes it cheap to keep. A segment is an ordered run followed
/// by an unordered tail: [`SegmentStore::push`] extends the run when the
/// new key continues it and appends to the tail otherwise,
/// [`SegmentStore::swap_remove`] keeps the run a run, a split keeps the
/// source's run a run and hands the destination its members in key
/// order, a merge appends the source as it was stored (an ordered
/// source arrives as a second ordered run, whose blocks agree as well
/// as the first's), and [`SegmentStore::order`]
/// folds tail and strays back into the run. The store never orders on
/// its own: [`SegmentStore::disorder`] says how much there is to fold,
/// and the owner says when — `acx_core` on the write path, at the
/// mutation that brings a segment's disorder to half its length, at a
/// checkpoint and at the end of a recovery; never inside a query or a
/// reorganization pass.
#[derive(Debug)]
pub struct SegmentStore {
    dims: usize,
    /// Bytes per stored object (id + `2·dims` scalars).
    object_bytes: usize,
    segments: Vec<Option<Segment>>,
    free_slots: Vec<u32>,
    /// object id → (segment slot, index within the segment).
    positions: HashMap<u32, (u32, u32), IdHash>,
    /// Scratch of [`SegmentStore::order`] and [`SegmentStore::split_into`],
    /// grown to the largest segment either has worked on: the
    /// `(key, old index)` permutation and one column.
    order_perm: Vec<(Scalar, u32)>,
    order_col: Vec<Scalar>,
    order_ids: Vec<u32>,
    /// Scratch of [`SegmentStore::split_into`]: where each member of the
    /// source goes, and the `(from, to)` moves of its survivors.
    split_to: Vec<u32>,
    split_moves: Vec<(u32, u32)>,
}

impl SegmentStore {
    /// Creates a store for `dims`-dimensional objects.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "dims must be positive");
        Self {
            dims,
            object_bytes: object_size_bytes(dims),
            segments: Vec::new(),
            free_slots: Vec::new(),
            positions: HashMap::with_hasher(IdHash::new()),
            order_perm: Vec::new(),
            order_col: Vec::new(),
            order_ids: Vec::new(),
            split_to: Vec::new(),
            split_moves: Vec::new(),
        }
    }

    /// The locality key of an object given as interleaved flat
    /// coordinates: its lower bound in dimension 0.
    pub fn key(flat: &[Scalar]) -> Scalar {
        flat[0]
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
    #[cfg(test)]
    pub fn segment_count(&self) -> usize {
        self.segments.len() - self.free_slots.len()
    }

    /// Total number of stored objects across all segments.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Creates an empty segment with room for `expected` objects.
    pub fn create(&mut self, expected: usize) -> SegmentId {
        let seg = Segment {
            ids: Vec::with_capacity(expected),
            cols: (0..2 * self.dims).map(|_| Vec::with_capacity(expected)).collect(),
            ordered: 0,
            strays: 0,
        };
        if let Some(slot) = self.free_slots.pop() {
            self.segments[slot as usize] = Some(seg);
            SegmentId(slot)
        } else {
            self.segments.push(Some(seg));
            let slot = self.segments.len() - 1;
            SegmentId(u32::try_from(slot).expect("a store holds at most u32::MAX segments"))
        }
    }

    fn segment(&self, id: SegmentId) -> &Segment {
        self.segments[id.0 as usize]
            .as_ref()
            .expect("segment was removed")
    }

    /// Appends one object.
    ///
    /// `flat` is interleaved `[lo0, hi0, lo1, hi1, …]`; the store
    /// distributes it into the dimension-major columns. A member that
    /// continues a fully ordered segment extends the run (how a segment
    /// built in key order stays ordered for free); any other joins the
    /// tail.
    ///
    /// `object_id` must not already be stored anywhere in the store
    /// (checked by a debug assertion): the position map keeps exactly one
    /// location per id.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is not `2·dims` scalars long, or if the segment
    /// already holds `u32::MAX + 1` members.
    pub fn push(&mut self, id: SegmentId, object_id: u32, flat: &[Scalar]) {
        assert_eq!(flat.len(), 2 * self.dims, "coordinate arity mismatch");
        let seg = self.segments[id.0 as usize]
            .as_mut()
            .expect("segment was removed");
        let index = seg.ids.len();
        seg.ids.push(object_id);
        for (col, &v) in seg.cols.iter_mut().zip(flat) {
            col.push(v);
        }
        seg.check_columns();
        seg.extend_run(index);
        let previous = self.positions.insert(object_id, (id.0, slot_index(index)));
        debug_assert!(
            previous.is_none(),
            "object id #{object_id} pushed twice into the store"
        );
    }

    /// Removes the object at `index` and returns its id; at most two
    /// other members move.
    ///
    /// The segment's last member takes the vacated place — except inside
    /// the ordered run when that member's key is lower than the one
    /// leaving: then the run's own last member does, and the segment's
    /// last closes the gap behind the run. Either way the run receives a
    /// stray whose key is no lower than the key that left. Point,
    /// intersection and enclosure queries bound dimension 0's lower
    /// bounds from above, so whichever of them rejected the old member
    /// in its first word rejects the new one there too, and the block
    /// dies as early as before; a member with a lower key could survive
    /// where its block would otherwise have died.
    pub fn swap_remove(&mut self, id: SegmentId, index: usize) -> u32 {
        let seg = self.segments[id.0 as usize]
            .as_mut()
            .expect("segment was removed");
        let last = seg.ids.len() - 1;
        let mut fill = last;
        if index < seg.ordered {
            let keys = seg.keys();
            if seg.ordered > last || keys[last] < keys[index] {
                seg.ordered -= 1;
                fill = seg.ordered;
            }
            seg.strays = (seg.strays + usize::from(fill != index)).min(seg.ordered);
        }
        // `fill` takes the vacated place and the last member `fill`'s.
        let removed = seg.ids[index];
        seg.ids[index] = seg.ids[fill];
        seg.ids[fill] = seg.ids[last];
        seg.ids.truncate(last);
        for col in seg.cols.iter_mut() {
            col[index] = col[fill];
            col[fill] = col[last];
            col.truncate(last);
        }
        seg.check_columns();
        for at in [index, fill] {
            if let Some(&moved) = seg.ids.get(at) {
                self.positions.insert(moved, (id.0, slot_index(at)));
            }
        }
        self.positions.remove(&removed);
        removed
    }

    /// Moves every member of `src` whose bounds in dimension `d` `takes`
    /// accepts to the end of `dst`, and returns how many moved. Only
    /// dimension `d`'s two columns are read to decide. The movers then
    /// go column by column from `src` straight into `dst`, in key order,
    /// ties in `src`'s storage order, so the fresh child of a split
    /// starts life ordered. `dst` ends as a `push` of each mover in that
    /// order would leave it.
    ///
    /// In `src` the ordered run's survivors close ranks without changing
    /// their relative order, so what was ordered stays ordered; the tail
    /// has no order to keep, so its survivors stay where they are unless
    /// that place is cut off, and then fill the places vacated below. Of
    /// the members that stay, only those that move have their position
    /// entries rewritten.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` are the same segment, or if `dst` would
    /// hold more than `u32::MAX` members.
    pub fn split_into(
        &mut self,
        src: SegmentId,
        d: usize,
        dst: SegmentId,
        mut takes: impl FnMut(Scalar, Scalar) -> bool,
    ) -> usize {
        const TAKEN: u32 = u32::MAX;
        assert_ne!(src, dst, "a segment cannot split into itself");
        let mut into = self.segments[dst.0 as usize]
            .take()
            .expect("segment was removed");
        let seg = self.segments[src.0 as usize]
            .as_mut()
            .expect("segment was removed");
        // Where every member goes, [`TAKEN`] for those that leave; and
        // the leavers as `(key, place)`, in the order they arrive in.
        let to = &mut self.split_to;
        to.clear();
        let bounds = seg.cols[2 * d].iter().zip(&seg.cols[2 * d + 1]);
        to.extend(
            bounds
                .zip(0u32..)
                .map(|((&lo, &hi), from)| if takes(lo, hi) { TAKEN } else { from }),
        );
        let leavers = &mut self.order_perm;
        leavers.clear();
        let places = seg.keys().iter().zip(to.iter()).zip(0u32..);
        leavers.extend(
            places
                .filter(|&((_, &to), _)| to == TAKEN)
                .map(|((&key, _), from)| (key, from)),
        );
        leavers.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let taken = leavers.len();

        let start = into.ids.len();
        for (col, into_col) in seg.cols.iter().zip(into.cols.iter_mut()) {
            into_col.extend(leavers.iter().map(|&(_, from)| col[from as usize]));
        }
        into.ids
            .extend(leavers.iter().map(|&(_, from)| seg.ids[from as usize]));
        into.check_columns();
        into.extend_run(start);
        for (&object_id, at) in into.ids[start..].iter().zip(start..) {
            self.positions.insert(object_id, (dst.0, slot_index(at)));
        }

        // The run's survivors go to consecutive places from the front.
        let ordered = seg.ordered;
        let mut run = 0;
        for to in to[..ordered].iter_mut().filter(|to| **to != TAKEN) {
            *to = run;
            run += 1;
        }
        let run = run as usize;
        // The tail's survivors beyond the new length take the places
        // below it that no survivor of the tail sits in.
        let len = to.len() - taken;
        let (below, cut_off) = to.split_at_mut(len.max(ordered));
        let free = (run..len).filter(|&at| at < ordered || below[at] == TAKEN);
        for (to, at) in cut_off.iter_mut().filter(|to| **to != TAKEN).zip(free) {
            *to = slot_index(at);
        }
        // A member only ever moves down, into a place read before it.
        let moves = &mut self.split_moves;
        moves.clear();
        moves.extend(
            to.iter()
                .zip(0u32..)
                .filter(|&(&to, from)| to != TAKEN && to != from)
                .map(|(&to, from)| (from, to)),
        );
        for col in seg.cols.iter_mut() {
            for &(from, to) in moves.iter() {
                col[to as usize] = col[from as usize];
            }
            col.truncate(len);
        }
        for &(from, to) in moves.iter() {
            let object_id = seg.ids[from as usize];
            seg.ids[to as usize] = object_id;
            self.positions.insert(object_id, (src.0, to));
        }
        seg.ids.truncate(len);
        seg.check_columns();
        seg.ordered = run;
        seg.strays = seg.strays.min(run);
        self.segments[dst.0 as usize] = Some(into);
        taken
    }

    /// Appends every member of `src` to `dst`, column to column in
    /// `src`'s storage order, removes `src` and returns how many moved.
    /// `dst`'s ordered run extends over the newcomers as far as a `push`
    /// of each member in that order would extend it.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` are the same segment, or if `dst` would
    /// hold more than `u32::MAX` members.
    pub fn merge_into(&mut self, src: SegmentId, dst: SegmentId) -> usize {
        assert_ne!(src, dst, "a segment cannot merge into itself");
        let from = self.segments[src.0 as usize]
            .take()
            .expect("segment was removed");
        self.free_slots.push(src.0);
        let into = self.segments[dst.0 as usize]
            .as_mut()
            .expect("segment was removed");
        let start = into.ids.len();
        for (into_col, col) in into.cols.iter_mut().zip(from.cols.iter()) {
            into_col.extend_from_slice(col);
        }
        into.ids.extend_from_slice(&from.ids);
        into.check_columns();
        into.extend_run(start);
        for (&object_id, at) in from.ids.iter().zip(start..) {
            self.positions.insert(object_id, (dst.0, slot_index(at)));
        }
        from.ids.len()
    }

    /// How far a segment is from key order, in tail members: a member of
    /// the tail counts one and a stray inside the ordered run four. (A
    /// tail member forgoes the gain of its own block and nothing else,
    /// and a tail grows with its segment, which pays for folding it; a
    /// stray sits in a block of the run, and removals leave strays
    /// without the segment growing.)
    pub fn disorder(&self, id: SegmentId) -> usize {
        let seg = self.segment(id);
        seg.ids.len() - seg.ordered + 4 * seg.strays
    }

    /// Puts a segment's members in key order (ties by current position,
    /// so the result is a function of the storage order it starts from).
    /// Works in store-owned scratch and rewrites the position entry of
    /// the members that moved, no others; a segment with no disorder is
    /// left alone.
    pub fn order(&mut self, id: SegmentId) {
        let seg = self.segments[id.0 as usize]
            .as_mut()
            .expect("segment was removed");
        let n = seg.ids.len();
        if seg.ordered == n && seg.strays == 0 {
            return;
        }
        (seg.ordered, seg.strays) = (n, 0);
        let perm = &mut self.order_perm;
        perm.clear();
        perm.extend(seg.keys().iter().copied().zip(0u32..));
        perm.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Everything before the first member that moves stays put.
        let Some(first) = perm.iter().zip(0u32..).position(|(p, at)| p.1 != at) else {
            return;
        };
        let perm = &perm[first..];
        for col in seg.cols.iter_mut() {
            self.order_col.clear();
            self.order_col.extend(perm.iter().map(|&(_, from)| col[from as usize]));
            col[first..].copy_from_slice(&self.order_col);
        }
        self.order_ids.clear();
        self.order_ids.extend(perm.iter().map(|&(_, from)| seg.ids[from as usize]));
        seg.ids[first..].copy_from_slice(&self.order_ids);
        for ((&(_, from), to), &object_id) in perm.iter().zip(slot_index(first)..).zip(&self.order_ids) {
            if from != to {
                self.positions.insert(object_id, (id.0, to));
            }
        }
        seg.check_columns();
    }

    /// Object ids of a segment, in storage order.
    pub fn ids(&self, id: SegmentId) -> &[u32] {
        &self.segment(id).ids
    }

    /// Dimension-major column view of a segment, ready for the batch
    /// verification kernel ([`acx_geom::scan::scan_columns`]). The store
    /// checks that the columns are equally long wherever it changes
    /// their length, so the view is built without comparing them again.
    pub fn columns(&self, id: SegmentId) -> PairedColumns<'_> {
        PairedColumns::of_equal_columns(&self.segment(id).cols)
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

    /// Every stored object id, in an unspecified order.
    pub fn object_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.positions.keys().copied()
    }

    /// Checks the position map against the segments: every live
    /// segment's member `k` maps to `(segment, k)`, and the map holds
    /// exactly as many entries as the segments hold members.
    pub fn check_positions(&self) -> Result<(), String> {
        let mut members = 0;
        for (slot, seg) in (0u32..).zip(&self.segments) {
            let ids = seg.as_ref().map_or(&[][..], |seg| &seg.ids);
            for (&object_id, k) in ids.iter().zip(0u32..) {
                let mapped = self.positions.get(&object_id);
                if mapped != Some(&(slot, k)) {
                    return Err(format!(
                        "position map misplaces object #{object_id}: member {k} of segment {slot}, mapped to {mapped:?}"
                    ));
                }
            }
            members += ids.len();
        }
        if self.positions.len() != members {
            let entries = self.positions.len();
            return Err(format!("the position map has {entries} entries for {members} members"));
        }
        Ok(())
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
        assert_eq!(s.object_flat(seg, 0), vec![0.1, 0.2]);
    }

    #[test]
    fn remove_segment_recycles_slot() {
        let mut s = SegmentStore::new(1);
        let a = s.create(2);
        let b = s.create(2);
        s.push(a, 1, &[0.0, 1.0]);
        assert_eq!(s.merge_into(a, b), 1);
        assert_eq!(s.ids(b), &[1]);
        assert_eq!(s.object_flat(b, 0), vec![0.0, 1.0]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.segment_count(), 1);
        let c = s.create(2);
        assert_eq!(c.0, a.0, "slot should be recycled");
    }

    #[test]
    fn check_positions_catches_a_misplaced_position_entry() {
        let mut s = SegmentStore::new(1);
        let seg = s.create(2);
        push_keys(&mut s, seg, 0, &[0.1, 0.2]);
        assert_eq!(s.check_positions(), Ok(()));
        // Object 0's entry points at object 1's place; nothing moved.
        s.positions.get_mut(&0).expect("object 0 is stored").1 = 1;
        let err = s.check_positions().unwrap_err();
        assert!(err.contains("position map misplaces object #0"), "{err}");
    }

    /// The merge's former store half, kept as its oracle: removes a
    /// segment entirely, returning its members as ids plus interleaved
    /// coordinates (storage order).
    fn remove(s: &mut SegmentStore, id: SegmentId) -> (Vec<u32>, Vec<Scalar>) {
        let seg = s.segments[id.0 as usize]
            .take()
            .expect("segment was removed");
        let mut coords = Vec::new();
        for index in 0..seg.ids.len() {
            seg.read_into(index, &mut coords);
        }
        s.free_slots.push(id.0);
        for object_id in &seg.ids {
            s.positions.remove(object_id);
        }
        (seg.ids, coords)
    }

    /// The split's former store half, kept as its oracle: removes every
    /// member whose bounds in dimension `d` `takes` accepts, and returns
    /// their ids and interleaved coordinates in storage order. The
    /// survivors are compacted as [`SegmentStore::split_into`] compacts
    /// them.
    fn extract(
        s: &mut SegmentStore,
        id: SegmentId,
        d: usize,
        mut takes: impl FnMut(Scalar, Scalar) -> bool,
    ) -> (Vec<u32>, Vec<Scalar>) {
        const TAKEN: u32 = u32::MAX;
        let seg = s.segments[id.0 as usize]
            .as_mut()
            .expect("segment was removed");
        let bounds = seg.cols[2 * d].iter().zip(&seg.cols[2 * d + 1]);
        let mut to: Vec<u32> = bounds
            .zip(0u32..)
            .map(|((&lo, &hi), from)| if takes(lo, hi) { TAKEN } else { from })
            .collect();
        let (mut ids, mut coords) = (Vec::new(), Vec::new());
        for from in (0..to.len()).filter(|&from| to[from] == TAKEN) {
            ids.push(seg.ids[from]);
            seg.read_into(from, &mut coords);
        }
        let mut run = 0;
        for to in to[..seg.ordered].iter_mut().filter(|to| **to != TAKEN) {
            *to = run;
            run += 1;
        }
        let run = run as usize;
        let len = to.len() - ids.len();
        let free = (run..len).filter(|&at| at < seg.ordered || to[at] == TAKEN);
        let cut_off = (len.max(seg.ordered)..to.len()).filter(|&from| to[from] != TAKEN);
        let fills: Vec<(usize, usize)> = cut_off.zip(free).collect();
        for (from, at) in fills {
            to[from] = at as u32;
        }
        let moves: Vec<(usize, usize)> = to
            .iter()
            .enumerate()
            .filter(|&(from, &to)| to != TAKEN && to as usize != from)
            .map(|(from, &to)| (from, to as usize))
            .collect();
        for col in seg.cols.iter_mut() {
            for &(from, to) in &moves {
                col[to] = col[from];
            }
            col.truncate(len);
        }
        for &(from, to) in &moves {
            seg.ids[to] = seg.ids[from];
            s.positions.insert(seg.ids[to], (id.0, to as u32));
        }
        seg.ids.truncate(len);
        seg.ordered = run;
        seg.strays = seg.strays.min(run);
        for object_id in &ids {
            s.positions.remove(object_id);
        }
        (ids, coords)
    }

    /// A split one member at a time, the oracle of
    /// [`SegmentStore::split_into`]: `extract`, a stable sort of the
    /// leavers by key, then a `push` of each into `dst`.
    pub(super) fn split_by_pushes(
        s: &mut SegmentStore,
        src: SegmentId,
        d: usize,
        dst: SegmentId,
        takes: impl FnMut(Scalar, Scalar) -> bool,
    ) -> usize {
        let (ids, coords) = extract(s, src, d, takes);
        let width = 2 * s.dims();
        let mut in_key_order: Vec<_> = ids.iter().zip(coords.chunks_exact(width)).collect();
        in_key_order.sort_by(|a, b| SegmentStore::key(a.1).total_cmp(&SegmentStore::key(b.1)));
        for (&id, flat) in in_key_order {
            s.push(dst, id, flat);
        }
        ids.len()
    }

    /// A merge one member at a time, the oracle of
    /// [`SegmentStore::merge_into`]: `remove` of `src`, then a `push` of
    /// each of its members into `dst` in `src`'s storage order.
    pub(super) fn merge_by_pushes(s: &mut SegmentStore, src: SegmentId, dst: SegmentId) -> usize {
        let (ids, coords) = remove(s, src);
        let width = 2 * s.dims();
        for (&id, flat) in ids.iter().zip(coords.chunks_exact(width)) {
            s.push(dst, id, flat);
        }
        ids.len()
    }

    /// Everything a store holds, as a comparable value: per slot the
    /// members, every column, the run and strays; the free slots and
    /// every position entry.
    #[allow(clippy::type_complexity)]
    pub(super) fn state(
        s: &SegmentStore,
    ) -> (
        Vec<Option<(Vec<u32>, Vec<Vec<Scalar>>, [usize; 2])>>,
        Vec<u32>,
        Vec<(u32, (u32, u32))>,
    ) {
        let segments = s
            .segments
            .iter()
            .map(|seg| {
                seg.as_ref().map(|seg| {
                    let cols = seg.cols.to_vec();
                    (seg.ids.clone(), cols, [seg.ordered, seg.strays])
                })
            })
            .collect();
        let mut positions: Vec<_> = s.positions.iter().map(|(&id, &at)| (id, at)).collect();
        positions.sort_unstable();
        (segments, s.free_slots.clone(), positions)
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

    /// 1-d members with the given keys, ids counting from `first`.
    fn push_keys(s: &mut SegmentStore, seg: SegmentId, first: u32, keys: &[Scalar]) {
        for (id, &key) in (first..).zip(keys) {
            s.push(seg, id, &[key, key + 0.5]);
        }
    }

    fn assert_positions_agree(s: &SegmentStore, seg: SegmentId) {
        for (index, &id) in s.ids(seg).iter().enumerate() {
            assert_eq!(s.position_of(id), Some((seg, index)), "object {id}");
        }
    }

    #[test]
    fn push_extends_the_run_only_in_key_order() {
        let mut s = SegmentStore::new(1);
        let seg = s.create(8);
        push_keys(&mut s, seg, 0, &[0.1, 0.2, 0.2, 0.4]);
        assert_eq!(s.disorder(seg), 0, "built in key order, ordered for free");
        push_keys(&mut s, seg, 10, &[0.3]);
        assert_eq!(s.disorder(seg), 1, "a lower key opens the tail");
        push_keys(&mut s, seg, 20, &[0.9]);
        assert_eq!(s.disorder(seg), 2, "behind a tail every member joins it");
        assert_eq!(s.ids(seg), &[0, 1, 2, 3, 10, 20], "pushing never moves a member");
    }

    #[test]
    fn swap_remove_inside_the_run_fills_with_no_lower_a_key() {
        let mut s = SegmentStore::new(1);
        let seg = s.create(8);
        push_keys(&mut s, seg, 0, &[0.1, 0.2, 0.3, 0.4]);
        push_keys(&mut s, seg, 10, &[0.25, 0.05]);
        assert_eq!(s.disorder(seg), 2);
        // The segment's last (#11) has a lower key than #1: the run's
        // last (#3, the largest key) takes #1's place and #11 closes the
        // gap behind the run.
        assert_eq!(s.swap_remove(seg, 1), 1);
        assert_eq!(s.ids(seg), &[0, 3, 2, 11, 10]);
        assert_eq!(s.lo_col(seg, 0), &[0.1, 0.4, 0.3, 0.05, 0.25]);
        assert_eq!(s.disorder(seg), 2 + 4, "two in the tail, and one stray counting four");
        assert_positions_agree(&s, seg);
        // The segment's last (#10) has a higher key than #0: it takes
        // #0's place itself, and the run keeps its length.
        assert_eq!(s.swap_remove(seg, 0), 0);
        assert_eq!(s.ids(seg), &[10, 3, 2, 11]);
        assert_eq!(s.disorder(seg), 1 + 2 * 4);
        // In the tail the segment's last fills; here it is the one removed.
        assert_eq!(s.swap_remove(seg, 3), 11);
        assert_eq!(s.ids(seg), &[10, 3, 2]);
        assert_eq!(s.disorder(seg), 2 * 4);
        // Without a tail the run's last is the segment's last.
        assert_eq!(s.swap_remove(seg, 0), 10);
        assert_eq!(s.ids(seg), &[2, 3]);
        assert_eq!(s.disorder(seg), 2 * 4, "never more strays than the run has members");
        assert_positions_agree(&s, seg);
    }

    #[test]
    fn order_sorts_by_key_and_maps_what_moved() {
        let mut s = SegmentStore::new(1);
        let seg = s.create(8);
        push_keys(&mut s, seg, 0, &[0.1, 0.2, 0.6, 0.7]);
        push_keys(&mut s, seg, 10, &[0.65, 0.2, 0.9]);
        s.order(seg);
        // Equal keys keep the order they were stored in.
        assert_eq!(s.ids(seg), &[0, 1, 11, 2, 10, 3, 12]);
        assert_eq!(s.lo_col(seg, 0), &[0.1, 0.2, 0.2, 0.6, 0.65, 0.7, 0.9]);
        assert_eq!(s.hi_col(seg, 0), &[0.6, 0.7, 0.7, 1.1, 1.15, 1.2, 1.4]);
        assert_eq!(s.disorder(seg), 0);
        assert_positions_agree(&s, seg);
        s.order(seg);
        assert_eq!(s.ids(seg), &[0, 1, 11, 2, 10, 3, 12], "ordering twice is ordering once");
        // An ordered segment goes on extending its run.
        push_keys(&mut s, seg, 20, &[0.95]);
        assert_eq!(s.disorder(seg), 0);
    }

    /// What `split_into` guarantees: the taken members arrive in the
    /// destination in key order with their coordinates; the run's
    /// survivors keep their order (so the run stays a run, at the front);
    /// the tail's survivors follow; every position is right.
    #[test]
    fn split_into_keeps_the_run_in_order() {
        let mut s = SegmentStore::new(2);
        let seg = s.create(4);
        let child = s.create(4);
        let member = |i: u32| {
            // The first 200 in key order, then a tail of 100.
            let key = if i < 200 { i as Scalar / 200.0 } else { (i * 37 % 100) as Scalar / 100.0 };
            [key, key, (i % 5) as Scalar, (i % 7) as Scalar]
        };
        for i in 0..300u32 {
            s.push(seg, i, &member(i));
        }
        assert_eq!(s.disorder(seg), 100);
        let takes = |lo: Scalar, hi: Scalar| lo < 2.0 || hi == 6.0;
        let taken = |i: &u32| takes(member(*i)[2], member(*i)[3]);

        let moved = s.split_into(seg, 1, child, takes);
        let mut want: Vec<u32> = (0..300).filter(taken).collect();
        want.sort_by(|a, b| member(*a)[0].total_cmp(&member(*b)[0]));
        assert_eq!(moved, want.len());
        assert_eq!(s.ids(child), &want[..], "in key order, ties in storage order");
        assert!(moved > 100 && moved < 200);
        assert_eq!(s.disorder(child), 0, "the child starts life ordered");
        assert_positions_agree(&s, child);
        for (index, &id) in s.ids(child).iter().enumerate() {
            assert_eq!(s.object_flat(child, index), member(id), "object {id}");
        }

        let run_left: Vec<u32> = (0..200).filter(|i| !taken(i)).collect();
        assert_eq!(s.ids(seg)[..run_left.len()], run_left[..], "survivors closed ranks");
        let mut tail_left = s.ids(seg)[run_left.len()..].to_vec();
        tail_left.sort_unstable();
        assert_eq!(tail_left, (200..300).filter(|i| !taken(i)).collect::<Vec<_>>());
        assert_eq!(s.disorder(seg), tail_left.len(), "the run is still a run");
        assert_eq!(s.len(), 300);
        assert_positions_agree(&s, seg);
        for (index, &id) in s.ids(seg).iter().enumerate() {
            assert_eq!(s.object_flat(seg, index), member(id), "object {id}");
        }

        // Nothing matches: nothing moves.
        let before = s.ids(seg).to_vec();
        assert_eq!(s.split_into(seg, 1, child, |_, _| false), 0);
        assert_eq!(s.ids(seg), before);
        assert_eq!(s.ids(child), &want[..]);
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
        let mut s = SegmentStore::new(2);
        let a = s.create(2);
        for i in 0..6 {
            s.push(a, i, &flat(0.0, 1.0));
        }
        for i in 0..6 {
            assert_eq!(s.position_of(i), Some((a, i as usize)));
        }
        let b = s.create(2);
        s.push(b, 10, &flat(0.5, 0.6));
        assert_eq!(s.merge_into(a, b), 6);
        assert_eq!(s.segment_count(), 1);
        assert_eq!(s.len(), 7);
        for i in 0..6 {
            let (seg, idx) = s.position_of(i).expect("merged member is mapped");
            assert_eq!(seg, b);
            assert_eq!(s.ids(b)[idx], i);
        }
        assert_eq!(s.position_of(10), Some((b, 0)));
    }

    #[test]
    fn merging_a_segment_maps_its_members_to_the_destination() {
        let mut s = SegmentStore::new(1);
        let a = s.create(2);
        let b = s.create(2);
        s.push(b, 3, &[0.5, 1.0]);
        s.push(a, 1, &[0.0, 1.0]);
        s.push(a, 2, &[0.2, 0.4]);
        s.merge_into(a, b);
        assert_eq!(s.position_of(1), Some((b, 1)));
        assert_eq!(s.position_of(2), Some((b, 2)));
        assert_eq!(s.disorder(b), 2, "a lower key behind the run opens the tail");
        assert!(s.contains_object(1));
    }

    #[test]
    fn object_ids_lists_every_stored_id_once() {
        let mut s = SegmentStore::new(1);
        let a = s.create(2);
        let b = s.create(2);
        for id in [5, 3, 9] {
            s.push(a, id, &[0.0, 1.0]);
        }
        s.push(b, 7, &[0.2, 0.4]);
        s.swap_remove(a, 0);
        let mut ids: Vec<u32> = s.object_ids().collect();
        ids.sort_unstable();
        assert_eq!(ids, [3, 7, 9]);
        assert_eq!(s.len(), 3);
    }

    /// The map takes its bucket from the hash's low bits. Dense ids and
    /// ids strided by a power of two must spread over them as a random
    /// function would (which fills 1 − 1/e of them), under every key a
    /// store draws; a hasher that buckets on the low id bits puts the
    /// strided runs in a handful.
    #[test]
    fn id_hash_spreads_dense_and_strided_ids_over_the_buckets() {
        const BUCKETS: u64 = 4096;
        for _ in 0..8 {
            let hash = IdHash::new();
            for shift in [0, 8, 16, 20] {
                let mut filled = vec![false; BUCKETS as usize];
                for i in 0..BUCKETS as u32 {
                    let mut hasher = hash.build_hasher();
                    hasher.write_u32(i << shift);
                    filled[(hasher.finish() & (BUCKETS - 1)) as usize] = true;
                }
                let filled = filled.iter().filter(|&&f| f).count();
                assert!(
                    2 * filled >= BUCKETS as usize,
                    "ids i << {shift} fill {filled} of {BUCKETS} buckets (key {:#x})",
                    hash.key
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{merge_by_pushes, split_by_pushes, state};
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Create(u8),
        Push(u8),
        SwapRemove(u8, u8),
        /// Split from one segment into another the members whose lower
        /// bound in dimension `k / 16` is below `(k % 16) / 16`.
        Split(u8, u8, u8),
        Merge(u8, u8),
        Order(u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            1 => (1u8..8).prop_map(Op::Create),
            5 => (0u8..6).prop_map(Op::Push),
            2 => (0u8..6, 0u8..16).prop_map(|(s, k)| Op::SwapRemove(s, k)),
            1 => (0u8..6, 0u8..6, 0u8..32).prop_map(|(a, b, k)| Op::Split(a, b, k)),
            1 => (0u8..6, 0u8..6).prop_map(|(a, b)| Op::Merge(a, b)),
            1 => (0u8..6).prop_map(Op::Order),
        ]
    }

    /// A key in `[0, 1)` that neither rises nor falls with the id.
    fn key_of(id: u32) -> Scalar {
        (id * 37 % 101) as Scalar / 101.0
    }

    /// Two distinct indices into `live` picked by `a` and `b`, or `None`
    /// when fewer than two segments live.
    fn pair(live: usize, a: u8, b: u8) -> Option<(usize, usize)> {
        if live < 2 {
            return None;
        }
        let ka = a as usize % live;
        let kb = b as usize % live;
        Some((ka, if ka == kb { (kb + 1) % live } else { kb }))
    }

    /// [`Op::Split`]'s dimension and predicate on that dimension's bounds.
    fn split_rule(k: u8) -> (usize, impl Fn(Scalar, Scalar) -> bool) {
        let below = (k % 16) as Scalar / 16.0;
        ((k / 16) as usize, move |lo: Scalar, _| lo < below)
    }

    proptest! {
        /// The segment store behaves like a vector of (id, coords) sets
        /// under arbitrary create/push/remove/split/merge/order
        /// sequences — none of them loses, duplicates or alters a member,
        /// whatever order it leaves them in — and its id array and
        /// coordinate columns never fall out of step. Object ids are
        /// drawn from a counter: the store requires them unique.
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
                        let flat = vec![key_of(id), 1.0, key_of(id + 7), id as Scalar];
                        store.push(live[k], id, &flat);
                        model[k].push((id, flat));
                    }
                    Op::SwapRemove(s, idx) => {
                        if live.is_empty() { continue; }
                        let k = s as usize % live.len();
                        if model[k].is_empty() { continue; }
                        let i = idx as usize % model[k].len();
                        let expected = store.ids(live[k])[i];
                        prop_assert_eq!(store.swap_remove(live[k], i), expected);
                        model[k].retain(|(id, _)| *id != expected);
                    }
                    Op::Split(a, b, k) => {
                        let Some((ka, kb)) = pair(live.len(), a, b) else { continue };
                        let (d, takes) = split_rule(k);
                        let before = store.segment_len(live[kb]);
                        let moved = store.split_into(live[ka], d, live[kb], &takes);
                        let (mut taken, kept): (Vec<_>, Vec<_>) =
                            model[ka].drain(..).partition(|(_, flat)| takes(flat[2 * d], flat[2 * d + 1]));
                        prop_assert_eq!(moved, taken.len());
                        let keys = &store.lo_col(live[kb], 0)[before..];
                        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "movers arrive in key order");
                        model[ka] = kept;
                        model[kb].append(&mut taken);
                    }
                    Op::Merge(a, b) => {
                        let Some((ka, kb)) = pair(live.len(), a, b) else { continue };
                        let moved = store.merge_into(live[ka], live[kb]);
                        prop_assert_eq!(moved, model[ka].len());
                        let mut taken = std::mem::take(&mut model[ka]);
                        model[kb].append(&mut taken);
                        live.remove(ka);
                        model.remove(ka);
                    }
                    Op::Order(s) => {
                        if live.is_empty() { continue; }
                        let seg = live[s as usize % live.len()];
                        store.order(seg);
                        prop_assert_eq!(store.disorder(seg), 0);
                        prop_assert!(store.lo_col(seg, 0).windows(2).all(|w| w[0] <= w[1]));
                        let once = store.ids(seg).to_vec();
                        store.order(seg);
                        prop_assert_eq!(store.ids(seg), &once[..], "order twice is order once");
                    }
                }
                // Global consistency: the store mirrors the model, and
                // the per-object flat gather agrees with the columns.
                let total: usize = model.iter().map(|m| m.len()).sum();
                prop_assert_eq!(store.len(), total);
                prop_assert_eq!(store.segment_count(), live.len());
                for (k, seg) in live.iter().enumerate() {
                    prop_assert_eq!(store.segment_len(*seg), model[k].len());
                    prop_assert!(store.disorder(*seg) <= 4 * model[k].len());
                    let mut got: Vec<u32> = store.ids(*seg).to_vec();
                    let mut want: Vec<u32> = model[k].iter().map(|(id, _)| *id).collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                    for d in 0..store.dims() {
                        prop_assert_eq!(store.lo_col(*seg, d).len(), model[k].len());
                        prop_assert_eq!(store.hi_col(*seg, d).len(), model[k].len());
                    }
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

        /// The column-to-column moves leave exactly what moving one member
        /// at a time left: `split_into` what `extract`, a stable key sort
        /// and a `push` of each leave, `merge_into` what `remove` and a
        /// `push` of each leave — ids, every column, the ordered run,
        /// strays, free slots and every position entry — after arbitrary
        /// sequences of every operation (coarse keys make ties).
        #[test]
        fn moves_equal_their_per_member_oracles(ops in prop::collection::vec(op(), 1..120)) {
            let dims = 2;
            let (mut fast, mut slow) = (SegmentStore::new(dims), SegmentStore::new(dims));
            let mut live: Vec<SegmentId> = Vec::new();
            let mut next_id = 0u32;
            for op in ops {
                match op {
                    Op::Create(expected) => {
                        let seg = fast.create(expected as usize);
                        prop_assert_eq!(slow.create(expected as usize), seg);
                        live.push(seg);
                    }
                    Op::Push(s) => {
                        if live.is_empty() { continue; }
                        let seg = live[s as usize % live.len()];
                        let key = (next_id * 7 % 5) as Scalar / 5.0;
                        let flat = [key, key + 0.5, key_of(next_id), 1.0];
                        fast.push(seg, next_id, &flat);
                        slow.push(seg, next_id, &flat);
                        next_id += 1;
                    }
                    Op::SwapRemove(s, idx) => {
                        if live.is_empty() { continue; }
                        let seg = live[s as usize % live.len()];
                        if fast.segment_len(seg) == 0 { continue; }
                        let at = idx as usize % fast.segment_len(seg);
                        prop_assert_eq!(fast.swap_remove(seg, at), slow.swap_remove(seg, at));
                    }
                    Op::Split(a, b, k) => {
                        let Some((ka, kb)) = pair(live.len(), a, b) else { continue };
                        let (d, takes) = split_rule(k);
                        let moved = fast.split_into(live[ka], d, live[kb], &takes);
                        prop_assert_eq!(split_by_pushes(&mut slow, live[ka], d, live[kb], &takes), moved);
                    }
                    Op::Merge(a, b) => {
                        let Some((ka, kb)) = pair(live.len(), a, b) else { continue };
                        let moved = fast.merge_into(live[ka], live[kb]);
                        prop_assert_eq!(merge_by_pushes(&mut slow, live[ka], live[kb]), moved);
                        live.remove(ka);
                    }
                    Op::Order(s) => {
                        if live.is_empty() { continue; }
                        let seg = live[s as usize % live.len()];
                        fast.order(seg);
                        slow.order(seg);
                    }
                }
                prop_assert_eq!(state(&fast), state(&slow));
            }
        }

        /// The O(1) position map agrees with a linear scan of every
        /// segment after arbitrary push/swap_remove/split/merge/order
        /// sequences, and so does [`SegmentStore::check_positions`].
        #[test]
        fn position_map_agrees_with_linear_scan(ops in prop::collection::vec(op(), 1..120)) {
            let mut store = SegmentStore::new(1);
            let mut live: Vec<SegmentId> = Vec::new();
            let mut next_id = 0u32;
            for op in ops {
                match op {
                    Op::Create(_) => {
                        live.push(store.create(1));
                    }
                    Op::Push(s) => {
                        if live.is_empty() { continue; }
                        let k = s as usize % live.len();
                        store.push(live[k], next_id, &[key_of(next_id), 1.0]);
                        next_id += 1;
                    }
                    Op::SwapRemove(s, idx) => {
                        if live.is_empty() { continue; }
                        let seg = live[s as usize % live.len()];
                        if store.segment_len(seg) == 0 { continue; }
                        store.swap_remove(seg, idx as usize % store.segment_len(seg));
                    }
                    Op::Split(a, b, k) => {
                        let Some((ka, kb)) = pair(live.len(), a, b) else { continue };
                        let below = (k % 16) as Scalar / 16.0;
                        store.split_into(live[ka], 0, live[kb], |lo, _| lo < below);
                    }
                    Op::Merge(a, b) => {
                        let Some((ka, kb)) = pair(live.len(), a, b) else { continue };
                        store.merge_into(live[ka], live[kb]);
                        live.remove(ka);
                    }
                    Op::Order(s) => {
                        if live.is_empty() { continue; }
                        store.order(live[s as usize % live.len()]);
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
                prop_assert_eq!(store.check_positions(), Ok(()));
            }
        }
    }
}
