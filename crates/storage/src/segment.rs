use acx_geom::scan::PairedColumns;
use acx_geom::{object_size_bytes, Scalar};

use crate::id_table::{Entry, IdTable};

/// Handle to one cluster's sequential object segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentId(pub u32);

/// One cluster's members, stored sequentially: a parallel id array, the
/// id table slot of every member, and dimension-major coordinate
/// columns.
#[derive(Debug)]
struct Segment {
    ids: Vec<u32>,
    /// Member `k`'s slot in the store's id table, whose entry names
    /// `(this segment, k)`.
    slots: Vec<u32>,
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

    /// The store keeps every column and the slot array as long as the id
    /// array; checked wherever the lengths change, so
    /// [`SegmentStore::columns`] need not.
    fn check_columns(&self) {
        assert!(
            self.cols.iter().all(|col| col.len() == self.ids.len())
                && self.slots.len() == self.ids.len(),
            "segment columns fell out of step with the id array"
        );
    }

    /// Interleaved flat coordinates of member `index`, appended to `out`.
    fn read_into(&self, index: usize, out: &mut Vec<Scalar>) {
        for col in self.cols.iter() {
            out.push(col[index]);
        }
    }

    /// Appends the members `ids`, whose coordinates `flat` holds as one
    /// interleaved row each and whose id table slots the caller has
    /// pushed already: each column grows by one `extend`, the lengths
    /// are checked once, and the ordered run extends over the newcomers
    /// as pushing them one at a time would.
    fn extend(&mut self, ids: &[u32], flat: &[Scalar]) {
        let start = self.ids.len();
        self.ids.extend_from_slice(ids);
        let rows = flat.chunks_exact(self.cols.len());
        for (c, col) in self.cols.iter_mut().enumerate() {
            col.extend(rows.clone().map(|row| row[c]));
        }
        self.check_columns();
        self.extend_run(start);
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

/// `index` as the id table stores it.
///
/// # Panics
///
/// Panics if `index` does not fit in a `u32`: a segment holds at most
/// `u32::MAX` members, and a wrapped index would map an object to
/// another member's place.
fn slot_index(index: usize) -> u32 {
    u32::try_from(index).expect("a segment holds at most u32::MAX members")
}

/// Tells the member an id table entry names that the entry now sits in
/// `slot` (the table's `moved` callback).
fn reslot(segments: &mut [Option<Segment>], entry: Entry, slot: u32) {
    let seg = segments[entry.segment as usize]
        .as_mut()
        .expect("an id table entry names a live segment");
    seg.slots[entry.index as usize] = slot;
}

/// A member taken out of its segment by [`SegmentStore::take_out`],
/// still holding its id table slot until [`SegmentStore::put_back`]
/// stores it again.
#[derive(Debug)]
#[must_use = "a taken-out member stays in the id table until it is put back"]
pub struct Taken {
    id: u32,
    slot: u32,
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
/// Object ids must be unique across the whole store: the store keeps one
/// open-addressing id table whose slot holds an object's id and its
/// place, `(segment, index)`, so [`SegmentStore::position_of`] answers in
/// O(1) instead of scanning a segment. Every member carries its table
/// slot beside its id. Only an id that comes from outside is hashed:
/// [`SegmentStore::append`] probes the table once per member (and
/// [`SegmentStore::push`] is its one-member case), a lookup and
/// [`SegmentStore::swap_remove`] once each. A member that moves — in a
/// split, a merge, [`SegmentStore::order`] or a removal's fill — writes
/// its new place into its own slot, with no hashing.
///
/// It is the only id map of an index: an owner that gives each of its
/// clusters one segment finds an object's cluster through the object's
/// segment. Its entry count is the store's [`SegmentStore::len`]. The
/// table hashes with a keyed murmur3 finalizer: ids are not
/// attacker-chosen, and the finalizer spreads dense and strided ids
/// alike over the slots.
///
/// A cluster split and a cluster merge move members between segments
/// in bulk, column to column, with no per-member gather:
/// [`SegmentStore::split_into`] moves the members a predicate on one
/// dimension accepts into another segment, and
/// [`SegmentStore::merge_into`] appends one segment's columns to
/// another's and frees the first. Each leaves what a `push` of every
/// moved member would: the same storage order, ordered run and places.
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
    table: IdTable,
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
        Self::with_capacity(dims, 0)
    }

    /// Creates a store for `dims`-dimensional objects whose id table
    /// holds `objects` before it first grows.
    pub fn with_capacity(dims: usize, objects: usize) -> Self {
        assert!(dims > 0, "dims must be positive");
        Self {
            dims,
            object_bytes: object_size_bytes(dims),
            segments: Vec::new(),
            free_slots: Vec::new(),
            table: IdTable::with_capacity(objects),
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
        self.table.len()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.table.len() == 0
    }

    /// Creates an empty segment with room for `expected` objects.
    ///
    /// # Panics
    ///
    /// Panics if the store would hold `u32::MAX` segments: that slot
    /// number marks a vacant id table slot.
    pub fn create(&mut self, expected: usize) -> SegmentId {
        let seg = Segment {
            ids: Vec::with_capacity(expected),
            slots: Vec::with_capacity(expected),
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
            let slot = u32::try_from(slot).ok().filter(|&slot| slot < u32::MAX);
            SegmentId(slot.expect("a store holds fewer than u32::MAX segments"))
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

    /// Appends one object: [`SegmentStore::append`] of one member.
    /// Returns `false`, and stores nothing, when `object_id` is already
    /// stored anywhere in the store.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is not `2·dims` scalars long, or if the segment
    /// already holds `u32::MAX + 1` members.
    #[inline]
    pub fn push(&mut self, id: SegmentId, object_id: u32, flat: &[Scalar]) -> bool {
        self.append(id, &[object_id], flat) == 1
    }

    /// Appends the objects `object_ids`, in order, and returns how many
    /// it stored.
    ///
    /// `flat` holds each object's coordinates as one interleaved row
    /// `[lo0, hi0, lo1, hi1, …]`, in the order of `object_ids`; the
    /// store distributes the rows into the dimension-major columns, one
    /// `extend` per column. Members that continue a fully ordered
    /// segment extend the run (how a segment built in key order stays
    /// ordered for free); from the first that does not, they join the
    /// tail.
    ///
    /// Each id is probed once in the id table, which finds either the
    /// id or its slot: the table keeps exactly one place per id. The
    /// first id already stored anywhere in the store — an earlier one
    /// of the same call included — is refused: it and every object
    /// after it are not stored, and those before it are.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is not `2·dims` scalars per object long, or if
    /// the segment would hold more than `u32::MAX + 1` members.
    pub fn append(&mut self, id: SegmentId, object_ids: &[u32], flat: &[Scalar]) -> usize {
        let width = 2 * self.dims;
        assert_eq!(
            flat.len(),
            width * object_ids.len(),
            "coordinate arity mismatch"
        );
        let start = self.segment(id).ids.len();
        // Each slot joins the slot array as its id is stored, so that a
        // growth of the table partway through reslots it with the rest.
        let mut stored = 0;
        for (&object_id, index) in object_ids.iter().zip(start..) {
            let segments = &mut self.segments;
            let slot = self
                .table
                .insert(object_id, id.0, slot_index(index), |entry, slot| {
                    reslot(segments, entry, slot)
                });
            let Some(slot) = slot else { break };
            let seg = segments[id.0 as usize].as_mut();
            seg.expect("segment was removed").slots.push(slot);
            stored += 1;
        }
        let seg = self.segment_mut(id);
        seg.extend(&object_ids[..stored], &flat[..stored * width]);
        stored
    }

    /// Removes the object at `index` and returns its id; at most two
    /// other members move. Which ones is [`SegmentStore::take_out`]'s
    /// rule.
    pub fn swap_remove(&mut self, id: SegmentId, index: usize) -> u32 {
        let Taken { id: removed, slot } = self.take_out(id, index);
        let segments = &mut self.segments;
        self.table
            .remove(slot, |entry, slot| reslot(segments, entry, slot));
        removed
    }

    /// Takes the object at `index` out of its segment as
    /// [`SegmentStore::swap_remove`] does, but keeps its id table slot:
    /// [`SegmentStore::put_back`] stores it again without hashing its id.
    /// Until then the store must not push or remove an object, which
    /// could move the kept slot; the segments may be ordered.
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
    pub fn take_out(&mut self, id: SegmentId, index: usize) -> Taken {
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
        let taken = Taken {
            id: seg.ids[index],
            slot: seg.slots[index],
        };
        for column in [&mut seg.ids, &mut seg.slots] {
            column[index] = column[fill];
            column[fill] = column[last];
            column.truncate(last);
        }
        for col in seg.cols.iter_mut() {
            col[index] = col[fill];
            col[fill] = col[last];
            col.truncate(last);
        }
        seg.check_columns();
        for at in [index, fill] {
            if let Some(&slot) = seg.slots.get(at) {
                self.table.set_place(slot, id.0, slot_index(at));
            }
        }
        taken
    }

    /// Appends a member [`SegmentStore::take_out`] took out, under its
    /// id and its kept id table slot, as [`SegmentStore::push`] of it
    /// would.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is not `2·dims` scalars long, or if the segment
    /// already holds `u32::MAX + 1` members.
    pub fn put_back(&mut self, id: SegmentId, taken: Taken, flat: &[Scalar]) {
        assert_eq!(flat.len(), 2 * self.dims, "coordinate arity mismatch");
        let Taken { id: object_id, slot } = taken;
        debug_assert_eq!(self.table.entry(slot).id, object_id, "the kept slot moved");
        let seg = self.segment_mut(id);
        let index = slot_index(seg.ids.len());
        seg.slots.push(slot);
        seg.extend(&[object_id], flat);
        self.table.set_place(slot, id.0, index);
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
    /// the members that stay, only those that move have their id table
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
        for (column, into_column) in [(&seg.ids, &mut into.ids), (&seg.slots, &mut into.slots)] {
            into_column.extend(leavers.iter().map(|&(_, from)| column[from as usize]));
        }
        into.check_columns();
        into.extend_run(start);
        for (&slot, at) in into.slots[start..].iter().zip(start..) {
            self.table.set_place(slot, dst.0, slot_index(at));
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
            let slot = seg.slots[from as usize];
            seg.ids[to as usize] = seg.ids[from as usize];
            seg.slots[to as usize] = slot;
            self.table.set_place(slot, src.0, to);
        }
        seg.ids.truncate(len);
        seg.slots.truncate(len);
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
        into.slots.extend_from_slice(&from.slots);
        into.check_columns();
        into.extend_run(start);
        for (&slot, at) in from.slots.iter().zip(start..) {
            self.table.set_place(slot, dst.0, slot_index(at));
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
    /// Works in store-owned scratch and rewrites the id table entry of
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
        for column in [&mut seg.ids, &mut seg.slots] {
            self.order_ids.clear();
            self.order_ids.extend(perm.iter().map(|&(_, from)| column[from as usize]));
            column[first..].copy_from_slice(&self.order_ids);
        }
        for ((&(_, from), to), &slot) in perm.iter().zip(slot_index(first)..).zip(&seg.slots[first..]) {
            if from != to {
                self.table.set_place(slot, id.0, to);
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

    /// Gathers the member at `index` into `out` (cleared first) as
    /// interleaved flat coordinates (`[lo0, hi0, …]`). A buffer reused
    /// across calls allocates once; a fresh one, exactly once.
    pub fn read_object_into(&self, id: SegmentId, index: usize, out: &mut Vec<Scalar>) {
        out.clear();
        out.reserve(2 * self.dims);
        self.segment(id).read_into(index, out);
    }

    /// Number of objects in a segment.
    pub fn segment_len(&self, id: SegmentId) -> usize {
        self.segment(id).ids.len()
    }

    /// Segment and in-segment position currently holding `object_id`, in
    /// O(1): one probe of the id table (no segment scan).
    pub fn position_of(&self, object_id: u32) -> Option<(SegmentId, usize)> {
        let slot = self.table.find(object_id)?;
        let entry = self.table.entry(slot);
        Some((SegmentId(entry.segment), entry.index as usize))
    }

    /// Whether the store holds an object with this id.
    pub fn contains_object(&self, object_id: u32) -> bool {
        self.table.find(object_id).is_some()
    }

    /// Every stored object id, in an unspecified order.
    pub fn object_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.table.ids()
    }

    /// Checks the id table against the segments: every live segment's
    /// member `k` names a slot whose entry is `(its id, segment, k)`,
    /// every entry is reachable from its home slot, and the table holds
    /// exactly as many entries as the segments hold members.
    pub fn check_positions(&self) -> Result<(), String> {
        let mut members = 0;
        for (segment, seg) in (0u32..).zip(&self.segments) {
            let Some(seg) = seg else { continue };
            for ((&id, &slot), index) in seg.ids.iter().zip(&seg.slots).zip(0u32..) {
                let want = Entry { id, segment, index };
                let entry = (slot as usize) < self.table.capacity();
                let entry = entry.then(|| self.table.entry(slot));
                if entry != Some(want) {
                    return Err(format!(
                        "member {index} of segment {segment} (object #{id}) names id table slot {slot}, which holds {entry:?}"
                    ));
                }
            }
            members += seg.ids.len();
        }
        self.table.check()?;
        if self.table.len() != members {
            let entries = self.table.len();
            return Err(format!("the id table has {entries} entries for {members} members"));
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

    /// Member `index` of segment `id`, read into a fresh buffer.
    pub(super) fn object(s: &SegmentStore, id: SegmentId, index: usize) -> Vec<Scalar> {
        let mut out = Vec::new();
        s.read_object_into(id, index, &mut out);
        out
    }

    #[test]
    fn create_push_read_roundtrip() {
        let mut s = SegmentStore::new(2);
        let seg = s.create(4);
        s.push(seg, 7, &flat(0.1, 0.2));
        s.push(seg, 9, &flat(0.3, 0.4));
        assert_eq!(s.ids(seg), &[7, 9]);
        assert_eq!(s.segment_len(seg), 2);
        assert_eq!(object(&s, seg, 0), flat(0.1, 0.2));
        assert_eq!(object(&s, seg, 1), flat(0.3, 0.4));
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
        assert_eq!(object(&s, seg, 0), flat(0.3, 0.35)); // object 3 moved to slot 0
        assert_eq!(object(&s, seg, 1), flat(0.2, 0.25)); // object 2 untouched
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
        assert_eq!(object(&s, seg, 0), vec![0.1, 0.2]);
    }

    #[test]
    fn remove_segment_recycles_slot() {
        let mut s = SegmentStore::new(1);
        let a = s.create(2);
        let b = s.create(2);
        s.push(a, 1, &[0.0, 1.0]);
        assert_eq!(s.merge_into(a, b), 1);
        assert_eq!(s.ids(b), &[1]);
        assert_eq!(object(&s, b, 0), vec![0.0, 1.0]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.segment_count(), 1);
        let c = s.create(2);
        assert_eq!(c.0, a.0, "slot should be recycled");
    }

    /// A store of two members, #0 and #1, in one segment.
    fn two_members() -> (SegmentStore, SegmentId) {
        let mut s = SegmentStore::new(1);
        let seg = s.create(2);
        push_keys(&mut s, seg, 0, &[0.1, 0.2]);
        assert_eq!(s.check_positions(), Ok(()));
        (s, seg)
    }

    #[test]
    fn check_positions_catches_a_member_naming_another_slot() {
        let (mut s, seg) = two_members();
        // Member 0 names member 1's slot; the table is untouched.
        let slots = &mut s.segments[seg.0 as usize].as_mut().unwrap().slots;
        slots[0] = slots[1];
        let err = s.check_positions().unwrap_err();
        assert!(
            err.contains("member 0 of segment 0 (object #0) names id table slot"),
            "{err}"
        );
    }

    #[test]
    fn check_positions_catches_a_misplaced_position_entry() {
        let (mut s, _) = two_members();
        // Object 0's entry points at object 1's place; nothing moved.
        let slot = s.table.find(0).expect("object 0 is stored");
        s.table.set_place(slot, 0, 1);
        let err = s.check_positions().unwrap_err();
        assert!(err.contains("member 0 of segment 0 (object #0)"), "{err}");
        assert!(err.contains("index: 1"), "{err}");
    }

    #[test]
    fn check_positions_catches_an_entry_its_lookup_cannot_reach() {
        let (mut s, seg) = two_members();
        // Object 0's entry and member move to a slot its probe from home
        // never reaches: past a vacant slot behind the home slot.
        let slot = s.table.find(0).expect("object 0 is stored");
        let cap = s.table.capacity() as u32;
        let away = (0..cap)
            .map(|k| (slot + cap - 2 - k) % cap)
            .find(|&at| at != slot && s.table.entry(at).segment == u32::MAX)
            .expect("a vacant slot");
        s.table.relocate(slot, away);
        s.segments[seg.0 as usize].as_mut().unwrap().slots[0] = away;
        // Object 1 may have sat behind object 0 in its home slot's probe
        // cluster, and be cut off too.
        let err = s.check_positions().unwrap_err();
        assert!(err.contains("is not reachable from its home slot"), "{err}");
    }

    /// The merge's former store half, kept as its oracle: removes a
    /// segment entirely, returning its members as ids plus interleaved
    /// coordinates (storage order).
    fn remove(s: &mut SegmentStore, id: SegmentId) -> (Vec<u32>, Vec<Scalar>) {
        for object_id in s.ids(id).to_vec() {
            unmap(s, object_id);
        }
        let seg = s.segments[id.0 as usize]
            .take()
            .expect("segment was removed");
        let mut coords = Vec::new();
        for index in 0..seg.ids.len() {
            seg.read_into(index, &mut coords);
        }
        s.free_slots.push(id.0);
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
        let seg = s.segment(id);
        let bounds = seg.cols[2 * d].iter().zip(&seg.cols[2 * d + 1]);
        let mut to: Vec<u32> = bounds
            .zip(0u32..)
            .map(|((&lo, &hi), from)| if takes(lo, hi) { TAKEN } else { from })
            .collect();
        // The leavers leave the id table while every member still sits
        // where its entry says.
        let leaving = (0..to.len()).filter(|&from| to[from] == TAKEN);
        for object_id in leaving.map(|from| seg.ids[from]).collect::<Vec<_>>() {
            unmap(s, object_id);
        }
        let seg = s.segments[id.0 as usize]
            .as_mut()
            .expect("segment was removed");
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
            seg.slots[to] = seg.slots[from];
            s.table.set_place(seg.slots[to], id.0, to as u32);
        }
        seg.ids.truncate(len);
        seg.slots.truncate(len);
        seg.ordered = run;
        seg.strays = seg.strays.min(run);
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

    /// Deletes `object_id`'s id table entry, leaving its member (if any)
    /// in place: as [`SegmentStore::swap_remove`] deletes it.
    fn unmap(s: &mut SegmentStore, object_id: u32) {
        let slot = s.table.find(object_id).expect("object is stored");
        let segments = &mut s.segments;
        s.table.remove(slot, |entry, slot| reslot(segments, entry, slot));
    }

    /// Everything a store holds, as a comparable value: per slot the
    /// members, every column, the run and strays; the free slots and
    /// every stored id's place as a lookup resolves it (two stores that
    /// agree on these may still hold their ids in other table slots).
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
        let mut positions: Vec<_> = s
            .object_ids()
            .map(|id| {
                let (seg, index) = s.position_of(id).expect("a listed id is stored");
                (id, (seg.0, slot_index(index)))
            })
            .collect();
        positions.sort_unstable();
        (segments, s.free_slots.clone(), positions)
    }

    /// A 2-d member whose key is `key`.
    fn member(key: Scalar) -> [Scalar; 4] {
        [key, key + 0.5, 0.25, 0.75]
    }

    /// Appends `chunk` (ids and keys) to `seg` of a store built by
    /// `build`, and pushes the same members one at a time to `seg` of a
    /// second one, up to the first the push refuses. Both must store the
    /// same members and leave the same state; returns how many were
    /// stored.
    fn append_as_pushes(
        build: impl Fn() -> (SegmentStore, SegmentId),
        chunk: &[(u32, Scalar)],
    ) -> usize {
        let (mut fast, seg) = build();
        let (mut slow, _) = build();
        let ids: Vec<u32> = chunk.iter().map(|&(id, _)| id).collect();
        let flat: Vec<Scalar> = chunk.iter().flat_map(|&(_, key)| member(key)).collect();
        let stored = fast.append(seg, &ids, &flat);
        let pushed = chunk
            .iter()
            .take_while(|&&(id, key)| slow.push(seg, id, &member(key)))
            .count();
        assert_eq!(stored, pushed);
        assert_eq!(state(&fast), state(&slow));
        assert_eq!(fast.check_positions(), Ok(()));
        stored
    }

    /// `count` members with ids from `first` and keys from `key`,
    /// rising by `step`.
    fn run_of(first: u32, count: u32, key: Scalar, step: Scalar) -> Vec<(u32, Scalar)> {
        (0..count)
            .map(|k| (first + k, key + step * k as Scalar))
            .collect()
    }

    /// A store with a 2-d segment holding the members `members`, and a
    /// second segment holding object #1000.
    fn store_with(objects: usize, members: &[(u32, Scalar)]) -> (SegmentStore, SegmentId) {
        let mut s = SegmentStore::with_capacity(2, objects);
        let (seg, other) = (s.create(4), s.create(1));
        for &(id, key) in members {
            assert!(s.push(seg, id, &member(key)));
        }
        assert!(s.push(other, 1000, &member(0.5)));
        (s, seg)
    }

    #[test]
    fn append_equals_pushing_each_member_onto_any_segment() {
        // Onto an empty segment: the chunk rises, then falls once.
        let mut chunk = run_of(0, 20, 0.1, 0.01);
        chunk.extend(run_of(20, 5, 0.0, 0.02));
        assert_eq!(append_as_pushes(|| store_with(64, &[]), &chunk), 25);
        // Onto an ordered segment: the run extends over the chunk's
        // rising prefix, and a tie continues it.
        let ordered = run_of(0, 10, 0.0, 0.01);
        let (s, seg) = store_with(64, &ordered);
        assert_eq!(s.disorder(seg), 0);
        let mut chunk = run_of(100, 6, 0.09, 0.01);
        chunk.extend(run_of(200, 4, 0.05, 0.1));
        assert_eq!(append_as_pushes(|| store_with(64, &ordered), &chunk), 10);
        // Onto a disordered segment: every member joins the tail.
        let mut disordered = run_of(0, 8, 0.3, 0.01);
        disordered.extend(run_of(8, 3, 0.0, 0.01));
        let (s, seg) = store_with(64, &disordered);
        assert_eq!(s.disorder(seg), 3);
        let chunk = run_of(100, 12, 0.9, 0.001);
        assert_eq!(append_as_pushes(|| store_with(64, &disordered), &chunk), 12);
        // An empty chunk stores nothing.
        assert_eq!(append_as_pushes(|| store_with(64, &ordered), &[]), 0);
    }

    #[test]
    fn append_equals_pushing_each_member_when_the_id_table_grows_partway() {
        // A store built at capacity 0 holds 12 ids in its 16 slots: the
        // 13th grows the table, the 25th again, both inside the chunk.
        let prefix = run_of(0, 7, 0.0, 0.01);
        let (s, _) = store_with(0, &prefix);
        assert_eq!((s.len(), s.table.capacity()), (8, 16));
        let chunk = run_of(100, 40, 0.07, 0.01);
        assert_eq!(append_as_pushes(|| store_with(0, &prefix), &chunk), 40);
        let (mut s, seg) = store_with(0, &prefix);
        let flat: Vec<Scalar> = chunk.iter().flat_map(|&(_, key)| member(key)).collect();
        let ids: Vec<u32> = chunk.iter().map(|&(id, _)| id).collect();
        assert_eq!(s.append(seg, &ids, &flat), 40);
        assert_eq!(s.table.capacity(), 64, "grown twice");
        assert_eq!(s.disorder(seg), 0);
    }

    #[test]
    fn append_refuses_a_stored_id_and_keeps_the_members_before_it() {
        let prefix = run_of(0, 5, 0.0, 0.01);
        // #1000 is stored in the other segment; #3 in this one.
        for stored in [1000, 3] {
            let mut chunk = run_of(100, 4, 0.1, 0.01);
            chunk.push((stored, 0.5));
            chunk.extend(run_of(104, 3, 0.6, 0.01));
            assert_eq!(append_as_pushes(|| store_with(0, &prefix), &chunk), 4);
            let (mut s, seg) = store_with(0, &prefix);
            let ids: Vec<u32> = chunk.iter().map(|&(id, _)| id).collect();
            let flat: Vec<Scalar> = chunk.iter().flat_map(|&(_, key)| member(key)).collect();
            assert_eq!(s.append(seg, &ids, &flat), 4);
            assert_eq!(s.ids(seg), &[0, 1, 2, 3, 4, 100, 101, 102, 103]);
            assert_eq!((s.len(), s.contains_object(104)), (10, false));
        }
        // An id the chunk itself stored a moment before is refused too.
        let mut chunk = run_of(100, 3, 0.1, 0.01);
        chunk.push((101, 0.5));
        chunk.push((110, 0.6));
        assert_eq!(append_as_pushes(|| store_with(0, &prefix), &chunk), 3);
        // So is one at the front: nothing is stored.
        assert_eq!(
            append_as_pushes(|| store_with(0, &prefix), &[(2, 0.9), (120, 0.9)]),
            0
        );
    }

    #[test]
    #[should_panic(expected = "coordinate arity mismatch")]
    fn append_rejects_rows_of_the_wrong_arity() {
        let mut s = SegmentStore::new(2);
        let seg = s.create(2);
        s.append(seg, &[1, 2], &[0.0; 6]); // needs 8 scalars for two 2-d members
    }

    #[test]
    fn push_refuses_a_stored_id_and_stores_nothing() {
        let mut s = SegmentStore::new(1);
        let (a, b) = (s.create(2), s.create(2));
        assert!(s.push(a, 7, &[0.1, 0.2]));
        assert!(!s.push(b, 7, &[0.3, 0.4]), "id 7 is stored in segment a");
        assert_eq!((s.len(), s.segment_len(b)), (1, 0));
        assert_eq!(s.position_of(7), Some((a, 0)));
        assert_eq!(s.check_positions(), Ok(()));
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
            assert_eq!(object(&s, child, index), member(id), "object {id}");
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
            assert_eq!(object(&s, seg, index), member(id), "object {id}");
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
}

#[cfg(test)]
mod proptests {
    use super::tests::{merge_by_pushes, object, split_by_pushes, state};
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Create(u8),
        Push(u8),
        /// Append a chunk of `n` members to one segment; where the
        /// proptest allows, member `k` repeats the id before it.
        Append(u8, u8, u8),
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
            1 => (0u8..6, 0u8..12, 0u8..24).prop_map(|(s, n, k)| Op::Append(s, n, k)),
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
        /// under arbitrary create/push/append/remove/split/merge/order
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
                    Op::Append(s, n, _) => {
                        if live.is_empty() { continue; }
                        let k = s as usize % live.len();
                        let ids: Vec<u32> = (next_id..).take(n as usize).collect();
                        next_id += u32::from(n);
                        let rows: Vec<Vec<Scalar>> = ids
                            .iter()
                            .map(|&id| vec![key_of(id), 1.0, key_of(id + 7), id as Scalar])
                            .collect();
                        prop_assert_eq!(store.append(live[k], &ids, &rows.concat()), ids.len());
                        model[k].extend(ids.into_iter().zip(rows));
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
                        let flat = object(&store, *seg, idx);
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
        /// `push` of each leave, `append` what a `push` of each up to the
        /// first refused leaves — ids, every column, the ordered run,
        /// strays, free slots and every resolved place — after arbitrary
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
                    Op::Append(s, n, dup) => {
                        if live.is_empty() { continue; }
                        let seg = live[s as usize % live.len()];
                        let mut ids: Vec<u32> = (next_id..).take(n as usize).collect();
                        next_id += u32::from(n);
                        // A repeat of the id before it: stored in the
                        // store, or earlier in the chunk.
                        if let Some(id) = ids.get_mut(dup as usize) {
                            *id = id.saturating_sub(1);
                        }
                        let rows: Vec<[Scalar; 4]> = ids
                            .iter()
                            .map(|&id| {
                                let key = (id * 7 % 5) as Scalar / 5.0;
                                [key, key + 0.5, key_of(id), 1.0]
                            })
                            .collect();
                        let stored = fast.append(seg, &ids, rows.as_flattened());
                        let pushed = ids
                            .iter()
                            .zip(&rows)
                            .take_while(|&(&id, row)| slow.push(seg, id, row))
                            .count();
                        prop_assert_eq!(stored, pushed);
                        prop_assert_eq!(fast.check_positions(), Ok(()));
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

        /// The O(1) id table agrees with a linear scan of every
        /// segment after arbitrary push/append/swap_remove/split/merge/order
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
                    Op::Append(s, n, _) => {
                        if live.is_empty() { continue; }
                        let k = s as usize % live.len();
                        let ids: Vec<u32> = (next_id..).take(n as usize).collect();
                        next_id += u32::from(n);
                        let flat: Vec<Scalar> = ids.iter().flat_map(|&id| [key_of(id), 1.0]).collect();
                        prop_assert_eq!(store.append(live[k], &ids, &flat), ids.len());
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
