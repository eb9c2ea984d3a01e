//! The segment store's one id map: an open-addressing table whose slot
//! holds an object's id and its place, `(segment, index)`, inline.
//!
//! Every member of a segment carries its slot number beside its id, so
//! a store that moves a member writes the new place into its slot
//! directly: only an id that comes from outside the store is hashed. The
//! table tells its owner when a slot number changes — a backward-shift
//! deletion or a growth moves an entry — through a `moved(entry, slot)`
//! callback, which the owner answers by rewriting the member that the
//! entry's place names.

use std::hash::{BuildHasher, RandomState};

/// One stored object: its id and where it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    pub id: u32,
    pub segment: u32,
    pub index: u32,
}

/// The `segment` of a slot that holds no entry. A store holds fewer
/// than `u32::MAX` segments, so no entry names it.
const VACANT_SEGMENT: u32 = u32::MAX;

const VACANT: Entry = Entry {
    id: 0,
    segment: VACANT_SEGMENT,
    index: 0,
};

/// Capacity of a table that was asked for nothing.
const MIN_CAPACITY: usize = 16;

/// Whether a table of `capacity` slots is too full for `len` entries:
/// more than three quarters, past which linear probes grow long.
fn over_full(len: usize, capacity: usize) -> bool {
    4 * len > 3 * capacity
}

/// Open addressing with linear probing over a power-of-two number of
/// slots. An id's home slot is the low bits of murmur3's 64-bit
/// finalizer over the id XORed with a key drawn once per table from
/// `std`'s [`RandomState`]: ids are small integers, often dense or
/// strided (`k << 12`), and the finalizer's xor-shifts fold every id bit
/// into every hash bit, so any run of distinct ids spreads as a random
/// function would; the key means no fixed id set collides in every
/// process. The table doubles when it would be more than three quarters
/// full; it never shrinks, so a warmed table allocates nothing. A
/// deletion shifts the entries behind the hole back instead of leaving a
/// tombstone, so every lookup stops at the first vacant slot.
#[derive(Debug)]
pub(crate) struct IdTable {
    /// Power-of-two length; a vacant slot's `segment` is
    /// [`VACANT_SEGMENT`].
    entries: Vec<Entry>,
    len: usize,
    key: u64,
}

impl IdTable {
    /// A table with room for `objects` entries before it grows.
    pub(crate) fn with_capacity(objects: usize) -> Self {
        let mut capacity = MIN_CAPACITY;
        while over_full(objects, capacity) {
            capacity *= 2;
        }
        Self {
            entries: vec![VACANT; capacity],
            len: 0,
            key: RandomState::new().hash_one(0u64),
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of slots.
    pub(crate) fn capacity(&self) -> usize {
        self.entries.len()
    }

    fn mask(&self) -> usize {
        self.entries.len() - 1
    }

    /// The slot a lookup of `id` starts at.
    fn home(&self, id: u32) -> usize {
        let mut x = self.key ^ u64::from(id);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        (x ^ (x >> 33)) as usize & self.mask()
    }

    /// The slot holding `id`, if any: one probe from its home slot to the
    /// entry or to the first vacant slot.
    pub(crate) fn find(&self, id: u32) -> Option<u32> {
        let mask = self.mask();
        let mut at = self.home(id);
        loop {
            let entry = &self.entries[at];
            if entry.segment == VACANT_SEGMENT {
                return None;
            }
            if entry.id == id {
                return Some(at as u32);
            }
            at = (at + 1) & mask;
        }
    }

    /// The entry in `slot`.
    pub(crate) fn entry(&self, slot: u32) -> Entry {
        self.entries[slot as usize]
    }

    /// Records that the object in `slot` now lives at `(segment, index)`.
    pub(crate) fn set_place(&mut self, slot: u32, segment: u32, index: u32) {
        let entry = &mut self.entries[slot as usize];
        debug_assert_ne!(entry.segment, VACANT_SEGMENT, "slot {slot} is vacant");
        (entry.segment, entry.index) = (segment, index);
    }

    /// Adds `id` at `(segment, index)` and returns its slot, or `None`
    /// and adds nothing when `id` is stored already: one probe answers
    /// both. When the table would be too full it grows first, and every
    /// entry it holds gets a new slot, reported through `moved`.
    pub(crate) fn insert(
        &mut self,
        id: u32,
        segment: u32,
        index: u32,
        moved: impl FnMut(Entry, u32),
    ) -> Option<u32> {
        debug_assert_ne!(
            segment, VACANT_SEGMENT,
            "segment {segment} cannot be stored"
        );
        if over_full(self.len + 1, self.entries.len()) {
            self.grow(moved);
        }
        let mask = self.mask();
        let mut at = self.home(id);
        while self.entries[at].segment != VACANT_SEGMENT {
            if self.entries[at].id == id {
                return None;
            }
            at = (at + 1) & mask;
        }
        self.entries[at] = Entry { id, segment, index };
        self.len += 1;
        Some(at as u32)
    }

    /// Doubles the slot count and places every entry again.
    fn grow(&mut self, mut moved: impl FnMut(Entry, u32)) {
        let capacity = 2 * self.entries.len();
        let old = std::mem::replace(&mut self.entries, vec![VACANT; capacity]);
        let mask = self.mask();
        for entry in old.into_iter().filter(|e| e.segment != VACANT_SEGMENT) {
            let mut slot = self.home(entry.id);
            while self.entries[slot].segment != VACANT_SEGMENT {
                slot = (slot + 1) & mask;
            }
            self.entries[slot] = entry;
            moved(entry, slot as u32);
        }
    }

    /// Deletes the entry in `slot`. Each entry behind it in its probe
    /// cluster whose home slot does not lie between the hole and itself
    /// shifts back into the hole, reported through `moved`, and leaves
    /// the next hole; the last hole becomes vacant.
    pub(crate) fn remove(&mut self, slot: u32, mut moved: impl FnMut(Entry, u32)) {
        let mask = self.mask();
        let mut hole = slot as usize;
        debug_assert_ne!(
            self.entries[hole].segment, VACANT_SEGMENT,
            "slot {slot} is vacant"
        );
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let entry = self.entries[at];
            if entry.segment == VACANT_SEGMENT {
                break;
            }
            // The entry may fill the hole when the hole lies on its
            // probe path, from its home slot up to itself.
            let probed = at.wrapping_sub(self.home(entry.id)) & mask;
            if probed >= at.wrapping_sub(hole) & mask {
                self.entries[hole] = entry;
                moved(entry, hole as u32);
                hole = at;
            }
        }
        self.entries[hole] = VACANT;
        self.len -= 1;
    }

    /// Moves the entry in `slot` to the vacant slot `to`, whatever its
    /// home: how a test cuts an entry off from its lookup.
    #[cfg(test)]
    pub(crate) fn relocate(&mut self, slot: u32, to: u32) {
        let entry = std::mem::replace(&mut self.entries[slot as usize], VACANT);
        self.entries[to as usize] = entry;
    }

    /// Every stored id, in slot order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries
            .iter()
            .filter(|e| e.segment != VACANT_SEGMENT)
            .map(|e| e.id)
    }

    /// Checks what every lookup relies on: each entry is reachable from
    /// its home slot through occupied slots, and the table holds `len`
    /// entries. An entry is reachable when its home slot lies in the run
    /// of occupied slots the entry sits in, so one pass over the slots
    /// that tracks where the current run starts checks them all. (Two
    /// entries of one id cannot arise: `insert` refuses the second.)
    pub(crate) fn check(&self) -> Result<(), String> {
        let mask = self.mask();
        let Some(last_vacant) = self
            .entries
            .iter()
            .rposition(|e| e.segment == VACANT_SEGMENT)
        else {
            return Err("the id table has no vacant slot".into());
        };
        // Branch-free: whether a slot is vacant follows no pattern.
        let mut run_start = (last_vacant + 1) & mask;
        let (mut occupied, mut first_cut_off) = (0, usize::MAX);
        for (slot, entry) in self.entries.iter().enumerate() {
            let vacant = entry.segment == VACANT_SEGMENT;
            let probed = slot.wrapping_sub(self.home(entry.id)) & mask;
            let cut_off = !vacant & (probed > slot.wrapping_sub(run_start) & mask);
            first_cut_off = first_cut_off.min(if cut_off { slot } else { usize::MAX });
            occupied += usize::from(!vacant);
            run_start = if vacant { slot + 1 } else { run_start };
        }
        if let Some(entry) = self.entries.get(first_cut_off) {
            let (id, home) = (entry.id, self.home(entry.id));
            return Err(format!(
                "id table slot {first_cut_off} (object #{id}) is not reachable from its home slot {home}"
            ));
        }
        if occupied != self.len {
            let len = self.len;
            return Err(format!(
                "the id table counts {len} entries and holds {occupied}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    impl IdTable {
        /// A table of `capacity` slots hashing under `key`.
        fn keyed(capacity: usize, key: u64) -> Self {
            assert!(capacity.is_power_of_two());
            Self {
                entries: vec![VACANT; capacity],
                len: 0,
                key,
            }
        }
    }

    /// Where each stored id's entry sits, kept up to date through the
    /// `moved` callback as a store keeps its members' slots.
    type Slots = HashMap<u32, u32>;

    fn insert(t: &mut IdTable, slots: &mut Slots, id: u32, place: (u32, u32)) {
        let slot = t.insert(id, place.0, place.1, |e, s| {
            slots.insert(e.id, s);
        });
        slots.insert(id, slot.expect("a new id"));
    }

    fn remove(t: &mut IdTable, slots: &mut Slots, id: u32) {
        let slot = slots.remove(&id).expect("id is stored");
        t.remove(slot, |e, s| {
            slots.insert(e.id, s);
        });
    }

    /// Every id that the oracle holds resolves to its place through
    /// `find`, and sits in the slot its owner was told of.
    fn agree(t: &IdTable, slots: &Slots, oracle: &HashMap<u32, (u32, u32)>) {
        assert_eq!(t.len(), oracle.len());
        assert_eq!(t.check(), Ok(()));
        for (&id, &(segment, index)) in oracle {
            let slot = t.find(id).unwrap_or_else(|| panic!("#{id} is lost"));
            assert_eq!(slots[&id], slot, "#{id}'s owner was not told of its slot");
            assert_eq!(t.entry(slot), Entry { id, segment, index });
        }
    }

    /// Ids whose home slot is `slot` in `t`.
    fn homed_at(t: &IdTable, slot: usize, count: usize) -> Vec<u32> {
        (0u32..)
            .filter(|&id| t.home(id) == slot)
            .take(count)
            .collect()
    }

    #[test]
    fn a_deletion_shifts_back_across_the_end_of_the_table() {
        let mut t = IdTable::keyed(16, 0x1234_5678);
        let (mut slots, mut oracle) = (Slots::new(), HashMap::new());
        // Three ids homed at the last slot: they occupy 15, 0 and 1.
        let last = homed_at(&t, 15, 3);
        // One homed at 0, pushed on to slot 2 by the wrapped cluster.
        let first = homed_at(&t, 0, 1)[0];
        for (place, &id) in (0u32..).zip(last.iter().chain([&first])) {
            insert(&mut t, &mut slots, id, (place, place));
            oracle.insert(id, (place, place));
        }
        let at: Vec<u32> = last.iter().chain([&first]).map(|id| slots[id]).collect();
        assert_eq!(at, [15, 0, 1, 2]);
        remove(&mut t, &mut slots, last[0]);
        oracle.remove(&last[0]);
        let at: Vec<u32> = last[1..]
            .iter()
            .chain([&first])
            .map(|id| slots[id])
            .collect();
        assert_eq!(
            at,
            [15, 0, 1],
            "every entry behind the hole shifted back, across the end"
        );
        agree(&t, &slots, &oracle);
        // Deleting the head of the cluster shifts the rest back again.
        remove(&mut t, &mut slots, last[1]);
        oracle.remove(&last[1]);
        agree(&t, &slots, &oracle);
        assert_eq!(
            (slots[&last[2]], slots[&first]),
            (15, 0),
            "each at its home slot now"
        );
    }

    #[test]
    fn growth_reports_every_entry_and_keeps_the_load_under_three_quarters() {
        let mut t = IdTable::with_capacity(0);
        let (mut slots, mut oracle) = (Slots::new(), HashMap::new());
        for id in 0..1000u32 {
            insert(&mut t, &mut slots, id << 12, (id % 7, id));
            oracle.insert(id << 12, (id % 7, id));
            assert!(!over_full(t.len(), t.capacity()));
        }
        assert_eq!(t.capacity(), 2048);
        agree(&t, &slots, &oracle);
        assert_eq!(
            IdTable::with_capacity(1000).capacity(),
            2048,
            "sized once for 1 000"
        );
        assert_eq!(IdTable::with_capacity(12).capacity(), 16);
        assert_eq!(IdTable::with_capacity(13).capacity(), 32);
    }

    #[test]
    fn check_catches_an_entry_cut_off_from_its_home_slot() {
        let mut t = IdTable::keyed(16, 7);
        let ids = homed_at(&t, 3, 2);
        let mut slots = Slots::new();
        for &id in &ids {
            insert(&mut t, &mut slots, id, (0, 0));
        }
        assert_eq!(t.check(), Ok(()));
        t.entries[3] = VACANT;
        t.len -= 1;
        let err = t.check().unwrap_err();
        assert!(
            err.contains("slot 4") && err.contains("home slot 3"),
            "{err}"
        );
    }

    /// Home slots are the hash's low bits. Dense ids and ids strided by
    /// a power of two must spread over them as a random function would
    /// (which fills 1 − 1/e of them), under every key a table draws; a
    /// hash that keeps the low id bits puts the strided runs in a
    /// handful.
    #[test]
    fn id_hash_spreads_dense_and_strided_ids_over_the_home_slots() {
        const SLOTS: usize = 4096;
        for _ in 0..8 {
            let t = IdTable::keyed(SLOTS, IdTable::with_capacity(0).key);
            for shift in [0, 8, 16, 20] {
                let mut filled = vec![false; SLOTS];
                for i in 0..SLOTS as u32 {
                    filled[t.home(i << shift)] = true;
                }
                let filled = filled.iter().filter(|&&f| f).count();
                assert!(
                    2 * filled >= SLOTS,
                    "ids i << {shift} fill {filled} of {SLOTS} home slots (key {:#x})",
                    t.key
                );
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// Insert the id, unless stored.
            Insert(u32),
            /// Delete the id, if stored.
            Remove(u32),
            /// Look the id up.
            Find(u32),
        }

        fn op() -> impl Strategy<Value = Op> {
            // Few distinct ids, so that deletions find what they delete.
            let id = 0u32..96;
            prop_oneof![
                4 => id.clone().prop_map(Op::Insert),
                3 => id.clone().prop_map(Op::Remove),
                2 => id.prop_map(Op::Find),
            ]
        }

        proptest! {
            /// The table holds what a `HashMap` of id → place holds, after
            /// arbitrary inserts (a stored id's refused), deletions and
            /// lookups from a 16-slot start (so tables grow, and probe
            /// clusters and backward shifts wrap past the end of small
            /// ones); every entry the table moves is reported, so each
            /// id's owner always knows its slot.
            #[test]
            fn id_table_matches_a_hash_map(key in 0u64..u64::MAX, ops in prop::collection::vec(op(), 1..300)) {
                let mut t = IdTable::keyed(16, key);
                let (mut slots, mut oracle) = (Slots::new(), HashMap::new());
                for (step, op) in (0u32..).zip(ops) {
                    match op {
                        Op::Insert(id) => {
                            let stored = oracle.contains_key(&id);
                            let slot = t.insert(id, id % 5, step, |e, s| {
                                slots.insert(e.id, s);
                            });
                            if stored {
                                prop_assert_eq!(slot, None, "#{} stored twice", id);
                            } else {
                                slots.insert(id, slot.expect("a new id"));
                                oracle.insert(id, (id % 5, step));
                            }
                        }
                        Op::Remove(id) => {
                            if oracle.remove(&id).is_none() { continue; }
                            remove(&mut t, &mut slots, id);
                        }
                        Op::Find(id) => {
                            let found = t.find(id).map(|slot| t.entry(slot));
                            let want = oracle.get(&id).map(|&(segment, index)| Entry { id, segment, index });
                            prop_assert_eq!(found, want);
                        }
                    }
                    prop_assert_eq!(t.len(), oracle.len());
                    prop_assert_eq!(t.check(), Ok(()));
                    for (&id, &slot) in &slots {
                        prop_assert_eq!(t.find(id), Some(slot), "#{}'s owner holds a stale slot", id);
                    }
                    let mut ids: Vec<u32> = t.ids().collect();
                    let mut want: Vec<u32> = oracle.keys().copied().collect();
                    ids.sort_unstable();
                    want.sort_unstable();
                    prop_assert_eq!(ids, want);
                }
            }
        }
    }
}
