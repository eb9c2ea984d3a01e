//! Virtual candidate subclusters (paper §3.2, §4.2), stored column-wise.
//!
//! Every materialized cluster carries a set of *candidate* subclusters —
//! potential specializations of its signature on a single dimension. Only
//! their performance indicators (`n` objects, `q` matching queries) are
//! maintained; a candidate becomes a real cluster only when the
//! materialization benefit function selects it.
//!
//! ## Layout
//!
//! In dimension `d` a cluster's candidates are the feasible cells
//! `(i, j)` of `f` start × `f` end subintervals (§4.2). A candidate's
//! start bounds depend only on `(d, i)` and its end bounds only on
//! `(d, j)`, so [`CandidateSet`] stores each dimension's subinterval
//! bounds once — `f` entries per dimension, entry `k` holding the `k`-th
//! start and the `k`-th end subinterval — and per candidate only its
//! identity (`dim`, `sub_i`, `sub_j`, grouped by dimension) and its
//! counters (`n`, `q`, `q_eff`).
//!
//! A subinterval is stored as its lower bound and its *reach*: the
//! largest value it contains, `hi` when closed and
//! [`f32::next_down`]`(hi)` when open. For finite `f32` this encodes the
//! half-open semantics losslessly — `contains(v) ⇔ lo ≤ v ≤ reach` and
//! `can_reach(x) ⇔ reach ≥ x` — so every test is one comparison,
//! bit-identical to the [`SigInterval`] predicates.
//!
//! ## Noting a query: one cut-point cell per dimension
//!
//! Every relation is `start side ∧ end side` against per-dimension
//! thresholds `(t1, t2)` (`query_sides!`): containment tests a start
//! subinterval's reach against `t2` and an end subinterval's lower bound
//! against `t1`, the other kinds the start's lower bound against `t1`
//! and the end's reach against `t2` — the comparisons
//! [`CandidateSet::matches_query`] makes per candidate, factored.
//! [`CandidateSet::note_query`] makes them on each dimension's `f`
//! start and `f` end subintervals — `2f` comparisons — and bumps one
//! cell, leaving `q` for later. [`CandidateSet::generate`] writes each
//! dimension's bounds in non-decreasing order of subinterval index
//! (`subdivide` computes `lo + w·k` with a finite `w ≥ 0`), so the
//! start-side outcomes of a query are a prefix or a suffix of the `f`
//! entries, and so are the end-side ones. Their counts `s` and `e` —
//! the query's cut points — name the cells it matches, a quadrant of
//! the `(i, j)` grid: intersection, enclosure and point queries match
//! `i < s` and `j ≥ f − e`; containment queries match `i ≥ f − s` and
//! `j < e`. `note_query` bumps cell `(s − 1, f − e)` of the dimension's
//! `f × f` table (nothing when `s` or `e` is zero), one table per
//! dimension for containment and one for the other kinds. An expansion
//! ([`CandidateSet::expand`]) turns every table into its dominance sums
//! and adds each candidate's to its `q`: one sweep per dimension, O(f²).
//! It runs before anything reads or folds `q` — the lazy-decay fold,
//! the pass's scan, the checkpoint writer (on a copy) — and before a
//! `u16` cell could overflow. Every increment is non-negative, so one
//! saturating add at expansion leaves what saturating at every bump
//! leaves: the counts equal the [`CandidateSet::matches_query`] loop's.
//!
//! Candidate counters saturate instead of wrapping: a `u32` query
//! counter that hits `u32::MAX` stays pinned there (the benefit
//! functions only compare magnitudes, so saturation is benign; wrapping
//! would invert a reorganization decision).
//!
//! ## One set per cluster
//!
//! The index keeps one owned [`CandidateSet`] per cluster slot, beside
//! the cluster (§3.2 keeps a cluster's statistics with it). A set's
//! fixed columns are written once, by [`CandidateSet::generate`], and
//! never change; its counters, cut tables, `n_hi` bound and lazy-decay
//! stamp are the only state the index writes. A merge takes the dying
//! slot's set out, which frees it; a materialization generates a fresh
//! one into the new slot.

use std::borrow::Cow;

use acx_geom::scan::PairedColumns;
use acx_geom::tier::Tier;
use acx_geom::{Scalar, SpatialQuery};

use crate::signature::{SigInterval, Signature};

/// Largest value a [`SigInterval`] contains: its upper bound when
/// closed, the next `f32` below when open (exact for finite bounds).
#[inline]
fn reach_of(iv: &SigInterval) -> Scalar {
    if iv.hi_open() {
        iv.hi().next_down()
    } else {
        iv.hi()
    }
}

/// The `k`-th start and the `k`-th end subinterval of one dimension,
/// each as lower bound and reach.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SubBounds {
    start_lo: Scalar,
    start_reach: Scalar,
    end_lo: Scalar,
    end_reach: Scalar,
}

/// The identity of one candidate: specialization `(i, j)` of dimension
/// `dim`, materialized on demand from the [`CandidateSet`] columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateId {
    /// Specialized dimension.
    pub dim: u16,
    /// Index of the start subinterval (`0..f`).
    pub i: u8,
    /// Index of the end subinterval (`0..f`).
    pub j: u8,
}

/// The membership bounds of one candidate, copied out of the columns —
/// used by reorganization while the set itself is mutably borrowed.
#[derive(Debug, Clone, Copy)]
pub struct CandidateBounds {
    dim: usize,
    start_lo: Scalar,
    start_reach: Scalar,
    end_lo: Scalar,
    end_reach: Scalar,
}

impl CandidateBounds {
    /// Whether an object *that already satisfies the parent signature*
    /// also satisfies this candidate (only the specialized dimension
    /// needs to be checked).
    #[inline]
    pub fn accepts_member(&self, flat: &[Scalar]) -> bool {
        self.accepts_bounds(flat[2 * self.dim], flat[2 * self.dim + 1])
    }

    /// The specialized dimension: the only one that tells a member of
    /// the parent from a member of the candidate.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// [`CandidateBounds::accepts_member`] given the object's bounds in
    /// [`CandidateBounds::dim`] alone.
    #[inline]
    pub fn accepts_bounds(&self, lo: Scalar, hi: Scalar) -> bool {
        self.start_lo <= lo && lo <= self.start_reach && self.end_lo <= hi && hi <= self.end_reach
    }

    /// How many members this candidate accepts, given their bounds in
    /// [`CandidateBounds::dim`] as the columns `lo` and `hi`: the
    /// member loop of every member-count pass
    /// ([`CandidateSet::count_members`]), on every tier. The four
    /// comparisons are combined with `&` rather than `&&`, so the loop
    /// has no branch and vectorizes.
    #[inline(always)]
    pub fn count_in(&self, lo: &[Scalar], hi: &[Scalar]) -> u32 {
        lo.iter()
            .zip(hi)
            .map(|(&a, &b)| {
                u32::from(
                    (self.start_lo <= a)
                        & (a <= self.start_reach)
                        & (self.end_lo <= b)
                        & (b <= self.end_reach),
                )
            })
            .sum()
    }
}

/// The candidate subclusters of one cluster signature as owned,
/// dimension-grouped columns (see the module docs), with their counters.
/// The default set is empty: what a free cluster slot holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CandidateSet {
    /// Candidate range per dimension, `dims + 1` entries: dimension `d`
    /// owns candidates `dim_offsets[d] .. dim_offsets[d + 1]`.
    dim_offsets: Vec<u32>,
    /// Subinterval bounds, `f` entries per dimension: entry `d·f + k`
    /// holds dimension `d`'s `k`-th start and end subintervals.
    sub: Vec<SubBounds>,
    /// The division factor `f`.
    f: u8,
    /// Specialized dimension per candidate (redundant with the offsets,
    /// kept for O(1) per-candidate access).
    dim: Vec<u16>,
    /// Start subinterval index per candidate.
    sub_i: Vec<u8>,
    /// End subinterval index per candidate.
    sub_j: Vec<u8>,
    /// Member objects of the parent qualifying for each candidate.
    n: Vec<u32>,
    /// Queries matching each candidate since the last statistics epoch
    /// (saturating).
    q: Vec<u32>,
    /// Exponentially decayed query count from previous epochs (smooths
    /// the access-probability estimate across reorganization periods).
    q_eff: Vec<f64>,
    /// Cached **upper bound** on `max(n)`: raised whenever a member
    /// recording pushes a counter above it, left untouched by removals
    /// (so it may be loose, never low), and re-tightened to the exact
    /// maximum whenever a reorganization scan walks the counters anyway.
    /// The incremental reorganization's O(1) no-split screen prices its
    /// most-profitable-possible candidate with this bound; a loose bound
    /// only costs an unnecessary scan, never a wrong decision.
    n_hi: u32,
    /// Statistics epoch up to which this set's lazy decay is applied
    /// (the index's `stats_epoch` at the last touch).
    stamp: u64,
    /// Noted queries not yet in `q` (see the module docs): `dims`
    /// tables of `f × f` cells for intersection, enclosure and point
    /// queries, then `dims` for containment. Cell `(s − 1, f − e)` of a
    /// table counts the noted queries with cut points `s` and `e` in
    /// its dimension.
    cuts: Vec<u16>,
    /// Queries noted since the last expansion: at most `u16::MAX`, so
    /// no cell overflows.
    notes: u16,
    /// Which halves of `cuts` hold notes: bit 0 the first, bit 1 the
    /// containment half.
    pending: u8,
}

/// An index into a set's per-candidate columns (its statistics slabs) as
/// the `u32` its `dim_offsets` hold.
///
/// # Panics
///
/// Panics if `index` does not fit in a `u32`, rather than wrap into an
/// offset that misreads another dimension's run. `IndexConfig::validate`
/// bounds a cluster's candidates by one checkpoint frame, far below.
fn slab_index(index: usize) -> u32 {
    u32::try_from(index).expect("a statistics slab holds at most u32::MAX entries")
}

/// Rewrites one dimension's `f × f` table of notes as its dominance
/// sums, in place: running column sums from the last row up, then a
/// prefix over each row's columns, so that cell `(x, y)` holds the notes
/// of every cell `(r, c)` with `r ≥ x` and `c ≤ y` — the queries that
/// match candidate `(x, y)` (see the module docs). A sum is at most the
/// notes, which fit a `u16`.
fn dominance_sums(table: &mut [u16], f: usize) {
    for x in (0..f - 1).rev() {
        let (row, below) = table[x * f..].split_at_mut(f);
        for (c, &n) in row.iter_mut().zip(&below[..f]) {
            *c += n;
        }
    }
    for row in table.chunks_exact_mut(f) {
        for c in 1..f {
            row[c] += row[c - 1];
        }
    }
}

/// How the candidate tests read a query (see the module docs): binds
/// `$containment` to whether it is a containment query and `$sides` to
/// an iterator over each dimension's thresholds `(t1, t2)`, then
/// evaluates `$then`, compiled once per query kind. Noting a query and
/// logging one into a [`crate::StatsDelta`] both read it through here.
macro_rules! query_sides {
    ($query:expr, |$containment:ident, $sides:ident| $then:expr) => {{
        use acx_geom::SpatialQuery as Q;
        match $query {
            Q::Intersection(w) | Q::Containment(w) => {
                let $containment = matches!($query, Q::Containment(_));
                let $sides = w.intervals().iter().map(|q| (q.hi(), q.lo()));
                $then
            }
            Q::Enclosure(w) => {
                let ($containment, $sides) =
                    (false, w.intervals().iter().map(|q| (q.lo(), q.hi())));
                $then
            }
            Q::PointEnclosing(p) => {
                let ($containment, $sides) = (false, p.iter().map(|&v| (v, v)));
                $then
            }
        }
    }};
}
pub(crate) use query_sides;

impl CandidateSet {
    /// Generates the candidate set of a cluster signature: for each
    /// dimension, the bounds of its `f` start and `f` end subintervals
    /// and every feasible `(i, j)` combination of them (paper §4.2).
    /// Candidate counters start at zero.
    pub fn generate(sig: &Signature, f: u8) -> Self {
        // Sized once: at most `f²` combinations per dimension.
        let dims = sig.dims();
        let (per_dim, combinations) = (usize::from(f), usize::from(f) * usize::from(f));
        let mut dim_offsets = Vec::with_capacity(dims + 1);
        dim_offsets.push(0);
        let mut set = Self {
            dim_offsets,
            sub: Vec::with_capacity(dims * per_dim),
            f,
            dim: Vec::with_capacity(dims * combinations),
            sub_i: Vec::with_capacity(dims * combinations),
            sub_j: Vec::with_capacity(dims * combinations),
            ..Self::default()
        };
        for d in 0..dims {
            let ds = sig.dim(d);
            for k in 0..f {
                let (start, end) = (ds.start.subdivide(f, k), ds.end.subdivide(f, k));
                set.sub.push(SubBounds {
                    start_lo: start.lo(),
                    start_reach: reach_of(&start),
                    end_lo: end.lo(),
                    end_reach: reach_of(&end),
                });
            }
            for i in 0..f {
                for j in 0..f {
                    if sig.combination_feasible(d, f, i, j) {
                        set.dim.push(d as u16);
                        set.sub_i.push(i);
                        set.sub_j.push(j);
                    }
                }
            }
            set.dim_offsets.push(slab_index(set.dim.len()));
        }
        let len = set.dim.len();
        set.n = vec![0; len];
        set.q = vec![0; len];
        set.q_eff = vec![0.0; len];
        set.cuts = vec![0; 2 * dims * combinations];
        set
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.dim.len()
    }

    /// Whether the set holds no candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dim.is_empty()
    }

    /// Number of dimensions the candidates specialize (`0` for the empty
    /// default set).
    #[inline]
    pub fn dims(&self) -> usize {
        self.dim_offsets.len().saturating_sub(1)
    }

    /// Whether `other` fixes the same columns as this set — offsets,
    /// subinterval bounds, `f`, every candidate's identity and the size
    /// of the cut tables — whatever either's counters and notes hold.
    pub fn same_layout(&self, other: &CandidateSet) -> bool {
        self.dim_offsets == other.dim_offsets
            && self.sub == other.sub
            && self.f == other.f
            && self.dim == other.dim
            && self.sub_i == other.sub_i
            && self.sub_j == other.sub_j
            && self.cuts.len() == other.cuts.len()
    }

    /// Bytes the set's columns hold: 20 per candidate (`dim` 2, `sub_i`
    /// and `sub_j` 1 each, `n` and `q` 4 each, `q_eff` 8), 4 per offset,
    /// 16 per subinterval entry (four `f32` bounds) and 2 per cut-table
    /// cell (`2·f²` per dimension, so `4·dims·f²` bytes).
    pub fn bytes(&self) -> usize {
        self.len() * 20 + self.dim_offsets.len() * 4 + self.sub.len() * 16 + self.cuts.len() * 2
    }

    /// Dimension `d`'s candidates.
    fn run(&self, d: usize) -> std::ops::Range<usize> {
        self.dim_offsets[d] as usize..self.dim_offsets[d + 1] as usize
    }

    /// Dimension `d`'s `f` subinterval entries.
    fn subs(&self, d: usize) -> &[SubBounds] {
        let f = self.f as usize;
        &self.sub[d * f..(d + 1) * f]
    }

    /// The identity of candidate `ci`.
    pub fn id(&self, ci: usize) -> CandidateId {
        CandidateId {
            dim: self.dim[ci],
            i: self.sub_i[ci],
            j: self.sub_j[ci],
        }
    }

    /// The membership bounds of candidate `ci`, copied out.
    #[inline]
    pub fn bounds(&self, ci: usize) -> CandidateBounds {
        let (d, f) = (self.dim[ci] as usize, self.f as usize);
        let start = &self.sub[d * f + self.sub_i[ci] as usize];
        let end = &self.sub[d * f + self.sub_j[ci] as usize];
        CandidateBounds {
            dim: d,
            start_lo: start.start_lo,
            start_reach: start.start_reach,
            end_lo: end.end_lo,
            end_reach: end.end_reach,
        }
    }

    /// Qualifying-member count of candidate `ci`.
    #[inline]
    pub fn n(&self, ci: usize) -> u32 {
        self.n[ci]
    }

    /// Matching-query count of candidate `ci` in the current epoch.
    /// The set holds no unexpanded notes ([`CandidateSet::expand`]).
    #[inline]
    pub fn q(&self, ci: usize) -> u32 {
        debug_assert_eq!(self.pending, 0, "q read with notes pending");
        self.q[ci]
    }

    /// Decayed matching-query history of candidate `ci`.
    #[inline]
    pub fn q_eff(&self, ci: usize) -> f64 {
        self.q_eff[ci]
    }

    /// The qualifying-member counter column (parallel to the candidate
    /// index) — input of the batched benefit evaluation.
    #[inline]
    pub fn n_col(&self) -> &[u32] {
        &self.n
    }

    /// The epoch matching-query counter column. The set holds no
    /// unexpanded notes ([`CandidateSet::expand`]).
    #[inline]
    pub fn q_col(&self) -> &[u32] {
        debug_assert_eq!(self.pending, 0, "q read with notes pending");
        &self.q
    }

    /// The epoch matching-query counter column with the pending notes
    /// added, leaving the set as it is: what [`CandidateSet::q_col`]
    /// reads after an expansion. The checkpoint writer saves it.
    pub(crate) fn expanded_q(&self) -> Cow<'_, [u32]> {
        if self.pending == 0 {
            return Cow::Borrowed(&self.q);
        }
        let (mut cuts, mut q) = (self.cuts.clone(), self.q.clone());
        self.add_notes(&mut cuts, &mut q);
        Cow::Owned(q)
    }

    /// The decayed matching-query history column.
    #[inline]
    pub fn q_eff_col(&self) -> &[f64] {
        &self.q_eff
    }

    /// Cached upper bound on the maximal qualifying-member count over
    /// all candidates (may be loose, never low).
    #[inline]
    pub fn n_hi(&self) -> u32 {
        self.n_hi
    }

    /// Statistics epoch up to which this set's lazy decay is applied.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Whether an object *that already satisfies the parent signature*
    /// also satisfies candidate `ci`.
    #[inline]
    pub fn accepts_member(&self, ci: usize, flat: &[Scalar]) -> bool {
        self.bounds(ci).accepts_member(flat)
    }

    /// Whether a query *that already matches the parent signature* also
    /// matches candidate `ci` (only the specialized dimension is
    /// checked) — the per-candidate oracle of
    /// [`CandidateSet::note_query`].
    #[inline]
    pub fn matches_query(&self, ci: usize, query: &SpatialQuery) -> bool {
        let c = self.bounds(ci);
        match query {
            SpatialQuery::Intersection(w) => {
                let q = w.interval(c.dim);
                c.start_lo <= q.hi() && c.end_reach >= q.lo()
            }
            SpatialQuery::Containment(w) => {
                let q = w.interval(c.dim);
                c.end_lo <= q.hi() && c.start_reach >= q.lo()
            }
            SpatialQuery::Enclosure(w) => {
                let q = w.interval(c.dim);
                c.start_lo <= q.lo() && c.end_reach >= q.hi()
            }
            SpatialQuery::PointEnclosing(p) => {
                let v = p[c.dim];
                c.start_lo <= v && c.end_reach >= v
            }
        }
    }

    /// Notes one query for every candidate it matches: one cut-point
    /// cell per dimension (see the module docs), which the next
    /// [`CandidateSet::expand`] adds into `q`.
    pub fn note_query(&mut self, query: &SpatialQuery) {
        debug_assert_eq!(query.dims(), self.dims(), "dimensionality mismatch");
        query_sides!(query, |containment, sides| self
            .note_sides(containment, sides))
    }

    /// [`CandidateSet::note_query`] given the query's `query_sides!`:
    /// every statistics-writing path notes through it.
    pub(crate) fn note_sides(
        &mut self,
        containment: bool,
        thresholds: impl Iterator<Item = (Scalar, Scalar)>,
    ) {
        if self.notes == u16::MAX {
            self.expand();
        }
        self.notes += 1;
        let f = self.f as usize;
        let half = usize::from(containment);
        self.pending |= 1 << half;
        let per_half = self.cuts.len() / 2;
        let tables = self.cuts[half * per_half..][..per_half].chunks_exact_mut(f * f);
        for ((subs, table), (t1, t2)) in self.sub.chunks_exact(f).zip(tables).zip(thresholds) {
            let (mut s, mut e) = (0, 0);
            for b in subs {
                let (start_ok, end_ok) = if containment {
                    (b.start_reach >= t2, b.end_lo <= t1)
                } else {
                    (b.start_lo <= t1, b.end_reach >= t2)
                };
                s += usize::from(start_ok);
                e += usize::from(end_ok);
            }
            if s > 0 && e > 0 {
                table[(s - 1) * f + (f - e)] += 1;
            }
        }
    }

    /// Adds every noted query into `q` and clears the notes (see the
    /// module docs); a no-op when nothing is pending.
    pub fn expand(&mut self) {
        if self.pending == 0 {
            return;
        }
        let (mut cuts, mut q) = (std::mem::take(&mut self.cuts), std::mem::take(&mut self.q));
        self.add_notes(&mut cuts, &mut q);
        (self.cuts, self.q) = (cuts, q);
        self.clear_notes();
    }

    /// Turns each pending table of `cuts` (the set's own or a copy) into
    /// its dominance sums and adds each candidate's cell into `q`:
    /// candidate `(i, j)` reads cell `(i, j)`, or `(f − 1 − i, f − 1 − j)`
    /// in the containment half, whose cut points run the other way.
    fn add_notes(&self, cuts: &mut [u16], q: &mut [u32]) {
        let f = self.f as usize;
        let per_half = cuts.len() / 2;
        for half in 0..2 {
            if self.pending >> half & 1 == 0 {
                continue;
            }
            let tables = cuts[half * per_half..][..per_half].chunks_exact_mut(f * f);
            for (table, run) in tables.zip(self.dim_offsets.windows(2)) {
                dominance_sums(table, f);
                let run = run[0] as usize..run[1] as usize;
                let cells = self.sub_i[run.clone()].iter().zip(&self.sub_j[run.clone()]);
                for (c, (&i, &j)) in q[run].iter_mut().zip(cells) {
                    let (i, j) = (usize::from(i), usize::from(j));
                    let (x, y) = if half == 1 {
                        (f - 1 - i, f - 1 - j)
                    } else {
                        (i, j)
                    };
                    *c = c.saturating_add(u32::from(table[x * f + y]));
                }
            }
        }
    }

    /// Zeroes the halves of the cut tables that hold notes.
    fn clear_notes(&mut self) {
        let per_half = self.cuts.len() / 2;
        for half in 0..2 {
            if self.pending >> half & 1 == 1 {
                self.cuts[half * per_half..][..per_half].fill(0);
            }
        }
        (self.pending, self.notes) = (0, 0);
    }

    /// Materializes the full signature of candidate `ci`.
    pub fn signature(&self, ci: usize, parent: &Signature) -> Signature {
        let id = self.id(ci);
        parent.specialize(id.dim as usize, self.f, id.i, id.j)
    }

    /// Counts, from scratch, how many of `members` (the parent
    /// cluster's segment columns) each candidate accepts, into `out`
    /// (one entry per candidate), on `tier`. Independent of the
    /// incremental [`CandidateSet::record_member`] bookkeeping, which is
    /// what lets `check_invariants` audit that bookkeeping with it.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly one entry per candidate.
    pub fn count_members(&self, tier: Tier, members: &PairedColumns<'_>, out: &mut [u32]) {
        assert_eq!(out.len(), self.len(), "one member count per candidate");
        fold_counts(tier, self, members, out, &mut |n, count| *n = count);
    }

    /// Counts a new member of the parent cluster into every candidate
    /// accepting it.
    pub fn record_member(&mut self, flat: &[Scalar]) {
        self.adjust_member(flat, true);
    }

    /// Removes a departing member of the parent cluster from every
    /// candidate accepting it.
    pub fn unrecord_member(&mut self, flat: &[Scalar]) {
        self.adjust_member(flat, false);
    }

    /// At most one candidate per dimension run accepts a member: the `f`
    /// start subintervals of a variation interval are disjoint, and so
    /// are the `f` end subintervals (§4.2), so one `(i, j)` cell holds
    /// the member's start and end — or none does, when that cell was
    /// dropped as infeasible. The scan therefore stops at the first
    /// accepting candidate of each run; debug builds scan the rest of
    /// the run and insist nothing else accepts. As in
    /// [`CandidateSet::note_query`], each subinterval is tested once per
    /// dimension and a candidate reads its two outcomes.
    fn adjust_member(&mut self, flat: &[Scalar], add: bool) {
        let (mut start_in, mut end_in) = ([0u8; 256], [0u8; 256]);
        for d in 0..self.dims() {
            let (a, b) = (flat[2 * d], flat[2 * d + 1]);
            for (k, s) in self.subs(d).iter().enumerate() {
                start_in[k] = ((s.start_lo <= a) & (a <= s.start_reach)) as u8;
                end_in[k] = ((s.end_lo <= b) & (b <= s.end_reach)) as u8;
            }
            let accepts = |ci: usize| {
                start_in[self.sub_i[ci] as usize] & end_in[self.sub_j[ci] as usize] == 1
            };
            let run = self.run(d);
            let Some(ci) = run.clone().find(|&ci| accepts(ci)) else {
                continue;
            };
            debug_assert!(
                !(ci + 1..run.end).any(accepts),
                "two candidates of dimension {d} accept the member {flat:?}"
            );
            if add {
                self.n[ci] += 1;
                self.n_hi = self.n_hi.max(self.n[ci]);
            } else {
                debug_assert!(self.n[ci] > 0);
                self.n[ci] -= 1;
            }
        }
    }

    /// Counts members arriving in the parent cluster — a merged child's
    /// segment columns — into every candidate accepting them: one
    /// [`CandidateSet::count_members`] pass per candidate, which is
    /// what [`CandidateSet::record_member`] of each member leaves,
    /// `n_hi` included (raised to each count that grew).
    pub fn record_members(&mut self, members: &PairedColumns<'_>) {
        let (mut n, mut n_hi) = (std::mem::take(&mut self.n), self.n_hi);
        fold_counts(Tier::best(), self, members, &mut n, &mut |n, arriving| {
            if arriving > 0 {
                *n += arriving;
                n_hi = n_hi.max(*n);
            }
        });
        (self.n, self.n_hi) = (n, n_hi);
    }

    /// Removes members leaving the parent cluster — a split's new child
    /// segment columns — from every candidate accepting them: one
    /// [`CandidateSet::count_members`] pass per candidate, which is
    /// what [`CandidateSet::unrecord_member`] of each member leaves.
    pub fn unrecord_members(&mut self, members: &PairedColumns<'_>) {
        let mut n = std::mem::take(&mut self.n);
        fold_counts(Tier::best(), self, members, &mut n, &mut |n, leaving| {
            debug_assert!(*n >= leaving);
            *n -= leaving;
        });
        self.n = n;
    }

    /// Replaces every candidate's member count with a recount over
    /// `members` — the parent cluster's segment columns — and the
    /// cached bound with their exact maximum
    /// ([`CandidateSet::count_members`], written in place): what
    /// recording each member once into zeroed counters leaves, at a
    /// column pass per candidate instead of a candidate run per member.
    pub fn recount_members(&mut self, members: &PairedColumns<'_>) {
        let mut n = std::mem::take(&mut self.n);
        fold_counts(Tier::best(), self, members, &mut n, &mut |n, count| {
            *n = count
        });
        self.n_hi = n.iter().copied().max().unwrap_or(0);
        self.n = n;
    }

    /// Adds `inc` matching queries to candidate `ci`, saturating at
    /// `u32::MAX` instead of wrapping: how tests set one counter.
    #[cfg(test)]
    pub(crate) fn add_q(&mut self, ci: usize, inc: u32) {
        self.q[ci] = self.q[ci].saturating_add(inc);
    }

    /// Closes the statistics epoch: expands the pending notes, folds
    /// each candidate's `q` into its decayed history with weight `gamma`
    /// and resets the epoch counter.
    pub fn decay(&mut self, gamma: f64) {
        self.expand();
        for (q_eff, q) in self.q_eff.iter_mut().zip(self.q.iter_mut()) {
            *q_eff = gamma * *q_eff + *q as f64;
            *q = 0;
        }
    }

    /// Replays `epochs` missed statistics-epoch closes at once — the
    /// lazy-decay catch-up applied on the first touch after epoch rolls.
    ///
    /// Bit-identical to calling [`CandidateSet::decay`] `epochs`
    /// times: the first replayed close folds the pending `q` counters
    /// (which accumulated while the set's stamp epoch was open — later
    /// epochs saw no touches, so their folds add exactly zero), and
    /// every further close multiplies the history by `gamma`.
    /// `γ·x + 0.0` equals `γ·x` bitwise for the non-negative histories
    /// stored here, so the catch-up runs the pure multiplications,
    /// element-major: each history stops at its own underflow to exactly
    /// `+0.0` (multiplying `+0.0` further is the identity), so a
    /// mostly-cold set costs one check per zero history regardless of
    /// how many epochs it slept. Saturated `q` counters (pinned at
    /// `u32::MAX`) fold like any other value. The worst case is bounded
    /// by the rounds a history needs to underflow (≈ 1 100 for the
    /// index's `γ =` [`crate::STATS_DECAY`]; a `γ` near 1 pays
    /// proportionally more, but only once, on the first touch after the
    /// idle stretch — the same multiplications an eager fold would have
    /// spread across the idle epochs).
    pub fn catch_up(&mut self, gamma: f64, epochs: u64) {
        if epochs == 0 {
            return;
        }
        self.decay(gamma);
        for q_eff in self.q_eff.iter_mut() {
            for _ in 1..epochs {
                if *q_eff == 0.0 {
                    break;
                }
                *q_eff *= gamma;
            }
        }
    }

    /// Brings the counters up to statistics epoch `epoch` by replaying
    /// the closes the set's stamp lags behind
    /// ([`CandidateSet::catch_up`] at [`crate::STATS_DECAY`]) — a
    /// no-op for a set already there.
    pub(crate) fn catch_up_to(&mut self, epoch: u64) {
        let behind = epoch - self.stamp;
        if behind > 0 {
            self.catch_up(crate::STATS_DECAY, behind);
            self.stamp = epoch;
        }
    }

    /// The member-count column, writable: lets tests break the counts
    /// the index's consistency check must catch.
    #[cfg(test)]
    pub(crate) fn n_col_mut(&mut self) -> &mut [u32] {
        &mut self.n
    }

    /// Re-tightens the cached bound to the exact maximum, as computed by
    /// a pass that walked the `n` column anyway.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `exact_max` really bounds every counter.
    pub(crate) fn set_n_hi(&mut self, exact_max: u32) {
        debug_assert!(self.n.iter().all(|&n| n <= exact_max));
        self.n_hi = exact_max;
    }

    /// Advances the lazy-decay stamp to `epoch`.
    pub(crate) fn set_stamp(&mut self, epoch: u64) {
        self.stamp = epoch;
    }

    /// Restores saved query counters, `n_hi` bound and decay stamp onto
    /// the set and drops its notes, leaving the `n` column as it is —
    /// the checkpoint-recovery path (`n` is never persisted: the load
    /// recounts it from the members, [`CandidateSet::recount_members`]),
    /// and how the pass's debug tripwire puts back what its scan
    /// touched.
    ///
    /// # Panics
    ///
    /// Panics if the column lengths do not match this set's candidate
    /// count; callers validate against the checkpoint before reaching
    /// here, so a mismatch is a logic error.
    pub(crate) fn restore_counters(&mut self, q: &[u32], q_eff: &[f64], n_hi: u32, stamp: u64) {
        assert_eq!(q.len(), self.q.len(), "restored q column length");
        assert_eq!(
            q_eff.len(),
            self.q_eff.len(),
            "restored q_eff column length"
        );
        self.q.copy_from_slice(q);
        self.q_eff.copy_from_slice(q_eff);
        self.clear_notes();
        // A bound saved for these members is never below their counts; a
        // damaged or hand-built checkpoint's may be, so keep whichever is
        // higher (the bound may be loose, never low).
        let replayed_max = self.n.iter().copied().max().unwrap_or(0);
        self.n_hi = n_hi.max(replayed_max);
        self.stamp = stamp;
    }
}

acx_geom::tiered! {
    /// Folds each candidate's count of `members` into its entry of `n`
    /// by `fold(entry, count)`: the body of every member-count pass. Per
    /// candidate, one pass over the lower- and upper-bound columns of
    /// its specialized dimension ([`CandidateBounds::count_in`]).
    fn fold_counts(
        set: &CandidateSet,
        members: &PairedColumns<'_>,
        n: &mut [u32],
        fold: &mut impl FnMut(&mut u32, u32),
    ) {
        for d in 0..set.dims() {
            let (lo, hi) = (members.lo_col(d), members.hi_col(d));
            for ci in set.run(d) {
                fold(&mut n[ci], set.bounds(ci).count_in(lo, hi));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::tests::edge_values;
    use acx_geom::HyperRect;

    fn rect(lo: &[Scalar], hi: &[Scalar]) -> HyperRect {
        HyperRect::from_bounds(lo, hi).unwrap()
    }

    /// The conversion behind every `dim_offsets` entry: exact up to
    /// `u32::MAX`, a panic one above it, never a wrap to a small number.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn slab_index_is_exact_up_to_u32_max() {
        assert_eq!(slab_index(u32::MAX as usize - 1), u32::MAX - 1);
        assert_eq!(slab_index(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "a statistics slab holds at most u32::MAX entries")]
    fn slab_index_panics_just_above_u32_max() {
        slab_index(u32::MAX as usize + 1);
    }

    #[test]
    fn root_candidate_count_matches_paper() {
        // Root: identical variation intervals in every dimension →
        // f(f+1)/2 = 10 candidates per dimension with f = 4.
        let sig = Signature::root(16);
        let cands = CandidateSet::generate(&sig, 4);
        assert_eq!(cands.len(), 16 * 10);
        // §6: between 10·Nd and 16·Nd candidates per cluster.
        assert!(cands.len() >= 10 * 16 && cands.len() <= 16 * 16);
        assert_eq!(cands.dims(), 16);
        // 20 B per candidate, 4 B per offset, 16 B per subinterval entry,
        // 4·f² B of cut tables per dimension.
        assert_eq!(
            cands.bytes(),
            160 * 20 + 17 * 4 + 16 * 4 * 16 + 16 * 4 * 4 * 4
        );
    }

    #[test]
    fn specialized_cluster_candidate_count_in_paper_range() {
        // After specializing d0 with distinct start/end variation
        // intervals, d0 contributes up to 16 combinations.
        let sig = Signature::root(4).specialize(0, 4, 0, 3);
        let cands = CandidateSet::generate(&sig, 4);
        assert!(
            cands.len() > 4 * 10 && cands.len() <= 4 * 16,
            "{}",
            cands.len()
        );
    }

    #[test]
    fn dim_offsets_partition_the_set() {
        let sig = Signature::root(3).specialize(1, 4, 0, 3);
        let cands = CandidateSet::generate(&sig, 4);
        assert_eq!(cands.dims(), 3);
        let offsets = &cands.dim_offsets;
        for d in 0..cands.dims() {
            for ci in offsets[d] as usize..offsets[d + 1] as usize {
                assert_eq!(cands.id(ci).dim as usize, d);
            }
        }
        assert_eq!(*offsets.last().unwrap() as usize, cands.len());
        assert_eq!(cands.sub.len(), 3 * 4, "f bound entries per dimension");
    }

    fn find(cands: &CandidateSet, dim: u16, i: u8, j: u8) -> usize {
        (0..cands.len())
            .find(|&ci| {
                let id = cands.id(ci);
                id.dim == dim && id.i == i && id.j == j
            })
            .expect("candidate exists")
    }

    #[test]
    fn accepts_member_checks_only_specialized_dimension() {
        let sig = Signature::root(2);
        let cands = CandidateSet::generate(&sig, 4);
        // Candidate: d0, starts in [0,0.25), ends in [0,0.25).
        let c = find(&cands, 0, 0, 0);
        assert!(cands.accepts_member(c, &rect(&[0.1, 0.9], &[0.2, 1.0]).to_flat()));
        assert!(!cands.accepts_member(c, &rect(&[0.1, 0.9], &[0.3, 1.0]).to_flat()));
        // The copied-out bounds agree.
        assert!(cands
            .bounds(c)
            .accepts_member(&rect(&[0.1, 0.9], &[0.2, 1.0]).to_flat()));
        assert!(!cands
            .bounds(c)
            .accepts_member(&rect(&[0.1, 0.9], &[0.3, 1.0]).to_flat()));
    }

    #[test]
    fn open_bound_boundary_is_excluded_exactly() {
        // d0 candidate (0,0): starts and ends vary in [0, 0.25) — an
        // object touching 0.25 must be rejected despite the closed
        // `reach` encoding.
        let sig = Signature::root(1);
        let cands = CandidateSet::generate(&sig, 4);
        let c = find(&cands, 0, 0, 0);
        assert!(cands.accepts_member(c, &[0.0, 0.2499]));
        assert!(!cands.accepts_member(c, &[0.0, 0.25]));
        assert!(cands.accepts_member(c, &[0.0, 0.25f32.next_down()]));
    }

    #[test]
    fn candidate_signature_equals_specialization() {
        let sig = Signature::root(3);
        let cands = CandidateSet::generate(&sig, 4);
        for ci in 0..5 {
            let id = cands.id(ci);
            let expected = sig.specialize(id.dim as usize, 4, id.i, id.j);
            assert_eq!(cands.signature(ci, &sig), expected);
        }
    }

    #[test]
    fn matches_query_agrees_with_full_signature_matching() {
        let sig = Signature::root(2);
        let cands = CandidateSet::generate(&sig, 4);
        let queries = [
            SpatialQuery::intersection(rect(&[0.1, 0.2], &[0.3, 0.6])),
            SpatialQuery::containment(rect(&[0.0, 0.0], &[0.5, 0.5])),
            SpatialQuery::enclosure(rect(&[0.4, 0.4], &[0.45, 0.45])),
            SpatialQuery::point_enclosing(vec![0.3, 0.7]),
        ];
        for ci in 0..cands.len() {
            let full = cands.signature(ci, &sig);
            for q in &queries {
                assert_eq!(
                    cands.matches_query(ci, q),
                    full.matches_query(q),
                    "candidate {:?} vs query {q:?}",
                    cands.id(ci)
                );
            }
        }
    }

    /// A set built by hand instead of generated: `f` entries of
    /// `(start, end)` subintervals per dimension, each as
    /// `(lo, hi, open)`, the candidate cells `(i, j)` of every
    /// dimension, and preset `q` counters.
    pub(super) fn hand_built(
        f: u8,
        subs: &[[Sub; 2]],
        cells: &[Vec<(u8, u8)>],
        q: Vec<u32>,
    ) -> CandidateSet {
        assert_eq!(
            subs.len(),
            cells.len() * f as usize,
            "f entries per dimension"
        );
        let reach = |(_, hi, open): Sub| if open { hi.next_down() } else { hi };
        let mut set = CandidateSet {
            dim_offsets: vec![0],
            f,
            ..CandidateSet::default()
        };
        set.sub = subs
            .iter()
            .map(|&[s, e]| SubBounds {
                start_lo: s.0,
                start_reach: reach(s),
                end_lo: e.0,
                end_reach: reach(e),
            })
            .collect();
        for (d, run) in cells.iter().enumerate() {
            for &(i, j) in run {
                set.dim.push(d as u16);
                set.sub_i.push(i);
                set.sub_j.push(j);
            }
            set.dim_offsets.push(set.dim.len() as u32);
        }
        let len = set.dim.len();
        assert_eq!(q.len(), len, "one preset counter per candidate");
        set.n = vec![0; len];
        set.q = q;
        set.q_eff = vec![0.0; len];
        set.cuts = vec![0; 2 * subs.len() * f as usize];
        set
    }

    /// A subinterval as `(lo, hi, open)`.
    pub(super) type Sub = (Scalar, Scalar, bool);

    /// Whether each dimension's four bound columns never decrease in
    /// the subinterval index: the premise of the cut-point tables.
    pub(super) fn bounds_sorted(set: &CandidateSet) -> bool {
        set.sub.chunks_exact(set.f as usize).all(|subs| {
            subs.windows(2).all(|w| {
                w[0].start_lo <= w[1].start_lo
                    && w[0].start_reach <= w[1].start_reach
                    && w[0].end_lo <= w[1].end_lo
                    && w[0].end_reach <= w[1].end_reach
            })
        })
    }

    /// The scalar oracle of a noted query: one saturating bump of
    /// `column[ci]` for every candidate `ci` that
    /// [`CandidateSet::matches_query`].
    pub(super) fn bump_matching(set: &CandidateSet, query: &SpatialQuery, column: &mut [u32]) {
        for (ci, c) in column.iter_mut().enumerate() {
            if set.matches_query(ci, query) {
                *c = c.saturating_add(1);
            }
        }
    }

    /// Notes every query `passes` times into the set, which needs
    /// [`bounds_sorted`] bounds, and expands after each; asserts that
    /// the set's `q` then equals what the [`bump_matching`] oracle
    /// leaves from the set's counts, and returns that.
    pub(super) fn assert_counts_equal_oracle(
        set: &mut CandidateSet,
        queries: &[SpatialQuery],
        passes: usize,
    ) -> Vec<u32> {
        assert!(bounds_sorted(set), "the table path needs sorted bounds");
        let mut want = set.q.clone();
        for q in queries {
            for _ in 0..passes {
                bump_matching(set, q, &mut want);
                set.note_query(q);
            }
            set.expand();
            assert_eq!(set.q_col(), &want[..], "noted and expanded after {q:?}");
        }
        want
    }

    #[test]
    fn kernel_counts_agree_with_scalar_oracle() {
        // A specialized signature in 3 dims; boundary-coincident query
        // edges on the f = 4 grid. The counters accumulate across the
        // queries.
        let sig = Signature::root(3).specialize(2, 4, 1, 3);
        let mut cands = CandidateSet::generate(&sig, 4);
        let queries = [
            SpatialQuery::intersection(rect(&[0.25, 0.0, 0.5], &[0.5, 0.25, 0.75])),
            SpatialQuery::containment(rect(&[0.0, 0.25, 0.25], &[0.75, 1.0, 1.0])),
            SpatialQuery::enclosure(rect(&[0.25, 0.5, 0.6], &[0.25, 0.5, 0.9])),
            SpatialQuery::point_enclosing(vec![0.25, 0.75, 0.5]),
            SpatialQuery::point_enclosing(vec![0.0, 1.0, 0.9999]),
        ];
        let want = assert_counts_equal_oracle(&mut cands, &queries, 1);
        assert!(
            want.iter().any(|&w| w > 1) && want.iter().min() != want.iter().max(),
            "test premise: counts accumulate and discriminate"
        );

        // Hand-built open and closed subintervals, one cell (k, k) per
        // entry, against boundary-coincident windows and points and
        // full-domain windows. The second dimension's end subintervals
        // overlap and share a lower bound; `generate` never writes
        // bounds out of order, so neither does this set.
        let (o, c) = (true, false);
        let subs = [
            [(0.0, 0.25, o), (0.0, 0.25, o)],
            [(0.25, 0.5, o), (0.25, 0.75, o)],
            [(0.5, 1.0, c), (0.75, 1.0, c)],
            [(0.0, 0.5, o), (0.0, 0.5, c)],
            [(0.5, 0.75, o), (0.5, 1.0, o)],
            [(0.75, 1.0, c), (0.5, 1.0, c)],
        ];
        let diagonal = vec![(0, 0), (1, 1), (2, 2)];
        let mut set = hand_built(3, &subs, &[diagonal.clone(), diagonal], vec![0; 6]);
        let w = rect(&[0.25, 0.5], &[0.5, 0.75]);
        let full = rect(&[0.0, 0.0], &[1.0, 1.0]);
        let full_d0 = SpatialQuery::intersection(rect(&[0.0, 0.6], &[1.0, 0.6]));
        let queries = [
            SpatialQuery::intersection(w.clone()),
            SpatialQuery::containment(w.clone()),
            SpatialQuery::enclosure(w),
            SpatialQuery::point_enclosing(vec![0.25, 0.5]),
            SpatialQuery::point_enclosing(vec![0.5, 1.0]),
            full_d0.clone(),
            SpatialQuery::intersection(full.clone()),
            SpatialQuery::containment(full.clone()),
            SpatialQuery::enclosure(full),
        ];
        assert_counts_equal_oracle(&mut set, &queries, 1);
        assert!(
            (0..3).all(|ci| set.matches_query(ci, &full_d0)),
            "a full-domain interval matches its whole run"
        );

        // One run of 70 candidates, longer than any vector.
        let subs: Vec<[Sub; 2]> = (0..70)
            .map(|k| [(k as Scalar / 70.0, 1.0, c), (0.0, 1.0, c)])
            .collect();
        let cells = vec![(0..70).map(|k| (k, k)).collect()];
        let mut set = hand_built(70, &subs, &cells, vec![0; 70]);
        let point = SpatialQuery::point_enclosing(vec![0.5]);
        let want = assert_counts_equal_oracle(&mut set, &[point], 1);
        let matched = want.iter().filter(|&&m| m == 1).count();
        assert!(matched > 0 && matched < 70, "{matched}");

        // Counters saturate at the maximum and never wrap.
        let subs = [
            [(0.0, 0.5, o), (0.0, 0.5, o)],
            [(0.5, 1.0, c), (0.5, 1.0, c)],
            [(0.0, 1.0, c), (0.0, 1.0, c)],
            [(0.0, 1.0, c), (0.0, 1.0, c)],
        ];
        let cells = [vec![(0, 0), (1, 1)], vec![(0, 0)]];
        let mut set = hand_built(2, &subs, &cells, vec![7, u32::MAX - 1, u32::MAX - 1]);
        let q = SpatialQuery::intersection(rect(&[0.6, 0.0], &[0.7, 1.0]));
        assert_eq!(
            assert_counts_equal_oracle(&mut set, &[q], 3),
            [7, u32::MAX, u32::MAX]
        );
    }

    #[test]
    fn division_factor_two_produces_three_per_dim() {
        let sig = Signature::root(5);
        // f = 2 on identical intervals → 2·3/2 = 3 combinations per dim.
        assert_eq!(CandidateSet::generate(&sig, 2).len(), 5 * 3);
    }

    #[test]
    fn counters_start_at_zero_and_members_roundtrip() {
        let sig = Signature::root(2);
        let mut cands = CandidateSet::generate(&sig, 4);
        for ci in 0..cands.len() {
            assert_eq!(cands.n(ci), 0);
            assert_eq!(cands.q(ci), 0);
            assert_eq!(cands.q_eff(ci), 0.0);
        }
        let flat = rect(&[0.1, 0.6], &[0.2, 0.9]).to_flat();
        cands.record_member(&flat);
        let total: u32 = (0..cands.len()).map(|ci| cands.n(ci)).sum();
        // Exactly one accepting candidate per dimension (§4.2 cells).
        assert_eq!(total, 2);
        cands.unrecord_member(&flat);
        assert!((0..cands.len()).all(|ci| cands.n(ci) == 0));
    }

    #[test]
    fn q_counters_saturate_instead_of_wrapping() {
        let sig = Signature::root(1);
        let mut cands = CandidateSet::generate(&sig, 2);
        cands.add_q(0, u32::MAX - 1);
        cands.add_q(0, 5);
        assert_eq!(cands.q(0), u32::MAX, "increment must saturate");
        cands.add_q(0, 1);
        assert_eq!(cands.q(0), u32::MAX, "saturated counter stays pinned");
        // Decay folds the saturated value into history and reopens the
        // epoch counter.
        cands.decay(0.5);
        assert_eq!(cands.q(0), 0);
        assert_eq!(cands.q_eff(0), u32::MAX as f64);
    }

    #[test]
    fn catch_up_is_bit_identical_to_eager_decay() {
        // The eager oracle: one `decay` per epoch, exactly as the index
        // performed before decay went lazy.
        let sig = Signature::root(2);
        let mut eager = CandidateSet::generate(&sig, 4);
        // A spread of magnitudes, including a saturated counter and a
        // tiny history that decays through many epochs.
        eager.add_q(0, 10);
        eager.add_q(3, u32::MAX);
        eager.add_q(7, 1);
        eager.decay(0.5);
        eager.add_q(7, 3);
        let mut lazy = eager.clone();
        let gamma = 0.37;
        for k in [1u64, 2, 5, 40] {
            for _ in 0..k {
                eager.decay(gamma);
            }
            lazy.catch_up(gamma, k);
            assert_eq!(lazy, eager, "diverged after catching up {k} epochs");
            for ci in 0..eager.len() {
                assert_eq!(
                    lazy.q_eff(ci).to_bits(),
                    eager.q_eff(ci).to_bits(),
                    "candidate {ci} after {k} epochs"
                );
            }
        }
        // `catch_up_to` replays exactly the closes its stamp lags behind,
        // at the index's decay, and only once.
        let mut stamped = lazy.clone();
        stamped.set_stamp(9);
        stamped.catch_up_to(11);
        stamped.catch_up_to(11);
        let mut twice = lazy.clone();
        twice.decay(crate::STATS_DECAY);
        twice.decay(crate::STATS_DECAY);
        assert_eq!(stamped.q_eff_col(), twice.q_eff_col());
        assert_eq!(stamped.stamp(), 11);
        // Far past underflow: every history is exactly +0.0 in both, and
        // the lazy early-exit must not change that.
        for _ in 0..4000 {
            eager.decay(gamma);
        }
        lazy.catch_up(gamma, 4000);
        for ci in 0..eager.len() {
            assert_eq!(lazy.q_eff(ci).to_bits(), eager.q_eff(ci).to_bits());
            assert_eq!(lazy.q_eff(ci), 0.0, "histories underflow to exact zero");
        }
        lazy.catch_up(gamma, 0); // no-op
        assert_eq!(lazy, eager);
    }

    #[test]
    fn n_hi_bounds_member_counts() {
        let sig = Signature::root(2);
        let mut cands = CandidateSet::generate(&sig, 4);
        assert_eq!(cands.n_hi(), 0);
        let a = rect(&[0.1, 0.6], &[0.2, 0.9]).to_flat();
        let b = rect(&[0.12, 0.6], &[0.2, 0.9]).to_flat();
        cands.record_member(&a);
        cands.record_member(&b);
        assert_eq!(cands.n_hi(), 2, "raised by recordings");
        cands.unrecord_member(&a);
        assert_eq!(cands.n_hi(), 2, "removals leave the bound loose, never low");
        let max_n = (0..cands.len()).map(|ci| cands.n(ci)).max().unwrap();
        assert!(cands.n_hi() >= max_n);
        cands.set_n_hi(max_n);
        assert_eq!(cands.n_hi(), 1, "scans re-tighten to the exact maximum");
        // Decay never touches member counts or the bound.
        cands.catch_up(0.5, 3);
        assert_eq!(cands.n_hi(), 1);
    }

    #[test]
    fn decay_folds_and_resets() {
        let sig = Signature::root(1);
        let mut cands = CandidateSet::generate(&sig, 2);
        cands.add_q(1, 10);
        cands.decay(0.5);
        assert_eq!(cands.q(1), 0);
        assert_eq!(cands.q_eff(1), 10.0);
        cands.add_q(1, 4);
        cands.decay(0.5);
        assert_eq!(cands.q_eff(1), 9.0);
    }

    /// `same_layout` against a fresh generation — the comparison
    /// `check_invariants` makes for every live cluster — ignores the
    /// counters and catches every broken fixed column.
    #[test]
    fn check_catches_a_broken_subinterval_layout() {
        let seasoned = |dims: usize, f: u8| {
            let mut set = CandidateSet::generate(&Signature::root(dims), f);
            for k in 0..5 {
                let v = k as Scalar / 8.0;
                set.record_member(&[v, v + 0.25].repeat(dims));
            }
            set.add_q(0, 3);
            set.decay(0.5);
            set.set_stamp(2);
            set
        };
        type Break = (&'static str, usize, u8, fn(&mut CandidateSet));
        let breaks: [Break; 5] = [
            ("sub_i past f", 2, 4, |s| s.sub_i[3] = 4),
            ("sub_j past f", 3, 2, |s| s.sub_j[5] = 2),
            ("dim of another run", 2, 4, |s| s.dim[0] = 1),
            ("missing bound entry", 3, 2, |s| {
                s.sub.pop();
            }),
            ("range with f + 1 entries per dimension", 2, 4, |s| s.f = 5),
        ];
        for (what, dims, f, break_it) in breaks {
            let generated = CandidateSet::generate(&Signature::root(dims), f);
            let mut set = seasoned(dims, f);
            assert!(set.same_layout(&generated), "counters are not layout");
            break_it(&mut set);
            assert!(!set.same_layout(&generated), "check missed: {what}");
        }
    }

    /// A stream of more than `u16::MAX` notes forces an expansion before
    /// a cell could overflow — one query repeated past `u16::MAX` times
    /// bumps one cell per dimension that often — and what the notes add
    /// equals the scalar oracle over the same stream, onto counters
    /// preset near `u32::MAX`, which saturate, and onto zeroed ones.
    #[test]
    fn notes_past_u16_max_expand_to_the_per_cell_count() {
        let sig = Signature::root(2).specialize(1, 4, 0, 2);
        let mut set = CandidateSet::generate(&sig, 4);
        let near_max = u32::MAX - 30_000;
        for ci in (0..set.len()).step_by(3) {
            set.add_q(ci, near_max);
        }
        let mut column = set.q.clone();
        let w = rect(&[0.1, 0.2], &[0.6, 0.3]);
        let point = SpatialQuery::point_enclosing(vec![0.3, 0.25]);
        let kinds = [
            SpatialQuery::intersection(w.clone()),
            SpatialQuery::containment(w.clone()),
            SpatialQuery::enclosure(w),
            point.clone(),
        ];
        let repeated = std::iter::repeat_n(&point, usize::from(u16::MAX) + 3_000);
        for q in repeated.chain(kinds.iter().cycle().take(1_000)) {
            set.note_query(q);
            bump_matching(&set, q, &mut column);
        }
        assert_eq!(
            set.notes, 4_000,
            "an expansion was forced at u16::MAX notes"
        );
        set.expand();
        assert_eq!(set.q_col(), &column[..]);
        assert!(
            column.contains(&u32::MAX),
            "test premise: some counter saturates"
        );
        assert!(
            column.iter().any(|&q| q > 0 && q < near_max),
            "test premise: some zeroed counter counts"
        );
    }

    /// Restored counters replace whatever the set had noted: the
    /// checkpoint's `q` already holds those notes.
    #[test]
    fn restoring_counters_drops_the_notes() {
        let mut set = CandidateSet::generate(&Signature::root(2), 4);
        set.note_query(&SpatialQuery::point_enclosing(vec![0.3, 0.6]));
        let saved = vec![5; set.len()];
        set.restore_counters(&saved, &vec![0.0; set.len()], 0, 0);
        assert_eq!(set.q_col(), &saved[..]);
        set.expand();
        assert_eq!(set.q_col(), &saved[..], "no note survives a restore");
    }

    /// A one-dimensional signature from its two variation intervals,
    /// each `(lo, hi, hi_open)`, through the checkpoint encoding.
    fn one_dim_signature(start: (Scalar, Scalar, bool), end: (Scalar, Scalar, bool)) -> Signature {
        let mut bytes = 1u16.to_le_bytes().to_vec();
        for (lo, hi, open) in [start, end] {
            bytes.extend_from_slice(&lo.to_le_bytes());
            bytes.extend_from_slice(&hi.to_le_bytes());
            bytes.push(u8::from(open));
        }
        Signature::from_bytes(&bytes).expect("a valid signature")
    }

    /// Every tier counts what `accepts_bounds` accepts, candidate for
    /// candidate, and so does `count_members`. The sets are generated at
    /// `f` = 2, 4 and 255 from signatures whose intervals are the
    /// domain, an open pair, a point, a few ulps (zero-width
    /// subintervals) and subnormal-wide. Every member bound is drawn
    /// from the subintervals' `start_lo`, `start_reach`, `end_lo` and
    /// `end_reach`, one ulp either side, and `SPECIALS`: at each column
    /// length 0–70 for `f` ≤ 4; at `f = 255` from the first, second,
    /// middle and last two subintervals, at the lengths around the
    /// vector widths.
    #[test]
    fn every_tier_counts_alike() {
        println!("tiers exercised: {:?}", Tier::all());
        let few_ulps = |v: Scalar| v.next_up().next_up().next_up();
        let tiny = Scalar::from_bits(5);
        let sigs = [
            Signature::root(1),
            Signature::root(1).specialize(0, 4, 1, 2),
            one_dim_signature((0.5, 0.5, false), (0.5, 0.5, false)),
            one_dim_signature((0.25, few_ulps(0.25), false), (0.25, few_ulps(0.25), true)),
            one_dim_signature((0.0, tiny, true), (-tiny, tiny, false)),
        ];
        let (mut counted, mut possible) = (0, 0);
        for sig in &sigs {
            for f in [2u8, 4, 255] {
                let set = CandidateSet::generate(sig, f);
                let picked = |k: usize| f <= 4 || [0, 1, f / 2, f - 2, f - 1].contains(&(k as u8));
                let edges: Vec<Scalar> = (set.subs(0).iter().enumerate())
                    .filter(|&(k, _)| picked(k))
                    .flat_map(|(_, b)| [b.start_lo, b.start_reach, b.end_lo, b.end_reach])
                    .collect();
                let pool = edge_values(&edges);
                let lengths: Vec<usize> = if f <= 4 {
                    (0..=70).collect()
                } else {
                    vec![0, 1, 7, 8, 9, 15, 16, 17, 70]
                };
                for len in lengths {
                    let cols = [
                        (0..len).map(|k| pool[(k + len) % pool.len()]).collect(),
                        (0..len)
                            .map(|k| pool[(2 * k + 3 * len) % pool.len()])
                            .collect(),
                    ];
                    let members = PairedColumns::of_equal_columns(&cols);
                    let want: Vec<u32> = (0..set.len())
                        .map(|ci| {
                            let c = set.bounds(ci);
                            let accepted = (cols[0].iter().zip(&cols[1]))
                                .filter(|&(&a, &b)| c.accepts_bounds(a, b))
                                .count();
                            accepted as u32
                        })
                        .collect();
                    for &tier in Tier::all() {
                        let mut got = vec![0; set.len()];
                        set.count_members(tier, &members, &mut got);
                        assert_eq!(got, want, "{tier:?}, {sig} f={f}, {len} members");
                    }
                    counted += want.iter().sum::<u32>();
                    possible += set.len() * len;
                }
            }
        }
        assert!(
            counted > 0 && (counted as usize) < possible,
            "test premise: both verdicts occur"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{self, bump_matching};
    use super::*;
    use acx_geom::HyperRect;
    use proptest::prelude::*;

    /// One query noted into a copy of a generated set, whose counters
    /// are zero, and expanded, as match flags.
    fn kernel_matches(cands: &CandidateSet, query: &SpatialQuery) -> Vec<bool> {
        let mut noted = cands.clone();
        noted.note_query(query);
        noted.expand();
        let counters = noted.q_col();
        assert!(
            counters.iter().all(|&c| c <= 1),
            "one note adds at most one"
        );
        counters.iter().map(|&c| c == 1).collect()
    }

    /// Grid-snapped coordinate so query edges coincide with the f = 4
    /// subdivision boundaries constantly.
    fn coord() -> impl Strategy<Value = Scalar> {
        (0u8..=8).prop_map(|k| k as Scalar / 8.0)
    }

    proptest! {
        /// Generation and the per-dimension count against the scalar
        /// oracle for 1–8 dimensions at `f` = 2 and 4 and one dimension
        /// at `f` = 255 (the largest `u8`), all four query kinds, and
        /// signatures specialized to produce open and closed variation
        /// intervals — including boundary-coincident query edges.
        #[test]
        fn candidate_kernel_equals_scalar_oracle(
            dims in 1usize..=8,
            f in prop_oneof![Just(2u8), Just(4u8), Just(255u8)],
            spec_dim in 0usize..8,
            spec_i in 0u8..4,
            spec_j in 0u8..4,
            pairs in prop::collection::vec((coord(), coord()), 8),
            kind in 0usize..4,
        ) {
            let dims = if f == 255 { 1 } else { dims };
            let spec_dim = spec_dim % dims;
            let (spec_i, spec_j) = (spec_i % f, spec_j % f);
            let sig = if spec_i <= spec_j {
                Signature::root(dims).specialize(spec_dim, f, spec_i, spec_j)
            } else {
                Signature::root(dims)
            };
            let cands = CandidateSet::generate(&sig, f);
            prop_assert!(!cands.is_empty(), "every signature yields candidates");
            if spec_i > spec_j {
                let per_dim = f as usize * (f as usize + 1) / 2;
                prop_assert_eq!(cands.len(), dims * per_dim, "the root keeps i <= j");
            }

            let mut lo = Vec::with_capacity(dims);
            let mut hi = Vec::with_capacity(dims);
            for &(a, b) in pairs.iter().take(dims) {
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            let w = HyperRect::from_bounds(&lo, &hi).unwrap();
            let query = match kind {
                0 => SpatialQuery::intersection(w),
                1 => SpatialQuery::containment(w),
                2 => SpatialQuery::enclosure(w),
                _ => SpatialQuery::point_enclosing(lo.clone()),
            };

            let matched = kernel_matches(&cands, &query);
            for (ci, &bit) in matched.iter().enumerate() {
                let oracle = cands.matches_query(ci, &query);
                prop_assert_eq!(bit, oracle, "candidate {} ({:?})", ci, cands.id(ci));
                // When the parent signature matches the query — the
                // precondition under which `explore` consults candidates
                // — the one-dimension check equals full-signature
                // matching (§3.6 safety).
                if sig.matches_query(&query) {
                    prop_assert_eq!(
                        oracle,
                        cands.signature(ci, &sig).matches_query(&query),
                        "candidate matching diverged from the full signature"
                    );
                }
            }
        }

        /// A query interval spanning the full domain of a specialized
        /// dimension: counts equal the scalar oracle, and full-domain
        /// intersection/containment runs are counted whole.
        #[test]
        fn full_domain_query_intervals_match_whole_runs(
            dims in 1usize..=6,
            f in prop_oneof![Just(2u8), Just(4u8)],
            spec_dim in 0usize..6,
            spec_i in 0u8..4,
            spec_j in 0u8..4,
            full_mask in 0u8..64,
            pairs in prop::collection::vec((coord(), coord()), 6),
            kind in 0usize..3,
        ) {
            let spec_dim = spec_dim % dims;
            let (spec_i, spec_j) = (spec_i % f, spec_j % f);
            let sig = if spec_i <= spec_j {
                Signature::root(dims).specialize(spec_dim, f, spec_i, spec_j)
            } else {
                Signature::root(dims)
            };
            let cands = CandidateSet::generate(&sig, f);

            // Force the full [0, 1] domain on the masked dimensions; the
            // rest stay random.
            let mut lo = Vec::with_capacity(dims);
            let mut hi = Vec::with_capacity(dims);
            for (d, &(a, b)) in pairs.iter().take(dims).enumerate() {
                if full_mask >> d & 1 == 1 {
                    lo.push(0.0);
                    hi.push(1.0);
                } else {
                    lo.push(a.min(b));
                    hi.push(a.max(b));
                }
            }
            let w = HyperRect::from_bounds(&lo, &hi).unwrap();
            let query = match kind {
                0 => SpatialQuery::intersection(w),
                1 => SpatialQuery::containment(w),
                _ => SpatialQuery::enclosure(w),
            };

            let matched = kernel_matches(&cands, &query);
            for (ci, &bit) in matched.iter().enumerate() {
                prop_assert_eq!(
                    bit,
                    cands.matches_query(ci, &query),
                    "candidate {} under {:?}", ci, &query
                );
                // A full-domain interval cannot discriminate candidates
                // of its dimension for intersection/containment: all
                // bounds live inside the domain, so the whole run
                // matches.
                let d = cands.id(ci).dim as usize;
                if full_mask >> d & 1 == 1 && kind < 2 {
                    prop_assert!(bit, "full-domain run candidate {} must match", ci);
                }
            }
        }

        /// Member recording stops at the first accepting candidate of a
        /// dimension run, and the column recount counts every candidate
        /// at once; both must leave what the exhaustive loop — every
        /// candidate that accepts a member counts it — leaves, on the
        /// root and on chains of materialized children, for members
        /// inside and outside the signature, on and off the subdivision
        /// grid: `n` after recording, after removing every third member
        /// again, and recounted; `n_hi` raised by recordings, untouched
        /// by removals, and exact after the recount.
        #[test]
        fn first_hit_recording_and_recount_equal_the_exhaustive_loop(
            dims in 1usize..=5,
            f in prop_oneof![Just(2u8), Just(4u8)],
            specs in prop::collection::vec((0usize..5, 0u8..4, 0u8..4), 0..4),
            members in prop::collection::vec(
                prop::collection::vec((0u8..=16, 0u8..=16, 0u32..1 << 20), 5),
                1..40,
            ),
        ) {
            let mut sig = Signature::root(dims);
            for &(d, i, j) in &specs {
                let (d, i, j) = (d % dims, i % f, j % f);
                if sig.combination_feasible(d, f, i, j) {
                    sig = sig.specialize(d, f, i, j);
                }
            }
            // Grid-snapped ends hit subinterval boundaries; the rest are
            // spread over [0, 1] off the grid.
            let coord = |k: u8, jitter: u32| {
                if jitter.is_multiple_of(3) {
                    k as Scalar / 16.0
                } else {
                    jitter as Scalar / (1 << 20) as Scalar
                }
            };
            let flats: Vec<Vec<Scalar>> = members
                .iter()
                .map(|m| {
                    m.iter()
                        .take(dims)
                        .flat_map(|&(a, b, jitter)| {
                            let (a, b) = (coord(a, jitter), coord(b, jitter / 3));
                            [a.min(b), a.max(b)]
                        })
                        .collect()
                })
                .collect();

            let mut set = CandidateSet::generate(&sig, f);
            let mut oracle = vec![0u32; set.len()];
            let record = |set: &mut CandidateSet, oracle: &mut [u32], flat: &[Scalar], add: bool| {
                for (ci, n) in oracle.iter_mut().enumerate() {
                    if set.accepts_member(ci, flat) {
                        *n = if add { *n + 1 } else { *n - 1 };
                    }
                }
                if add {
                    set.record_member(flat);
                } else {
                    set.unrecord_member(flat);
                }
            };
            for flat in &flats {
                record(&mut set, &mut oracle, flat, true);
            }
            // Counts only rose so far: the running maximum is the last.
            let oracle_hi = oracle.iter().copied().max().unwrap_or(0);
            prop_assert_eq!(set.n_col(), &oracle[..]);
            prop_assert_eq!(set.n_hi(), oracle_hi);
            for flat in flats.iter().step_by(3) {
                record(&mut set, &mut oracle, flat, false);
            }
            prop_assert_eq!(set.n_col(), &oracle[..]);
            prop_assert_eq!(set.n_hi(), oracle_hi);

            let kept: Vec<&Vec<Scalar>> =
                flats.iter().enumerate().filter(|(k, _)| k % 3 != 0).map(|(_, f)| f).collect();
            let cols: Vec<Vec<Scalar>> = (0..2 * dims)
                .map(|c| kept.iter().map(|flat| flat[c]).collect())
                .collect();
            let mut recounted = CandidateSet::generate(&sig, f);
            recounted.recount_members(&PairedColumns::of_equal_columns(&cols));
            prop_assert_eq!(recounted.n_col(), &oracle[..]);
            prop_assert_eq!(recounted.n_hi(), oracle.iter().copied().max().unwrap_or(0));
        }

        /// The column adjusts equal recording one member at a time:
        /// [`CandidateSet::record_members`] over a batch's columns
        /// leaves the `n` column and `n_hi` that `record_member` of each
        /// leaves, and [`CandidateSet::unrecord_members`] what
        /// `unrecord_member` of each leaves — from a loose `n_hi` or an
        /// exact one, on the root and on materialized children, for
        /// batches of zero to a dozen members, on and off the grid.
        #[test]
        fn column_adjusts_equal_per_member_recording(
            dims in 1usize..=5,
            f in prop_oneof![Just(2u8), Just(4u8)],
            specs in prop::collection::vec((0usize..5, 0u8..4, 0u8..4), 0..4),
            batches in prop::collection::vec(
                (
                    0u8..2,
                    prop::collection::vec(
                        prop::collection::vec((0u8..=16, 0u8..=16, 0u32..1 << 20), 5),
                        0..12,
                    ),
                ),
                1..8,
            ),
            slack in 0u32..3,
        ) {
            let mut sig = Signature::root(dims);
            for &(d, i, j) in &specs {
                let (d, i, j) = (d % dims, i % f, j % f);
                if sig.combination_feasible(d, f, i, j) {
                    sig = sig.specialize(d, f, i, j);
                }
            }
            let coord = |k: u8, jitter: u32| {
                if jitter.is_multiple_of(3) {
                    k as Scalar / 16.0
                } else {
                    jitter as Scalar / (1 << 20) as Scalar
                }
            };
            let (mut columnar, mut each) = (CandidateSet::generate(&sig, f), CandidateSet::generate(&sig, f));
            // Members recorded so far, so a removal takes only those.
            let mut present: Vec<Vec<Scalar>> = Vec::new();
            for (arrive, batch) in batches {
                let arrive = arrive == 1;
                let flats: Vec<Vec<Scalar>> = if arrive {
                    batch
                        .iter()
                        .map(|m| {
                            m.iter()
                                .take(dims)
                                .flat_map(|&(a, b, jitter)| {
                                    let (a, b) = (coord(a, jitter), coord(b, jitter / 3));
                                    [a.min(b), a.max(b)]
                                })
                                .collect()
                        })
                        .collect()
                } else {
                    let leaving = batch.len().min(present.len());
                    present.split_off(present.len() - leaving)
                };
                let cols: Vec<Vec<Scalar>> = (0..2 * dims)
                    .map(|c| flats.iter().map(|flat| flat[c]).collect())
                    .collect();
                let members = PairedColumns::of_equal_columns(&cols);
                if arrive {
                    columnar.record_members(&members);
                    for flat in &flats {
                        each.record_member(flat);
                    }
                    present.extend(flats);
                } else {
                    columnar.unrecord_members(&members);
                    for flat in &flats {
                        each.unrecord_member(flat);
                    }
                }
                prop_assert_eq!(columnar.n_col(), each.n_col());
                prop_assert_eq!(columnar.n_hi(), each.n_hi());
                // A pass re-tightens the bound, sometimes loosely.
                let exact = each.n_col().iter().copied().max().unwrap_or(0);
                if exact % 2 == 1 {
                    columnar.set_n_hi(exact + slack);
                    each.set_n_hi(exact + slack);
                }
            }
        }

        /// The premise of the cut-point tables: [`CandidateSet::generate`]
        /// writes each dimension's four bound columns in non-decreasing
        /// order of subinterval index, on the root, on a signature with
        /// zero-width variation intervals, and on random chains of
        /// specializations at `f` = 2, 4 and 255 — chains that at 255
        /// shrink intervals below one `f32` step, to zero width.
        #[test]
        fn generated_bounds_never_decrease_in_the_subinterval_index(
            dims in 1usize..=4,
            f in prop_oneof![Just(2u8), Just(4u8), Just(255u8)],
            zero_width in prop::collection::vec((0u8..=8, 0u8..3), 4),
            specs in prop::collection::vec((0usize..4, 0u8..=255, 0u8..=255), 0..8),
        ) {
            // Per dimension a signature of `[v, v]` intervals on the
            // start side, the end side or both, or the full domain.
            let mut bytes = (dims as u16).to_le_bytes().to_vec();
            for &(v, which) in zero_width.iter().take(dims) {
                let v = v as Scalar / 8.0;
                for side in 0..2u8 {
                    let point = which == 2 || which == side;
                    let (lo, hi) = if point { (v, v) } else { (0.0, 1.0) };
                    bytes.extend(lo.to_le_bytes());
                    bytes.extend(hi.to_le_bytes());
                    bytes.push(0);
                }
            }
            let seeds = [Signature::root(dims), Signature::from_bytes(&bytes).unwrap()];
            for mut sig in seeds {
                prop_assert!(tests::bounds_sorted(&CandidateSet::generate(&sig, f)));
                for &(d, i, j) in &specs {
                    let (d, i, j) = (d % dims, i % f, j % f);
                    if sig.combination_feasible(d, f, i, j) {
                        sig = sig.specialize(d, f, i, j);
                        let set = CandidateSet::generate(&sig, f);
                        prop_assert!(tests::bounds_sorted(&set), "{:?}", sig);
                    }
                }
            }
        }

        /// The table path equals the scalar oracle: a random stream of
        /// all four kinds, noted into a set with expansions interleaved,
        /// leaves `q` where [`tests::bump_matching`] of the same stream
        /// leaves a column — on the root and on chains of
        /// materialized children at `f` = 2 and 4 and on one dimension
        /// at `f` = 255, grid-snapped and off-grid edges, counters
        /// preset up to `u32::MAX`.
        #[test]
        fn noted_queries_expand_to_the_per_cell_count(
            dims in 1usize..=6,
            f in prop_oneof![Just(2u8), Just(4u8), Just(255u8)],
            specs in prop::collection::vec((0usize..6, 0u8..=255, 0u8..=255), 0..4),
            preset in prop::collection::vec(0usize..4, 1..16),
            stream in prop::collection::vec(
                (0usize..4, prop::collection::vec((0u32..=64, 0u32..=64), 6), 0u8..4),
                1..40,
            ),
        ) {
            let dims = if f == 255 { 1 } else { dims };
            let mut sig = Signature::root(dims);
            for &(d, i, j) in &specs {
                let (d, i, j) = (d % dims, i % f, j % f);
                if sig.combination_feasible(d, f, i, j) {
                    sig = sig.specialize(d, f, i, j);
                }
            }
            let mut set = CandidateSet::generate(&sig, f);
            for ci in 0..set.len() {
                let q = [0, 7, u32::MAX - 2, u32::MAX][preset[ci % preset.len()]];
                set.add_q(ci, q);
            }
            let mut column = set.q.clone();
            // Odd steps of 1/64 fall off the f = 4 grid; even ones on it.
            for (kind, pairs, expand) in &stream {
                let (lo, hi): (Vec<Scalar>, Vec<Scalar>) = pairs
                    .iter()
                    .take(dims)
                    .map(|&(a, b)| (a.min(b) as Scalar / 64.0, a.max(b) as Scalar / 64.0))
                    .unzip();
                let w = HyperRect::from_bounds(&lo, &hi).unwrap();
                let query = match kind {
                    0 => SpatialQuery::intersection(w),
                    1 => SpatialQuery::containment(w),
                    2 => SpatialQuery::enclosure(w),
                    _ => SpatialQuery::point_enclosing(lo.clone()),
                };
                set.note_query(&query);
                bump_matching(&set, &query, &mut column);
                if *expand == 0 {
                    set.expand();
                    prop_assert_eq!(set.q_col(), &column[..]);
                }
            }
            set.expand();
            prop_assert_eq!(set.q_col(), &column[..]);
        }
    }
}
