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
//! Recording a query ([`CandidateSlice::count_query`]) evaluates, per
//! dimension, the relation's start-side comparison on the `f` start
//! subintervals and its end-side comparison on the `f` end
//! subintervals — `2f` comparisons — and adds
//! `start_ok[sub_i] & end_ok[sub_j]` to each candidate. These are the
//! comparisons [`CandidateSlice::matches_query`] makes per candidate,
//! factored, so the counts equal that oracle's whatever order the
//! bounds are in.
//!
//! Candidate counters saturate instead of wrapping: a `u32` query
//! counter that hits `u32::MAX` stays pinned there (the benefit
//! functions only compare magnitudes, so saturation is benign; wrapping
//! would invert a reorganization decision).
//!
//! ## Index-wide statistics arena
//!
//! Clusters do **not** own their columns: the index holds one
//! [`StatsArena`] — a single slab per column family — and each cluster
//! slot owns a [`CandHandle`] naming a `(base, len)` range into the
//! slabs. The reorganization pass then streams one contiguous counter
//! column instead of pointer-chasing ~11 separate `Vec`s per cluster.
//! Ranges are bump-allocated at the tail, retired (not freed) when a
//! cluster is merged away or re-materialized, and compacted during
//! reorganization when dead bytes reach a quarter of capacity — the pass
//! walks every slot anyway, so compaction is amortized free and keeps
//! hot clusters' columns adjacent.
//!
//! All statistics logic is written once, on the borrowed views
//! [`CandidateSlice`] / [`CandidateSliceMut`]. An owned [`CandidateSet`]
//! is only the *generator* handed to [`StatsArena::alloc`]; it projects
//! to the same view types, which is what lets this module's tests mirror
//! every arena range against an independently mutated owned set.

use acx_geom::scan::PairedColumns;
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
}

/// What a candidate set fixes at generation: the per-dimension
/// subinterval bounds and each candidate's identity. Shared by both
/// views, which differ only in whether the counters are writable.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Layout<'a> {
    /// Candidate range per dimension, **range-relative** (first entry is
    /// always `0`). Length `dims + 1`.
    dim_offsets: &'a [u32],
    /// Subinterval bounds, `f` entries per dimension: entry `d·f + k`
    /// holds dimension `d`'s `k`-th start and end subintervals.
    sub: &'a [SubBounds],
    /// The division factor `f`.
    f: usize,
    /// Specialized dimension per candidate.
    dim: &'a [u16],
    /// Start subinterval index per candidate.
    sub_i: &'a [u8],
    /// End subinterval index per candidate.
    sub_j: &'a [u8],
}

impl Layout<'_> {
    fn dims(&self) -> usize {
        self.dim_offsets.len() - 1
    }

    fn run(&self, d: usize) -> std::ops::Range<usize> {
        self.dim_offsets[d] as usize..self.dim_offsets[d + 1] as usize
    }

    /// Dimension `d`'s `f` subinterval entries.
    fn subs(&self, d: usize) -> &[SubBounds] {
        &self.sub[d * self.f..(d + 1) * self.f]
    }

    #[inline]
    fn bounds(&self, ci: usize) -> CandidateBounds {
        let d = self.dim[ci] as usize;
        let start = &self.sub[d * self.f + self.sub_i[ci] as usize];
        let end = &self.sub[d * self.f + self.sub_j[ci] as usize];
        CandidateBounds {
            dim: d,
            start_lo: start.start_lo,
            start_reach: start.start_reach,
            end_lo: end.end_lo,
            end_reach: end.end_reach,
        }
    }

    /// See [`CandidateSlice::count_query`]. Every relation is
    /// `start side ∧ end side` against per-dimension thresholds
    /// `(t1, t2)`: containment tests the start's reach against `t2` and
    /// the end's lower bound against `t1`, the others the start's lower
    /// bound against `t1` and the end's reach against `t2`.
    fn count_query(&self, query: &SpatialQuery, counters: &mut [u32]) {
        assert_eq!(counters.len(), self.dim.len(), "one counter per candidate");
        debug_assert_eq!(query.dims(), self.dims(), "dimensionality mismatch");
        match query {
            SpatialQuery::Intersection(w) | SpatialQuery::Containment(w) => {
                let containment = matches!(query, SpatialQuery::Containment(_));
                let hi_lo = w.intervals().iter().map(|q| (q.hi(), q.lo()));
                self.count_sides(containment, hi_lo, counters)
            }
            SpatialQuery::Enclosure(w) => {
                let lo_hi = w.intervals().iter().map(|q| (q.lo(), q.hi()));
                self.count_sides(false, lo_hi, counters)
            }
            SpatialQuery::PointEnclosing(p) => {
                self.count_sides(false, p.iter().map(|&v| (v, v)), counters)
            }
        }
    }

    /// [`Layout::count_query`] given each dimension's `(t1, t2)`.
    fn count_sides(
        &self,
        containment: bool,
        thresholds: impl Iterator<Item = (Scalar, Scalar)>,
        counters: &mut [u32],
    ) {
        let (mut start_ok, mut end_ok) = ([0u8; 256], [0u8; 256]);
        let dims = self.sub.chunks_exact(self.f).zip(self.dim_offsets.windows(2));
        for ((subs, run), (t1, t2)) in dims.zip(thresholds) {
            for (k, s) in subs.iter().enumerate() {
                (start_ok[k], end_ok[k]) = if containment {
                    ((s.start_reach >= t2) as u8, (s.end_lo <= t1) as u8)
                } else {
                    ((s.start_lo <= t1) as u8, (s.end_reach >= t2) as u8)
                };
            }
            let run = run[0] as usize..run[1] as usize;
            let cells = self.sub_i[run.clone()].iter().zip(&self.sub_j[run.clone()]);
            for (c, (&i, &j)) in counters[run].iter_mut().zip(cells) {
                *c = c.saturating_add((start_ok[i as usize] & end_ok[j as usize]) as u32);
            }
        }
    }

    /// See [`CandidateSlice::count_members`]. The four comparisons are
    /// combined with `&` rather than `&&`, so the member loop has no
    /// branch and vectorizes.
    fn count_members(&self, members: &PairedColumns<'_>, out: &mut [u32]) {
        assert_eq!(out.len(), self.dim.len(), "one member count per candidate");
        for (ci, n) in out.iter_mut().enumerate() {
            let c = self.bounds(ci);
            let (lo, hi) = (members.lo_col(c.dim), members.hi_col(c.dim));
            *n = lo
                .iter()
                .zip(hi)
                .map(|(&a, &b)| {
                    ((c.start_lo <= a)
                        & (a <= c.start_reach)
                        & (c.end_lo <= b)
                        & (b <= c.end_reach)) as u32
                })
                .sum();
        }
    }
}

/// Borrowed, read-only view of one cluster's candidate statistics —
/// the common projection of an owned [`CandidateSet`] and a
/// [`StatsArena`] range. All read logic lives here, so the two
/// answer bit-identically by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateSlice<'a> {
    layout: Layout<'a>,
    /// Member objects of the parent qualifying for each candidate.
    n: &'a [u32],
    /// Queries matching each candidate since the last statistics epoch.
    q: &'a [u32],
    /// Exponentially decayed query count from previous epochs.
    q_eff: &'a [f64],
    /// Cached upper bound on `max(n)` (may be loose, never low).
    n_hi: u32,
    /// Statistics epoch up to which this set's decay is applied.
    stamp: u64,
}

impl<'a> CandidateSlice<'a> {
    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.layout.dim.len()
    }

    /// Whether the set holds no candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.layout.dim.is_empty()
    }

    /// Number of dimensions the candidates specialize.
    #[inline]
    pub fn dims(&self) -> usize {
        self.layout.dims()
    }

    /// The identity of candidate `ci`.
    pub fn id(&self, ci: usize) -> CandidateId {
        CandidateId {
            dim: self.layout.dim[ci],
            i: self.layout.sub_i[ci],
            j: self.layout.sub_j[ci],
        }
    }

    /// The membership bounds of candidate `ci`, copied out.
    pub fn bounds(&self, ci: usize) -> CandidateBounds {
        self.layout.bounds(ci)
    }

    /// Qualifying-member count of candidate `ci`.
    #[inline]
    pub fn n(&self, ci: usize) -> u32 {
        self.n[ci]
    }

    /// Matching-query count of candidate `ci` in the current epoch.
    #[inline]
    pub fn q(&self, ci: usize) -> u32 {
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
    pub fn n_col(&self) -> &'a [u32] {
        self.n
    }

    /// The epoch matching-query counter column.
    #[inline]
    pub fn q_col(&self) -> &'a [u32] {
        self.q
    }

    /// The decayed matching-query history column.
    #[inline]
    pub fn q_eff_col(&self) -> &'a [f64] {
        self.q_eff
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
        self.layout.bounds(ci).accepts_member(flat)
    }

    /// Whether a query *that already matches the parent signature* also
    /// matches candidate `ci` (only the specialized dimension is
    /// checked) — the per-candidate oracle of
    /// [`CandidateSlice::count_query`].
    #[inline]
    pub fn matches_query(&self, ci: usize, query: &SpatialQuery) -> bool {
        let c = self.layout.bounds(ci);
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

    /// Adds one (saturating at `u32::MAX`) to `counters[ci]` for every
    /// candidate `ci` that [`CandidateSlice::matches_query`] — from `2f`
    /// comparisons per dimension rather than one per candidate (see the
    /// module docs). The delta sink counts into its own column with it.
    ///
    /// # Panics
    ///
    /// Panics if `counters` is not exactly one entry per candidate.
    pub fn count_query(&self, query: &SpatialQuery, counters: &mut [u32]) {
        self.layout.count_query(query, counters);
    }

    /// Materializes the full signature of candidate `ci`.
    pub fn signature(&self, ci: usize, parent: &Signature, f: u8) -> Signature {
        let id = self.id(ci);
        parent.specialize(id.dim as usize, f, id.i, id.j)
    }

    /// Counts, from scratch, how many of `members` (the parent
    /// cluster's segment columns) each candidate accepts, into `out`
    /// (one entry per candidate): per candidate, one branch-free pass
    /// over the lower- and upper-bound columns of its specialized
    /// dimension. Independent of the incremental
    /// [`CandidateSliceMut::record_member`] bookkeeping, which is what
    /// lets `check_invariants` audit that bookkeeping with it.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly one entry per candidate.
    pub fn count_members(&self, members: &PairedColumns<'_>, out: &mut [u32]) {
        self.layout.count_members(members, out);
    }
}

/// Borrowed, mutable view of one cluster's candidate statistics — the
/// single home of all counter-mutation logic (member recording, query
/// counting, decay). Bounds and identities stay immutable: they are
/// fixed at generation.
#[derive(Debug, PartialEq)]
pub struct CandidateSliceMut<'a> {
    layout: Layout<'a>,
    n: &'a mut [u32],
    q: &'a mut [u32],
    q_eff: &'a mut [f64],
    n_hi: &'a mut u32,
    stamp: &'a mut u64,
}

impl CandidateSliceMut<'_> {
    /// Reborrows as the read-only view.
    #[inline]
    pub fn as_slice(&self) -> CandidateSlice<'_> {
        CandidateSlice {
            layout: self.layout,
            n: self.n,
            q: self.q,
            q_eff: self.q_eff,
            n_hi: *self.n_hi,
            stamp: *self.stamp,
        }
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.layout.dim.len()
    }

    /// Whether the set holds no candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.layout.dim.is_empty()
    }

    /// Number of dimensions the candidates specialize.
    #[inline]
    pub fn dims(&self) -> usize {
        self.layout.dims()
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
    /// [`CandidateSlice::count_query`], each subinterval is tested once
    /// per dimension and a candidate reads its two outcomes.
    fn adjust_member(&mut self, flat: &[Scalar], add: bool) {
        let layout = self.layout;
        let (mut start_in, mut end_in) = ([0u8; 256], [0u8; 256]);
        for d in 0..layout.dims() {
            let (a, b) = (flat[2 * d], flat[2 * d + 1]);
            for (k, s) in layout.subs(d).iter().enumerate() {
                start_in[k] = ((s.start_lo <= a) & (a <= s.start_reach)) as u8;
                end_in[k] = ((s.end_lo <= b) & (b <= s.end_reach)) as u8;
            }
            let accepts = |ci: usize| {
                start_in[layout.sub_i[ci] as usize] & end_in[layout.sub_j[ci] as usize] == 1
            };
            let run = layout.run(d);
            let Some(ci) = run.clone().find(|&ci| accepts(ci)) else {
                continue;
            };
            debug_assert!(
                !(ci + 1..run.end).any(accepts),
                "two candidates of dimension {d} accept the member {flat:?}"
            );
            if add {
                self.n[ci] += 1;
                *self.n_hi = (*self.n_hi).max(self.n[ci]);
            } else {
                debug_assert!(self.n[ci] > 0);
                self.n[ci] -= 1;
            }
        }
    }

    /// Replaces every candidate's member count with a recount over
    /// `members` — the parent cluster's segment columns — and the
    /// cached bound with their exact maximum
    /// ([`CandidateSlice::count_members`], written in place): what
    /// recording each member once into zeroed counters leaves, at a
    /// column pass per candidate instead of a candidate run per member.
    pub fn recount_members(&mut self, members: &PairedColumns<'_>) {
        self.layout.count_members(members, self.n);
        *self.n_hi = self.n.iter().copied().max().unwrap_or(0);
    }

    /// Adds `inc` matching queries to candidate `ci`, saturating at
    /// `u32::MAX` instead of wrapping.
    pub fn add_q(&mut self, ci: usize, inc: u32) {
        self.q[ci] = self.q[ci].saturating_add(inc);
    }

    /// Adds a whole per-candidate increment vector (saturating) — the
    /// branch-free bulk form [`crate::StatsDelta`] application uses.
    /// `incs` and the set are zipped: a shorter `incs` adds nothing to
    /// the missing entries, and the surplus of a longer one (a reused
    /// delta entry whose slot once held a wider cluster) is ignored.
    pub fn add_q_slice(&mut self, incs: &[u32]) {
        for (q, &inc) in self.q.iter_mut().zip(incs) {
            *q = q.saturating_add(inc);
        }
    }

    /// Counts one query into the `q` counter of every candidate it
    /// matches, in place: [`CandidateSlice::count_query`] into this
    /// set's own `q` column.
    pub fn count_query(&mut self, query: &SpatialQuery) {
        self.layout.count_query(query, self.q);
    }

    /// Closes the statistics epoch: folds each candidate's `q` into its
    /// decayed history with weight `gamma` and resets the epoch counter.
    pub fn decay(&mut self, gamma: f64) {
        for (q_eff, q) in self.q_eff.iter_mut().zip(self.q.iter_mut()) {
            *q_eff = gamma * *q_eff + *q as f64;
            *q = 0;
        }
    }

    /// Replays `epochs` missed statistics-epoch closes at once — the
    /// lazy-decay catch-up applied on the first touch after epoch rolls.
    ///
    /// Bit-identical to calling [`CandidateSliceMut::decay`] `epochs`
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
    /// ([`CandidateSliceMut::catch_up`] at [`crate::STATS_DECAY`]) — a
    /// no-op for a set already there.
    pub(crate) fn catch_up_to(&mut self, epoch: u64) {
        let behind = epoch - *self.stamp;
        if behind > 0 {
            self.catch_up(crate::STATS_DECAY, behind);
            *self.stamp = epoch;
        }
    }

    /// Cached upper bound on the maximal qualifying-member count.
    #[inline]
    pub fn n_hi(&self) -> u32 {
        *self.n_hi
    }

    /// The member-count column, writable: lets tests break the counts
    /// the index's consistency check must catch.
    #[cfg(test)]
    pub(crate) fn n_col_mut(&mut self) -> &mut [u32] {
        self.n
    }

    /// Re-tightens the cached bound to the exact maximum, as computed by
    /// a pass that walked the `n` column anyway.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `exact_max` really bounds every counter.
    pub(crate) fn set_n_hi(&mut self, exact_max: u32) {
        debug_assert!(self.n.iter().all(|&n| n <= exact_max));
        *self.n_hi = exact_max;
    }

    /// Statistics epoch up to which this set's lazy decay is applied.
    #[inline]
    pub fn stamp(&self) -> u64 {
        *self.stamp
    }

    /// Advances the lazy-decay stamp to `epoch`.
    pub(crate) fn set_stamp(&mut self, epoch: u64) {
        *self.stamp = epoch;
    }

    /// Restores saved query counters, `n_hi` bound and decay stamp onto
    /// the set, leaving the `n` column as it is — the checkpoint-recovery
    /// path (`n` is never persisted: the load recounts it from the
    /// members, [`CandidateSliceMut::recount_members`]), and how the
    /// pass's debug tripwire puts back what its scan touched.
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
        // A bound saved for these members is never below their counts; a
        // damaged or hand-built checkpoint's may be, so keep whichever is
        // higher (the bound may be loose, never low).
        let replayed_max = self.n.iter().copied().max().unwrap_or(0);
        *self.n_hi = n_hi.max(replayed_max);
        *self.stamp = stamp;
    }
}

/// The columns a candidate set fixes at generation, owned: one per
/// [`CandidateSet`], and one slab each for a whole [`StatsArena`].
#[derive(Debug, Clone, Default, PartialEq)]
struct FixedColumns {
    /// Candidate range per dimension, `dims + 1` range-relative entries
    /// per set: dimension `d` owns candidates
    /// `dim_offsets[d] .. dim_offsets[d + 1]`.
    dim_offsets: Vec<u32>,
    /// Subinterval bounds, `dims·f` entries per set.
    sub: Vec<SubBounds>,
    /// Specialized dimension per candidate (redundant with the offsets,
    /// kept for O(1) per-candidate access).
    dim: Vec<u16>,
    /// Start subinterval index per candidate.
    sub_i: Vec<u8>,
    /// End subinterval index per candidate.
    sub_j: Vec<u8>,
}

impl FixedColumns {
    /// The view of one set: candidates `cands`, its offsets from
    /// `meta_base`, its `dims·f` bound entries from `sub_base`.
    #[inline]
    fn layout(
        &self,
        cands: std::ops::Range<usize>,
        meta_base: usize,
        sub_base: usize,
        dims: usize,
        f: u8,
    ) -> Layout<'_> {
        let f = f as usize;
        Layout {
            dim_offsets: &self.dim_offsets[meta_base..meta_base + dims + 1],
            sub: &self.sub[sub_base..sub_base + dims * f],
            f,
            dim: &self.dim[cands.clone()],
            sub_i: &self.sub_i[cands.clone()],
            sub_j: &self.sub_j[cands],
        }
    }
}

/// The candidate subclusters of one cluster signature as owned,
/// dimension-grouped columns (see the module docs): the generator and
/// staging value [`StatsArena::alloc`] copies from, and the reference
/// this module's tests mirror arena ranges against. The index never
/// keeps one — clusters hold a [`CandHandle`].
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSet {
    /// Offsets, subinterval bounds and candidate identities.
    cols: FixedColumns,
    /// The division factor `f`.
    f: u8,
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
}

impl CandidateSet {
    /// Generates the candidate set of a cluster signature: for each
    /// dimension, the bounds of its `f` start and `f` end subintervals
    /// and every feasible `(i, j)` combination of them (paper §4.2).
    /// Candidate counters start at zero.
    pub fn generate(sig: &Signature, f: u8) -> Self {
        let mut cols = FixedColumns {
            dim_offsets: vec![0],
            ..FixedColumns::default()
        };
        for d in 0..sig.dims() {
            let ds = sig.dim(d);
            for k in 0..f {
                let (start, end) = (ds.start.subdivide(f, k), ds.end.subdivide(f, k));
                cols.sub.push(SubBounds {
                    start_lo: start.lo(),
                    start_reach: reach_of(&start),
                    end_lo: end.lo(),
                    end_reach: reach_of(&end),
                });
            }
            for i in 0..f {
                for j in 0..f {
                    if sig.combination_feasible(d, f, i, j) {
                        cols.dim.push(d as u16);
                        cols.sub_i.push(i);
                        cols.sub_j.push(j);
                    }
                }
            }
            cols.dim_offsets.push(cols.dim.len() as u32);
        }
        let len = cols.dim.len();
        Self {
            cols,
            f,
            n: vec![0; len],
            q: vec![0; len],
            q_eff: vec![0.0; len],
            n_hi: 0,
            stamp: 0,
        }
    }

    /// Borrows the read-only view all read logic lives on.
    #[inline]
    pub fn as_slice(&self) -> CandidateSlice<'_> {
        CandidateSlice {
            layout: self.cols.layout(0..self.len(), 0, 0, self.dims(), self.f),
            n: &self.n,
            q: &self.q,
            q_eff: &self.q_eff,
            n_hi: self.n_hi,
            stamp: self.stamp,
        }
    }

    /// Borrows the mutable view all mutation logic lives on.
    #[inline]
    pub fn as_slice_mut(&mut self) -> CandidateSliceMut<'_> {
        CandidateSliceMut {
            layout: self.cols.layout(0..self.len(), 0, 0, self.dims(), self.f),
            n: &mut self.n,
            q: &mut self.q,
            q_eff: &mut self.q_eff,
            n_hi: &mut self.n_hi,
            stamp: &mut self.stamp,
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.cols.dim.len()
    }

    /// Whether the set holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.cols.dim.is_empty()
    }

    /// Number of dimensions the candidates specialize.
    pub fn dims(&self) -> usize {
        self.cols.dim_offsets.len() - 1
    }
}

/// Generates the candidate set of a cluster signature — see
/// [`CandidateSet::generate`].
pub fn generate_candidates(sig: &Signature, f: u8) -> CandidateSet {
    CandidateSet::generate(sig, f)
}

/// Opaque handle to one cluster's candidate range inside a
/// [`StatsArena`]. Handles stay valid across compaction (ranges move,
/// ids do not) and are invalidated only by [`StatsArena::retire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandHandle(u32);

/// One allocated range of the arena: `base..base + len` into the
/// candidate slabs, plus its private meta rows (offsets, subinterval
/// bounds) and the per-set scalars (`n_hi`, lazy-decay stamp).
#[derive(Debug, Clone)]
struct RangeEntry {
    /// First candidate index in the per-candidate slabs.
    base: u32,
    /// Number of candidates.
    len: u32,
    /// First entry in the `dim_offsets` slab (`dims + 1` entries).
    meta_base: u32,
    /// First entry in the `sub` slab (`dims·f` entries).
    sub_base: u32,
    /// Number of specialized dimensions.
    dims: u32,
    /// The division factor `f`.
    f: u8,
    /// Whether the range is still owned by a cluster slot. Dead ranges
    /// keep their bytes until the next compaction.
    live: bool,
    /// Cached upper bound on `max(n)` for this range.
    n_hi: u32,
    /// Statistics epoch up to which this range's lazy decay is applied.
    stamp: u64,
}

impl RangeEntry {
    /// The range's candidates in the per-candidate slabs.
    fn cands(&self) -> std::ops::Range<usize> {
        self.base as usize..(self.base + self.len) as usize
    }

    /// Entries of the `dim_offsets` slab the range owns.
    fn metas(&self) -> usize {
        self.dims as usize + 1
    }

    /// Entries of the `sub` slab the range owns.
    fn subs(&self) -> usize {
        self.dims as usize * self.f as usize
    }
}

/// Bytes per candidate across the per-candidate slabs (`dim` 2 +
/// `sub_i` 1 + `sub_j` 1 + `n` 4 + `q` 4 + `q_eff` 8).
const CAND_BYTES: usize = 20;
/// Bytes per `dim_offsets` entry.
const META_BYTES: usize = 4;
/// Bytes per `sub` entry (four `f32` bounds).
const SUB_BYTES: usize = 16;

/// Index-wide statistics arena: one contiguous slab per candidate
/// column family, shared by every cluster slot. See the module docs for
/// the layout rationale; the life cycle is:
///
/// 1. [`StatsArena::alloc`] copies a freshly generated (or staged)
///    [`CandidateSet`] to the slab tail — bump allocation, O(len).
/// 2. [`StatsArena::slice`] / [`StatsArena::slice_mut`] project a range
///    to the shared view types; all statistics logic goes through them.
/// 3. [`StatsArena::retire`] marks a range dead when its cluster is
///    merged away or re-materialized. Bytes stay in place (no id reuse
///    before compaction, so stale handles cannot alias a new range).
/// 4. [`StatsArena::maybe_compact`] — called from the reorganization
///    pass, which walks every slot anyway — slides live ranges down in
///    allocation order once dead bytes reach a quarter of capacity,
///    returning retired ids to the free list. Compaction moves bytes
///    with `copy_within` and never allocates.
///
/// `dim_offsets` entries are stored **range-relative** (each range's
/// first entry is `0`), so compaction moves them verbatim without
/// rewriting.
#[derive(Debug, Default)]
pub struct StatsArena {
    /// Offsets, subinterval-bounds and identity slabs.
    cols: FixedColumns,
    n: Vec<u32>,
    q: Vec<u32>,
    q_eff: Vec<f64>,
    /// Range table, indexed by [`CandHandle`] id. Never shrinks.
    ranges: Vec<RangeEntry>,
    /// Ids available for reuse — replenished **only** by compaction, so
    /// a dead range's id stays unique until its bytes are reclaimed.
    free_ids: Vec<u32>,
    /// Allocated ids in slab order (live and dead until compaction) —
    /// ascending `base`, which makes the compaction slide-down a single
    /// forward walk.
    order: Vec<u32>,
    /// Live candidates across all ranges.
    live_candidates: usize,
    /// Live `dim_offsets` entries.
    live_meta: usize,
    /// Live `sub` entries.
    live_sub: usize,
    /// Number of compactions performed over the arena's lifetime.
    compactions: u64,
}

impl StatsArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies `set`'s columns to the slab tail and returns the handle of
    /// the new range. The set's counters, `n_hi`, and stamp carry over.
    pub fn alloc(&mut self, set: &CandidateSet) -> CandHandle {
        let entry = RangeEntry {
            base: self.cols.dim.len() as u32,
            len: set.len() as u32,
            meta_base: self.cols.dim_offsets.len() as u32,
            sub_base: self.cols.sub.len() as u32,
            dims: set.dims() as u32,
            f: set.f,
            live: true,
            n_hi: set.n_hi,
            stamp: set.stamp,
        };
        self.cols.dim.extend_from_slice(&set.cols.dim);
        self.cols.sub_i.extend_from_slice(&set.cols.sub_i);
        self.cols.sub_j.extend_from_slice(&set.cols.sub_j);
        self.n.extend_from_slice(&set.n);
        self.q.extend_from_slice(&set.q);
        self.q_eff.extend_from_slice(&set.q_eff);
        // Owned sets index from 0 already, so the offsets are
        // range-relative verbatim.
        self.cols
            .dim_offsets
            .extend_from_slice(&set.cols.dim_offsets);
        self.cols.sub.extend_from_slice(&set.cols.sub);
        self.live_candidates += entry.len as usize;
        self.live_meta += entry.metas();
        self.live_sub += entry.subs();
        let id = match self.free_ids.pop() {
            Some(id) => {
                self.ranges[id as usize] = entry;
                id
            }
            None => {
                self.ranges.push(entry);
                (self.ranges.len() - 1) as u32
            }
        };
        // The new range has the largest base, so pushing keeps `order`
        // sorted by base.
        self.order.push(id);
        CandHandle(id)
    }

    /// Marks a range dead. Its bytes stay in place and its id stays
    /// unavailable until the next compaction, so no live handle can
    /// alias it.
    ///
    /// # Panics
    ///
    /// Panics if the handle was already retired.
    pub fn retire(&mut self, h: CandHandle) {
        let e = &mut self.ranges[h.0 as usize];
        assert!(e.live, "candidate range retired twice");
        e.live = false;
        self.live_candidates -= e.len as usize;
        self.live_meta -= e.metas();
        self.live_sub -= e.subs();
    }

    /// The generation-time columns of range `e`.
    #[inline]
    fn layout<'a>(cols: &'a FixedColumns, e: &RangeEntry) -> Layout<'a> {
        let (mb, sb) = (e.meta_base as usize, e.sub_base as usize);
        cols.layout(e.cands(), mb, sb, e.dims as usize, e.f)
    }

    /// Read-only view of a live range.
    #[inline]
    pub fn slice(&self, h: CandHandle) -> CandidateSlice<'_> {
        let e = &self.ranges[h.0 as usize];
        debug_assert!(e.live, "viewing a retired candidate range");
        CandidateSlice {
            layout: Self::layout(&self.cols, e),
            n: &self.n[e.cands()],
            q: &self.q[e.cands()],
            q_eff: &self.q_eff[e.cands()],
            n_hi: e.n_hi,
            stamp: e.stamp,
        }
    }

    /// Mutable view of a live range.
    #[inline]
    pub fn slice_mut(&mut self, h: CandHandle) -> CandidateSliceMut<'_> {
        let e = &mut self.ranges[h.0 as usize];
        debug_assert!(e.live, "viewing a retired candidate range");
        CandidateSliceMut {
            layout: Self::layout(&self.cols, e),
            n: &mut self.n[e.cands()],
            q: &mut self.q[e.cands()],
            q_eff: &mut self.q_eff[e.cands()],
            n_hi: &mut e.n_hi,
            stamp: &mut e.stamp,
        }
    }

    /// Bytes owned by live ranges across all slabs.
    pub fn live_bytes(&self) -> usize {
        self.live_candidates * CAND_BYTES + self.live_meta * META_BYTES + self.live_sub * SUB_BYTES
    }

    /// Bytes occupied by the slabs (live plus not-yet-compacted dead).
    pub fn capacity_bytes(&self) -> usize {
        self.cols.dim.len() * CAND_BYTES
            + self.cols.dim_offsets.len() * META_BYTES
            + self.cols.sub.len() * SUB_BYTES
    }

    /// Number of compactions performed over the arena's lifetime.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Number of live ranges.
    pub fn live_ranges(&self) -> usize {
        self.order
            .iter()
            .filter(|&&id| self.ranges[id as usize].live)
            .count()
    }

    /// Whether dead bytes have reached a quarter of slab capacity — the
    /// compaction trigger.
    pub fn should_compact(&self) -> bool {
        let cap = self.capacity_bytes();
        cap > 0 && (cap - self.live_bytes()) * 4 >= cap
    }

    /// Compacts if [`StatsArena::should_compact`]; returns whether a
    /// compaction ran.
    pub fn maybe_compact(&mut self) -> bool {
        if self.should_compact() {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Slides every live range down over the dead ones, in allocation
    /// order, and returns retired ids to the free list. Handles stay
    /// valid (only the bases move); `dim_offsets` move verbatim because
    /// they are range-relative. Moves bytes with `copy_within` within
    /// the existing slabs — no allocation, no per-range scratch.
    pub fn compact(&mut self) {
        let (mut cand_w, mut meta_w, mut sub_w) = (0usize, 0usize, 0usize);
        for &id in &self.order {
            let e = &mut self.ranges[id as usize];
            if !e.live {
                self.free_ids.push(id);
                continue;
            }
            // `order` is ascending in base and the write cursors never
            // overtake a live base, so the forward copies cannot clobber
            // unread bytes.
            let (cands, mb, sb) = (e.cands(), e.meta_base as usize, e.sub_base as usize);
            let c = &mut self.cols;
            // Ranges before the first dead one stay where they are.
            if (cands.start, mb, sb) != (cand_w, meta_w, sub_w) {
                c.dim.copy_within(cands.clone(), cand_w);
                c.sub_i.copy_within(cands.clone(), cand_w);
                c.sub_j.copy_within(cands.clone(), cand_w);
                self.n.copy_within(cands.clone(), cand_w);
                self.q.copy_within(cands.clone(), cand_w);
                self.q_eff.copy_within(cands, cand_w);
                c.dim_offsets.copy_within(mb..mb + e.metas(), meta_w);
                c.sub.copy_within(sb..sb + e.subs(), sub_w);
            }
            e.base = cand_w as u32;
            e.meta_base = meta_w as u32;
            e.sub_base = sub_w as u32;
            cand_w += e.len as usize;
            meta_w += e.metas();
            sub_w += e.subs();
        }
        self.order.retain(|&id| self.ranges[id as usize].live);
        self.cols.dim.truncate(cand_w);
        self.cols.sub_i.truncate(cand_w);
        self.cols.sub_j.truncate(cand_w);
        self.n.truncate(cand_w);
        self.q.truncate(cand_w);
        self.q_eff.truncate(cand_w);
        self.cols.dim_offsets.truncate(meta_w);
        self.cols.sub.truncate(sub_w);
        self.compactions += 1;
    }

    /// Structural self-check, used by the index's `check_invariants` and
    /// the arena tests: slab lengths agree, every allocated id is
    /// tracked exactly once, live ranges are disjoint, in-bounds, and
    /// ascending in slab order, range-relative offsets partition each
    /// range, each live candidate sits in its own dimension's run with
    /// subinterval indices below `f`, and the live-byte accounting
    /// matches a linear rebuild.
    pub fn check(&self) -> Result<(), String> {
        let n = self.cols.dim.len();
        let cols_agree = self.cols.sub_i.len() == n
            && self.cols.sub_j.len() == n
            && self.n.len() == n
            && self.q.len() == n
            && self.q_eff.len() == n;
        if !cols_agree {
            return Err("candidate slabs disagree on length".into());
        }
        if self.order.len() + self.free_ids.len() != self.ranges.len() {
            return Err(format!(
                "id accounting broken: {} in order + {} free != {} ranges",
                self.order.len(),
                self.free_ids.len(),
                self.ranges.len()
            ));
        }
        let mut seen = vec![false; self.ranges.len()];
        for &id in self.order.iter().chain(&self.free_ids) {
            let slot = seen
                .get_mut(id as usize)
                .ok_or_else(|| format!("id {id} out of range"))?;
            if std::mem::replace(slot, true) {
                return Err(format!("id {id} tracked twice"));
            }
        }
        let (mut cand_w, mut meta_w, mut sub_w) = (0usize, 0usize, 0usize);
        let (mut live_c, mut live_m, mut live_s) = (0usize, 0usize, 0usize);
        for &id in &self.order {
            let e = &self.ranges[id as usize];
            let (base, len, dims) = (e.base as usize, e.len as usize, e.dims as usize);
            let (mb, sb) = (e.meta_base as usize, e.sub_base as usize);
            if base < cand_w || mb < meta_w || sb < sub_w {
                return Err(format!("range {id} overlaps its predecessor"));
            }
            if base + len > n
                || mb + e.metas() > self.cols.dim_offsets.len()
                || sb + e.subs() > self.cols.sub.len()
            {
                return Err(format!("range {id} exceeds slab bounds"));
            }
            let offs = &self.cols.dim_offsets[mb..mb + e.metas()];
            if offs[0] != 0 || offs[dims] as usize != len {
                return Err(format!("range {id} offsets do not span its candidates"));
            }
            if offs.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("range {id} offsets decrease"));
            }
            cand_w = base + len;
            meta_w = mb + e.metas();
            sub_w = sb + e.subs();
            if !e.live {
                continue;
            }
            let layout = Self::layout(&self.cols, e);
            for d in 0..dims {
                for ci in layout.run(d) {
                    if layout.dim[ci] as usize != d {
                        return Err(format!(
                            "range {id} candidate {ci} lies outside its dimension's run"
                        ));
                    }
                    if layout.sub_i[ci] >= e.f || layout.sub_j[ci] >= e.f {
                        return Err(format!(
                            "range {id} candidate {ci} indexes past f = {}",
                            e.f
                        ));
                    }
                }
            }
            live_c += len;
            live_m += e.metas();
            live_s += e.subs();
        }
        if (live_c, live_m, live_s) != (self.live_candidates, self.live_meta, self.live_sub) {
            return Err(format!(
                "live accounting drifted: counted ({live_c}, {live_m}, {live_s}), \
                 recorded ({}, {}, {})",
                self.live_candidates, self.live_meta, self.live_sub
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acx_geom::HyperRect;

    fn rect(lo: &[Scalar], hi: &[Scalar]) -> HyperRect {
        HyperRect::from_bounds(lo, hi).unwrap()
    }

    #[test]
    fn root_candidate_count_matches_paper() {
        // Root: identical variation intervals in every dimension →
        // f(f+1)/2 = 10 candidates per dimension with f = 4.
        let sig = Signature::root(16);
        let cands = generate_candidates(&sig, 4);
        assert_eq!(cands.len(), 16 * 10);
        // §6: between 10·Nd and 16·Nd candidates per cluster.
        assert!(cands.len() >= 10 * 16 && cands.len() <= 16 * 16);
        assert_eq!(cands.dims(), 16);
        // 20 B per candidate, 4 B per offset, 16 B per subinterval entry.
        let mut arena = StatsArena::new();
        arena.alloc(&cands);
        assert_eq!(arena.live_bytes(), 160 * 20 + 17 * 4 + 16 * 4 * 16);
    }

    #[test]
    fn specialized_cluster_candidate_count_in_paper_range() {
        // After specializing d0 with distinct start/end variation
        // intervals, d0 contributes up to 16 combinations.
        let sig = Signature::root(4).specialize(0, 4, 0, 3);
        let cands = generate_candidates(&sig, 4);
        assert!(
            cands.len() > 4 * 10 && cands.len() <= 4 * 16,
            "{}",
            cands.len()
        );
    }

    #[test]
    fn dim_offsets_partition_the_set() {
        let sig = Signature::root(3).specialize(1, 4, 0, 3);
        let cands = generate_candidates(&sig, 4);
        assert_eq!(cands.as_slice().dims(), 3);
        let offsets = &cands.cols.dim_offsets;
        for d in 0..cands.dims() {
            for ci in offsets[d] as usize..offsets[d + 1] as usize {
                assert_eq!(cands.as_slice().id(ci).dim as usize, d);
            }
        }
        assert_eq!(*offsets.last().unwrap() as usize, cands.len());
        assert_eq!(cands.cols.sub.len(), 3 * 4, "f bound entries per dimension");
    }

    fn find(cands: &CandidateSet, dim: u16, i: u8, j: u8) -> usize {
        (0..cands.len())
            .find(|&ci| {
                let id = cands.as_slice().id(ci);
                id.dim == dim && id.i == i && id.j == j
            })
            .expect("candidate exists")
    }

    #[test]
    fn accepts_member_checks_only_specialized_dimension() {
        let sig = Signature::root(2);
        let cands = generate_candidates(&sig, 4);
        // Candidate: d0, starts in [0,0.25), ends in [0,0.25).
        let c = find(&cands, 0, 0, 0);
        assert!(cands.as_slice().accepts_member(c, &rect(&[0.1, 0.9], &[0.2, 1.0]).to_flat()));
        assert!(!cands.as_slice().accepts_member(c, &rect(&[0.1, 0.9], &[0.3, 1.0]).to_flat()));
        // The copied-out bounds agree.
        assert!(cands
            .as_slice()
            .bounds(c)
            .accepts_member(&rect(&[0.1, 0.9], &[0.2, 1.0]).to_flat()));
        assert!(!cands
            .as_slice()
            .bounds(c)
            .accepts_member(&rect(&[0.1, 0.9], &[0.3, 1.0]).to_flat()));
    }

    #[test]
    fn open_bound_boundary_is_excluded_exactly() {
        // d0 candidate (0,0): starts and ends vary in [0, 0.25) — an
        // object touching 0.25 must be rejected despite the closed
        // `reach` encoding.
        let sig = Signature::root(1);
        let cands = generate_candidates(&sig, 4);
        let c = find(&cands, 0, 0, 0);
        assert!(cands.as_slice().accepts_member(c, &[0.0, 0.2499]));
        assert!(!cands.as_slice().accepts_member(c, &[0.0, 0.25]));
        assert!(cands.as_slice().accepts_member(c, &[0.0, 0.25f32.next_down()]));
    }

    #[test]
    fn candidate_signature_equals_specialization() {
        let sig = Signature::root(3);
        let cands = generate_candidates(&sig, 4);
        for ci in 0..5 {
            let id = cands.as_slice().id(ci);
            let expected = sig.specialize(id.dim as usize, 4, id.i, id.j);
            assert_eq!(cands.as_slice().signature(ci, &sig, 4), expected);
        }
    }

    #[test]
    fn matches_query_agrees_with_full_signature_matching() {
        let sig = Signature::root(2);
        let cands = generate_candidates(&sig, 4);
        let queries = [
            SpatialQuery::intersection(rect(&[0.1, 0.2], &[0.3, 0.6])),
            SpatialQuery::containment(rect(&[0.0, 0.0], &[0.5, 0.5])),
            SpatialQuery::enclosure(rect(&[0.4, 0.4], &[0.45, 0.45])),
            SpatialQuery::point_enclosing(vec![0.3, 0.7]),
        ];
        for ci in 0..cands.len() {
            let full = cands.as_slice().signature(ci, &sig, 4);
            for q in &queries {
                assert_eq!(
                    cands.as_slice().matches_query(ci, q),
                    full.matches_query(q),
                    "candidate {:?} vs query {q:?}",
                    cands.as_slice().id(ci)
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
        let mut cols = FixedColumns {
            dim_offsets: vec![0],
            ..FixedColumns::default()
        };
        cols.sub = subs
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
                cols.dim.push(d as u16);
                cols.sub_i.push(i);
                cols.sub_j.push(j);
            }
            cols.dim_offsets.push(cols.dim.len() as u32);
        }
        let len = cols.dim.len();
        assert_eq!(q.len(), len, "one preset counter per candidate");
        CandidateSet {
            cols,
            f,
            n: vec![0; len],
            q,
            q_eff: vec![0.0; len],
            n_hi: 0,
            stamp: 0,
        }
    }

    /// A subinterval as `(lo, hi, open)`.
    pub(super) type Sub = (Scalar, Scalar, bool);

    /// Counts every query `passes` times into the set's own `q` and into
    /// a separate column starting from the same counts, asserts both
    /// equal what the [`CandidateSlice::matches_query`] loop plus a
    /// saturating bump leaves, and returns that.
    pub(super) fn assert_counts_equal_oracle(
        set: &mut CandidateSet,
        queries: &[SpatialQuery],
        passes: usize,
    ) -> Vec<u32> {
        let mut want = set.q.clone();
        let mut column = set.q.clone();
        for q in queries {
            for _ in 0..passes {
                for (ci, w) in want.iter_mut().enumerate() {
                    if set.as_slice().matches_query(ci, q) {
                        *w = w.saturating_add(1);
                    }
                }
                set.as_slice().count_query(q, &mut column);
                set.as_slice_mut().count_query(q);
            }
            assert_eq!(column, want, "into a separate column after {q:?}");
            assert_eq!(set.as_slice().q_col(), &want[..], "in place after {q:?}");
        }
        want
    }

    #[test]
    fn kernel_counts_agree_with_scalar_oracle() {
        // A specialized signature in 3 dims; boundary-coincident query
        // edges on the f = 4 grid. The counters accumulate across the
        // queries, in place and into a separate column alike.
        let sig = Signature::root(3).specialize(2, 4, 1, 3);
        let mut cands = generate_candidates(&sig, 4);
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
        // full-domain windows.
        let (o, c) = (true, false);
        let subs = [
            [(0.0, 0.25, o), (0.0, 0.25, o)],
            [(0.25, 0.5, o), (0.25, 0.75, o)],
            [(0.5, 1.0, c), (0.75, 1.0, c)],
            [(0.0, 0.5, o), (0.0, 0.5, c)],
            [(0.5, 0.75, o), (0.5, 1.0, o)],
            [(0.75, 1.0, c), (0.0, 1.0, c)],
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
            (0..3).all(|ci| set.as_slice().matches_query(ci, &full_d0)),
            "a full-domain interval matches its whole run"
        );

        // One run of 70 candidates, longer than any vector.
        let subs: Vec<[Sub; 2]> = (0..70)
            .map(|k| [(k as Scalar / 70.0, 1.0, c), (0.0, 1.0, c)])
            .collect();
        let cells = vec![(0..70).map(|k| (k, k)).collect()];
        let mut set = hand_built(70, &subs, &cells, vec![0; 70]);
        let want =
            assert_counts_equal_oracle(&mut set, &[SpatialQuery::point_enclosing(vec![0.5])], 1);
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
        assert_eq!(generate_candidates(&sig, 2).len(), 5 * 3);
    }

    #[test]
    fn counters_start_at_zero_and_members_roundtrip() {
        let sig = Signature::root(2);
        let mut cands = generate_candidates(&sig, 4);
        for ci in 0..cands.len() {
            assert_eq!(cands.as_slice().n(ci), 0);
            assert_eq!(cands.as_slice().q(ci), 0);
            assert_eq!(cands.as_slice().q_eff(ci), 0.0);
        }
        let flat = rect(&[0.1, 0.6], &[0.2, 0.9]).to_flat();
        cands.as_slice_mut().record_member(&flat);
        let total: u32 = (0..cands.len()).map(|ci| cands.as_slice().n(ci)).sum();
        // Exactly one accepting candidate per dimension (§4.2 cells).
        assert_eq!(total, 2);
        cands.as_slice_mut().unrecord_member(&flat);
        assert!((0..cands.len()).all(|ci| cands.as_slice().n(ci) == 0));
    }

    #[test]
    fn q_counters_saturate_instead_of_wrapping() {
        let sig = Signature::root(1);
        let mut cands = generate_candidates(&sig, 2);
        cands.as_slice_mut().add_q(0, u32::MAX - 1);
        cands.as_slice_mut().add_q(0, 5);
        assert_eq!(cands.as_slice().q(0), u32::MAX, "increment must saturate");
        cands.as_slice_mut().add_q(0, 1);
        assert_eq!(cands.as_slice().q(0), u32::MAX, "saturated counter stays pinned");
        // Decay folds the saturated value into history and reopens the
        // epoch counter.
        cands.as_slice_mut().decay(0.5);
        assert_eq!(cands.as_slice().q(0), 0);
        assert_eq!(cands.as_slice().q_eff(0), u32::MAX as f64);
    }

    #[test]
    fn catch_up_is_bit_identical_to_eager_decay() {
        // The eager oracle: one `decay` per epoch, exactly as the index
        // performed before decay went lazy.
        let sig = Signature::root(2);
        let mut eager = generate_candidates(&sig, 4);
        // A spread of magnitudes, including a saturated counter and a
        // tiny history that decays through many epochs.
        eager.as_slice_mut().add_q(0, 10);
        eager.as_slice_mut().add_q(3, u32::MAX);
        eager.as_slice_mut().add_q(7, 1);
        eager.as_slice_mut().decay(0.5);
        eager.as_slice_mut().add_q(7, 3);
        let mut lazy = eager.clone();
        let gamma = 0.37;
        for k in [1u64, 2, 5, 40] {
            for _ in 0..k {
                eager.as_slice_mut().decay(gamma);
            }
            lazy.as_slice_mut().catch_up(gamma, k);
            assert_eq!(lazy, eager, "diverged after catching up {k} epochs");
            for ci in 0..eager.len() {
                assert_eq!(
                    lazy.as_slice().q_eff(ci).to_bits(),
                    eager.as_slice().q_eff(ci).to_bits(),
                    "candidate {ci} after {k} epochs"
                );
            }
        }
        // Far past underflow: every history is exactly +0.0 in both, and
        // the lazy early-exit must not change that.
        for _ in 0..4000 {
            eager.as_slice_mut().decay(gamma);
        }
        lazy.as_slice_mut().catch_up(gamma, 4000);
        for ci in 0..eager.len() {
            assert_eq!(lazy.as_slice().q_eff(ci).to_bits(), eager.as_slice().q_eff(ci).to_bits());
            assert_eq!(lazy.as_slice().q_eff(ci), 0.0, "histories underflow to exact zero");
        }
        lazy.as_slice_mut().catch_up(gamma, 0); // no-op
        assert_eq!(lazy, eager);
    }

    #[test]
    fn n_hi_bounds_member_counts() {
        let sig = Signature::root(2);
        let mut cands = generate_candidates(&sig, 4);
        assert_eq!(cands.as_slice().n_hi(), 0);
        let a = rect(&[0.1, 0.6], &[0.2, 0.9]).to_flat();
        let b = rect(&[0.12, 0.6], &[0.2, 0.9]).to_flat();
        cands.as_slice_mut().record_member(&a);
        cands.as_slice_mut().record_member(&b);
        assert_eq!(cands.as_slice().n_hi(), 2, "raised by recordings");
        cands.as_slice_mut().unrecord_member(&a);
        assert_eq!(cands.as_slice().n_hi(), 2, "removals leave the bound loose, never low");
        let max_n = (0..cands.len()).map(|ci| cands.as_slice().n(ci)).max().unwrap();
        assert!(cands.as_slice().n_hi() >= max_n);
        cands.as_slice_mut().set_n_hi(max_n);
        assert_eq!(cands.as_slice().n_hi(), 1, "scans re-tighten to the exact maximum");
        // Decay never touches member counts or the bound.
        cands.as_slice_mut().catch_up(0.5, 3);
        assert_eq!(cands.as_slice().n_hi(), 1);
    }

    #[test]
    fn decay_folds_and_resets() {
        let sig = Signature::root(1);
        let mut cands = generate_candidates(&sig, 2);
        cands.as_slice_mut().add_q(1, 10);
        cands.as_slice_mut().decay(0.5);
        assert_eq!(cands.as_slice().q(1), 0);
        assert_eq!(cands.as_slice().q_eff(1), 10.0);
        cands.as_slice_mut().add_q(1, 4);
        cands.as_slice_mut().decay(0.5);
        assert_eq!(cands.as_slice().q_eff(1), 9.0);
    }

    /// A candidate set with pseudo-random member/query history, used as
    /// arena test fodder.
    fn seasoned_set(dims: usize, f: u8, seed: u64) -> CandidateSet {
        let mut set = generate_candidates(&Signature::root(dims), f);
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) % 33) as Scalar / 32.0
        };
        for _ in 0..5 {
            let mut flat = Vec::with_capacity(2 * dims);
            for _ in 0..dims {
                let (a, b) = (next(), next());
                flat.push(a.min(b));
                flat.push(a.max(b));
            }
            set.as_slice_mut().record_member(&flat);
        }
        for ci in 0..set.len().min(7) {
            set.as_slice_mut().add_q(ci, (seed % 11) as u32 + ci as u32);
        }
        set.as_slice_mut().decay(0.5);
        set.as_slice_mut().add_q(0, 3);
        set.as_slice_mut().set_stamp(seed % 5);
        set
    }

    #[test]
    fn arena_ranges_project_identically_to_owned_sets() {
        let mut arena = StatsArena::new();
        let sets: Vec<CandidateSet> = (0..4)
            .map(|k| seasoned_set(1 + k, 4, 17 * k as u64 + 1))
            .collect();
        let handles: Vec<CandHandle> = sets.iter().map(|s| arena.alloc(s)).collect();
        arena.check().unwrap();
        for (set, &h) in sets.iter().zip(&handles) {
            assert_eq!(arena.slice(h), set.as_slice());
        }
        assert_eq!(arena.live_bytes(), arena.capacity_bytes());
        assert_eq!(arena.live_ranges(), 4);
    }

    #[test]
    fn mutations_through_arena_views_match_owned_mutations() {
        let mut arena = StatsArena::new();
        let mut owned = seasoned_set(3, 4, 99);
        let h = arena.alloc(&owned);
        let flat = rect(&[0.1, 0.4, 0.6], &[0.3, 0.5, 0.9]).to_flat();
        let incs = [2u32, 0, 5, 1];
        for (target, is_arena) in [(true, true), (false, false)] {
            let _ = target;
            let mut view = if is_arena {
                arena.slice_mut(h)
            } else {
                owned.as_slice_mut()
            };
            view.record_member(&flat);
            view.add_q_slice(&incs);
            view.add_q(1, 7);
            view.catch_up(0.5, 2);
            view.unrecord_member(&flat);
            view.set_stamp(9);
            view.catch_up_to(11);
            view.catch_up_to(11); // already there: a no-op
        }
        assert_eq!(arena.slice(h), owned.as_slice());
        for ci in 0..owned.len() {
            assert_eq!(
                arena.slice(h).q_eff(ci).to_bits(),
                owned.as_slice().q_eff(ci).to_bits()
            );
        }
    }

    #[test]
    fn retire_and_compact_preserve_survivors_and_recycle_ids() {
        let mut arena = StatsArena::new();
        let sets: Vec<CandidateSet> = (0..5)
            .map(|k| seasoned_set(2, 4, 1000 + k as u64))
            .collect();
        let handles: Vec<CandHandle> = sets.iter().map(|s| arena.alloc(s)).collect();
        // Retire the middle and last ranges.
        arena.retire(handles[2]);
        arena.retire(handles[4]);
        arena.check().unwrap();
        let live_before = arena.live_bytes();
        assert!(
            arena.should_compact(),
            "2/5 dead is past the quarter trigger"
        );
        assert!(arena.maybe_compact());
        arena.check().unwrap();
        assert_eq!(arena.compactions(), 1);
        assert_eq!(
            arena.live_bytes(),
            live_before,
            "compaction conserves live bytes"
        );
        assert_eq!(
            arena.capacity_bytes(),
            live_before,
            "compaction reclaims all dead bytes"
        );
        for (k, (&h, set)) in handles.iter().zip(&sets).enumerate() {
            if k != 2 && k != 4 {
                assert_eq!(arena.slice(h), set.as_slice(), "survivor {k} moved intact");
            }
        }
        // Retired ids are recycled only after compaction.
        let fresh = seasoned_set(2, 4, 7);
        let h_new = arena.alloc(&fresh);
        assert!(
            h_new == handles[2] || h_new == handles[4],
            "freed id is reused: {h_new:?}"
        );
        assert_eq!(arena.slice(h_new), fresh.as_slice());
        arena.check().unwrap();
        // An idle arena with no dead bytes declines to compact.
        assert!(!arena.maybe_compact());
        assert_eq!(arena.compactions(), 1);
    }

    #[test]
    #[should_panic(expected = "retired twice")]
    fn double_retire_panics() {
        let mut arena = StatsArena::new();
        let h = arena.alloc(&seasoned_set(1, 2, 3));
        arena.retire(h);
        arena.retire(h);
    }

    #[test]
    fn check_catches_a_broken_subinterval_layout() {
        let arena = || {
            let mut arena = StatsArena::new();
            arena.alloc(&seasoned_set(2, 4, 5));
            arena.alloc(&seasoned_set(3, 2, 6));
            arena.check().unwrap();
            arena
        };
        type Break = (&'static str, fn(&mut StatsArena));
        let breaks: [Break; 5] = [
            ("sub_i past f", |a| a.cols.sub_i[3] = 4),
            ("sub_j past f", |a| a.cols.sub_j[25] = 2),
            ("dim of another run", |a| a.cols.dim[0] = 1),
            ("missing bound entry", |a| {
                a.cols.sub.pop();
            }),
            ("range with f + 1 entries per dimension", |a| {
                a.ranges[0].f = 5
            }),
        ];
        for (what, break_it) in breaks {
            let mut a = arena();
            break_it(&mut a);
            assert!(a.check().is_err(), "check missed: {what}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{assert_counts_equal_oracle, hand_built, Sub};
    use super::*;
    use acx_geom::HyperRect;
    use proptest::prelude::*;

    /// One counting pass over zeroed counters, as match flags.
    fn kernel_matches(cands: &CandidateSet, query: &SpatialQuery) -> Vec<bool> {
        let mut counters = vec![0u32; cands.len()];
        cands.as_slice().count_query(query, &mut counters);
        assert!(counters.iter().all(|&c| c <= 1), "one pass adds at most one");
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
                let oracle = cands.as_slice().matches_query(ci, &query);
                prop_assert_eq!(bit, oracle, "candidate {} ({:?})", ci, cands.as_slice().id(ci));
                // When the parent signature matches the query — the
                // precondition under which `explore` consults candidates
                // — the one-dimension check equals full-signature
                // matching (§3.6 safety).
                if sig.matches_query(&query) {
                    prop_assert_eq!(
                        oracle,
                        cands.as_slice().signature(ci, &sig, f).matches_query(&query),
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
                    cands.as_slice().matches_query(ci, &query),
                    "candidate {} under {:?}", ci, &query
                );
                // A full-domain interval cannot discriminate candidates
                // of its dimension for intersection/containment: all
                // bounds live inside the domain, so the whole run
                // matches.
                let d = cands.as_slice().id(ci).dim as usize;
                if full_mask >> d & 1 == 1 && kind < 2 {
                    prop_assert!(bit, "full-domain run candidate {} must match", ci);
                }
            }
        }

        /// The per-dimension count against the scalar
        /// [`CandidateSlice::matches_query`] loop on hand-built sets:
        /// arbitrary, unsorted subinterval bounds (so the factoring
        /// assumes no order), open and closed upper bounds, dimensions
        /// whose end subintervals equal their start ones, empty runs and
        /// runs of 10–16 and 64–80 candidates over any cells, windows
        /// spanning the full domain in some dimensions, and counters
        /// preset up to `u32::MAX`: two passes add exactly what the loop
        /// adds, pinned at the maximum.
        #[test]
        fn compare_and_count_equals_scalar_loop_on_ragged_runs(
            f in 1u8..=12,
            runs in prop::collection::vec(
                prop_oneof![Just(0usize), 10usize..=16, 64usize..=80],
                1..7,
            ),
            subs in prop::collection::vec((coord(), coord(), 0u8..2), 2 * 6 * 12),
            same_mask in 0u8..64,
            cells in prop::collection::vec((0u8..=255, 0u8..=255, 0usize..4), 6 * 80),
            full_mask in 0u8..64,
            pairs in prop::collection::vec((coord(), coord()), 6),
            kind in 0usize..4,
        ) {
            let dims = runs.len();
            let sub = |k: usize| {
                let (a, b, open) = subs[k];
                (a.min(b), a.max(b), open == 1)
            };
            let entries: Vec<[Sub; 2]> = (0..dims * f as usize)
                .map(|k| {
                    let start = sub(2 * k);
                    let d = k / f as usize;
                    [start, if same_mask >> d & 1 == 1 { start } else { sub(2 * k + 1) }]
                })
                .collect();
            let mut drawn = cells.iter();
            let mut preset = Vec::new();
            let cells: Vec<Vec<(u8, u8)>> = runs
                .iter()
                .map(|&len| {
                    drawn
                        .by_ref()
                        .take(len)
                        .map(|&(i, j, q)| {
                            preset.push([0, 7, u32::MAX - 1, u32::MAX][q]);
                            (i % f, j % f)
                        })
                        .collect()
                })
                .collect();
            let mut set = hand_built(f, &entries, &cells, preset);

            // Full [0, 1] intervals on the masked dimensions.
            let (lo, hi): (Vec<Scalar>, Vec<Scalar>) = pairs
                .iter()
                .take(dims)
                .enumerate()
                .map(|(d, &(a, b))| {
                    if full_mask >> d & 1 == 1 { (0.0, 1.0) } else { (a.min(b), a.max(b)) }
                })
                .unzip();
            let w = HyperRect::from_bounds(&lo, &hi).unwrap();
            let query = match kind {
                0 => SpatialQuery::intersection(w),
                1 => SpatialQuery::containment(w),
                2 => SpatialQuery::enclosure(w),
                _ => SpatialQuery::point_enclosing(lo.clone()),
            };
            assert_counts_equal_oracle(&mut set, &[query], 2);
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
                    if set.as_slice().accepts_member(ci, flat) {
                        *n = if add { *n + 1 } else { *n - 1 };
                    }
                }
                if add {
                    set.as_slice_mut().record_member(flat);
                } else {
                    set.as_slice_mut().unrecord_member(flat);
                }
            };
            for flat in &flats {
                record(&mut set, &mut oracle, flat, true);
            }
            // Counts only rose so far: the running maximum is the last.
            let oracle_hi = oracle.iter().copied().max().unwrap_or(0);
            prop_assert_eq!(set.as_slice().n_col(), &oracle[..]);
            prop_assert_eq!(set.as_slice().n_hi(), oracle_hi);
            for flat in flats.iter().step_by(3) {
                record(&mut set, &mut oracle, flat, false);
            }
            prop_assert_eq!(set.as_slice().n_col(), &oracle[..]);
            prop_assert_eq!(set.as_slice().n_hi(), oracle_hi);

            let kept: Vec<&Vec<Scalar>> =
                flats.iter().enumerate().filter(|(k, _)| k % 3 != 0).map(|(_, f)| f).collect();
            let cols: Vec<Vec<Scalar>> = (0..2 * dims)
                .map(|c| kept.iter().map(|flat| flat[c]).collect())
                .collect();
            let mut recounted = CandidateSet::generate(&sig, f);
            recounted.as_slice_mut().recount_members(&PairedColumns::of_equal_columns(&cols));
            prop_assert_eq!(recounted.as_slice().n_col(), &oracle[..]);
            prop_assert_eq!(recounted.as_slice().n_hi(), oracle.iter().copied().max().unwrap_or(0));
        }

        /// Arena life-cycle invariants across random interleavings of
        /// alloc / retire / mutate / compact, mirrored against owned
        /// [`CandidateSet`]s: the structural `check()` holds after every
        /// step, live bytes are conserved across compaction, and every
        /// live range stays bit-identical to its independently mutated
        /// mirror (the "linear rebuild" of the slot→range map).
        #[test]
        fn compaction_preserves_live_ranges_and_accounting(
            ops in prop::collection::vec((0usize..6, 0usize..8, 0u64..u64::MAX), 1..40),
        ) {
            let mut arena = StatsArena::new();
            // Mirror of every live slot: the handle plus an owned set
            // receiving the same mutations.
            let mut mirror: Vec<(CandHandle, CandidateSet)> = Vec::new();
            for (op, pick, seed) in ops {
                match op {
                    // Alloc (twice as likely as the others).
                    0 | 1 => {
                        let dims = 1 + (seed % 3) as usize;
                        let f = if seed & 4 == 0 { 2 } else { 4 };
                        let set = CandidateSet::generate(&Signature::root(dims), f);
                        let h = arena.alloc(&set);
                        mirror.push((h, set));
                    }
                    2 => {
                        if !mirror.is_empty() {
                            let (h, _) = mirror.swap_remove(pick % mirror.len());
                            arena.retire(h);
                        }
                    }
                    3 => {
                        if !mirror.is_empty() {
                            let idx = pick % mirror.len();
                            let (h, set) = &mut mirror[idx];
                            let dims = set.dims();
                            let mut s = seed;
                            let mut next = move || {
                                s = s
                                    .wrapping_mul(6364136223846793005)
                                    .wrapping_add(1442695040888963407);
                                ((s >> 33) % 33) as Scalar / 32.0
                            };
                            let mut flat = Vec::with_capacity(2 * dims);
                            for _ in 0..dims {
                                let (a, b) = (next(), next());
                                flat.push(a.min(b));
                                flat.push(a.max(b));
                            }
                            arena.slice_mut(*h).record_member(&flat);
                            set.as_slice_mut().record_member(&flat);
                        }
                    }
                    4 => {
                        if !mirror.is_empty() {
                            let idx = pick % mirror.len();
                            let (h, set) = &mut mirror[idx];
                            let ci = pick % set.len();
                            let inc = (seed % 100) as u32;
                            arena.slice_mut(*h).add_q(ci, inc);
                            set.as_slice_mut().add_q(ci, inc);
                            arena.slice_mut(*h).catch_up(0.5, seed % 3);
                            set.as_slice_mut().catch_up(0.5, seed % 3);
                        }
                    }
                    _ => {
                        let live = arena.live_bytes();
                        arena.compact();
                        prop_assert_eq!(arena.live_bytes(), live);
                        prop_assert_eq!(arena.capacity_bytes(), live);
                    }
                }
                prop_assert!(arena.check().is_ok(), "{:?}", arena.check());
                prop_assert_eq!(arena.live_ranges(), mirror.len());
            }
            // Final compaction, then the whole map must equal the
            // mirror's linear rebuild.
            arena.compact();
            prop_assert!(arena.check().is_ok());
            prop_assert_eq!(arena.capacity_bytes(), arena.live_bytes());
            for (h, set) in &mirror {
                prop_assert_eq!(arena.slice(*h), set.as_slice());
                for ci in 0..set.len() {
                    prop_assert_eq!(
                        arena.slice(*h).q_eff(ci).to_bits(),
                        set.as_slice().q_eff(ci).to_bits()
                    );
                }
            }
        }
    }
}
