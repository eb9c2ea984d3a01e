//! Virtual candidate subclusters (paper §3.2, §4.2) — stored
//! column-wise so the candidate loop batches like member verification.
//!
//! Every materialized cluster carries a set of *candidate* subclusters —
//! potential specializations of its signature on a single dimension. Only
//! their performance indicators (`n` objects, `q` matching queries) are
//! maintained; a candidate becomes a real cluster only when the
//! materialization benefit function selects it.
//!
//! ## Structure-of-arrays layout
//!
//! Per recorded query, every explored cluster checks **all** of its
//! `≈ f²·Nd` candidates against the query — the same shape as member
//! verification, and (after the columnar member kernel) the dominant
//! cost of recorded execution at high dimensionality. [`CandidateSet`]
//! therefore stores candidates as contiguous columns, grouped by their
//! specialized dimension:
//!
//! * four bound columns (`start_lo`, `start_reach`, `end_lo`,
//!   `end_reach`) shaped exactly like object coordinate columns, and
//! * parallel counter columns (`n`, `q`, `q_eff`) addressed by candidate
//!   index — the `q` column
//!   [`acx_geom::scan::count_candidates`] adds into.
//!
//! `*_reach` is the variation interval's upper bound pre-adjusted for
//! open intervals: `hi` when closed, [`f32::next_down`]`(hi)` when open.
//! For finite `f32` this encodes the half-open semantics losslessly —
//! `contains(v) ⇔ lo ≤ v ≤ reach` and `can_reach(x) ⇔ reach ≥ x` — so
//! both the batch kernel and the scalar oracle are single two-sided
//! comparisons, bit-identical to the [`SigInterval`] predicates.
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

use acx_geom::scan::{count_candidates, CandidateColumns, PairedColumns, QueryBounds, RunBounds};
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

/// Borrowed, read-only view of one cluster's candidate statistics —
/// the common projection of an owned [`CandidateSet`] and a
/// [`StatsArena`] range. All read logic lives here, so the two
/// answer bit-identically by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateSlice<'a> {
    /// Candidate range per dimension, **range-relative** (first entry is
    /// always `0`). Length `dims + 1`.
    dim_offsets: &'a [u32],
    /// Aggregate bounds per dimension run, driving the matches-all fast
    /// path of [`acx_geom::scan::count_candidates`]. Length `dims`.
    run_bounds: &'a [RunBounds],
    /// Specialized dimension per candidate.
    dim: &'a [u16],
    /// Start subinterval index per candidate.
    sub_i: &'a [u8],
    /// End subinterval index per candidate.
    sub_j: &'a [u8],
    /// Inclusive lower bound of the start variation subinterval.
    start_lo: &'a [Scalar],
    /// Largest value the start variation subinterval contains.
    start_reach: &'a [Scalar],
    /// Inclusive lower bound of the end variation subinterval.
    end_lo: &'a [Scalar],
    /// Largest value the end variation subinterval contains.
    end_reach: &'a [Scalar],
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
        self.dim.len()
    }

    /// Whether the set holds no candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dim.is_empty()
    }

    /// Number of dimensions the candidates specialize.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dim_offsets.len() - 1
    }

    /// The bound columns as the batch kernel's borrowed view.
    pub fn columns(&self) -> CandidateColumns<'a> {
        CandidateColumns::new(
            self.start_lo,
            self.start_reach,
            self.end_lo,
            self.end_reach,
            self.dim_offsets,
            self.run_bounds,
        )
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
    pub fn bounds(&self, ci: usize) -> CandidateBounds {
        CandidateBounds {
            dim: self.dim[ci] as usize,
            start_lo: self.start_lo[ci],
            start_reach: self.start_reach[ci],
            end_lo: self.end_lo[ci],
            end_reach: self.end_reach[ci],
        }
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
        let d = self.dim[ci] as usize;
        let a = flat[2 * d];
        let b = flat[2 * d + 1];
        self.start_lo[ci] <= a
            && a <= self.start_reach[ci]
            && self.end_lo[ci] <= b
            && b <= self.end_reach[ci]
    }

    /// Whether a query *that already matches the parent signature* also
    /// matches candidate `ci` (only the specialized dimension is
    /// checked) — the scalar oracle of
    /// [`acx_geom::scan::count_candidates`], same comparisons in the same
    /// order.
    #[inline]
    pub fn matches_query(&self, ci: usize, query: &SpatialQuery) -> bool {
        let d = self.dim[ci] as usize;
        match query {
            SpatialQuery::Intersection(w) => {
                let q = w.interval(d);
                self.start_lo[ci] <= q.hi() && self.end_reach[ci] >= q.lo()
            }
            SpatialQuery::Containment(w) => {
                let q = w.interval(d);
                self.end_lo[ci] <= q.hi() && self.start_reach[ci] >= q.lo()
            }
            SpatialQuery::Enclosure(w) => {
                let q = w.interval(d);
                self.start_lo[ci] <= q.lo() && self.end_reach[ci] >= q.hi()
            }
            SpatialQuery::PointEnclosing(p) => {
                let v = p[d];
                self.start_lo[ci] <= v && self.end_reach[ci] >= v
            }
        }
    }

    /// Materializes the full signature of candidate `ci`.
    pub fn signature(&self, ci: usize, parent: &Signature, f: u8) -> Signature {
        parent.specialize(self.dim[ci] as usize, f, self.sub_i[ci], self.sub_j[ci])
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
        count_members(
            self.start_lo,
            self.start_reach,
            self.end_lo,
            self.end_reach,
            self.dim_offsets,
            members,
            out,
        );
    }
}

/// The column recount behind [`CandidateSlice::count_members`] and
/// [`CandidateSliceMut::recount_members`], over a set's bound columns.
/// A member qualifies when its bounds in the candidate's dimension fall
/// into the start and end subintervals; the four comparisons are
/// combined with `&` rather than `&&`, so the member loop has no branch
/// and vectorizes.
fn count_members(
    start_lo: &[Scalar],
    start_reach: &[Scalar],
    end_lo: &[Scalar],
    end_reach: &[Scalar],
    dim_offsets: &[u32],
    members: &PairedColumns<'_>,
    out: &mut [u32],
) {
    assert_eq!(out.len(), start_lo.len(), "one member count per candidate");
    for d in 0..dim_offsets.len() - 1 {
        let (lo, hi) = (members.lo_col(d), members.hi_col(d));
        for ci in dim_offsets[d] as usize..dim_offsets[d + 1] as usize {
            let (s_lo, s_reach) = (start_lo[ci], start_reach[ci]);
            let (e_lo, e_reach) = (end_lo[ci], end_reach[ci]);
            out[ci] = lo
                .iter()
                .zip(hi)
                .map(|(&a, &b)| {
                    ((s_lo <= a) & (a <= s_reach) & (e_lo <= b) & (b <= e_reach)) as u32
                })
                .sum();
        }
    }
}

/// Borrowed, mutable view of one cluster's candidate statistics — the
/// single home of all counter-mutation logic (member recording, query
/// counting, decay). Bound and identity columns stay immutable: they
/// are fixed at generation.
#[derive(Debug, PartialEq)]
pub struct CandidateSliceMut<'a> {
    dim_offsets: &'a [u32],
    run_bounds: &'a [RunBounds],
    dim: &'a [u16],
    sub_i: &'a [u8],
    sub_j: &'a [u8],
    start_lo: &'a [Scalar],
    start_reach: &'a [Scalar],
    end_lo: &'a [Scalar],
    end_reach: &'a [Scalar],
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
            dim_offsets: self.dim_offsets,
            run_bounds: self.run_bounds,
            dim: self.dim,
            sub_i: self.sub_i,
            sub_j: self.sub_j,
            start_lo: self.start_lo,
            start_reach: self.start_reach,
            end_lo: self.end_lo,
            end_reach: self.end_reach,
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
        self.dim.len()
    }

    /// Whether the set holds no candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dim.is_empty()
    }

    /// Number of dimensions the candidates specialize.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dim_offsets.len() - 1
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
    /// the run and insist nothing else accepts.
    fn adjust_member(&mut self, flat: &[Scalar], add: bool) {
        let accepts = |ci: usize, a: Scalar, b: Scalar| {
            self.start_lo[ci] <= a
                && a <= self.start_reach[ci]
                && self.end_lo[ci] <= b
                && b <= self.end_reach[ci]
        };
        for d in 0..self.dims() {
            let a = flat[2 * d];
            let b = flat[2 * d + 1];
            let run = self.dim_offsets[d] as usize..self.dim_offsets[d + 1] as usize;
            let Some(ci) = run.clone().find(|&ci| accepts(ci, a, b)) else {
                continue;
            };
            debug_assert!(
                !(ci + 1..run.end).any(|other| accepts(other, a, b)),
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
        count_members(
            self.start_lo,
            self.start_reach,
            self.end_lo,
            self.end_reach,
            self.dim_offsets,
            members,
            self.n,
        );
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
    /// matches, in place: [`acx_geom::scan::count_candidates`] over this
    /// set's own bound columns — what [`CandidateSlice::matches_query`]
    /// plus [`CandidateSliceMut::add_q`] per candidate would leave.
    pub fn count_query(&mut self, bounds: &QueryBounds) {
        let cols = CandidateColumns::new(
            self.start_lo,
            self.start_reach,
            self.end_lo,
            self.end_reach,
            self.dim_offsets,
            self.run_bounds,
        );
        count_candidates(bounds, &cols, self.q);
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

/// The candidate subclusters of one cluster signature as owned,
/// dimension-grouped columns (see the module docs): the generator and
/// staging value [`StatsArena::alloc`] copies from, and the reference
/// this module's tests mirror arena ranges against. The index never
/// keeps one — clusters hold a [`CandHandle`].
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSet {
    /// Candidate range per dimension: dimension `d` owns candidates
    /// `dim_offsets[d] .. dim_offsets[d + 1]`. Length `dims + 1`.
    dim_offsets: Vec<u32>,
    /// Aggregate bounds per dimension run (length `dims`), computed once
    /// at generation — bound columns never change afterwards.
    run_bounds: Vec<RunBounds>,
    /// Specialized dimension per candidate (redundant with the offsets,
    /// kept for O(1) per-candidate access).
    dim: Vec<u16>,
    /// Start subinterval index per candidate.
    sub_i: Vec<u8>,
    /// End subinterval index per candidate.
    sub_j: Vec<u8>,
    /// Inclusive lower bound of the start variation subinterval.
    start_lo: Vec<Scalar>,
    /// Largest value the start variation subinterval contains.
    start_reach: Vec<Scalar>,
    /// Inclusive lower bound of the end variation subinterval.
    end_lo: Vec<Scalar>,
    /// Largest value the end variation subinterval contains.
    end_reach: Vec<Scalar>,
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
    /// dimension, every feasible `(i, j)` combination of `f` start/end
    /// subintervals (paper §4.2). Candidate counters start at zero.
    pub fn generate(sig: &Signature, f: u8) -> Self {
        let cap = sig.dims() * (f as usize * (f as usize + 1)) / 2;
        let mut set = Self {
            dim_offsets: Vec::with_capacity(sig.dims() + 1),
            run_bounds: Vec::new(),
            dim: Vec::with_capacity(cap),
            sub_i: Vec::with_capacity(cap),
            sub_j: Vec::with_capacity(cap),
            start_lo: Vec::with_capacity(cap),
            start_reach: Vec::with_capacity(cap),
            end_lo: Vec::with_capacity(cap),
            end_reach: Vec::with_capacity(cap),
            n: Vec::with_capacity(cap),
            q: Vec::with_capacity(cap),
            q_eff: Vec::with_capacity(cap),
            n_hi: 0,
            stamp: 0,
        };
        set.dim_offsets.push(0);
        for d in 0..sig.dims() {
            let ds = sig.dim(d);
            for i in 0..f {
                for j in 0..f {
                    if !sig.combination_feasible(d, f, i, j) {
                        continue;
                    }
                    let start = ds.start.subdivide(f, i);
                    let end = ds.end.subdivide(f, j);
                    set.dim.push(d as u16);
                    set.sub_i.push(i);
                    set.sub_j.push(j);
                    set.start_lo.push(start.lo());
                    set.start_reach.push(reach_of(&start));
                    set.end_lo.push(end.lo());
                    set.end_reach.push(reach_of(&end));
                    set.n.push(0);
                    set.q.push(0);
                    set.q_eff.push(0.0);
                }
            }
            set.dim_offsets.push(set.dim.len() as u32);
        }
        set.run_bounds = RunBounds::compute_all(
            &set.start_lo,
            &set.start_reach,
            &set.end_lo,
            &set.end_reach,
            &set.dim_offsets,
        );
        set
    }

    /// Borrows the read-only view all read logic lives on.
    #[inline]
    pub fn as_slice(&self) -> CandidateSlice<'_> {
        CandidateSlice {
            dim_offsets: &self.dim_offsets,
            run_bounds: &self.run_bounds,
            dim: &self.dim,
            sub_i: &self.sub_i,
            sub_j: &self.sub_j,
            start_lo: &self.start_lo,
            start_reach: &self.start_reach,
            end_lo: &self.end_lo,
            end_reach: &self.end_reach,
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
            dim_offsets: &self.dim_offsets,
            run_bounds: &self.run_bounds,
            dim: &self.dim,
            sub_i: &self.sub_i,
            sub_j: &self.sub_j,
            start_lo: &self.start_lo,
            start_reach: &self.start_reach,
            end_lo: &self.end_lo,
            end_reach: &self.end_reach,
            n: &mut self.n,
            q: &mut self.q,
            q_eff: &mut self.q_eff,
            n_hi: &mut self.n_hi,
            stamp: &mut self.stamp,
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.dim.len()
    }

    /// Whether the set holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.dim.is_empty()
    }

    /// Number of dimensions the candidates specialize.
    pub fn dims(&self) -> usize {
        self.dim_offsets.len() - 1
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
/// candidate slabs, plus its private meta rows (offsets, run bounds)
/// and the per-set scalars (`n_hi`, lazy-decay stamp).
#[derive(Debug, Clone)]
struct RangeEntry {
    /// First candidate index in the per-candidate slabs.
    base: u32,
    /// Number of candidates.
    len: u32,
    /// First entry in the `dim_offsets` slab (`dims + 1` entries).
    meta_base: u32,
    /// First entry in the `run_bounds` slab (`dims` entries).
    runs_base: u32,
    /// Number of specialized dimensions.
    dims: u32,
    /// Whether the range is still owned by a cluster slot. Dead ranges
    /// keep their bytes until the next compaction.
    live: bool,
    /// Cached upper bound on `max(n)` for this range.
    n_hi: u32,
    /// Statistics epoch up to which this range's lazy decay is applied.
    stamp: u64,
}

/// Bytes per candidate across the per-candidate slabs
/// (`dim` 2 + `sub_i` 1 + `sub_j` 1 + four `f32` bounds 16 + `n` 4 +
/// `q` 4 + `q_eff` 8).
const CAND_BYTES: usize = 36;
/// Bytes per `dim_offsets` entry.
const META_BYTES: usize = 4;
/// Bytes per `run_bounds` entry (four `f32` aggregates).
const RUNS_BYTES: usize = 16;

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
    dim: Vec<u16>,
    sub_i: Vec<u8>,
    sub_j: Vec<u8>,
    start_lo: Vec<Scalar>,
    start_reach: Vec<Scalar>,
    end_lo: Vec<Scalar>,
    end_reach: Vec<Scalar>,
    n: Vec<u32>,
    q: Vec<u32>,
    q_eff: Vec<f64>,
    /// `dim_offsets` slab: `dims + 1` range-relative entries per range.
    dim_offsets: Vec<u32>,
    /// `run_bounds` slab: `dims` entries per range.
    run_bounds: Vec<RunBounds>,
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
    /// Live `run_bounds` entries.
    live_runs: usize,
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
            base: self.dim.len() as u32,
            len: set.len() as u32,
            meta_base: self.dim_offsets.len() as u32,
            runs_base: self.run_bounds.len() as u32,
            dims: set.dims() as u32,
            live: true,
            n_hi: set.n_hi,
            stamp: set.stamp,
        };
        self.dim.extend_from_slice(&set.dim);
        self.sub_i.extend_from_slice(&set.sub_i);
        self.sub_j.extend_from_slice(&set.sub_j);
        self.start_lo.extend_from_slice(&set.start_lo);
        self.start_reach.extend_from_slice(&set.start_reach);
        self.end_lo.extend_from_slice(&set.end_lo);
        self.end_reach.extend_from_slice(&set.end_reach);
        self.n.extend_from_slice(&set.n);
        self.q.extend_from_slice(&set.q);
        self.q_eff.extend_from_slice(&set.q_eff);
        // Owned sets index from 0 already, so the offsets are
        // range-relative verbatim.
        self.dim_offsets.extend_from_slice(&set.dim_offsets);
        self.run_bounds.extend_from_slice(&set.run_bounds);
        self.live_candidates += set.len();
        self.live_meta += set.dims() + 1;
        self.live_runs += set.dims();
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
        self.live_meta -= e.dims as usize + 1;
        self.live_runs -= e.dims as usize;
    }

    /// Read-only view of a live range.
    #[inline]
    pub fn slice(&self, h: CandHandle) -> CandidateSlice<'_> {
        let e = &self.ranges[h.0 as usize];
        debug_assert!(e.live, "viewing a retired candidate range");
        let (base, len) = (e.base as usize, e.len as usize);
        let (mb, rb, dims) = (e.meta_base as usize, e.runs_base as usize, e.dims as usize);
        CandidateSlice {
            dim_offsets: &self.dim_offsets[mb..mb + dims + 1],
            run_bounds: &self.run_bounds[rb..rb + dims],
            dim: &self.dim[base..base + len],
            sub_i: &self.sub_i[base..base + len],
            sub_j: &self.sub_j[base..base + len],
            start_lo: &self.start_lo[base..base + len],
            start_reach: &self.start_reach[base..base + len],
            end_lo: &self.end_lo[base..base + len],
            end_reach: &self.end_reach[base..base + len],
            n: &self.n[base..base + len],
            q: &self.q[base..base + len],
            q_eff: &self.q_eff[base..base + len],
            n_hi: e.n_hi,
            stamp: e.stamp,
        }
    }

    /// Mutable view of a live range.
    #[inline]
    pub fn slice_mut(&mut self, h: CandHandle) -> CandidateSliceMut<'_> {
        let e = &mut self.ranges[h.0 as usize];
        debug_assert!(e.live, "viewing a retired candidate range");
        let (base, len) = (e.base as usize, e.len as usize);
        let (mb, rb, dims) = (e.meta_base as usize, e.runs_base as usize, e.dims as usize);
        CandidateSliceMut {
            dim_offsets: &self.dim_offsets[mb..mb + dims + 1],
            run_bounds: &self.run_bounds[rb..rb + dims],
            dim: &self.dim[base..base + len],
            sub_i: &self.sub_i[base..base + len],
            sub_j: &self.sub_j[base..base + len],
            start_lo: &self.start_lo[base..base + len],
            start_reach: &self.start_reach[base..base + len],
            end_lo: &self.end_lo[base..base + len],
            end_reach: &self.end_reach[base..base + len],
            n: &mut self.n[base..base + len],
            q: &mut self.q[base..base + len],
            q_eff: &mut self.q_eff[base..base + len],
            n_hi: &mut e.n_hi,
            stamp: &mut e.stamp,
        }
    }

    /// Bytes owned by live ranges across all slabs.
    pub fn live_bytes(&self) -> usize {
        self.live_candidates * CAND_BYTES
            + self.live_meta * META_BYTES
            + self.live_runs * RUNS_BYTES
    }

    /// Bytes occupied by the slabs (live plus not-yet-compacted dead).
    pub fn capacity_bytes(&self) -> usize {
        self.dim.len() * CAND_BYTES
            + self.dim_offsets.len() * META_BYTES
            + self.run_bounds.len() * RUNS_BYTES
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
    /// valid (only `base` moves); `dim_offsets` move verbatim because
    /// they are range-relative. Moves bytes with `copy_within` within
    /// the existing slabs — no allocation, no per-range scratch.
    pub fn compact(&mut self) {
        let mut cand_w = 0usize;
        let mut meta_w = 0usize;
        let mut runs_w = 0usize;
        for &id in &self.order {
            let (live, base, len, mb, rb, dims) = {
                let e = &self.ranges[id as usize];
                (
                    e.live,
                    e.base as usize,
                    e.len as usize,
                    e.meta_base as usize,
                    e.runs_base as usize,
                    e.dims as usize,
                )
            };
            if !live {
                self.free_ids.push(id);
                continue;
            }
            // `order` is ascending in base and the write cursor never
            // overtakes a live base, so the forward copies cannot clobber
            // unread bytes.
            if base != cand_w {
                self.dim.copy_within(base..base + len, cand_w);
                self.sub_i.copy_within(base..base + len, cand_w);
                self.sub_j.copy_within(base..base + len, cand_w);
                self.start_lo.copy_within(base..base + len, cand_w);
                self.start_reach.copy_within(base..base + len, cand_w);
                self.end_lo.copy_within(base..base + len, cand_w);
                self.end_reach.copy_within(base..base + len, cand_w);
                self.n.copy_within(base..base + len, cand_w);
                self.q.copy_within(base..base + len, cand_w);
                self.q_eff.copy_within(base..base + len, cand_w);
            }
            if mb != meta_w {
                self.dim_offsets.copy_within(mb..mb + dims + 1, meta_w);
            }
            if rb != runs_w {
                self.run_bounds.copy_within(rb..rb + dims, runs_w);
            }
            let e = &mut self.ranges[id as usize];
            e.base = cand_w as u32;
            e.meta_base = meta_w as u32;
            e.runs_base = runs_w as u32;
            cand_w += len;
            meta_w += dims + 1;
            runs_w += dims;
        }
        self.order.retain(|&id| self.ranges[id as usize].live);
        self.dim.truncate(cand_w);
        self.sub_i.truncate(cand_w);
        self.sub_j.truncate(cand_w);
        self.start_lo.truncate(cand_w);
        self.start_reach.truncate(cand_w);
        self.end_lo.truncate(cand_w);
        self.end_reach.truncate(cand_w);
        self.n.truncate(cand_w);
        self.q.truncate(cand_w);
        self.q_eff.truncate(cand_w);
        self.dim_offsets.truncate(meta_w);
        self.run_bounds.truncate(runs_w);
        self.compactions += 1;
    }

    /// Structural self-check, used by the index's `check_invariants` and
    /// the arena tests: slab lengths agree, every allocated id is
    /// tracked exactly once, live ranges are disjoint, in-bounds, and
    /// ascending in slab order, range-relative offsets partition each
    /// range, and the live-byte accounting matches a linear rebuild.
    pub fn check(&self) -> Result<(), String> {
        let n = self.dim.len();
        let cols_agree = self.sub_i.len() == n
            && self.sub_j.len() == n
            && self.start_lo.len() == n
            && self.start_reach.len() == n
            && self.end_lo.len() == n
            && self.end_reach.len() == n
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
        let (mut cand_w, mut meta_w, mut runs_w) = (0usize, 0usize, 0usize);
        let (mut live_c, mut live_m, mut live_r) = (0usize, 0usize, 0usize);
        for &id in &self.order {
            let e = &self.ranges[id as usize];
            let (base, len) = (e.base as usize, e.len as usize);
            let (mb, rb, dims) = (e.meta_base as usize, e.runs_base as usize, e.dims as usize);
            if base < cand_w || mb < meta_w || rb < runs_w {
                return Err(format!("range {id} overlaps its predecessor"));
            }
            if base + len > n
                || mb + dims + 1 > self.dim_offsets.len()
                || rb + dims > self.run_bounds.len()
            {
                return Err(format!("range {id} exceeds slab bounds"));
            }
            let offs = &self.dim_offsets[mb..mb + dims + 1];
            if offs[0] != 0 || offs[dims] as usize != len {
                return Err(format!("range {id} offsets do not span its candidates"));
            }
            if offs.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("range {id} offsets decrease"));
            }
            cand_w = base + len;
            meta_w = mb + dims + 1;
            runs_w = rb + dims;
            if e.live {
                live_c += len;
                live_m += dims + 1;
                live_r += dims;
            }
        }
        if (live_c, live_m, live_r) != (self.live_candidates, self.live_meta, self.live_runs) {
            return Err(format!(
                "live accounting drifted: counted ({live_c}, {live_m}, {live_r}), \
                 recorded ({}, {}, {})",
                self.live_candidates, self.live_meta, self.live_runs
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
        for d in 0..cands.dims() {
            let cols = cands.as_slice().columns();
            assert_eq!(cols.dims(), 3);
            for ci in cands.dim_offsets[d] as usize..cands.dim_offsets[d + 1] as usize {
                assert_eq!(cands.as_slice().id(ci).dim as usize, d);
            }
        }
        assert_eq!(*cands.dim_offsets.last().unwrap() as usize, cands.len());
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
        let mut bounds = QueryBounds::new();
        let mut want = vec![0u32; cands.len()];
        let mut column = vec![0u32; cands.len()];
        for q in &queries {
            bounds.load(q);
            count_candidates(&bounds, &cands.as_slice().columns(), &mut column);
            cands.as_slice_mut().count_query(&bounds);
            for (ci, w) in want.iter_mut().enumerate() {
                *w += cands.as_slice().matches_query(ci, q) as u32;
            }
            assert_eq!(column, want, "separate column after {q:?}");
            assert_eq!(cands.as_slice().q_col(), &want[..], "in place after {q:?}");
        }
        assert!(
            want.iter().any(|&w| w > 1) && want.iter().min() != want.iter().max(),
            "test premise: counts accumulate and discriminate"
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
}

#[cfg(test)]
mod proptests {
    use super::*;
    use acx_geom::HyperRect;
    use proptest::prelude::*;

    /// One kernel pass over zeroed counters, as match flags.
    fn kernel_matches(cands: &CandidateSet, query: &SpatialQuery) -> Vec<bool> {
        let mut bounds = QueryBounds::new();
        bounds.load(query);
        let mut counters = vec![0u32; cands.len()];
        count_candidates(&bounds, &cands.as_slice().columns(), &mut counters);
        assert!(counters.iter().all(|&c| c <= 1), "one pass adds at most one");
        counters.iter().map(|&c| c == 1).collect()
    }

    /// Grid-snapped coordinate so query edges coincide with the f = 4
    /// subdivision boundaries constantly.
    fn coord() -> impl Strategy<Value = Scalar> {
        (0u8..=8).prop_map(|k| k as Scalar / 8.0)
    }

    proptest! {
        /// The candidate kernel equals the scalar oracle for
        /// 1–8 dimensions, both division factors, all four query kinds,
        /// and signatures specialized to produce open and closed
        /// variation intervals — including boundary-coincident query
        /// edges.
        #[test]
        fn candidate_kernel_equals_scalar_oracle(
            dims in 1usize..=8,
            f in prop_oneof![Just(2u8), Just(4u8)],
            spec_dim in 0usize..8,
            spec_i in 0u8..4,
            spec_j in 0u8..4,
            pairs in prop::collection::vec((coord(), coord()), 8),
            kind in 0usize..4,
        ) {
            let spec_dim = spec_dim % dims;
            let (spec_i, spec_j) = (spec_i % f, spec_j % f);
            let sig = if spec_i <= spec_j {
                Signature::root(dims).specialize(spec_dim, f, spec_i, spec_j)
            } else {
                Signature::root(dims)
            };
            let cands = CandidateSet::generate(&sig, f);
            prop_assert!(!cands.is_empty(), "every signature yields candidates");

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

        /// The per-run matches-all fast path (a query interval spanning
        /// the full domain of a specialized dimension) is bit-identical
        /// to the per-candidate evaluation: counts equal the scalar
        /// oracle, and full-domain intersection/containment runs are
        /// counted whole.
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

            // Force the full [0, 1] domain on the masked dimensions so
            // the kernel's run screen fires; the rest stay random.
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

        /// The compare-and-count kernel against the scalar
        /// [`CandidateSlice::matches_query`] loop on hand-built ragged
        /// sets — empty runs, runs of 10–16 candidates, open and closed
        /// upper bounds, runs a full-domain query interval counts whole
        /// — with counters pre-seeded up to `u32::MAX − 1`: two passes
        /// add exactly what the loop adds, pinned at the maximum.
        #[test]
        fn compare_and_count_equals_scalar_loop_on_ragged_runs(
            runs in prop::collection::vec(prop_oneof![Just(0usize), 10usize..=16], 1..7),
            starts in prop::collection::vec((coord(), coord(), 0u8..2), 6 * 16),
            ends in prop::collection::vec((coord(), coord(), 0u8..2, 0u8..4), 6 * 16),
            full_mask in 0u8..64,
            pairs in prop::collection::vec((coord(), coord()), 6),
            kind in 0usize..4,
        ) {
            let dims = runs.len();
            let mut set = CandidateSet::generate(&Signature::root(dims), 2);
            let n: usize = runs.iter().sum();
            set.dim_offsets = std::iter::once(0)
                .chain(runs.iter().scan(0u32, |at, &len| {
                    *at += len as u32;
                    Some(*at)
                }))
                .collect();
            set.dim = runs
                .iter()
                .enumerate()
                .flat_map(|(d, &len)| std::iter::repeat_n(d as u16, len))
                .collect();
            let (starts, ends) = (&starts[..n], &ends[..n]);
            let reach = |hi: Scalar, open: u8| if open == 1 { hi.next_down() } else { hi };
            set.start_lo = starts.iter().map(|s| s.0.min(s.1)).collect();
            set.start_reach = starts.iter().map(|s| reach(s.0.max(s.1), s.2)).collect();
            set.end_lo = ends.iter().map(|e| e.0.min(e.1)).collect();
            set.end_reach = ends.iter().map(|e| reach(e.0.max(e.1), e.2)).collect();
            set.run_bounds = RunBounds::compute_all(
                &set.start_lo,
                &set.start_reach,
                &set.end_lo,
                &set.end_reach,
                &set.dim_offsets,
            );
            set.sub_i = vec![0; n];
            set.sub_j = vec![0; n];
            set.n = vec![0; n];
            set.q_eff = vec![0.0; n];
            set.q = ends
                .iter()
                .map(|e| [0, 7, u32::MAX - 1, u32::MAX][e.3 as usize])
                .collect();

            // Full [0, 1] intervals on the masked dimensions: whole runs
            // match an intersection there, whatever their bounds.
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

            let mut want = set.q.clone();
            let mut column = set.q.clone();
            let mut bounds = QueryBounds::new();
            bounds.load(&query);
            for _ in 0..2 {
                for (ci, w) in want.iter_mut().enumerate() {
                    if set.as_slice().matches_query(ci, &query) {
                        *w = w.saturating_add(1);
                    }
                }
                count_candidates(&bounds, &set.as_slice().columns(), &mut column);
                set.as_slice_mut().count_query(&bounds);
            }
            prop_assert_eq!(&column, &want, "into a separate column");
            prop_assert_eq!(set.as_slice().q_col(), &want[..], "in place");
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
