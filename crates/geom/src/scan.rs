//! Columnar (dimension-major) batch verification kernel over `u64`
//! survivors bitmasks.
//!
//! Sequential verification of a whole segment is the hot loop of the
//! system (paper §3.6, Fig. 5): the clustering bet only pays off if
//! scanning a cluster's members is cheap enough to beat fine-grained
//! indexing. [`SpatialQuery::matches_flat`] walks one object at a time
//! over interleaved `[lo0, hi0, lo1, hi1, …]` coordinates; this module
//! provides the batch counterpart over a *dimension-major* (SoA) layout:
//! one contiguous `lo` column and one `hi` column per dimension.
//!
//! The kernel tests a whole block of [`BLOCK`] = 64 objects against one
//! query dimension at a time, keeping the survivors of each block as one
//! `u64` bitmask (bit `i` = object `i` of the block still matches).
//! Per dimension the pass bits of the block are packed movemask-style
//! into a word and ANDed into the mask; survivor counting is a single
//! `popcount`. A block whose mask reaches zero skips its remaining
//! dimensions — the columnar analogue of the scalar path's per-object
//! early exit.
//!
//! Three layers build on the same mask machinery:
//!
//! * [`scan_columns`] — member verification over any [`ColumnAccess`]
//!   (the adaptive index's segments, the sequential-scan baseline).
//! * [`scan_interleaved`] — the same kernel over row-major input
//!   (R*-tree leaf pages), gathering one block-sized tile per
//!   (block, dimension) lazily.
//! * [`count_candidates`] — one query against *all candidate subclusters*
//!   of a cluster, dimension-major over [`CandidateColumns`]; every
//!   candidate is a single two-sided comparison on its own specialized
//!   dimension, so there is no refinement and no mask: the outcome is
//!   added straight into a counter column.
//!
//! A caller that runs many kernel calls for one query (an index
//! exploring hundreds of clusters) loads the query's [`QueryBounds`]
//! once and uses the `*_loaded` entry points.
//!
//! ## Zone maps
//!
//! A [`ColumnAccess`] implementation may additionally expose per-block
//! min/max bounds per dimension ([`ZoneEntry`], one entry per 64-lane
//! block). When the entry proves that *every* lane of the block fails
//! the dimension, the kernel zeroes the block without reading the
//! columns; when it proves every lane passes, it skips the read and
//! keeps the mask. Both skips charge exactly the `dims_checked` the full
//! evaluation would have charged (all surviving lanes inspected this
//! dimension), so byte accounting stays bit-identical — see below.
//!
//! ## Metrics are bit-identical to the scalar path
//!
//! The scalar loop charges each object `dims_checked` = the index of its
//! first failing dimension plus one (or the full dimensionality when it
//! matches). Since an object reaches the check of dimension `d` exactly
//! when it survived dimensions `0..d`, the total over a segment equals
//! the sum over dimensions of the number of objects still alive when
//! that dimension is evaluated — which is precisely the sum of mask
//! popcounts the kernel accumulates. Dimensions are evaluated in the
//! same order (`0, 1, 2, …`) with the same comparisons (a zone skip only
//! triggers when the per-lane outcome is implied for every lane), so
//! [`ScanOutcome`] totals — and every byte counter and reorganization
//! decision derived from them — are bit-identical to object-at-a-time
//! verification.
//!
//! ## SIMD
//!
//! The default pass-word packing is portable: a branch-free compare loop
//! the compiler auto-vectorizes, followed by a multiply-gather of the
//! 0/1 bytes into mask bits. On x86_64 the loop is additionally
//! dispatched to an AVX2-compiled clone when the CPU supports it
//! (runtime-detected once, like the candidate kernel's count loop), so
//! the default build vectorizes at eight lanes. The `simd` cargo
//! feature instead swaps in an explicit `core::arch::x86_64` path
//! (SSE `cmpleps` + `movmskps` baseline, AVX2 `vcmpps` when detected)
//! producing the same words bit for bit. (`std::simd` would be
//! preferable but is still nightly-only; the stable intrinsics express
//! the same kernel.)

use crate::{Scalar, SpatialQuery, OBJECT_ID_BYTES};

/// Objects per kernel block — and lanes per survivors-mask word: small
/// enough that a block of rejected objects stops paying for further
/// dimensions quickly, large enough that the per-dimension loops
/// vectorize and survivor counting is one `popcount`.
pub const BLOCK: usize = 64;

/// Per-block, per-dimension min/max bounds used to skip whole blocks
/// without reading their columns (zone maps). Entry `k` of dimension `d`
/// summarizes lanes `64·k .. 64·(k+1)` of that dimension's columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneEntry {
    /// Minimum of the block's lower bounds.
    pub min_lo: Scalar,
    /// Maximum of the block's lower bounds.
    pub max_lo: Scalar,
    /// Minimum of the block's upper bounds.
    pub min_hi: Scalar,
    /// Maximum of the block's upper bounds.
    pub max_hi: Scalar,
}

/// What a [`ZoneEntry`] proves about a block for one query dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ZoneVerdict {
    /// Every lane of the block fails this dimension.
    AllFail,
    /// Every lane of the block passes this dimension.
    AllPass,
    /// Inconclusive: the columns must be read.
    Mixed,
}

/// Read access to a dimension-major coordinate layout: one `lo` and one
/// `hi` column per dimension, each holding one scalar per object.
pub trait ColumnAccess {
    /// Number of objects (every column has exactly this length).
    fn len(&self) -> usize;
    /// Whether the column set holds no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Lower-bound column of dimension `d`.
    fn lo_col(&self, d: usize) -> &[Scalar];
    /// Upper-bound column of dimension `d`.
    fn hi_col(&self, d: usize) -> &[Scalar];
    /// Zone-map entry for dimension `d`, 64-lane block `block`, when the
    /// layout maintains one. `None` (the default) always reads columns.
    ///
    /// Entries must summarize exactly lanes `64·block ..
    /// min(64·(block+1), len)` of the dimension's columns; a stale entry
    /// breaks the kernel's bit-identical accounting guarantee.
    fn zone(&self, _d: usize, _block: usize) -> Option<ZoneEntry> {
        None
    }
}

/// Borrowed view over paired columns stored as `[lo0, hi0, lo1, hi1, …]`
/// — the convention used by `acx_storage::SegmentStore` and the
/// sequential-scan baseline. Supports sub-ranges so parallel scans can
/// hand each worker a disjoint slice of every column. Carries no zone
/// maps (sub-ranges are not 64-lane aligned).
#[derive(Debug, Clone, Copy)]
pub struct PairedColumns<'a> {
    cols: &'a [Vec<Scalar>],
    start: usize,
    len: usize,
}

impl<'a> PairedColumns<'a> {
    /// View over all objects of the column set. `cols` must hold `2·dims`
    /// equal-length vectors, lower bounds at even indices.
    pub fn new(cols: &'a [Vec<Scalar>]) -> Self {
        let len = cols.first().map_or(0, Vec::len);
        Self {
            cols,
            start: 0,
            len,
        }
    }

    /// View over objects `start..start + len`.
    pub fn slice(cols: &'a [Vec<Scalar>], start: usize, len: usize) -> Self {
        debug_assert!(cols.first().map_or(0, Vec::len) >= start + len);
        Self { cols, start, len }
    }
}

impl ColumnAccess for PairedColumns<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn lo_col(&self, d: usize) -> &[Scalar] {
        &self.cols[2 * d][self.start..self.start + self.len]
    }

    fn hi_col(&self, d: usize) -> &[Scalar] {
        &self.cols[2 * d + 1][self.start..self.start + self.len]
    }
}

/// Aggregate outcome of scanning one column set against a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Objects scanned (every object is verified, as in the scalar path).
    pub objects: usize,
    /// Objects that satisfied the query; their indices are in
    /// [`ScanScratch::matches`].
    pub matched: usize,
    /// Total dimensions inspected across all objects, accounting for the
    /// early exit on the first failing dimension — bit-identical to
    /// summing [`crate::MatchOutcome::dims_checked`] over the objects.
    pub dims_checked: u64,
}

impl ScanOutcome {
    /// Verified bytes under the paper's accounting (footnote 4): the
    /// object identifier plus both 4-byte bounds of every inspected
    /// dimension.
    pub fn verified_bytes(&self) -> u64 {
        self.objects as u64 * OBJECT_ID_BYTES as u64 + 8 * self.dims_checked
    }
}

/// Reusable scan state: the survivors bitmask (one `u64` word per
/// [`BLOCK`] lanes), the match index buffer, the query bounds of the
/// entry points that load them per call, and transpose buffers for
/// interleaved inputs. Allocations grow to the
/// largest scanned segment and are then reused, so a warmed-up scratch
/// performs no allocation per scan.
#[derive(Debug, Default)]
pub struct ScanScratch {
    /// Survivors bitmask: word `k` covers lanes `64·k .. 64·k + 63`,
    /// bit `i` set = lane `64·k + i` still matching.
    mask: Vec<u64>,
    /// Indices (ascending) of the objects that matched the last scan.
    matches: Vec<u32>,
    /// Bounds of the query last passed to [`scan_columns`] or
    /// [`scan_interleaved`].
    bounds: QueryBounds,
    /// Per-block lower-bound gather tile ([`BLOCK`] scalars) for
    /// interleaved inputs.
    t_lo: Vec<Scalar>,
    /// Per-block upper-bound gather tile for interleaved inputs.
    t_hi: Vec<Scalar>,
}

impl ScanScratch {
    /// An empty scratch; buffers are sized lazily by the first scans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indices of the objects that matched the most recent scan, in
    /// ascending (storage) order.
    pub fn matches(&self) -> &[u32] {
        &self.matches
    }

    /// The survivors of every block of the most recent scan: word `k`
    /// bit `i` corresponds to lane `64·k + i`.
    pub fn mask_words(&self) -> &[u64] {
        &self.mask
    }
}

/// Mask word with the lowest `len` bits set (`len` in `1..=64`).
#[inline]
fn lane_mask(len: usize) -> u64 {
    debug_assert!((1..=BLOCK).contains(&len));
    !0u64 >> (BLOCK - len)
}

/// Packs up to [`BLOCK`] 0/1 bytes into mask bits (byte `i` → bit `i`):
/// eight bytes at a time, a multiply gathers their low bits into the top
/// byte of the product — the portable movemask. (The SSE build replaces
/// its only production caller but keeps it compiled for the unit tests.)
#[cfg_attr(all(feature = "simd", target_arch = "x86_64"), allow(dead_code))]
#[inline]
fn pack_tile(tile: &[u8; BLOCK], len: usize) -> u64 {
    let mut word = 0u64;
    for (k, chunk) in tile.chunks_exact(8).enumerate() {
        let bytes = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
            & 0x0101_0101_0101_0101;
        word |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    word & lane_mask(len)
}

/// Portable pass-word evaluation: branch-free compares into a byte tile
/// (auto-vectorized), then [`pack_tile`].
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
#[inline(always)]
fn portable_word<L>(lo: &[Scalar], hi: &[Scalar], a: Scalar, b: Scalar, lane: L) -> u64
where
    L: Fn(Scalar, Scalar, Scalar, Scalar) -> bool,
{
    debug_assert!(lo.len() == hi.len() && !lo.is_empty() && lo.len() <= BLOCK);
    let mut tile = [0u8; BLOCK];
    for ((t, &l), &h) in tile.iter_mut().zip(lo).zip(hi) {
        *t = lane(l, h, a, b) as u8;
    }
    pack_tile(&tile, lo.len())
}

/// [`portable_word`] dispatched by relation tag — the non-generic shape
/// shared by the baseline entry point and its AVX2-compiled clone.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
#[inline(always)]
fn portable_word_rel(rel: u8, lo: &[Scalar], hi: &[Scalar], a: Scalar, b: Scalar) -> u64 {
    match rel {
        REL_INTERSECTION => portable_word(lo, hi, a, b, Intersects::lane),
        REL_CONTAINMENT => portable_word(lo, hi, a, b, Contained::lane),
        _ => portable_word(lo, hi, a, b, Encloses::lane),
    }
}

/// [`portable_word_rel`] compiled for AVX2, selected at runtime when the
/// CPU supports it (detected once, cached) — the same trick
/// [`count_candidates`] uses for the candidate kernel, so the
/// default build's member kernel vectorizes at eight lanes without the
/// `simd` feature. Comparison outcomes are identical; only the lane
/// width changes.
#[cfg(all(target_arch = "x86_64", not(feature = "simd")))]
#[target_feature(enable = "avx2")]
fn portable_word_avx2(rel: u8, lo: &[Scalar], hi: &[Scalar], a: Scalar, b: Scalar) -> u64 {
    portable_word_rel(rel, lo, hi, a, b)
}

/// Relation tags shared by the SIMD path (`match` on a constant folds
/// away after inlining).
const REL_INTERSECTION: u8 = 0;
const REL_CONTAINMENT: u8 = 1;
const REL_ENCLOSURE: u8 = 2;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    //! Explicit SIMD pass-word packing: `cmpleps`/`vcmpps` compare
    //! masks turned straight into mask bits by `movmskps`. SSE is part
    //! of the x86_64 baseline, so the four-lane path is sound
    //! unconditionally; when the CPU reports AVX2 (checked once,
    //! cached), eight-lane steps are used instead. Comparison semantics
    //! (`<=` on possibly-NaN floats is false, `_CMP_LE_OQ`) match the
    //! scalar operators, so the words are bit-identical to
    //! [`super::portable_word`] either way.

    use super::{avx2_detected, Scalar, BLOCK, REL_CONTAINMENT, REL_INTERSECTION};
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

    #[inline]
    pub(super) fn word(rel: u8, lo: &[Scalar], hi: &[Scalar], a: Scalar, b: Scalar) -> u64 {
        debug_assert!(lo.len() == hi.len() && !lo.is_empty() && lo.len() <= BLOCK);
        if avx2_detected() {
            // SAFETY: AVX2 presence was just verified.
            unsafe { word_avx2(rel, lo, hi, a, b) }
        } else {
            word_sse(rel, lo, hi, a, b)
        }
    }

    #[inline]
    fn word_sse(rel: u8, lo: &[Scalar], hi: &[Scalar], a: Scalar, b: Scalar) -> u64 {
        let n = lo.len();
        let mut out = 0u64;
        let mut i = 0usize;
        // SAFETY: SSE is baseline on x86_64; loads stay in bounds.
        unsafe {
            let av = _mm_set1_ps(a);
            let bv = _mm_set1_ps(b);
            while i + 4 <= n {
                let l = _mm_loadu_ps(lo.as_ptr().add(i));
                let h = _mm_loadu_ps(hi.as_ptr().add(i));
                let pass = match rel {
                    // l ≤ b ∧ h ≥ a
                    REL_INTERSECTION => _mm_and_ps(_mm_cmple_ps(l, bv), _mm_cmple_ps(av, h)),
                    // l ≥ a ∧ h ≤ b
                    REL_CONTAINMENT => _mm_and_ps(_mm_cmple_ps(av, l), _mm_cmple_ps(h, bv)),
                    // l ≤ a ∧ h ≥ b
                    _ => _mm_and_ps(_mm_cmple_ps(l, av), _mm_cmple_ps(bv, h)),
                };
                out |= (_mm_movemask_ps(pass) as u64) << i;
                i += 4;
            }
        }
        out | scalar_tail(rel, lo, hi, a, b, i)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn word_avx2(rel: u8, lo: &[Scalar], hi: &[Scalar], a: Scalar, b: Scalar) -> u64 {
        let n = lo.len();
        let mut out = 0u64;
        let mut i = 0usize;
        let av = _mm256_set1_ps(a);
        let bv = _mm256_set1_ps(b);
        while i + 8 <= n {
            let l = _mm256_loadu_ps(lo.as_ptr().add(i));
            let h = _mm256_loadu_ps(hi.as_ptr().add(i));
            let pass = match rel {
                REL_INTERSECTION => _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_LE_OQ>(l, bv),
                    _mm256_cmp_ps::<_CMP_LE_OQ>(av, h),
                ),
                REL_CONTAINMENT => _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_LE_OQ>(av, l),
                    _mm256_cmp_ps::<_CMP_LE_OQ>(h, bv),
                ),
                _ => _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_LE_OQ>(l, av),
                    _mm256_cmp_ps::<_CMP_LE_OQ>(bv, h),
                ),
            };
            out |= (_mm256_movemask_ps(pass) as u32 as u64) << i;
            i += 8;
        }
        out | scalar_tail(rel, lo, hi, a, b, i)
    }

    #[inline]
    fn scalar_tail(rel: u8, lo: &[Scalar], hi: &[Scalar], a: Scalar, b: Scalar, from: usize) -> u64 {
        let mut out = 0u64;
        for i in from..lo.len() {
            let pass = match rel {
                REL_INTERSECTION => lo[i] <= b && hi[i] >= a,
                REL_CONTAINMENT => lo[i] >= a && hi[i] <= b,
                _ => lo[i] <= a && hi[i] >= b,
            };
            out |= (pass as u64) << i;
        }
        out
    }

}

/// One comparison shape of the kernel: the scalar lane predicate, the
/// packed pass-word over up to [`BLOCK`] lanes, and the zone-map
/// implication tests. Implementations are zero-sized tags so the block
/// loops monomorphize.
trait Pred {
    /// Tag for the explicit-SIMD and AVX2-clone dispatches.
    const REL: u8;

    /// Whether one object interval `[l, h]` passes the dimension with
    /// query bounds `(a, b)` — the scalar spec of [`Pred::word`] (only
    /// compiled into the portable build).
    #[allow(dead_code)]
    fn lane(l: Scalar, h: Scalar, a: Scalar, b: Scalar) -> bool;

    /// What the zone entry proves about a whole block for `(a, b)`.
    fn zone(z: &ZoneEntry, a: Scalar, b: Scalar) -> ZoneVerdict;

    /// Pass bits of `lo.len() ≤ 64` lanes (bit `i` = lane `i` passes).
    #[inline]
    fn word(lo: &[Scalar], hi: &[Scalar], a: Scalar, b: Scalar) -> u64 {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            simd::word(Self::REL, lo, hi, a, b)
        }
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        {
            #[cfg(target_arch = "x86_64")]
            if avx2_detected() {
                // SAFETY: AVX2 presence was just verified; the callee is
                // the same safe loop compiled with the feature enabled.
                return unsafe { portable_word_avx2(Self::REL, lo, hi, a, b) };
            }
            portable_word_rel(Self::REL, lo, hi, a, b)
        }
    }
}

/// pass ⇔ `lo ≤ b ∧ hi ≥ a` with `a = q.lo(d)`, `b = q.hi(d)`.
struct Intersects;
/// pass ⇔ `lo ≥ a ∧ hi ≤ b`.
struct Contained;
/// pass ⇔ `lo ≤ a ∧ hi ≥ b` (point queries: `a = b = p[d]`).
struct Encloses;

impl Pred for Intersects {
    const REL: u8 = REL_INTERSECTION;

    #[inline]
    fn lane(l: Scalar, h: Scalar, a: Scalar, b: Scalar) -> bool {
        l <= b && h >= a
    }

    #[inline]
    fn zone(z: &ZoneEntry, a: Scalar, b: Scalar) -> ZoneVerdict {
        if z.min_lo > b || z.max_hi < a {
            ZoneVerdict::AllFail
        } else if z.max_lo <= b && z.min_hi >= a {
            ZoneVerdict::AllPass
        } else {
            ZoneVerdict::Mixed
        }
    }
}

impl Pred for Contained {
    const REL: u8 = REL_CONTAINMENT;

    #[inline]
    fn lane(l: Scalar, h: Scalar, a: Scalar, b: Scalar) -> bool {
        l >= a && h <= b
    }

    #[inline]
    fn zone(z: &ZoneEntry, a: Scalar, b: Scalar) -> ZoneVerdict {
        if z.max_lo < a || z.min_hi > b {
            ZoneVerdict::AllFail
        } else if z.min_lo >= a && z.max_hi <= b {
            ZoneVerdict::AllPass
        } else {
            ZoneVerdict::Mixed
        }
    }
}

impl Pred for Encloses {
    const REL: u8 = REL_ENCLOSURE;

    #[inline]
    fn lane(l: Scalar, h: Scalar, a: Scalar, b: Scalar) -> bool {
        l <= a && h >= b
    }

    #[inline]
    fn zone(z: &ZoneEntry, a: Scalar, b: Scalar) -> ZoneVerdict {
        if z.min_lo > a || z.max_hi < b {
            ZoneVerdict::AllFail
        } else if z.max_lo <= a && z.min_hi >= b {
            ZoneVerdict::AllPass
        } else {
            ZoneVerdict::Mixed
        }
    }
}

/// The three comparison shapes; point-enclosing queries reduce to
/// [`Relation::Enclosure`] with degenerate per-dimension bounds.
#[derive(Debug, Clone, Copy, Default)]
enum Relation {
    #[default]
    Intersection,
    Containment,
    Enclosure,
}

/// A query's comparison shape and per-dimension bounds in the form the
/// kernels consume. Loading is a copy of `2·dims` scalars: cheap once,
/// but an index exploring hundreds of clusters runs two kernels per
/// cluster, so it loads the bounds once per query and calls
/// [`scan_columns_loaded`] and [`count_candidates`] with them.
#[derive(Debug, Default)]
pub struct QueryBounds {
    rel: Relation,
    /// Per-dimension `a` side: the window's lower bounds, or the point.
    qa: Vec<Scalar>,
    /// Per-dimension `b` side: the window's upper bounds, or the point.
    qb: Vec<Scalar>,
}

impl QueryBounds {
    /// Empty bounds (zero dimensions); buffers are sized by the first
    /// [`QueryBounds::load`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the contents with `query`'s shape and bounds, reusing
    /// the buffers.
    pub fn load(&mut self, query: &SpatialQuery) {
        self.qa.clear();
        self.qb.clear();
        match query {
            SpatialQuery::Intersection(q)
            | SpatialQuery::Containment(q)
            | SpatialQuery::Enclosure(q) => {
                for d in 0..q.dims() {
                    self.qa.push(q.interval(d).lo());
                    self.qb.push(q.interval(d).hi());
                }
            }
            SpatialQuery::PointEnclosing(p) => {
                self.qa.extend_from_slice(p);
                self.qb.extend_from_slice(p);
            }
        }
        self.rel = match query {
            SpatialQuery::Intersection(_) => Relation::Intersection,
            SpatialQuery::Containment(_) => Relation::Containment,
            SpatialQuery::Enclosure(_) | SpatialQuery::PointEnclosing(_) => Relation::Enclosure,
        };
    }

    /// Dimensionality of the loaded query.
    pub fn dims(&self) -> usize {
        self.qa.len()
    }
}

/// Scans a dimension-major column set against the query, leaving the
/// matching indices in `scratch.matches()`.
///
/// Match set, match order, and [`ScanOutcome::dims_checked`] are
/// bit-identical to calling [`SpatialQuery::matches_flat`] on every
/// object in storage order — with or without zone maps.
///
/// ```
/// use acx_geom::scan::{scan_columns, PairedColumns, ScanScratch};
/// use acx_geom::SpatialQuery;
///
/// // Two 1-d objects: [0.0, 0.4] and [0.6, 0.9].
/// let cols = vec![vec![0.0, 0.6], vec![0.4, 0.9]];
/// let mut scratch = ScanScratch::new();
/// let q = SpatialQuery::point_enclosing(vec![0.25]);
/// let outcome = scan_columns(&q, &PairedColumns::new(&cols), &mut scratch);
/// assert_eq!(outcome.matched, 1);
/// assert_eq!(scratch.matches(), &[0]);
/// ```
pub fn scan_columns<C: ColumnAccess + ?Sized>(
    query: &SpatialQuery,
    cols: &C,
    scratch: &mut ScanScratch,
) -> ScanOutcome {
    let ScanScratch {
        mask,
        matches,
        bounds,
        ..
    } = scratch;
    bounds.load(query);
    run_loaded(bounds, cols, mask, matches)
}

/// [`scan_columns`] for a query whose bounds the caller already loaded:
/// same outcome, without copying the bounds again.
pub fn scan_columns_loaded<C: ColumnAccess + ?Sized>(
    bounds: &QueryBounds,
    cols: &C,
    scratch: &mut ScanScratch,
) -> ScanOutcome {
    run_loaded(bounds, cols, &mut scratch.mask, &mut scratch.matches)
}

fn run_loaded<C: ColumnAccess + ?Sized>(
    bounds: &QueryBounds,
    cols: &C,
    mask: &mut Vec<u64>,
    matches: &mut Vec<u32>,
) -> ScanOutcome {
    let (qa, qb) = (&bounds.qa[..], &bounds.qb[..]);
    match bounds.rel {
        Relation::Intersection => run::<C, Intersects>(cols, qa, qb, mask, matches),
        Relation::Containment => run::<C, Contained>(cols, qa, qb, mask, matches),
        Relation::Enclosure => run::<C, Encloses>(cols, qa, qb, mask, matches),
    }
}

/// The blocked kernel: per block of [`BLOCK`] objects, AND each
/// dimension's pass word into the block's survivors mask; survivor
/// counting is a popcount and a block with no survivors skips its
/// remaining dimensions. Zone entries, when the layout provides them,
/// resolve a whole (block, dimension) pair without reading the columns.
fn run<C, P>(
    cols: &C,
    qa: &[Scalar],
    qb: &[Scalar],
    mask: &mut Vec<u64>,
    matches: &mut Vec<u32>,
) -> ScanOutcome
where
    C: ColumnAccess + ?Sized,
    P: Pred,
{
    let n = cols.len();
    let dims = qa.len();
    let blocks = n.div_ceil(BLOCK);
    mask.clear();
    mask.resize(blocks, 0);
    matches.clear();
    let mut dims_checked = 0u64;
    for (block, word_out) in mask.iter_mut().enumerate() {
        let start = block * BLOCK;
        let end = (start + BLOCK).min(n);
        let mut word = lane_mask(end - start);
        for d in 0..dims {
            let alive = word.count_ones() as u64;
            if alive == 0 {
                break;
            }
            dims_checked += alive;
            let (a, b) = (qa[d], qb[d]);
            if let Some(zone) = cols.zone(d, block) {
                match P::zone(&zone, a, b) {
                    // Every alive lane fails this dimension — exactly
                    // the `dims_checked` charge made above, then death.
                    ZoneVerdict::AllFail => {
                        word = 0;
                        break;
                    }
                    // Every alive lane passes: mask unchanged, column
                    // read skipped.
                    ZoneVerdict::AllPass => continue,
                    ZoneVerdict::Mixed => {}
                }
            }
            let lo = &cols.lo_col(d)[start..end];
            let hi = &cols.hi_col(d)[start..end];
            word &= P::word(lo, hi, a, b);
        }
        *word_out = word;
        let mut bits = word;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            matches.push((start + i) as u32);
            bits &= bits - 1;
        }
    }
    ScanOutcome {
        objects: n,
        matched: matches.len(),
        dims_checked,
    }
}

/// Scans objects stored as interleaved flat `[lo0, hi0, lo1, hi1, …]`
/// coordinates — used by access methods whose native layout is
/// row-major (R*-tree leaf pages).
///
/// Columns are gathered **lazily**, one [`BLOCK`]-sized tile per
/// (block, dimension), only while the block still has survivors: a
/// block rejected in its first dimensions never pays the gather for the
/// remaining ones, preserving the early-exit economics the scalar
/// per-entry loop had on row-major data. Accounting is bit-identical to
/// [`scan_columns`] and to per-object [`SpatialQuery::matches_flat`].
pub fn scan_interleaved(
    query: &SpatialQuery,
    flat: &[Scalar],
    scratch: &mut ScanScratch,
) -> ScanOutcome {
    let width = 2 * query.dims();
    debug_assert_eq!(flat.len() % width, 0, "coordinate arity mismatch");
    let ScanScratch {
        mask,
        matches,
        bounds,
        t_lo,
        t_hi,
    } = scratch;
    bounds.load(query);
    let (qa, qb) = (&bounds.qa[..], &bounds.qb[..]);
    t_lo.resize(BLOCK, 0.0);
    t_hi.resize(BLOCK, 0.0);
    match bounds.rel {
        Relation::Intersection => {
            run_interleaved::<Intersects>(flat, width, qa, qb, mask, matches, t_lo, t_hi)
        }
        Relation::Containment => {
            run_interleaved::<Contained>(flat, width, qa, qb, mask, matches, t_lo, t_hi)
        }
        Relation::Enclosure => {
            run_interleaved::<Encloses>(flat, width, qa, qb, mask, matches, t_lo, t_hi)
        }
    }
}

/// The blocked kernel over row-major input: per block, gather one
/// dimension's bounds into the scratch tiles and AND the pass word into
/// the survivors mask; a block with no survivors skips the gather and
/// the check of its remaining dimensions.
#[allow(clippy::too_many_arguments)]
fn run_interleaved<P: Pred>(
    flat: &[Scalar],
    width: usize,
    qa: &[Scalar],
    qb: &[Scalar],
    mask: &mut Vec<u64>,
    matches: &mut Vec<u32>,
    t_lo: &mut [Scalar],
    t_hi: &mut [Scalar],
) -> ScanOutcome {
    let n = flat.len() / width;
    let dims = qa.len();
    let blocks = n.div_ceil(BLOCK);
    mask.clear();
    mask.resize(blocks, 0);
    matches.clear();
    let mut dims_checked = 0u64;
    for (block, word_out) in mask.iter_mut().enumerate() {
        let start = block * BLOCK;
        let end = (start + BLOCK).min(n);
        let len = end - start;
        let mut word = lane_mask(len);
        for d in 0..dims {
            let alive = word.count_ones() as u64;
            if alive == 0 {
                break;
            }
            dims_checked += alive;
            let rows = &flat[start * width..end * width];
            for (i, row) in rows.chunks_exact(width).enumerate() {
                t_lo[i] = row[2 * d];
                t_hi[i] = row[2 * d + 1];
            }
            word &= P::word(&t_lo[..len], &t_hi[..len], qa[d], qb[d]);
        }
        *word_out = word;
        let mut bits = word;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            matches.push((start + i) as u32);
            bits &= bits - 1;
        }
    }
    ScanOutcome {
        objects: n,
        matched: matches.len(),
        dims_checked,
    }
}

/// Per-dimension-run aggregate bounds over the candidate bound columns
/// — the sparse-query fast path's screen. A query interval that spans
/// the full domain of a specialized dimension cannot discriminate that
/// dimension's candidates: when the run's *worst* candidate passes the
/// relation's `x ≤ t1 ∧ y ≥ t2` condition, every candidate does, and
/// the kernel counts the whole run without evaluating per-candidate
/// bounds. Candidate bounds are immutable after
/// generation, so these aggregates are computed once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunBounds {
    /// Maximum of `start_lo` over the run (`-∞` for an empty run).
    pub start_lo_max: Scalar,
    /// Minimum of `start_reach` over the run (`+∞` for an empty run).
    pub start_reach_min: Scalar,
    /// Maximum of `end_lo` over the run (`-∞` for an empty run).
    pub end_lo_max: Scalar,
    /// Minimum of `end_reach` over the run (`+∞` for an empty run).
    pub end_reach_min: Scalar,
}

impl RunBounds {
    /// Folds the aggregate bounds of every dimension run. The inputs
    /// are the four bound columns and the run offsets exactly as passed
    /// to [`CandidateColumns::new`]; the result has one entry per
    /// dimension.
    pub fn compute_all(
        start_lo: &[Scalar],
        start_reach: &[Scalar],
        end_lo: &[Scalar],
        end_reach: &[Scalar],
        dim_offsets: &[u32],
    ) -> Vec<RunBounds> {
        assert!(!dim_offsets.is_empty());
        let mut out = Vec::with_capacity(dim_offsets.len() - 1);
        for w in dim_offsets.windows(2) {
            let run = w[0] as usize..w[1] as usize;
            let fold = |col: &[Scalar], max: bool| {
                col[run.clone()].iter().copied().fold(
                    if max { Scalar::NEG_INFINITY } else { Scalar::INFINITY },
                    if max { Scalar::max } else { Scalar::min },
                )
            };
            out.push(RunBounds {
                start_lo_max: fold(start_lo, true),
                start_reach_min: fold(start_reach, false),
                end_lo_max: fold(end_lo, true),
                end_reach_min: fold(end_reach, false),
            });
        }
        out
    }
}

/// Dimension-major candidate-subcluster bound columns — the statistics
/// side of the adaptive index, laid out exactly like object coordinates
/// so the same kernel shape applies.
///
/// Candidates are grouped by their specialized dimension: `dim_offsets`
/// (length `dims + 1`) gives the contiguous candidate range of each
/// dimension. Per candidate, four bounds describe its start/end
/// variation intervals with **closed** upper bounds: half-open interval
/// uppers must be pre-adjusted to the largest representable value below
/// them (`f32::next_down`), which makes every open/closed membership and
/// reachability test a plain `<=`/`>=` comparison.
#[derive(Debug, Clone, Copy)]
pub struct CandidateColumns<'a> {
    /// Inclusive lower bound of each candidate's start variation interval.
    start_lo: &'a [Scalar],
    /// Largest value each candidate's start interval contains.
    start_reach: &'a [Scalar],
    /// Inclusive lower bound of each candidate's end variation interval.
    end_lo: &'a [Scalar],
    /// Largest value each candidate's end interval contains.
    end_reach: &'a [Scalar],
    /// Candidate range of each dimension: dimension `d` owns candidates
    /// `dim_offsets[d] .. dim_offsets[d + 1]`.
    dim_offsets: &'a [u32],
    /// Aggregate bounds per dimension run (length `dims`), driving the
    /// per-run matches-all fast path of [`count_candidates`].
    run_bounds: &'a [RunBounds],
}

impl<'a> CandidateColumns<'a> {
    /// Builds the view; all four bound columns must have equal length
    /// matching the last offset, offsets must be non-decreasing, and
    /// `run_bounds` must hold one entry per dimension (see
    /// [`RunBounds::compute_all`]).
    pub fn new(
        start_lo: &'a [Scalar],
        start_reach: &'a [Scalar],
        end_lo: &'a [Scalar],
        end_reach: &'a [Scalar],
        dim_offsets: &'a [u32],
        run_bounds: &'a [RunBounds],
    ) -> Self {
        let n = start_lo.len();
        assert!(start_reach.len() == n && end_lo.len() == n && end_reach.len() == n);
        assert!(!dim_offsets.is_empty());
        // The runs must cover every candidate exactly: [`count_candidates`]
        // only visits the offsets' runs, so an uncovered candidate would
        // never be counted.
        assert_eq!(dim_offsets[0], 0, "first dimension run must start at 0");
        assert_eq!(*dim_offsets.last().expect("non-empty") as usize, n);
        assert_eq!(run_bounds.len(), dim_offsets.len() - 1);
        debug_assert!(dim_offsets.windows(2).all(|w| w[0] <= w[1]));
        Self {
            start_lo,
            start_reach,
            end_lo,
            end_reach,
            dim_offsets,
            run_bounds,
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.start_lo.len()
    }

    /// Whether the set holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.start_lo.is_empty()
    }

    /// Number of dimensions the candidates specialize.
    pub fn dims(&self) -> usize {
        self.dim_offsets.len() - 1
    }
}

/// Evaluates one query against every candidate of a cluster,
/// dimension-major, and adds one (saturating at `u32::MAX`) to
/// `counters[i]` for every matching candidate `i` — compare and count
/// in one pass, with no intermediate mask.
///
/// A candidate constrains only its own specialized dimension, so unlike
/// member verification there is no survivors refinement: every relation
/// reduces to one two-sided comparison per candidate,
///
/// > `x[i] ≤ t1 ∧ y[i] ≥ t2`
///
/// with the `(x, y)` columns and `(t1, t2)` thresholds chosen per
/// relation from the query bounds of the candidate's dimension. The
/// increment of candidate `i` equals the scalar reference loop's
/// `acx_core::candidates::CandidateSlice::matches_query` outcome exactly
/// (the pre-adjusted closed bounds encode the open/closed upper-bound
/// semantics losslessly for finite `f32`).
///
/// Each dimension run is one contiguous branch-free loop the compiler
/// vectorizes. On x86_64 it is dispatched to an AVX2-compiled clone of
/// the same loop when the CPU supports it (detected once) — identical
/// comparisons, twice the lanes.
///
/// # Panics
///
/// Panics if `counters` does not hold exactly one counter per candidate.
pub fn count_candidates(bounds: &QueryBounds, cols: &CandidateColumns<'_>, counters: &mut [u32]) {
    debug_assert_eq!(cols.dims(), bounds.dims(), "dimensionality mismatch");
    assert_eq!(counters.len(), cols.len(), "one counter per candidate");
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: AVX2 presence was just verified; the callee is the
        // same safe loop compiled with the feature enabled.
        unsafe {
            return count_candidates_avx2(bounds, cols, counters);
        }
    }
    count_candidates_impl(bounds, cols, counters);
}

/// [`count_candidates_impl`] compiled for AVX2 so the count loop
/// auto-vectorizes at eight lanes — comparison outcomes are identical,
/// only the lane width changes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn count_candidates_avx2(bounds: &QueryBounds, cols: &CandidateColumns<'_>, counters: &mut [u32]) {
    count_candidates_impl(bounds, cols, counters);
}

/// Whether the CPU supports AVX2 (detected once, cached) — the runtime
/// dispatch gate shared by every kernel with an AVX2-compiled clone
/// (member pass-words, candidate counting, and the reorganization
/// benefit column in `acx_core`).
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn avx2_detected() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[inline(always)]
fn count_candidates_impl(bounds: &QueryBounds, cols: &CandidateColumns<'_>, counters: &mut [u32]) {
    // Per relation: the `(x, y)` bound columns of the pass condition
    // `x[i] ≤ t1 ∧ y[i] ≥ t2`, which query side each threshold comes
    // from, and whether the run aggregates to screen with are the
    // containment pair.
    let (x_col, y_col, t1s, t2s, containment) = match bounds.rel {
        // start.lo ≤ q.hi ∧ end can reach q.lo
        Relation::Intersection => (cols.start_lo, cols.end_reach, &bounds.qb, &bounds.qa, false),
        // end.lo ≤ q.hi ∧ start can reach q.lo
        Relation::Containment => (cols.end_lo, cols.start_reach, &bounds.qb, &bounds.qa, true),
        // start.lo ≤ q.lo ∧ end can reach q.hi (points: q.lo = q.hi)
        Relation::Enclosure => (cols.start_lo, cols.end_reach, &bounds.qa, &bounds.qb, false),
    };
    for d in 0..cols.dims() {
        let run = cols.dim_offsets[d] as usize..cols.dim_offsets[d + 1] as usize;
        let (t1, t2) = (t1s[d], t2s[d]);
        // Sparse-query fast path: when even the run's worst candidate
        // passes (its largest `x` and smallest `y` — typically a query
        // interval spanning the dimension's full domain), the run
        // cannot be discriminated and every candidate is counted
        // without touching the bound columns. Exact by monotonicity:
        // all values are finite, so `max(x) ≤ t1` implies every
        // `x ≤ t1` and `min(y) ≥ t2` implies every `y ≥ t2`. (An empty
        // run aggregates to `-∞`/`+∞` and counts nothing here.)
        let rb = &cols.run_bounds[d];
        let (x_max, y_min) = if containment {
            (rb.end_lo_max, rb.start_reach_min)
        } else {
            (rb.start_lo_max, rb.end_reach_min)
        };
        let out = &mut counters[run.clone()];
        if x_max <= t1 && y_min >= t2 {
            for c in out {
                *c = c.saturating_add(1);
            }
            continue;
        }
        let x = &x_col[run.clone()];
        let y = &y_col[run];
        for ((c, &xv), &yv) in out.iter_mut().zip(x).zip(y) {
            *c = c.saturating_add(((xv <= t1) & (yv >= t2)) as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HyperRect, SpatialRelation};

    /// Builds paired columns from interleaved flat coordinates.
    fn columns(flat: &[Scalar], dims: usize) -> Vec<Vec<Scalar>> {
        let width = 2 * dims;
        let n = flat.len() / width;
        let mut cols = vec![Vec::with_capacity(n); width];
        for row in flat.chunks_exact(width) {
            for (k, &v) in row.iter().enumerate() {
                cols[k].push(v);
            }
        }
        cols
    }

    /// The scalar oracle: per-object `matches_flat` in storage order.
    fn oracle(query: &SpatialQuery, flat: &[Scalar], dims: usize) -> (Vec<u32>, u64) {
        let width = 2 * dims;
        let mut matches = Vec::new();
        let mut dims_checked = 0u64;
        for (i, row) in flat.chunks_exact(width).enumerate() {
            let out = query.matches_flat(row);
            dims_checked += out.dims_checked as u64;
            if out.matched {
                matches.push(i as u32);
            }
        }
        (matches, dims_checked)
    }

    fn assert_agrees(query: &SpatialQuery, flat: &[Scalar], dims: usize) {
        let cols = columns(flat, dims);
        let mut scratch = ScanScratch::new();
        let got = scan_columns(query, &PairedColumns::new(&cols), &mut scratch);
        let (want_matches, want_checked) = oracle(query, flat, dims);
        assert_eq!(scratch.matches(), &want_matches[..], "match set diverged");
        assert_eq!(got.dims_checked, want_checked, "dims_checked diverged");
        assert_eq!(got.matched, want_matches.len());
        assert_eq!(got.objects, flat.len() / (2 * dims));

        let via_rows = scan_interleaved(query, flat, &mut scratch);
        assert_eq!(via_rows, got, "interleaved adapter diverged");
        assert_eq!(scratch.matches(), &want_matches[..]);
    }

    #[test]
    fn empty_segment_scans_to_nothing() {
        let cols: Vec<Vec<Scalar>> = vec![Vec::new(); 4];
        let mut scratch = ScanScratch::new();
        let q = SpatialQuery::point_enclosing(vec![0.5, 0.5]);
        let out = scan_columns(&q, &PairedColumns::new(&cols), &mut scratch);
        assert_eq!(out, ScanOutcome { objects: 0, matched: 0, dims_checked: 0 });
        assert!(scratch.matches().is_empty());
        assert!(scratch.mask_words().is_empty());
    }

    #[test]
    fn all_relations_agree_with_scalar_on_handpicked_objects() {
        let dims = 2;
        // Includes boundary-coincident edges (objects touching the window).
        let flat = [
            0.1, 0.3, 0.1, 0.3, // inside
            0.3, 0.7, 0.3, 0.7, // equals the window
            0.0, 0.3, 0.0, 0.3, // touches the window corner
            0.71, 0.9, 0.0, 1.0, // fails dim 0
            0.3, 0.7, 0.8, 0.9, // fails dim 1
            0.0, 1.0, 0.0, 1.0, // covers everything
        ];
        let w = HyperRect::from_bounds(&[0.3, 0.3], &[0.7, 0.7]).unwrap();
        for rel in SpatialRelation::ALL {
            assert_agrees(&SpatialQuery::with_relation(rel, w.clone()), &flat, dims);
        }
        assert_agrees(&SpatialQuery::point_enclosing(vec![0.3, 0.3]), &flat, dims);
    }

    #[test]
    fn block_boundaries_are_handled() {
        // Sizes around the BLOCK granularity, one dimension.
        for n in [1usize, 63, 64, 65, 128, 130] {
            let flat: Vec<Scalar> = (0..n)
                .flat_map(|i| {
                    let x = i as Scalar / n as Scalar;
                    [x, x + 0.01]
                })
                .collect();
            assert_agrees(&SpatialQuery::point_enclosing(vec![0.5]), &flat, 1);
            let w = HyperRect::from_bounds(&[0.25], &[0.75]).unwrap();
            assert_agrees(&SpatialQuery::intersection(w), &flat, 1);
        }
    }

    #[test]
    fn verified_bytes_accounts_id_and_checked_dims() {
        let out = ScanOutcome { objects: 3, matched: 1, dims_checked: 5 };
        assert_eq!(out.verified_bytes(), 3 * OBJECT_ID_BYTES as u64 + 40);
    }

    #[test]
    fn mask_words_expose_survivors_per_block() {
        // 65 one-dimensional objects; exactly objects 0 and 64 match.
        let flat: Vec<Scalar> = (0..65)
            .flat_map(|i| if i % 64 == 0 { [0.0, 1.0] } else { [0.9, 1.0] })
            .collect();
        let cols = columns(&flat, 1);
        let mut scratch = ScanScratch::new();
        let q = SpatialQuery::point_enclosing(vec![0.1]);
        let out = scan_columns(&q, &PairedColumns::new(&cols), &mut scratch);
        assert_eq!(out.matched, 2);
        assert_eq!(scratch.mask_words(), &[1u64, 1u64]);
        assert_eq!(scratch.matches(), &[0, 64]);
    }

    #[test]
    fn scratch_is_reusable_across_queries_and_sizes() {
        let mut scratch = ScanScratch::new();
        for n in [100usize, 10, 300] {
            let flat: Vec<Scalar> = (0..n).flat_map(|i| {
                let x = (i % 17) as Scalar / 17.0;
                [x, x + 0.1, 0.0, 1.0]
            }).collect();
            assert_agrees(&SpatialQuery::point_enclosing(vec![0.2, 0.5]), &flat, 2);
            let cols = columns(&flat, 2);
            let q = SpatialQuery::point_enclosing(vec![0.2, 0.5]);
            let out = scan_columns(&q, &PairedColumns::new(&cols), &mut scratch);
            assert_eq!(out.objects, n);
        }
    }

    #[test]
    fn paired_columns_subrange_sees_a_window() {
        let flat = [0.1, 0.2, 0.4, 0.5, 0.7, 0.8];
        let cols = columns(&flat, 1);
        let view = PairedColumns::slice(&cols, 1, 2);
        assert_eq!(view.len(), 2);
        assert_eq!(view.lo_col(0), &[0.4, 0.7]);
        assert_eq!(view.hi_col(0), &[0.5, 0.8]);
        let mut scratch = ScanScratch::new();
        let q = SpatialQuery::point_enclosing(vec![0.45]);
        let out = scan_columns(&q, &view, &mut scratch);
        assert_eq!(out.matched, 1);
        assert_eq!(scratch.matches(), &[0]); // index relative to the range
    }

    /// A column set with externally supplied zone entries, used to prove
    /// the zone fast paths leave results and accounting untouched.
    struct ZonedView<'a> {
        inner: PairedColumns<'a>,
        dims: usize,
    }

    impl ColumnAccess for ZonedView<'_> {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn lo_col(&self, d: usize) -> &[Scalar] {
            self.inner.lo_col(d)
        }

        fn hi_col(&self, d: usize) -> &[Scalar] {
            self.inner.hi_col(d)
        }

        fn zone(&self, d: usize, block: usize) -> Option<ZoneEntry> {
            let _ = self.dims;
            let start = block * BLOCK;
            let end = (start + BLOCK).min(self.len());
            let lo = &self.inner.lo_col(d)[start..end];
            let hi = &self.inner.hi_col(d)[start..end];
            Some(ZoneEntry {
                min_lo: lo.iter().copied().fold(Scalar::INFINITY, Scalar::min),
                max_lo: lo.iter().copied().fold(Scalar::NEG_INFINITY, Scalar::max),
                min_hi: hi.iter().copied().fold(Scalar::INFINITY, Scalar::min),
                max_hi: hi.iter().copied().fold(Scalar::NEG_INFINITY, Scalar::max),
            })
        }
    }

    #[test]
    fn zone_maps_change_nothing_observable() {
        // 3 blocks: one all-fail, one all-pass, one mixed per dimension.
        let n = 160;
        let flat: Vec<Scalar> = (0..n)
            .flat_map(|i| {
                let (lo, hi) = match i / BLOCK {
                    0 => (0.8, 0.9),                       // block fails point 0.5
                    1 => (0.0, 1.0),                       // block passes
                    _ => ((i % 2) as Scalar * 0.5, 1.0),   // mixed
                };
                [lo, hi, 0.0, 1.0]
            })
            .collect();
        let cols = columns(&flat, 2);
        let plain = PairedColumns::new(&cols);
        let zoned = ZonedView { inner: plain, dims: 2 };
        for q in [
            SpatialQuery::point_enclosing(vec![0.5, 0.5]),
            SpatialQuery::intersection(HyperRect::from_bounds(&[0.1, 0.1], &[0.4, 0.4]).unwrap()),
            SpatialQuery::containment(HyperRect::from_bounds(&[0.0, 0.0], &[1.0, 1.0]).unwrap()),
            SpatialQuery::enclosure(HyperRect::from_bounds(&[0.2, 0.2], &[0.3, 0.3]).unwrap()),
        ] {
            let mut s1 = ScanScratch::new();
            let mut s2 = ScanScratch::new();
            let a = scan_columns(&q, &plain, &mut s1);
            let b = scan_columns(&q, &zoned, &mut s2);
            assert_eq!(a, b, "zone maps changed the outcome for {q:?}");
            assert_eq!(s1.matches(), s2.matches());
            assert_eq!(s1.mask_words(), s2.mask_words());
        }
    }

    #[allow(clippy::type_complexity)]
    fn cand_cols(
        start: &[(Scalar, Scalar, bool)],
        end: &[(Scalar, Scalar, bool)],
        offsets: &[u32],
    ) -> (Vec<Scalar>, Vec<Scalar>, Vec<Scalar>, Vec<Scalar>, Vec<u32>) {
        let reach = |&(_, hi, open): &(Scalar, Scalar, bool)| if open { hi.next_down() } else { hi };
        (
            start.iter().map(|s| s.0).collect(),
            start.iter().map(reach).collect(),
            end.iter().map(|e| e.0).collect(),
            end.iter().map(reach).collect(),
            offsets.to_vec(),
        )
    }

    /// Scalar candidate oracle with explicit open/closed semantics.
    fn cand_oracle(
        query: &SpatialQuery,
        start: &[(Scalar, Scalar, bool)],
        end: &[(Scalar, Scalar, bool)],
        offsets: &[u32],
    ) -> Vec<bool> {
        let can_reach = |&(_, hi, open): &(Scalar, Scalar, bool), x: Scalar| {
            if open { hi > x } else { hi >= x }
        };
        let dim_of = |i: usize| (0..offsets.len() - 1)
            .find(|&d| (offsets[d] as usize..offsets[d + 1] as usize).contains(&i))
            .expect("offset covers index");
        (0..start.len())
            .map(|i| {
                let d = dim_of(i);
                match query {
                    SpatialQuery::Intersection(w) => {
                        start[i].0 <= w.interval(d).hi() && can_reach(&end[i], w.interval(d).lo())
                    }
                    SpatialQuery::Containment(w) => {
                        can_reach(&start[i], w.interval(d).lo()) && end[i].0 <= w.interval(d).hi()
                    }
                    SpatialQuery::Enclosure(w) => {
                        start[i].0 <= w.interval(d).lo() && can_reach(&end[i], w.interval(d).hi())
                    }
                    SpatialQuery::PointEnclosing(p) => {
                        start[i].0 <= p[d] && can_reach(&end[i], p[d])
                    }
                }
            })
            .collect()
    }

    /// One kernel pass over zeroed counters, as match flags.
    fn kernel_matches(query: &SpatialQuery, cols: &CandidateColumns<'_>) -> Vec<bool> {
        let mut bounds = QueryBounds::new();
        bounds.load(query);
        let mut counters = vec![0u32; cols.len()];
        count_candidates(&bounds, cols, &mut counters);
        assert!(counters.iter().all(|&c| c <= 1), "one pass adds at most one");
        counters.iter().map(|&c| c == 1).collect()
    }

    #[test]
    fn candidate_kernel_matches_oracle_with_open_bounds() {
        // Two dimensions, three candidates each; open upper bounds make
        // the reach adjustment load-bearing at boundary-coincident edges.
        let start = [
            (0.0, 0.25, true), (0.25, 0.5, true), (0.5, 1.0, false),
            (0.0, 0.5, true), (0.5, 0.75, true), (0.75, 1.0, false),
        ];
        let end = [
            (0.0, 0.25, true), (0.25, 0.75, true), (0.75, 1.0, false),
            (0.0, 0.5, false), (0.5, 1.0, true), (0.0, 1.0, false),
        ];
        let offsets = [0u32, 3, 6];
        let (sl, sr, el, er, off) = cand_cols(&start, &end, &offsets);
        let rb = RunBounds::compute_all(&sl, &sr, &el, &er, &off);
        let cols = CandidateColumns::new(&sl, &sr, &el, &er, &off, &rb);
        let w = HyperRect::from_bounds(&[0.25, 0.5], &[0.5, 0.75]).unwrap();
        for q in [
            SpatialQuery::intersection(w.clone()),
            SpatialQuery::containment(w.clone()),
            SpatialQuery::enclosure(w),
            SpatialQuery::point_enclosing(vec![0.25, 0.5]),
            SpatialQuery::point_enclosing(vec![0.5, 1.0]),
        ] {
            let want = cand_oracle(&q, &start, &end, &offsets);
            assert_eq!(kernel_matches(&q, &cols), want, "diverged on {q:?}");
        }
    }

    #[test]
    fn candidate_kernel_handles_runs_longer_than_a_vector() {
        // One dimension with 70 candidates: several full vector steps
        // and a ragged tail within a single run.
        let start: Vec<(Scalar, Scalar, bool)> =
            (0..70).map(|i| (i as Scalar / 70.0, 1.0, false)).collect();
        let end: Vec<(Scalar, Scalar, bool)> = (0..70).map(|_| (0.0, 1.0, false)).collect();
        let offsets = [0u32, 70];
        let (sl, sr, el, er, off) = cand_cols(&start, &end, &offsets);
        let rb = RunBounds::compute_all(&sl, &sr, &el, &er, &off);
        let cols = CandidateColumns::new(&sl, &sr, &el, &er, &off, &rb);
        let q = SpatialQuery::point_enclosing(vec![0.5]);
        let want = cand_oracle(&q, &start, &end, &offsets);
        let matched = want.iter().filter(|&&m| m).count();
        assert!(matched > 0 && matched < 70);
        assert_eq!(kernel_matches(&q, &cols), want);
    }

    #[test]
    fn candidate_counters_accumulate_and_saturate() {
        // Two runs: the first is matched through the per-candidate loop,
        // the second through the matches-all path (full-domain window).
        let start = [(0.0, 0.5, true), (0.5, 1.0, false), (0.0, 1.0, false)];
        let end = [(0.0, 0.5, true), (0.5, 1.0, false), (0.0, 1.0, false)];
        let offsets = [0u32, 2, 3];
        let (sl, sr, el, er, off) = cand_cols(&start, &end, &offsets);
        let rb = RunBounds::compute_all(&sl, &sr, &el, &er, &off);
        let cols = CandidateColumns::new(&sl, &sr, &el, &er, &off, &rb);
        let q = SpatialQuery::intersection(
            HyperRect::from_bounds(&[0.6, 0.0], &[0.7, 1.0]).unwrap(),
        );
        assert_eq!(cand_oracle(&q, &start, &end, &offsets), [false, true, true]);
        let mut bounds = QueryBounds::new();
        bounds.load(&q);
        let mut counters = [7, u32::MAX - 1, u32::MAX - 1];
        for _ in 0..3 {
            count_candidates(&bounds, &cols, &mut counters);
        }
        assert_eq!(counters, [7, u32::MAX, u32::MAX], "pinned at the maximum, never wrapped");
    }

    #[test]
    fn full_domain_runs_take_the_matches_all_path_bit_identically() {
        // Dimension 0's candidates are all reachable by a full-domain
        // interval (the fast path fills the whole run); dimension 1 has
        // one candidate that fails, forcing the per-candidate loop. The
        // counts must equal the scalar oracle either way.
        let start = [
            (0.0, 0.25, true), (0.25, 0.5, true), (0.5, 1.0, false),
            (0.0, 0.5, true), (0.5, 0.75, true), (0.75, 1.0, false),
        ];
        let end = [
            (0.0, 0.25, true), (0.25, 0.75, true), (0.75, 1.0, false),
            (0.0, 0.5, false), (0.5, 1.0, true), (0.0, 1.0, false),
        ];
        let offsets = [0u32, 3, 6];
        let (sl, sr, el, er, off) = cand_cols(&start, &end, &offsets);
        let rb = RunBounds::compute_all(&sl, &sr, &el, &er, &off);
        let cols = CandidateColumns::new(&sl, &sr, &el, &er, &off, &rb);
        // Full domain in dim 0, narrow in dim 1: intersection cannot
        // discriminate dim 0's run.
        let w = HyperRect::from_bounds(&[0.0, 0.6], &[1.0, 0.6]).unwrap();
        let full = HyperRect::from_bounds(&[0.0, 0.0], &[1.0, 1.0]).unwrap();
        for q in [
            SpatialQuery::intersection(w),
            SpatialQuery::intersection(full.clone()),
            SpatialQuery::containment(full.clone()),
            SpatialQuery::enclosure(full),
        ] {
            let want = cand_oracle(&q, &start, &end, &offsets);
            assert_eq!(kernel_matches(&q, &cols), want, "diverged on {q:?}");
        }
        // Premise: the intersection over the full window really is
        // all-match on dim 0's run (fast path taken, not vacuous).
        let q = SpatialQuery::intersection(
            HyperRect::from_bounds(&[0.0, 0.6], &[1.0, 0.6]).unwrap(),
        );
        let want = cand_oracle(&q, &start, &end, &offsets);
        assert!(want[..3].iter().all(|&m| m), "dim 0 run must be all-match");
    }

    #[test]
    fn pack_tile_gathers_bytes_to_bits() {
        let mut tile = [0u8; BLOCK];
        tile[0] = 1;
        tile[7] = 1;
        tile[8] = 1;
        tile[63] = 1;
        assert_eq!(pack_tile(&tile, 64), (1 << 0) | (1 << 7) | (1 << 8) | (1 << 63));
        assert_eq!(pack_tile(&tile, 8), (1 << 0) | (1 << 7));
        assert_eq!(pack_tile(&tile, 1), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{HyperRect, Interval, SpatialRelation};
    use proptest::prelude::*;

    /// A coordinate grid coarse enough that boundary-coincident edges
    /// (object bound == query bound) occur constantly.
    fn coord() -> impl Strategy<Value = Scalar> {
        (0u8..=8).prop_map(|k| k as Scalar / 8.0)
    }

    fn window(dims: usize) -> impl Strategy<Value = HyperRect> {
        prop::collection::vec((coord(), coord()), dims).prop_map(|pairs| {
            let intervals = pairs
                .into_iter()
                .map(|(a, b)| {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    Interval::new_unchecked(lo, hi)
                })
                .collect::<Vec<_>>();
            HyperRect::new(intervals).unwrap()
        })
    }

    proptest! {
        /// The columnar kernel returns the same match set, in the same
        /// order, with the same total `dims_checked` as object-at-a-time
        /// `matches_flat`, for every query kind and 1–8 dimensions.
        #[test]
        fn kernel_agrees_with_scalar_oracle(
            dims in 1usize..=8,
            seed_pairs in prop::collection::vec((coord(), coord()), 0..220),
            win in window(8),
            point in prop::collection::vec(coord(), 8),
            kind in 0usize..4,
        ) {
            // Build n complete rows of `2·dims` scalars.
            let n = seed_pairs.len() / dims;
            let mut flat = Vec::with_capacity(n * 2 * dims);
            for row in seed_pairs.chunks_exact(dims) {
                for &(a, b) in row {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    flat.push(lo);
                    flat.push(hi);
                }
            }
            let win = HyperRect::new(
                (0..dims).map(|d| *win.interval(d)).collect::<Vec<_>>()
            ).unwrap();
            let query = match kind {
                0 => SpatialQuery::with_relation(SpatialRelation::Intersection, win),
                1 => SpatialQuery::with_relation(SpatialRelation::Containment, win),
                2 => SpatialQuery::with_relation(SpatialRelation::Enclosure, win),
                _ => SpatialQuery::point_enclosing(point[..dims].to_vec()),
            };

            let width = 2 * dims;
            let mut cols = vec![Vec::with_capacity(n); width];
            for row in flat.chunks_exact(width) {
                for (k, &v) in row.iter().enumerate() {
                    cols[k].push(v);
                }
            }
            let mut scratch = ScanScratch::new();
            let got = scan_columns(&query, &PairedColumns::new(&cols), &mut scratch);

            let mut want_matches = Vec::new();
            let mut want_checked = 0u64;
            for (i, row) in flat.chunks_exact(width).enumerate() {
                let out = query.matches_flat(row);
                want_checked += out.dims_checked as u64;
                if out.matched {
                    want_matches.push(i as u32);
                }
            }
            prop_assert_eq!(scratch.matches(), &want_matches[..]);
            prop_assert_eq!(got.dims_checked, want_checked);
            prop_assert_eq!(got.matched, want_matches.len());

            let via_rows = scan_interleaved(&query, &flat, &mut scratch);
            prop_assert_eq!(via_rows, got);
            prop_assert_eq!(scratch.matches(), &want_matches[..]);
        }
    }
}
