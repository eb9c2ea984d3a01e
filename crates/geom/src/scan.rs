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
//! Per dimension the pass bits of the block are ANDed into the mask;
//! survivor counting is a single `popcount`. A block whose mask reaches
//! zero skips its remaining dimensions — the columnar analogue of the
//! scalar path's per-object early exit.
//!
//! The skip is per block, not per object: one survivor keeps 63 dead
//! lanes loading. How many pass words a block costs therefore depends on
//! which objects share it, while the match set, [`ScanOutcome`] and every
//! statistic are sums over objects and do not. Callers exploit that:
//! `acx_storage::SegmentStore` keeps a cluster's members sorted by their
//! lower bound in dimension 0, so the lanes of a block agree on that
//! dimension and most blocks die in their first word (`scan_bench`'s
//! `block_order` rows in `BENCH_scan.json` measure by how much).
//!
//! Three entry points, the first two sharing one block loop:
//!
//! * [`scan_columns`] — member verification over [`PairedColumns`]
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
//! ## Metrics are bit-identical to the scalar path
//!
//! The scalar loop charges each object `dims_checked` = the index of its
//! first failing dimension plus one (or the full dimensionality when it
//! matches). Since an object reaches the check of dimension `d` exactly
//! when it survived dimensions `0..d`, the total over a segment equals
//! the sum over dimensions of the number of objects still alive when
//! that dimension is evaluated — which is precisely the sum of mask
//! popcounts the kernel accumulates. Dimensions are evaluated in the
//! same order (`0, 1, 2, …`) with the same comparisons, so
//! [`ScanOutcome`] totals — and every byte counter and reorganization
//! decision derived from them — are bit-identical to object-at-a-time
//! verification.
//!
//! ## Instruction tiers
//!
//! One `#[inline(always)]` block loop is instantiated inside two
//! whole-scan functions: AVX2 (`vcmpps` + `movmskps` straight into the
//! survivors word, `vmaskmovps` for a partial block, no scalar tail) and
//! a portable loop the compiler auto-vectorizes, for every other CPU.
//! The best tier the CPU reports is resolved once per process and chosen
//! once per scan call, outside the block and dimension loops; both tiers
//! compute the same pass bits, so results do not depend on the machine.

use crate::{Scalar, SpatialQuery, OBJECT_ID_BYTES};

/// Objects per kernel block — and lanes per survivors-mask word: small
/// enough that a block of rejected objects stops paying for further
/// dimensions quickly, large enough that the per-dimension loops
/// vectorize and survivor counting is one `popcount`.
pub const BLOCK: usize = 64;

/// Borrowed view over paired columns stored as `[lo0, hi0, lo1, hi1, …]`
/// — the layout of `acx_storage::SegmentStore`'s segments and of the
/// sequential-scan baseline. Supports sub-ranges: a view may cover any
/// window of the objects.
#[derive(Debug, Clone, Copy)]
pub struct PairedColumns<'a> {
    cols: &'a [Vec<Scalar>],
    start: usize,
    len: usize,
}

impl<'a> PairedColumns<'a> {
    /// View over all objects of the column set. `cols` must hold `2·dims`
    /// equal-length vectors, lower bounds at even indices.
    ///
    /// # Panics
    ///
    /// Panics if a column is shorter than the first.
    pub fn new(cols: &'a [Vec<Scalar>]) -> Self {
        Self::slice(cols, 0, cols.first().map_or(0, Vec::len))
    }

    /// [`PairedColumns::new`] for an owner that already checks, wherever
    /// it changes a column's length, that all of them are equally long:
    /// the view is built without comparing the lengths again (a debug
    /// build still does). A broken promise cannot read out of bounds —
    /// every block's lanes are cut from the columns by checked slicing —
    /// it only panics later, at the short column's first missing block.
    pub fn of_equal_columns(cols: &'a [Vec<Scalar>]) -> Self {
        let len = cols.first().map_or(0, Vec::len);
        debug_assert!(cols.iter().all(|col| col.len() == len));
        Self { cols, start: 0, len }
    }

    /// View over objects `start..start + len`.
    ///
    /// # Panics
    ///
    /// Panics if a column does not cover `start + len` objects.
    pub fn slice(cols: &'a [Vec<Scalar>], start: usize, len: usize) -> Self {
        let end = start.checked_add(len).expect("view range overflows");
        assert!(
            cols.iter().all(|col| col.len() >= end),
            "every column must cover the view's {end} objects"
        );
        Self { cols, start, len }
    }

    /// Number of objects in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lower-bound column of dimension `d`.
    pub fn lo_col(&self, d: usize) -> &'a [Scalar] {
        &self.cols[2 * d][self.start..self.start + self.len]
    }

    /// Upper-bound column of dimension `d`.
    pub fn hi_col(&self, d: usize) -> &'a [Scalar] {
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

/// Reusable scan state: the match index buffer, the query bounds of the
/// entry points that load them per call, and gather tiles for
/// interleaved inputs. Allocations grow to the largest match set and are
/// then reused, so a warmed-up scratch performs no allocation per scan.
#[derive(Debug, Default)]
pub struct ScanScratch {
    /// Indices (ascending) of the objects that matched the last scan.
    matches: Vec<u32>,
    /// Bounds of the query last passed to [`scan_columns`] or
    /// [`scan_interleaved`].
    bounds: QueryBounds,
    /// Per-block gather tiles ([`BLOCK`] scalars each) for interleaved
    /// inputs: the `x` and `y` sides of [`Compare::word`]'s comparison.
    tile_x: Vec<Scalar>,
    tile_y: Vec<Scalar>,
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
}

/// Mask word with the lowest `len` bits set (`len` in `1..=64`).
#[inline]
fn lane_mask(len: usize) -> u64 {
    debug_assert!((1..=BLOCK).contains(&len));
    !0u64 >> (BLOCK - len)
}

/// Packs up to [`BLOCK`] 0/1 bytes into mask bits (byte `i` → bit `i`):
/// eight bytes at a time, a multiply gathers their low bits into the top
/// byte of the product — the portable movemask.
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

/// One instruction tier's pass word. Every relation is the same
/// two-sided comparison `x ≤ t1 ∧ y ≥ t2` once the [`Relation`] has said
/// which bound column is `x` and which query side is `t1`, so each tier
/// implements exactly one comparison.
trait Compare {
    /// Pass bits of the `x.len() ≤ 64` lanes: bit `i` set ⇔
    /// `x[i] ≤ t1 ∧ y[i] ≥ t2`. Bits at and above `x.len()` are
    /// unspecified (the block loop ANDs them away).
    ///
    /// # Safety
    ///
    /// The CPU must support the tier's instruction set.
    unsafe fn word(x: &[Scalar], y: &[Scalar], t1: Scalar, t2: Scalar) -> u64;
}

/// Branch-free compares into a byte tile (auto-vectorized), then
/// [`pack_tile`]: runs anywhere.
struct Portable;

impl Compare for Portable {
    #[inline(always)]
    unsafe fn word(x: &[Scalar], y: &[Scalar], t1: Scalar, t2: Scalar) -> u64 {
        debug_assert!(x.len() == y.len() && !x.is_empty() && x.len() <= BLOCK);
        let mut tile = [0u8; BLOCK];
        for ((t, &xv), &yv) in tile.iter_mut().zip(x).zip(y) {
            *t = ((xv <= t1) & (yv >= t2)) as u8;
        }
        pack_tile(&tile, x.len())
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The explicit compare→mask tier. `_CMP_LE_OQ`/`_CMP_GE_OQ` are
    //! false on NaN like the scalar `<=`/`>=`, so the words equal
    //! [`super::Portable`]'s bit for bit.

    use super::{Compare, Scalar, BLOCK};
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

    /// Eight lanes per step: `vcmpps` + `movmskps`.
    pub(super) struct Avx2;

    impl Compare for Avx2 {
        #[inline(always)]
        unsafe fn word(x: &[Scalar], y: &[Scalar], t1: Scalar, t2: Scalar) -> u64 {
            let len = x.len();
            assert!(y.len() == len && len <= BLOCK, "one block of paired lanes");
            let (t1v, t2v) = (_mm256_set1_ps(t1), _mm256_set1_ps(t2));
            let mut word = 0u64;
            let mut i = 0;
            while i < len {
                let left = len - i;
                // SAFETY: `i < len = x.len() = y.len()` (asserted above).
                // A full step reads lanes `i..i + 8 ≤ len`; the last,
                // partial step enables only its `left < 8` lanes, and
                // `vmaskmovps` does not access a disabled lane.
                let (xv, yv) = if left >= 8 {
                    (_mm256_loadu_ps(x.as_ptr().add(i)), _mm256_loadu_ps(y.as_ptr().add(i)))
                } else {
                    let lanes = _mm256_cmpgt_epi32(
                        _mm256_set1_epi32(left as i32),
                        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                    );
                    (
                        _mm256_maskload_ps(x.as_ptr().add(i), lanes),
                        _mm256_maskload_ps(y.as_ptr().add(i), lanes),
                    )
                };
                let pass = _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_LE_OQ>(xv, t1v),
                    _mm256_cmp_ps::<_CMP_GE_OQ>(yv, t2v),
                );
                word |= (_mm256_movemask_ps(pass) as u32 as u64) << i;
                i += 8;
            }
            word
        }
    }
}

/// The instruction tiers, worst to best.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Tier {
    /// The best tier this CPU runs. The detection macro caches the CPU's
    /// answer for the process; a scan call reads it once.
    #[inline]
    fn best() -> Tier {
        // `popcnt` rides along so the block loop's survivor count is one
        // instruction in the tier compiled for these CPUs.
        #[cfg(target_arch = "x86_64")]
        if avx2_detected() && std::arch::is_x86_feature_detected!("popcnt") {
            return Tier::Avx2;
        }
        Tier::Portable
    }
}

/// The three comparison shapes; point-enclosing queries reduce to
/// [`Relation::Enclosure`] with degenerate per-dimension bounds. Each is
/// the tiers' `x ≤ t1 ∧ y ≥ t2` under a choice of columns and sides,
/// with `a = q.lo(d)` and `b = q.hi(d)`:
///
/// | relation | condition | `x` | `t1` |
/// |---|---|---|---|
/// | intersection | `lo ≤ b ∧ hi ≥ a` | `lo` | `b` |
/// | containment | `hi ≤ b ∧ lo ≥ a` | `hi` | `b` |
/// | enclosure | `lo ≤ a ∧ hi ≥ b` | `lo` | `a` |
#[derive(Debug, Clone, Copy, Default)]
enum Relation {
    #[default]
    Intersection,
    Containment,
    Enclosure,
}

impl Relation {
    /// Whether `x` is the upper-bound column and `y` the lower.
    #[inline]
    fn x_is_hi(self) -> bool {
        matches!(self, Relation::Containment)
    }

    /// Whether `t1` is the query's `a` side and `t2` its `b` side.
    #[inline]
    fn t1_is_a(self) -> bool {
        matches!(self, Relation::Enclosure)
    }
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

/// Where the block loop reads a (block, dimension) pair's lanes from.
trait Lanes {
    /// Number of objects.
    fn len(&self) -> usize;

    /// The `x` and `y` sides of dimension `d` for objects
    /// `start..start + len`, each cut to exactly `len` lanes.
    fn block(&mut self, start: usize, len: usize, d: usize) -> (&[Scalar], &[Scalar]);
}

/// Dimension-major input: the lanes are read in place.
struct ColumnLanes<'a> {
    cols: PairedColumns<'a>,
    /// [`Relation::x_is_hi`].
    x_is_hi: bool,
}

impl Lanes for ColumnLanes<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.cols.len()
    }

    #[inline(always)]
    fn block(&mut self, start: usize, len: usize, d: usize) -> (&[Scalar], &[Scalar]) {
        let lo = &self.cols.lo_col(d)[start..start + len];
        let hi = &self.cols.hi_col(d)[start..start + len];
        if self.x_is_hi {
            (hi, lo)
        } else {
            (lo, hi)
        }
    }
}

/// Row-major input: one dimension of the block's rows is gathered into
/// the scratch tiles first.
struct RowLanes<'a> {
    flat: &'a [Scalar],
    /// Scalars per row (`2·dims`).
    width: usize,
    x_is_hi: bool,
    tile_x: &'a mut [Scalar],
    tile_y: &'a mut [Scalar],
}

impl Lanes for RowLanes<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.flat.len() / self.width
    }

    #[inline(always)]
    fn block(&mut self, start: usize, len: usize, d: usize) -> (&[Scalar], &[Scalar]) {
        let (x_at, y_at) = if self.x_is_hi { (2 * d + 1, 2 * d) } else { (2 * d, 2 * d + 1) };
        let rows = &self.flat[start * self.width..(start + len) * self.width];
        for (i, row) in rows.chunks_exact(self.width).enumerate() {
            self.tile_x[i] = row[x_at];
            self.tile_y[i] = row[y_at];
        }
        (&self.tile_x[..len], &self.tile_y[..len])
    }
}

/// The blocked kernel: per block of [`BLOCK`] objects, AND each
/// dimension's pass word into the block's survivors mask; survivor
/// counting is a popcount and a block with no survivors skips its
/// remaining dimensions.
///
/// # Safety
///
/// The CPU must support `C`'s instruction set.
#[inline(always)]
unsafe fn scan_blocks<C: Compare, L: Lanes>(
    lanes: &mut L,
    t1s: &[Scalar],
    t2s: &[Scalar],
    matches: &mut Vec<u32>,
) -> ScanOutcome {
    let n = lanes.len();
    matches.clear();
    let mut dims_checked = 0u64;
    for start in (0..n).step_by(BLOCK) {
        let len = (n - start).min(BLOCK);
        let mut word = lane_mask(len);
        for (d, (&t1, &t2)) in t1s.iter().zip(t2s).enumerate() {
            let alive = word.count_ones() as u64;
            if alive == 0 {
                break;
            }
            dims_checked += alive;
            let (x, y) = lanes.block(start, len, d);
            // SAFETY: the caller vouches for the tier.
            word &= C::word(x, y, t1, t2);
        }
        while word != 0 {
            matches.push((start + word.trailing_zeros() as usize) as u32);
            word &= word - 1;
        }
    }
    ScanOutcome {
        objects: n,
        matched: matches.len(),
        dims_checked,
    }
}

/// [`scan_blocks`] compiled with AVX2 (and `popcnt`) enabled, so the
/// tier's intrinsics inline into the block loop.
///
/// # Safety
///
/// The CPU must support AVX2 and `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn scan_avx2<L: Lanes>(
    lanes: &mut L,
    t1s: &[Scalar],
    t2s: &[Scalar],
    matches: &mut Vec<u32>,
) -> ScanOutcome {
    scan_blocks::<x86::Avx2, L>(lanes, t1s, t2s, matches)
}

/// Runs one whole scan on `tier` — the only dispatch of a scan.
///
/// # Safety
///
/// `tier` must be [`Tier::Portable`] or [`Tier::best`].
unsafe fn scan_on<L: Lanes>(
    tier: Tier,
    bounds: &QueryBounds,
    lanes: &mut L,
    matches: &mut Vec<u32>,
) -> ScanOutcome {
    let (t1s, t2s) = if bounds.rel.t1_is_a() {
        (&bounds.qa[..], &bounds.qb[..])
    } else {
        (&bounds.qb[..], &bounds.qa[..])
    };
    // SAFETY: the caller vouches that the CPU supports `tier`.
    match tier {
        Tier::Portable => scan_blocks::<Portable, L>(lanes, t1s, t2s, matches),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => scan_avx2(lanes, t1s, t2s, matches),
    }
}

/// Scans a dimension-major column set against the query, leaving the
/// matching indices in `scratch.matches()`.
///
/// Match set, match order, and [`ScanOutcome::dims_checked`] are
/// bit-identical to calling [`SpatialQuery::matches_flat`] on every
/// object in storage order.
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
pub fn scan_columns(
    query: &SpatialQuery,
    cols: &PairedColumns<'_>,
    scratch: &mut ScanScratch,
) -> ScanOutcome {
    let ScanScratch { matches, bounds, .. } = scratch;
    bounds.load(query);
    // SAFETY: `Tier::best` names AVX2 only after detecting it and `popcnt`.
    unsafe { columns_on(Tier::best(), bounds, cols, matches) }
}

/// [`scan_columns`] for a query whose bounds the caller already loaded:
/// same outcome, without copying the bounds again.
pub fn scan_columns_loaded(
    bounds: &QueryBounds,
    cols: &PairedColumns<'_>,
    scratch: &mut ScanScratch,
) -> ScanOutcome {
    // SAFETY: `Tier::best` names AVX2 only after detecting it and `popcnt`.
    unsafe { columns_on(Tier::best(), bounds, cols, &mut scratch.matches) }
}

/// # Safety
///
/// `tier` must be [`Tier::Portable`] or [`Tier::best`].
unsafe fn columns_on(
    tier: Tier,
    bounds: &QueryBounds,
    cols: &PairedColumns<'_>,
    matches: &mut Vec<u32>,
) -> ScanOutcome {
    let mut lanes = ColumnLanes { cols: *cols, x_is_hi: bounds.rel.x_is_hi() };
    scan_on(tier, bounds, &mut lanes, matches)
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
    // SAFETY: `Tier::best` names AVX2 only after detecting it and `popcnt`.
    unsafe { interleaved_on(Tier::best(), query, flat, scratch) }
}

/// # Safety
///
/// `tier` must be [`Tier::Portable`] or [`Tier::best`].
unsafe fn interleaved_on(
    tier: Tier,
    query: &SpatialQuery,
    flat: &[Scalar],
    scratch: &mut ScanScratch,
) -> ScanOutcome {
    let width = 2 * query.dims();
    assert!(width > 0 && flat.len().is_multiple_of(width), "coordinate arity mismatch");
    let ScanScratch { matches, bounds, tile_x, tile_y } = scratch;
    bounds.load(query);
    tile_x.resize(BLOCK, 0.0);
    tile_y.resize(BLOCK, 0.0);
    let x_is_hi = bounds.rel.x_is_hi();
    let mut lanes = RowLanes { flat, width, x_is_hi, tile_x, tile_y };
    scan_on(tier, bounds, &mut lanes, matches)
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
/// (candidate counting, and the reorganization benefit column in
/// `acx_core`).
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

    #[test]
    #[should_panic(expected = "every column must cover")]
    fn short_column_is_rejected_at_view_construction() {
        let mut cols = columns(&[0.1, 0.2, 0.4, 0.5, 0.7, 0.8], 1);
        cols[1].pop();
        let _ = PairedColumns::new(&cols);
    }

    /// Every tier the CPU reports computes what per-object
    /// `matches_flat` computes — matches, their order and `dims_checked`
    /// — through both entry points, at every block-boundary size and
    /// with query bounds that coincide with object edges (all
    /// coordinates sit on a 1/8 grid).
    #[test]
    fn every_tier_agrees_with_scalar_oracle() {
        let mut tiers = vec![Tier::Portable];
        if Tier::best() != Tier::Portable {
            tiers.push(Tier::best());
        }
        println!("tiers exercised: {tiers:?}");
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut grid = |below: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % below
        };
        let mut matched_by_kind = [0usize; 4];
        for dims in 1..=16usize {
            let edges: Vec<(u64, u64)> = (0..dims)
                .map(|_| {
                    let lo = grid(4);
                    (lo, lo + 1 + grid(4))
                })
                .collect();
            let a: Vec<Scalar> = edges.iter().map(|e| e.0 as Scalar / 8.0).collect();
            let b: Vec<Scalar> = edges.iter().map(|e| e.1 as Scalar / 8.0).collect();
            let window = HyperRect::from_bounds(&a, &b).unwrap();
            let queries = [
                SpatialQuery::intersection(window.clone()),
                SpatialQuery::containment(window.clone()),
                SpatialQuery::enclosure(window),
                SpatialQuery::point_enclosing(a.clone()),
            ];
            for n in [0usize, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000] {
                let mut flat = Vec::with_capacity(n * 2 * dims);
                for i in 0..n {
                    for &edge in &edges {
                        // Every fifth object equals the window (on every
                        // edge at once); the others are mostly wide.
                        let (lo, hi) = match (i % 5, grid(8)) {
                            (0, _) => edge,
                            (_, 0) => (grid(9), grid(9)),
                            _ => (grid(3), 6 + grid(3)),
                        };
                        let (lo, hi) = (lo.min(hi), lo.max(hi));
                        flat.extend([lo as Scalar / 8.0, hi as Scalar / 8.0]);
                    }
                }
                let cols = columns(&flat, dims);
                for (kind, query) in queries.iter().enumerate() {
                    let (want_matches, want_checked) = oracle(query, &flat, dims);
                    matched_by_kind[kind] += want_matches.len();
                    let want = ScanOutcome {
                        objects: n,
                        matched: want_matches.len(),
                        dims_checked: want_checked,
                    };
                    for &tier in &tiers {
                        let mut scratch = ScanScratch::new();
                        scratch.bounds.load(query);
                        let ScanScratch { matches, bounds, .. } = &mut scratch;
                        // SAFETY: `tier` is `Tier::Portable` or `Tier::best()`.
                        let got = unsafe {
                            columns_on(tier, bounds, &PairedColumns::new(&cols), matches)
                        };
                        assert_eq!(got, want, "{tier:?} columns, {dims} dims, n = {n}, {query:?}");
                        assert_eq!(scratch.matches(), &want_matches[..], "{tier:?} columns");
                        // SAFETY: as above.
                        let got = unsafe { interleaved_on(tier, query, &flat, &mut scratch) };
                        assert_eq!(got, want, "{tier:?} rows, {dims} dims, n = {n}, {query:?}");
                        assert_eq!(scratch.matches(), &want_matches[..], "{tier:?} rows");
                    }
                }
            }
        }
        assert!(matched_by_kind.iter().all(|&m| m > 0), "vacuous: {matched_by_kind:?}");
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

        /// Storage order is no input of a scan: on every tier, any
        /// permutation of a segment's objects gives the same
        /// [`ScanOutcome`] — `dims_checked` included — and the same set of
        /// matching objects. Only the pass words spent may differ, which
        /// is what lets a store order its members for speed alone.
        #[test]
        fn storage_order_changes_no_outcome_on_any_tier(
            dims in 1usize..=6,
            pairs in prop::collection::vec((coord(), coord()), 0..1200),
            win in window(6),
            point in prop::collection::vec(coord(), 6),
            kind in 0usize..4,
            shuffle in 0u64..u64::MAX,
        ) {
            let width = 2 * dims;
            let rows: Vec<Vec<Scalar>> = pairs
                .chunks_exact(dims)
                .map(|row| row.iter().flat_map(|&(a, b)| [a.min(b), a.max(b)]).collect())
                .collect();
            let win = HyperRect::new(
                (0..dims).map(|d| *win.interval(d)).collect::<Vec<_>>()
            ).unwrap();
            let query = match kind {
                0 => SpatialQuery::intersection(win),
                1 => SpatialQuery::containment(win),
                2 => SpatialQuery::enclosure(win),
                _ => SpatialQuery::point_enclosing(point[..dims].to_vec()),
            };
            // A Fisher–Yates shuffle of the row numbers.
            let mut order: Vec<usize> = (0..rows.len()).collect();
            let mut state = shuffle | 1;
            for i in (1..order.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            let columns_in = |order: &[usize]| {
                let mut cols = vec![Vec::with_capacity(order.len()); width];
                for &row in order {
                    for (col, &v) in cols.iter_mut().zip(&rows[row]) {
                        col.push(v);
                    }
                }
                cols
            };
            let stored: Vec<usize> = (0..rows.len()).collect();
            let mut tiers = vec![Tier::Portable];
            if Tier::best() != Tier::Portable {
                tiers.push(Tier::best());
            }
            for tier in tiers {
                let mut outcomes = Vec::new();
                for order in [&stored, &order] {
                    let cols = columns_in(order);
                    let mut scratch = ScanScratch::new();
                    scratch.bounds.load(&query);
                    let ScanScratch { matches, bounds, .. } = &mut scratch;
                    // SAFETY: `tier` is `Tier::Portable` or `Tier::best()`.
                    let outcome = unsafe {
                        columns_on(tier, bounds, &PairedColumns::new(&cols), matches)
                    };
                    let mut matched: Vec<usize> =
                        scratch.matches().iter().map(|&i| order[i as usize]).collect();
                    matched.sort_unstable();
                    outcomes.push((outcome, matched));
                }
                prop_assert_eq!(&outcomes[0], &outcomes[1], "{:?}", tier);
            }
        }
    }
}
