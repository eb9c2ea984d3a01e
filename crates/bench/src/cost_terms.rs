//! Measures the five terms of the memory cost model through the
//! production code paths — the numbers behind
//! [`DeviceProfile::measured`], regenerated by `scan_bench --cost-terms`.
//!
//! Nothing here runs when an index is built or queried: the constants
//! in `DeviceProfile::measured` are committed, and this module is how
//! they were obtained and how CI notices that a kernel change has
//! invalidated them.
//!
//! Every term is timed through the public entry points of a real index
//! over the uniform workload, at 4, 8 and 16 dimensions:
//!
//! * **`C`** (`verify_ms_per_byte`) — `query_with` on a root-only index
//!   is one `scan_columns` sweep over every object: nanoseconds over
//!   verified bytes. The same sweep is the **yardstick**: reorganization
//!   decisions depend only on the ratios between the terms, and the
//!   shared hosts this runs on change speed by half for minutes at a
//!   time, so every other timing is divided by a yardstick reading
//!   taken just before and just after it and converted back to
//!   nanoseconds with the run's median reading.
//! * **`A`** (`signature_check_ms`) — `query_with` on an index the
//!   paper's constants have shredded into hundreds of clusters, for
//!   tiny containment windows that fail almost every signature below
//!   the root: time over signature checks. An upper bound — the few
//!   clusters such a probe does explore are charged to its checks.
//! * **`B`** (`exploration_setup_ms`, `record_ms_per_candidate`) — on
//!   that index, a mix of points and windows through `query_with`
//!   (what is left of a query after `C · verified bytes` and `A ·
//!   checks` is the traversal, per explored cluster) and through
//!   `execute` (the difference to `query_with` is the statistics
//!   recording and nothing else). Their sum per explored cluster at the
//!   three dimensionalities is a line in the candidate count the model
//!   prices (`dims · f(f+1)/2` = 40, 80, 160): its intercept is the
//!   setup, its slope the per-candidate term, which therefore carries
//!   every cost that grows with the dimensionality.
//! * **`M`** (`move_ms_per_object`) — `reorganize()` on a
//!   production-configured index following a jumping hotspot: the time
//!   of the passes that moved anything over
//!   [`acx_core::ReorgProfile::objects_moved`].

use std::time::Instant;

use acx_core::{AdaptiveClusterIndex, IndexConfig, QueryScratch};
use acx_geom::{HyperRect, Scalar, SpatialQuery};
use acx_storage::{DeviceProfile, StorageScenario};
use acx_workloads::{calibrate, UniformWorkload, Workload, WorkloadConfig};
use rand::Rng;

use crate::build_ac_with;

/// The dimensionalities the terms are measured at.
pub const DIMS: [usize; 3] = [4, 8, 16];

/// What one dimensionality's measurement found, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct DimTerms {
    /// Dimensionality of the measured indexes.
    pub dims: usize,
    /// Clusters of the shredded index `A` and `B` were measured on.
    pub clusters: usize,
    /// `C`: nanoseconds per verified byte (the median yardstick reading).
    pub verify_ns_per_byte: f64,
    /// `A`: nanoseconds per signature check.
    pub signature_check_ns: f64,
    /// `B`: nanoseconds per explored cluster, traversal and recording.
    pub exploration_ns: f64,
    /// The recording's share of `exploration_ns`.
    pub recording_ns: f64,
    /// `M`: nanoseconds per object moved by a split or a merge.
    pub move_ns_per_object: f64,
}

/// The five terms, reduced over [`DIMS`] to the constants of a
/// [`DeviceProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostTerms {
    /// Per-dimensionality measurements.
    pub per_dims: Vec<DimTerms>,
    /// `A`: median over the dimensionalities.
    pub signature_check_ns: f64,
    /// Fixed part of `B`: the intercept of `exploration_ns` over the
    /// priced candidate counts.
    pub exploration_setup_ns: f64,
    /// Per-candidate part of `B`: the slope of the same line.
    pub record_ns_per_candidate: f64,
    /// `C`: median over the dimensionalities.
    pub verify_ns_per_byte: f64,
    /// `M`: the reading at the lowest dimensionality. A move costs in
    /// proportion to the object's size and the model's `M` has no size
    /// term, so one constant cannot be right everywhere; the errors are
    /// not alike. An over-priced move vetoes the root's first split and
    /// the index never clusters at all, while an under-priced one is
    /// paid in pass time, which the benchmark's tail and throughput
    /// metrics see.
    pub move_ns_per_object: f64,
}

/// Nearest-rank median: the lower middle of an even count (0 when empty).
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite readings"));
    values[(values.len() - 1) / 2]
}

/// Least-squares line through `(x, y)`: `(slope, intercept)`.
fn fit_line(x: &[f64], y: &[f64]) -> (f64, f64) {
    let n = x.len() as f64;
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let sxy: f64 = x.iter().zip(y).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = x.iter().map(|x| (x - mx) * (x - mx)).sum();
    let slope = sxy / sxx;
    (slope, my - slope * mx)
}

/// The scan kernel's byte rate at this moment: a few broad windows
/// through a root-only index.
struct Yardstick {
    index: AdaptiveClusterIndex,
    queries: Vec<SpatialQuery>,
    scratch: QueryScratch,
    readings: Vec<f64>,
}

impl Yardstick {
    fn new(dims: usize, data: &[HyperRect], queries: &[SpatialQuery]) -> Self {
        let mut config = IndexConfig::memory(dims);
        config.reorg_period = 0;
        Self {
            index: build_ac_with(config, data),
            // Every third query of the mix is a broad window.
            queries: queries.iter().skip(2).step_by(3).take(8).cloned().collect(),
            scratch: QueryScratch::new(),
            readings: Vec::new(),
        }
    }

    /// Nanoseconds per verified byte, now.
    fn read(&mut self) -> f64 {
        let started = Instant::now();
        let mut bytes = 0u64;
        for q in &self.queries {
            bytes += self
                .index
                .query_with(q, &mut self.scratch)
                .stats
                .verified_bytes;
        }
        let reading = started.elapsed().as_nanos() as f64 / bytes as f64;
        self.readings.push(reading);
        reading
    }

    /// Runs `work` between two readings and returns its time in units
    /// of the scan kernel's byte time (nanoseconds over the mean
    /// reading) together with its result.
    fn bracket<T>(&mut self, work: impl FnOnce() -> T) -> (f64, T) {
        let before = self.read();
        let started = Instant::now();
        let out = work();
        let ns = started.elapsed().as_nanos() as f64;
        (ns / (0.5 * (before + self.read())), out)
    }
}

/// Points, selective windows and broad windows in equal parts.
fn query_mix(workload: &UniformWorkload, dims: usize, n: usize) -> Vec<SpatialQuery> {
    let mut rng = WorkloadConfig::new(dims, n, 0xC057).rng();
    let narrow = calibrate::uniform_query_extent(workload, 1e-4, 0xC057);
    let broad = calibrate::uniform_query_extent(workload, 1e-2, 0xC057);
    (0..n)
        .map(|k| match k % 3 {
            0 => SpatialQuery::point_enclosing(workload.sample_point(&mut rng)),
            1 => SpatialQuery::intersection(workload.sample_window(&mut rng, narrow)),
            _ => SpatialQuery::intersection(workload.sample_window(&mut rng, broad)),
        })
        .collect()
}

/// Counts and normalized time of one query set through `query_with`.
#[derive(Default)]
struct Sweep {
    units: f64,
    checks: f64,
    explored: f64,
    bytes: f64,
}

/// One bracketed sweep of `queries` through `query_with`.
fn read_sweep(
    yard: &mut Yardstick,
    index: &AdaptiveClusterIndex,
    queries: &[SpatialQuery],
    scratch: &mut QueryScratch,
) -> Sweep {
    let (units, mut sweep) = yard.bracket(|| {
        let mut sweep = Sweep::default();
        for q in queries {
            let stats = index.query_with(q, scratch).stats;
            sweep.checks += stats.signature_checks as f64;
            sweep.explored += stats.clusters_explored as f64;
            sweep.bytes += stats.verified_bytes as f64;
        }
        sweep
    });
    sweep.units = units;
    sweep
}

/// `M` at one dimensionality, in yardstick units: a production-configured
/// index that prices moves at nothing (so that it keeps moving) follows
/// a hotspot of selective windows jumping among four sites every other
/// period; the passes that moved anything, over the objects they moved.
/// The first periods, which carve up the root, are not counted: a
/// settled index pays for moves between clusters of its own making.
fn move_units_per_object(
    yard: &mut Yardstick,
    dims: usize,
    data: &[HyperRect],
    extent: Scalar,
) -> f64 {
    let mut config = IndexConfig::memory(dims);
    config.reorg_period = 0;
    config.profile.move_ms_per_object = 0.0;
    let mut index = build_ac_with(config, data);
    let mut rng = WorkloadConfig::new(dims, data.len(), 0x307E).rng();
    let span = 0.25 - extent.min(0.25);
    let (mut units, mut moved) = (0.0, 0u64);
    for period in 0..28 {
        let site = (period / 2 % 4) as Scalar * 0.25;
        for _ in 0..100 {
            let lo: Vec<Scalar> = (0..dims)
                .map(|_| site + rng.gen_range(0.0..=span))
                .collect();
            let hi: Vec<Scalar> = lo.iter().map(|l| (l + extent).min(1.0)).collect();
            let window = HyperRect::from_bounds(&lo, &hi).expect("window bounds are valid");
            index.execute(&SpatialQuery::intersection(window));
        }
        let (pass_units, _) = yard.bracket(|| index.reorganize());
        let pass_moved = index.last_reorg_profile().objects_moved;
        if period >= 4 && pass_moved > 0 {
            units += pass_units;
            moved += pass_moved;
        }
    }
    units / moved.max(1) as f64
}

/// Measures every term at one dimensionality: `rounds` bracketed sweeps
/// of each query set, the median round of each.
pub fn measure_dims(dims: usize, objects: usize, rounds: usize) -> DimTerms {
    let workload =
        UniformWorkload::with_max_length(WorkloadConfig::new(dims, objects, 0x7E25), 0.3);
    let data = workload.generate_objects();
    let queries = query_mix(&workload, dims, 192);
    let mut rng = WorkloadConfig::new(dims, objects, 0x920B).rng();
    let probes: Vec<SpatialQuery> = (0..64)
        .map(|_| SpatialQuery::containment(workload.sample_window(&mut rng, 0.01)))
        .collect();
    let mut yard = Yardstick::new(dims, &data, &queries);
    let mut scratch = QueryScratch::new();

    // The paper's constants shred the objects into hundreds of small
    // clusters: the state in which A and B are most of an event.
    let mut config = IndexConfig::edbt2004(dims, StorageScenario::Memory);
    config.reorg_period = 0;
    let mut index = build_ac_with(config, &data);
    for period in 0..8 {
        for q in queries.iter().cycle().skip(period * 100).take(100) {
            index.execute(q);
        }
        index.reorganize();
    }

    let (mut check_units, mut explore_units, mut record_units) = (vec![], vec![], vec![]);
    for _ in 0..rounds {
        let probe = read_sweep(&mut yard, &index, &probes, &mut scratch);
        let a = probe.units / probe.checks;
        let read = read_sweep(&mut yard, &index, &queries, &mut scratch);
        let (execute_units, _) = yard.bracket(|| {
            for q in &queries {
                std::hint::black_box(index.execute(q).matches.len());
            }
        });
        let recording = (execute_units - read.units) / read.explored;
        check_units.push(a);
        // One yardstick unit is one verified byte.
        explore_units.push((read.units - read.bytes - a * read.checks) / read.explored + recording);
        record_units.push(recording);
    }
    let extent = calibrate::uniform_query_extent(&workload, 1e-3, 0xC057);
    let move_units = median(
        (0..rounds.div_ceil(2))
            .map(|_| move_units_per_object(&mut yard, dims, &data, extent))
            .collect(),
    );

    let verify_ns_per_byte = median(std::mem::take(&mut yard.readings));
    DimTerms {
        dims,
        clusters: index.cluster_count(),
        verify_ns_per_byte,
        signature_check_ns: median(check_units) * verify_ns_per_byte,
        exploration_ns: median(explore_units) * verify_ns_per_byte,
        recording_ns: median(record_units) * verify_ns_per_byte,
        move_ns_per_object: move_units * verify_ns_per_byte,
    }
}

/// Measures every term at every dimensionality of [`DIMS`] and reduces
/// them to the five constants of a [`DeviceProfile`].
pub fn measure(objects: usize, rounds: usize) -> CostTerms {
    let per_dims: Vec<DimTerms> = DIMS
        .iter()
        .map(|&dims| measure_dims(dims, objects, rounds))
        .collect();
    let over = |f: fn(&DimTerms) -> f64| per_dims.iter().map(f).collect::<Vec<f64>>();
    let priced_candidates: Vec<f64> = DIMS
        .iter()
        .map(|&dims| IndexConfig::memory(dims).candidates_per_cluster() as f64)
        .collect();
    let (record_ns_per_candidate, exploration_setup_ns) =
        fit_line(&priced_candidates, &over(|t| t.exploration_ns));
    CostTerms {
        signature_check_ns: median(over(|t| t.signature_check_ns)),
        exploration_setup_ns,
        record_ns_per_candidate,
        verify_ns_per_byte: median(over(|t| t.verify_ns_per_byte)),
        move_ns_per_object: per_dims[0].move_ns_per_object,
        per_dims,
    }
}

impl CostTerms {
    /// Each measured constant beside the one committed for it in
    /// [`DeviceProfile::measured`]: `(name, measured ns, committed ns)`.
    pub fn against_committed(&self) -> [(&'static str, f64, f64); 5] {
        let p = DeviceProfile::measured();
        [
            (
                "signature_check_ns",
                self.signature_check_ns,
                p.signature_check_ms * 1e6,
            ),
            (
                "exploration_setup_ns",
                self.exploration_setup_ns,
                p.exploration_setup_ms * 1e6,
            ),
            (
                "record_ns_per_candidate",
                self.record_ns_per_candidate,
                p.record_ms_per_candidate * 1e6,
            ),
            (
                "verify_ns_per_byte",
                self.verify_ns_per_byte,
                p.verify_ms_per_byte * 1e6,
            ),
            (
                "move_ns_per_object",
                self.move_ns_per_object,
                p.move_ms_per_object * 1e6,
            ),
        ]
    }

    /// The terms that are more than `tolerance` times, or less than a
    /// `tolerance`-th of, what the committed constants make them: `A`,
    /// `C`, `M`, and `B` at each measured dimensionality. `B` is
    /// compared whole — its two constants are the intercept and slope
    /// of a three-point line, and a quick run's noise can put the
    /// intercept anywhere near zero without `B` having moved.
    pub fn out_of_tolerance(&self, tolerance: f64) -> Vec<String> {
        let [a, _setup, _record, c, m] = self.against_committed();
        let mut rows: Vec<(String, f64, f64)> = [a, c, m]
            .map(|(name, measured, committed)| (name.to_owned(), measured, committed))
            .into();
        for t in &self.per_dims {
            let committed = IndexConfig::memory(t.dims).cost_model().b() * 1e6;
            rows.push((
                format!("exploration_ns at {} d", t.dims),
                t.exploration_ns,
                committed,
            ));
        }
        rows.retain(|(_, measured, committed)| {
            !(1.0 / tolerance..=tolerance).contains(&(measured / committed))
        });
        rows.into_iter()
            .map(|(name, measured, committed)| {
                format!("{name}: measured {measured:.4}, committed {committed:.4}")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(Vec::new()), 0.0);
    }

    /// Terms that are exactly what the committed constants make them.
    fn as_committed() -> CostTerms {
        let p = DeviceProfile::measured();
        let per_dims = DIMS
            .iter()
            .map(|&dims| DimTerms {
                dims,
                clusters: 1,
                verify_ns_per_byte: p.verify_ms_per_byte * 1e6,
                signature_check_ns: p.signature_check_ms * 1e6,
                exploration_ns: IndexConfig::memory(dims).cost_model().b() * 1e6,
                recording_ns: 0.0,
                move_ns_per_object: p.move_ms_per_object * 1e6,
            })
            .collect();
        CostTerms {
            per_dims,
            signature_check_ns: p.signature_check_ms * 1e6,
            exploration_setup_ns: p.exploration_setup_ms * 1e6,
            record_ns_per_candidate: p.record_ms_per_candidate * 1e6,
            verify_ns_per_byte: p.verify_ms_per_byte * 1e6,
            move_ns_per_object: p.move_ms_per_object * 1e6,
        }
    }

    #[test]
    fn tolerance_flags_a_term_and_b_as_a_whole() {
        let mut terms = as_committed();
        assert!(terms.out_of_tolerance(10.0).is_empty());
        // The line's intercept may land anywhere: B is judged whole.
        terms.exploration_setup_ns = -40.0;
        assert!(terms.out_of_tolerance(10.0).is_empty());
        terms.move_ns_per_object *= 11.0;
        terms.per_dims[2].exploration_ns /= 11.0;
        let flagged = terms.out_of_tolerance(10.0);
        assert_eq!(flagged.len(), 2, "{flagged:?}");
        assert!(flagged[0].starts_with("move_ns_per_object"));
        assert!(flagged[1].starts_with("exploration_ns at 16 d"));
    }

    #[test]
    fn fit_line_recovers_slope_and_intercept() {
        let (slope, intercept) = fit_line(&[40.0, 80.0, 160.0], &[420.0, 740.0, 1380.0]);
        assert!((slope - 8.0).abs() < 1e-9 && (intercept - 100.0).abs() < 1e-9);
    }
}
