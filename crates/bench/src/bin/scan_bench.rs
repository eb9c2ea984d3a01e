//! Snapshot benchmark of the kernels, the index and its passes,
//! recorded to `BENCH_scan.json`,
//! `BENCH_candidates.json` and `BENCH_reorg.json` so the repository's
//! perf trajectory is tracked across PRs.
//!
//! Six layers are measured single-threaded:
//!
//! * **kernel** — `scan_columns` against per-object `matches_flat` over
//!   one flat segment, for every (objects, dims) in the matrix.
//! * **block order** — the same kernel over the same 20 000 objects
//!   stored in arrival order and in key order (ascending lower bound of
//!   dimension 0, what `SegmentStore` keeps): pass words evaluated per
//!   64-object block and nanoseconds per object, for 8-d point events
//!   over subscriptions and for 16-d windows of 1 % selectivity.
//! * **candidate counting** — one `CandidateSet::note_query` (`2f`
//!   comparisons and one cut-point cell per dimension) plus one
//!   `expand` per query against the scalar candidate-at-a-time
//!   `matches_query` + bump loop over one cluster's candidate set, for
//!   division factors yielding `f²·Nd` from a dozen to thousands; and
//!   per period of a cluster explored k = 1, 8, 32 or 100 times, what
//!   every recording path runs: k × `note_query` plus one `expand`.
//!   These are layer numbers and claim nothing end to end.
//! * **member passes** — the two passes a restart runs over every
//!   cluster's members twice (`count_members`, `first_rejected`), per
//!   member, on every instruction tier the CPU runs (portable, and AVX2
//!   where it has it).
//! * **index** — `AdaptiveClusterIndex` point-enclosing queries (§7.2,
//!   the scan-dominated workload) through the read-only `query_with`
//!   path, on an adapted index.
//! * **recorded execute** — the read phase of the two-phase path
//!   (exploration plus logging the query into a `StatsDelta`) and the
//!   full `execute` path (recording into the candidate sets in place,
//!   plus the amortized pass).
//! * **reorganization** — the per-period maintenance pass on an adapted
//!   index (O(1) screen + columnar split scan); and passes that split
//!   and merge, under a 4-d hotspot jumping between sites of clustered
//!   objects: nanoseconds per pass, members moved per pass and
//!   nanoseconds per moved member.
//! * **insert descent** — on both reorganization indexes once their
//!   passes are timed, nanoseconds per `insert` and per `remove` +
//!   `insert` pair: §3.5's descent of the cluster tree, which tests
//!   each child of an accepting cluster on its child-table row.
//!
//! `BENCH_reorg.json`'s timed rows, and `BENCH_candidates.json`'s (each
//! from at least five runs), carry the quartiles of their samples beside
//! each median: on a shared host one run's median drifts by more than a
//! regression, so commits are compared in alternating pairs.
//!
//! The index and the pass make the paper's decisions by the equivalence
//! suites, which compare them with the test crate's model of the paper;
//! this binary only times them. Every file it writes is stamped with
//! the commit, the compiler and the host.
//!
//! `--cost-terms` additionally measures the five terms of the memory
//! cost model ([`acx_bench::cost_terms`]) and writes them, beside the
//! constants committed in `DeviceProfile::measured`, as the
//! `calibration` object of `BENCH_scan.json`. The run exits 1 when a
//! measured term is more than 10× off its committed constant: a kernel
//! change has invalidated the model, and the constants want measuring
//! again (by hand — nothing is ever calibrated at run time).
//!
//! Usage:
//! ```text
//! cargo run --release -p acx_bench --bin scan_bench
//!     [--quick] [--cost-terms] [--out BENCH_scan.json]
//!     [--cand-out BENCH_candidates.json] [--reorg-out BENCH_reorg.json]
//!     [--index-objects N] [--repeats N]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use acx_bench::args::Flags;
use acx_bench::cost_terms::{self, CostTerms};
use acx_bench::{adapted_ac, build_ac_with};
use acx_core::candidates::CandidateSet;
use acx_core::{AdaptiveClusterIndex, IndexConfig, QueryScratch, Signature, StatsDelta};
use acx_geom::scan::{scan_columns, PairedColumns, ScanScratch, BLOCK};
use acx_geom::tier::Tier;
use acx_geom::{HyperRect, ObjectId, Scalar, SpatialQuery, OBJECT_ID_BYTES};
use acx_storage::StorageScenario;
use acx_workloads::{
    calibrate, ClusteredObjects, EventStream, PubSubGenerator, UniformWorkload, Workload,
    WorkloadConfig,
};
use rand::rngs::StdRng;
use rand::Rng;

/// Members of the cluster whose restart passes `member_passes` times:
/// a large cluster of the memory platform, which clusters hundreds.
const MEMBER_PASS_MEMBERS: usize = 1_024;

/// Median-of-repeats nanoseconds per query for one closure.
fn time_per_query<F: FnMut(usize) -> u64>(queries: usize, repeats: usize, mut run: F) -> f64 {
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let started = Instant::now();
            let mut guard = 0u64;
            for k in 0..queries {
                guard = guard.wrapping_add(run(k));
            }
            std::hint::black_box(guard);
            started.elapsed().as_nanos() as f64 / queries as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

struct KernelRow {
    dims: usize,
    objects: usize,
    columnar_ns: f64,
    scalar_ns: f64,
}

fn kernel_matrix(sizes: &[usize], dims_list: &[usize], repeats: usize) -> Vec<KernelRow> {
    let mut rows = Vec::new();
    for &dims in dims_list {
        for &n in sizes {
            let workload =
                UniformWorkload::with_max_length(WorkloadConfig::new(dims, n, 0x5CA7), 0.3);
            let mut rng = WorkloadConfig::new(dims, n, 0x5CA7).rng();
            let width = 2 * dims;
            let mut flat: Vec<Scalar> = Vec::with_capacity(n * width);
            for _ in 0..n {
                workload.sample_object(&mut rng).write_flat(&mut flat);
            }
            let mut cols = vec![Vec::with_capacity(n); width];
            for row in flat.chunks_exact(width) {
                for (k, &v) in row.iter().enumerate() {
                    cols[k].push(v);
                }
            }
            let queries: Vec<SpatialQuery> = (0..64)
                .map(|_| SpatialQuery::point_enclosing(workload.sample_point(&mut rng)))
                .collect();

            let mut scratch = ScanScratch::new();
            let columnar_ns = time_per_query(queries.len(), repeats, |k| {
                let out = scan_columns(&queries[k], &PairedColumns::new(&cols), &mut scratch);
                out.verified_bytes() + out.matched as u64
            });
            let scalar_ns = time_per_query(queries.len(), repeats, |k| {
                let mut acc = 0u64;
                for row in flat.chunks_exact(width) {
                    let out = queries[k].matches_flat(row);
                    acc +=
                        OBJECT_ID_BYTES as u64 + 8 * out.dims_checked as u64 + out.matched as u64;
                }
                acc
            });
            println!(
                "kernel  d={dims} n={n:>6}: columnar {columnar_ns:>12.0} ns/q  scalar {scalar_ns:>12.0} ns/q  speedup {:.2}x",
                scalar_ns / columnar_ns
            );
            rows.push(KernelRow {
                dims,
                objects: n,
                columnar_ns,
                scalar_ns,
            });
        }
    }
    rows
}

struct BlockOrderRow {
    workload: &'static str,
    objects: usize,
    /// `(pass words per block, ns per object)` as stored on arrival and
    /// in key order.
    arrival: (f64, f64),
    key_order: (f64, f64),
}

/// What the order of a segment's members is worth to the kernel. A
/// block is evaluated in a dimension while any of its lanes survives, so
/// the pass words it costs are the largest `dims_checked` among its
/// objects: a number that depends on which objects share a block and on
/// nothing else, while the sum of `dims_checked` (asserted equal here)
/// does not depend on it at all.
fn block_order(quick: bool, repeats: usize) -> Vec<BlockOrderRow> {
    let objects = if quick { 4_000 } else { 20_000 };
    let pubsub = {
        let generator = PubSubGenerator::apartments();
        let mut rng = WorkloadConfig::new(8, objects, 0xB10C).rng();
        let rects: Vec<HyperRect> = (0..objects as u32)
            .map(|i| generator.subscription(i, &mut rng).ranges)
            .collect();
        let queries = EventStream::with_flexibility(generator, 0xB10D, 0.0).next_batch(64);
        ("pubsub_8d_point_enclosing", rects, queries)
    };
    let uniform = {
        let workload = UniformWorkload::new(WorkloadConfig::new(16, objects, 0xB10E));
        let extent = calibrate::uniform_query_extent(&workload, 1e-2, 3);
        let mut rng = WorkloadConfig::new(16, objects, 0xB10F).rng();
        let queries = (0..64)
            .map(|_| SpatialQuery::intersection(workload.sample_window(&mut rng, extent)))
            .collect();
        (
            "uniform_16d_window_1pct",
            workload.generate_objects(),
            queries,
        )
    };
    let mut rows = Vec::new();
    for (workload, rects, queries) in [pubsub, uniform] {
        let arrival: Vec<Vec<Scalar>> = rects.iter().map(HyperRect::to_flat).collect();
        let mut key_order = arrival.clone();
        key_order.sort_by(|a, b| a[0].total_cmp(&b[0]));
        let measure = |stored: &[Vec<Scalar>]| {
            let (mut words, mut checked) = (0u64, 0u64);
            for q in &queries {
                for block in stored.chunks(BLOCK) {
                    let mut longest = 0;
                    for flat in block {
                        let lane = q.matches_flat(flat).dims_checked as u64;
                        longest = longest.max(lane);
                        checked += lane;
                    }
                    words += longest;
                }
            }
            let blocks = (stored.len().div_ceil(BLOCK) * queries.len()) as f64;
            let mut cols = vec![Vec::with_capacity(stored.len()); stored[0].len()];
            for flat in stored {
                for (col, &v) in cols.iter_mut().zip(flat) {
                    col.push(v);
                }
            }
            let mut scratch = ScanScratch::new();
            let ns = time_per_query(queries.len(), repeats, |k| {
                let out = scan_columns(&queries[k], &PairedColumns::new(&cols), &mut scratch);
                out.dims_checked + out.matched as u64
            });
            (words as f64 / blocks, ns / stored.len() as f64, checked)
        };
        let (arrival, key_order) = (measure(&arrival), measure(&key_order));
        assert_eq!(arrival.2, key_order.2, "dims_checked is a sum over objects");
        println!(
            "order   {workload} n={objects}: arrival {:.2} words/block {:.3} ns/object  key order {:.2} words/block {:.3} ns/object  ({:.2} dims checked/object either way)",
            arrival.0,
            arrival.1,
            key_order.0,
            key_order.1,
            arrival.2 as f64 / (objects * queries.len()) as f64,
        );
        rows.push(BlockOrderRow {
            workload,
            objects,
            arrival: (arrival.0, arrival.1),
            key_order: (key_order.0, key_order.1),
        });
    }
    rows
}

struct CandidateRow {
    dims: usize,
    division_factor: u8,
    candidates: usize,
    noted: Spread,
    scalar: Spread,
}

/// The candidate rows' 64 queries: the four kinds in turn.
fn candidate_queries(dims: usize) -> Vec<SpatialQuery> {
    let workload = UniformWorkload::with_max_length(WorkloadConfig::new(dims, 1024, 0xCA7D), 0.3);
    let mut rng = WorkloadConfig::new(dims, 1024, 0xCA7D).rng();
    (0..64)
        .map(|k| match k % 4 {
            0 => SpatialQuery::intersection(workload.sample_window(&mut rng, 0.3)),
            1 => SpatialQuery::containment(workload.sample_window(&mut rng, 0.5)),
            2 => SpatialQuery::enclosure(workload.sample_window(&mut rng, 0.1)),
            _ => SpatialQuery::point_enclosing(workload.sample_point(&mut rng)),
        })
        .collect()
}

/// One cluster's candidate loop in isolation: a note and an expansion
/// per query vs the candidate-at-a-time scalar reference, across
/// division factors pushing `f²·Nd` from a dozen past the paper's 160
/// (f = 4, 16 d) to thousands. Both read one cluster's candidate set
/// and leave the same counts in a `u32` column per candidate. Each
/// timing is the spread of `runs` medians of `repeats`.
fn candidate_matrix(configs: &[(usize, u8)], repeats: usize, runs: usize) -> Vec<CandidateRow> {
    let mut rows = Vec::new();
    for &(dims, f) in configs {
        let mut noted = CandidateSet::generate(&Signature::root(dims), f);
        let cands = noted.clone();
        let queries = candidate_queries(dims);

        let noted_ns = Spread::of_runs(runs, || {
            time_per_query(queries.len(), repeats, |k| {
                noted.note_query(&queries[k]);
                noted.expand();
                noted.q(k % noted.len()) as u64
            })
        });
        let mut counters = vec![0u32; cands.len()];
        let scalar_ns = Spread::of_runs(runs, || {
            time_per_query(queries.len(), repeats, |k| {
                for (ci, c) in counters.iter_mut().enumerate() {
                    if cands.matches_query(ci, &queries[k]) {
                        *c = c.saturating_add(1);
                    }
                }
                counters[k % counters.len()] as u64
            })
        });
        assert_eq!(noted.q_col(), &counters[..], "the two count alike");
        println!(
            "cands   d={dims} f={f} ({:>5} candidates): note_query+expand {:>9.0} ns/q  scalar {:>9.0} ns/q  speedup {:.2}x",
            cands.len(),
            noted_ns.p50,
            scalar_ns.p50,
            scalar_ns.p50 / noted_ns.p50,
        );
        rows.push(CandidateRow {
            dims,
            division_factor: f,
            candidates: cands.len(),
            noted: noted_ns,
            scalar: scalar_ns,
        });
    }
    rows
}

struct PeriodRow {
    dims: usize,
    division_factor: u8,
    candidates: usize,
    explored: usize,
    noted: Spread,
}

/// One cluster explored `k` times per period, per query: `k` ×
/// `note_query` plus the period's one `expand`, as every recording path
/// and the pass's scan run them. Each timing is the spread of `runs`
/// medians of `repeats`.
fn candidate_periods(configs: &[(usize, u8)], repeats: usize, runs: usize) -> Vec<PeriodRow> {
    let mut rows = Vec::new();
    for &(dims, f) in configs {
        let queries = candidate_queries(dims);
        for k in [1usize, 8, 32, 100] {
            let periods = (6_400 / k).max(1);
            let mut noted = CandidateSet::generate(&Signature::root(dims), f);
            let noted_ns = Spread::of_runs(runs, || {
                time_per_query(periods, repeats, |p| {
                    for t in 0..k {
                        noted.note_query(&queries[(p * k + t) % queries.len()]);
                    }
                    noted.expand();
                    noted.q(p % noted.len()) as u64
                }) / k as f64
            });
            println!(
                "period  d={dims} f={f} k={k:>3}: note_query+expand {:>7.0} ns/q",
                noted_ns.p50
            );
            rows.push(PeriodRow {
                dims,
                division_factor: f,
                candidates: noted.len(),
                explored: k,
                noted: noted_ns,
            });
        }
    }
    rows
}

struct MemberPassRow {
    dims: usize,
    candidates: usize,
    /// Nanoseconds per member of one `count_members`, on the portable
    /// tier and on the one the index dispatches to.
    count: (Spread, Spread),
    /// The same for one `first_rejected` that rejects no member.
    reject: (Spread, Spread),
}

/// The two member passes a restart runs twice over every cluster, in
/// `load` and in `check_invariants`' audit: every candidate's member
/// count (`count_members`, f = 4) and every member held to the
/// cluster's signature (`first_rejected`; the root signature rejects no
/// member, so every dimension's columns are read). Each is timed as the
/// index calls it, on every tier of `Tier::all`: the first is the
/// portable tier, the last the one the index dispatches to.
/// Nanoseconds per member, the spread of `runs` medians of `repeats`.
fn member_passes(
    dims_list: &[usize],
    members: usize,
    repeats: usize,
    runs: usize,
) -> Vec<MemberPassRow> {
    let passes = 16;
    let per_member = |ns: f64| ns / members as f64;
    let mut rows = Vec::new();
    for &dims in dims_list {
        let workload =
            UniformWorkload::with_max_length(WorkloadConfig::new(dims, members, 0x3E3B), 0.3);
        let mut rng = WorkloadConfig::new(dims, members, 0x3E3B).rng();
        let mut cols = vec![Vec::with_capacity(members); 2 * dims];
        for _ in 0..members {
            for (col, v) in cols
                .iter_mut()
                .zip(workload.sample_object(&mut rng).to_flat())
            {
                col.push(v);
            }
        }
        let view = PairedColumns::new(&cols);
        let sig = Signature::root(dims);
        let set = CandidateSet::generate(&sig, 4);
        let (mut counts, mut accepted) = (vec![0u32; set.len()], Vec::new());
        let timed: Vec<(Spread, Spread)> = (Tier::all().iter())
            .map(|&tier| {
                let count = Spread::of_runs(runs, || {
                    per_member(time_per_query(passes, repeats, |k| {
                        set.count_members(tier, &view, &mut counts);
                        u64::from(counts[k % counts.len()])
                    }))
                });
                let reject = Spread::of_runs(runs, || {
                    per_member(time_per_query(passes, repeats, |_| {
                        sig.first_rejected(tier, &view, &mut accepted)
                            .map_or(0, |k| k as u64 + 1)
                    }))
                });
                (count, reject)
            })
            .collect();
        let (portable, dispatched) = (timed[0], timed[timed.len() - 1]);
        println!(
            "members d={dims} f=4 n={members}: count_members {:.3} -> {:.3} ns/member  first_rejected {:.3} -> {:.3} ns/member (portable -> dispatched)",
            portable.0.p50, dispatched.0.p50, portable.1.p50, dispatched.1.p50,
        );
        rows.push(MemberPassRow {
            dims,
            candidates: set.len(),
            count: (portable.0, dispatched.0),
            reject: (portable.1, dispatched.1),
        });
    }
    rows
}

/// The index-level sections' configuration: the paper's platform, where
/// the few thousand objects measured here build the hundreds of
/// clusters a traversal, a recording or a pass needs to be worth timing.
fn paper_platform(dims: usize) -> IndexConfig {
    IndexConfig::edbt2004(dims, StorageScenario::Memory)
}

/// The acceptance workload: §7.2 point-enclosing queries on an adapted
/// 16-d index through the read-only path; nanoseconds per query.
fn index_point_enclosing(objects: usize, repeats: usize) -> f64 {
    let dims = 16;
    let workload =
        UniformWorkload::with_max_length(WorkloadConfig::new(dims, objects, 0x5EED), 0.3);
    let data = workload.generate_objects();
    let mut rng = WorkloadConfig::new(dims, objects, 17).rng();
    let queries: Vec<SpatialQuery> = (0..256)
        .map(|_| SpatialQuery::point_enclosing(workload.sample_point(&mut rng)))
        .collect();

    let index = adapted_ac(paper_platform(dims), &data, &queries);
    let mut scratch = QueryScratch::new();
    let ns = time_per_query(queries.len(), repeats, |k| {
        let metrics = index.query_with(&queries[k], &mut scratch);
        metrics.stats.verified_bytes + scratch.matches().len() as u64
    });
    println!(
        "index   point_enclosing d={dims} n={objects}: {ns:>10.0} ns/q  ({} clusters)",
        index.cluster_count()
    );
    ns
}

struct RecordedRow {
    recorded_ns: f64,
    execute_ns: f64,
}

/// Recorded execution at 16 dims, two layers: the read phase of the
/// two-phase path (`query_recorded_with` through a reused, cleared
/// delta: exploration plus logging the query, whose statistics
/// `apply_stats` records later) and the full `execute` (exploration,
/// recording in place and amortized periodic reorganization). The committed JSON additionally carries the
/// numbers measured at the PR 3 commit with the same harness for the
/// cross-PR trajectory.
fn recorded_execute(objects: usize, repeats: usize) -> RecordedRow {
    let dims = 16;
    let workload =
        UniformWorkload::with_max_length(WorkloadConfig::new(dims, objects, 0x5EED), 0.3);
    let data = workload.generate_objects();
    let mut rng = WorkloadConfig::new(dims, objects, 17).rng();
    let queries: Vec<SpatialQuery> = (0..256)
        .map(|_| SpatialQuery::point_enclosing(workload.sample_point(&mut rng)))
        .collect();

    let mut index = adapted_ac(paper_platform(dims), &data, &queries);
    let mut scratch = QueryScratch::new();
    let mut delta = StatsDelta::new();
    let mut explored = 0u64;
    for q in &queries {
        delta.clear();
        explored += index
            .query_recorded_with(q, &mut delta, &mut scratch)
            .stats
            .clusters_explored;
    }
    let recorded_ns = time_per_query(queries.len(), repeats, |k| {
        delta.clear();
        let metrics = index.query_recorded_with(&queries[k], &mut delta, &mut scratch);
        metrics.stats.verified_bytes + scratch.matches().len() as u64
    });
    let execute_ns = time_per_query(queries.len(), repeats, |k| {
        index.execute(&queries[k]).matches.len() as u64
    });
    println!(
        "record  d={dims} n={objects}: recorded {recorded_ns:>8.0} ns/q  execute {execute_ns:>8.0} ns/q  ({} clusters, {:.1} explored/q)",
        index.cluster_count(),
        explored as f64 / queries.len() as f64
    );
    RecordedRow {
        recorded_ns,
        execute_ns,
    }
}

/// The quartiles of a row's measured samples: one run's median alone
/// cannot tell a regression from the host's drift.
#[derive(Clone, Copy)]
struct Spread {
    p25: f64,
    p50: f64,
    p75: f64,
}

impl Spread {
    /// Nearest-rank quartiles of `samples` (at least one).
    fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let at = |quarters: usize| samples[samples.len() * quarters / 4];
        Self {
            p25: at(1),
            p50: at(2),
            p75: at(3),
        }
    }

    /// Quartiles of `runs` samples of `sample`.
    fn of_runs(runs: usize, mut sample: impl FnMut() -> f64) -> Self {
        Self::of((0..runs).map(|_| sample()).collect())
    }

    /// The spread as JSON fields `"<name>_ns"`, `"<name>_p25_ns"` and
    /// `"<name>_p75_ns"`, in whole nanoseconds.
    fn json(&self, name: &str) -> String {
        self.json_to(name, 0)
    }

    /// [`Spread::json`] to `decimals` places.
    fn json_to(&self, name: &str, decimals: usize) -> String {
        format!(
            "\"{name}_ns\": {:.decimals$}, \"{name}_p25_ns\": {:.decimals$}, \"{name}_p75_ns\": {:.decimals$}",
            self.p50, self.p25, self.p75
        )
    }
}

struct ReorgRow {
    pass: Spread,
    clusters: usize,
    evaluated: u64,
    scans: u64,
    screened: u64,
    arena_live_bytes: u64,
    descent: DescentRow,
}

/// The write path's descent on an adapted index.
struct DescentRow {
    clusters: usize,
    /// Nanoseconds per `insert` of a new object.
    insert: Spread,
    /// Nanoseconds per `remove` + `insert` of the same object.
    remove_insert: Spread,
}

/// Objects each round of [`insert_descent`] inserts.
const DESCENT_OBJECTS: usize = 1_000;

/// Times §3.5's insert on `index`: per round, [`DESCENT_OBJECTS`] of
/// `rects` are inserted under fresh ids, then each is removed and
/// inserted again, then (untimed) removed, so every round starts from
/// the same members. Quartiles over `repeats` rounds, after one warm-up
/// round.
fn insert_descent(
    index: &mut AdaptiveClusterIndex,
    rects: &[HyperRect],
    repeats: usize,
) -> DescentRow {
    let rects = &rects[..DESCENT_OBJECTS.min(rects.len())];
    let base = u32::try_from(index.len()).expect("bench indexes hold under u32::MAX objects");
    let ids = || (base..).map(ObjectId).zip(rects);
    let (mut inserts, mut pairs) = (Vec::new(), Vec::new());
    for round in 0..=repeats {
        let started = Instant::now();
        for (id, rect) in ids() {
            index.insert(id, rect.clone()).expect("a fresh id");
        }
        let inserted = started.elapsed().as_nanos() as f64;
        let started = Instant::now();
        for (id, rect) in ids() {
            std::hint::black_box(index.remove(id).expect("inserted above"));
            index.insert(id, rect.clone()).expect("removed above");
        }
        let paired = started.elapsed().as_nanos() as f64;
        for (id, _) in ids() {
            index.remove(id).expect("inserted above");
        }
        if round > 0 {
            inserts.push(inserted / rects.len() as f64);
            pairs.push(paired / rects.len() as f64);
        }
    }
    let row = DescentRow {
        clusters: index.cluster_count(),
        insert: Spread::of(inserts),
        remove_insert: Spread::of(pairs),
    };
    println!(
        "descent d={} ({} clusters): {:>8.0} ns/insert  {:>8.0} ns/remove+insert",
        index.dims(),
        row.clusters,
        row.insert.p50,
        row.remove_insert.p50
    );
    row
}

/// The per-period reorganization cost on an adapted 16-d index, driven
/// with auto-reorganization off and one explicit pass every `period`
/// executes — exactly the paper's `reorg_period` cadence — so the timed
/// `reorganize()` call is the pass alone. The pass's decisions are the
/// model's by the equivalence suites, not here.
fn reorg_matrix(objects: usize, repeats: usize) -> ReorgRow {
    let dims = 16;
    let period = 100usize;
    // Early passes run on cold caches; the median over more samples
    // reflects the steady-state maintenance cost.
    let repeats = repeats.max(9);
    let workload =
        UniformWorkload::with_max_length(WorkloadConfig::new(dims, objects, 0x5EED), 0.3);
    let data = workload.generate_objects();
    let mut rng = WorkloadConfig::new(dims, objects, 17).rng();
    let queries: Vec<SpatialQuery> = (0..500)
        .map(|_| SpatialQuery::point_enclosing(workload.sample_point(&mut rng)))
        .collect();

    let config = IndexConfig {
        reorg_period: 0,
        ..paper_platform(dims)
    };
    let mut index = build_ac_with(config, &data);
    for chunk in queries.chunks(period) {
        for q in chunk {
            index.execute(q);
        }
        index.reorganize();
    }
    // Unmeasured warm-up periods first: the pass's working set starts
    // cold after the bulk adaptation.
    let mut samples = Vec::with_capacity(repeats);
    let mut counters = [0u64; 3];
    let mut k = 0usize;
    for measured in 0..3 + repeats {
        for _ in 0..period {
            k = (k + 1) % queries.len();
            std::hint::black_box(index.execute(&queries[k]).matches.len());
        }
        let started = Instant::now();
        std::hint::black_box(index.reorganize());
        let elapsed = started.elapsed().as_nanos() as f64;
        if measured >= 3 {
            samples.push(elapsed);
            let profile = index.last_reorg_profile();
            counters[0] += profile.evaluated;
            counters[1] += profile.candidate_scans;
            counters[2] += profile.screened_out;
        }
    }
    let passes = samples.len() as u64;
    let profile = index.last_reorg_profile();
    let descent = insert_descent(&mut index, &data, repeats);
    let row = ReorgRow {
        pass: Spread::of(samples),
        clusters: index.cluster_count(),
        evaluated: counters[0] / passes,
        scans: counters[1] / passes,
        screened: counters[2] / passes,
        arena_live_bytes: profile.arena_live_bytes,
        descent,
    };
    println!(
        "reorg   d={dims} n={objects}: {:>10.0} ns/pass  ({} clusters; per pass: {} evaluated, {} scans, {} screened; {} bytes of candidate sets)",
        row.pass.p50, row.clusters, row.evaluated, row.scans, row.screened, row.arena_live_bytes,
    );
    row
}

struct MovingRow {
    /// Nanoseconds of a pass that moved members.
    pass: Spread,
    /// Measured passes that moved members.
    passes: u64,
    splits: u64,
    merges: u64,
    /// Mean [`acx_core::ReorgProfile::objects_moved`] of those passes.
    moved_per_pass: f64,
    /// Their summed time over their summed moved members.
    ns_per_moved: f64,
    descent: DescentRow,
}

/// Sites the moving-pass hotspot visits round-robin: corners of
/// `{0.25, 0.75}^4` two coordinates apart, so no two hotspots overlap.
const MOVING_SITES: [[Scalar; 4]; 8] = [
    [0.25, 0.25, 0.25, 0.25],
    [0.75, 0.75, 0.25, 0.25],
    [0.75, 0.25, 0.75, 0.25],
    [0.25, 0.75, 0.75, 0.25],
    [0.75, 0.25, 0.25, 0.75],
    [0.25, 0.75, 0.25, 0.75],
    [0.25, 0.25, 0.75, 0.75],
    [0.75, 0.75, 0.75, 0.75],
];

/// A window of extent 0.08 placed uniformly inside the hotspot of
/// extent 0.3 around `site`.
fn hotspot_window(rng: &mut StdRng, site: &[Scalar]) -> SpatialQuery {
    let (extent, window) = (0.3, 0.08);
    let slack = (extent - window) * 0.5;
    let lo: Vec<Scalar> = site
        .iter()
        .map(|c| c + rng.gen_range(-slack..=slack) - window * 0.5)
        .collect();
    let hi: Vec<Scalar> = lo.iter().map(|l| l + window).collect();
    SpatialQuery::intersection(HyperRect::from_bounds(&lo, &hi).expect("inside the domain"))
}

/// Objects of the moving-pass stream, whatever `--index-objects` says:
/// the measured prices cluster only from a few thousand objects up.
const MOVING_OBJECTS: usize = 20_000;

/// Passes that move members, on the default configuration
/// (`IndexConfig::memory`, the measured prices): 4-d objects in
/// thousands of small clumps and a hotspot of intersection windows that
/// jumps round-robin among eight sites every two periods, so the
/// clustering never settles — passes split clusters out at the new site
/// and merge them back at the old one. Auto-reorganization is off and
/// one explicit pass runs every `period` events; after two warm-up
/// rounds of the sites, the passes that moved members are timed.
fn moving_pass(repeats: usize) -> MovingRow {
    let (dims, objects) = (4, MOVING_OBJECTS);
    let (period, shift_every) = (100usize, 200usize);
    let site_round = MOVING_SITES.len() * shift_every;
    let population =
        ClusteredObjects::new(WorkloadConfig::new(dims, objects, 0x5EED), 4096, 0.05, 0.2);
    let data = population.generate_objects();
    let mut rng = WorkloadConfig::new(dims, objects, 17).rng();
    let measured_rounds = repeats.max(9).div_ceil(4);
    let events: Vec<SpatialQuery> = (0..(2 + measured_rounds) * site_round)
        .map(|k| {
            let site = &MOVING_SITES[(k / shift_every) % MOVING_SITES.len()];
            hotspot_window(&mut rng, site)
        })
        .collect();

    let config = IndexConfig {
        reorg_period: 0,
        ..IndexConfig::memory(dims)
    };
    let mut index = build_ac_with(config, &data);
    let (mut samples, mut moved) = (Vec::new(), Vec::new());
    for (k, chunk) in events.chunks(period).enumerate() {
        for q in chunk {
            std::hint::black_box(index.execute(q).matches.len());
        }
        let started = Instant::now();
        let report = std::hint::black_box(index.reorganize());
        let elapsed = started.elapsed().as_nanos() as f64;
        let profile = index.last_reorg_profile();
        if k * period >= 2 * site_round && profile.objects_moved > 0 {
            samples.push(elapsed);
            moved.push((profile.objects_moved, report.splits, report.merges));
        }
    }
    assert!(!samples.is_empty(), "the hotspot stream moved no member");
    let total_ns: f64 = samples.iter().sum();
    let total_moved: u64 = moved.iter().map(|m| m.0).sum();
    let passes = samples.len() as u64;
    let descent = insert_descent(&mut index, &data, repeats);
    let row = MovingRow {
        pass: Spread::of(samples),
        passes,
        splits: moved.iter().map(|m| m.1).sum(),
        merges: moved.iter().map(|m| m.2).sum(),
        moved_per_pass: total_moved as f64 / passes as f64,
        ns_per_moved: total_ns / total_moved as f64,
        descent,
    };
    println!(
        "moving  d={dims} n={objects}: {:>10.0} ns/pass  ({} moving passes, {} splits, {} merges; {:.1} moved/pass, {:.1} ns/moved member)",
        row.pass.p50, row.passes, row.splits, row.merges, row.moved_per_pass, row.ns_per_moved
    );
    row
}

/// First line of a command's output, or `"unknown"` — the provenance
/// stamps of the calibration object.
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host's CPU model (`/proc/cpuinfo`), or `"unknown"`.
fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|name| name.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A measured term may be this many times what the committed constants
/// make it, or that fraction of it, before the run fails.
const CALIBRATION_TOLERANCE: f64 = 10.0;

/// Prints the measured terms, appends the `calibration` object to
/// `json` and returns the terms out of [`CALIBRATION_TOLERANCE`].
fn report_calibration(
    terms: &CostTerms,
    objects: usize,
    rounds: usize,
    json: &mut String,
) -> Vec<String> {
    json.push_str("  \"calibration\": {\n");
    let _ = writeln!(
        json,
        "    \"command\": \"scan_bench --cost-terms\", \"objects\": {objects}, \"rounds\": {rounds}, \"host_cores\": {}, \"commit\": \"{}\", \"rustc\": \"{}\",",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        first_line_of("git", &["rev-parse", "HEAD"]),
        first_line_of("rustc", &["--version"]),
    );
    json.push_str("    \"per_dims\": [\n");
    for (i, t) in terms.per_dims.iter().enumerate() {
        println!(
            "terms   d={:>2} ({:>4} clusters): A {:>6.1} ns/check  B {:>7.1} ns/exploration (recording {:>6.1})  C {:.4} ns/byte  M {:>7.1} ns/object",
            t.dims,
            t.clusters,
            t.signature_check_ns,
            t.exploration_ns,
            t.recording_ns,
            t.verify_ns_per_byte,
            t.move_ns_per_object,
        );
        let _ = write!(
            json,
            "      {{\"dims\": {}, \"clusters\": {}, \"signature_check_ns\": {:.2}, \"exploration_ns\": {:.1}, \"recording_ns\": {:.1}, \"verify_ns_per_byte\": {:.4}, \"move_ns_per_object\": {:.1}}}",
            t.dims,
            t.clusters,
            t.signature_check_ns,
            t.exploration_ns,
            t.recording_ns,
            t.verify_ns_per_byte,
            t.move_ns_per_object,
        );
        json.push_str(if i + 1 == terms.per_dims.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    json.push_str("    ],\n    \"terms\": {\n");
    let rows = terms.against_committed();
    for (i, (name, measured, committed)) in rows.iter().enumerate() {
        println!(
            "terms   {name:<24} measured {measured:>9.4}  committed {committed:>9.4}  ratio {:>5.2}",
            measured / committed
        );
        let _ = write!(
            json,
            "      \"{name}\": {{\"measured\": {measured:.4}, \"committed\": {committed:.4}}}"
        );
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("    }\n  },\n");
    terms.out_of_tolerance(CALIBRATION_TOLERANCE)
}

fn main() {
    let flags = Flags::from_env();
    let quick = flags.has("quick");
    let out: String = flags.get("out", "BENCH_scan.json".to_string());
    let cand_out: String = flags.get("cand-out", "BENCH_candidates.json".to_string());
    let reorg_out: String = flags.get("reorg-out", "BENCH_reorg.json".to_string());

    let (sizes, repeats, default_index_objects): (Vec<usize>, usize, usize) = if quick {
        (vec![1_000, 4_000], 3, 2_000)
    } else {
        (vec![1_000, 10_000, 100_000], 7, 10_000)
    };
    // Overrides for the index-level sections (adapted-index, recorded
    // execute, reorganization) without changing the kernel matrix.
    let index_objects: usize = flags.get("index-objects", default_index_objects);
    let repeats: usize = flags.get("repeats", repeats);
    let cost_terms = flags.has("cost-terms");
    flags.finish();
    // Stamped before this run writes any snapshot: `-dirty` means the
    // measured tree differed from the commit named.
    let commit = first_line_of("git", &["describe", "--always", "--dirty", "--abbrev=40"]);
    let dims_list = [2usize, 4, 8];
    let cand_configs: &[(usize, u8)] = if quick {
        &[(16, 4), (16, 12)]
    } else {
        // (4,2)/(16,2) are the small sets (12 and 48 candidates) where
        // the kernel's fixed costs show; the rest sweep f²·Nd past 1k.
        &[
            (4, 2),
            (16, 2),
            (8, 4),
            (16, 4),
            (16, 8),
            (16, 12),
            (32, 12),
        ]
    };

    println!("== scan kernel snapshot (single thread) ==");
    let kernel = kernel_matrix(&sizes, &dims_list, repeats);
    let order = block_order(quick, repeats);
    // The candidate and member rows are cheap: their spread comes from
    // at least five runs, since one run's median drifts more than a
    // change moves it.
    let runs = repeats.max(5);
    let cands = candidate_matrix(cand_configs, repeats, runs);
    let periods = candidate_periods(&[(8, 4), (16, 4)], repeats, runs);
    let member_rows = member_passes(&[4, 8, 16], MEMBER_PASS_MEMBERS, repeats, runs);
    let index = index_point_enclosing(index_objects, repeats);
    let recorded = recorded_execute(index_objects, repeats);
    let reorg = reorg_matrix(index_objects, repeats);
    let moving = moving_pass(repeats);

    // Hand-rolled JSON: the workspace is offline, no serde available.
    let provenance = format!(
        "  \"commit\": \"{}\", \"rustc\": \"{}\", \"host_cores\": {}, \"host_cpu\": \"{}\",",
        commit,
        first_line_of("rustc", &["--version"]),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        host_cpu(),
    );
    let mut json = String::from("{\n  \"bench\": \"scan_kernel\",\n");
    let _ = writeln!(json, "{provenance}");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let mut uncalibrated = Vec::new();
    if cost_terms {
        let (objects, rounds) = if quick { (4_000, 3) } else { (20_000, 9) };
        let terms = cost_terms::measure(objects, rounds);
        uncalibrated = report_calibration(&terms, objects, rounds, &mut json);
    }
    json.push_str("  \"kernel_point_enclosing\": [\n");
    for (i, r) in kernel.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"dims\": {}, \"objects\": {}, \"columnar_ns_per_query\": {:.0}, \"scalar_ns_per_query\": {:.0}, \"speedup\": {:.3}}}",
            r.dims,
            r.objects,
            r.columnar_ns,
            r.scalar_ns,
            r.scalar_ns / r.columnar_ns
        );
        json.push_str(if i + 1 == kernel.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n  \"block_order\": [\n");
    for (i, r) in order.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"objects\": {}, \"arrival\": {{\"pass_words_per_block\": {:.2}, \"ns_per_object\": {:.3}}}, \"key_order\": {{\"pass_words_per_block\": {:.2}, \"ns_per_object\": {:.3}}}}}",
            r.workload, r.objects, r.arrival.0, r.arrival.1, r.key_order.0, r.key_order.1
        );
        json.push_str(if i + 1 == order.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n  \"index_point_enclosing_16d\": {\n");
    let _ = writeln!(json, "    \"objects\": {index_objects},");
    let _ = writeln!(json, "    \"ns_per_query\": {index:.0}");
    json.push_str("  },\n  \"recorded_execute_16d\": {\n");
    let _ = writeln!(json, "    \"objects\": {index_objects},");
    let _ = writeln!(
        json,
        "    \"recorded_ns_per_query\": {:.0}, \"execute_ns_per_query\": {:.0},",
        recorded.recorded_ns, recorded.execute_ns
    );
    // Measured at commit 63cb979 (PR 3) on this container with the same
    // harness (256 point-enclosing queries, warmed index, min-of-9):
    // the cross-PR acceptance reference for recorded execution.
    json.push_str(
        "    \"pr3_reference\": {\"commit\": \"63cb979\", \
         \"n2000\": {\"recorded_ns_per_query\": 8199, \"execute_ns_per_query\": 34915}, \
         \"n10000\": {\"recorded_ns_per_query\": 13540, \"execute_ns_per_query\": 130534}}\n",
    );
    json.push_str("  }\n}\n");
    std::fs::write(&out, &json).expect("write benchmark snapshot");
    println!("wrote {out}");

    let mut json = String::from("{\n  \"bench\": \"candidate_kernel\",\n");
    let _ = writeln!(json, "{provenance}");
    let _ = writeln!(json, "  \"quick\": {quick},");
    json.push_str(
        "  \"measures\": \"candidate_matching: one query counted into a u32 counter per candidate; \
         noted = one CandidateSet::note_query (2f comparisons and one cut-point cell per dimension) \
         plus one CandidateSet::expand, scalar = matches_query + saturating bump per candidate. \
         period: a cluster explored k times per period, ns per query; \
         noted = k x CandidateSet::note_query plus one CandidateSet::expand. \
         member_count: ns per member of one CandidateSet::count_members (f = 4) and of one \
         Signature::first_rejected that rejects no member, on the portable body and on the tier \
         the CPU dispatches to. Every timing is the median (_ns) and quartiles (_p25_ns, _p75_ns) \
         of the runs, each run the median of the repeats. \
         Layer numbers only: they claim nothing end to end\",\n",
    );
    let _ = writeln!(json, "  \"runs\": {runs}, \"repeats\": {repeats},");
    json.push_str("  \"candidate_matching\": [\n");
    for (i, r) in cands.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"dims\": {}, \"division_factor\": {}, \"candidates\": {}, {}, {}, \"speedup\": {:.3}}}",
            r.dims,
            r.division_factor,
            r.candidates,
            r.noted.json("noted_per_query"),
            r.scalar.json("scalar_per_query"),
            r.scalar.p50 / r.noted.p50,
        );
        json.push_str(if i + 1 == cands.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n  \"period\": [\n");
    for (i, r) in periods.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"dims\": {}, \"division_factor\": {}, \"candidates\": {}, \"explored_per_period\": {}, {}}}",
            r.dims,
            r.division_factor,
            r.candidates,
            r.explored,
            r.noted.json("noted_per_query"),
        );
        json.push_str(if i + 1 == periods.len() { "\n" } else { ",\n" });
    }
    let _ = writeln!(
        json,
        "  ],\n  \"member_count\": {{\"members\": {MEMBER_PASS_MEMBERS}, \"division_factor\": 4, \"dispatched_tier\": \"{}\", \"rows\": [",
        format!("{:?}", Tier::best()).to_lowercase()
    );
    for (i, r) in member_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"dims\": {}, \"candidates\": {}, \"count_members\": {{{}, {}}}, \"first_rejected\": {{{}, {}}}}}",
            r.dims,
            r.candidates,
            r.count.0.json_to("portable_per_member", 3),
            r.count.1.json_to("dispatched_per_member", 3),
            r.reject.0.json_to("portable_per_member", 3),
            r.reject.1.json_to("dispatched_per_member", 3),
        );
        json.push_str(if i + 1 == member_rows.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    json.push_str("  ]}\n}\n");
    std::fs::write(&cand_out, &json).expect("write candidate snapshot");
    println!("wrote {cand_out}");

    let mut json = String::from("{\n  \"bench\": \"reorganize\",\n");
    let _ = writeln!(json, "{provenance}");
    let _ = writeln!(json, "  \"quick\": {quick},");
    json.push_str(
        "  \"measures\": \"per row, the median and the quartiles (p25, p75) of one run's samples. \
         One run's median cannot tell a regression from host drift: ten consecutive runs of one \
         commit on a 2-vCPU x86-64 host read per-period passes of 102-226 us. \
         Compare commits with alternating parent/change pairs, not against this file.\",\n",
    );
    let _ = writeln!(json, "  \"dims\": 16,");
    let _ = writeln!(json, "  \"objects\": {index_objects},");
    let _ = writeln!(json, "  \"reorg_period\": 100,");
    let _ = writeln!(
        json,
        "  \"per_period_pass\": {{{}, \"clusters\": {}, \"evaluated\": {}, \"candidate_scans\": {}, \"screened_out\": {}, \"arena_live_bytes\": {}}},",
        reorg.pass.json("pass"),
        reorg.clusters,
        reorg.evaluated,
        reorg.scans,
        reorg.screened,
        reorg.arena_live_bytes
    );
    json.push_str(
        "  \"moving_pass\": {\"dims\": 4, \"objects\": 20000, \"config\": \"IndexConfig::memory\", \
         \"stream\": \"clustered objects (4096 clumps); \
         a hotspot of 0.08-wide intersection windows jumping round-robin among 8 sites \
         every 200 events; one pass every 100 events\",\n",
    );
    let _ = writeln!(
        json,
        "    {}, \"moving_passes\": {}, \"splits\": {}, \"merges\": {}, \"objects_moved_per_pass\": {:.1}, \"ns_per_moved_member\": {:.1}}},",
        moving.pass.json("pass"), moving.passes, moving.splits, moving.merges, moving.moved_per_pass, moving.ns_per_moved
    );
    let _ = writeln!(
        json,
        "  \"insert_descent\": {{\"objects_per_round\": {DESCENT_OBJECTS}, \"measures\": \"ns per insert of a new object, and per remove + insert of the same object, on each pass row's index after its passes: median and quartiles over the rounds\","
    );
    for (name, row, end) in [
        ("per_period_pass", &reorg.descent, ","),
        ("moving_pass", &moving.descent, "\n  }\n}"),
    ] {
        let _ = writeln!(
            json,
            "    \"{name}\": {{\"clusters\": {}, {}, {}}}{end}",
            row.clusters,
            row.insert.json("insert"),
            row.remove_insert.json("remove_insert")
        );
    }
    std::fs::write(&reorg_out, &json).expect("write reorganization snapshot");
    println!("wrote {reorg_out}");
    if !uncalibrated.is_empty() {
        eprintln!(
            "scan_bench: more than {CALIBRATION_TOLERANCE}x off the constants committed in \
             DeviceProfile::measured:\n  {}",
            uncalibrated.join("\n  ")
        );
        std::process::exit(1);
    }
}
