//! Experiment E1–E4 (paper Fig. 7, charts A/B and data-access tables):
//! uniform workload, 16 dimensions, intersection queries with selectivity
//! swept from 5e-7 to 5e-1, in-memory and disk storage scenarios.
//!
//! Usage:
//! ```text
//! cargo run --release -p acx_bench --bin fig7 [--objects 50000] [--dims 16]
//!     [--warmup 600] [--measured 200] [--seed 24029] [--full]
//! ```
//! `--full` runs the paper's 2,000,000-object scale.

use acx_bench::args::Flags;
use acx_bench::{build_ac, build_rs, build_ss, run_ac, run_baseline, MethodReport};
use acx_geom::SpatialQuery;
use acx_storage::StorageScenario;
use acx_workloads::{calibrate, UniformWorkload, Workload, WorkloadConfig};

fn main() {
    let flags = Flags::from_env();
    let dims: usize = flags.get("dims", 16);
    let objects: usize = if flags.has("full") {
        2_000_000
    } else {
        flags.get("objects", 50_000)
    };
    let warmup_n: usize = flags.get("warmup", 600);
    let measured_n: usize = flags.get("measured", 200);
    let seed: u64 = flags.get("seed", 0x5EED);
    flags.finish();
    let selectivities = [5e-7, 5e-6, 5e-5, 5e-4, 5e-3, 5e-2, 5e-1];

    println!("== Fig. 7: uniform workload, varying query selectivity ==");
    println!(
        "objects={objects} dims={dims} warmup={warmup_n} measured={measured_n} seed={seed:#x}"
    );

    let workload = UniformWorkload::with_max_length(WorkloadConfig::new(dims, objects, seed), 0.5);
    eprintln!("generating {objects} objects …");
    let data = workload.generate_objects();

    eprintln!("building R*-tree …");
    let rs = build_rs(dims, &data);
    let ss = build_ss(dims, &data);
    eprintln!("R*-tree: {} nodes, height {}", rs.node_count(), rs.height());

    let mut rows_mem: Vec<(f64, MethodReport, MethodReport, MethodReport)> = Vec::new();
    let mut rows_disk: Vec<(f64, MethodReport)> = Vec::new();

    for &sel in &selectivities {
        let extent = calibrate::uniform_query_extent(&workload, sel, seed ^ 0xC0FFEE);
        let mut qrng = WorkloadConfig::new(dims, objects, seed ^ 0xF1E1D).rng();
        let make = |rng: &mut rand::rngs::StdRng, n: usize| -> Vec<SpatialQuery> {
            (0..n)
                .map(|_| SpatialQuery::intersection(workload.sample_window(rng, extent)))
                .collect()
        };
        let warmup = make(&mut qrng, warmup_n);
        let measured = make(&mut qrng, measured_n);

        eprintln!("selectivity {sel:.0e}: extent {extent:.4} — adaptive clustering (memory) …");
        let mut ac_mem = build_ac(dims, StorageScenario::Memory, &data);
        let ac_mem_report = run_ac(&mut ac_mem, &warmup, &measured, objects);

        eprintln!("selectivity {sel:.0e}: adaptive clustering (disk) …");
        let mut ac_disk = build_ac(dims, StorageScenario::Disk, &data);
        let ac_disk_report = run_ac(&mut ac_disk, &warmup, &measured, objects);

        let rs_report = run_baseline("RS", rs.node_count(), objects, dims, &measured, |q| {
            rs.execute(q)
        });
        let ss_report = run_baseline("SS", 1, objects, dims, &measured, |q| ss.execute(q));

        eprintln!(
            "  AC(mem) clusters={} AC(disk) clusters={} measured-selectivity={:.2e}",
            ac_mem_report.total_units,
            ac_disk_report.total_units,
            ac_mem_report.avg_matches / objects as f64,
        );
        rows_mem.push((sel, ss_report, rs_report, ac_mem_report));
        rows_disk.push((sel, ac_disk_report));
    }

    println!("\n-- Chart A: memory scenario, avg query time [ms] (priced | wall) --");
    println!(
        "{:>12} {:>22} {:>22} {:>22}",
        "selectivity", "Scan (SS)", "R*-tree (RS)", "Adaptive (AC)"
    );
    for (sel, ss, rs, ac) in &rows_mem {
        println!(
            "{:>12.0e} {:>12.4} |{:>8.4} {:>12.4} |{:>8.4} {:>12.4} |{:>8.4}",
            sel,
            ss.priced_memory_ms,
            ss.wall_ms,
            rs.priced_memory_ms,
            rs.wall_ms,
            ac.priced_memory_ms,
            ac.wall_ms
        );
    }

    println!("\n-- Fig. 7 Table 1: memory scenario data access --");
    println!(
        "{:>12} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "selectivity", "AC clstrs", "RS nodes", "AC expl%", "RS expl%", "AC objs%", "RS objs%"
    );
    for (sel, _, rs, ac) in &rows_mem {
        println!(
            "{:>12.0e} {:>10} {:>10} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            sel,
            ac.total_units,
            rs.total_units,
            ac.explored_fraction * 100.0,
            rs.explored_fraction * 100.0,
            ac.verified_fraction * 100.0,
            rs.verified_fraction * 100.0
        );
    }

    println!("\n-- Chart B: disk scenario, avg simulated query time [ms] --");
    println!(
        "{:>12} {:>14} {:>14} {:>14}",
        "selectivity", "Scan (SS)", "R*-tree (RS)", "Adaptive (AC)"
    );
    for ((sel, ss, rs, _), (_, ac_disk)) in rows_mem.iter().zip(&rows_disk) {
        println!(
            "{:>12.0e} {:>14.1} {:>14.1} {:>14.1}",
            sel, ss.priced_disk_ms, rs.priced_disk_ms, ac_disk.priced_disk_ms
        );
    }

    println!("\n-- Fig. 7 Table 2: disk scenario data access --");
    println!(
        "{:>12} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "selectivity", "AC clstrs", "RS nodes", "AC expl%", "RS expl%", "AC objs%", "RS objs%"
    );
    for ((sel, _, rs, _), (_, ac)) in rows_mem.iter().zip(&rows_disk) {
        println!(
            "{:>12.0e} {:>10} {:>10} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            sel,
            ac.total_units,
            rs.total_units,
            ac.explored_fraction * 100.0,
            rs.explored_fraction * 100.0,
            ac.verified_fraction * 100.0,
            rs.verified_fraction * 100.0
        );
    }
}
