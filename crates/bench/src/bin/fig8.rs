//! Experiment E5–E8 (paper Fig. 8, charts A/B and data-access tables):
//! skewed workload (a random quarter of dimensions twice as selective per
//! object), dimensionality swept 16→40, average query selectivity 0.05 %,
//! both storage scenarios.
//!
//! Usage:
//! ```text
//! cargo run --release -p acx_bench --bin fig8 [--objects 30000]
//!     [--warmup 600] [--measured 200] [--seed 24029] [--full]
//! ```

use acx_bench::args::Flags;
use acx_bench::{build_ac, build_rs, build_ss, run_ac, run_baseline, MethodReport};
use acx_geom::SpatialQuery;
use acx_storage::StorageScenario;
use acx_workloads::{calibrate, SkewedWorkload, WorkloadConfig};

fn main() {
    let flags = Flags::from_env();
    let objects: usize = if flags.has("full") {
        1_000_000
    } else {
        flags.get("objects", 30_000)
    };
    let warmup_n: usize = flags.get("warmup", 600);
    let measured_n: usize = flags.get("measured", 200);
    let seed: u64 = flags.get("seed", 0x5EED);
    flags.finish();
    let target_selectivity = 5e-4; // 0.05 % (paper §7.2)
    let dims_list = [16usize, 20, 24, 28, 32, 36, 40];

    println!("== Fig. 8: skewed workload, varying space dimensionality ==");
    println!("objects={objects} selectivity=0.05% warmup={warmup_n} measured={measured_n}");

    let mut rows: Vec<(
        usize,
        MethodReport,
        MethodReport,
        MethodReport,
        MethodReport,
    )> = Vec::new();

    for &dims in &dims_list {
        eprintln!("dims={dims}: calibrating base object length …");
        let base = calibrate::skewed_base_length(dims, target_selectivity, seed ^ dims as u64);
        let workload = SkewedWorkload::new(WorkloadConfig::new(dims, objects, seed), base);
        let data = workload.generate_objects();

        let mut qrng = WorkloadConfig::new(dims, objects, seed ^ 0xF1E1D).rng();
        let make = |rng: &mut rand::rngs::StdRng, n: usize| -> Vec<SpatialQuery> {
            (0..n)
                .map(|_| SpatialQuery::intersection(workload.sample_unconstrained_window(rng)))
                .collect()
        };
        let warmup = make(&mut qrng, warmup_n);
        let measured = make(&mut qrng, measured_n);

        eprintln!("dims={dims}: building R*-tree …");
        let rs = build_rs(dims, &data);
        let ss = build_ss(dims, &data);

        eprintln!("dims={dims}: adaptive clustering (memory) …");
        let mut ac_mem = build_ac(dims, StorageScenario::Memory, &data);
        let ac_mem_report = run_ac(&mut ac_mem, &warmup, &measured, objects);

        eprintln!("dims={dims}: adaptive clustering (disk) …");
        let mut ac_disk = build_ac(dims, StorageScenario::Disk, &data);
        let ac_disk_report = run_ac(&mut ac_disk, &warmup, &measured, objects);

        let rs_report = run_baseline("RS", rs.node_count(), objects, dims, &measured, |q| {
            rs.execute(q)
        });
        let ss_report = run_baseline("SS", 1, objects, dims, &measured, |q| ss.execute(q));
        eprintln!(
            "dims={dims}: base={base:.3} measured-selectivity={:.2e} AC(mem)={} AC(disk)={} RS={}",
            ac_mem_report.avg_matches / objects as f64,
            ac_mem_report.total_units,
            ac_disk_report.total_units,
            rs_report.total_units
        );
        rows.push((dims, ss_report, rs_report, ac_mem_report, ac_disk_report));
    }

    println!("\n-- Chart A: memory scenario, avg query time [ms] (priced | wall) --");
    println!(
        "{:>6} {:>22} {:>22} {:>22}",
        "dims", "Scan (SS)", "R*-tree (RS)", "Adaptive (AC)"
    );
    for (dims, ss, rs, ac, _) in &rows {
        println!(
            "{:>6} {:>12.4} |{:>8.4} {:>12.4} |{:>8.4} {:>12.4} |{:>8.4}",
            dims,
            ss.priced_memory_ms,
            ss.wall_ms,
            rs.priced_memory_ms,
            rs.wall_ms,
            ac.priced_memory_ms,
            ac.wall_ms
        );
    }

    println!("\n-- Fig. 8 Table 1: memory scenario data access --");
    println!(
        "{:>6} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "dims", "AC clstrs", "RS nodes", "AC expl%", "RS expl%", "AC objs%", "RS objs%"
    );
    for (dims, _, rs, ac, _) in &rows {
        println!(
            "{:>6} {:>10} {:>10} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            dims,
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
        "{:>6} {:>14} {:>14} {:>14}",
        "dims", "Scan (SS)", "R*-tree (RS)", "Adaptive (AC)"
    );
    for (dims, ss, rs, _, ac) in &rows {
        println!(
            "{:>6} {:>14.1} {:>14.1} {:>14.1}",
            dims, ss.priced_disk_ms, rs.priced_disk_ms, ac.priced_disk_ms
        );
    }

    println!("\n-- Fig. 8 Table 2: disk scenario data access --");
    println!(
        "{:>6} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "dims", "AC clstrs", "RS nodes", "AC expl%", "RS expl%", "AC objs%", "RS objs%"
    );
    for (dims, _, rs, _, ac) in &rows {
        println!(
            "{:>6} {:>10} {:>10} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            dims,
            ac.total_units,
            rs.total_units,
            ac.explored_fraction * 100.0,
            rs.explored_fraction * 100.0,
            ac.verified_fraction * 100.0,
            rs.verified_fraction * 100.0
        );
    }
}
