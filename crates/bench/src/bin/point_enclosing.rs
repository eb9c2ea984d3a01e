//! Experiment E9 (paper §7.2, "Point-Enclosing Queries"): events as
//! points over interval-defining subscriptions. The paper reports AC up
//! to 16× faster than Sequential Scan in memory and up to 4× on disk.
//!
//! Usage:
//! ```text
//! cargo run --release -p acx_bench --bin point_enclosing
//!     [--objects 50000] [--dims 16] [--warmup 600] [--measured 300]
//! ```

use acx_bench::args::Flags;
use acx_bench::{build_ac, build_ss, run_ac, run_baseline};
use acx_geom::SpatialQuery;
use acx_storage::StorageScenario;
use acx_workloads::{SkewedWorkload, UniformWorkload, Workload, WorkloadConfig};

fn main() {
    let flags = Flags::from_env();
    let objects: usize = flags.get("objects", 50_000);
    let dims: usize = flags.get("dims", 16);
    let warmup_n: usize = flags.get("warmup", 600);
    let measured_n: usize = flags.get("measured", 300);
    let seed: u64 = flags.get("seed", 0x5EED);
    flags.finish();

    println!("== Point-enclosing queries: AC speedup over Sequential Scan ==");
    println!("objects={objects} dims={dims}");

    for (name, data) in [
        (
            "uniform",
            UniformWorkload::with_max_length(WorkloadConfig::new(dims, objects, seed), 0.3)
                .generate_objects(),
        ),
        (
            "skewed",
            SkewedWorkload::new(WorkloadConfig::new(dims, objects, seed), 0.3).generate_objects(),
        ),
    ] {
        let workload = UniformWorkload::new(WorkloadConfig::new(dims, objects, seed ^ 0xF00D));
        let mut qrng = WorkloadConfig::new(dims, objects, seed ^ 0xF1E1D).rng();
        let make = |rng: &mut rand::rngs::StdRng, n: usize| -> Vec<SpatialQuery> {
            (0..n)
                .map(|_| SpatialQuery::point_enclosing(workload.sample_point(rng)))
                .collect()
        };
        let warmup = make(&mut qrng, warmup_n);
        let measured = make(&mut qrng, measured_n);

        let ss = build_ss(dims, &data);
        let ss_report = run_baseline("SS", 1, objects, dims, &measured, |q| ss.execute(q));

        let mut ac_mem = build_ac(dims, StorageScenario::Memory, &data);
        let ac_mem_report = run_ac(&mut ac_mem, &warmup, &measured, objects);
        let mut ac_disk = build_ac(dims, StorageScenario::Disk, &data);
        let ac_disk_report = run_ac(&mut ac_disk, &warmup, &measured, objects);

        let mem_speedup = ss_report.priced_memory_ms / ac_mem_report.priced_memory_ms;
        let disk_speedup = ss_report.priced_disk_ms / ac_disk_report.priced_disk_ms;
        let wall_speedup = ss_report.wall_ms / ac_mem_report.wall_ms;

        println!("\n-- {name} workload --");
        println!(
            "SS : mem={:.4} ms  disk={:.1} ms  (wall {:.4} ms)",
            ss_report.priced_memory_ms, ss_report.priced_disk_ms, ss_report.wall_ms
        );
        println!(
            "AC : mem={:.4} ms  disk={:.1} ms  (wall {:.4} ms; {} / {} clusters mem/disk)",
            ac_mem_report.priced_memory_ms,
            ac_disk_report.priced_disk_ms,
            ac_mem_report.wall_ms,
            ac_mem_report.total_units,
            ac_disk_report.total_units
        );
        println!(
            "speedup: memory {mem_speedup:.1}x (wall {wall_speedup:.1}x), disk {disk_speedup:.1}x"
        );
        println!(
            "AC verified {:.1}% of objects vs SS 100% (paper: up to 16x mem, 4x disk)",
            ac_mem_report.verified_fraction * 100.0
        );
    }
}
