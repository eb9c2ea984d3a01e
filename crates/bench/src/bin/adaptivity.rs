//! Experiment E12 (paper §1/§8): the cost-based clustering adapts to
//! query distributions that **vary in time**. The scenario-zoo edition:
//! every [`acx_bench::adaptivity::SCENARIOS`] stream — drifting,
//! periodic, bursty, adversarial, mixed-kind, and clustered-population
//! — is driven through the production index and the reference
//! ([`acx_core::IndexConfig::reference`]), and the harness reports *time-to-readapt* after each scenario's abrupt
//! shift, wall-clock p50/p99 during the recovery churn, and the
//! split→merge thrash counters. A before/after hysteresis pair on the
//! oscillating adversary shows what the
//! [`acx_core::IndexConfig::merge_cooldown`] toggle buys.
//!
//! Results are recorded to `BENCH_adaptivity.json` (committed, like the
//! other `BENCH_*.json` snapshots).
//!
//! Usage:
//! ```text
//! cargo run --release -p acx_bench --bin adaptivity
//!     [--quick] [--out BENCH_adaptivity.json] [--scenario NAME]
//!     [--objects 20000] [--dims 8] [--warmup 3000] [--post 3000]
//!     [--band 1.25] [--merge-cooldown 0] [--hysteresis-cooldown 8]
//! ```
//! `--scenario` restricts the zoo sweep to one scenario;
//! `--merge-cooldown` applies to the zoo rows, while the dedicated
//! hysteresis section always compares cool-down off vs
//! `--hysteresis-cooldown` on the oscillating adversary.

use std::fmt::Write as _;

use acx_bench::adaptivity::{
    make_objects, make_scenario, measure_readapt, AdaptivityParams, AdaptivityRow, SCENARIOS,
};
use acx_bench::args::Flags;
use acx_bench::{ac_config, strategies};
use acx_storage::StorageScenario;
use acx_workloads::WorkloadConfig;

fn print_row(r: &AdaptivityRow) {
    let readapt = match r.readapt_queries {
        Some(q) => format!("{q:>5}q/{:>2}p", r.readapt_periods.unwrap_or(0)),
        None => "   never".to_string(),
    };
    println!(
        "{:>20} [{:>11}] cd={}: steady {:>7.4} -> shifted {:>7.4} ms/q  readapt {readapt}  \
         p50 {:>7.4} p99 {:>7.4} ms  thrash {:>2} blocked {:>2}  {:>3} merges {:>3} splits {:>3} clusters",
        r.scenario,
        r.mode,
        r.merge_cooldown,
        r.steady_ms,
        r.post_shift_ms,
        r.p50_wall_ms,
        r.p99_wall_ms,
        r.thrash_cycles,
        r.cooldown_blocked,
        r.merges,
        r.splits,
        r.clusters,
    );
    println!(
        "{:>20}   arena: {} live / {} capacity bytes, {} compactions",
        "", r.arena_live_bytes, r.arena_capacity_bytes, r.compactions,
    );
}

fn json_row(json: &mut String, r: &AdaptivityRow, last: bool) {
    let readapt_q = r
        .readapt_queries
        .map_or("null".to_string(), |q| q.to_string());
    let readapt_p = r
        .readapt_periods
        .map_or("null".to_string(), |p| p.to_string());
    let _ = write!(
        json,
        "    {{\"scenario\": \"{}\", \"mode\": \"{}\", \"merge_cooldown\": {}, \
         \"steady_ms\": {:.5}, \"post_shift_ms\": {:.5}, \"readapt_queries\": {readapt_q}, \
         \"readapt_periods\": {readapt_p}, \"p50_wall_ms\": {:.5}, \"p99_wall_ms\": {:.5}, \
         \"thrash_cycles\": {}, \"cooldown_blocked\": {}, \"merges\": {}, \"splits\": {}, \
         \"clusters\": {}, \"arena_live_bytes\": {}, \"arena_capacity_bytes\": {}, \
         \"compactions\": {}}}",
        r.scenario,
        r.mode,
        r.merge_cooldown,
        r.steady_ms,
        r.post_shift_ms,
        r.p50_wall_ms,
        r.p99_wall_ms,
        r.thrash_cycles,
        r.cooldown_blocked,
        r.merges,
        r.splits,
        r.clusters,
        r.arena_live_bytes,
        r.arena_capacity_bytes,
        r.compactions,
    );
    json.push_str(if last { "\n" } else { ",\n" });
}

fn main() {
    let flags = Flags::from_env();
    let quick = flags.has("quick");
    let out: String = flags.get("out", "BENCH_adaptivity.json".to_string());
    let only: String = flags.get("scenario", String::new());
    let base_params = if quick {
        AdaptivityParams::quick()
    } else {
        AdaptivityParams::standard()
    };
    let params = AdaptivityParams {
        objects: flags.get("objects", base_params.objects),
        dims: flags.get("dims", base_params.dims),
        warmup_queries: flags.get("warmup", base_params.warmup_queries),
        post_queries: flags.get("post", base_params.post_queries),
        band: flags.get("band", base_params.band),
        seed: flags.get("seed", base_params.seed),
    };
    let zoo_cooldown = flags.merge_cooldown();
    let hysteresis_cooldown: u64 = flags.get("hysteresis-cooldown", 8);
    flags.finish();

    println!("== Adaptivity across the scenario zoo ==");
    println!(
        "objects={} dims={} warmup={} post={} band={} reorg_period=100 profile=edbt2004",
        params.objects, params.dims, params.warmup_queries, params.post_queries, params.band
    );
    println!(
        "(the paper's platform, `ac_config`: it is Table 2 that clusters a few thousand \
         objects, and re-adaptation wants clusters to re-adapt)"
    );

    // Objects and queries derive from distinct seeds so the two streams
    // are uncorrelated even though both generators hash the same config.
    let obj_cfg = |p: &AdaptivityParams| WorkloadConfig::new(p.dims, p.objects, p.seed);
    let qry_cfg =
        |p: &AdaptivityParams| WorkloadConfig::new(p.dims, p.objects, p.seed ^ 0xF1E1D);

    let mut zoo: Vec<AdaptivityRow> = Vec::new();
    for name in SCENARIOS {
        if !only.is_empty() && only != name {
            continue;
        }
        let data = make_objects(name, &obj_cfg(&params));
        for (mode, mut config) in strategies(params.dims) {
            config.merge_cooldown = zoo_cooldown;
            let mut scenario = make_scenario(name, &qry_cfg(&params));
            let row = measure_readapt(
                name.to_string(),
                mode,
                scenario.as_mut(),
                config,
                &data,
                &params,
            );
            print_row(&row);
            zoo.push(row);
        }
    }

    // Hysteresis before/after on the adversary: same stream, cool-down
    // off vs on, production path (decision-identity with the reference
    // is asserted by the equivalence tests, cool-down included).
    let mut hysteresis: Vec<AdaptivityRow> = Vec::new();
    if only.is_empty() || only == "oscillating_heat" {
        println!("-- hysteresis on the oscillating adversary --");
        let data = make_objects("oscillating_heat", &obj_cfg(&params));
        for cooldown in [0, hysteresis_cooldown] {
            let mut config =
                ac_config(params.dims, StorageScenario::Memory);
            config.merge_cooldown = cooldown;
            let mut scenario = make_scenario("oscillating_heat", &qry_cfg(&params));
            let row = measure_readapt(
                "oscillating_heat".to_string(),
                "production",
                scenario.as_mut(),
                config,
                &data,
                &params,
            );
            print_row(&row);
            hysteresis.push(row);
        }
    }

    // Hand-rolled JSON: the workspace is offline, no serde available.
    let mut json = String::from("{\n  \"bench\": \"adaptivity\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    json.push_str("  \"profile\": \"edbt2004\",\n");
    let _ = writeln!(
        json,
        "  \"objects\": {}, \"dims\": {}, \"warmup_queries\": {}, \"post_shift_queries\": {},",
        params.objects, params.dims, params.warmup_queries, params.post_queries
    );
    let _ = writeln!(
        json,
        "  \"readapt_band\": {}, \"reorg_period\": 100,",
        params.band
    );
    json.push_str("  \"scenarios\": [\n");
    for (i, r) in zoo.iter().enumerate() {
        json_row(&mut json, r, i + 1 == zoo.len());
    }
    json.push_str("  ],\n  \"hysteresis_oscillating_heat\": [\n");
    for (i, r) in hysteresis.iter().enumerate() {
        json_row(&mut json, r, i + 1 == hysteresis.len());
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write adaptivity snapshot");
    println!("wrote {out}");

    println!(
        "\nAfter each shift the cost spikes from 'steady' and the clustering\n\
         re-converges within the reported readapt window; merges reclaim\n\
         clusters built for abandoned regions (paper §8: \"cope with\n\
         workloads that are skewed and varying in time\")."
    );
}
