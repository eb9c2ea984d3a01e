//! The names every later change uses: each metric's unit and direction,
//! the bound an end-to-end metric may worsen by, and for each per-layer
//! metric its layer and the end-to-end metric (and workload) it is
//! expected to move. `BENCHMARK.json` repeats the names, units,
//! directions and bounds; a test keeps the two in step.

use crate::json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metric this one should move, and the workload where
    /// it is the largest share (`-` where it is context, not a lever).
    pub moves: &'static str,
    pub on: &'static str,
    /// A count of the solo phase that repeats exactly for a seed.
    pub exact: bool,
}

impl PerLayer {
    /// The layer is the crate the metric is measured at, and the prefix
    /// of its name.
    pub fn layer(&self) -> &'static str {
        self.name
            .split('.')
            .next()
            .expect("split yields at least one part")
    }
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the system sees. Every workload reports all of them.
/// Every time is in reference units (`yardstick`), and every metric is
/// the median over the run's epochs, blocks or repetitions of one
/// statistic of each (README.md).
///
/// The bounds are all the widest allowed. Between runs of one seed the
/// metrics hold within 0.02 to 0.08 (quartile spread over ten runs),
/// between seeds within 0.03 to 0.15; but the reference host has hours
/// in which some of them move by more, and a bound narrower than the
/// instrument's own worst spread would call noise a regression.
pub const END_TO_END: &[EndToEnd] = &[
    // Phase 1, the median of the run's set-ups.
    e2e("setup_s", "s", Lower, 0.25),
    // Operations per epoch over the call time of the median solo epoch.
    e2e("solo_ops_per_s", "1/s", Higher, 0.25),
    // Median and p99.5 `execute` call of an epoch. One call in a
    // hundred carries a reorganization pass, so p99 sits on the edge of
    // two populations; p99.5 is the pass-bearing call of an epoch of
    // 100 events (the median one of an epoch of 1 600).
    e2e("solo_event_p50_us", "us", Lower, 0.25),
    e2e("solo_event_p995_us", "us", Lower, 0.25),
    // Median `SeqScan::execute_with` call on the same events: the
    // paper's fallback and a shipped path. Its ratio to the index is a
    // per-layer number, so a faster kernel is never scored as a loss.
    e2e("seqscan_event_p50_us", "us", Lower, 0.25),
    // Operations per epoch over the median serve-closed epoch (blocking
    // `submit`, then `flush`). The latencies of the serve-open phase are
    // per-layer metrics (`serve.event_p50_us`, `serve.event_p99_us`):
    // how long a sleeping shard worker takes to wake on the reference
    // host changes from hour to hour (one seed's median latency on
    // `hotspot_drift` read 44 us in one session and 94 us in another,
    // within 0.07 inside each), which no bound allowed here covers.
    e2e("serve_ops_per_s", "1/s", Higher, 0.25),
    // Mean of the median `insert`, `remove` and `update` call of a
    // block of the mutation stream.
    e2e("mutation_p50_us", "us", Lower, 0.25),
    // Files to a serving index, the median of the run's restarts.
    e2e("recover_s", "s", Lower, 0.25),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
        exact: false,
    }
}

/// A solo-phase count: identical between two runs of one seed.
const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
        exact: true,
    }
}

/// Single layers, from the traced run. No bounds.
pub const PER_LAYER: &[PerLayer] = &[
    // acx_geom: the bare kernel over all live objects as one segment.
    layer(
        "geom.scan_ns_per_object",
        "ns",
        Lower,
        "seqscan_event_p50_us",
        "uniform_range",
    ),
    count(
        "geom.scan_dims_per_object",
        "count",
        Lower,
        "seqscan_event_p50_us",
        "uniform_range",
    ),
    // acx_baselines: the paper's claim is that this is at least 1.
    layer(
        "baselines.speedup_vs_seqscan",
        "ratio",
        Higher,
        "solo_event_p50_us",
        "uniform_range",
    ),
    // acx_core, time.
    layer(
        "core.explore_ns_per_event",
        "ns",
        Lower,
        "solo_event_p50_us",
        "uniform_range",
    ),
    layer(
        "core.record_ns_per_event",
        "ns",
        Lower,
        "solo_event_p50_us",
        "uniform_range",
    ),
    layer(
        "core.apply_ns_per_event",
        "ns",
        Lower,
        "solo_event_p50_us",
        "pubsub_steady",
    ),
    layer(
        "core.execute_residual_ns_per_event",
        "ns",
        Lower,
        "solo_ops_per_s",
        "pubsub_steady",
    ),
    layer(
        "core.reorg_ns_per_event",
        "ns",
        Lower,
        "solo_ops_per_s",
        "hotspot_drift",
    ),
    layer(
        "core.reorg_pass_p50_us",
        "us",
        Lower,
        "solo_event_p995_us",
        "hotspot_drift",
    ),
    layer(
        "core.reorg_pass_max_us",
        "us",
        Lower,
        "solo_event_p995_us",
        "hotspot_drift",
    ),
    layer(
        "core.insert_p50_us",
        "us",
        Lower,
        "mutation_p50_us",
        "churn_wal",
    ),
    layer(
        "core.remove_p50_us",
        "us",
        Lower,
        "mutation_p50_us",
        "churn_wal",
    ),
    layer(
        "core.update_p50_us",
        "us",
        Lower,
        "mutation_p50_us",
        "churn_wal",
    ),
    // acx_core, work done and wasted.
    count("core.matches_per_event", "count", Higher, "-", "-"),
    count(
        "core.signature_checks_per_event",
        "count",
        Lower,
        "solo_event_p50_us",
        "uniform_range",
    ),
    count(
        "core.clusters_explored_per_event",
        "count",
        Lower,
        "solo_event_p50_us",
        "uniform_range",
    ),
    count(
        "core.verified_fraction",
        "ratio",
        Lower,
        "solo_event_p50_us",
        "uniform_range",
    ),
    count(
        "core.verified_bytes_per_event",
        "B",
        Lower,
        "solo_event_p50_us",
        "uniform_range",
    ),
    count(
        "core.verify_hit_ratio",
        "ratio",
        Higher,
        "solo_event_p50_us",
        "uniform_range",
    ),
    count("core.clusters_final", "count", Lower, "-", "-"),
    count(
        "core.reorg_passes",
        "count",
        Lower,
        "solo_ops_per_s",
        "hotspot_drift",
    ),
    count(
        "core.splits",
        "count",
        Lower,
        "solo_ops_per_s",
        "hotspot_drift",
    ),
    count(
        "core.merges",
        "count",
        Lower,
        "solo_ops_per_s",
        "hotspot_drift",
    ),
    count(
        "core.thrash_cycles",
        "count",
        Lower,
        "solo_ops_per_s",
        "hotspot_drift",
    ),
    count(
        "core.candidate_scans_per_pass",
        "count",
        Lower,
        "solo_event_p995_us",
        "hotspot_drift",
    ),
    count(
        "core.screened_out_per_pass",
        "count",
        Higher,
        "solo_event_p995_us",
        "hotspot_drift",
    ),
    count("core.arena_live_bytes", "B", Lower, "-", "-"),
    count("core.priced_ms_per_event", "ms", Lower, "-", "-"),
    layer("core.model_over_measured", "ratio", Lower, "-", "-"),
    count(
        "core.readapt_events",
        "count",
        Lower,
        "solo_ops_per_s",
        "hotspot_drift",
    ),
    // acx_storage: the log, the checkpoint, the restart.
    count(
        "storage.wal_bytes_per_op",
        "B",
        Lower,
        "mutation_p50_us",
        "churn_wal",
    ),
    count(
        "storage.wal_records_per_op",
        "count",
        Lower,
        "mutation_p50_us",
        "churn_wal",
    ),
    layer(
        "storage.wal_append_ns_per_record",
        "ns",
        Lower,
        "mutation_p50_us",
        "churn_wal",
    ),
    layer("storage.checkpoint_s", "s", Lower, "setup_s", "churn_wal"),
    count(
        "storage.checkpoint_bytes_per_object",
        "B",
        Lower,
        "recover_s",
        "churn_wal",
    ),
    count(
        "storage.replayed_records",
        "count",
        Lower,
        "recover_s",
        "churn_wal",
    ),
    layer(
        "storage.recover_records_per_s",
        "1/s",
        Higher,
        "recover_s",
        "churn_wal",
    ),
    // acx_serve: the generator's side of the queue, and the tier's own
    // account of waiting.
    layer("serve.setup_s", "s", Lower, "-", "-"),
    layer("serve.shards", "count", Higher, "-", "-"),
    layer("serve.offered_rate_eps", "1/s", Higher, "-", "-"),
    layer(
        "serve.over_solo_ratio",
        "ratio",
        Higher,
        "serve_ops_per_s",
        "pubsub_steady",
    ),
    layer(
        "serve.submit_ns_per_event",
        "ns",
        Lower,
        "serve_ops_per_s",
        "pubsub_steady",
    ),
    layer(
        "serve.drain_ns_per_event",
        "ns",
        Lower,
        "serve_ops_per_s",
        "pubsub_steady",
    ),
    layer(
        "serve.submit_stalls",
        "count",
        Lower,
        "serve_ops_per_s",
        "pubsub_steady",
    ),
    layer(
        "serve.submit_stall_ns_per_event",
        "ns",
        Lower,
        "serve_ops_per_s",
        "pubsub_steady",
    ),
    layer("serve.event_p50_us", "us", Lower, "-", "-"),
    layer("serve.event_p99_us", "us", Lower, "-", "-"),
    layer("serve.queue_depth_p50", "count", Lower, "-", "-"),
    layer("serve.queue_depth_p99", "count", Lower, "-", "-"),
    layer(
        "serve.reorg_stall_ns_per_event",
        "ns",
        Lower,
        "serve_ops_per_s",
        "hotspot_drift",
    ),
    layer(
        "serve.reorg_passes",
        "count",
        Lower,
        "serve_ops_per_s",
        "hotspot_drift",
    ),
    layer("serve.refused", "count", Lower, "-", "-"),
    layer("serve.gen_late_p99_us", "us", Lower, "-", "-"),
    // The harness itself.
    layer("bench.trace_overhead_frac", "ratio", Lower, "-", "-"),
    layer("bench.host_speed", "ratio", Higher, "-", "-"),
    layer("bench.failed_frac", "ratio", Lower, "-", "-"),
];

/// `--list`: every workload and metric by name, with what the tables
/// know about it.
pub fn print_glossary() {
    println!("workload name why");
    for spec in &crate::workloads::SPECS {
        println!("workload {} {}", spec.name, spec.why);
    }
    println!("end_to_end name unit better bound");
    for m in END_TO_END {
        println!(
            "end_to_end {} {} {} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    println!("per_layer name unit better layer moves on exact");
    for m in PER_LAYER {
        println!(
            "per_layer {} {} {} {} {} {} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer(),
            m.moves,
            m.on,
            m.exact
        );
    }
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

fn unit_of(name: &str) -> &'static str {
    match (end_to_end(name), per_layer(name)) {
        (Some(m), _) => m.unit,
        (_, Some(m)) => m.unit,
        _ => panic!("metric {name} is in neither table"),
    }
}

/// The metric values of one run, in table order.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.0.push((name, value));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }

    /// Checks the run produced exactly the metrics of its mode.
    pub fn assert_complete(&self, traced: bool) {
        let want: Vec<&str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let got: Vec<&str> = self.0.iter().map(|(n, _)| *n).collect();
        for name in &want {
            assert!(got.contains(name), "metric {name} was not measured");
        }
        assert_eq!(got.len(), want.len(), "unlisted metric among {got:?}");
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    unit_of(name)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// One `workload metric value unit` line per metric.
    pub fn print(&self, workload: &str) {
        for (name, value) in self.iter() {
            println!("{workload} {name} {value} {}", unit_of(name));
        }
    }
}

/// What stands beside the numbers of a recorded run.
pub struct Provenance {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub shards: usize,
    pub threads: usize,
    pub host_cores: usize,
    pub digest: u64,
    pub commit: String,
    pub rustc: String,
}

impl Provenance {
    pub fn to_json_fields(&self) -> String {
        format!(
            "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"shards\": {}, \"threads\": {}, \"host_cores\": {}, \"digest\": \"{:#018x}\", \
             \"commit\": \"{}\", \"rustc\": \"{}\", \"features\": \"default\"",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.shards,
            self.threads,
            self.host_cores,
            self.digest,
            json::escape(&self.commit),
            json::escape(&self.rustc),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::workloads::SPECS;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn str_field<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} in {entry:?}"))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn per_layer_metrics_point_at_real_metrics_and_workloads() {
        for m in PER_LAYER {
            assert!(
                m.moves == "-" || end_to_end(m.moves).is_some(),
                "{}",
                m.name
            );
            assert!(
                m.on == "-" || SPECS.iter().any(|s| s.name == m.on),
                "{}",
                m.name
            );
            assert!(
                ["geom", "baselines", "core", "storage", "serve", "bench"].contains(&m.layer()),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let file = benchmark_json();
        let listed = |key: &str| file.get(key).and_then(Value::as_array).unwrap().to_vec();

        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(str_field(entry, "name"), m.name);
            assert_eq!(str_field(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(str_field(entry, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(str_field(entry, "name"), m.name);
            assert_eq!(str_field(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(str_field(entry, "better"), m.better.as_str(), "{}", m.name);
        }
        let workloads = listed("workloads");
        assert_eq!(workloads.len(), SPECS.len());
        for (entry, spec) in workloads.iter().zip(&SPECS) {
            assert_eq!(str_field(entry, "name"), spec.name);
            assert_eq!(str_field(entry, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        assert_eq!(
            file.get("run_seconds").and_then(Value::as_f64),
            Some(crate::workloads::REF_SECONDS as f64)
        );
    }

    #[test]
    fn values_render_with_units() {
        let mut v = Values::default();
        v.set("setup_s", 0.8127);
        v.set("solo_ops_per_s", 5000.5);
        assert_eq!(
            v.to_json(),
            "{\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"solo_ops_per_s\": {\"value\": 5000.5, \"unit\": \"1/s\"}}"
        );
        assert_eq!(v.get("setup_s"), Some(0.8127));
    }
}
