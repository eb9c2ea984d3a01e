//! One run of one workload: the phases in order, the checks, and the
//! metrics computed from what the phases recorded.

use std::path::{Path, PathBuf};

use acx_core::AdaptiveClusterIndex;
use acx_geom::{HyperRect, SpatialQuery};

use crate::estimators::{mean, median, percentile, percentile_f64};
use crate::metrics::Values;
use crate::reference::Mirror;
use crate::serve::ServeRun;
use crate::solo::{SoloRun, Structure, TracedState};
use crate::trace::Tracer;
use crate::workloads::{canary_digest, Inputs, Op, Sizes, Spec, ROUNDS};
use crate::yardstick::{Yardstick, REFERENCE_NS};
use crate::{serve, solo, Fallible};

/// The layer probes replay every n-th measured event.
const PROBE_EVERY: usize = 8;

pub struct Request<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub sizes: Sizes,
    pub shards: usize,
    pub traced: bool,
    /// A directory of the run's own, for logs and checkpoints.
    pub dir: &'a Path,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    pub digest: u64,
    /// The traced run's spans, for `--trace-out`.
    pub tracer: Option<Tracer>,
    /// What was checked, one line each.
    pub notes: Vec<String>,
}

/// Rejects a workload whose events match nothing: a check that
/// compares empty sets proves nothing.
pub fn reject_degenerate(
    dims: usize,
    objects: &[HyperRect],
    events: &[SpatialQuery],
) -> Fallible<()> {
    let mut mirror = Mirror::new(dims, objects);
    for q in events.iter().take(256) {
        mirror.event(q);
    }
    if mirror.matches_per_event() < 1.0 {
        return Err(format!(
            "degenerate workload: {:.3} matches per event over the first {} events",
            mirror.matches_per_event(),
            mirror.events
        )
        .into());
    }
    Ok(())
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

pub fn run(req: &Request) -> Fallible<Outcome> {
    let spec = req.spec;
    let canary = canary_digest(spec);
    if canary != spec.pinned_digest {
        return Err(format!(
            "{}: the generators no longer produce the pinned inputs \
             (digest {canary:#018x}, pinned {:#018x}); refusing to measure another workload under this name",
            spec.name, spec.pinned_digest
        )
        .into());
    }
    let inputs = Inputs::generate(spec, req.seed, req.sizes);
    let digest = inputs.digest();
    reject_degenerate(spec.dims, &inputs.objects, &inputs.solo_warmup)?;
    let mut notes = Vec::new();

    // Every timing below is scaled by the host's speed at the time.
    let mut yard = Yardstick::new();

    // Phase 1, once per solo index: the measured one, its traced twin
    // (a traced run) and the mutation index. All are built alike;
    // `setup_s` is their median.
    let mut setup_s = Vec::new();
    let mut build = |k: usize, yard: &mut Yardstick| -> Fallible<(AdaptiveClusterIndex, PathBuf)> {
        let dir = req.dir.join(format!("solo-{k}"));
        let (index, seconds) = solo::setup(spec, &inputs.objects, &inputs.solo_warmup, &dir, yard)?;
        setup_s.push(seconds);
        Ok((index, dir))
    };
    let (mut index, index_dir) = build(0, &mut yard)?;
    let mut twin = match req.traced {
        true => Some(build(1, &mut yard)?.0),
        false => None,
    };
    let (mut mutated, _) = build(2, &mut yard)?;

    let serve_dir: PathBuf = req.dir.join("serve");
    let (tier, serve_setup_s) = serve::setup(
        spec,
        req.shards,
        &inputs.objects,
        &inputs.serve_warmup,
        &serve_dir,
    )?;

    let mut solo_mirror = Mirror::new(spec.dims, &inputs.objects);
    let mut mutated_mirror = Mirror::new(spec.dims, &inputs.objects);
    let mut serve_mirror = Mirror::new(spec.dims, &inputs.objects);
    let mut mismatched = 0u64;
    let mut twin_differs = 0u64;
    let mut tracer = req.traced.then(Tracer::new);
    let mut traced_state = TracedState::default();
    let mut plain = SoloRun::default();
    let mut traced = SoloRun::default();
    let mut blocks = SoloRun::default();
    let mut served = ServeRun::default();
    let adapted = Structure::of(&index);
    let reorg_wall_before = index.reorg_wall_ns();
    let mut ordinal = 0u64;

    // Phases 2 to 4 and the mutation stream, a few stretches of each
    // per round.
    let per_round = |parts: usize| parts / ROUNDS;
    let mut solo_epochs = inputs.solo_epochs.chunks(per_round(req.sizes.solo_epochs));
    let mut mutation_blocks = inputs
        .mutation_blocks
        .chunks(per_round(req.sizes.mutation_blocks));
    for serve_round in &inputs.serve_rounds {
        for ops in solo_epochs.next().expect("a share of epochs per round") {
            let sums = solo::epoch(&mut index, ops, &mut yard, &mut plain);
            mismatched += solo_mirror.check(ops, &sums, &mut yard);
            if let (Some(twin), Some(tracer)) = (twin.as_mut(), tracer.as_mut()) {
                let twin_sums = solo::traced_epoch(
                    twin,
                    ops,
                    ordinal,
                    &mut yard,
                    &mut traced_state,
                    &mut traced,
                    tracer,
                );
                twin_differs += sums.iter().zip(&twin_sums).filter(|(a, b)| a != b).count() as u64;
            }
            ordinal += ops.len() as u64;
        }
        for ops in mutation_blocks.next().expect("a share of blocks per round") {
            let sums = solo::epoch(&mut mutated, ops, &mut yard, &mut blocks);
            mismatched += mutated_mirror.check(ops, &sums, &mut yard);
        }
        for ops in &serve_round.closed {
            let sums = serve::closed_epoch(
                &tier,
                ops,
                spec.stretch_ops,
                &mut yard,
                &mut served,
                tracer.as_mut(),
            );
            mismatched += serve_mirror.check(ops, &sums, &mut yard);
        }
        for ops in &serve_round.open {
            let sums = serve::open_window(
                &tier,
                ops,
                spec.offered_rate_eps,
                spec.stretch_ops,
                &mut yard,
                &mut served,
                tracer.as_mut(),
            );
            mismatched += serve_mirror.check(ops, &sums, &mut yard);
        }
    }
    drop(tier);
    drop(mutated);

    let ended = Structure::of(&index);
    let reorg_wall_ns = index.reorg_wall_ns() - reorg_wall_before;
    notes.push(format!(
        "answers: {} solo and {} serve events checked against SeqScan, {mismatched} differ; \
         {:.2} matches/event",
        solo_mirror.events + mutated_mirror.events,
        serve_mirror.events,
        solo_mirror.matches_per_event()
    ));
    if solo_mirror.matches_per_event() < 1.0 {
        return Err("degenerate workload: fewer than one match per measured event".into());
    }

    // The traced twin must have run the same program.
    let mut twin_equal = true;
    if let Some(twin) = &twin {
        twin_equal = twin_differs == 0
            && traced.total == plain.total
            && Structure::of(twin) == ended
            && traced.failed_mutations == plain.failed_mutations;
        notes.push(format!(
            "traced run: checksums and structure (clusters {}, splits {}, merges {}) {} the untraced run's",
            ended.clusters,
            ended.splits,
            ended.merges,
            if twin_equal { "equal" } else { "DIFFER FROM" }
        ));
    }

    let probe = req.traced.then(|| {
        let sampled: Vec<&SpatialQuery> = inputs
            .solo_epochs
            .iter()
            .flatten()
            .filter_map(|op| match op {
                Op::Event(q) => Some(q),
                _ => None,
            })
            .step_by(PROBE_EVERY)
            .collect();
        solo::probe_layers(&index, &sampled)
    });
    drop(twin);

    // Phase 5.
    let restart = solo::restart(spec, index, &inputs.solo_spare, &index_dir, &mut yard)?;
    notes.push(format!(
        "restart: {} records replayed, recovered objects and cluster tree {} the live index's",
        restart.report.replayed_records,
        if restart.equal {
            "equal"
        } else {
            "DIFFER FROM"
        }
    ));
    if restart.rejected_checkpoints > 0 {
        notes.push(format!(
            "restart: `load` rejected {} checkpoints of a valid index (a free slot above the \
             highest live one); each time one more pass of spare events ran before the next",
            restart.rejected_checkpoints
        ));
    }

    let solo_runs = || [&plain, &traced, &blocks].into_iter();
    let failed_mutations =
        solo_runs().map(|run| run.failed_mutations).sum::<u64>() + served.failed_mutations;
    let attempted =
        solo_runs().map(|run| run.ops).sum::<u64>() + served.closed_ops + served.open_ops;
    let failed = mismatched + twin_differs + served.refused + served.incomplete + failed_mutations;
    notes.push(format!(
        "failures: {} refused, {} incomplete, {failed_mutations} mutations returned Err, of {attempted} operations",
        served.refused, served.incomplete
    ));
    let late_p99_us = us(percentile(&served.late_ns, 99.0));
    let window_p99_us = median(&served.window_us(|w| w.latency_p99_ns));
    if late_p99_us >= 0.1 * window_p99_us {
        notes.push(format!(
            "serve-open tail latency UNRESOLVED: the generator ran {late_p99_us:.1} us late at p99, \
             not under a tenth of serve.event_p99_us ({window_p99_us:.1} us)"
        ));
    }

    // Every time is in reference units (`yardstick`), and every metric
    // the median over the run's epochs, blocks, windows or repetitions
    // of one statistic of each.
    let solo = plain.summary();
    let seqscan_epoch_p50_us = solo_mirror.epoch_p50_us();
    let block_p50_us = blocks.epoch_mutation_p50_us();
    let window_p50_us = served.window_us(|w| w.latency_p50_ns);
    // [mean of the three kinds, insert, remove, update]
    let mutation_p50_us =
        [0, 1, 2, 3].map(|k| median(&block_p50_us.iter().map(|b| b[k]).collect::<Vec<_>>()));
    let seqscan_p50_us = median(&seqscan_epoch_p50_us);
    let serve_ops_per_s = served.ops_per_s();
    let recover_s = median(&restart.recover_s);

    // How the per-stretch values the metrics are taken from were spread
    // over this run, and how fast the host was.
    let block_mean_us: Vec<f64> = block_p50_us.iter().map(|b| b[0]).collect();
    let ms = |seconds: &[f64]| seconds.iter().map(|s| s * 1e3).collect::<Vec<_>>();
    let host_speed: Vec<f64> = yard
        .readings_ns()
        .iter()
        .map(|ns| REFERENCE_NS / ns)
        .collect();
    for (what, values) in [
        ("host speed (1 = reference)", &host_speed),
        ("solo epoch p50 (us)", &plain.epoch_event_us(50.0)),
        ("solo epoch p99.5 (us)", &plain.epoch_event_us(99.5)),
        ("solo epoch call time (ms)", &ms(&plain.epoch_busy_s())),
        ("seqscan epoch p50 (us)", &seqscan_epoch_p50_us),
        ("mutation block p50 (us)", &block_mean_us),
        ("serve-closed epoch (ms)", &ms(&served.epoch_s)),
        ("serve-open window p50 (us)", &window_p50_us),
        ("set-up (ms)", &ms(&setup_s)),
        ("restart (ms)", &ms(&restart.recover_s)),
    ] {
        let at = |p: f64| percentile_f64(values, p);
        notes.push(format!(
            "{what}: {} values, min {:.4} p10 {:.4} p50 {:.4} p90 {:.4} max {:.4}",
            values.len(),
            at(0.0),
            at(10.0),
            at(50.0),
            at(90.0),
            at(100.0)
        ));
    }

    let mut values = Values::default();
    if !req.traced {
        values.set("setup_s", median(&setup_s));
        values.set("solo_ops_per_s", solo.ops_per_s);
        values.set("solo_event_p50_us", solo.event_p50_us);
        values.set("solo_event_p995_us", solo.event_p995_us);
        values.set("seqscan_event_p50_us", seqscan_p50_us);
        values.set("serve_ops_per_s", serve_ops_per_s);
        values.set("mutation_p50_us", mutation_p50_us[0]);
        values.set("recover_s", recover_s);
    } else {
        let probe = probe.expect("traced runs probe the layers");
        let tracer = tracer.as_ref().expect("traced runs have a tracer");
        let events = plain.events().max(1) as f64;
        let passes = plain.passes.passes.max(1) as f64;
        let execute_mean_ns = mean(&plain.event_ns);
        let priced_ms = plain.priced_ms.iter().sum::<f64>() / events;
        let self_times = tracer.self_time_by_name();
        for (name, (spans, self_ns)) in &self_times {
            notes.push(format!(
                "spans: {name} x{spans}, self time {:.3} ms",
                *self_ns as f64 / 1e6
            ));
        }
        let roots: Vec<u64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "solo.event")
            .map(|s| s.duration_ns())
            .collect();
        let serve_events = (served.closed_events + served.open_events).max(1) as f64;
        // Times summed from spans, probes and the program's own
        // counters are on the clock; the run's median host speed turns
        // them into reference time. (Per-call times were scaled
        // stretch by stretch.)
        let speed = REFERENCE_NS / median(yard.readings_ns());

        values.set("geom.scan_ns_per_object", probe.scan_ns_per_object * speed);
        values.set("geom.scan_dims_per_object", probe.scan_dims_per_object);
        values.set(
            "baselines.speedup_vs_seqscan",
            seqscan_p50_us / solo.event_p50_us,
        );
        values.set(
            "core.explore_ns_per_event",
            probe.explore_ns_per_event * speed,
        );
        values.set(
            "core.record_ns_per_event",
            probe.record_ns_per_event * speed,
        );
        // Self time: `apply_stats` without the passes it ran.
        values.set(
            "core.apply_ns_per_event",
            self_times["core.apply"].1 as f64 * speed / events,
        );
        values.set(
            "core.execute_residual_ns_per_event",
            execute_mean_ns - mean(&traced.event_ns),
        );
        values.set(
            "core.reorg_ns_per_event",
            reorg_wall_ns as f64 * speed / events,
        );
        values.set(
            "core.reorg_pass_p50_us",
            us(percentile(&traced.pass_ns, 50.0)),
        );
        values.set(
            "core.reorg_pass_max_us",
            us(percentile(&traced.pass_ns, 100.0)),
        );
        values.set("core.insert_p50_us", mutation_p50_us[1]);
        values.set("core.remove_p50_us", mutation_p50_us[2]);
        values.set("core.update_p50_us", mutation_p50_us[3]);
        values.set("core.matches_per_event", plain.matches as f64 / events);
        values.set(
            "core.signature_checks_per_event",
            plain.access.signature_checks as f64 / events,
        );
        values.set(
            "core.clusters_explored_per_event",
            plain.access.clusters_explored as f64 / events,
        );
        values.set(
            "core.verified_fraction",
            plain.access.objects_verified as f64 / (events * req.sizes.objects as f64),
        );
        values.set(
            "core.verified_bytes_per_event",
            plain.access.verified_bytes as f64 / events,
        );
        values.set(
            "core.verify_hit_ratio",
            plain.matches as f64 / plain.access.objects_verified.max(1) as f64,
        );
        values.set("core.clusters_final", ended.clusters as f64);
        values.set("core.reorg_passes", (ended.passes - adapted.passes) as f64);
        values.set("core.splits", (ended.splits - adapted.splits) as f64);
        values.set("core.merges", (ended.merges - adapted.merges) as f64);
        values.set("core.thrash_cycles", plain.passes.thrash_cycles as f64);
        values.set(
            "core.candidate_scans_per_pass",
            plain.passes.candidate_scans as f64 / passes,
        );
        values.set(
            "core.screened_out_per_pass",
            plain.passes.screened_out as f64 / passes,
        );
        values.set(
            "core.arena_live_bytes",
            plain.passes.arena_live_bytes as f64,
        );
        values.set("core.priced_ms_per_event", priced_ms);
        values.set(
            "core.model_over_measured",
            priced_ms / (execute_mean_ns / 1e6),
        );
        values.set(
            "core.readapt_events",
            solo::readapt_events(&plain.priced_ms, &inputs.solo_shifts),
        );
        values.set(
            "storage.wal_bytes_per_op",
            restart.wal_bytes as f64 / plain.ops.max(1) as f64,
        );
        values.set(
            "storage.wal_records_per_op",
            restart.wal_records as f64 / plain.ops.max(1) as f64,
        );
        values.set(
            "storage.wal_append_ns_per_record",
            restart.wal_append_ns_per_record * speed,
        );
        values.set("storage.checkpoint_s", restart.checkpoint_s * speed);
        values.set(
            "storage.checkpoint_bytes_per_object",
            restart.checkpoint_bytes as f64 / restart.objects.max(1) as f64,
        );
        values.set(
            "storage.replayed_records",
            restart.report.replayed_records as f64,
        );
        values.set(
            "storage.recover_records_per_s",
            restart.report.replayed_records as f64 / recover_s,
        );
        values.set("serve.setup_s", serve_setup_s * speed);
        values.set("serve.shards", req.shards as f64);
        values.set("serve.offered_rate_eps", spec.offered_rate_eps);
        values.set("serve.over_solo_ratio", serve_ops_per_s / solo.ops_per_s);
        values.set(
            "serve.submit_ns_per_event",
            served.submit_ns as f64 * speed / serve_events,
        );
        values.set(
            "serve.drain_ns_per_event",
            served.drain_ns as f64 * speed / serve_events,
        );
        values.set("serve.submit_stalls", served.submit_stalls as f64);
        values.set(
            "serve.submit_stall_ns_per_event",
            served.submit_stall_ns as f64 * speed / served.closed_events.max(1) as f64,
        );
        let deepest = |f: fn(&acx_serve::ShardStats) -> usize, w: &acx_serve::ServeStats| {
            w.shards.iter().map(f).max().unwrap_or(0) as f64
        };
        values.set("serve.event_p50_us", median(&window_p50_us));
        values.set("serve.event_p99_us", window_p99_us);
        values.set(
            "serve.queue_depth_p50",
            served.window_count(|w| deepest(|s| s.queue_depth_p50, w)),
        );
        values.set(
            "serve.queue_depth_p99",
            served.window_count(|w| deepest(|s| s.queue_depth_p99, w)),
        );
        values.set(
            "serve.reorg_stall_ns_per_event",
            served
                .windows
                .iter()
                .map(|(w, speed)| w.reorg_stall_ns as f64 * speed)
                .sum::<f64>()
                / served.open_events.max(1) as f64,
        );
        values.set(
            "serve.reorg_passes",
            served
                .windows
                .iter()
                .map(|(w, _)| w.reorg_passes)
                .sum::<u64>() as f64,
        );
        values.set("serve.refused", served.refused as f64);
        values.set("serve.gen_late_p99_us", late_p99_us * speed);
        values.set(
            "bench.trace_overhead_frac",
            mean(&roots) * traced.host_speed() / execute_mean_ns - 1.0,
        );
        values.set("bench.host_speed", speed);
        values.set("bench.failed_frac", failed as f64 / attempted.max(1) as f64);
    }
    values.assert_complete(req.traced);

    Ok(Outcome {
        correct: failed == 0 && twin_equal && restart.equal,
        attempted,
        failed,
        values,
        digest,
        tracer,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{spec, SPECS};

    // Epochs of 100 events: the default reorganization period, so
    // passes run.
    const SMALL: Sizes = Sizes {
        objects: 1_500,
        warmup_events: 300,
        epoch_events: 100,
        solo_epochs: ROUNDS,
        closed_epochs: ROUNDS,
        window_ops: 25,
        open_windows: ROUNDS,
        block_ops: 30,
        mutation_blocks: ROUNDS,
    };

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            // Inside the package, like the binary's own run directory
            // stays inside the checkout; one per call, since tests run
            // side by side.
            static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
            let nth = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(".tmp")
                .join(format!("{}-{nth}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn run_small(name: &str, shards: usize, traced: bool) -> Outcome {
        let dir = TempDir::new(&format!("{name}-{shards}-{traced}"));
        // The equivalence under test does not depend on the rate; a low
        // one keeps a loaded test host from refusing events.
        let spec = Spec {
            offered_rate_eps: 500.0,
            ..*spec(name).unwrap()
        };
        run(&Request {
            spec: &spec,
            seed: 11,
            sizes: SMALL,
            shards,
            traced,
            dir: &dir.0,
        })
        .unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    #[test]
    fn every_workload_is_correct_against_the_reference() {
        for spec in &SPECS {
            let outcome = run_small(spec.name, 1, false);
            assert!(outcome.correct, "{}: {:?}", spec.name, outcome.notes);
            assert_eq!(outcome.failed, 0);
            let inputs = Inputs::generate(spec, 11, SMALL);
            let serve_ops = inputs
                .serve_rounds
                .iter()
                .flat_map(|r| r.closed.iter().chain(&r.open));
            let ops = inputs
                .solo_epochs
                .iter()
                .chain(&inputs.mutation_blocks)
                .chain(serve_ops)
                .map(Vec::len)
                .sum::<usize>();
            assert_eq!(outcome.attempted as usize, ops);
            for (name, value) in outcome.values.iter() {
                assert!(
                    value.is_finite() && value > 0.0,
                    "{} {name} = {value}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn traced_and_untraced_solo_end_in_the_same_state() {
        // `correct` includes: per-event checksums, the folded totals,
        // clusters, splits, merges and passes all equal.
        for name in ["pubsub_steady", "hotspot_drift", "churn_wal"] {
            let outcome = run_small(name, 1, true);
            assert!(outcome.correct, "{name}: {:?}", outcome.notes);
            assert!(outcome
                .notes
                .iter()
                .any(|n| n.contains("equal the untraced")));
            assert!(outcome.tracer.is_some_and(|t| !t.spans().is_empty()));
        }
    }

    #[test]
    fn serving_answers_do_not_depend_on_the_shard_count() {
        for shards in [1, 2] {
            let outcome = run_small("churn_wal", shards, false);
            assert!(outcome.correct, "S={shards}: {:?}", outcome.notes);
        }
    }

    #[test]
    fn serve_closed_checksums_equal_solo_checksums_on_one_stream() {
        let spec = spec("pubsub_steady").unwrap();
        let inputs = Inputs::generate(spec, 5, SMALL);
        let dir = TempDir::new("closed-vs-solo");
        let mut yard = Yardstick::new();
        let (mut index, _) = solo::setup(
            spec,
            &inputs.objects,
            &inputs.solo_warmup,
            &dir.0.join("solo"),
            &mut yard,
        )
        .unwrap();
        let mut solo_run = SoloRun::default();
        let solo_sums: Vec<_> = inputs
            .solo_epochs
            .iter()
            .flat_map(|ops| solo::epoch(&mut index, ops, &mut yard, &mut solo_run))
            .collect();
        for shards in [1, 2] {
            let (tier, _) = serve::setup(
                spec,
                shards,
                &inputs.objects,
                &inputs.solo_warmup,
                &dir.0.join(format!("serve-{shards}")),
            )
            .unwrap();
            let mut served = ServeRun::default();
            let sums: Vec<_> = inputs
                .solo_epochs
                .iter()
                .flat_map(|ops| serve::closed_epoch(&tier, ops, 25, &mut yard, &mut served, None))
                .collect();
            assert_eq!(sums, solo_sums, "S={shards}");
            assert_eq!(served.total, solo_run.total, "S={shards}");
            assert_eq!(served.incomplete, 0);
        }
    }

    #[test]
    fn churn_wal_recovers_what_was_live() {
        let outcome = run_small("churn_wal", 1, true);
        assert!(
            outcome
                .notes
                .iter()
                .any(|n| n.contains("tree equal the live")),
            "{:?}",
            outcome.notes
        );
        assert!(outcome.values.get("storage.replayed_records").unwrap() > 0.0);
        assert!(outcome.values.get("storage.wal_bytes_per_op").unwrap() > 0.0);
    }

    #[test]
    fn degenerate_guard_fires_on_a_stream_without_matches() {
        // The shape of the `skewed` stream of BENCH_serve.json: points
        // that no object encloses.
        let objects: Vec<HyperRect> = (0..200)
            .map(|i| {
                let lo = (i % 10) as f32 / 20.0;
                HyperRect::from_bounds(&[lo, lo], &[lo + 0.01, lo + 0.01]).unwrap()
            })
            .collect();
        let misses: Vec<SpatialQuery> = (0..50)
            .map(|_| SpatialQuery::point_enclosing(vec![0.9, 0.9]))
            .collect();
        let err = reject_degenerate(2, &objects, &misses).unwrap_err();
        assert!(err.to_string().contains("degenerate"), "{err}");
        let hits: Vec<SpatialQuery> = (0..50)
            .map(|_| SpatialQuery::point_enclosing(vec![0.005, 0.005]))
            .collect();
        reject_degenerate(2, &objects, &hits).unwrap();
    }
}
