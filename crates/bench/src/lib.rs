//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§7). The root README's "Benchmarks and experiment
//! binaries" section lists the binaries.
//!
//! The harness builds the three competitors — Adaptive Clustering (AC),
//! R*-tree (RS), Sequential Scan (SS) — over identical object sets, runs
//! identical query streams, and reports the paper's three indicators:
//! average query execution time (wall-clock and cost-model priced),
//! number of accessed clusters/nodes, and fraction of verified objects.

pub mod args;
pub mod cost_terms;
pub mod runner;

pub use runner::{
    adapted_ac, build_ac, build_ac_with, build_rs, build_ss, run_ac, run_baseline, MethodReport,
};
