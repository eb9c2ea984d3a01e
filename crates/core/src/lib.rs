//! Cost-based adaptive clustering of multidimensional extended objects —
//! the primary contribution of Saita & Llirbat (EDBT 2004).
//!
//! Large collections of hyper-rectangles with many dimensions defeat
//! R-tree-family indexes: minimum bounding boxes overlap so much that range
//! queries explore most of the tree, losing even to a sequential scan.
//! This crate implements the paper's alternative:
//!
//! 1. **Signatures instead of bounding boxes** ([`Signature`]): a cluster
//!    groups objects whose interval *starts* and *ends* fall into
//!    per-dimension variation intervals — similarity on a restrained number
//!    of dimensions instead of minimal bounding in all of them.
//! 2. **Virtual candidate subclusters** ([`candidates`]): each cluster
//!    tracks `≈ f²·Nd` possible specializations of its signature, each by
//!    just two counters (qualifying objects, matching queries).
//! 3. **A cost model** ([`cost`]): expected per-cluster query time
//!    `T = A + p·(B + n·C)` parameterized by the storage scenario
//!    (in-memory or disk-based).
//! 4. **Adaptive reorganization** ([`AdaptiveClusterIndex::reorganize`]):
//!    periodically, clusters are merged into their parents or split along
//!    their most profitable candidates, following the materialization and
//!    merging benefit functions.
//!
//! The result adapts to both the data distribution and the query
//! distribution, and by construction never performs worse on average than
//! a sequential scan: when exploration is not worth avoiding, the index
//! degenerates to a single root cluster scanned sequentially.

#![deny(clippy::undocumented_unsafe_blocks)]

mod batch;
pub mod candidates;
mod config;
pub mod cost;
mod error;
mod index;
mod metrics;
pub mod signature;

pub use batch::StatsDelta;
pub use config::{IndexConfig, STATS_DECAY};
pub use error::IndexError;
pub use index::{AdaptiveClusterIndex, QueryScratch, ReorgFaultPoint};
pub use metrics::{
    ClusterSnapshot, QueryMetrics, QueryResult, RecoveryProfile, RecoveryReport, ReorgProfile,
    ReorgReport,
};
pub use signature::Signature;
