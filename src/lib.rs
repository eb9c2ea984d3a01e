//! # acx — adaptive clustering of multidimensional extended objects
//!
//! Facade crate re-exporting the full system: a reproduction of
//! *"Clustering Multidimensional Extended Objects to Speed Up Execution of
//! Spatial Queries"* (Saita & Llirbat, EDBT 2004).
//!
//! The system answers intersection, containment, enclosure and
//! point-enclosing queries over large collections of hyper-rectangles with
//! many dimensions, using a **cost-based adaptive clustering** strategy that
//! follows both the data distribution and the query distribution.
//!
//! ## Crate map
//!
//! * [`geom`] — intervals, hyper-rectangles, spatial relations.
//! * [`storage`] — device cost profiles, segment and file-backed
//!   stores, the write-ahead log.
//! * [`index`] — the paper's contribution: signatures, candidate
//!   subclusters, benefit functions, reorganization, the
//!   [`index::AdaptiveClusterIndex`] itself.
//! * [`baselines`] — Sequential Scan and a full R*-tree, used as
//!   competitors in the paper's evaluation.
//! * [`serve`] — the shard-per-core serving tier: partitioned indexes
//!   behind bounded ingestion queues with event fan-out and per-shard
//!   off-path reorganization.
//! * [`workloads`] — uniform/skewed workload generators with selectivity
//!   calibration, plus a publish/subscribe domain generator.
//!
//! ## Quickstart
//!
//! ```
//! use acx::prelude::*;
//!
//! // Build an index over 3-dimensional extended objects.
//! let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(3)).unwrap();
//! let rect = HyperRect::from_bounds(&[0.1, 0.2, 0.3], &[0.2, 0.4, 0.5]).unwrap();
//! index.insert(ObjectId(1), rect).unwrap();
//!
//! let query = SpatialQuery::point_enclosing(vec![0.15, 0.3, 0.4]);
//! let result = index.execute(&query);
//! assert_eq!(result.matches, vec![ObjectId(1)]);
//! ```

pub use acx_baselines as baselines;
pub use acx_core as index;
pub use acx_geom as geom;
pub use acx_serve as serve;
pub use acx_storage as storage;
pub use acx_workloads as workloads;

/// Commonly used types, importable in one line.
pub mod prelude {
    pub use acx_baselines::{RStarConfig, RStarTree, SeqScan};
    pub use acx_core::{
        AdaptiveClusterIndex, ClusterSnapshot, IndexConfig, IndexError, QueryMetrics, QueryResult,
        QueryScratch, ReorgProfile, ReorgReport, StatsDelta,
    };
    pub use acx_geom::{
        HyperRect, Interval, ObjectId, Scalar, SpatialQuery, SpatialRelation,
    };
    pub use acx_serve::{ServeConfig, ServeStats, ShardBy, ShardedIndex, SubmitError};
    pub use acx_storage::{AccessStats, CostModel, DeviceProfile, StorageScenario};
    pub use acx_workloads::{
        EventStream, SkewedWorkload, UniformWorkload, Workload, WorkloadConfig,
    };
}
