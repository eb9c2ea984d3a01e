//! Geometry substrate for the adaptive-clustering spatial index.
//!
//! This crate defines *multidimensional extended objects* — hyper-rectangles
//! (equivalently, hyper-intervals) over the normalized domain `[0, 1]` in
//! each dimension — together with the spatial queries the index answers:
//!
//! * [`SpatialQuery::intersection`] — the object overlaps the query window,
//! * [`SpatialQuery::containment`] — the object lies inside the query window,
//! * [`SpatialQuery::enclosure`] — the object encloses the query window,
//! * [`SpatialQuery::point_enclosing`] — the object contains a query point.
//!
//! Coordinates are `f32` on purpose: the paper stores each interval limit on
//! 4 bytes and the cost model prices verification and transfer *per byte*,
//! so the in-memory layout (`4 + 8·Nd` bytes per object) is part of the
//! reproduced system, not an implementation detail.
//!
//! # Example
//!
//! ```
//! use acx_geom::{HyperRect, SpatialQuery};
//!
//! // A 2-d object: [0.1, 0.4] × [0.2, 0.3]
//! let object = HyperRect::from_bounds(&[0.1, 0.2], &[0.4, 0.3]).unwrap();
//! // An intersection query window: [0.3, 0.9] × [0.0, 1.0]
//! let window = HyperRect::from_bounds(&[0.3, 0.0], &[0.9, 1.0]).unwrap();
//! let query = SpatialQuery::intersection(window);
//! assert!(query.matches_rect(&object));
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

mod error;
mod interval;
mod object;
mod query;
mod rect;
pub mod scan;
pub mod tier;

pub use error::GeomError;
pub use interval::Interval;
pub use object::{object_size_bytes, ObjectId, OBJECT_ID_BYTES};
pub use query::{MatchOutcome, SpatialQuery};
pub use rect::HyperRect;

/// Coordinate scalar used throughout the system.
///
/// The paper represents every interval limit on 4 bytes; all cost accounting
/// (verification rate, disk transfer) is derived from this layout.
pub type Scalar = f32;

/// Lower bound of the normalized data domain in every dimension.
pub const DOMAIN_MIN: Scalar = 0.0;

/// Upper bound of the normalized data domain in every dimension.
pub const DOMAIN_MAX: Scalar = 1.0;
