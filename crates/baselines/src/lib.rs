//! Competitor access methods from the paper's evaluation (§7):
//! **Sequential Scan** and the **R*-tree**.
//!
//! Both fill the same [`acx_storage::AccessStats`] counters as the
//! adaptive clustering index, so the experiment harness prices all three
//! methods with one cost model per storage scenario. They also verify
//! objects through the same columnar batch kernel
//! ([`acx_geom::scan`]), keeping the comparison apples-to-apples at the
//! verification level.
//!
//! * [`SeqScan`] — stores all objects in dimension-major columns of one
//!   sequential segment and checks every object with early exit on the
//!   first failing dimension. On disk it benefits from a single seek and
//!   pure sequential transfer, which is why it is such a strong baseline
//!   in high dimensions.
//! * [`RStarTree`] — a from-scratch R*-tree (Beckmann et al., SIGMOD 1990):
//!   ChooseSubtree with minimum overlap enlargement, forced reinsertion,
//!   topological split (minimum margin axis, minimum overlap distribution),
//!   and deletion with tree condensation. Page-sized nodes (16 KiB in the
//!   paper) determine fan-out from the dimensionality.

mod rstar;
mod seqscan;

pub use rstar::{RStarConfig, RStarTree};
pub use seqscan::SeqScan;
