//! Storage substrate: device cost profiles, the sequential segment
//! store, the frame codec both persistent files are written in, and the
//! write-ahead log. The log's one medium here is the file
//! ([`FileBacking`]); [`BackingStore`] is public so that test media —
//! the in-memory log and the fault injector of the workspace's
//! `acx_testkit` — implement it from outside, and ship in no
//! production crate.
//!
//! The paper evaluates two storage scenarios (§5):
//!
//! * **Memory** — objects of a cluster are stored sequentially in memory to
//!   maximize locality; costs are signature checks, exploration setup, and
//!   per-byte verification.
//! * **Disk** — cluster members live on external storage, stored
//!   sequentially per cluster; exploring a cluster additionally pays one
//!   random disk access (seek) and a per-byte transfer cost.
//!
//! The original experiments ran on 2004 SCSI hardware (15 ms access time,
//! 20 MB/s sustained transfer, 64 MB RAM cap). This crate reproduces that
//! environment as a **simulation**: query execution collects exact access
//! counters ([`AccessStats`]) which a [`CostModel`] prices with the paper's
//! own Table 2 constants ([`DeviceProfile::edbt2004`]): the priced times
//! depend only on what a query touched, not on the host that ran it.

#![deny(clippy::undocumented_unsafe_blocks)]

mod cost;
mod counters;
mod crc;
mod device;
pub mod frame;
mod id_table;
mod result;
mod segment;
pub mod wal;

pub use cost::CostModel;
pub use counters::{AccessStats, AveragedStats};
pub use crc::crc32;
pub use device::{DeviceProfile, StorageScenario};
pub use frame::{Corruption, StoreError};
pub use result::{QueryMetrics, QueryResult};
pub use segment::{SegmentId, SegmentStore, Taken};
pub use wal::{
    BackingStore, FileBacking, FlushPolicy, TornTail, Wal, WalError, WalRecord, WalReplay,
};
