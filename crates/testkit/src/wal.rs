//! The log's test media, [`BackingStore`]s implemented from outside
//! `acx_storage`: [`MemBacking`] keeps the log in memory, and
//! [`FaultInjector`] fails on a deterministic schedule ([`FaultPlan`])
//! — torn writes, short reads, `ENOSPC`, flush failures and
//! crash-after-N-ops — so every failure mode is a reproducible test
//! case.
//!
//! Each medium is a handle on shared state: a [`Wal`](acx_storage::Wal)
//! owns one handle, and a clone the test keeps probes the same medium
//! (its flushes, its surviving bytes) while the log is live.

use std::io;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use acx_storage::BackingStore;

fn lock<T>(shared: &Mutex<T>) -> MutexGuard<'_, T> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// In-memory log; never fails, counts flushes.
#[derive(Debug, Clone, Default)]
pub struct MemBacking(Arc<Mutex<MemLog>>);

#[derive(Debug, Default)]
struct MemLog {
    bytes: Vec<u8>,
    flushes: u64,
}

impl MemBacking {
    /// An empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A log pre-seeded with `bytes` — e.g. the surviving image of a
    /// crashed [`FaultInjector`], carried over to a "rebooted" medium.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemBacking(Arc::new(Mutex::new(MemLog { bytes, flushes: 0 })))
    }

    /// How many durability barriers were requested.
    pub fn flushes(&self) -> u64 {
        lock(&self.0).flushes
    }
}

impl BackingStore for MemBacking {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        lock(&self.0).bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        lock(&self.0).flushes += 1;
        Ok(())
    }

    fn read_durable(&mut self) -> io::Result<Vec<u8>> {
        Ok(lock(&self.0).bytes.clone())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        lock(&self.0).bytes.truncate(len as usize);
        Ok(())
    }
}

/// One scheduled failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The append persists only `keep` bytes of the record (everything
    /// staged before it is persisted whole), then the medium crashes —
    /// the classic torn tail.
    TornWrite { keep: usize },
    /// The append fails with [`io::ErrorKind::StorageFull`]; nothing is
    /// written and the medium stays alive.
    Enospc,
    /// The flush fails and the staged (unflushed) bytes are lost. On a
    /// `flush_behind` the barrier returns `Ok` and the failure, with
    /// the loss, surfaces at the next barrier.
    FlushFail,
    /// The medium crashes: the operation fails and every staged byte is
    /// discarded.
    Crash,
}

/// A deterministic fault schedule: faults fire at fixed 1-based append
/// or flush ordinals, so a failing case replays exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    on_append: Vec<(u64, Fault)>,
    on_flush: Vec<(u64, Fault)>,
    short_read: u64,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Crash on append `n + 1` — the first `n` appends succeed.
    pub fn crash_after_appends(n: u64) -> Self {
        FaultPlan::none().and_append_fault(n + 1, Fault::Crash)
    }

    /// Tear append `n`: persist `keep` bytes of it, then crash.
    pub fn torn_write_at(n: u64, keep: usize) -> Self {
        FaultPlan::none().and_append_fault(n, Fault::TornWrite { keep })
    }

    /// Fail append `n` with `ENOSPC` (medium stays alive).
    pub fn enospc_at(n: u64) -> Self {
        FaultPlan::none().and_append_fault(n, Fault::Enospc)
    }

    /// Fail flush `n` (counting `flush` and `flush_behind`), losing the
    /// staged bytes.
    pub fn flush_fail_at(n: u64) -> Self {
        FaultPlan::none().and_flush_fault(n, Fault::FlushFail)
    }

    /// Adds an append-ordinal fault to the schedule.
    pub fn and_append_fault(mut self, ordinal: u64, fault: Fault) -> Self {
        self.on_append.push((ordinal, fault));
        self
    }

    /// Adds a flush-ordinal fault to the schedule.
    pub fn and_flush_fault(mut self, ordinal: u64, fault: Fault) -> Self {
        self.on_flush.push((ordinal, fault));
        self
    }

    /// Drop this many tail bytes from every `read_durable` — a short
    /// read of the recovery image.
    pub fn with_short_read(mut self, bytes: u64) -> Self {
        self.short_read = bytes;
        self
    }

    /// Derives a schedule from a seed (splitmix64): one primary fault
    /// at a pseudo-random ordinal, sometimes compounded with a short
    /// read. Same seed, same schedule — every randomized failure is a
    /// reproducible test case.
    pub fn seeded(seed: u64) -> Self {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let ordinal = 1 + next() % 24;
        let plan = match next() % 4 {
            0 => FaultPlan::torn_write_at(ordinal, (next() % 48) as usize),
            1 => FaultPlan::crash_after_appends(ordinal),
            2 => FaultPlan::enospc_at(ordinal),
            _ => FaultPlan::flush_fail_at(1 + next() % 4),
        };
        if next() % 3 == 0 {
            plan.with_short_read(next() % 9)
        } else {
            plan
        }
    }

    fn fault_at(schedule: &[(u64, Fault)], ordinal: u64) -> Option<Fault> {
        schedule
            .iter()
            .find(|(at, _)| *at == ordinal)
            .map(|(_, f)| f.clone())
    }
}

/// A [`BackingStore`] that models a volatile write buffer over an
/// ordered durable medium and fails on a [`FaultPlan`] schedule.
///
/// `append` stages bytes; `flush` persists everything staged;
/// `flush_behind` is a barrier that lands later: it persists what the
/// *previous* `flush_behind` covered and leaves its own end pending. A
/// crash (scheduled, or the tail of a torn write) discards everything
/// not persisted, so the surviving image is exactly what a real machine
/// would find after reboot. A scheduled [`Fault::FlushFail`] on a
/// `flush_behind` lets it return `Ok` and fails the next barrier, as a
/// sync that fails on another thread does. `truncate` models the
/// post-reboot repair and revives a crashed medium.
#[derive(Debug, Clone)]
pub struct FaultInjector(Arc<Mutex<Medium>>);

#[derive(Debug)]
struct Medium {
    appended: Vec<u8>,
    persisted: usize,
    /// End of what the last `flush_behind` covered: persisted when the
    /// next barrier comes.
    landing: usize,
    /// The last `flush_behind`'s sync failed; the next barrier says so.
    landing_fails: bool,
    plan: FaultPlan,
    appends: u64,
    flushes: u64,
    crashed: bool,
}

impl FaultInjector {
    /// A fresh medium driven by `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector(Arc::new(Mutex::new(Medium {
            appended: Vec::new(),
            persisted: 0,
            landing: 0,
            landing_fails: false,
            plan,
            appends: 0,
            flushes: 0,
            crashed: false,
        })))
    }

    /// The bytes that survive a crash right now: everything persisted,
    /// plus — while the medium is alive — everything staged.
    pub fn surviving(&self) -> Vec<u8> {
        lock(&self.0).surviving().to_vec()
    }

    /// Whether the medium has crashed.
    pub fn crashed(&self) -> bool {
        lock(&self.0).crashed
    }

    /// Flushes attempted so far.
    pub fn flushes(&self) -> u64 {
        lock(&self.0).flushes
    }
}

impl Medium {
    fn surviving(&self) -> &[u8] {
        if self.crashed {
            &self.appended[..self.persisted]
        } else {
            &self.appended
        }
    }

    fn crash(&mut self) {
        self.crashed = true;
        self.landing_fails = false;
        self.lose_unpersisted();
    }

    fn lose_unpersisted(&mut self) {
        self.appended.truncate(self.persisted);
        self.landing = self.persisted;
    }

    /// Starts a barrier: the last `flush_behind` lands, or its failure
    /// surfaces here and everything not persisted is lost.
    fn land(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "medium crashed"));
        }
        self.flushes += 1;
        if std::mem::take(&mut self.landing_fails) {
            self.lose_unpersisted();
            return Err(io::Error::other("earlier flush failed; staged bytes lost"));
        }
        self.persisted = self.persisted.max(self.landing);
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.crashed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "medium crashed"));
        }
        self.appends += 1;
        match FaultPlan::fault_at(&self.plan.on_append, self.appends) {
            None => {
                self.appended.extend_from_slice(bytes);
                Ok(())
            }
            Some(Fault::TornWrite { keep }) => {
                // Everything staged before the torn record reaches the
                // medium whole; the record itself tears mid-frame.
                self.appended
                    .extend_from_slice(&bytes[..keep.min(bytes.len())]);
                self.persisted = self.appended.len();
                self.crashed = true;
                Err(io::Error::new(io::ErrorKind::WriteZero, "torn write"))
            }
            Some(Fault::Enospc) => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "no space left on device",
            )),
            Some(Fault::FlushFail) | Some(Fault::Crash) => {
                self.crash();
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "simulated crash"))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.land()?;
        match FaultPlan::fault_at(&self.plan.on_flush, self.flushes) {
            None => {
                self.persisted = self.appended.len();
                Ok(())
            }
            Some(Fault::FlushFail) => {
                self.lose_unpersisted();
                Err(io::Error::other("flush failed; staged bytes lost"))
            }
            Some(_) => {
                self.crash();
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "simulated crash"))
            }
        }
    }

    fn flush_behind(&mut self) -> io::Result<()> {
        self.land()?;
        match FaultPlan::fault_at(&self.plan.on_flush, self.flushes) {
            None => {
                self.landing = self.appended.len();
                Ok(())
            }
            Some(Fault::FlushFail) => {
                self.landing_fails = true;
                Ok(())
            }
            Some(_) => {
                self.crash();
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "simulated crash"))
            }
        }
    }

    fn read_durable(&self) -> Vec<u8> {
        let image = self.surviving();
        let keep = image.len().saturating_sub(self.plan.short_read as usize);
        image[..keep].to_vec()
    }

    fn truncate(&mut self, len: u64) {
        self.appended.truncate(len as usize);
        self.persisted = self.persisted.min(self.appended.len());
        self.landing = self.landing.min(self.appended.len());
        // Post-reboot repair: the medium is usable again.
        self.crashed = false;
    }
}

impl BackingStore for FaultInjector {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        lock(&self.0).append(bytes)
    }

    fn flush(&mut self) -> io::Result<()> {
        lock(&self.0).flush()
    }

    fn flush_behind(&mut self) -> io::Result<()> {
        lock(&self.0).flush_behind()
    }

    fn read_durable(&mut self) -> io::Result<Vec<u8>> {
        Ok(lock(&self.0).read_durable())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        lock(&self.0).truncate(len);
        Ok(())
    }
}

/// The log's tests that drive it through these media. `acx_storage`'s
/// own test module cannot use this crate, so they live here; its
/// `sample_records` is repeated for the same reason.
#[cfg(test)]
mod tests {
    use std::io;

    use acx_storage::wal::WAL_HEADER_LEN;
    use acx_storage::{FileBacking, FlushPolicy, Wal, WalError, WalRecord};

    use super::*;
    use crate::TempPath;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                id: 7,
                coords: vec![0.0, 1.0, 0.25, 0.75],
            },
            WalRecord::Remove { id: 7 },
            WalRecord::Update {
                id: 9,
                coords: vec![0.5, 0.5, 0.5, 0.5],
            },
            WalRecord::Merge {
                signature: vec![1, 2, 3, 4],
            },
            WalRecord::Materialize {
                signature: vec![],
                candidate: 11,
            },
            WalRecord::EpochClose,
        ]
    }

    #[test]
    fn append_replay_roundtrip() {
        let mut wal = Wal::create(Box::new(MemBacking::new()), FlushPolicy::PerRecord, 2).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        assert_eq!(wal.records(), 6);
        let mut store = wal.into_store();
        let replay = Wal::replay(store.as_mut()).unwrap();
        assert_eq!(replay.dims, Some(2));
        assert_eq!(replay.records, sample_records());
        assert!(replay.torn.is_none());
    }

    #[test]
    fn flush_policies_control_barrier_frequency() {
        let count = |policy: FlushPolicy| {
            let log = MemBacking::new();
            let mut wal = Wal::create(Box::new(log.clone()), policy, 2).unwrap();
            for _ in 0..2 {
                for rec in sample_records() {
                    wal.append(&rec).unwrap();
                }
            }
            log.flushes()
        };
        // Header flush (1) plus: 12 per-record flushes / a barrier per
        // full 5-record batch AND per epoch-close marker (records 5, 6,
        // 11, 12 — the documented PerBatch contract includes the
        // epoch-close barrier) / one per epoch-close marker (2).
        assert_eq!(count(FlushPolicy::PerRecord), 1 + 12);
        assert_eq!(count(FlushPolicy::PerBatch(5)), 1 + 4);
        assert_eq!(count(FlushPolicy::PerBatch(u32::MAX)), 1 + 2);
    }

    #[test]
    fn torn_tail_is_detected_and_reported() {
        let mut wal = Wal::create(Box::new(MemBacking::new()), FlushPolicy::PerRecord, 3).unwrap();
        let recs = sample_records();
        for rec in &recs {
            wal.append(rec).unwrap();
        }
        let mut store = wal.into_store();
        let full = store.read_durable().unwrap();

        // Cut the image at every byte position: replay must never fail,
        // and must return a record-prefix of the full stream.
        for cut in 0..full.len() {
            let mut medium = MemBacking::from_bytes(full[..cut].to_vec());
            let replay = Wal::replay(&mut medium).unwrap();
            assert!(replay.records.len() <= recs.len());
            assert_eq!(replay.records[..], recs[..replay.records.len()]);
            assert!(replay.valid_len <= cut as u64);
            if replay.valid_len < cut as u64 {
                let torn = replay.torn.expect("tail past valid_len must be reported");
                assert_eq!(torn.offset, replay.valid_len);
                assert_eq!(torn.dropped_bytes, cut as u64 - replay.valid_len);
                assert_eq!(torn.record, replay.records.len() as u64);
            }
        }
    }

    #[test]
    fn mid_log_corruption_truncates_at_first_bad_checksum() {
        let mut wal = Wal::create(Box::new(MemBacking::new()), FlushPolicy::PerRecord, 3).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let mut store = wal.into_store();
        let mut bytes = store.read_durable().unwrap();
        // Flip one payload byte of the second frame.
        let header = WAL_HEADER_LEN as usize;
        let first_len = u32::from_le_bytes(bytes[header..header + 4].try_into().unwrap()) as usize;
        let second_payload = header + 8 + first_len + 8;
        bytes[second_payload] ^= 0x40;
        let mut medium = MemBacking::from_bytes(bytes);
        let replay = Wal::replay(&mut medium).unwrap();
        assert_eq!(replay.records, sample_records()[..1].to_vec());
        let torn = replay.torn.unwrap();
        assert_eq!(torn.record, 1);
        assert_eq!(torn.offset, (header + 8 + first_len) as u64);
    }

    #[test]
    fn reopen_truncates_tail_and_continues() {
        let mut wal = Wal::create(Box::new(MemBacking::new()), FlushPolicy::PerRecord, 2).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let mut store = wal.into_store();
        let mut bytes = store.read_durable().unwrap();
        bytes.truncate(bytes.len() - 3); // tear the last frame

        let (mut wal, replay) = Wal::reopen(
            Box::new(MemBacking::from_bytes(bytes)),
            FlushPolicy::PerRecord,
            2,
        )
        .unwrap();
        assert_eq!(replay.records.len(), sample_records().len() - 1);
        assert!(replay.torn.is_some());
        // The tail is repaired: appending and replaying again is clean.
        wal.append(&WalRecord::Remove { id: 1 }).unwrap();
        let mut store = wal.into_store();
        let replay = Wal::replay(store.as_mut()).unwrap();
        assert!(replay.torn.is_none());
        assert_eq!(replay.records.last(), Some(&WalRecord::Remove { id: 1 }));
    }

    #[test]
    fn reopen_rejects_dimension_mismatch_and_bad_magic() {
        let wal = Wal::create(Box::new(MemBacking::new()), FlushPolicy::PerRecord, 2).unwrap();
        let mut store = wal.into_store();
        let bytes = store.read_durable().unwrap();
        assert!(matches!(
            Wal::reopen(
                Box::new(MemBacking::from_bytes(bytes)),
                FlushPolicy::PerRecord,
                5
            ),
            Err(WalError::DimensionMismatch {
                expected: 5,
                actual: 2
            })
        ));
        assert!(matches!(
            Wal::replay(&mut MemBacking::from_bytes(
                b"NOTAWAL.............".to_vec()
            )),
            Err(WalError::Corrupt { .. })
        ));
        let mut versioned = Vec::new();
        versioned.extend_from_slice(b"ACXW");
        versioned.extend_from_slice(&9u32.to_le_bytes());
        versioned.extend_from_slice(&2u32.to_le_bytes());
        versioned.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            Wal::replay(&mut MemBacking::from_bytes(versioned)),
            Err(WalError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn reset_to_stamps_the_checkpoint_id_into_the_header() {
        let mut wal = Wal::create(Box::new(MemBacking::new()), FlushPolicy::PerRecord, 2).unwrap();
        assert_eq!(wal.checkpoint_id(), 0);
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.reset_to(7).unwrap();
        assert_eq!(wal.checkpoint_id(), 7);
        wal.append(&WalRecord::Remove { id: 3 }).unwrap();
        // A second reset to the same stamp truncates what followed it.
        wal.reset_to(7).unwrap();
        assert_eq!(wal.checkpoint_id(), 7);
        let mut store = wal.into_store();
        let replay = Wal::replay(store.as_mut()).unwrap();
        assert_eq!(replay.checkpoint_id, Some(7));
        assert!(replay.records.is_empty());
        // Reopen carries the stamp forward.
        let bytes = store.read_durable().unwrap();
        let (wal, _) = Wal::reopen(
            Box::new(MemBacking::from_bytes(bytes)),
            FlushPolicy::PerRecord,
            2,
        )
        .unwrap();
        assert_eq!(wal.checkpoint_id(), 7);
    }

    #[test]
    fn fault_injector_is_deterministic() {
        for seed in 0..32u64 {
            let plan = FaultPlan::seeded(seed);
            assert_eq!(plan, FaultPlan::seeded(seed), "seed {seed}");
            let drive = |plan: FaultPlan| {
                let mut wal = match Wal::create(
                    Box::new(FaultInjector::new(plan)),
                    FlushPolicy::PerBatch(3),
                    2,
                ) {
                    Ok(w) => w,
                    Err(_) => return Vec::new(),
                };
                for rec in sample_records().iter().cycle().take(40) {
                    if wal.append(rec).is_err() {
                        break;
                    }
                }
                let mut store = wal.into_store();
                store.read_durable().unwrap_or_default()
            };
            assert_eq!(
                drive(FaultPlan::seeded(seed)),
                drive(FaultPlan::seeded(seed))
            );
        }
    }

    #[test]
    fn crash_loses_exactly_the_unflushed_suffix() {
        let plan = FaultPlan::crash_after_appends(5);
        let mut wal = Wal::create(
            Box::new(FaultInjector::new(plan)),
            FlushPolicy::PerBatch(2),
            2,
        )
        .unwrap();
        // Header append is ordinal 1; four record appends succeed and
        // the fifth (ordinal 6) crashes the medium.
        let mut appended = 0;
        let err = loop {
            match wal.append(&WalRecord::Remove { id: appended }) {
                Ok(()) => appended += 1,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, WalError::Io { op: "append", .. }));
        assert_eq!(appended, 4);
        assert!(matches!(
            wal.append(&WalRecord::EpochClose),
            Err(WalError::Poisoned)
        ));

        let mut store = wal.into_store();
        let replay = Wal::replay(store.as_mut()).unwrap();
        // PerBatch(2) syncs behind the caller: the barrier after record
        // 4 landed the one after record 2, and its own sync was still in
        // flight when the medium crashed.
        assert_eq!(replay.records.len(), 2);
        assert!(replay.torn.is_none());
    }

    #[test]
    fn flush_failure_loses_staged_bytes() {
        let plan = FaultPlan::flush_fail_at(2); // header flush is #1
        let mut wal = Wal::create(
            Box::new(FaultInjector::new(plan)),
            FlushPolicy::PerBatch(3),
            2,
        )
        .unwrap();
        wal.append(&WalRecord::Remove { id: 1 }).unwrap();
        wal.append(&WalRecord::Remove { id: 2 }).unwrap();
        let err = wal.sync().unwrap_err();
        assert!(matches!(err, WalError::Io { op: "flush", .. }));
        assert_eq!(err.io_kind(), Some(io::ErrorKind::Other));
        let mut store = wal.into_store();
        let replay = Wal::replay(store.as_mut()).unwrap();
        assert!(
            replay.records.is_empty(),
            "staged records were lost with the flush"
        );
    }

    #[test]
    fn a_crash_keeps_what_the_barrier_before_the_last_one_covered() {
        let records: Vec<WalRecord> = sample_records().into_iter().cycle().take(40).collect();
        for policy in [FlushPolicy::PerBatch(4), FlushPolicy::PerBatch(u32::MAX)] {
            // The header is append #1: crash on every record append.
            for crash_after in 1..=records.len() as u64 {
                let injector = FaultInjector::new(FaultPlan::crash_after_appends(crash_after));
                let mut wal = Wal::create(Box::new(injector.clone()), policy, 2).unwrap();
                // Records covered by each barrier, the header's first.
                let mut covered = vec![0];
                for (i, rec) in records.iter().enumerate() {
                    let flushes = injector.flushes();
                    if wal.append(rec).is_err() {
                        break;
                    }
                    if injector.flushes() > flushes {
                        covered.push(i + 1);
                    }
                }
                assert!(injector.crashed());
                let image = injector.surviving();
                let replay = Wal::replay(&mut MemBacking::from_bytes(image)).unwrap();
                let kept = replay.records.len();
                assert_eq!(replay.records[..], records[..kept]);
                // The contract promises at least what the barrier before
                // the last one covered; the injector keeps exactly that,
                // because the last barrier's sync had not landed.
                let before_last = covered[covered.len().saturating_sub(2)];
                assert_eq!(kept, before_last, "{policy}, crash after {crash_after}");
            }
        }
    }

    #[test]
    fn sync_makes_every_appended_record_durable() {
        let records = fourteen_records();
        for policy in [FlushPolicy::PerBatch(4), FlushPolicy::PerBatch(u32::MAX)] {
            // Header plus the records succeed; the next append crashes.
            let plan = FaultPlan::crash_after_appends(records.len() as u64 + 1);
            let injector = FaultInjector::new(plan);
            let mut wal = Wal::create(Box::new(injector.clone()), policy, 2).unwrap();
            for rec in &records {
                wal.append(rec).unwrap();
            }
            wal.sync().unwrap();
            assert!(wal.append(&WalRecord::EpochClose).is_err());
            let image = injector.surviving();
            let replay = Wal::replay(&mut MemBacking::from_bytes(image)).unwrap();
            assert_eq!(replay.records, records, "{policy}");
        }
    }

    #[test]
    fn a_failed_behind_sync_surfaces_at_the_next_barrier_and_poisons_the_log() {
        let plan = FaultPlan::flush_fail_at(2); // header flush is #1
        let mut wal = Wal::create(
            Box::new(FaultInjector::new(plan)),
            FlushPolicy::PerBatch(3),
            2,
        )
        .unwrap();
        // Record 3's barrier is flush #2: its sync fails behind the caller.
        for id in 1..=5 {
            wal.append(&WalRecord::Remove { id }).unwrap();
        }
        let err = wal.append(&WalRecord::Remove { id: 6 }).unwrap_err();
        assert!(matches!(err, WalError::Io { op: "flush", .. }), "{err}");
        assert!(matches!(
            wal.append(&WalRecord::Remove { id: 7 }),
            Err(WalError::Poisoned)
        ));
        assert!(matches!(wal.sync(), Err(WalError::Poisoned)));
        let mut store = wal.into_store();
        let replay = Wal::replay(store.as_mut()).unwrap();
        assert!(
            replay.records.is_empty(),
            "what the failed sync covered, and all after it, is lost"
        );
    }

    #[test]
    fn enospc_fails_append_without_crashing_the_medium() {
        let plan = FaultPlan::enospc_at(2);
        let mut wal = Wal::create(
            Box::new(FaultInjector::new(plan)),
            FlushPolicy::PerRecord,
            2,
        )
        .unwrap();
        let err = wal.append(&WalRecord::Remove { id: 1 }).unwrap_err();
        assert_eq!(err.io_kind(), Some(io::ErrorKind::StorageFull));
        // Poisoned from the caller's perspective, but the durable image
        // is intact: replay sees a clean, empty log.
        let mut store = wal.into_store();
        let replay = Wal::replay(store.as_mut()).unwrap();
        assert!(replay.records.is_empty());
        assert!(replay.torn.is_none());
    }

    #[test]
    fn torn_write_leaves_partial_frame_for_replay_to_truncate() {
        // Header is append #1; the first record append (#2) tears after
        // 5 bytes of its frame.
        let plan = FaultPlan::torn_write_at(2, 5);
        let mut wal = Wal::create(
            Box::new(FaultInjector::new(plan)),
            FlushPolicy::PerRecord,
            2,
        )
        .unwrap();
        let err = wal.append(&WalRecord::EpochClose).unwrap_err();
        assert!(matches!(err, WalError::Io { op: "append", .. }));
        let mut store = wal.into_store();
        let replay = Wal::replay(store.as_mut()).unwrap();
        assert!(replay.records.is_empty());
        let torn = replay.torn.unwrap();
        assert_eq!(torn.offset, WAL_HEADER_LEN);
        assert_eq!(torn.dropped_bytes, 5);
    }

    #[test]
    fn short_read_shrinks_the_recovered_prefix() {
        let mut wal = Wal::create(
            Box::new(FaultInjector::new(FaultPlan::none().with_short_read(3))),
            FlushPolicy::PerRecord,
            2,
        )
        .unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let mut store = wal.into_store();
        let replay = Wal::replay(store.as_mut()).unwrap();
        assert_eq!(replay.records.len(), sample_records().len() - 1);
        assert!(replay.torn.is_some());
    }

    /// Fourteen records: two epochs, then two records no barrier of
    /// `PerBatch(3)` or `PerBatch(u32::MAX)` covers.
    fn fourteen_records() -> Vec<WalRecord> {
        sample_records().into_iter().cycle().take(14).collect()
    }

    const POLICIES: [FlushPolicy; 3] = [
        FlushPolicy::PerRecord,
        FlushPolicy::PerBatch(3),
        FlushPolicy::PerBatch(u32::MAX),
    ];

    #[test]
    fn file_backing_writes_once_per_barrier_the_bytes_of_a_memory_log() {
        let records = fourteen_records();
        // 1-based ordinals of the records whose append is a barrier.
        let barriers: [Vec<usize>; 3] = [(1..=14).collect(), vec![3, 6, 9, 12], vec![6, 12]];
        for (policy, barriers) in POLICIES.into_iter().zip(barriers) {
            let mut mem = Wal::create(Box::new(MemBacking::new()), policy, 2).unwrap();
            for rec in &records {
                mem.append(rec).unwrap();
            }
            let image = mem.into_store().read_durable().unwrap();

            let path = TempPath::new("barriers");
            let mut wal =
                Wal::create(Box::new(FileBacking::create(&path).unwrap()), policy, 2).unwrap();
            let mut durable = WAL_HEADER_LEN as usize;
            for (i, rec) in records.iter().enumerate() {
                wal.append(rec).unwrap();
                if barriers.contains(&(i + 1)) {
                    durable = wal.offset() as usize;
                }
                let on_disk = std::fs::read(&path).unwrap();
                assert_eq!(on_disk, image[..durable], "{policy}, record {}", i + 1);
            }
            assert_eq!(
                durable < image.len(),
                policy != FlushPolicy::PerRecord,
                "{policy}: a tail stays staged"
            );
            drop(wal);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                image,
                "{policy}: drop writes it"
            );
        }
    }
}
