//! Write-ahead log of structural index mutations.
//!
//! The log is a file of the [`frame`] format (magic `"ACXW"`, version
//! 2): every structural mutation of the index is one frame.
//! `Insert`/`Remove`/`Update` carry object id and flat coordinates,
//! `Merge`/`Materialize` name the affected cluster by its serialized
//! **signature** (slot numbers are not stable across a replay,
//! signatures are), and `EpochClose` marks the end of a reorganization
//! pass so replay closes the statistics epoch exactly where the live
//! index did.
//!
//! Replay ([`Wal::replay`]) keeps every frame before the first bad one
//! — cut short, oversized, failing its checksum, or not a record —
//! and reports the rest as a **torn tail** ([`TornTail`]), which
//! recovery truncates. A record that survives its CRC is trusted; a
//! record that does not marks the end of history.
//!
//! Durability is mediated by the [`BackingStore`] trait, which
//! [`FileBacking`] implements over a real file. The trait is public so
//! other media implement it from outside this crate, as the workspace's
//! test-support crate (`acx_testkit`) does with an in-memory log and a
//! deterministic fault injector. The [`FlushPolicy`] decides how often
//! appended frames are made durable: per record, per batch of N
//! records, or only at epoch-close markers.
//!
//! [`FileBacking`] group-commits: frames are staged in the process and
//! written with one positioned write per barrier. What the barrier
//! then waits for depends on the policy:
//!
//! - `PerRecord` syncs in the caller ([`BackingStore::flush`]): a
//!   record is on stable storage before its mutation applies.
//! - `PerBatch` and `PerEpoch` hand the `fdatasync` to the log's own
//!   thread ([`BackingStore::flush_behind`]) and return once the
//!   frames are written. So the event whose reorganization pass logs
//!   the `EpochClose` marker does not wait on the disk.
//!
//! What survives which crash under `PerBatch` and `PerEpoch`:
//!
//! - **Process crash.** Every barrier's frames are in the file when
//!   the barrier returns, so only the records appended since the last
//!   barrier are lost.
//! - **Power cut.** A barrier waits for the sync before it, so at most
//!   one sync is in flight. Up to the records appended since the
//!   barrier *before* the last one are lost.
//! - **[`Wal::sync`]** (and `AdaptiveClusterIndex::sync_wal` above it)
//!   is the durability point: it waits for the sync in flight and then
//!   syncs in the caller, so everything appended survives both.
//!
//! A write error surfaces at the barrier that wrote, and a sync error
//! on the log's thread at the next barrier, sync or truncation: the
//! append that hit it fails and the log is poisoned.
//!
//! The header's **checkpoint id** couples the log to the checkpoint
//! that last truncated it: [`Wal::reset_to`] stamps the id of the
//! checkpoint whose save superseded the log's records. Recovery
//! compares the stamp against the loaded checkpoint's id and discards
//! a log whose records the checkpoint already absorbed — the crash
//! window between "checkpoint written" and "log truncated" replays
//! nothing instead of double-applying history.

use std::any::Any;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use acx_geom::Scalar;

use crate::frame::{self, Corruption, Cursor, Frames, Header};

const WAL_MAGIC: &[u8; 4] = b"ACXW";
/// Version 2 added the checkpoint id to the header.
const WAL_VERSION: u32 = 2;
/// Header bytes: magic + version + dims + checkpoint id.
pub const WAL_HEADER_LEN: u64 = frame::HEADER_LEN as u64;

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One logged structural mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Object inserted; coordinates are `2·dims` scalars (lo then hi
    /// per dimension, interleaved as the index stores them).
    Insert { id: u32, coords: Vec<Scalar> },
    /// Object removed.
    Remove { id: u32 },
    /// Object re-described in place (logically remove + insert).
    Update { id: u32, coords: Vec<Scalar> },
    /// Cluster with this serialized signature merged into its parent.
    Merge { signature: Vec<u8> },
    /// Candidate `candidate` of the cluster with this serialized
    /// signature materialized as a child. The candidate index is stable
    /// because candidate generation is a pure function of the
    /// signature.
    Materialize { signature: Vec<u8>, candidate: u32 },
    /// A reorganization pass finished: replay closes the statistics
    /// epoch here exactly as the live index did.
    EpochClose,
}

const TAG_INSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_UPDATE: u8 = 3;
const TAG_MERGE: u8 = 4;
const TAG_MATERIALIZE: u8 = 5;
const TAG_EPOCH_CLOSE: u8 = 6;

impl WalRecord {
    /// Appends the record payload (without framing) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Insert { id, coords } => {
                out.push(TAG_INSERT);
                encode_id_coords(out, *id, coords);
            }
            WalRecord::Remove { id } => {
                out.push(TAG_REMOVE);
                out.extend_from_slice(&id.to_le_bytes());
            }
            WalRecord::Update { id, coords } => {
                out.push(TAG_UPDATE);
                encode_id_coords(out, *id, coords);
            }
            WalRecord::Merge { signature } => {
                out.push(TAG_MERGE);
                frame::put_bytes(out, signature);
            }
            WalRecord::Materialize {
                signature,
                candidate,
            } => {
                out.push(TAG_MATERIALIZE);
                frame::put_bytes(out, signature);
                out.extend_from_slice(&candidate.to_le_bytes());
            }
            WalRecord::EpochClose => out.push(TAG_EPOCH_CLOSE),
        }
    }

    /// Parses a record payload. `None` means the payload is malformed
    /// (unknown tag, short buffer, trailing bytes) — replay treats that
    /// exactly like a failed checksum.
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let (&tag, body) = payload.split_first()?;
        let mut cur = Cursor::new(body);
        let rec = match tag {
            TAG_INSERT => {
                decode_id_coords(&mut cur).map(|(id, coords)| WalRecord::Insert { id, coords })
            }
            TAG_REMOVE => cur.u32().map(|id| WalRecord::Remove { id }),
            TAG_UPDATE => {
                decode_id_coords(&mut cur).map(|(id, coords)| WalRecord::Update { id, coords })
            }
            TAG_MERGE => cur.bytes().map(|s| WalRecord::Merge {
                signature: s.to_vec(),
            }),
            TAG_MATERIALIZE => cur.bytes().and_then(|s| {
                Ok(WalRecord::Materialize {
                    signature: s.to_vec(),
                    candidate: cur.u32()?,
                })
            }),
            TAG_EPOCH_CLOSE => Ok(WalRecord::EpochClose),
            _ => return None,
        };
        rec.ok().filter(|_| cur.finish().is_ok())
    }
}

fn encode_id_coords(out: &mut Vec<u8>, id: u32, coords: &[Scalar]) {
    out.extend_from_slice(&id.to_le_bytes());
    // Exact for every record written: an index logs `2·dims` ≤ 131 070
    // coordinates, and a record past `u32::MAX` of them would be over
    // `MAX_FRAME`, which `push_frame` refuses.
    out.extend_from_slice(&(coords.len() as u32).to_le_bytes());
    for v in coords {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn decode_id_coords(cur: &mut Cursor<'_>) -> Result<(u32, Vec<Scalar>), Corruption> {
    let id = cur.u32()?;
    let n = cur.u32()? as usize;
    let coords = cur.items(n, 4)?.as_chunks().0;
    let coords = coords.iter().map(|&b| Scalar::from_le_bytes(b)).collect();
    Ok((id, coords))
}

// ---------------------------------------------------------------------------
// Flush policy
// ---------------------------------------------------------------------------

/// How often appended records are made durable (`fsync` frequency).
///
/// Until a barrier covers it, a [`FileBacking`] stages a record in the
/// process, where a process crash or a power cut loses it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush after every record — maximum durability, one sync per
    /// mutation, in the caller, before the mutation applies.
    #[default]
    PerRecord,
    /// Flush after every N records (and at every epoch-close marker),
    /// syncing behind the caller ([`BackingStore::flush_behind`]). A
    /// process crash loses the records appended since the last
    /// barrier: fewer than N, never a closed epoch. A power cut loses
    /// those since the barrier before the last one: fewer than 2N,
    /// which may include the last epoch's close.
    PerBatch(u32),
    /// Flush only at epoch-close markers, syncing behind the caller. A
    /// process crash may lose the open epoch's mutations, never a
    /// closed one; a power cut may also lose the epoch closed last.
    PerEpoch,
}

impl std::fmt::Display for FlushPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlushPolicy::PerRecord => write!(f, "record"),
            FlushPolicy::PerBatch(n) => write!(f, "batch:{n}"),
            FlushPolicy::PerEpoch => write!(f, "epoch"),
        }
    }
}

// ---------------------------------------------------------------------------
// Backing stores
// ---------------------------------------------------------------------------

/// The durable medium under a [`Wal`]: an append-only byte device with
/// an explicit durability barrier.
///
/// Contract: `append` stages bytes at the tail (they are readable
/// immediately but survive a crash only once `flush` returns `Ok`);
/// `read_durable` returns the full current image for replay;
/// `truncate` discards everything past `len` bytes (recovery uses it to
/// repair a torn tail). A `Box<dyn BackingStore>` upcasts to
/// `Box<dyn Any>`, so its holder can get the concrete store back.
pub trait BackingStore: Any + std::fmt::Debug + Send + Sync {
    /// Appends bytes at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Durability barrier: everything appended so far survives a crash.
    fn flush(&mut self) -> io::Result<()>;
    /// Barrier whose sync lands after it returns: everything appended
    /// so far is handed to the medium (it survives a process crash) and
    /// becomes durable later. An error of that later sync surfaces at
    /// the next `flush_behind`, `flush` or `truncate`. The default is
    /// a full [`flush`](BackingStore::flush).
    fn flush_behind(&mut self) -> io::Result<()> {
        self.flush()
    }
    /// Reads the entire current log image (for replay).
    fn read_durable(&mut self) -> io::Result<Vec<u8>>;
    /// Discards everything past `len` bytes.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// Staged bytes at which a [`FileBacking`] writes them out without a
/// barrier, so a policy that syncs rarely (`PerEpoch` under a bulk
/// load) holds a bounded log in memory.
const STAGE_LIMIT: usize = 64 * 1024;

/// File-backed log, group-committed: `append` stages bytes in the
/// process, and a barrier writes everything staged with one positioned
/// write at the end of the file. `flush` then calls `File::sync_data`
/// itself; `flush_behind` posts the sync to the backing's own thread
/// (`acx-wal-sync`, spawned by the first `flush_behind`) and returns.
///
/// What survives which crash:
///
/// - Bytes a returned `flush` covered survive a power cut.
/// - Bytes a returned `flush_behind` covered survive a process crash,
///   and a power cut once its sync lands. A `flush_behind` first waits
///   for the previous one's sync, so after a power cut everything up to
///   the `flush_behind` before the last one survives.
/// - Staged bytes survive neither a process crash nor a power cut.
///   They are written out unsynced — and then survive a process crash,
///   not a power cut — once 64 KiB accumulate, before `read_durable`,
///   and when the backing is dropped.
///
/// A failed write keeps the bytes staged, and the next write starts
/// over at the same offset. A failed sync on the thread is kept and
/// returned by the next `flush_behind`, `flush` or `truncate`. `flush`
/// and `truncate` wait until no sync is in flight; dropping the
/// backing writes what is staged and joins the thread.
#[derive(Debug)]
pub struct FileBacking {
    file: File,
    /// Appended bytes not yet written to `file`.
    staged: Vec<u8>,
    /// Bytes written to `file`: where the staged bytes go.
    written: u64,
    /// The sync thread, once a `flush_behind` has spawned it.
    syncer: Option<Syncer>,
}

/// A thread that syncs a [`FileBacking`]'s file on request, one sync
/// at a time.
#[derive(Debug)]
struct Syncer {
    shared: Arc<SyncShared>,
    thread: Option<JoinHandle<()>>,
}

#[derive(Debug, Default)]
struct SyncShared {
    state: Mutex<SyncState>,
    /// Signalled when `state` changes. The owner waits only while a
    /// sync is pending and the thread only while none is, so one
    /// waiter at most.
    changed: Condvar,
}

#[derive(Debug, Default)]
struct SyncState {
    /// A sync was requested and has not finished.
    pending: bool,
    stop: bool,
    /// The first failed sync not yet returned to the owner.
    error: Option<io::Error>,
}

impl Syncer {
    fn spawn(file: &File) -> io::Result<Self> {
        let file = file.try_clone()?;
        let shared = Arc::new(SyncShared::default());
        let theirs = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("acx-wal-sync".into())
            .spawn(move || theirs.serve(&file))?;
        Ok(Syncer {
            shared,
            thread: Some(thread),
        })
    }

    /// Waits until no sync is in flight; returns a failed one's error.
    fn wait_idle(&self) -> io::Result<()> {
        let mut state = self.shared.lock();
        while state.pending {
            state = self.shared.changed.wait(state).expect("wal sync lock");
        }
        state.error.take().map_or(Ok(()), Err)
    }

    /// Requests a sync. The caller has waited for the previous one.
    fn post(&self) {
        self.shared.lock().pending = true;
        self.shared.changed.notify_one();
    }
}

impl SyncShared {
    fn lock(&self) -> MutexGuard<'_, SyncState> {
        self.state.lock().expect("wal sync lock")
    }

    /// The thread's loop: sync on request, outside the lock, until
    /// told to stop with nothing pending.
    fn serve(&self, file: &File) {
        let mut state = self.lock();
        loop {
            if state.pending {
                drop(state);
                let synced = file.sync_data();
                state = self.lock();
                state.pending = false;
                if let Err(e) = synced {
                    state.error.get_or_insert(e);
                }
                self.changed.notify_one();
            } else if state.stop {
                return;
            } else {
                state = self.changed.wait(state).expect("wal sync lock");
            }
        }
    }
}

impl Drop for Syncer {
    /// Lets a sync in flight finish, then joins the thread. Each update
    /// of the state is one store, so a poisoned lock still holds valid
    /// data.
    fn drop(&mut self) {
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.stop = true;
        drop(state);
        self.shared.changed.notify_one();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl FileBacking {
    /// Creates (or truncates) the log file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileBacking {
            file,
            staged: Vec::new(),
            written: 0,
            syncer: None,
        })
    }

    /// Opens an existing log file (creating an empty one if missing),
    /// preserving its contents — the recovery entry point.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let written = file.metadata()?.len();
        Ok(FileBacking {
            file,
            staged: Vec::new(),
            written,
            syncer: None,
        })
    }

    /// Writes the staged bytes at the end of the file, without a sync.
    fn write_staged(&mut self) -> io::Result<()> {
        if !self.staged.is_empty() {
            self.file.write_all_at(&self.staged, self.written)?;
            self.written += self.staged.len() as u64;
            self.staged.clear();
        }
        Ok(())
    }

    /// Waits until the sync thread, if any, has no sync in flight.
    fn wait_idle(&self) -> io::Result<()> {
        self.syncer.as_ref().map_or(Ok(()), Syncer::wait_idle)
    }
}

impl BackingStore for FileBacking {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.staged.extend_from_slice(bytes);
        if self.staged.len() >= STAGE_LIMIT {
            self.write_staged()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.write_staged()?;
        self.wait_idle()?;
        self.file.sync_data()
    }

    /// Writes the staged bytes, waits for the previous sync, and posts
    /// this one to the sync thread.
    fn flush_behind(&mut self) -> io::Result<()> {
        self.write_staged()?;
        let syncer = match &mut self.syncer {
            Some(syncer) => syncer,
            none => none.insert(Syncer::spawn(&self.file)?),
        };
        syncer.wait_idle()?;
        syncer.post();
        Ok(())
    }

    fn read_durable(&mut self) -> io::Result<Vec<u8>> {
        self.write_staged()?;
        self.file.seek(SeekFrom::Start(0))?;
        let mut out = Vec::new();
        self.file.read_to_end(&mut out)?;
        Ok(out)
    }

    /// Cuts the file only when `len` falls inside it; staged bytes past
    /// `len` are dropped unwritten, so resetting a log on a full disk
    /// writes nothing first. Waits for a sync in flight first.
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.wait_idle()?;
        if len < self.written {
            self.file.set_len(len)?;
            self.written = len;
            self.staged.clear();
        } else {
            self.staged.truncate((len - self.written) as usize);
        }
        Ok(())
    }
}

impl Drop for FileBacking {
    /// Writes staged bytes out without a sync, so dropping a log that
    /// was never synced leaves the bytes a write per append would have
    /// left. A write error is ignored: no barrier covered those bytes.
    /// The sync thread is joined after, when the fields drop.
    fn drop(&mut self) {
        let _ = self.write_staged();
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// WAL failures, with enough fault context (operation, byte offset,
/// record ordinal) to locate the damage.
#[derive(Debug)]
pub enum WalError {
    /// The medium failed during `op` at byte `offset`.
    Io {
        op: &'static str,
        offset: u64,
        source: io::Error,
    },
    /// The log is structurally damaged before any torn tail could be
    /// identified (e.g. bad magic).
    Corrupt(Corruption),
    /// The log was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The log's dimensionality does not match the index it is replayed
    /// into.
    DimensionMismatch { expected: usize, actual: usize },
    /// A previous append or flush failed; the log refuses further
    /// appends until it is reset (durability cannot be silently
    /// re-promised over a hole).
    Poisoned,
}

impl WalError {
    /// Wraps a failure of the medium during `op` at byte `offset`.
    fn io(op: &'static str, offset: u64) -> impl FnOnce(io::Error) -> WalError {
        move |source| WalError::Io { op, offset, source }
    }

    /// The underlying [`io::ErrorKind`], when the failure came from the
    /// medium.
    pub fn io_kind(&self) -> Option<io::ErrorKind> {
        match self {
            WalError::Io { source, .. } => Some(source.kind()),
            _ => None,
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { op, offset, source } => {
                write!(f, "wal {op} failed at byte {offset}: {source}")
            }
            WalError::Corrupt(c) => write!(f, "corrupt wal at {c}"),
            WalError::UnsupportedVersion(v) => write!(f, "unsupported wal version {v}"),
            WalError::DimensionMismatch { expected, actual } => {
                write!(f, "wal dimensionality {actual} != the index's {expected}")
            }
            WalError::Poisoned => write!(f, "wal poisoned by an earlier failure; reset it"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(source: io::Error) -> Self {
        WalError::io("i/o", 0)(source)
    }
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// The surviving prefix of a replayed log.
#[derive(Debug)]
pub struct WalReplay {
    /// Dimensionality from the header; `None` when the log was empty
    /// (or its header itself was torn).
    pub dims: Option<usize>,
    /// Id of the checkpoint that last truncated the log, from the
    /// header; `None` exactly when `dims` is.
    pub checkpoint_id: Option<u64>,
    /// Every record whose checksum verified, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + whole frames).
    pub valid_len: u64,
    /// The torn tail, when the log did not end at a frame boundary.
    pub torn: Option<TornTail>,
}

/// Where a log stopped being trustworthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first bad frame.
    pub offset: u64,
    /// Ordinal (0-based) of the first bad record.
    pub record: u64,
    /// Bytes past the valid prefix that recovery truncates.
    pub dropped_bytes: u64,
}

/// Append-side handle over a [`BackingStore`]: frames records,
/// checksums them, and flushes per [`FlushPolicy`]. A failed append or
/// flush **poisons** the log — later appends return
/// [`WalError::Poisoned`] instead of pretending the hole is durable.
#[derive(Debug)]
pub struct Wal {
    store: Box<dyn BackingStore>,
    policy: FlushPolicy,
    dims: usize,
    /// Id of the checkpoint that last truncated this log (0 = never
    /// checkpointed); written into the header so recovery can tell a
    /// live suffix from a log a checkpoint already superseded.
    checkpoint_id: u64,
    offset: u64,
    records: u64,
    unflushed: u32,
    poisoned: bool,
    /// The frame being appended, reused so no record allocates.
    frame: Vec<u8>,
}

impl Wal {
    /// Starts a fresh log on `store` (truncating any previous content)
    /// and makes the header durable.
    pub fn create(
        store: Box<dyn BackingStore>,
        policy: FlushPolicy,
        dims: usize,
    ) -> Result<Self, WalError> {
        let mut wal = Wal {
            store,
            policy,
            dims,
            checkpoint_id: 0,
            offset: 0,
            records: 0,
            unflushed: 0,
            poisoned: false,
            frame: Vec::new(),
        };
        wal.write_header()?;
        Ok(wal)
    }

    /// Reopens a log for appending after [`Wal::replay`]-based
    /// recovery: verifies the header dimensionality, truncates any torn
    /// tail, rewrites a fresh header if even the header was torn, and
    /// positions the append offset at the end of the valid prefix.
    /// Returns the replay so the caller can apply the surviving
    /// records.
    pub fn reopen(
        mut store: Box<dyn BackingStore>,
        policy: FlushPolicy,
        dims: usize,
    ) -> Result<(Self, WalReplay), WalError> {
        let replay = Self::replay(store.as_mut())?;
        if let Some(actual) = replay.dims.filter(|&d| d != dims) {
            let expected = dims;
            return Err(WalError::DimensionMismatch { expected, actual });
        }
        if replay.torn.is_some() {
            store
                .truncate(replay.valid_len)
                .map_err(WalError::io("truncate", replay.valid_len))?;
        }
        let mut wal = Wal {
            store,
            policy,
            dims,
            checkpoint_id: replay.checkpoint_id.unwrap_or(0),
            offset: replay.valid_len,
            records: replay.records.len() as u64,
            unflushed: 0,
            poisoned: false,
            frame: Vec::new(),
        };
        if replay.valid_len < WAL_HEADER_LEN {
            wal.write_header()?;
        }
        Ok((wal, replay))
    }

    fn write_header(&mut self) -> Result<(), WalError> {
        self.store
            .truncate(0)
            .map_err(WalError::io("truncate", 0))?;
        let header = Header {
            magic: *WAL_MAGIC,
            version: WAL_VERSION,
            dims: self.dims,
            checkpoint_id: self.checkpoint_id,
        }
        .encode();
        self.store
            .append(&header)
            .map_err(WalError::io("append", 0))?;
        self.store.flush().map_err(WalError::io("flush", 0))?;
        self.offset = WAL_HEADER_LEN;
        self.records = 0;
        self.unflushed = 0;
        self.poisoned = false;
        Ok(())
    }

    /// Appends one record and flushes according to the policy
    /// (epoch-close markers force a barrier under both `PerEpoch` and
    /// `PerBatch`, so a closed epoch is never lost to a partial batch).
    /// `PerRecord` syncs before returning; the other two sync behind
    /// the caller ([`BackingStore::flush_behind`]).
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        let frame = &mut self.frame;
        frame.clear();
        frame::push_frame(frame, |out| record.encode_into(out))
            .map_err(WalError::io("append", self.offset))?;
        if let Err(source) = self.store.append(frame) {
            self.poisoned = true;
            return Err(WalError::io("append", self.offset)(source));
        }
        self.offset += frame.len() as u64;
        self.records += 1;
        self.unflushed += 1;
        let flush_now = match self.policy {
            FlushPolicy::PerRecord => true,
            FlushPolicy::PerBatch(n) => {
                self.unflushed >= n || matches!(record, WalRecord::EpochClose)
            }
            FlushPolicy::PerEpoch => matches!(record, WalRecord::EpochClose),
        };
        if flush_now {
            self.barrier(self.policy != FlushPolicy::PerRecord)?;
        }
        Ok(())
    }

    /// Forces a durability barrier regardless of policy, synced in the
    /// caller: when it returns, every appended record survives a power
    /// cut.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.barrier(false)
    }

    /// A barrier whose sync lands in the caller, or behind it.
    fn barrier(&mut self, behind: bool) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        let flushed = if behind {
            self.store.flush_behind()
        } else {
            self.store.flush()
        };
        if let Err(source) = flushed {
            self.poisoned = true;
            return Err(WalError::io("flush", self.offset)(source));
        }
        self.unflushed = 0;
        Ok(())
    }

    /// Truncates the log back to a fresh header stamped with
    /// `checkpoint_id` — the id of the checkpoint whose save just
    /// superseded every record. Recovery compares this stamp against
    /// the checkpoint it loads: a log stamped *older* than the
    /// checkpoint is a crash caught between the checkpoint save and
    /// this reset, and its records must not be replayed. Clears
    /// poisoning on success.
    pub fn reset_to(&mut self, checkpoint_id: u64) -> Result<(), WalError> {
        self.checkpoint_id = checkpoint_id;
        self.write_header()
    }

    /// Id of the checkpoint that last truncated this log (0 = none).
    pub fn checkpoint_id(&self) -> u64 {
        self.checkpoint_id
    }

    /// Records appended (or replayed) so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Current append offset in bytes.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The configured flush policy.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// The log dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Surrenders the backing store (e.g. to read its surviving image).
    pub fn into_store(self) -> Box<dyn BackingStore> {
        self.store
    }

    /// Parses the durable image of `store`: every frame up to the first
    /// missing, oversized, or checksum-failing one. Does **not** modify
    /// the store; [`Wal::reopen`] truncates the torn tail.
    pub fn replay(store: &mut dyn BackingStore) -> Result<WalReplay, WalError> {
        let bytes = store.read_durable().map_err(WalError::io("read", 0))?;
        let Some(header) = Header::parse(&bytes, *WAL_MAGIC).map_err(WalError::Corrupt)? else {
            // An empty log, or one whose header tore: nothing survives.
            let torn = (!bytes.is_empty()).then_some(TornTail {
                offset: 0,
                record: 0,
                dropped_bytes: bytes.len() as u64,
            });
            return Ok(WalReplay {
                dims: None,
                checkpoint_id: None,
                records: Vec::new(),
                valid_len: 0,
                torn,
            });
        };
        if header.version != WAL_VERSION {
            return Err(WalError::UnsupportedVersion(header.version));
        }
        // Everything from the first frame that is bad or no record on is
        // the torn tail.
        let mut records = Vec::new();
        let torn = Frames::after_header(&bytes).find_map(|frame| {
            match frame.map(|f| (f.offset, WalRecord::decode(f.payload()))) {
                Ok((_, Some(record))) => {
                    records.push(record);
                    None
                }
                Ok((offset, None)) => Some(offset),
                Err(bad) => Some(bad.offset),
            }
        });
        let valid_len = torn.unwrap_or(bytes.len() as u64);
        Ok(WalReplay {
            dims: Some(header.dims),
            checkpoint_id: Some(header.checkpoint_id),
            valid_len,
            torn: torn.map(|offset| TornTail {
                offset,
                record: records.len() as u64,
                dropped_bytes: bytes.len() as u64 - offset,
            }),
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn record_encode_decode_roundtrip() {
        for rec in sample_records() {
            let mut payload = Vec::new();
            rec.encode_into(&mut payload);
            assert_eq!(WalRecord::decode(&payload), Some(rec.clone()), "{rec:?}");
            // Any strict prefix must fail to decode (or decode to a
            // different record is impossible because trailing bytes are
            // rejected).
            for cut in 0..payload.len() {
                assert_ne!(WalRecord::decode(&payload[..cut]), Some(rec.clone()));
            }
        }
        assert_eq!(WalRecord::decode(&[99]), None, "unknown tag");
        assert_eq!(WalRecord::decode(&[]), None, "empty payload");
    }

    #[test]
    fn wal_error_paths_carry_fault_context() {
        let io_err = WalError::Io {
            op: "append",
            offset: 42,
            source: io::Error::new(io::ErrorKind::StorageFull, "full"),
        };
        assert!(io_err.to_string().contains("append"));
        assert!(io_err.to_string().contains("42"));
        assert_eq!(io_err.io_kind(), Some(io::ErrorKind::StorageFull));
        assert!(std::error::Error::source(&io_err).is_some());

        let corrupt = WalError::Corrupt(Corruption {
            offset: 12,
            record: 3,
            reason: "bad".into(),
        });
        assert!(corrupt.to_string().contains("record 3"));
        assert!(corrupt.io_kind().is_none());

        let from: WalError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert_eq!(from.io_kind(), Some(io::ErrorKind::NotFound));

        for e in [
            WalError::UnsupportedVersion(9),
            WalError::DimensionMismatch {
                expected: 2,
                actual: 3,
            },
            WalError::Poisoned,
        ] {
            assert!(!e.to_string().is_empty());
            assert!(std::error::Error::source(&e).is_none());
        }
    }

    /// A fresh path in the temp dir, unique per test and run.
    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "acx-wal-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    /// Fourteen records: two epochs, then two records no barrier of
    /// `PerBatch(3)` or `PerEpoch` covers.
    fn fourteen_records() -> Vec<WalRecord> {
        sample_records().into_iter().cycle().take(14).collect()
    }

    const POLICIES: [FlushPolicy; 3] = [
        FlushPolicy::PerRecord,
        FlushPolicy::PerBatch(3),
        FlushPolicy::PerEpoch,
    ];

    #[test]
    fn file_backing_roundtrip_and_reopen() {
        for policy in POLICIES {
            let path = temp_path("roundtrip");
            let mut wal =
                Wal::create(Box::new(FileBacking::create(&path).unwrap()), policy, 2).unwrap();
            for rec in fourteen_records() {
                wal.append(&rec).unwrap();
            }
            drop(wal); // no sync: reopen from the file alone
            let (_, replay) =
                Wal::reopen(Box::new(FileBacking::open(&path).unwrap()), policy, 2).unwrap();
            assert_eq!(replay.records, fourteen_records(), "{policy}");
            assert!(replay.torn.is_none());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn file_backing_reads_and_truncates_through_staged_bytes() {
        let path = temp_path("staged");
        let mut store = FileBacking::create(&path).unwrap();
        store.append(&[1; 100]).unwrap();
        store.flush().unwrap();
        store.append(&[2; 50]).unwrap();
        let mut expected = [vec![1; 100], vec![2; 50]].concat();
        assert_eq!(store.read_durable().unwrap(), expected, "staged bytes read");

        // Cut inside the staged bytes, then inside the written ones.
        store.append(&[3; 30]).unwrap();
        store.truncate(160).unwrap();
        expected.extend_from_slice(&[3; 10]);
        assert_eq!(store.read_durable().unwrap(), expected);
        store.append(&[4; 30]).unwrap();
        store.truncate(60).unwrap();
        store.append(&[5; 5]).unwrap();
        drop(store);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            [vec![1; 60], vec![5; 5]].concat()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backing_truncate_and_reset_reopen_to_the_expected_records() {
        let records = fourteen_records();
        // Truncate below the written length while a record is staged.
        let path = temp_path("truncate");
        let mut wal = Wal::create(
            Box::new(FileBacking::create(&path).unwrap()),
            FlushPolicy::PerBatch(3),
            2,
        )
        .unwrap();
        let mut offsets = Vec::new();
        for rec in &records[..4] {
            wal.append(rec).unwrap();
            offsets.push(wal.offset());
        }
        let mut store = wal.into_store();
        store.truncate(offsets[1]).unwrap();
        drop(store);
        let (_, replay) = Wal::reopen(
            Box::new(FileBacking::open(&path).unwrap()),
            FlushPolicy::PerBatch(3),
            2,
        )
        .unwrap();
        assert_eq!(replay.records, records[..2]);
        assert!(replay.torn.is_none());
        std::fs::remove_file(&path).unwrap();

        // Reset with records staged, then append more.
        let path = temp_path("reset");
        let mut wal = Wal::create(
            Box::new(FileBacking::create(&path).unwrap()),
            FlushPolicy::PerEpoch,
            2,
        )
        .unwrap();
        for rec in &records[..4] {
            wal.append(rec).unwrap();
        }
        wal.reset_to(3).unwrap();
        for rec in &records[6..8] {
            wal.append(rec).unwrap();
        }
        drop(wal);
        let (wal, replay) = Wal::reopen(
            Box::new(FileBacking::open(&path).unwrap()),
            FlushPolicy::PerEpoch,
            2,
        )
        .unwrap();
        assert_eq!(wal.checkpoint_id(), 3);
        assert_eq!(replay.records, records[6..8]);
        assert!(replay.torn.is_none());
        drop(wal);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backing_writes_out_a_full_stage_without_a_barrier() {
        let path = temp_path("spill");
        let mut store = FileBacking::create(&path).unwrap();
        let chunk = [7u8; 1024];
        for _ in 0..STAGE_LIMIT / chunk.len() - 1 {
            store.append(&chunk).unwrap();
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        store.append(&chunk).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            STAGE_LIMIT as u64,
            "written out, not synced"
        );
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_behind_barrier_is_in_the_file_when_it_returns() {
        let records = fourteen_records();
        for (policy, barriers) in [
            (FlushPolicy::PerBatch(3), vec![3, 6, 9, 12]),
            (FlushPolicy::PerEpoch, vec![6, 12]),
        ] {
            let path = temp_path("behind");
            let mut wal =
                Wal::create(Box::new(FileBacking::create(&path).unwrap()), policy, 2).unwrap();
            for (i, rec) in records.iter().enumerate() {
                wal.append(rec).unwrap();
                if barriers.contains(&(i + 1)) {
                    // A second handle on the file, as a restarted process
                    // would open it, with the first one still live.
                    let mut reader = FileBacking::open(&path).unwrap();
                    let replay = Wal::replay(&mut reader).unwrap();
                    assert_eq!(replay.records, records[..=i], "{policy}");
                }
            }
            drop(wal);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn file_backing_flush_and_truncate_wait_for_the_sync_thread() {
        type Op = fn(&mut FileBacking) -> io::Result<()>;
        let ops: [(&str, Op, usize); 2] = [
            ("flush", |store| store.flush(), 5 * 512),
            ("truncate", |store| store.truncate(1000), 1000),
        ];
        for (name, op, len) in ops {
            let path = temp_path("idle");
            let mut store = FileBacking::create(&path).unwrap();
            for i in 0..4u8 {
                store.append(&[i; 512]).unwrap();
                store.flush_behind().unwrap();
            }
            store.append(&[9; 512]).unwrap();
            let shared = Arc::clone(&store.syncer.as_ref().expect("spawned").shared);
            // While the sync state is held, the thread cannot finish a
            // sync and `op` cannot see it idle.
            let held = shared.lock();
            let caller = std::thread::spawn(move || (op(&mut store), store));
            std::thread::sleep(std::time::Duration::from_millis(100));
            let returned_early = caller.is_finished();
            // Released before any assertion: dropping the store joins
            // the thread, which needs the lock.
            drop(held);
            let (result, store) = caller.join().unwrap();
            assert!(
                !returned_early,
                "{name} returned without asking the sync thread"
            );
            result.unwrap();
            assert!(
                !shared.lock().pending,
                "{name} returned with a sync in flight"
            );
            drop(store);
            assert_eq!(std::fs::read(&path).unwrap().len(), len, "{name}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn dropping_a_file_backing_joins_its_sync_thread() {
        let path = temp_path("join");
        let mut store = FileBacking::create(&path).unwrap();
        store.append(&[1; 4096]).unwrap();
        store.flush_behind().unwrap();
        store.append(&[2; 10]).unwrap();
        let shared = Arc::clone(&store.syncer.as_ref().expect("spawned").shared);
        let started = std::time::Instant::now();
        drop(store);
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
        assert_eq!(Arc::strong_count(&shared), 1, "the thread has exited");
        assert!(!shared.lock().pending);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            [vec![1; 4096], vec![2; 10]].concat()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn only_a_behind_barrier_spawns_the_sync_thread() {
        let spawned = |wal: Wal| {
            let store: Box<dyn Any> = wal.into_store();
            store.downcast::<FileBacking>().unwrap().syncer.is_some()
        };
        for policy in POLICIES {
            let path = temp_path("spawn");
            let mut wal =
                Wal::create(Box::new(FileBacking::create(&path).unwrap()), policy, 2).unwrap();
            // Header, sync, reset and recovery sync in the caller.
            wal.append(&WalRecord::Remove { id: 1 }).unwrap();
            wal.sync().unwrap();
            wal.reset_to(1).unwrap();
            wal.append(&WalRecord::Remove { id: 2 }).unwrap();
            assert!(!spawned(wal), "{policy}: no policy barrier ran yet");
            let (mut wal, _) =
                Wal::reopen(Box::new(FileBacking::open(&path).unwrap()), policy, 2).unwrap();
            for rec in fourteen_records() {
                wal.append(&rec).unwrap();
            }
            assert_eq!(spawned(wal), policy != FlushPolicy::PerRecord, "{policy}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// `/dev/full` behind the image of an empty log: reopening finds a
    /// valid header, and every byte appended after it fails once
    /// written.
    #[derive(Debug)]
    struct FullDevice {
        device: FileBacking,
        header: Vec<u8>,
    }

    impl BackingStore for FullDevice {
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.device.append(bytes)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.device.flush()
        }
        fn flush_behind(&mut self) -> io::Result<()> {
            self.device.flush_behind()
        }
        fn read_durable(&mut self) -> io::Result<Vec<u8>> {
            Ok(self.header.clone())
        }
        fn truncate(&mut self, _: u64) -> io::Result<()> {
            unreachable!("reopening a whole header truncates nothing")
        }
    }

    #[test]
    fn a_failed_write_surfaces_at_the_barrier() {
        let full = Path::new("/dev/full");
        if !full.exists() {
            eprintln!("skipped: no /dev/full");
            return;
        }
        let mut device = FileBacking::open(full).unwrap();
        device.append(b"staged").unwrap();
        let err = device.flush().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);

        let header = Header {
            magic: *WAL_MAGIC,
            version: WAL_VERSION,
            dims: 2,
            checkpoint_id: 0,
        };
        let store = FullDevice {
            device: FileBacking::open(full).unwrap(),
            header: header.encode().to_vec(),
        };
        let (mut wal, replay) = Wal::reopen(Box::new(store), FlushPolicy::PerBatch(3), 2).unwrap();
        assert!(replay.records.is_empty());
        wal.append(&WalRecord::Remove { id: 1 }).unwrap();
        wal.append(&WalRecord::Remove { id: 2 }).unwrap();
        let err = wal.append(&WalRecord::Remove { id: 3 }).unwrap_err();
        assert!(matches!(err, WalError::Io { op: "flush", .. }), "{err}");
        assert_eq!(err.io_kind(), Some(io::ErrorKind::StorageFull));
        assert!(matches!(
            wal.append(&WalRecord::Remove { id: 4 }),
            Err(WalError::Poisoned)
        ));
    }
}
