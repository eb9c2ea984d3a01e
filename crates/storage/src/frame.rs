//! The one on-disk framing of the write-ahead log and the checkpoint
//! (paper §6): a [`HEADER_LEN`]-byte [`Header`], then frames
//! `[payload_len u32][crc32 u32][tag u8 ‖ body]`, the CRC-32 over the
//! payload, all little-endian. [`Frames`] stops at the first frame that
//! is cut short, empty, over [`MAX_FRAME`] or fails its checksum, and
//! says where: the log truncates there, a checkpoint refuses to load.
//! [`Cursor`] reads a verified body with bounds checks, so a field the
//! body lacks is a typed error naming its frame, never a panic or a
//! blind allocation.

use std::io::{self, Write};
use std::path::Path;

use crate::crc::crc32;

/// Header bytes: magic, version, dims, checkpoint id.
pub const HEADER_LEN: usize = 20;

/// Payloads longer than this are damage, not data: no reader allocates
/// for them.
pub const MAX_FRAME: u32 = 1 << 24;

/// Where a file stops being trustworthy, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// Byte offset of the damaged frame (of the field, in a header).
    pub offset: u64,
    /// Ordinal (0-based) of the damaged frame after the header.
    pub record: u64,
    /// What failed: checksum, bounds or structure.
    pub reason: String,
}

impl Corruption {
    pub fn new(offset: u64, record: u64, reason: impl Into<String>) -> Self {
        let reason = reason.into();
        Corruption {
            offset,
            record,
            reason,
        }
    }
}

impl std::fmt::Display for Corruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (record, offset) = (self.record, self.offset);
        write!(f, "record {record} (byte {offset}): {}", self.reason)
    }
}

/// Errors of a checkpoint file.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure (`InvalidInput`: a frame over [`MAX_FRAME`]).
    Io(io::Error),
    /// The file is not a checkpoint, or a frame of it is damaged or
    /// describes no index a live one could have written.
    Corrupt(Corruption),
    /// The file uses an unsupported format version.
    UnsupportedVersion(u32),
}

impl StoreError {
    /// The underlying [`io::ErrorKind`], when the failure came from the
    /// filesystem.
    pub fn io_kind(&self) -> Option<io::ErrorKind> {
        match self {
            StoreError::Io(e) => Some(e.kind()),
            _ => None,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt(c) => write!(f, "corrupt store at {c}"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported store version {v}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The header a file opens with. Each reader checks the version itself:
/// what a mismatch means is its call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub magic: [u8; 4],
    pub version: u32,
    /// Dimensionality of the objects (never 0 in a parsed header).
    pub dims: usize,
    /// Id of the checkpoint the file belongs to.
    pub checkpoint_id: u64,
}

impl Header {
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0; HEADER_LEN];
        out[..4].copy_from_slice(&self.magic);
        out[4..8].copy_from_slice(&self.version.to_le_bytes());
        let dims = u32::try_from(self.dims).expect("a dimensionality past u32::MAX has no header");
        out[8..12].copy_from_slice(&dims.to_le_bytes());
        out[12..].copy_from_slice(&self.checkpoint_id.to_le_bytes());
        out
    }

    /// Parses the header `bytes` open with, which must carry `magic`;
    /// `Ok(None)` when they are shorter than a header.
    pub fn parse(bytes: &[u8], magic: [u8; 4]) -> Result<Option<Header>, Corruption> {
        let Some(head) = bytes.first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let mut cur = Cursor::new(head);
        if cur.take(4)? != magic {
            return Err(Corruption::new(0, 0, "bad magic"));
        }
        let version = cur.u32()?;
        let dims = cur.u32()? as usize;
        if dims == 0 {
            return Err(Corruption::new(8, 0, "zero dimensions"));
        }
        Ok(Some(Header {
            magic,
            version,
            dims,
            checkpoint_id: cur.u64()?,
        }))
    }
}

/// Appends a `u32` length, then `bytes` — what [`Cursor::bytes`] reads.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    // Exact for every frame written: a field past `u32::MAX` bytes makes
    // its payload longer than `MAX_FRAME`, which `push_frame` refuses.
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Appends one frame to `out`: `payload` writes the tag and body, and
/// their length and checksum are patched in front of them. A payload
/// over [`MAX_FRAME`], which no reader would accept, is taken back out
/// and refused as [`io::ErrorKind::InvalidInput`].
pub fn push_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    payload(out);
    let (head, payload) = out[start..].split_at_mut(8);
    let len = payload.len();
    if len > MAX_FRAME as usize {
        out.truncate(start);
        let why = format!("a frame of {len} bytes is over the {MAX_FRAME}-byte cap");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
    }
    // Exact: `len` is at most `MAX_FRAME`, a `u32`, by the check above.
    head[..4].copy_from_slice(&(len as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
}

/// A frame whose checksum held: its payload and where it lies in its
/// file. Only [`Frames`] makes one, so the payload is never empty.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    payload: &'a [u8],
    pub(crate) offset: u64,
    record: u64,
}

impl<'a> Frame<'a> {
    /// Tag, then body.
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    pub fn tag(&self) -> u8 {
        self.payload[0]
    }

    /// A reader over the body, whose errors name this frame.
    pub fn cursor(&self) -> Cursor<'a> {
        Cursor {
            bytes: self.payload,
            pos: 1,
            offset: self.offset,
            record: self.record,
        }
    }

    pub fn corrupt(&self, reason: impl Into<String>) -> Corruption {
        Corruption::new(self.offset, self.record, reason)
    }
}

/// The frames after a header, up to the end of the bytes or the first
/// bad frame, which ends the walk as an `Err`.
#[derive(Debug)]
pub struct Frames<'a> {
    bytes: &'a [u8],
    /// Where the next frame starts, and its ordinal.
    offset: u64,
    record: u64,
}

impl<'a> Frames<'a> {
    pub fn after_header(bytes: &'a [u8]) -> Self {
        let offset = HEADER_LEN.min(bytes.len()) as u64;
        Frames {
            bytes,
            offset,
            record: 0,
        }
    }

    /// A corruption where the next frame would start.
    pub fn corrupt_here(&self, reason: impl Into<String>) -> Corruption {
        Corruption::new(self.offset, self.record, reason)
    }

    fn read(&self) -> Result<Frame<'a>, Corruption> {
        let rest = &self.bytes[self.offset as usize..];
        let cut = |what| self.corrupt_here(format!("{what} cut short"));
        let head = rest.first_chunk::<8>().ok_or_else(|| cut("frame header"))?;
        let (words, _) = head.as_chunks::<4>();
        let len = u32::from_le_bytes(words[0]);
        if len == 0 || len > MAX_FRAME {
            return Err(self.corrupt_here(format!("frame length {len} outside 1..={MAX_FRAME}")));
        }
        let payload = rest[8..].get(..len as usize).ok_or_else(|| cut("frame"))?;
        if crc32(payload) != u32::from_le_bytes(words[1]) {
            return Err(self.corrupt_here("checksum mismatch"));
        }
        Ok(Frame {
            payload,
            offset: self.offset,
            record: self.record,
        })
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<Frame<'a>, Corruption>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.offset as usize == self.bytes.len() {
            return None;
        }
        let frame = self.read();
        self.offset = match &frame {
            Ok(f) => f.offset + 8 + f.payload.len() as u64,
            // Nothing past a bad frame can be trusted.
            Err(_) => self.bytes.len() as u64,
        };
        self.record += 1;
        Some(frame)
    }
}

/// Bounds-checked little-endian reader over a frame body.
#[derive(Debug, Default)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The frame errors name.
    offset: u64,
    record: u64,
}

impl<'a> Cursor<'a> {
    /// A reader over `bytes` from their first byte, for a payload held
    /// apart from its file: its errors name offset 0, record 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor {
            bytes,
            ..Cursor::default()
        }
    }

    fn corrupt(&self, reason: String) -> Corruption {
        Corruption::new(self.offset, self.record, reason)
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Corruption> {
        let (pos, payload) = (self.pos, self.bytes);
        let slice = pos.checked_add(n).and_then(|end| payload.get(pos..end));
        let slice = slice.ok_or_else(|| self.corrupt(format!("payload cut short at {pos}")))?;
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Corruption> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    pub fn u32(&mut self) -> Result<u32, Corruption> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Result<u64, Corruption> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` length, then that many bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], Corruption> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// `n` items of `size` bytes each, refused before any arithmetic can
    /// overflow.
    pub fn items(&mut self, n: usize, size: usize) -> Result<&'a [u8], Corruption> {
        let len = n.checked_mul(size);
        let len = len.ok_or_else(|| self.corrupt(format!("{n} × {size} bytes overflow")))?;
        self.take(len)
    }

    /// Succeeds when the body has been read to its end.
    pub fn finish(&self) -> Result<(), Corruption> {
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            left => Err(self.corrupt(format!("{left} trailing bytes"))),
        }
    }
}

/// Replaces `path` with `bytes` so that a power loss leaves the old file
/// or the new one: written to `path` + `.tmp`, `fsync`ed, renamed, then
/// the parent directory `fsync`ed. A caller may truncate a log the
/// moment this returns.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: Header = Header {
        magic: *b"ACXT",
        version: 3,
        dims: 2,
        checkpoint_id: 7,
    };

    /// A header and three frames: an empty body, a body of bytes and
    /// one of integers.
    fn sample() -> Vec<u8> {
        let mut out = HEADER.encode().to_vec();
        push_frame(&mut out, |o| o.push(1)).unwrap();
        push_frame(&mut out, |o| {
            o.push(2);
            o.extend_from_slice(&3u32.to_le_bytes());
            o.extend_from_slice(b"abc");
        })
        .unwrap();
        push_frame(&mut out, |o| {
            o.push(3);
            o.extend_from_slice(&u64::MAX.to_le_bytes());
            o.extend_from_slice(&0.5f64.to_le_bytes());
        })
        .unwrap();
        out
    }

    fn frames(bytes: &[u8]) -> Vec<Result<Frame<'_>, Corruption>> {
        Frames::after_header(bytes).collect()
    }

    #[test]
    fn header_and_frames_round_trip() {
        let bytes = sample();
        assert_eq!(Header::parse(&bytes, HEADER.magic), Ok(Some(HEADER)));
        let all: Vec<Frame> = Frames::after_header(&bytes).map(Result::unwrap).collect();
        assert_eq!(all.iter().map(Frame::tag).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(all[0].offset, HEADER_LEN as u64);
        assert_eq!(all[2].record, 2);
        all[0].cursor().finish().unwrap();
        let mut cur = all[1].cursor();
        assert_eq!(cur.bytes().unwrap(), b"abc");
        cur.finish().unwrap();
        let mut cur = all[2].cursor();
        let (word, float) = (cur.u64().unwrap(), cur.u64().unwrap());
        assert_eq!((word, f64::from_bits(float)), (u64::MAX, 0.5));
        cur.finish().unwrap();
    }

    #[test]
    fn empty_stream_round_trips() {
        let bytes = Header { dims: 5, ..HEADER }.encode();
        assert_eq!(
            Header::parse(&bytes, HEADER.magic).unwrap().unwrap().dims,
            5
        );
        assert!(frames(&bytes).is_empty());
    }

    #[test]
    fn header_rejects_bad_magic_future_version_and_zero_dims() {
        let bytes = sample();
        let magic = *b"NOPE";
        let err = Header::parse(&bytes, magic).unwrap_err();
        assert_eq!((err.offset, err.reason.as_str()), (0, "bad magic"));
        // The version is the reader's to refuse: it parses as written.
        let mut future = bytes.clone();
        future[4..8].copy_from_slice(&99u32.to_le_bytes());
        let parsed = Header::parse(&future, HEADER.magic).unwrap().unwrap();
        assert_eq!(parsed.version, 99);
        let mut flat = bytes.clone();
        flat[8..12].copy_from_slice(&0u32.to_le_bytes());
        let err = Header::parse(&flat, HEADER.magic).unwrap_err();
        assert_eq!((err.offset, err.reason.as_str()), (8, "zero dimensions"));
        assert_eq!(
            Header::parse(&bytes[..HEADER_LEN - 1], HEADER.magic),
            Ok(None)
        );
    }

    #[test]
    fn a_bit_flip_is_caught_by_the_checksum_and_ends_the_walk() {
        let mut bytes = sample();
        let second = HEADER_LEN + 8 + 1;
        bytes[second + 8 + 2] ^= 0x01;
        let got = frames(&bytes);
        assert_eq!(got.len(), 2, "the walk stops at the bad frame");
        assert!(got[0].is_ok());
        let bad = got[1].as_ref().unwrap_err();
        assert_eq!((bad.offset, bad.record), (second as u64, 1));
        assert!(bad.reason.contains("checksum"), "{}", bad.reason);
    }

    #[test]
    fn a_truncated_file_ends_in_a_typed_error_at_every_cut() {
        let bytes = sample();
        let starts: Vec<usize> = frames(&bytes)
            .into_iter()
            .map(|f| f.unwrap().offset as usize)
            .collect();
        for cut in HEADER_LEN..bytes.len() {
            let got = frames(&bytes[..cut]);
            match starts.iter().position(|&s| s == cut) {
                // On a frame boundary: a shorter, clean stream.
                Some(kept) => {
                    assert_eq!(got.len(), kept, "cut {cut}");
                    assert!(got.iter().all(Result::is_ok), "cut {cut}");
                }
                None => {
                    let (last, whole) = got.split_last().unwrap();
                    assert!(whole.iter().all(Result::is_ok), "cut {cut}");
                    let bad = last.as_ref().unwrap_err();
                    assert!(
                        bad.reason.contains("cut short"),
                        "cut {cut}: {}",
                        bad.reason
                    );
                }
            }
        }
    }

    #[test]
    fn an_empty_or_oversized_frame_is_refused_before_allocating() {
        for len in [0, MAX_FRAME + 1, u32::MAX] {
            let mut bytes = HEADER.encode().to_vec();
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.push(1);
            let got = frames(&bytes);
            assert_eq!(got.len(), 1);
            let bad = got[0].as_ref().unwrap_err();
            assert!(bad.reason.contains("outside"), "{}", bad.reason);
        }
    }

    /// What a reader would refuse is never written: a payload over the
    /// cap leaves `out` as it was, one at the cap reads back.
    #[test]
    fn push_frame_refuses_a_payload_over_the_cap() {
        let mut out = sample();
        let err = push_frame(&mut out, |o| o.resize(o.len() + MAX_FRAME as usize + 1, 0));
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidInput);
        assert_eq!(out, sample());
        push_frame(&mut out, |o| o.resize(o.len() + MAX_FRAME as usize, 7)).unwrap();
        let last = frames(&out).pop().unwrap().unwrap();
        assert_eq!(last.payload().len(), MAX_FRAME as usize);
    }

    /// A payload held apart from its file reads from its first byte,
    /// with the same bounds checks.
    #[test]
    fn a_bare_cursor_reads_from_the_first_byte() {
        let mut cur = Cursor::new(&[3, 0, 0, 0, b'a', b'b', b'c']);
        assert_eq!(cur.bytes().unwrap(), b"abc");
        cur.finish().unwrap();
        let err = Cursor::new(&[]).u32().unwrap_err();
        assert_eq!((err.offset, err.record), (0, 0));
        assert!(err.reason.contains("cut short"), "{}", err.reason);
    }

    #[test]
    fn a_hostile_member_count_is_rejected_without_allocating() {
        // A verified body that declares `u32::MAX` members of a width
        // whose product overflows: the cursor refuses before any
        // `Vec::with_capacity` could see the size.
        let mut bytes = HEADER.encode().to_vec();
        push_frame(&mut bytes, |o| {
            o.push(9);
            o.extend_from_slice(&u32::MAX.to_le_bytes());
        })
        .unwrap();
        let frame = frames(&bytes).remove(0).unwrap();
        let mut cur = frame.cursor();
        let n = cur.u32().unwrap() as usize;
        let err = cur.items(n, usize::MAX / 2).unwrap_err();
        assert!(err.reason.contains("overflow"), "{}", err.reason);
        let err = cur.items(n, 4).unwrap_err();
        assert!(err.reason.contains("cut short"), "{}", err.reason);
        assert_eq!(err.offset, HEADER_LEN as u64);
        let mut cur = frame.cursor();
        cur.u32().unwrap();
        cur.finish().unwrap();
        let mut cur = frame.cursor();
        assert!(cur.take(2).is_ok() && cur.finish().is_err());
    }

    #[test]
    fn write_atomic_overwrites_and_leaves_no_temp_file() {
        let path = std::env::temp_dir().join(format!("acx-frame-{}.ckpt", std::process::id()));
        write_atomic(&path, &sample()).unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_intact_file_reads_back_every_frame_without_corruption() {
        let path = std::env::temp_dir().join(format!("acx-intact-{}.ckpt", std::process::id()));
        write_atomic(&path, &sample()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(bytes, sample());
        let got = frames(&bytes);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(Result::is_ok), "{got:?}");
    }

    #[test]
    fn store_errors_carry_context() {
        let io_err: StoreError = io::Error::new(io::ErrorKind::PermissionDenied, "no").into();
        assert_eq!(io_err.io_kind(), Some(io::ErrorKind::PermissionDenied));
        assert!(std::error::Error::source(&io_err).is_some());
        assert!(io_err.to_string().contains("i/o error"));
        let corrupt = StoreError::Corrupt(Corruption::new(128, 3, "checksum mismatch"));
        let text = corrupt.to_string();
        assert!(
            text.contains("record 3") && text.contains("byte 128"),
            "{text}"
        );
        assert!(corrupt.io_kind().is_none());
        let version = StoreError::UnsupportedVersion(9);
        assert!(version.to_string().contains('9'));
        assert!(std::error::Error::source(&version).is_none());
    }
}
