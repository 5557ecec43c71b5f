//! Candidate two-column ("binary") tables, plus the checksummed frame
//! format durable files are stored in.
//!
//! The unit of synthesis (paper §3): an *ordered* pair of columns
//! `(left, right)` drawn from one source table, stored as a
//! deduplicated set of `(l, r)` value pairs. Extraction produces these;
//! the synthesis graph's vertices are these.
//!
//! [`FrameWriter`]/[`FrameReader`] are the workspace's one on-disk
//! frame format: the checksummed framing the crash-safe persistence
//! layer (snapshot archives, the delta WAL) stores its records in.
//! Framed files survive process death and must therefore detect every
//! way a file can rot: a versioned magic header binds the file to a
//! format revision and a caller-chosen `kind`, every frame carries a
//! CRC32 of its payload, and a sealed file ends in a trailer recording
//! the frame count. Each failure mode gets its own [`FrameError`]
//! variant, so recovery code can distinguish a clean end of file from a
//! torn tail from actual corruption — the distinction the WAL's
//! truncate-the-torn-record / fail-on-corruption policy rests on.
//! The CRC32 (reflected IEEE polynomial) is hand-rolled — the
//! workspace vendors every dependency, so no checksum crate.

use crate::intern::Sym;
use crate::table::{DomainId, TableId};
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Identifier of a binary candidate table within one extraction run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BinaryId(pub u32);

/// A candidate two-column table `B = {(l_i, r_i)}`.
#[derive(Clone, Debug)]
pub struct BinaryTable {
    /// Identifier within the candidate set.
    pub id: BinaryId,
    /// Source table.
    pub source: TableId,
    /// Provenance domain of the source table (for curation stats).
    pub domain: DomainId,
    /// Index of the left column in the source table.
    pub left_col: u16,
    /// Index of the right column in the source table.
    pub right_col: u16,
    /// Header of the left column, if present (used by name-based
    /// baselines like UnionDomain, not by synthesis itself).
    pub left_header: Option<Sym>,
    /// Header of the right column, if present.
    pub right_header: Option<Sym>,
    /// Deduplicated `(left, right)` value pairs, sorted for fast
    /// set operations.
    pub pairs: Vec<(Sym, Sym)>,
}

impl BinaryTable {
    /// Build a binary table from (possibly duplicated, unsorted) row
    /// pairs; deduplicates and sorts.
    pub fn new(
        id: BinaryId,
        source: TableId,
        domain: DomainId,
        left_col: u16,
        right_col: u16,
        mut pairs: Vec<(Sym, Sym)>,
    ) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        Self {
            id,
            source,
            domain,
            left_col,
            right_col,
            left_header: None,
            right_header: None,
            pairs,
        }
    }

    /// Attach column headers.
    pub fn with_headers(mut self, left: Option<Sym>, right: Option<Sym>) -> Self {
        self.left_header = left;
        self.right_header = right;
        self
    }

    /// Number of distinct value pairs `|B|`.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the table has no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterate left values (with duplicates if a left value maps to
    /// several rights).
    pub fn lefts(&self) -> impl Iterator<Item = Sym> + '_ {
        self.pairs.iter().map(|&(l, _)| l)
    }

    /// Iterate right values.
    pub fn rights(&self) -> impl Iterator<Item = Sym> + '_ {
        self.pairs.iter().map(|&(_, r)| r)
    }

    /// Exact set intersection size `|B ∩ B'|` on interned pairs.
    /// (The synthesis layer refines this with normalization and
    /// approximate matching; this raw version is used in tests and as a
    /// fast path.)
    pub fn exact_overlap(&self, other: &BinaryTable) -> usize {
        let (a, b) = (&self.pairs, &other.pairs);
        let mut i = 0;
        let mut j = 0;
        let mut n = 0;
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }
}

/// Current revision of the checksummed frame format.
pub const FRAME_VERSION: u32 = 1;
/// File magic opening every framed file.
const FRAME_MAGIC: [u8; 4] = *b"MSFR";
/// Length sentinel introducing the trailer (deliberately larger than
/// [`MAX_FRAME_LEN`], so it can never be a real frame length).
const TRAILER_MARK: u32 = u32::MAX;
/// Upper bound on a single frame's payload (256 MiB). A corrupted
/// length prefix above this is reported as
/// [`FrameError::OversizedFrame`] instead of attempting the
/// allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 28;

/// Table-driven CRC-32 (reflected IEEE 802.3 polynomial `0xEDB88320`),
/// hand-rolled because the workspace vendors every dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = u32::MAX;
    for &b in bytes {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ u32::MAX
}

/// Why a framed file could not be read. Every on-disk failure mode is
/// distinguishable, because the persistence layer's recovery policy
/// branches on *which* one it hit: a clean end of file on an unsealed
/// file is normal for an in-progress WAL segment, a torn tail is
/// truncated away, everything else is corruption.
#[derive(Debug)]
pub enum FrameError {
    /// An I/O error other than end of file.
    Io(io::Error),
    /// The file does not start with the frame magic.
    BadMagic {
        /// The four bytes found where the magic should be.
        found: [u8; 4],
    },
    /// The file was written by a different format revision.
    VersionMismatch {
        /// Version recorded in the header.
        found: u32,
        /// The revision this reader supports.
        supported: u32,
    },
    /// The file's kind tag is not the one the caller expected (e.g. a
    /// WAL segment opened as a snapshot archive).
    KindMismatch {
        /// Kind recorded in the header.
        found: u32,
        /// Kind the caller asked for.
        expected: u32,
    },
    /// The header checksum does not cover its bytes (a flipped bit in
    /// the first 16 bytes).
    HeaderCorrupt,
    /// End of file in the middle of a unit (header, frame, or
    /// trailer) — a torn write. `offset` is the end of the last whole
    /// unit, i.e. the length a tolerant reader truncates the file to.
    Truncated {
        /// Byte offset of the last complete unit's end.
        offset: u64,
    },
    /// A frame length prefix above [`MAX_FRAME_LEN`] — a corrupted
    /// length, refused before the allocation it implies.
    OversizedFrame {
        /// The absurd length read.
        len: u32,
        /// Byte offset of the frame's length prefix.
        offset: u64,
    },
    /// A frame (or trailer) checksum mismatch — payload bytes rotted.
    ChecksumMismatch {
        /// 0-based index of the failing frame (== frames read so far).
        frame: u64,
        /// Byte offset of the failing unit.
        offset: u64,
    },
    /// A reader that required a sealed file reached a clean end of
    /// file without finding the trailer.
    MissingTrailer {
        /// Whole frames read before the end.
        frames: u64,
    },
    /// The trailer's recorded frame count disagrees with the frames
    /// actually read — frames were lost or the trailer belongs to a
    /// different write.
    TrailerMismatch {
        /// Frames actually read.
        counted: u64,
        /// Frame count recorded in the trailer.
        recorded: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadMagic { found } => write!(f, "bad magic {found:?}"),
            FrameError::VersionMismatch { found, supported } => {
                write!(f, "format version {found} (supported: {supported})")
            }
            FrameError::KindMismatch { found, expected } => {
                write!(f, "file kind {found:#x} (expected {expected:#x})")
            }
            FrameError::HeaderCorrupt => write!(f, "header checksum mismatch"),
            FrameError::Truncated { offset } => {
                write!(f, "torn write: end of file mid-unit after offset {offset}")
            }
            FrameError::OversizedFrame { len, offset } => {
                write!(
                    f,
                    "frame length {len} at offset {offset} exceeds the format maximum"
                )
            }
            FrameError::ChecksumMismatch { frame, offset } => {
                write!(f, "checksum mismatch at frame {frame} (offset {offset})")
            }
            FrameError::MissingTrailer { frames } => {
                write!(f, "clean end of file after {frames} frames, but no trailer")
            }
            FrameError::TrailerMismatch { counted, recorded } => {
                write!(f, "trailer records {recorded} frames, read {counted}")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// How a fully-read framed file ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameTail {
    /// A valid trailer was found: the file is complete.
    Sealed,
    /// Clean end of file with no trailer: an unsealed (in-progress)
    /// file whose every frame was nonetheless whole.
    CleanEof,
}

/// Writes checksummed frames: a 16-byte header (magic, format
/// version, caller kind, header CRC), then per frame a `u32` LE length
/// prefix, the payload, and the payload's CRC32.
/// [`finish`](FrameWriter::finish) seals the file with a trailer;
/// [`sync`](FrameWriter::sync) makes everything written so far durable
/// without sealing (the WAL's append-fsync primitive).
pub struct FrameWriter {
    out: BufWriter<File>,
    frames: u64,
    bytes: u64,
}

impl FrameWriter {
    /// Create (truncate) a framed file of the given `kind` at `path`
    /// and write its header.
    pub fn create(path: &Path, kind: u32) -> Result<Self, FrameError> {
        let mut header = [0u8; 16];
        header[..4].copy_from_slice(&FRAME_MAGIC);
        header[4..8].copy_from_slice(&FRAME_VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&kind.to_le_bytes());
        let crc = crc32(&header[..12]);
        header[12..16].copy_from_slice(&crc.to_le_bytes());
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&header)?;
        Ok(Self {
            out,
            frames: 0,
            bytes: 16,
        })
    }

    /// Append one checksummed frame.
    pub fn write_frame(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
        if len > MAX_FRAME_LEN {
            return Err(FrameError::OversizedFrame {
                len,
                offset: self.bytes,
            });
        }
        self.out.write_all(&len.to_le_bytes())?;
        self.out.write_all(payload)?;
        self.out.write_all(&crc32(payload).to_le_bytes())?;
        self.frames += 1;
        self.bytes += 8 + payload.len() as u64;
        Ok(())
    }

    /// Flush and fsync everything appended so far **without** sealing:
    /// after this returns, every whole frame written survives a crash
    /// (a reader sees at worst a torn final frame beyond them).
    pub fn sync(&mut self) -> Result<(), FrameError> {
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        Ok(())
    }

    /// Frames written so far.
    pub fn frames_written(&self) -> u64 {
        self.frames
    }

    /// Bytes written so far (header included) — the WAL's segment
    /// rotation threshold reads this.
    pub fn len(&self) -> u64 {
        self.bytes
    }

    /// Whether nothing beyond the header has been written.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// Seal the file: write the trailer (sentinel, frame count, CRC),
    /// flush, and fsync file contents *and* metadata.
    pub fn finish(mut self) -> Result<(), FrameError> {
        let mut trailer = [0u8; 16];
        trailer[..4].copy_from_slice(&TRAILER_MARK.to_le_bytes());
        trailer[4..12].copy_from_slice(&self.frames.to_le_bytes());
        let crc = crc32(&trailer[4..12]);
        trailer[12..16].copy_from_slice(&crc.to_le_bytes());
        self.out.write_all(&trailer)?;
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        Ok(())
    }
}

/// How many bytes [`read_full`] managed to fill.
enum Fill {
    Full,
    Empty,
    Partial,
}

/// Read exactly `buf.len()` bytes, distinguishing "no bytes at all"
/// (a clean end of file between units) from "some but not all" (a
/// torn unit).
fn read_full(input: &mut impl Read, buf: &mut [u8]) -> io::Result<Fill> {
    let mut n = 0;
    while n < buf.len() {
        match input.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(if n == buf.len() {
        Fill::Full
    } else if n == 0 {
        Fill::Empty
    } else {
        Fill::Partial
    })
}

/// Streams checksummed frames back, validating the header on open and
/// every CRC on the way. After [`next_frame`](Self::next_frame)
/// returns `Ok(None)`, [`tail`](Self::tail) says whether the file was
/// sealed; on an error, [`valid_len`](Self::valid_len) is the byte
/// length of the intact prefix (what a tolerant tail reader truncates
/// to).
pub struct FrameReader {
    input: BufReader<File>,
    /// End offset of the last whole unit read (header counts).
    offset: u64,
    frames: u64,
    tail: Option<FrameTail>,
}

impl FrameReader {
    /// Open a framed file, validating magic, header CRC, format
    /// version, and the expected `kind` — in that order, so a rotted
    /// header reports corruption rather than a bogus version.
    pub fn open(path: &Path, kind: u32) -> Result<Self, FrameError> {
        let mut input = BufReader::new(File::open(path)?);
        let mut header = [0u8; 16];
        match read_full(&mut input, &mut header)? {
            Fill::Full => {}
            _ => return Err(FrameError::Truncated { offset: 0 }),
        }
        if header[..4] != FRAME_MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(&header[..4]);
            return Err(FrameError::BadMagic { found });
        }
        let stored = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        if stored != crc32(&header[..12]) {
            return Err(FrameError::HeaderCorrupt);
        }
        let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if version != FRAME_VERSION {
            return Err(FrameError::VersionMismatch {
                found: version,
                supported: FRAME_VERSION,
            });
        }
        let found_kind = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if found_kind != kind {
            return Err(FrameError::KindMismatch {
                found: found_kind,
                expected: kind,
            });
        }
        Ok(Self {
            input,
            offset: 16,
            frames: 0,
            tail: None,
        })
    }

    /// The next frame's payload, or `None` once the file ends —
    /// check [`tail`](Self::tail) for *how* it ended. Truncation and
    /// corruption are typed errors, never a silent `None`.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.tail.is_some() {
            return Ok(None);
        }
        let mut len_buf = [0u8; 4];
        match read_full(&mut self.input, &mut len_buf)? {
            Fill::Empty => {
                self.tail = Some(FrameTail::CleanEof);
                return Ok(None);
            }
            Fill::Partial => {
                return Err(FrameError::Truncated {
                    offset: self.offset,
                })
            }
            Fill::Full => {}
        }
        let len = u32::from_le_bytes(len_buf);
        if len == TRAILER_MARK {
            let mut rest = [0u8; 12];
            match read_full(&mut self.input, &mut rest)? {
                Fill::Full => {}
                _ => {
                    return Err(FrameError::Truncated {
                        offset: self.offset,
                    })
                }
            }
            let recorded = u64::from_le_bytes([
                rest[0], rest[1], rest[2], rest[3], rest[4], rest[5], rest[6], rest[7],
            ]);
            let stored = u32::from_le_bytes([rest[8], rest[9], rest[10], rest[11]]);
            if stored != crc32(&rest[..8]) {
                return Err(FrameError::ChecksumMismatch {
                    frame: self.frames,
                    offset: self.offset,
                });
            }
            if recorded != self.frames {
                return Err(FrameError::TrailerMismatch {
                    counted: self.frames,
                    recorded,
                });
            }
            self.offset += 16;
            self.tail = Some(FrameTail::Sealed);
            return Ok(None);
        }
        if len > MAX_FRAME_LEN {
            return Err(FrameError::OversizedFrame {
                len,
                offset: self.offset,
            });
        }
        let mut payload = vec![0u8; len as usize];
        match read_full(&mut self.input, &mut payload)? {
            Fill::Full => {}
            _ => {
                return Err(FrameError::Truncated {
                    offset: self.offset,
                })
            }
        }
        let mut crc_buf = [0u8; 4];
        match read_full(&mut self.input, &mut crc_buf)? {
            Fill::Full => {}
            _ => {
                return Err(FrameError::Truncated {
                    offset: self.offset,
                })
            }
        }
        if u32::from_le_bytes(crc_buf) != crc32(&payload) {
            return Err(FrameError::ChecksumMismatch {
                frame: self.frames,
                offset: self.offset,
            });
        }
        self.offset += 8 + u64::from(len);
        self.frames += 1;
        Ok(Some(payload))
    }

    /// How the file ended, once `next_frame` has returned `Ok(None)`.
    pub fn tail(&self) -> Option<FrameTail> {
        self.tail
    }

    /// Whole frames read so far.
    pub fn frames_read(&self) -> u64 {
        self.frames
    }

    /// Byte length of the intact prefix: the end of the last whole
    /// unit read. After a [`FrameError::Truncated`], truncating the
    /// file to this length removes exactly the torn tail.
    pub fn valid_len(&self) -> u64 {
        self.offset
    }
}

/// Read a **sealed** framed file completely. Any tail other than a
/// valid trailer — including a clean but unsealed end of file — is an
/// error: archives are written atomically, so an unsealed archive is
/// a broken invariant, not an in-progress write.
pub fn read_sealed(path: &Path, kind: u32) -> Result<Vec<Vec<u8>>, FrameError> {
    let mut reader = FrameReader::open(path, kind)?;
    let mut frames = Vec::new();
    while let Some(f) = reader.next_frame()? {
        frames.push(f);
    }
    match reader.tail() {
        Some(FrameTail::Sealed) => Ok(frames),
        _ => Err(FrameError::MissingTrailer {
            frames: reader.frames_read(),
        }),
    }
}

pub mod wire {
    //! Little-endian byte-encoding helpers shared by every durable
    //! record format (portable deltas, archived snapshots): writers
    //! append to a `Vec<u8>`, [`WireReader`] decodes with typed
    //! errors so a corrupted-but-checksum-valid record (impossible
    //! short of a CRC collision, but decoders must not panic) degrades
    //! to a [`WireError`] instead of a panic.

    use std::fmt;

    /// Typed decode failure.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum WireError {
        /// The buffer ended before the value.
        UnexpectedEnd {
            /// Offset at which more bytes were needed.
            at: usize,
        },
        /// A string's bytes are not UTF-8.
        BadUtf8 {
            /// Offset of the string's length prefix.
            at: usize,
        },
        /// A tag byte (`Option`/`bool` discriminant) out of range.
        BadTag {
            /// Offset of the tag.
            at: usize,
            /// The byte found.
            found: u8,
        },
        /// Structurally impossible content (e.g. a shard count that is
        /// not a power of two).
        Invalid {
            /// What invariant the content broke.
            what: &'static str,
        },
        /// Decoding finished with bytes left over.
        TrailingBytes {
            /// Bytes remaining past the decoded value.
            remaining: usize,
        },
    }

    impl fmt::Display for WireError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                WireError::UnexpectedEnd { at } => write!(f, "record ends at offset {at}"),
                WireError::BadUtf8 { at } => write!(f, "non-UTF-8 string at offset {at}"),
                WireError::BadTag { at, found } => {
                    write!(f, "bad tag byte {found:#x} at offset {at}")
                }
                WireError::Invalid { what } => write!(f, "invalid content: {what}"),
                WireError::TrailingBytes { remaining } => {
                    write!(f, "{remaining} bytes left after the record")
                }
            }
        }
    }

    impl std::error::Error for WireError {}

    /// Append a `u8`.
    pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
        buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(buf: &mut Vec<u8>, s: &str) {
        put_u32(buf, s.len() as u32);
        buf.extend_from_slice(s.as_bytes());
    }

    /// Append an optional string as a tag byte plus the string.
    pub fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
        match s {
            None => put_u8(buf, 0),
            Some(s) => {
                put_u8(buf, 1);
                put_str(buf, s);
            }
        }
    }

    /// Cursor decoding the formats the `put_*` writers produce.
    pub struct WireReader<'a> {
        buf: &'a [u8],
        at: usize,
    }

    impl<'a> WireReader<'a> {
        /// Decode from the start of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Self { buf, at: 0 }
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
            let end = self
                .at
                .checked_add(n)
                .filter(|&e| e <= self.buf.len())
                .ok_or(WireError::UnexpectedEnd { at: self.at })?;
            let s = &self.buf[self.at..end];
            self.at = end;
            Ok(s)
        }

        /// Next `u8`.
        pub fn u8(&mut self) -> Result<u8, WireError> {
            Ok(self.take(1)?[0])
        }

        /// Next little-endian `u32`.
        pub fn u32(&mut self) -> Result<u32, WireError> {
            let b = self.take(4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }

        /// Next little-endian `u64`.
        pub fn u64(&mut self) -> Result<u64, WireError> {
            let b = self.take(8)?;
            Ok(u64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ]))
        }

        /// Next length-prefixed UTF-8 string.
        pub fn str(&mut self) -> Result<String, WireError> {
            let at = self.at;
            let len = self.u32()? as usize;
            let bytes = self
                .take(len)
                .map_err(|_| WireError::UnexpectedEnd { at })?;
            String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8 { at })
        }

        /// Next optional string (tag byte + string).
        pub fn opt_str(&mut self) -> Result<Option<String>, WireError> {
            let at = self.at;
            match self.u8()? {
                0 => Ok(None),
                1 => Ok(Some(self.str()?)),
                found => Err(WireError::BadTag { at, found }),
            }
        }

        /// Offset decoded so far.
        pub fn position(&self) -> usize {
            self.at
        }

        /// Bytes not yet decoded.
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.at
        }

        /// Assert the whole buffer was consumed.
        pub fn finish(&self) -> Result<(), WireError> {
            if self.at == self.buf.len() {
                Ok(())
            } else {
                Err(WireError::TrailingBytes {
                    remaining: self.buf.len() - self.at,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bt(id: u32, pairs: Vec<(u32, u32)>) -> BinaryTable {
        BinaryTable::new(
            BinaryId(id),
            TableId(0),
            DomainId(0),
            0,
            1,
            pairs.into_iter().map(|(a, b)| (Sym(a), Sym(b))).collect(),
        )
    }

    #[test]
    fn dedup_and_sort() {
        let b = bt(0, vec![(3, 4), (1, 2), (3, 4), (1, 2)]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.pairs, vec![(Sym(1), Sym(2)), (Sym(3), Sym(4))]);
    }

    #[test]
    fn exact_overlap_symmetric() {
        let a = bt(0, vec![(1, 2), (3, 4), (5, 6)]);
        let b = bt(1, vec![(3, 4), (5, 6), (7, 8)]);
        assert_eq!(a.exact_overlap(&b), 2);
        assert_eq!(b.exact_overlap(&a), 2);
        assert_eq!(a.exact_overlap(&a), 3);
    }

    #[test]
    fn empty_table() {
        let e = bt(0, vec![]);
        let a = bt(1, vec![(1, 2)]);
        assert!(e.is_empty());
        assert_eq!(e.exact_overlap(&a), 0);
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mapsynth-{tag}-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    const TK: u32 = 0x5445_5354; // arbitrary test kind

    fn write_framed(path: &Path, payloads: &[&[u8]], seal: bool) {
        let mut w = FrameWriter::create(path, TK).unwrap();
        for p in payloads {
            w.write_frame(p).unwrap();
        }
        if seal {
            w.finish().unwrap();
        } else {
            w.sync().unwrap();
        }
    }

    #[test]
    fn framed_round_trip_sealed_and_unsealed() {
        let dir = tmp_dir("frame-rt");
        let payloads: Vec<&[u8]> = vec![b"", b"x", b"hello framed world", &[0xFF; 300]];
        for seal in [true, false] {
            let path = dir.join(if seal { "sealed.msf" } else { "open.msf" });
            write_framed(&path, &payloads, seal);
            let mut r = FrameReader::open(&path, TK).unwrap();
            for p in &payloads {
                assert_eq!(r.next_frame().unwrap().as_deref(), Some(*p));
            }
            assert!(r.next_frame().unwrap().is_none());
            assert!(r.next_frame().unwrap().is_none(), "tail is sticky");
            let want = if seal {
                FrameTail::Sealed
            } else {
                FrameTail::CleanEof
            };
            assert_eq!(r.tail(), Some(want));
            assert_eq!(r.frames_read(), payloads.len() as u64);
            if seal {
                let frames = read_sealed(&path, TK).unwrap();
                assert_eq!(frames.len(), payloads.len());
            } else {
                assert!(matches!(
                    read_sealed(&path, TK),
                    Err(FrameError::MissingTrailer { frames: 4 })
                ));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn framed_header_rejections_are_typed() {
        let dir = tmp_dir("frame-hdr");
        let path = dir.join("h.msf");
        write_framed(&path, &[b"abc"], true);
        let full = std::fs::read(&path).unwrap();

        // Wrong kind on a pristine file.
        assert!(matches!(
            FrameReader::open(&path, TK + 1),
            Err(FrameError::KindMismatch { found, expected })
                if found == TK && expected == TK + 1
        ));

        // Bad magic.
        let mut bad = full.clone();
        bad[0] ^= 0x20;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            FrameReader::open(&path, TK),
            Err(FrameError::BadMagic { .. })
        ));

        // A future version must present as VersionMismatch, so the
        // header CRC has to be re-stamped to stay valid.
        let mut future = full.clone();
        future[4..8].copy_from_slice(&(FRAME_VERSION + 1).to_le_bytes());
        let crc = crc32(&future[..12]);
        future[12..16].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &future).unwrap();
        assert!(matches!(
            FrameReader::open(&path, TK),
            Err(FrameError::VersionMismatch { found, supported })
                if found == FRAME_VERSION + 1 && supported == FRAME_VERSION
        ));

        // Same flip *without* re-stamping the CRC: corruption, not a
        // version report.
        let mut rot = full.clone();
        rot[5] ^= 0x01;
        std::fs::write(&path, &rot).unwrap();
        assert!(matches!(
            FrameReader::open(&path, TK),
            Err(FrameError::HeaderCorrupt)
        ));

        // Oversized length prefix is refused before allocating.
        let mut big = full.clone();
        big[16..20].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        std::fs::write(&path, &big).unwrap();
        let mut r = FrameReader::open(&path, TK).unwrap();
        assert!(matches!(
            r.next_frame(),
            Err(FrameError::OversizedFrame { offset: 16, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncate a sealed three-frame file at every byte offset: each
    /// prefix must produce either a typed `Truncated` error with the
    /// right intact-prefix length, or (only at whole-unit boundaries)
    /// a clean-EOF/MissingTrailer outcome — never a wrong frame and
    /// never a panic.
    #[test]
    fn framed_truncation_sweep_every_byte_offset() {
        let dir = tmp_dir("frame-sweep");
        let path = dir.join("full.msf");
        let payloads: Vec<&[u8]> = vec![b"first", b"", b"third-frame"];
        write_framed(&path, &payloads, true);
        let full = std::fs::read(&path).unwrap();
        // Unit boundaries: header end, each frame end, trailer end.
        let mut boundaries = vec![(16u64, 0usize)];
        let mut off = 16u64;
        for (i, p) in payloads.iter().enumerate() {
            off += 8 + p.len() as u64;
            boundaries.push((off, i + 1));
        }
        assert_eq!(off + 16, full.len() as u64);
        for cut in 0..=full.len() {
            let p = dir.join("cut.msf");
            std::fs::write(&p, &full[..cut]).unwrap();
            if cut < 16 {
                // Torn header: open itself must fail with Truncated.
                assert!(
                    matches!(
                        FrameReader::open(&p, TK),
                        Err(FrameError::Truncated { offset: 0 })
                    ),
                    "cut {cut} inside the header"
                );
                continue;
            }
            let mut r = FrameReader::open(&p, TK).unwrap();
            let mut got = Vec::new();
            let outcome = loop {
                match r.next_frame() {
                    Ok(Some(f)) => got.push(f),
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            let boundary = boundaries.iter().find(|&&(b, _)| b == cut as u64);
            if cut == full.len() {
                assert!(outcome.is_ok());
                assert_eq!(r.tail(), Some(FrameTail::Sealed));
                assert_eq!(got.len(), payloads.len());
            } else if let Some(&(b, n)) = boundary {
                // Ends exactly after a whole unit: clean but unsealed.
                assert!(outcome.is_ok(), "boundary cut {cut} misread as torn");
                assert_eq!(r.tail(), Some(FrameTail::CleanEof));
                assert_eq!(got.len(), n, "frame count at boundary {cut}");
                assert_eq!(r.valid_len(), b);
            } else {
                // Mid-unit: typed truncation pointing at the last
                // whole unit's end.
                let expect_valid = boundaries
                    .iter()
                    .map(|&(b, _)| b)
                    .filter(|&b| b <= cut as u64)
                    .max()
                    .unwrap();
                match outcome {
                    Err(FrameError::Truncated { offset }) => {
                        assert_eq!(offset, expect_valid, "intact prefix at cut {cut}")
                    }
                    other => panic!("cut {cut}: expected Truncated, got {other:?}"),
                }
                let whole = boundaries
                    .iter()
                    .filter(|&&(b, _)| b <= cut as u64)
                    .map(|&(_, n)| n)
                    .max()
                    .unwrap();
                assert_eq!(got.len(), whole, "whole frames before torn tail at {cut}");
                assert_eq!(r.valid_len(), expect_valid);
            }
            // Whatever frames came out must be byte-exact prefixes.
            for (i, f) in got.iter().enumerate() {
                assert_eq!(f.as_slice(), payloads[i]);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flip one bit in every byte of a sealed file: every flip must be
    /// caught with a typed error — no flip may round-trip silently.
    #[test]
    fn framed_bitflip_sweep_every_byte() {
        let dir = tmp_dir("frame-flip");
        let path = dir.join("full.msf");
        write_framed(&path, &[b"payload-one", b"p2"], true);
        let full = std::fs::read(&path).unwrap();
        for pos in 0..full.len() {
            let mut rot = full.clone();
            rot[pos] ^= 0x01;
            let p = dir.join("rot.msf");
            std::fs::write(&p, &rot).unwrap();
            let outcome = FrameReader::open(&p, TK).and_then(|mut r| {
                while r.next_frame()?.is_some() {}
                Ok(r.tail())
            });
            match outcome {
                Err(
                    FrameError::BadMagic { .. }
                    | FrameError::HeaderCorrupt
                    | FrameError::ChecksumMismatch { .. }
                    | FrameError::OversizedFrame { .. }
                    | FrameError::Truncated { .. }
                    | FrameError::TrailerMismatch { .. }
                    | FrameError::KindMismatch { .. }
                    | FrameError::VersionMismatch { .. },
                ) => {}
                Ok(t) => panic!("bit flip at byte {pos} went undetected (tail {t:?})"),
                Err(e) => panic!("bit flip at byte {pos}: unexpected error {e}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wire_round_trips_and_typed_failures() {
        use super::wire::*;
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "héllo");
        put_opt_str(&mut buf, None);
        put_opt_str(&mut buf, Some("x"));
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt_str().unwrap(), None);
        assert_eq!(r.opt_str().unwrap(), Some("x".to_string()));
        r.finish().unwrap();

        // Truncated value.
        let mut r = WireReader::new(&buf[..2]);
        r.u8().unwrap();
        assert!(matches!(r.u32(), Err(WireError::UnexpectedEnd { at: 1 })));

        // Bad option tag.
        let mut bad = Vec::new();
        put_u8(&mut bad, 9);
        let mut r = WireReader::new(&bad);
        assert!(matches!(
            r.opt_str(),
            Err(WireError::BadTag { at: 0, found: 9 })
        ));

        // Non-UTF-8 string bytes.
        let mut nutf = Vec::new();
        put_u32(&mut nutf, 2);
        nutf.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = WireReader::new(&nutf);
        assert!(matches!(r.str(), Err(WireError::BadUtf8 { at: 0 })));

        // Leftover bytes are flagged.
        let mut extra = Vec::new();
        put_u8(&mut extra, 1);
        put_u8(&mut extra, 2);
        let mut r = WireReader::new(&extra);
        r.u8().unwrap();
        assert!(matches!(
            r.finish(),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }
}
