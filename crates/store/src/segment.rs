//! Segment files: the append-only unit of the log.
//!
//! A segment is a file named `seg-<id>.ccmxseg` (id zero-padded to 12
//! decimal digits so lexicographic order is numeric order) holding a
//! 36-byte checksummed header followed by zero or more record frames
//! ([`crate::record`]) laid end to end:
//!
//! ```text
//! offset  size  field
//! 0       8     segment magic b"CCMXSTR1"
//! 8       4     segment format version (u32 LE, currently 1)
//! 12      8     segment id (u64 LE) — must match the filename
//! 20      8     base seqno (u64 LE): seqno of the first record the
//!               writer intended for this segment (informational; the
//!               record frames carry their own seqnos)
//! 28      8     checksum: FNV-1a 64 over bytes [0, 28) (u64 LE)
//! ```
//!
//! Segments are never modified in place except for one operation:
//! recovery may *truncate* the last segment to cut off a torn tail.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::record::{self, Decoded, Record};
use crate::{fnv64, StoreError};

/// Segment header magic.
pub const SEGMENT_MAGIC: [u8; 8] = *b"CCMXSTR1";

/// Segment format version this build reads and writes.
pub const SEGMENT_VERSION: u32 = 1;

/// Total segment header length including its checksum, bytes.
pub const SEGMENT_HEADER_BYTES: usize = 36;

/// File extension for segment files.
pub const SEGMENT_EXT: &str = "ccmxseg";

/// Build the canonical filename for a segment id.
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:012}.{SEGMENT_EXT}")
}

/// Parse a segment id out of a canonical filename; `None` for foreign
/// files (the store ignores anything it did not name).
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?;
    let digits = rest.strip_suffix(&format!(".{SEGMENT_EXT}"))?;
    if digits.len() != 12 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Encode the 36-byte segment header.
pub fn encode_header(id: u64, base_seqno: u64) -> [u8; SEGMENT_HEADER_BYTES] {
    let mut out = [0u8; SEGMENT_HEADER_BYTES];
    out[0..8].copy_from_slice(&SEGMENT_MAGIC);
    out[8..12].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out[12..20].copy_from_slice(&id.to_le_bytes());
    out[20..28].copy_from_slice(&base_seqno.to_le_bytes());
    let sum = fnv64(&out[..28]);
    out[28..36].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Validate a segment header against the id implied by its filename.
pub fn decode_header(buf: &[u8], expect_id: u64) -> Result<u64, StoreError> {
    if buf.len() < SEGMENT_HEADER_BYTES {
        return Err(StoreError::Corrupt(format!(
            "segment {} shorter than its {SEGMENT_HEADER_BYTES}-byte header",
            expect_id
        )));
    }
    if buf[0..8] != SEGMENT_MAGIC {
        return Err(StoreError::Corrupt(format!(
            "segment {expect_id}: bad magic {:02x?}",
            &buf[0..8]
        )));
    }
    let version = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    if version > SEGMENT_VERSION {
        return Err(StoreError::Unsupported(format!(
            "segment {expect_id}: format version {version} is newer than this build (max {SEGMENT_VERSION})"
        )));
    }
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&buf[28..36]);
    let stored = u64::from_le_bytes(sum);
    let computed = fnv64(&buf[..28]);
    if stored != computed {
        return Err(StoreError::Corrupt(format!(
            "segment {expect_id}: header checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        )));
    }
    let mut idb = [0u8; 8];
    idb.copy_from_slice(&buf[12..20]);
    let id = u64::from_le_bytes(idb);
    if id != expect_id {
        return Err(StoreError::Corrupt(format!(
            "segment header claims id {id} but filename says {expect_id}"
        )));
    }
    let mut base = [0u8; 8];
    base.copy_from_slice(&buf[20..28]);
    Ok(u64::from_le_bytes(base))
}

/// Append-side handle on one open segment.
pub struct SegmentWriter {
    file: File,
    path: PathBuf,
    id: u64,
    /// Bytes written so far, header included.
    len: u64,
}

impl SegmentWriter {
    /// Create a fresh segment file (fails if it already exists — ids
    /// are never reused) and write its header.
    pub fn create(dir: &Path, id: u64, base_seqno: u64) -> Result<SegmentWriter, StoreError> {
        let path = dir.join(segment_file_name(id));
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        let header = encode_header(id, base_seqno);
        file.write_all(&header)?;
        Ok(SegmentWriter {
            file,
            path,
            id,
            len: SEGMENT_HEADER_BYTES as u64,
        })
    }

    /// Reopen an existing segment for appending at `len` (recovery has
    /// already validated — and possibly truncated — the file).
    pub fn reopen(dir: &Path, id: u64, len: u64) -> Result<SegmentWriter, StoreError> {
        let path = dir.join(segment_file_name(id));
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(SegmentWriter {
            file,
            path,
            id,
            len,
        })
    }

    /// Append one encoded record frame; returns the frame's offset
    /// within the segment.
    pub fn append(&mut self, frame: &[u8]) -> Result<u64, StoreError> {
        let at = self.len;
        self.file.write_all(frame)?;
        self.len += frame.len() as u64;
        Ok(at)
    }

    /// Flush to the OS. Data now survives a process SIGKILL (the page
    /// cache outlives the process); call [`SegmentWriter::fsync`] too
    /// if it must survive power loss.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.flush()?;
        Ok(())
    }

    /// fsync the file — durability against power loss, at real cost.
    pub fn fsync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Segment id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current length in bytes, header included.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the segment holds no record frames yet.
    pub fn is_empty(&self) -> bool {
        self.len <= SEGMENT_HEADER_BYTES as u64
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// One record located inside a segment, as reported by the scanner.
pub struct LocatedRecord {
    /// The decoded record.
    pub record: Record,
    /// Byte offset of the frame within the segment file.
    pub offset: u64,
    /// Encoded frame length on disk.
    pub frame_len: u64,
}

/// How a segment scan ended.
pub enum ScanEnd {
    /// Every byte after the header parsed as whole, valid frames.
    Clean,
    /// The file ends mid-frame at this offset — a torn write. If this
    /// is the last segment, recovery truncates the file here.
    Torn {
        /// Offset of the first byte of the incomplete frame.
        offset: u64,
    },
    /// A frame at this offset failed validation (bad magic, checksum
    /// mismatch, impossible length). Nothing after it can be trusted.
    Corrupt {
        /// Offset of the first invalid byte.
        offset: u64,
        /// The typed decode error.
        error: StoreError,
    },
}

/// Result of scanning one whole segment file.
pub struct SegmentScan {
    /// Records up to the first problem, in file order.
    pub records: Vec<LocatedRecord>,
    /// How the scan ended.
    pub end: ScanEnd,
    /// Total file length in bytes.
    pub file_len: u64,
}

/// Read and scan a whole segment file.
///
/// Header-level problems (missing, corrupt, or future-versioned header)
/// are hard errors — there is no prefix to salvage. Frame-level
/// problems end the scan with a typed [`ScanEnd`] instead, because the
/// frames *before* the problem are still good.
pub fn scan_segment(dir: &Path, id: u64) -> Result<SegmentScan, StoreError> {
    let path = dir.join(segment_file_name(id));
    let mut file = File::open(&path)?;
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    decode_header(&buf, id)?;
    let mut records = Vec::new();
    let mut at = SEGMENT_HEADER_BYTES;
    let end = loop {
        if at == buf.len() {
            break ScanEnd::Clean;
        }
        match record::decode(&buf[at..]) {
            Ok(Decoded::Frame(rec, len)) => {
                records.push(LocatedRecord {
                    record: rec,
                    offset: at as u64,
                    frame_len: len as u64,
                });
                at += len;
            }
            Ok(Decoded::Torn) => break ScanEnd::Torn { offset: at as u64 },
            Err(error) => {
                break ScanEnd::Corrupt {
                    offset: at as u64,
                    error,
                }
            }
        }
    };
    Ok(SegmentScan {
        records,
        end,
        file_len: buf.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode, Keyspace, Record};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccmx-store-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rec(seqno: u64, key: &[u8], value: &[u8]) -> Record {
        Record {
            keyspace: Keyspace::BOUNDS,
            seqno,
            tombstone: false,
            key: key.to_vec(),
            value: value.to_vec(),
        }
    }

    #[test]
    fn file_name_round_trip() {
        assert_eq!(segment_file_name(7), "seg-000000000007.ccmxseg");
        assert_eq!(parse_segment_file_name("seg-000000000007.ccmxseg"), Some(7));
        assert_eq!(parse_segment_file_name("seg-7.ccmxseg"), None);
        assert_eq!(parse_segment_file_name("seg-000000000007.tmp"), None);
        assert_eq!(parse_segment_file_name("other.ccmxseg"), None);
    }

    #[test]
    fn write_then_scan_round_trips() {
        let dir = tmpdir("roundtrip");
        let mut w = SegmentWriter::create(&dir, 0, 0).unwrap();
        for i in 0..10u64 {
            let r = rec(i, format!("k{i}").as_bytes(), format!("v{i}").as_bytes());
            w.append(&encode(&r)).unwrap();
        }
        w.sync().unwrap();
        let scan = scan_segment(&dir, 0).unwrap();
        assert!(matches!(scan.end, ScanEnd::Clean));
        assert_eq!(scan.records.len(), 10);
        for (i, lr) in scan.records.iter().enumerate() {
            assert_eq!(lr.record.seqno, i as u64);
            assert_eq!(lr.record.key, format!("k{i}").as_bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_reported_at_frame_boundary() {
        let dir = tmpdir("torn");
        let mut w = SegmentWriter::create(&dir, 0, 0).unwrap();
        let mut boundary = 0;
        for i in 0..3u64 {
            let r = rec(i, b"key", b"value");
            boundary = w.append(&encode(&r)).unwrap() + encode(&r).len() as u64;
        }
        // append half a frame
        let half = encode(&rec(3, b"key", b"value"));
        w.append(&half[..half.len() / 2]).unwrap();
        w.sync().unwrap();
        let scan = scan_segment(&dir, 0).unwrap();
        assert_eq!(scan.records.len(), 3);
        match scan.end {
            ScanEnd::Torn { offset } => assert_eq!(offset, boundary),
            _ => panic!("expected torn end"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_checksum_flip_is_hard_error() {
        let dir = tmpdir("hdrflip");
        let mut w = SegmentWriter::create(&dir, 0, 0).unwrap();
        w.append(&encode(&rec(0, b"k", b"v"))).unwrap();
        w.sync().unwrap();
        let path = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[14] ^= 0x40; // flip a bit inside the header's id field
        std::fs::write(&path, &bytes).unwrap();
        assert!(scan_segment(&dir, 0).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
