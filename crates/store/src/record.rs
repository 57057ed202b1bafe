//! Record frames: the unit of appending, checksumming and recovery.
//!
//! Frame layout (schema 2), little-endian throughout:
//!
//! ```text
//! offset  size  field
//! 0       1     record magic 0xCD
//! 1       1     schema version (2)
//! 2       1     keyspace
//! 3       1     flags (bit 0 = tombstone)
//! 4       8     seqno (u64 LE)
//! 12      4     key_len (u32 LE)
//! 16      4     val_len (u32 LE)
//! 20      K     key bytes
//! 20+K    V     value bytes
//! 20+K+V  8     checksum: FNV-1a 64 over bytes [0, 20+K+V) (u64 LE)
//! ```
//!
//! Schema 2 is the only schema any build has written; see
//! `docs/STORAGE.md` §3 for the normative rules.
//!
//! The checksum covers the *entire* frame before it, header included,
//! so a bit flip anywhere — kind, lengths, key, value, even the flags
//! byte that distinguishes a write from a delete — is detected before
//! any field is trusted.

use crate::{fnv64, StoreError};

/// First byte of every record frame.
pub const RECORD_MAGIC: u8 = 0xCD;

/// The record schema: 20-byte header carrying the record seqno.
pub const SCHEMA_V2: u8 = 2;

/// Header length of a v2 frame, bytes.
pub const HEADER_V2_BYTES: usize = 20;

/// Checksum trailer length, bytes.
pub const CHECKSUM_BYTES: usize = 8;

/// Hard cap on key length (1 MiB). A larger length field is corruption.
pub const MAX_KEY_BYTES: usize = 1 << 20;

/// Hard cap on value length (4 MiB), mirroring the wire codec's frame
/// cap: anything longer is a corrupt length field, and reading it would
/// let one bad frame pin the process's memory.
pub const MAX_VALUE_BYTES: usize = 1 << 22;

/// Flags bit 0: this record is a tombstone (the key is deleted; the
/// value must be empty).
pub const FLAG_TOMBSTONE: u8 = 0b0000_0001;

/// A namespace for keys, so one store serves several caches without
/// key collisions. The byte value is part of the on-disk format.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Keyspace(pub u8);

impl Keyspace {
    /// Theorem 1.1 bound packages (`BoundsReport` wire bytes).
    pub const BOUNDS: Keyspace = Keyspace(1);
    /// Exact `CC(f)` search verdicts (`Response::CcSearch` wire bytes).
    pub const CC: Keyspace = Keyspace(2);
    /// CRT-certified singularity verdicts (fingerprint + rank).
    pub const CRT: Keyspace = Keyspace(3);
    /// Idempotent protocol-run replays (`RetryClient` ledger).
    pub const RUN: Keyspace = Keyspace(4);
    /// Durable enumeration cursors ([`crate::cursor`]).
    pub const CURSOR: Keyspace = Keyspace(5);
    /// Spilled search-memo entries (canonical rectangle brackets).
    pub const MEMO: Keyspace = Keyspace(6);

    /// Human-readable name for stat output; unknown bytes print as
    /// `ks-<n>` (the store is generic over application keyspaces).
    pub fn name(self) -> String {
        match self {
            Keyspace::BOUNDS => "bounds".into(),
            Keyspace::CC => "cc".into(),
            Keyspace::CRT => "crt".into(),
            Keyspace::RUN => "run".into(),
            Keyspace::CURSOR => "cursor".into(),
            Keyspace::MEMO => "memo".into(),
            Keyspace(other) => format!("ks-{other}"),
        }
    }
}

/// A decoded record frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Key namespace.
    pub keyspace: Keyspace,
    /// Monotonic sequence number.
    pub seqno: u64,
    /// True when this frame deletes its key.
    pub tombstone: bool,
    /// Key bytes.
    pub key: Vec<u8>,
    /// Value bytes (empty for tombstones).
    pub value: Vec<u8>,
}

impl Record {
    /// Total encoded frame length of this record.
    pub fn frame_len(&self) -> usize {
        HEADER_V2_BYTES + self.key.len() + self.value.len() + CHECKSUM_BYTES
    }
}

/// Encode a frame. Callers must respect the key/value caps; the
/// store's `put` validates them before reaching here.
pub fn encode(rec: &Record) -> Vec<u8> {
    debug_assert!(rec.key.len() <= MAX_KEY_BYTES);
    debug_assert!(rec.value.len() <= MAX_VALUE_BYTES);
    let mut out = Vec::with_capacity(rec.frame_len());
    out.push(RECORD_MAGIC);
    out.push(SCHEMA_V2);
    out.push(rec.keyspace.0);
    out.push(if rec.tombstone { FLAG_TOMBSTONE } else { 0 });
    out.extend_from_slice(&rec.seqno.to_le_bytes());
    out.extend_from_slice(&(rec.key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(rec.value.len() as u32).to_le_bytes());
    out.extend_from_slice(&rec.key);
    out.extend_from_slice(&rec.value);
    let sum = fnv64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Outcome of decoding one frame from a buffer position.
#[derive(Debug)]
pub enum Decoded {
    /// A whole, checksum-valid frame: the record and its total encoded
    /// length (header + key + value + checksum).
    Frame(Record, usize),
    /// The buffer ends before the frame does — a torn write. Recovery
    /// truncates here when this is the log's tail.
    Torn,
}

/// Decode the frame starting at `buf[0]`.
///
/// Errors are *typed corruption*: bad magic, a schema byte below
/// [`SCHEMA_V2`], impossible lengths, or a checksum mismatch — except
/// that a newer schema is [`StoreError::Unsupported`]. A frame that
/// simply runs past the end of `buf` is not an error but [`Decoded::Torn`].
pub fn decode(buf: &[u8]) -> Result<Decoded, StoreError> {
    if buf.is_empty() {
        return Ok(Decoded::Torn);
    }
    if buf[0] != RECORD_MAGIC {
        return Err(StoreError::Corrupt(format!(
            "bad record magic {:#04x} (expected {RECORD_MAGIC:#04x})",
            buf[0]
        )));
    }
    if buf.len() < 2 {
        return Ok(Decoded::Torn);
    }
    match buf[1] {
        SCHEMA_V2 => {}
        newer if newer > SCHEMA_V2 => {
            return Err(StoreError::Unsupported(format!(
                "record schema {newer} is newer than this build understands (max {SCHEMA_V2})"
            )))
        }
        older => {
            return Err(StoreError::Corrupt(format!(
                "record schema {older} was never written (expected {SCHEMA_V2})"
            )))
        }
    }
    if buf.len() < HEADER_V2_BYTES {
        return Ok(Decoded::Torn);
    }
    let keyspace = Keyspace(buf[2]);
    let flags = buf[3];
    if flags & !FLAG_TOMBSTONE != 0 {
        return Err(StoreError::Corrupt(format!(
            "unknown record flags {flags:#04x}"
        )));
    }
    let mut s = [0u8; 8];
    s.copy_from_slice(&buf[4..12]);
    let seqno = u64::from_le_bytes(s);
    let key_len = u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]) as usize;
    let val_len = u32::from_le_bytes([buf[16], buf[17], buf[18], buf[19]]) as usize;
    if key_len > MAX_KEY_BYTES {
        return Err(StoreError::Corrupt(format!(
            "record claims a {key_len}-byte key, cap is {MAX_KEY_BYTES}"
        )));
    }
    if val_len > MAX_VALUE_BYTES {
        return Err(StoreError::Corrupt(format!(
            "record claims a {val_len}-byte value, cap is {MAX_VALUE_BYTES}"
        )));
    }
    let total = HEADER_V2_BYTES + key_len + val_len + CHECKSUM_BYTES;
    if buf.len() < total {
        return Ok(Decoded::Torn);
    }
    let body_end = total - CHECKSUM_BYTES;
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&buf[body_end..total]);
    let stored = u64::from_le_bytes(sum);
    let computed = fnv64(&buf[..body_end]);
    if stored != computed {
        return Err(StoreError::Corrupt(format!(
            "record checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    let tombstone = flags & FLAG_TOMBSTONE != 0;
    if tombstone && val_len != 0 {
        return Err(StoreError::Corrupt(format!(
            "tombstone carries a {val_len}-byte value"
        )));
    }
    let key = buf[HEADER_V2_BYTES..HEADER_V2_BYTES + key_len].to_vec();
    let value = buf[HEADER_V2_BYTES + key_len..body_end].to_vec();
    Ok(Decoded::Frame(
        Record {
            keyspace,
            seqno,
            tombstone,
            key,
            value,
        },
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            keyspace: Keyspace::BOUNDS,
            seqno: 42,
            tombstone: false,
            key: b"key-bytes".to_vec(),
            value: b"value-bytes".to_vec(),
        }
    }

    #[test]
    fn v2_round_trip() {
        let rec = sample();
        let bytes = encode(&rec);
        assert_eq!(bytes.len(), rec.frame_len());
        match decode(&bytes).unwrap() {
            Decoded::Frame(back, len) => {
                assert_eq!(back, rec);
                assert_eq!(len, bytes.len());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn every_prefix_is_torn_not_error() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Ok(Decoded::Torn) => {}
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let rec = sample();
        let bytes = encode(&rec);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                match decode(&bad) {
                    Err(_) => {}
                    // A flip in a length field can make the frame claim
                    // to extend past the buffer: that reads as torn,
                    // which recovery treats as "stop here" — still never
                    // a silently accepted wrong record.
                    Ok(Decoded::Torn) => {}
                    Ok(Decoded::Frame(got, _)) => {
                        panic!("flip at byte {byte} bit {bit} silently accepted: {got:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn newer_schema_is_unsupported_not_corrupt() {
        let mut bytes = encode(&sample());
        bytes[1] = 3;
        assert!(matches!(decode(&bytes), Err(StoreError::Unsupported(_))));
    }

    #[test]
    fn never_written_schemas_are_corrupt() {
        for schema in [0u8, 1] {
            let mut bytes = encode(&sample());
            bytes[1] = schema;
            let body_end = bytes.len() - CHECKSUM_BYTES;
            let sum = crate::fnv64(&bytes[..body_end]);
            bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
            assert!(
                matches!(decode(&bytes), Err(StoreError::Corrupt(_))),
                "schema {schema}"
            );
        }
    }

    #[test]
    fn tombstone_with_value_rejected() {
        let mut rec = sample();
        rec.tombstone = true;
        // encode() would assert in debug; build the bad frame by hand.
        let mut bytes = encode(&rec);
        // set the tombstone flag post-encode and re-checksum
        bytes[3] = FLAG_TOMBSTONE;
        let body_end = bytes.len() - CHECKSUM_BYTES;
        let sum = crate::fnv64(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(StoreError::Corrupt(_))));
    }
}
