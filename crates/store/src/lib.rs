//! # ccmx-store — the persistent certified-result tier
//!
//! Everything the lab certifies — Theorem 1.1 bound packages, CRT-
//! certified singularity verdicts, exact `CC(f)` search results,
//! idempotent protocol-run replays, truth-matrix enumeration cursors —
//! costs real communication to establish, in both of the lab's meters
//! (protocol bits and Hong–Kung words moved). This crate makes those
//! results survive a process death so restarts go **warm** instead of
//! re-paying that communication.
//!
//! The design is a classic log-structured store, specified byte-for-
//! byte in `docs/STORAGE.md` at the repository root:
//!
//! * **append-only segment files** ([`segment`]) with a checksummed
//!   header, rolled at a size threshold and never rewritten in place;
//! * **checksummed record frames** ([`record`]) reusing the FNV-64
//!   framing discipline of the wire codec: every frame carries its own
//!   FNV-1a 64 checksum over header + key + value, so corruption is
//!   localized to a frame boundary and can never be misread as data;
//! * **an in-memory index** ([`Store`]) rebuilt by a full segment scan
//!   on open — the files are the truth, the index is a cache;
//! * **schema-versioned record headers** ([`record::SCHEMA_V2`]): a
//!   newer schema byte is refused as unsupported, never misread;
//! * **tombstones and compaction**: deletes append a tombstone frame;
//!   [`Store::compact`] rewrites live records into fresh segments and
//!   drops dead bytes;
//! * **crash recovery as a state machine**: a torn tail on the last
//!   segment is truncated to the last whole frame, corruption earlier
//!   in the log quarantines everything after it — recovery always
//!   yields exactly a *prefix of committed records*, never an invented
//!   or stale entry (see the recovery section of `docs/STORAGE.md`);
//! * **durable cursors** ([`cursor`]) so interrupted truth-matrix
//!   enumerations resume from where they stopped instead of restarting.
//!
//! Chaos is a first-class input: [`chaos::DiskFaultPlan`] is the disk
//! persona of the PR-5 fault scheduler — a seeded, deterministic
//! schedule of torn writes, truncated tails and bit flips applied to
//! segment files, which the recovery path must shrug off with zero
//! corrupted answers.
//!
//! Everything observable lands in the shared [`ccmx_obs`] registry as
//! the `ccmx_store_*` metric families (segment count, live/dead bytes,
//! compaction runs, recovery outcomes), labelled by store name.

#![deny(missing_docs)]

pub mod chaos;
pub mod cursor;
pub mod record;
pub mod segment;
mod store;

pub use cursor::DurableCursor;
pub use record::{Keyspace, Record, SCHEMA_V2};
pub use store::{
    CompactReport, RecoveryIssue, RecoveryKind, RecoveryReport, Store, StoreConfig, StoreStat,
    VerifyReport, DEFAULT_ROLL_BYTES, QUARANTINE_SUFFIX,
};

use std::fmt;

/// Errors surfaced by the store.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure (open, read, write, fsync).
    Io(std::io::Error),
    /// On-disk bytes that fail validation: bad magic, checksum
    /// mismatch, impossible lengths, or a frame cut short.
    Corrupt(String),
    /// A record or segment written by a *newer* format than this build
    /// understands. Forward migrations only: downgrades are refused.
    Unsupported(String),
    /// A caller error: oversized key/value, or a store opened on a
    /// path that is not a directory.
    Invalid(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corruption: {m}"),
            StoreError::Unsupported(m) => write!(f, "unsupported store format: {m}"),
            StoreError::Invalid(m) => write!(f, "invalid store operation: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// FNV-1a 64 — the same checksum discipline as the wire codec's chaos
/// envelopes and the retry layer's idempotency keys. One algorithm for
/// every integrity check in the workspace keeps `docs/STORAGE.md`
/// implementable from scratch.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }
}
