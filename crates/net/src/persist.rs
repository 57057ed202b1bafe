//! Glue between the server's in-memory caches and the persistent
//! certified-result store (`ccmx-store`).
//!
//! The store moves bytes; this module owns what those bytes *mean* for
//! the lab: key and value encodings for each keyspace, reusing the
//! deterministic [`WireCodec`] layouts so `docs/STORAGE.md` §4 can
//! specify them by reference to the wire format.
//!
//! | keyspace | key                                   | value                |
//! |----------|---------------------------------------|----------------------|
//! | `BOUNDS` | `n, k, security, backend-id`          | `BoundsReport` bytes |
//! | `CC`     | `rows, cols, bits, depth_limit`       | `Response` bytes     |
//! | `CRT`    | `dim, k, fingerprint, backend-id`     | `[singular as u8]`   |
//! | `RUN`    | `fnv64(spec, input, seed)` (u64 LE)   | `IdempotentRun` bytes|
//!
//! Backend-qualified keys ([`ccmx_linalg::crt::Backend::id`]) carry the
//! same guarantee on disk as in RAM: a binary running a different
//! exact-arithmetic engine warm-starts *cold* for those entries rather
//! than trusting another engine's verdicts. Decoders here are total —
//! a record that fails to decode is skipped (and counted), never
//! trusted, so a store written by a future layout degrades a warm start
//! into a partial one instead of corrupting answers.

use std::path::Path;

use ccmx_comm::BitString;
use ccmx_store::{Store, StoreConfig};

use crate::wire::{Dec, WireCodec};

/// Open (or create) a store for a server, non-fatally: a store that
/// cannot be opened is surfaced on stderr and as
/// `ccmx_store_open_errors_total`, and the server simply runs cold —
/// persistence is an accelerator, never an availability dependency.
pub(crate) fn open_store(dir: &Path, label: &str) -> Option<Store> {
    match Store::open(StoreConfig::new(dir).label(label)) {
        Ok(store) => {
            let rec = store.recovery();
            if !rec.clean() {
                for issue in &rec.issues {
                    eprintln!(
                        "ccmx-store[{label}]: repaired segment {} at offset {}: {} ({})",
                        issue.segment, issue.offset, issue.kind, issue.detail
                    );
                }
            }
            Some(store)
        }
        Err(e) => {
            ccmx_obs::counter!("ccmx_store_open_errors_total").inc();
            eprintln!(
                "ccmx-store[{label}]: cannot open {}: {e}; serving cold",
                dir.display()
            );
            None
        }
    }
}

/// Warm-seed counter for one cache, labelled like the cache metrics.
pub(crate) fn seeded_counter(cache: &'static str) -> &'static ccmx_obs::Counter {
    ccmx_obs::registry().counter("ccmx_store_warm_seeded_total", &[("cache", cache)])
}

/// Records skipped during warm seeding because their key or value no
/// longer decodes (foreign backend entries are *not* counted here —
/// they are valid records awaiting their engine).
pub(crate) fn skipped_counter() -> &'static ccmx_obs::Counter {
    ccmx_obs::counter!("ccmx_store_warm_skipped_total")
}

// ----------------------------------------------------------------------
// BOUNDS keyspace
// ----------------------------------------------------------------------

/// Encode a bounds-cache key.
pub(crate) fn bounds_key(n: usize, k: u32, security: u32, backend: &str) -> Vec<u8> {
    let mut out = Vec::new();
    n.put(&mut out);
    k.put(&mut out);
    security.put(&mut out);
    backend.to_string().put(&mut out);
    out
}

/// Decode a bounds-cache key: `(n, k, security, backend id)`.
pub(crate) fn decode_bounds_key(bytes: &[u8]) -> Option<(usize, u32, u32, String)> {
    let mut d = Dec::new(bytes);
    let n = usize::take(&mut d).ok()?;
    let k = u32::take(&mut d).ok()?;
    let security = u32::take(&mut d).ok()?;
    let backend = String::take(&mut d).ok()?;
    d.finish().ok()?;
    Some((n, k, security, backend))
}

// ----------------------------------------------------------------------
// CC keyspace
// ----------------------------------------------------------------------

/// Encode a cc-search cache key.
pub(crate) fn cc_key(rows: usize, cols: usize, bits: &BitString, depth_limit: u32) -> Vec<u8> {
    let mut out = Vec::new();
    rows.put(&mut out);
    cols.put(&mut out);
    bits.put(&mut out);
    depth_limit.put(&mut out);
    out
}

/// Decode a cc-search cache key: `(rows, cols, bits, depth_limit)`.
pub(crate) fn decode_cc_key(bytes: &[u8]) -> Option<(usize, usize, BitString, u32)> {
    let mut d = Dec::new(bytes);
    let rows = usize::take(&mut d).ok()?;
    let cols = usize::take(&mut d).ok()?;
    let bits = BitString::take(&mut d).ok()?;
    let depth_limit = u32::take(&mut d).ok()?;
    d.finish().ok()?;
    Some((rows, cols, bits, depth_limit))
}

// ----------------------------------------------------------------------
// CRT keyspace
// ----------------------------------------------------------------------

/// Encode a singularity-verdict key.
pub(crate) fn sing_key(dim: usize, k: u32, fingerprint: u64, backend: &str) -> Vec<u8> {
    let mut out = Vec::new();
    dim.put(&mut out);
    k.put(&mut out);
    fingerprint.put(&mut out);
    backend.to_string().put(&mut out);
    out
}

/// Decode a singularity-verdict key: `(dim, k, fingerprint, backend)`.
pub(crate) fn decode_sing_key(bytes: &[u8]) -> Option<(usize, u32, u64, String)> {
    let mut d = Dec::new(bytes);
    let dim = usize::take(&mut d).ok()?;
    let k = u32::take(&mut d).ok()?;
    let fingerprint = u64::take(&mut d).ok()?;
    let backend = String::take(&mut d).ok()?;
    d.finish().ok()?;
    Some((dim, k, fingerprint, backend))
}

// ----------------------------------------------------------------------
// RUN keyspace
// ----------------------------------------------------------------------

/// Encode a committed idempotent run: both agents' [`RunResult`]s, the
/// committed wire stats, and the attempt count. The `replayed` flag is
/// *not* stored — it describes a call, not a result, and the replay
/// path recomputes it.
pub(crate) fn encode_run(run: &crate::retry::IdempotentRun) -> Vec<u8> {
    let mut out = Vec::new();
    run.result_a.put(&mut out);
    run.result_b.put(&mut out);
    run.stats.msgs_sent.put(&mut out);
    run.stats.msgs_received.put(&mut out);
    run.stats.bits_sent.put(&mut out);
    run.stats.bits_received.put(&mut out);
    run.stats.raw_bytes_sent.put(&mut out);
    run.stats.raw_bytes_received.put(&mut out);
    run.attempts.put(&mut out);
    out
}

/// Decode a committed idempotent run.
pub(crate) fn decode_run(bytes: &[u8]) -> Option<crate::retry::IdempotentRun> {
    let mut d = Dec::new(bytes);
    let result_a = ccmx_comm::RunResult::take(&mut d).ok()?;
    let result_b = ccmx_comm::RunResult::take(&mut d).ok()?;
    let stats = crate::transport::TransportStats {
        msgs_sent: usize::take(&mut d).ok()?,
        msgs_received: usize::take(&mut d).ok()?,
        bits_sent: usize::take(&mut d).ok()?,
        bits_received: usize::take(&mut d).ok()?,
        raw_bytes_sent: usize::take(&mut d).ok()?,
        raw_bytes_received: usize::take(&mut d).ok()?,
    };
    let attempts = u32::take(&mut d).ok()?;
    d.finish().ok()?;
    Some(crate::retry::IdempotentRun {
        result_a,
        result_b,
        stats,
        replayed: false,
        attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_key_round_trips() {
        let key = bounds_key(17, 4, 40, "crt");
        assert_eq!(
            decode_bounds_key(&key),
            Some((17usize, 4u32, 40u32, "crt".to_string()))
        );
        assert_eq!(decode_bounds_key(&key[..key.len() - 1]), None);
    }

    #[test]
    fn cc_key_round_trips() {
        let bits = BitString::from_bits(vec![true, false, true, true]);
        let key = cc_key(2, 2, &bits, 32);
        assert_eq!(decode_cc_key(&key), Some((2usize, 2usize, bits, 32u32)));
    }

    #[test]
    fn sing_key_round_trips() {
        let key = sing_key(5, 3, 0xdead_beef_feed_f00d, "crt");
        assert_eq!(
            decode_sing_key(&key),
            Some((5usize, 3u32, 0xdead_beef_feed_f00d, "crt".to_string()))
        );
    }

    #[test]
    fn keys_are_deterministic_and_distinct() {
        assert_eq!(bounds_key(5, 3, 20, "crt"), bounds_key(5, 3, 20, "crt"));
        assert_ne!(
            bounds_key(5, 3, 20, "crt"),
            bounds_key(5, 3, 20, "rational")
        );
        let ones = BitString::from_bits(vec![true; 4]);
        assert_ne!(cc_key(2, 2, &ones, 0), cc_key(2, 2, &ones, 32));
    }

    /// Stores written by earlier builds must keep warm-seeding: these
    /// are the exact key bytes those builds wrote.
    #[test]
    fn key_bytes_are_pinned() {
        let bits = BitString::from_bits((0..11).map(|i| i % 3 == 0).collect());
        assert_eq!(
            cc_key(3, 4, &bits, 7),
            [
                3,
                0,
                0,
                0,
                0,
                0,
                0,
                0, // rows
                4,
                0,
                0,
                0,
                0,
                0,
                0,
                0, // cols
                11,
                0,
                0,
                0, // bit count
                0b0100_1001,
                0b0000_0010, // bits 0,3,6 | 9
                7,
                0,
                0,
                0, // depth limit
            ]
        );
        assert_eq!(
            sing_key(16, 32, 0x0123_4567_89ab_cdef, "crt"),
            [
                16, 0, 0, 0, 0, 0, 0, 0, // dim
                32, 0, 0, 0, // k
                0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, // fingerprint
                3, 0, 0, 0, b'c', b'r', b't', // backend id
            ]
        );
    }
}
