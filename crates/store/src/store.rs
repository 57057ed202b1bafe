//! The store proper: a directory of segments, an in-memory index
//! rebuilt by scan on open, crash recovery, tombstone compaction and
//! `ccmx_store_*` metrics.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use ccmx_obs::{registry, Counter, Gauge};

use crate::record::{self, Keyspace, Record};
use crate::segment::{
    self, parse_segment_file_name, scan_segment, ScanEnd, SegmentWriter, SEGMENT_HEADER_BYTES,
};
use crate::StoreError;

/// Default segment roll threshold: 8 MiB.
pub const DEFAULT_ROLL_BYTES: u64 = 8 << 20;

/// Suffix appended to segment files recovery can no longer trust.
/// Quarantined files are renamed, never deleted — the bytes stay on
/// disk for forensics, but the scanner ignores them.
pub const QUARANTINE_SUFFIX: &str = "quarantined";

/// Configuration for opening a [`Store`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Data directory; created if missing.
    pub dir: PathBuf,
    /// Metric label value for this store's `ccmx_store_*` series.
    pub label: String,
    /// Roll to a new segment once the active one reaches this many
    /// bytes ([`DEFAULT_ROLL_BYTES`] by default).
    pub roll_bytes: u64,
    /// fsync after every sync point. Off by default: the page cache
    /// already survives a process SIGKILL; fsync only buys durability
    /// against power loss, at real latency cost.
    pub fsync: bool,
}

impl StoreConfig {
    /// Defaults for a data directory.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            label: "default".to_string(),
            roll_bytes: DEFAULT_ROLL_BYTES,
            fsync: false,
        }
    }

    /// Set the metric label.
    pub fn label(mut self, label: impl Into<String>) -> StoreConfig {
        self.label = label.into();
        self
    }

    /// Set the segment roll threshold.
    pub fn roll_bytes(mut self, bytes: u64) -> StoreConfig {
        self.roll_bytes = bytes.max(SEGMENT_HEADER_BYTES as u64 + 1);
        self
    }

    /// Enable fsync-per-sync-point.
    pub fn fsync(mut self, on: bool) -> StoreConfig {
        self.fsync = on;
        self
    }
}

/// What kind of problem recovery found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryKind {
    /// The last segment ended mid-frame; the tail was truncated to the
    /// last whole frame.
    TornTail,
    /// A frame failed validation (checksum, magic, impossible length);
    /// everything from that offset on was discarded.
    CorruptFrame,
    /// A segment header failed validation; the whole file was
    /// quarantined.
    CorruptHeader,
    /// A segment after a corruption point was quarantined wholesale to
    /// preserve the exact-prefix guarantee.
    QuarantinedSegment,
}

impl std::fmt::Display for RecoveryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RecoveryKind::TornTail => "torn-tail",
            RecoveryKind::CorruptFrame => "corrupt-frame",
            RecoveryKind::CorruptHeader => "corrupt-header",
            RecoveryKind::QuarantinedSegment => "quarantined-segment",
        };
        f.write_str(s)
    }
}

/// One problem recovery found and resolved, surfaced exactly once.
#[derive(Clone, Debug)]
pub struct RecoveryIssue {
    /// Segment id the issue was found in.
    pub segment: u64,
    /// Byte offset of the first untrusted byte within that segment.
    pub offset: u64,
    /// Classification.
    pub kind: RecoveryKind,
    /// Human-readable detail (the typed decode error's message).
    pub detail: String,
}

/// What [`Store::open`] recovered, and what it had to repair.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Segment files scanned (quarantined ones included).
    pub segments_scanned: u64,
    /// Record frames accepted into the index scan (live + superseded +
    /// tombstones).
    pub recovered_records: u64,
    /// Bytes cut off the tail segment (torn or corrupt tail).
    pub truncated_bytes: u64,
    /// Whole segments renamed aside as untrustworthy.
    pub quarantined_segments: u64,
    /// Every problem found, each surfaced exactly once.
    pub issues: Vec<RecoveryIssue>,
}

impl RecoveryReport {
    /// True when recovery found nothing to repair.
    pub fn clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Report from [`Store::compact`].
#[derive(Clone, Copy, Debug)]
pub struct CompactReport {
    /// Segment files before compaction.
    pub segments_before: u64,
    /// Segment files after compaction.
    pub segments_after: u64,
    /// Live records carried across.
    pub live_records: u64,
    /// Dead bytes reclaimed (superseded frames, tombstones, overhead).
    pub reclaimed_bytes: u64,
}

/// Point-in-time statistics from [`Store::stat`].
#[derive(Clone, Debug)]
pub struct StoreStat {
    /// Data directory.
    pub dir: PathBuf,
    /// Segment files currently in the log.
    pub segments: u64,
    /// Live (visible) records.
    pub live_records: u64,
    /// Bytes owned by live frames.
    pub live_bytes: u64,
    /// Bytes owned by superseded frames, tombstones and headers —
    /// what compaction would reclaim.
    pub dead_bytes: u64,
    /// Live-record count per keyspace, sorted by keyspace byte.
    pub per_keyspace: Vec<(String, u64)>,
    /// Next sequence number to be assigned.
    pub next_seqno: u64,
}

/// Read-only health report from [`Store::verify_dir`].
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Per-segment: (id, valid records, file bytes, status) where
    /// status is `"clean"`, `"torn@<off>"`, `"corrupt@<off>: <why>"`
    /// or `"bad-header: <why>"`.
    pub segments: Vec<(u64, u64, u64, String)>,
    /// Total valid records across all segments.
    pub records: u64,
    /// Quarantined files present in the directory.
    pub quarantined: u64,
    /// True when every segment scanned clean.
    pub ok: bool,
}

struct IndexEntry {
    seqno: u64,
    frame_len: u64,
    value: Vec<u8>,
}

struct StoreMetrics {
    segments: &'static Gauge,
    live_records: &'static Gauge,
    live_bytes: &'static Gauge,
    dead_bytes: &'static Gauge,
    appends: &'static Counter,
    recovered: &'static Counter,
    truncated_bytes: &'static Counter,
    quarantined: &'static Counter,
    compactions: &'static Counter,
    reclaimed_bytes: &'static Counter,
}

/// Intern a label so the `'static` metric registry can hold it without
/// leaking a fresh allocation per [`Store::open`].
fn intern_label(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashMap::new()));
    let mut pool = pool.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&v) = pool.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(s.to_string(), leaked);
    leaked
}

impl StoreMetrics {
    fn for_label(label: &str) -> StoreMetrics {
        let l = intern_label(label);
        let lbl: &[(&'static str, &'static str)] = &[("store", l)];
        let r = registry();
        StoreMetrics {
            segments: r.gauge("ccmx_store_segments", lbl),
            live_records: r.gauge("ccmx_store_live_records", lbl),
            live_bytes: r.gauge("ccmx_store_live_bytes", lbl),
            dead_bytes: r.gauge("ccmx_store_dead_bytes", lbl),
            appends: r.counter("ccmx_store_appends_total", lbl),
            recovered: r.counter("ccmx_store_recovered_records_total", lbl),
            truncated_bytes: r.counter("ccmx_store_truncated_bytes_total", lbl),
            quarantined: r.counter("ccmx_store_quarantined_segments_total", lbl),
            compactions: r.counter("ccmx_store_compactions_total", lbl),
            reclaimed_bytes: r.counter("ccmx_store_compact_reclaimed_bytes_total", lbl),
        }
    }
}

/// The persistent certified-result store. See the crate docs and
/// `docs/STORAGE.md` for the format and recovery rules.
pub struct Store {
    config: StoreConfig,
    writer: SegmentWriter,
    index: HashMap<(Keyspace, Vec<u8>), IndexEntry>,
    /// Segment ids in the log, ascending; last is the writer's.
    segment_ids: Vec<u64>,
    next_seqno: u64,
    live_bytes: u64,
    dead_bytes: u64,
    recovery: RecoveryReport,
    metrics: StoreMetrics,
}

impl Store {
    /// Open (creating if needed) the store in `config.dir`, rebuilding
    /// the index by scanning every segment and repairing any crash
    /// damage. The resulting index is always exactly the prefix of
    /// committed records up to the first untrustworthy byte.
    pub fn open(config: StoreConfig) -> Result<Store, StoreError> {
        fs::create_dir_all(&config.dir)?;
        if !config.dir.is_dir() {
            return Err(StoreError::Invalid(format!(
                "store path {} is not a directory",
                config.dir.display()
            )));
        }
        let metrics = StoreMetrics::for_label(&config.label);
        let mut ids = list_segments(&config.dir)?;
        ids.sort_unstable();

        let mut report = RecoveryReport::default();
        let mut index: HashMap<(Keyspace, Vec<u8>), IndexEntry> = HashMap::new();
        let mut live_bytes = 0u64;
        let mut dead_bytes = 0u64;
        let mut next_seqno = 0u64;
        let mut kept_ids: Vec<u64> = Vec::new();
        let mut poisoned_at: Option<usize> = None;

        for (pos, &id) in ids.iter().enumerate() {
            report.segments_scanned += 1;
            let is_last = pos + 1 == ids.len();
            let scan = match scan_segment(&config.dir, id) {
                Ok(s) => s,
                Err(StoreError::Unsupported(m)) => return Err(StoreError::Unsupported(m)),
                Err(e) => {
                    // Unreadable header: no salvageable prefix in this
                    // file. Quarantine it, and everything after it.
                    report.issues.push(RecoveryIssue {
                        segment: id,
                        offset: 0,
                        kind: RecoveryKind::CorruptHeader,
                        detail: e.to_string(),
                    });
                    quarantine(&config.dir, id)?;
                    report.quarantined_segments += 1;
                    poisoned_at = Some(pos + 1);
                    break;
                }
            };
            dead_bytes += SEGMENT_HEADER_BYTES as u64;
            for located in &scan.records {
                let rec = &located.record;
                next_seqno = next_seqno.max(rec.seqno + 1);
                report.recovered_records += 1;
                let key = (rec.keyspace, rec.key.clone());
                if let Some(old) = index.remove(&key) {
                    live_bytes -= old.frame_len;
                    dead_bytes += old.frame_len;
                }
                if rec.tombstone {
                    dead_bytes += located.frame_len;
                } else {
                    live_bytes += located.frame_len;
                    index.insert(
                        key,
                        IndexEntry {
                            seqno: rec.seqno,
                            frame_len: located.frame_len,
                            value: rec.value.clone(),
                        },
                    );
                }
            }
            kept_ids.push(id);
            match scan.end {
                ScanEnd::Clean => {}
                ScanEnd::Torn { offset } => {
                    report.issues.push(RecoveryIssue {
                        segment: id,
                        offset,
                        kind: RecoveryKind::TornTail,
                        detail: format!("file ends mid-frame at offset {offset}"),
                    });
                    report.truncated_bytes += scan.file_len - offset;
                    truncate_segment(&config.dir, id, offset)?;
                    if !is_last {
                        poisoned_at = Some(pos + 1);
                        break;
                    }
                }
                ScanEnd::Corrupt { offset, error } => {
                    // Note this includes a frame claiming a newer record
                    // schema: the segment *header* already proved the
                    // file was written at a format version this build
                    // understands, and writers must bump that version
                    // before emitting newer record schemas (STORAGE.md
                    // §2) — so inside this segment, an out-of-range
                    // schema byte is a flipped bit, not a downgrade.
                    report.issues.push(RecoveryIssue {
                        segment: id,
                        offset,
                        kind: RecoveryKind::CorruptFrame,
                        detail: error.to_string(),
                    });
                    report.truncated_bytes += scan.file_len - offset;
                    truncate_segment(&config.dir, id, offset)?;
                    if !is_last {
                        poisoned_at = Some(pos + 1);
                        break;
                    }
                }
            }
        }

        // Everything after a mid-log problem is quarantined wholesale:
        // keeping newer segments while records before them were lost
        // would resurrect stale values — a corrupted answer. An exact
        // prefix, surfaced loudly, is the only safe recovery.
        if let Some(from) = poisoned_at {
            for &id in &ids[from..] {
                report.segments_scanned += 1;
                report.issues.push(RecoveryIssue {
                    segment: id,
                    offset: 0,
                    kind: RecoveryKind::QuarantinedSegment,
                    detail: "follows a corrupted segment; exact-prefix discipline".to_string(),
                });
                quarantine(&config.dir, id)?;
                report.quarantined_segments += 1;
            }
        }

        // Reopen the tail for appending, or start segment 0 / the next
        // id after the highest ever seen (ids are never reused, even
        // for quarantined files).
        let next_fresh_id = ids.iter().copied().max().map_or(0, |m| m + 1);
        let writer = match (kept_ids.last().copied(), poisoned_at) {
            (Some(last), None) => {
                let len = fs::metadata(config.dir.join(segment::segment_file_name(last)))?.len();
                SegmentWriter::reopen(&config.dir, last, len)?
            }
            _ => {
                let w = SegmentWriter::create(&config.dir, next_fresh_id, next_seqno)?;
                kept_ids.push(next_fresh_id);
                dead_bytes += SEGMENT_HEADER_BYTES as u64;
                w
            }
        };

        metrics.recovered.add(report.recovered_records);
        metrics.truncated_bytes.add(report.truncated_bytes);
        metrics.quarantined.add(report.quarantined_segments);

        let store = Store {
            config,
            writer,
            index,
            segment_ids: kept_ids,
            next_seqno,
            live_bytes,
            dead_bytes,
            recovery: report,
            metrics,
        };
        store.publish_gauges();
        Ok(store)
    }

    /// The recovery report from this open.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Data directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Live (visible) record count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no live records exist.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Look up a key. Returns the latest committed value, or `None`
    /// for absent or deleted keys.
    pub fn get(&self, keyspace: Keyspace, key: &[u8]) -> Option<&[u8]> {
        self.index
            .get(&(keyspace, key.to_vec()))
            .map(|e| e.value.as_slice())
    }

    /// Append a write. Last writer wins; a re-put of an identical value
    /// still appends (the log is the history).
    pub fn put(&mut self, keyspace: Keyspace, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        if key.len() > record::MAX_KEY_BYTES {
            return Err(StoreError::Invalid(format!(
                "key of {} bytes exceeds the {} cap",
                key.len(),
                record::MAX_KEY_BYTES
            )));
        }
        if value.len() > record::MAX_VALUE_BYTES {
            return Err(StoreError::Invalid(format!(
                "value of {} bytes exceeds the {} cap",
                value.len(),
                record::MAX_VALUE_BYTES
            )));
        }
        let rec = Record {
            keyspace,
            seqno: self.next_seqno,
            tombstone: false,
            key: key.to_vec(),
            value: value.to_vec(),
        };
        let frame = record::encode(&rec);
        self.append_frame(&frame)?;
        let entry = IndexEntry {
            seqno: rec.seqno,
            frame_len: frame.len() as u64,
            value: rec.value,
        };
        self.next_seqno += 1;
        if let Some(old) = self.index.insert((keyspace, key.to_vec()), entry) {
            self.live_bytes -= old.frame_len;
            self.dead_bytes += old.frame_len;
        }
        self.live_bytes += frame.len() as u64;
        self.publish_gauges();
        Ok(())
    }

    /// Append a tombstone. Returns whether the key was live.
    pub fn delete(&mut self, keyspace: Keyspace, key: &[u8]) -> Result<bool, StoreError> {
        let rec = Record {
            keyspace,
            seqno: self.next_seqno,
            tombstone: true,
            key: key.to_vec(),
            value: Vec::new(),
        };
        let frame = record::encode(&rec);
        self.append_frame(&frame)?;
        self.next_seqno += 1;
        self.dead_bytes += frame.len() as u64;
        let was_live = match self.index.remove(&(keyspace, key.to_vec())) {
            Some(old) => {
                self.live_bytes -= old.frame_len;
                self.dead_bytes += old.frame_len;
                true
            }
            None => false,
        };
        self.publish_gauges();
        Ok(was_live)
    }

    /// Visit every live record in one keyspace, in commit (seqno)
    /// order — deterministic, so warm seeding reproduces insertion
    /// order into LRU caches.
    pub fn for_each(&self, keyspace: Keyspace, mut f: impl FnMut(&[u8], &[u8])) {
        let mut live: Vec<(&Vec<u8>, &IndexEntry)> = self
            .index
            .iter()
            .filter(|((ks, _), _)| *ks == keyspace)
            .map(|((_, k), e)| (k, e))
            .collect();
        live.sort_by_key(|(_, e)| e.seqno);
        for (k, e) in live {
            f(k, &e.value);
        }
    }

    /// Flush appended frames to the OS (and fsync when configured).
    /// After `sync` returns, the data survives a process SIGKILL.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.writer.sync()?;
        if self.config.fsync {
            self.writer.fsync()?;
        }
        Ok(())
    }

    /// Rewrite all live records into fresh segments and delete the old
    /// files, reclaiming dead bytes. Crash-safe: new segments are
    /// written and synced before any old file is removed, old files are
    /// removed oldest-first, and rewritten records keep their original
    /// seqnos — so a crash at any point leaves a log that scans to the
    /// same index (see `docs/STORAGE.md` §6).
    pub fn compact(&mut self) -> Result<CompactReport, StoreError> {
        let before_segments = self.segment_ids.len() as u64;
        let before_bytes = self.live_bytes + self.dead_bytes;
        let old_ids = std::mem::take(&mut self.segment_ids);
        let first_new = old_ids.iter().copied().max().map_or(0, |m| m + 1);

        // Live records in commit order.
        let mut live: Vec<(&(Keyspace, Vec<u8>), &IndexEntry)> = self.index.iter().collect();
        live.sort_by_key(|(_, e)| e.seqno);

        let mut new_ids = Vec::new();
        let mut id = first_new;
        let mut w = SegmentWriter::create(&self.config.dir, id, self.next_seqno)?;
        new_ids.push(id);
        let mut new_bytes = SEGMENT_HEADER_BYTES as u64;
        let mut rewritten: HashMap<(Keyspace, Vec<u8>), u64> = HashMap::new();
        for ((ks, key), entry) in live {
            let rec = Record {
                keyspace: *ks,
                seqno: entry.seqno,
                tombstone: false,
                key: key.clone(),
                value: entry.value.clone(),
            };
            let frame = record::encode(&rec);
            if w.len() + frame.len() as u64 > self.config.roll_bytes && !w.is_empty() {
                w.sync()?;
                if self.config.fsync {
                    w.fsync()?;
                }
                id += 1;
                w = SegmentWriter::create(&self.config.dir, id, entry.seqno)?;
                new_ids.push(id);
                new_bytes += SEGMENT_HEADER_BYTES as u64;
            }
            w.append(&frame)?;
            new_bytes += frame.len() as u64;
            rewritten.insert((*ks, key.clone()), frame.len() as u64);
        }
        w.sync()?;
        if self.config.fsync {
            w.fsync()?;
        }

        // Only now is it safe to drop the old files, oldest first: a
        // tombstone's segment is never removed before the puts it
        // shadows (puts live in segments with ids <= the tombstone's).
        for old in &old_ids {
            fs::remove_file(self.config.dir.join(segment::segment_file_name(*old)))?;
        }

        // Refresh accounting: every index entry now has the frame_len
        // of its rewritten frame.
        let mut live_bytes = 0u64;
        for (key, entry) in self.index.iter_mut() {
            if let Some(len) = rewritten.get(key) {
                entry.frame_len = *len;
                live_bytes += *len;
            }
        }
        let reclaimed = before_bytes.saturating_sub(new_bytes);
        self.live_bytes = live_bytes;
        self.dead_bytes = new_bytes - live_bytes;
        self.segment_ids = new_ids;
        self.writer = w;

        self.metrics.compactions.inc();
        self.metrics.reclaimed_bytes.add(reclaimed);
        self.publish_gauges();
        Ok(CompactReport {
            segments_before: before_segments,
            segments_after: self.segment_ids.len() as u64,
            live_records: self.index.len() as u64,
            reclaimed_bytes: reclaimed,
        })
    }

    /// Point-in-time statistics.
    pub fn stat(&self) -> StoreStat {
        let mut per: HashMap<Keyspace, u64> = HashMap::new();
        for ((ks, _), _) in self.index.iter() {
            *per.entry(*ks).or_insert(0) += 1;
        }
        let mut per_keyspace: Vec<(Keyspace, u64)> = per.into_iter().collect();
        per_keyspace.sort_by_key(|(ks, _)| ks.0);
        StoreStat {
            dir: self.config.dir.clone(),
            segments: self.segment_ids.len() as u64,
            live_records: self.index.len() as u64,
            live_bytes: self.live_bytes,
            dead_bytes: self.dead_bytes,
            per_keyspace: per_keyspace
                .into_iter()
                .map(|(ks, n)| (ks.name(), n))
                .collect(),
            next_seqno: self.next_seqno,
        }
    }

    /// Read-only integrity check of a store directory — never repairs,
    /// truncates or renames anything. Safe to run against a directory
    /// another process has open.
    pub fn verify_dir(dir: &Path) -> Result<VerifyReport, StoreError> {
        let mut ids = list_segments(dir)?;
        ids.sort_unstable();
        let quarantined = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(QUARANTINE_SUFFIX))
            .count() as u64;
        let mut out = VerifyReport {
            quarantined,
            ok: true,
            ..VerifyReport::default()
        };
        for id in ids {
            match scan_segment(dir, id) {
                Ok(scan) => {
                    let n = scan.records.len() as u64;
                    out.records += n;
                    let status = match scan.end {
                        ScanEnd::Clean => "clean".to_string(),
                        ScanEnd::Torn { offset } => {
                            out.ok = false;
                            format!("torn@{offset}")
                        }
                        ScanEnd::Corrupt { offset, ref error } => {
                            out.ok = false;
                            format!("corrupt@{offset}: {error}")
                        }
                    };
                    out.segments.push((id, n, scan.file_len, status));
                }
                Err(e) => {
                    out.ok = false;
                    out.segments.push((id, 0, 0, format!("bad-header: {e}")));
                }
            }
        }
        if out.quarantined > 0 {
            out.ok = false;
        }
        Ok(out)
    }

    fn append_frame(&mut self, frame: &[u8]) -> Result<(), StoreError> {
        if self.writer.len() + frame.len() as u64 > self.config.roll_bytes
            && !self.writer.is_empty()
        {
            self.writer.sync()?;
            if self.config.fsync {
                self.writer.fsync()?;
            }
            let id = self.writer.id() + 1;
            self.writer = SegmentWriter::create(&self.config.dir, id, self.next_seqno)?;
            self.segment_ids.push(id);
            self.dead_bytes += SEGMENT_HEADER_BYTES as u64;
        }
        self.writer.append(frame)?;
        self.metrics.appends.inc();
        Ok(())
    }

    fn publish_gauges(&self) {
        self.metrics.segments.set(self.segment_ids.len() as i64);
        self.metrics.live_records.set(self.index.len() as i64);
        self.metrics.live_bytes.set(self.live_bytes as i64);
        self.metrics.dead_bytes.set(self.dead_bytes as i64);
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

fn list_segments(dir: &Path) -> Result<Vec<u64>, StoreError> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(id) = parse_segment_file_name(&entry.file_name().to_string_lossy()) {
            ids.push(id);
        }
    }
    Ok(ids)
}

fn truncate_segment(dir: &Path, id: u64, len: u64) -> Result<(), StoreError> {
    let path = dir.join(segment::segment_file_name(id));
    let file = fs::OpenOptions::new().write(true).open(&path)?;
    file.set_len(len)?;
    file.sync_data()?;
    Ok(())
}

fn quarantine(dir: &Path, id: u64) -> Result<(), StoreError> {
    let from = dir.join(segment::segment_file_name(id));
    let to = dir.join(format!(
        "{}.{QUARANTINE_SUFFIX}",
        segment::segment_file_name(id)
    ));
    fs::rename(&from, &to)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Keyspace;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ccmx-store-core-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: &Path, tag: &str) -> StoreConfig {
        StoreConfig::new(dir).label(format!("test-{tag}"))
    }

    #[test]
    fn put_get_delete_survive_reopen() {
        let dir = tmp("basic");
        {
            let mut s = Store::open(cfg(&dir, "basic")).unwrap();
            s.put(Keyspace::BOUNDS, b"alpha", b"1").unwrap();
            s.put(Keyspace::BOUNDS, b"beta", b"2").unwrap();
            s.put(Keyspace::CC, b"alpha", b"other-keyspace").unwrap();
            s.put(Keyspace::BOUNDS, b"alpha", b"1-rewritten").unwrap();
            s.delete(Keyspace::BOUNDS, b"beta").unwrap();
            s.sync().unwrap();
            assert_eq!(s.get(Keyspace::BOUNDS, b"alpha"), Some(&b"1-rewritten"[..]));
            assert_eq!(s.get(Keyspace::BOUNDS, b"beta"), None);
        }
        let s = Store::open(cfg(&dir, "basic")).unwrap();
        assert!(s.recovery().clean());
        assert_eq!(s.recovery().recovered_records, 5);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(Keyspace::BOUNDS, b"alpha"), Some(&b"1-rewritten"[..]));
        assert_eq!(s.get(Keyspace::CC, b"alpha"), Some(&b"other-keyspace"[..]));
        assert_eq!(s.get(Keyspace::BOUNDS, b"beta"), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn for_each_yields_commit_order() {
        let dir = tmp("order");
        let mut s = Store::open(cfg(&dir, "order")).unwrap();
        for i in 0..20u32 {
            s.put(Keyspace::CC, &i.to_le_bytes(), &[i as u8]).unwrap();
        }
        let mut seen = Vec::new();
        s.for_each(Keyspace::CC, |k, _| {
            seen.push(u32::from_le_bytes([k[0], k[1], k[2], k[3]]))
        });
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_reopen_sees_all() {
        let dir = tmp("roll");
        let n = {
            let mut s = Store::open(cfg(&dir, "roll").roll_bytes(256)).unwrap();
            for i in 0..50u32 {
                s.put(Keyspace::MEMO, &i.to_le_bytes(), &[0u8; 40]).unwrap();
            }
            s.sync().unwrap();
            assert!(s.stat().segments > 1, "expected the log to roll");
            s.stat().segments
        };
        let s = Store::open(cfg(&dir, "roll").roll_bytes(256)).unwrap();
        assert_eq!(s.stat().segments, n);
        assert_eq!(s.len(), 50);
        assert!(s.recovery().clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_to_prefix() {
        let dir = tmp("torn");
        {
            let mut s = Store::open(cfg(&dir, "torn")).unwrap();
            for i in 0..10u32 {
                s.put(Keyspace::RUN, &i.to_le_bytes(), b"payload").unwrap();
            }
            s.sync().unwrap();
        }
        // Tear the tail: chop 5 bytes off the last segment.
        let seg = dir.join(segment::segment_file_name(0));
        let len = fs::metadata(&seg).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let s = Store::open(cfg(&dir, "torn")).unwrap();
        assert_eq!(s.len(), 9, "last record torn away, prefix intact");
        assert_eq!(s.recovery().issues.len(), 1);
        assert_eq!(s.recovery().issues[0].kind, RecoveryKind::TornTail);
        // The repaired log reopens clean.
        drop(s);
        let s = Store::open(cfg(&dir, "torn")).unwrap();
        assert!(s.recovery().clean());
        assert_eq!(s.len(), 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_quarantines_later_segments() {
        let dir = tmp("quarantine");
        {
            let mut s = Store::open(cfg(&dir, "quarantine").roll_bytes(200)).unwrap();
            for i in 0..30u32 {
                s.put(Keyspace::CRT, &i.to_le_bytes(), &[7u8; 64]).unwrap();
            }
            s.sync().unwrap();
            assert!(s.stat().segments >= 3);
        }
        // Flip a bit in the middle of segment 1's record area.
        let seg = dir.join(segment::segment_file_name(1));
        let mut bytes = fs::read(&seg).unwrap();
        let mid = SEGMENT_HEADER_BYTES + 10;
        bytes[mid] ^= 0x01;
        fs::write(&seg, &bytes).unwrap();

        let s = Store::open(cfg(&dir, "quarantine").roll_bytes(200)).unwrap();
        assert!(!s.recovery().clean());
        assert!(s.recovery().quarantined_segments >= 1);
        assert!(s
            .recovery()
            .issues
            .iter()
            .any(|i| i.kind == RecoveryKind::QuarantinedSegment));
        // Only records from segment 0 plus segment 1's valid prefix
        // survive — an exact prefix of commit order.
        let mut max_key = 0u32;
        s.for_each(Keyspace::CRT, |k, _| {
            max_key = max_key.max(u32::from_le_bytes([k[0], k[1], k[2], k[3]]))
        });
        assert_eq!(s.len() as u32, max_key + 1, "no gaps: an exact prefix");
        assert!(s.len() < 30);
        // Quarantined files are preserved on disk.
        let q = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(QUARANTINE_SUFFIX)
            })
            .count();
        assert!(q >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_reclaims_and_preserves_state() {
        let dir = tmp("compact");
        let mut s = Store::open(cfg(&dir, "compact").roll_bytes(300)).unwrap();
        for round in 0..5u32 {
            for i in 0..10u32 {
                s.put(
                    Keyspace::BOUNDS,
                    &i.to_le_bytes(),
                    format!("round-{round}").as_bytes(),
                )
                .unwrap();
            }
        }
        for i in 5..10u32 {
            s.delete(Keyspace::BOUNDS, &i.to_le_bytes()).unwrap();
        }
        s.sync().unwrap();
        let before = s.stat();
        let report = s.compact().unwrap();
        assert_eq!(report.live_records, 5);
        assert!(report.reclaimed_bytes > 0);
        assert!(s.stat().dead_bytes < before.dead_bytes);
        for i in 0..5u32 {
            assert_eq!(
                s.get(Keyspace::BOUNDS, &i.to_le_bytes()),
                Some(&b"round-4"[..])
            );
        }
        // Writes after compaction land and the whole thing reopens.
        s.put(Keyspace::BOUNDS, b"post", b"compact").unwrap();
        s.sync().unwrap();
        drop(s);
        let s = Store::open(cfg(&dir, "compact").roll_bytes(300)).unwrap();
        assert!(s.recovery().clean());
        assert_eq!(s.len(), 6);
        assert_eq!(s.get(Keyspace::BOUNDS, b"post"), Some(&b"compact"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_1_frame_is_a_corrupt_tail() {
        let dir = tmp("schema1");
        let seg = dir.join(segment::segment_file_name(0));
        let clean_len = {
            let mut s = Store::open(cfg(&dir, "schema1")).unwrap();
            for i in 0..4u32 {
                s.put(Keyspace::CC, &i.to_le_bytes(), b"v2").unwrap();
            }
            s.sync().unwrap();
            fs::metadata(&seg).unwrap().len()
        };
        // A checksum-valid frame with schema byte 1 and a 12-byte,
        // seqno-less header: no build has ever written one, so it can
        // only be damage.
        let mut frame = vec![record::RECORD_MAGIC, 1, Keyspace::CC.0, 0];
        frame.extend_from_slice(&3u32.to_le_bytes());
        frame.extend_from_slice(&2u32.to_le_bytes());
        frame.extend_from_slice(b"oldv1");
        let sum = crate::fnv64(&frame);
        frame.extend_from_slice(&sum.to_le_bytes());
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(&frame);
        fs::write(&seg, &bytes).unwrap();

        let s = Store::open(cfg(&dir, "schema1")).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(Keyspace::CC, b"old"), None);
        assert_eq!(s.recovery().issues.len(), 1);
        assert_eq!(s.recovery().issues[0].kind, RecoveryKind::CorruptFrame);
        assert_eq!(s.recovery().issues[0].offset, clean_len);
        assert_eq!(s.recovery().truncated_bytes, frame.len() as u64);
        assert_eq!(fs::metadata(&seg).unwrap().len(), clean_len);
        drop(s);
        let s = Store::open(cfg(&dir, "schema1")).unwrap();
        assert!(s.recovery().clean());
        assert_eq!(s.len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_dir_is_read_only_and_spots_damage() {
        let dir = tmp("verify");
        {
            let mut s = Store::open(cfg(&dir, "verify")).unwrap();
            for i in 0..8u32 {
                s.put(Keyspace::BOUNDS, &i.to_le_bytes(), b"x").unwrap();
            }
            s.sync().unwrap();
        }
        let clean = Store::verify_dir(&dir).unwrap();
        assert!(clean.ok);
        assert_eq!(clean.records, 8);
        // Corrupt, verify (must not repair), then check the file is
        // untouched and open() still fixes it.
        let seg = dir.join(segment::segment_file_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let tail = bytes.len() - 3;
        bytes[tail] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        let damaged = Store::verify_dir(&dir).unwrap();
        assert!(!damaged.ok);
        assert_eq!(fs::read(&seg).unwrap(), bytes, "verify must not mutate");
        let s = Store::open(cfg(&dir, "verify")).unwrap();
        assert!(!s.recovery().clean());
        assert_eq!(s.len(), 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stat_accounts_keyspaces() {
        let dir = tmp("stat");
        let mut s = Store::open(cfg(&dir, "stat")).unwrap();
        s.put(Keyspace::BOUNDS, b"a", b"1").unwrap();
        s.put(Keyspace::CC, b"b", b"2").unwrap();
        s.put(Keyspace::CC, b"c", b"3").unwrap();
        let stat = s.stat();
        assert_eq!(stat.live_records, 3);
        assert_eq!(
            stat.per_keyspace,
            vec![("bounds".to_string(), 1), ("cc".to_string(), 2)]
        );
        assert!(stat.live_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_key_and_value_rejected() {
        let dir = tmp("caps");
        let mut s = Store::open(cfg(&dir, "caps")).unwrap();
        let big_key = vec![0u8; record::MAX_KEY_BYTES + 1];
        assert!(matches!(
            s.put(Keyspace::CC, &big_key, b"v"),
            Err(StoreError::Invalid(_))
        ));
        let big_val = vec![0u8; record::MAX_VALUE_BYTES + 1];
        assert!(matches!(
            s.put(Keyspace::CC, b"k", &big_val),
            Err(StoreError::Invalid(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
