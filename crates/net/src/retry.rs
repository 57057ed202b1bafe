//! Retrying client: jittered exponential backoff, idempotency-keyed
//! replay, and breaker-guarded degradation to cached bounds.
//!
//! The accounting rule that makes retries safe for a *bit-metering*
//! instrument: every wire attempt is charged to exactly one of two
//! ledgers. Bits moved by an attempt that ultimately succeeds land in
//! [`RetryClient::committed_stats`]; bits moved by an attempt that
//! fails (connection died mid-run, server error, timeout) land in
//! [`RetryClient::discarded_bits`]. A protocol run replayed from the
//! idempotency cache touches neither — no wire traffic happens at all
//! — so retried runs can never double-count metered bits, and
//! `committed_stats().bits_total()` remains comparable bit-for-bit
//! with `Transcript::total_bits()` sums.
//!
//! The per-peer [`CircuitBreaker`] sits in front of every attempt:
//! while open, calls fail fast locally ([`NetError::CircuitOpen`])
//! except for bound queries, which degrade to the last good cached
//! [`BoundsReport`] — the Theorem 1.1 package is a pure function of
//! `(n, k, security)`, so a cached answer is exactly as correct as a
//! fresh one.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ccmx_comm::protocol::RunResult;
use ccmx_comm::BitString;
use ccmx_store::fnv64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::api::{BoundsReport, ProtoSpec};
use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::client::Client;
use crate::error::NetError;
use crate::transport::{TransportConfig, TransportStats};
use crate::wire::WireCodec;

/// Backoff schedule for [`RetryClient`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Wire attempts per call before giving up.
    pub max_attempts: u32,
    /// Backoff before attempt 2; doubles per attempt.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the jitter schedule (deterministic soaks).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            jitter_seed: 0x5eed,
        }
    }
}

/// Outcome of an idempotent protocol run.
#[derive(Clone, Debug)]
pub struct IdempotentRun {
    /// Agent A's (client-side) result.
    pub result_a: RunResult,
    /// Agent B's (server-side) result; must equal `result_a`.
    pub result_b: RunResult,
    /// Wire stats of the one committed execution of this run.
    pub stats: TransportStats,
    /// True when served from the idempotency cache: no wire traffic
    /// happened and no new bits were metered.
    pub replayed: bool,
    /// Wire attempts this call made (0 when replayed).
    pub attempts: u32,
}

fn stats_delta(after: TransportStats, before: TransportStats) -> TransportStats {
    TransportStats {
        msgs_sent: after.msgs_sent - before.msgs_sent,
        msgs_received: after.msgs_received - before.msgs_received,
        bits_sent: after.bits_sent - before.bits_sent,
        bits_received: after.bits_received - before.bits_received,
        raw_bytes_sent: after.raw_bytes_sent - before.raw_bytes_sent,
        raw_bytes_received: after.raw_bytes_received - before.raw_bytes_received,
    }
}

/// A client that retries with jittered exponential backoff behind an
/// idempotency key and a per-peer circuit breaker. See the module docs
/// for the two-ledger bit accounting.
pub struct RetryClient {
    addr: String,
    transport_config: TransportConfig,
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    conn: Option<Client>,
    /// Stats watermark at the last committed success on the current
    /// connection; the delta past it belongs to the in-flight attempt.
    conn_watermark: TransportStats,
    rng: StdRng,
    completed_runs: HashMap<u64, IdempotentRun>,
    bounds_cache: HashMap<(usize, u32, u32), BoundsReport>,
    committed: TransportStats,
    discarded_bits: u64,
    /// Persistent backing for the idempotency cache, when attached:
    /// committed runs are appended as they complete, so replays
    /// survive process death.
    store: Option<ccmx_store::Store>,
}

impl RetryClient {
    /// Build a client for `addr`. Connects lazily on first use.
    pub fn new(
        addr: &str,
        transport_config: TransportConfig,
        policy: RetryPolicy,
        breaker_config: BreakerConfig,
    ) -> Self {
        RetryClient {
            addr: addr.to_string(),
            transport_config,
            policy,
            breaker: CircuitBreaker::new(addr, breaker_config),
            conn: None,
            conn_watermark: TransportStats::default(),
            rng: StdRng::seed_from_u64(policy.jitter_seed),
            completed_runs: HashMap::new(),
            bounds_cache: HashMap::new(),
            committed: TransportStats::default(),
            discarded_bits: 0,
            store: None,
        }
    }

    /// Attach a persistent store under `dir`: every committed run
    /// already on disk is re-seeded into the idempotency cache right
    /// away (so replays survive process death), and every future
    /// committed run is appended. Returns how many runs were loaded.
    ///
    /// Fails only if the directory cannot be opened as a store at all;
    /// individual undecodable records are skipped (and counted on
    /// `ccmx_store_warm_skipped_total`), never trusted.
    pub fn attach_store(&mut self, dir: &std::path::Path) -> Result<usize, NetError> {
        let store = ccmx_store::Store::open(ccmx_store::StoreConfig::new(dir).label("client"))
            .map_err(|e| NetError::Protocol(format!("cannot open run store: {e}")))?;
        let mut loaded = 0usize;
        store.for_each(ccmx_store::Keyspace::RUN, |key, value| {
            match (<[u8; 8]>::try_from(key), crate::persist::decode_run(value)) {
                (Ok(key), Some(run)) => {
                    self.completed_runs.insert(u64::from_le_bytes(key), run);
                    loaded += 1;
                }
                _ => crate::persist::skipped_counter().inc(),
            }
        });
        crate::persist::seeded_counter("runs").add(loaded as u64);
        self.store = Some(store);
        Ok(loaded)
    }

    /// Current breaker state (ticks the open→half-open clock).
    pub fn breaker_state(&mut self) -> BreakerState {
        self.breaker.allow();
        self.breaker.state()
    }

    /// The breaker guarding this peer.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Wire stats of committed (successful) attempts only.
    pub fn committed_stats(&self) -> TransportStats {
        self.committed
    }

    /// Metered bits moved by attempts that later failed; kept out of
    /// [`Self::committed_stats`] so retries never double-count.
    pub fn discarded_bits(&self) -> u64 {
        self.discarded_bits
    }

    fn conn(&mut self) -> Result<&mut Client, NetError> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect(self.addr.as_str(), self.transport_config)?);
            self.conn_watermark = TransportStats::default();
        }
        Ok(self.conn.as_mut().expect("connection was just established"))
    }

    /// Tear down the connection, charging the bits its in-flight
    /// attempt moved to the discard ledger.
    fn discard_conn(&mut self) {
        if let Some(c) = self.conn.take() {
            let wasted = stats_delta(c.stats(), self.conn_watermark);
            self.discarded_bits += wasted.bits_total() as u64;
            ccmx_obs::counter!("ccmx_retry_discarded_bits_total").add(wasted.bits_total() as u64);
        }
        self.conn_watermark = TransportStats::default();
    }

    fn backoff(&mut self, attempt: u32) {
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.policy.max_backoff).as_micros() as u64;
        // Jitter in [capped/2, capped]: desynchronize a retry storm.
        let jittered = capped / 2 + self.rng.gen_range(0..=capped / 2);
        std::thread::sleep(Duration::from_micros(jittered));
    }

    /// Run `op` with breaker-guarded retries. On success, commit the
    /// connection's stats delta; on each failure, discard it.
    fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, NetError>,
    ) -> Result<(T, TransportStats, u32), NetError> {
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            if !self.breaker.allow() {
                ccmx_obs::counter!("ccmx_retry_rejected_total").inc();
                return Err(NetError::CircuitOpen);
            }
            attempt += 1;
            ccmx_obs::counter!("ccmx_retry_attempts_total").inc();
            let outcome = match self.conn() {
                Ok(client) => op(client),
                Err(e) => Err(e),
            };
            match outcome {
                Ok(value) => {
                    let stats_now = self
                        .conn
                        .as_ref()
                        .map(|c| c.stats())
                        .unwrap_or(self.conn_watermark);
                    let delta = stats_delta(stats_now, self.conn_watermark);
                    self.conn_watermark = stats_now;
                    self.committed = TransportStats {
                        msgs_sent: self.committed.msgs_sent + delta.msgs_sent,
                        msgs_received: self.committed.msgs_received + delta.msgs_received,
                        bits_sent: self.committed.bits_sent + delta.bits_sent,
                        bits_received: self.committed.bits_received + delta.bits_received,
                        raw_bytes_sent: self.committed.raw_bytes_sent + delta.raw_bytes_sent,
                        raw_bytes_received: self.committed.raw_bytes_received
                            + delta.raw_bytes_received,
                    };
                    self.breaker.record_success();
                    ccmx_obs::counter!("ccmx_retry_success_total").inc();
                    ccmx_obs::histogram!("ccmx_retry_latency_ns", &ccmx_obs::buckets::LATENCY_NS)
                        .record(started.elapsed().as_nanos() as u64);
                    return Ok((value, delta, attempt));
                }
                Err(e) => {
                    self.discard_conn();
                    self.breaker.record_failure();
                    ccmx_obs::counter!("ccmx_retry_failures_total").inc();
                    if attempt >= self.policy.max_attempts {
                        ccmx_obs::counter!("ccmx_retry_exhausted_total").inc();
                        ccmx_obs::histogram!(
                            "ccmx_retry_latency_ns",
                            &ccmx_obs::buckets::LATENCY_NS
                        )
                        .record(started.elapsed().as_nanos() as u64);
                        return Err(e);
                    }
                    self.backoff(attempt - 1);
                }
            }
        }
    }

    /// Liveness probe through the retry/breaker stack.
    pub fn ping(&mut self) -> Result<(), NetError> {
        self.with_retries(|c| c.ping()).map(|_| ())
    }

    /// Run a protocol interactively against the server, retrying whole
    /// runs behind an idempotency key over `(spec, input, seed)`. A
    /// repeat call with the same key replays the cached result without
    /// touching the wire.
    pub fn run_idempotent(
        &mut self,
        spec: ProtoSpec,
        input: &BitString,
        seed: u64,
    ) -> Result<IdempotentRun, NetError> {
        let mut key_bytes = spec.to_wire_bytes();
        input.put(&mut key_bytes);
        seed.put(&mut key_bytes);
        let key = fnv64(&key_bytes);
        if let Some(cached) = self.completed_runs.get(&key) {
            ccmx_obs::counter!("ccmx_retry_idempotent_replays_total").inc();
            let mut replay = cached.clone();
            replay.replayed = true;
            replay.attempts = 0;
            return Ok(replay);
        }
        let ((result_a, result_b, stats), _, attempts) =
            self.with_retries(|c| c.run_interactive(spec, input, seed))?;
        let run = IdempotentRun {
            result_a,
            result_b,
            stats,
            replayed: false,
            attempts,
        };
        self.completed_runs.insert(key, run.clone());
        if let Some(store) = &mut self.store {
            let put = store
                .put(
                    ccmx_store::Keyspace::RUN,
                    &key.to_le_bytes(),
                    &crate::persist::encode_run(&run),
                )
                .and_then(|()| store.sync());
            if let Err(e) = put {
                ccmx_obs::counter!("ccmx_store_write_errors_total").inc();
                eprintln!("ccmx-store[client]: write failed: {e}");
            }
        }
        Ok(run)
    }

    /// Theorem 1.1 bounds with graceful degradation: while the breaker
    /// is open (or every attempt failed), serve the last good cached
    /// report for `(n, k, security)` instead of failing. Returns the
    /// report and whether it came from the degraded cache.
    pub fn bounds_degraded(
        &mut self,
        n: usize,
        k: u32,
        security: u32,
    ) -> Result<(BoundsReport, bool), NetError> {
        let key = (n, k, security);
        if !self.breaker.allow() {
            return match self.bounds_cache.get(&key) {
                Some(report) => {
                    ccmx_obs::counter!("ccmx_retry_degraded_total").inc();
                    Ok((*report, true))
                }
                None => {
                    ccmx_obs::counter!("ccmx_retry_rejected_total").inc();
                    Err(NetError::CircuitOpen)
                }
            };
        }
        match self.with_retries(|c| c.bounds(n, k, security)) {
            Ok((report, _, _)) => {
                self.bounds_cache.insert(key, report);
                Ok((report, false))
            }
            Err(e) => match self.bounds_cache.get(&key) {
                Some(report) => {
                    ccmx_obs::counter!("ccmx_retry_degraded_total").inc();
                    Ok((*report, true))
                }
                None => Err(e),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServerConfig};
    use ccmx_comm::protocol::run_sequential;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            jitter_seed: 1,
        }
    }

    fn breaker_cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_for: Duration::from_millis(40),
            half_open_successes: 1,
        }
    }

    #[test]
    fn idempotent_replay_moves_no_new_bits() {
        let server = serve("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.addr().to_string();
        let mut rc = RetryClient::new(&addr, TransportConfig::default(), policy(), breaker_cfg());
        let spec = ProtoSpec::FingerprintEquality {
            half_bits: 16,
            security: 16,
        };
        let input = BitString::from_u64(0xdead_beef, 32);

        let first = rc.run_idempotent(spec, &input, 5).unwrap();
        assert!(!first.replayed);
        assert_eq!(first.attempts, 1);
        let lab = spec.build();
        let expected = run_sequential(lab.proto.as_ref(), &lab.partition, &input, 5);
        assert_eq!(first.result_a, expected);
        assert_eq!(
            first.stats.bits_total(),
            expected.transcript.total_bits(),
            "wire bits must equal the transcript"
        );
        let committed_after_first = rc.committed_stats();

        let second = rc.run_idempotent(spec, &input, 5).unwrap();
        assert!(second.replayed, "same key must replay from cache");
        assert_eq!(second.attempts, 0);
        assert_eq!(second.result_a, expected);
        assert_eq!(
            rc.committed_stats(),
            committed_after_first,
            "a replay must not move the committed ledger"
        );
        assert_eq!(rc.discarded_bits(), 0);
        server.shutdown();
    }

    #[test]
    fn idempotent_replays_survive_process_death() {
        let dir = std::env::temp_dir().join(format!("ccmx-retry-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = serve("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.addr().to_string();
        let spec = ProtoSpec::FingerprintEquality {
            half_bits: 16,
            security: 16,
        };
        let input = BitString::from_u64(0xfeed_f00d, 32);

        // First client lifetime: run once, persist, drop (the "death").
        let first = {
            let mut rc =
                RetryClient::new(&addr, TransportConfig::default(), policy(), breaker_cfg());
            assert_eq!(rc.attach_store(&dir).unwrap(), 0);
            rc.run_idempotent(spec, &input, 9).unwrap()
        };
        assert!(!first.replayed);

        // Second lifetime: a brand-new client with the same store
        // replays the run without touching the wire.
        let mut rc = RetryClient::new(&addr, TransportConfig::default(), policy(), breaker_cfg());
        assert_eq!(rc.attach_store(&dir).unwrap(), 1, "one run re-seeded");
        server.shutdown(); // nobody to talk to: a replay is the only way
        let replay = rc.run_idempotent(spec, &input, 9).unwrap();
        assert!(replay.replayed, "a persisted run must replay from disk");
        assert_eq!(replay.attempts, 0);
        assert_eq!(replay.result_a, first.result_a);
        assert_eq!(replay.result_b, first.result_b);
        assert_eq!(replay.stats, first.stats);
        assert_eq!(
            rc.committed_stats(),
            TransportStats::default(),
            "a disk replay moves no new bits"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_seeds_are_distinct_keys() {
        let server = serve("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.addr().to_string();
        let mut rc = RetryClient::new(&addr, TransportConfig::default(), policy(), breaker_cfg());
        let spec = ProtoSpec::FingerprintEquality {
            half_bits: 8,
            security: 12,
        };
        let input = BitString::from_u64(0xaaaa, 16);
        assert!(!rc.run_idempotent(spec, &input, 1).unwrap().replayed);
        assert!(!rc.run_idempotent(spec, &input, 2).unwrap().replayed);
        assert!(rc.run_idempotent(spec, &input, 1).unwrap().replayed);
        server.shutdown();
    }

    #[test]
    fn dead_server_exhausts_retries_and_opens_the_breaker() {
        // Bind-then-drop: nobody listens on this port.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut rc = RetryClient::new(&addr, TransportConfig::default(), policy(), breaker_cfg());
        assert!(matches!(
            rc.ping(),
            Err(NetError::Io(_) | NetError::Disconnected | NetError::Timeout)
        ));
        assert_eq!(
            rc.breaker().state(),
            BreakerState::Open,
            "three failed attempts must trip a threshold-3 breaker"
        );
        // While open, calls fail fast without wire traffic.
        assert!(matches!(rc.ping(), Err(NetError::CircuitOpen)));
        assert_eq!(rc.discarded_bits(), 0, "pings carry no metered bits");
    }

    #[test]
    fn bounds_degrade_to_cache_when_the_server_dies() {
        let server = serve("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.addr().to_string();
        let mut rc = RetryClient::new(&addr, TransportConfig::default(), policy(), breaker_cfg());
        let (fresh, degraded) = rc.bounds_degraded(5, 3, 20).unwrap();
        assert!(!degraded);
        server.shutdown();

        // The server is gone: retries exhaust, then the cache answers.
        let (cached, degraded) = rc.bounds_degraded(5, 3, 20).unwrap();
        assert!(degraded, "dead server must degrade to the cached report");
        assert_eq!(cached, fresh);
        // An uncached key has nothing to degrade to.
        let err = rc.bounds_degraded(7, 3, 20);
        assert!(matches!(
            err,
            Err(NetError::CircuitOpen | NetError::Io(_) | NetError::Disconnected)
        ));
    }

    #[test]
    fn breaker_recovers_once_the_server_is_back() {
        let addr;
        {
            // Reserve a port, then kill the listener to force failures.
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            addr = l.local_addr().unwrap();
        }
        let mut rc = RetryClient::new(
            &addr.to_string(),
            TransportConfig::default(),
            policy(),
            breaker_cfg(),
        );
        let _ = rc.ping();
        assert_eq!(rc.breaker().state(), BreakerState::Open);

        // Resurrect a server on the same port, wait out the cool-down,
        // and watch the half-open probe close the breaker.
        let server = match serve(&addr.to_string(), ServerConfig::default()) {
            Ok(s) => s,
            // Port already reused by another test: skip the recovery
            // half without failing the suite.
            Err(_) => return,
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(rc.ping().is_ok(), "half-open probe should succeed");
        assert_eq!(rc.breaker().state(), BreakerState::Closed);
        server.shutdown();
    }
}
