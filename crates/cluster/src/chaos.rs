//! Cluster chaos: fault-sealed coordinator↔shard links and soaks that
//! assert the router never perturbs the metered protocol bits.
//!
//! The unit under attack here is the *routing fabric*, not the
//! protocol: every coordinator↔shard connection is tunneled through a
//! [`FaultTransport`] (the PR 5 envelope/NACK stack) in **sealed-frame
//! mode** — request/response frames ride the chaos envelopes with
//! checksums and retransmission, but none of their bytes are metered as
//! protocol bits, because coordinator hops are infrastructure. A bridge
//! thread per link pumps recovered frames onto a real TCP connection to
//! the shard.
//!
//! [`cluster_soak`] then drives a seeded protocol-run workload through
//! a live cluster while faults chew on every link, optionally
//! resharding (join + leave) or killing a shard mid-run, and checks
//! each answered run **bit-for-bit** against `run_sequential` — the
//! cluster-level version of the repo's invariant that transport
//! failures, retries, failovers and resharding must never leak into the
//! communication-complexity ledger.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ccmx_comm::protocol::run_sequential;
use ccmx_comm::BitString;
use ccmx_net::wire::{KIND_REQUEST, KIND_RESPONSE};
use ccmx_net::{
    fault_mem_pair, ChaosLevel, Client, FaultTransport, MemFrameLink, NetError, ProtoSpec, Request,
    Response, WireCodec,
};
use parking_lot::Mutex;

use crate::coordinator::{
    intern_label, ClusterConfig, Coordinator, ShardConn, ShardDialer, ShardSpec,
};
use crate::shard::{serve_shard, ShardConfig, ShardHandle};

/// How long a sealed call waits out chaos recovery before counting as a
/// link failure. In-memory links recover in milliseconds even under
/// aggressive schedules; seconds of silence means the peer is gone.
const SEALED_CALL_DEADLINE: Duration = Duration::from_secs(3);

/// A fixed salt so soak RNG streams never collide with shard seeds.
const SOAK_RNG_SALT: u64 = 0xc1a5_7e2d_0000_0001;

/// One sealed link: requests go out through a local fault transport,
/// and a bridge thread on the far end replays recovered frames to the
/// real shard over TCP.
struct SealedConn {
    side: FaultTransport<MemFrameLink>,
}

impl ShardConn for SealedConn {
    fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        self.side.send_sealed(KIND_REQUEST, &req.to_wire_bytes())?;
        let (kind, payload) = self.side.recv_sealed()?;
        if kind != KIND_RESPONSE {
            return Err(NetError::Protocol(format!(
                "sealed link got unexpected frame kind {kind}"
            )));
        }
        Response::from_wire_bytes(&payload)
    }
}

/// A [`ShardDialer`] that seals every link it opens inside a pair of
/// fault transports with deterministic per-link schedules.
pub struct ChaosDialer {
    level: ChaosLevel,
    seed: u64,
    dials: AtomicU64,
    bridges: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ChaosDialer {
    /// A dialer whose `i`-th link uses schedules seeded from
    /// `(seed, i)` — rerunning a soak replays the identical fault
    /// pattern.
    pub fn new(level: ChaosLevel, seed: u64) -> Self {
        ChaosDialer {
            level,
            seed,
            dials: AtomicU64::new(0),
            bridges: Mutex::new(Vec::new()),
        }
    }

    /// Join every bridge thread whose link has been severed. Call after
    /// dropping the coordinator (links die with it).
    pub fn join_bridges(&self) {
        for handle in self.bridges.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl ShardDialer for ChaosDialer {
    fn dial(&self, spec: &ShardSpec) -> Result<Box<dyn ShardConn>, NetError> {
        // Connect synchronously so a dead shard fails the dial itself
        // (fast breaker feedback), not the first call.
        let mut client = Client::connect(spec.addr.as_str(), Default::default())?;
        let n = self.dials.fetch_add(1, Ordering::SeqCst);
        let salt = self.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (mut near, mut far) = fault_mem_pair(
            self.level.config(salt),
            self.level.config(salt ^ 0x5bd1_e995),
        );
        near.set_recv_deadline(SEALED_CALL_DEADLINE);
        far.set_recv_deadline(Duration::from_millis(200));
        let handle = std::thread::spawn(move || loop {
            match far.recv_sealed() {
                Ok((KIND_REQUEST, payload)) => {
                    let resp = match Request::from_wire_bytes(&payload) {
                        Ok(req) => match client.request(&req) {
                            Ok(r) => r,
                            // The shard itself is gone: sever the link
                            // so the coordinator sees a dead edge, not
                            // a slow one.
                            Err(_) => break,
                        },
                        Err(e) => Response::Error(format!("bad sealed request: {e}")),
                    };
                    if far
                        .send_sealed(KIND_RESPONSE, &resp.to_wire_bytes())
                        .is_err()
                    {
                        break;
                    }
                }
                Ok(_) => break,
                // Idle link: keep pumping the NACK clock.
                Err(NetError::Timeout) => continue,
                Err(_) => break,
            }
        });
        self.bridges.lock().push(handle);
        Ok(Box::new(SealedConn { side: near }))
    }
}

/// Knobs for one cluster soak.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Initial shard count.
    pub shards: usize,
    /// Protocol-run requests to drive through the coordinator.
    pub requests: usize,
    /// Master seed for inputs and fault schedules.
    pub seed: u64,
    /// Fault intensity on every coordinator↔shard link.
    pub level: ChaosLevel,
    /// Join a new shard at ⅓ of the run and retire an original at ⅔.
    pub reshard: bool,
    /// Kill (not cleanly remove) one original shard at ½ of the run;
    /// requires `shards >= 2` to have a failover target.
    pub kill: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            shards: 2,
            requests: 48,
            seed: 7,
            level: ChaosLevel::Moderate,
            reshard: true,
            kill: false,
        }
    }
}

/// Verdict of one cluster soak.
#[derive(Clone, Debug)]
pub struct ClusterSoakReport {
    /// Shards at the start of the run.
    pub shards_initial: usize,
    /// Requests driven.
    pub requests: usize,
    /// Requests answered with a protocol-run result.
    pub answered: usize,
    /// Requests answered with an error (no shard reachable).
    pub errors: usize,
    /// Answered runs whose metered result differed from the sequential
    /// reference — the number that must be zero.
    pub diverged: usize,
    /// Whether a join+leave reshard happened mid-run.
    pub resharded: bool,
    /// Shard killed mid-run, if any.
    pub killed_shard: Option<String>,
    /// The killed shard's breaker state at the end of the run.
    pub killed_breaker: Option<ccmx_net::BreakerState>,
    /// Failovers observed across all shards (best-effort metric delta;
    /// parallel tests in the same process may inflate it).
    pub failovers: u64,
    /// The headline invariant: every answered run matched the
    /// sequential reference bit-for-bit.
    pub zero_bit_divergence: bool,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn failover_total(shard_names: &[String]) -> u64 {
    shard_names
        .iter()
        .map(|n| {
            ccmx_obs::registry()
                .counter_value("ccmx_cluster_failover_total", &[("shard", intern_label(n))])
                .unwrap_or(0)
        })
        .sum()
}

/// Boot an in-process cluster, chew on every coordinator↔shard link
/// with the configured fault schedule, drive a seeded protocol-run
/// workload, optionally reshard or kill mid-run, and compare every
/// answered run bit-for-bit with `run_sequential`.
pub fn cluster_soak(config: SoakConfig) -> ClusterSoakReport {
    assert!(config.shards >= 1, "a cluster needs at least one shard");
    let shard_cfg = |name: &str| {
        let mut cfg = ShardConfig::named(name);
        cfg.server.bounds_cache_capacity = 32;
        cfg.server.workers = 2;
        cfg
    };
    let mut handles: Vec<(String, Option<ShardHandle>)> = Vec::new();
    let mut specs = Vec::new();
    for i in 0..config.shards {
        let name = format!("soak-{}-s{i}", config.seed);
        let handle = serve_shard("127.0.0.1:0", shard_cfg(&name)).expect("bind soak shard");
        specs.push(ShardSpec::new(&name, &handle.addr().to_string()));
        handles.push((name, Some(handle)));
    }
    let all_names: Vec<String> = handles.iter().map(|(n, _)| n.clone()).collect();

    let dialer = Arc::new(ChaosDialer::new(config.level, config.seed));
    let coordinator = Coordinator::new(
        ClusterConfig {
            replicas: 2,
            ..ClusterConfig::default()
        },
        specs,
        Arc::clone(&dialer) as Arc<dyn ShardDialer>,
    );

    let spec = ProtoSpec::SendAllSingularity { dim: 2, k: 2 };
    let setup = spec.build();
    let failovers_before = failover_total(&all_names);

    let mut rng = config.seed ^ SOAK_RNG_SALT;
    let mut answered = 0usize;
    let mut errors = 0usize;
    let mut diverged = 0usize;
    let mut resharded = false;
    let mut killed_shard = None;
    let mut joined: Option<(String, ShardHandle)> = None;

    for i in 0..config.requests {
        if config.reshard && i == config.requests / 3 && joined.is_none() {
            let name = format!("soak-{}-joiner", config.seed);
            let handle = serve_shard("127.0.0.1:0", shard_cfg(&name)).expect("bind joining shard");
            let spec = ShardSpec::new(&name, &handle.addr().to_string());
            coordinator.add_shard(spec);
            joined = Some((name, handle));
        }
        if config.kill && i == config.requests / 2 && killed_shard.is_none() {
            // Kill the *server* but leave it on the ring: the breaker,
            // not the membership table, must absorb this.
            let (name, slot) = handles.first_mut().expect("at least one shard");
            if let Some(h) = slot.take() {
                h.shutdown();
            }
            killed_shard = Some(name.clone());
        }
        if config.reshard && i == (2 * config.requests) / 3 && !resharded {
            // Retire the last original shard cleanly (leave, then stop).
            let (name, slot) = handles.last_mut().expect("at least one shard");
            if killed_shard.as_deref() != Some(name.as_str()) {
                coordinator.remove_shard(name);
                if let Some(h) = slot.take() {
                    h.shutdown();
                }
                resharded = true;
            }
        }

        let bits = splitmix64(&mut rng);
        let input = BitString::from_u64(bits & ((1u64 << setup.input_bits) - 1), setup.input_bits);
        let seed = splitmix64(&mut rng);
        let req = Request::Run {
            spec,
            input: input.clone(),
            seed,
        };
        match coordinator.dispatch(&req) {
            Response::Run(result) => {
                answered += 1;
                let reference =
                    run_sequential(setup.proto.as_ref(), &setup.partition, &input, seed);
                if result != reference {
                    diverged += 1;
                }
            }
            Response::Error(_) => errors += 1,
            other => {
                errors += 1;
                let _ = other;
            }
        }
    }

    let killed_breaker = killed_shard
        .as_deref()
        .and_then(|n| coordinator.breaker_state(n));
    let mut names_for_delta = all_names.clone();
    if let Some((n, _)) = &joined {
        names_for_delta.push(n.clone());
    }
    let failovers = failover_total(&names_for_delta).saturating_sub(failovers_before);

    drop(coordinator);
    dialer.join_bridges();
    if let Some((_, handle)) = joined {
        handle.shutdown();
    }
    for (_, slot) in handles.iter_mut() {
        if let Some(h) = slot.take() {
            h.shutdown();
        }
    }

    ClusterSoakReport {
        shards_initial: config.shards,
        requests: config.requests,
        answered,
        errors,
        diverged,
        resharded,
        killed_shard,
        killed_breaker,
        failovers,
        zero_bit_divergence: diverged == 0,
    }
}
