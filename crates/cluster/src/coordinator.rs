//! The coordinator: a wire-compatible protocol-lab front door that
//! routes every request to a shard instead of computing it locally.
//!
//! Routing is consistent-hash over the request's *cache identity* — the
//! encoded request bytes plus the active exact-arithmetic backend id,
//! the same components that key the server-side bounds cache — so
//! identical requests always land on the same shard and the cluster's
//! aggregate cache capacity is the sum of the shards'. Around that
//! core:
//!
//! * **replica failover** — each key has an ordered candidate list of
//!   distinct shards (`ClusterConfig::replicas`); a candidate whose
//!   breaker is open, whose inflight cap is reached, or whose call
//!   fails is skipped and the next one tried (`ccmx_cluster_failover_total`);
//! * **batch fan-out** — a `Request::Batch` is split into per-shard
//!   sub-batches (preserving member order in the reassembled response),
//!   so one client burst amortizes across the cluster
//!   (`ccmx_cluster_batch_fanout_total`);
//! * **breaker-guarded links** — one [`CircuitBreaker`] per shard (the
//!   PR 5 stack), with the shared `ccmx_breaker_state{peer}` gauge;
//! * **degraded mode** — successful `Bounds` answers are mirrored into
//!   a coordinator-local LRU; when every candidate is dark the cached
//!   Theorem 1.1 report is served (`ccmx_cluster_degraded_total`)
//!   rather than an error;
//! * **live membership** — [`Coordinator::add_shard`] /
//!   [`Coordinator::remove_shard`] reshard without a restart
//!   (`ccmx_cluster_reshards_total{op}`); in-flight calls on a removed
//!   link complete before the connection closes.
//!
//! Ingress backpressure is the evented engine's own queue-depth
//! shedding (the coordinator serves on [`ccmx_net::serve_with_handler`],
//! so `ServerConfig::max_pending_requests` governs it); the per-shard
//! `max_inflight_per_shard` cap adds the per-edge dimension.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccmx_net::cache::LruCache;
use ccmx_net::{
    BoundsReport, BreakerConfig, BreakerState, CircuitBreaker, Client, EventHandler, NetError,
    PromotedConn, Request, Response, ServerConfig, ServerHandle, TransportConfig, WireCodec,
};
use parking_lot::{Mutex, RwLock};

use crate::ring::{HashRing, DEFAULT_VNODES};

/// Intern a shard name for use as a `'static` metric label.
pub(crate) fn intern_label(name: &str) -> &'static str {
    use std::sync::OnceLock;
    static TABLE: OnceLock<std::sync::Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut table = TABLE
        .get_or_init(|| std::sync::Mutex::new(Vec::new()))
        .lock()
        .unwrap();
    if let Some(&existing) = table.iter().find(|&&s| s == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    table.push(leaked);
    leaked
}

/// One shard's identity: a stable name (ring position, metric label)
/// and a dialable address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Stable shard name; renaming a shard moves its ring points.
    pub name: String,
    /// `host:port` the shard server listens on.
    pub addr: String,
}

impl ShardSpec {
    /// Convenience constructor.
    pub fn new(name: &str, addr: &str) -> Self {
        ShardSpec {
            name: name.to_string(),
            addr: addr.to_string(),
        }
    }

    /// Parse the CLI form `name=addr`.
    pub fn parse(s: &str) -> Option<Self> {
        let (name, addr) = s.split_once('=')?;
        if name.is_empty() || addr.is_empty() {
            return None;
        }
        Some(ShardSpec::new(name, addr))
    }
}

/// One live connection to a shard.
pub trait ShardConn: Send {
    /// Send one request and wait for its response.
    fn call(&mut self, req: &Request) -> Result<Response, NetError>;
}

/// Opens connections to shards. Swapping the dialer is how the chaos
/// suite seals coordinator↔shard links inside `FaultTransport`
/// envelopes without the coordinator knowing.
pub trait ShardDialer: Send + Sync {
    /// Open a fresh connection to `spec`.
    fn dial(&self, spec: &ShardSpec) -> Result<Box<dyn ShardConn>, NetError>;
}

/// The production dialer: a plain [`Client`] over TCP.
pub struct TcpDialer {
    /// Timeouts/retries for each shard connection.
    pub config: TransportConfig,
}

struct ClientConn(Client);

impl ShardConn for ClientConn {
    fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        self.0.request(req)
    }
}

impl ShardDialer for TcpDialer {
    fn dial(&self, spec: &ShardSpec) -> Result<Box<dyn ShardConn>, NetError> {
        Ok(Box::new(ClientConn(Client::connect(
            spec.addr.as_str(),
            self.config,
        )?)))
    }
}

/// Capacity of the coordinator-local degraded-mode bounds cache.
const DEGRADED_CACHE_CAPACITY: usize = 64;

/// Topology and resilience knobs for a [`Coordinator`].
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Vnodes per shard on the consistent-hash ring.
    pub vnodes_per_shard: usize,
    /// Distinct candidate shards tried per key (primary + failovers).
    pub replicas: usize,
    /// Per-shard circuit breaker policy.
    pub breaker: BreakerConfig,
    /// Transport config for shard connections (the default dialer).
    pub transport: TransportConfig,
    /// Calls allowed to queue against one shard before further
    /// candidates are preferred / the request is shed.
    pub max_inflight_per_shard: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            vnodes_per_shard: DEFAULT_VNODES,
            replicas: 2,
            breaker: BreakerConfig::default(),
            transport: TransportConfig::default(),
            max_inflight_per_shard: 512,
        }
    }
}

struct ShardLink {
    spec: ShardSpec,
    conn: Mutex<Option<Box<dyn ShardConn>>>,
    breaker: Mutex<CircuitBreaker>,
    inflight: std::sync::atomic::AtomicUsize,
    inflight_gauge: &'static ccmx_obs::Gauge,
    label: &'static str,
}

impl ShardLink {
    fn new(spec: ShardSpec, breaker_cfg: BreakerConfig) -> Arc<Self> {
        let label = intern_label(&spec.name);
        Arc::new(ShardLink {
            breaker: Mutex::new(CircuitBreaker::new(&spec.name, breaker_cfg)),
            spec,
            conn: Mutex::new(None),
            inflight: std::sync::atomic::AtomicUsize::new(0),
            inflight_gauge: ccmx_obs::registry()
                .gauge("ccmx_cluster_inflight", &[("shard", label)]),
            label,
        })
    }
}

/// The routing key a request hashes to: its encoded bytes plus the
/// active linalg backend id — mirroring the shard-side bounds-cache key
/// so an identical request is always served by the shard whose cache
/// already holds it.
pub fn request_route_key(req: &Request) -> u64 {
    let mut bytes = req.to_wire_bytes();
    bytes.extend_from_slice(ccmx_linalg::crt::active_backend().id().as_bytes());
    ccmx_store::fnv64(&bytes)
}

fn shards_gauge() -> &'static ccmx_obs::Gauge {
    ccmx_obs::gauge!("ccmx_cluster_shards")
}

/// The shard router. Cheap to share (`Arc`); every method takes `&self`.
pub struct Coordinator {
    config: ClusterConfig,
    dialer: Arc<dyn ShardDialer>,
    ring: RwLock<HashRing>,
    links: RwLock<BTreeMap<String, Arc<ShardLink>>>,
    degraded: Mutex<LruCache<(usize, u32, u32), BoundsReport>>,
}

impl Coordinator {
    /// A coordinator over `shards`, dialing through `dialer`.
    pub fn new(
        config: ClusterConfig,
        shards: Vec<ShardSpec>,
        dialer: Arc<dyn ShardDialer>,
    ) -> Self {
        // Pre-register the cluster series so a scrape of an idle
        // coordinator shows them at zero.
        ccmx_obs::counter!("ccmx_cluster_shed_total").add(0);
        ccmx_obs::counter!("ccmx_cluster_degraded_total").add(0);
        ccmx_obs::counter!("ccmx_cluster_batch_fanout_total").add(0);
        let mut ring = HashRing::new(config.vnodes_per_shard);
        let mut links = BTreeMap::new();
        for spec in shards {
            if ring.add_shard(&spec.name) {
                links.insert(spec.name.clone(), ShardLink::new(spec, config.breaker));
            }
        }
        shards_gauge().set(ring.len() as i64);
        Coordinator {
            config,
            dialer,
            ring: RwLock::new(ring),
            links: RwLock::new(links),
            degraded: Mutex::new(LruCache::new(DEGRADED_CACHE_CAPACITY)),
        }
    }

    /// A coordinator with the plain TCP dialer.
    pub fn over_tcp(config: ClusterConfig, shards: Vec<ShardSpec>) -> Self {
        let transport = config.transport;
        Self::new(config, shards, Arc::new(TcpDialer { config: transport }))
    }

    /// Shard names currently routable, in name order.
    pub fn shard_names(&self) -> Vec<String> {
        self.links.read().keys().cloned().collect()
    }

    /// The breaker state guarding `name`, if that shard is known.
    pub fn breaker_state(&self, name: &str) -> Option<BreakerState> {
        self.links
            .read()
            .get(name)
            .map(|l| l.breaker.lock().state())
    }

    /// Join a shard live: future routes include it immediately; only
    /// ~1/N of the keyspace remaps onto it.
    pub fn add_shard(&self, spec: ShardSpec) -> bool {
        let mut ring = self.ring.write();
        if !ring.add_shard(&spec.name) {
            return false;
        }
        self.links
            .write()
            .insert(spec.name.clone(), ShardLink::new(spec, self.config.breaker));
        shards_gauge().set(ring.len() as i64);
        ccmx_obs::counter!("ccmx_cluster_reshards_total", "op" => "join").inc();
        true
    }

    /// Leave a shard live. The link is dropped from the routing table
    /// at once, but calls already holding it drain through the breaker
    /// stack before the connection closes (the `Arc` keeps it alive).
    pub fn remove_shard(&self, name: &str) -> bool {
        let mut ring = self.ring.write();
        if !ring.remove_shard(name) {
            return false;
        }
        self.links.write().remove(name);
        shards_gauge().set(ring.len() as i64);
        ccmx_obs::counter!("ccmx_cluster_reshards_total", "op" => "leave").inc();
        true
    }

    /// Route one request and return its response. Never panics; total.
    pub fn dispatch(&self, req: &Request) -> Response {
        match req {
            // The coordinator answers liveness and its own metrics
            // locally; everything computational goes to a shard.
            Request::Ping => Response::Pong,
            Request::Metrics => Response::Metrics(ccmx_obs::registry().render()),
            Request::Batch(members) => self.dispatch_batch(members),
            other => self.dispatch_single(other),
        }
    }

    fn dispatch_batch(&self, members: &[Request]) -> Response {
        if members.is_empty() {
            return Response::Batch(Vec::new());
        }
        // Group member indices by primary shard, preserving member
        // order inside each group (BTreeMap for deterministic fan-out
        // order).
        let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        {
            let ring = self.ring.read();
            for (i, m) in members.iter().enumerate() {
                let shard = match m {
                    // Sub-batching locally answerable members is
                    // pointless; and nested batches are rejected by
                    // shards anyway — dispatch them individually so the
                    // error is per-member.
                    Request::Ping | Request::Metrics | Request::Batch(_) => String::new(),
                    other => ring
                        .route(request_route_key(other))
                        .unwrap_or_default()
                        .to_string(),
                };
                groups.entry(shard).or_default().push(i);
            }
        }
        let mut slots: Vec<Option<Response>> = vec![None; members.len()];
        for (shard, idxs) in groups {
            if shard.is_empty() {
                for &i in &idxs {
                    slots[i] = Some(self.dispatch(&members[i]));
                }
                continue;
            }
            ccmx_obs::counter!("ccmx_cluster_batch_fanout_total").inc();
            let sub: Vec<Request> = idxs.iter().map(|&i| members[i].clone()).collect();
            match self.call_with_failover(&Request::Batch(sub), Some(&shard)) {
                Some(Response::Batch(resps)) if resps.len() == idxs.len() => {
                    for (&i, r) in idxs.iter().zip(resps) {
                        slots[i] = Some(r);
                    }
                }
                Some(other) => {
                    // A shard answering a batch with a non-batch (e.g.
                    // a top-level error) degrades every member of the
                    // group to that answer.
                    for &i in &idxs {
                        slots[i] = Some(other.clone());
                    }
                }
                None => {
                    // Whole group failed over to nothing: fall back to
                    // per-member dispatch, which can still degrade
                    // bounds members individually.
                    for &i in &idxs {
                        slots[i] = Some(self.dispatch_single(&members[i]));
                    }
                }
            }
        }
        Response::Batch(
            slots
                .into_iter()
                .map(|r| {
                    r.unwrap_or_else(|| Response::Error("batch member lost in fan-out".to_string()))
                })
                .collect(),
        )
    }

    fn dispatch_single(&self, req: &Request) -> Response {
        if let Some(resp) = self.call_with_failover(req, None) {
            return resp;
        }
        // Every candidate is dark. Degrade bounds requests to the
        // coordinator-local cache — stale Theorem 1.1 numbers beat no
        // numbers, and they are deterministic so "stale" equals fresh.
        if let Request::Bounds { n, k, security } = *req {
            if let Some(report) = self.degraded.lock().get(&(n, k, security)) {
                ccmx_obs::counter!("ccmx_cluster_degraded_total").inc();
                return Response::Bounds(report);
            }
        }
        ccmx_obs::counter!("ccmx_cluster_shed_total").inc();
        Response::Error("no shard available for this request".to_string())
    }

    /// Try `req` against the candidate shards for its key (or for
    /// `pinned`'s key space when a batch group already chose its
    /// primary), honoring breakers and inflight caps. `None` means
    /// every candidate was skipped or failed.
    fn call_with_failover(&self, req: &Request, pinned: Option<&str>) -> Option<Response> {
        let candidates: Vec<String> = {
            let ring = self.ring.read();
            match pinned {
                Some(primary) => {
                    // The batch group's primary first, then the other
                    // shards as failovers for the whole group.
                    let mut c = vec![primary.to_string()];
                    c.extend(
                        ring.shards()
                            .iter()
                            .filter(|s| s.as_str() != primary)
                            .take(self.config.replicas.max(1).saturating_sub(1))
                            .cloned(),
                    );
                    c
                }
                None => ring
                    .candidates(request_route_key(req), self.config.replicas.max(1))
                    .into_iter()
                    .map(String::from)
                    .collect(),
            }
        };
        for name in &candidates {
            let Some(link) = self.links.read().get(name).cloned() else {
                continue;
            };
            if !link.breaker.lock().allow() {
                continue;
            }
            let inflight = link
                .inflight
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
                + 1;
            link.inflight_gauge.set(inflight as i64);
            let result = if inflight > self.config.max_inflight_per_shard.max(1) {
                Err(NetError::Protocol("shard inflight cap reached".to_string()))
            } else {
                self.call_link(&link, req)
            };
            let now = link
                .inflight
                .fetch_sub(1, std::sync::atomic::Ordering::SeqCst)
                - 1;
            link.inflight_gauge.set(now as i64);
            match result {
                Ok(resp) => {
                    ccmx_obs::registry()
                        .counter("ccmx_cluster_routed_total", &[("shard", link.label)])
                        .inc();
                    if let (Request::Bounds { n, k, security }, Response::Bounds(report)) =
                        (req, &resp)
                    {
                        self.degraded.lock().put((*n, *k, *security), *report);
                    }
                    return Some(resp);
                }
                Err(_) => {
                    ccmx_obs::registry()
                        .counter("ccmx_cluster_failover_total", &[("shard", link.label)])
                        .inc();
                }
            }
        }
        None
    }

    /// One call on one link: dial on demand, drop the pooled connection
    /// on failure, and feed the breaker. A `Response::Error` from the
    /// shard is a *successful* call — the shard answered.
    fn call_link(&self, link: &ShardLink, req: &Request) -> Result<Response, NetError> {
        let result = {
            let mut conn = link.conn.lock();
            if conn.is_none() {
                match self.dialer.dial(&link.spec) {
                    Ok(c) => *conn = Some(c),
                    Err(e) => {
                        link.breaker.lock().record_failure();
                        return Err(e);
                    }
                }
            }
            let res = conn.as_mut().expect("dialed above").call(req);
            if res.is_err() {
                *conn = None;
            }
            res
        };
        match &result {
            Ok(_) => link.breaker.lock().record_success(),
            Err(_) => link.breaker.lock().record_failure(),
        }
        result
    }
}

/// [`EventHandler`] adapter: the coordinator served on the evented
/// engine, speaking the identical wire protocol as a shard.
pub struct CoordinatorHandler {
    coordinator: Arc<Coordinator>,
}

impl CoordinatorHandler {
    /// Wrap a coordinator for [`ccmx_net::serve_with_handler`].
    pub fn new(coordinator: Arc<Coordinator>) -> Self {
        CoordinatorHandler { coordinator }
    }
}

impl EventHandler for CoordinatorHandler {
    fn handle_request(&self, payload: &[u8], _received: std::time::Instant) -> Vec<u8> {
        let resp = match Request::from_wire_bytes(payload) {
            Ok(req) => self.coordinator.dispatch(&req),
            Err(e) => Response::Error(format!("bad request: {e}")),
        };
        resp.to_wire_bytes()
    }

    fn interactive(&self, conn: PromotedConn) {
        // An interactive run is a live two-agent exchange; proxying it
        // frame-by-frame through the router would meter coordinator hop
        // bits into the protocol ledger. Refuse with a pointer instead.
        conn.refuse("interactive runs must connect to a shard directly");
    }
}

/// Bind `addr` and serve the coordinator on the evented engine.
pub fn serve_coordinator(
    addr: &str,
    server: ServerConfig,
    coordinator: Arc<Coordinator>,
) -> std::io::Result<ServerHandle> {
    ccmx_net::serve_with_handler(addr, server, Arc::new(CoordinatorHandler::new(coordinator)))
}
