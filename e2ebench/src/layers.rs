//! The traced run's layer measurements: the benchmark times its own
//! calls into each layer's public functions on the workload's seeded
//! inputs. Nothing here instruments the server; spans are built in this
//! process and written out when the run ends.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use ccmx_cluster::{coordinator::request_route_key, HashRing, DEFAULT_VNODES};
use ccmx_comm::protocol::run_sequential;
use ccmx_comm::truth::TruthMatrix;
use ccmx_comm::MatrixEncoding;
use ccmx_linalg::iomodel::{self, Kernel};
use ccmx_net::{Request, Response, WireCodec};
use ccmx_store::{Keyspace, Store, StoreConfig};

use crate::gen::{self, CACHE_CAPACITY, PROBE_BASE};
use crate::json::Value;
use crate::load::Stages;
use crate::procs::SHARDS;

/// One timed layer call of a replayed request.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub name: &'static str,
    pub ns: u64,
}

/// Counters a replay collects besides times.
#[derive(Clone, Debug, Default)]
pub struct SearchTally {
    pub solves: u64,
    pub nodes: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let v = std::hint::black_box(f());
    (v, t.elapsed().as_nanos() as u64)
}

/// Replays what a server does for one request (not a batch): decode,
/// fingerprint, the kernel on a cache miss, the store append of a
/// fresh verdict. `store` is `Some` when the workload's server keeps
/// one.
pub struct Replayer {
    store: Option<Store>,
    backend: &'static str,
    pub search: SearchTally,
}

impl Replayer {
    pub fn new(store_dir: Option<&Path>) -> Result<Replayer, String> {
        let store = match store_dir {
            Some(dir) => Some(
                Store::open(StoreConfig::new(dir).label("e2ebench"))
                    .map_err(|e| format!("probe store: {e}"))?,
            ),
            None => None,
        };
        Ok(Replayer {
            store,
            backend: ccmx_linalg::crt::active_backend().id(),
            search: SearchTally::default(),
        })
    }

    /// Append and sync one record, as the server does per fresh verdict.
    fn put_sync(&mut self, ks: Keyspace, key: &[u8], value: &[u8], steps: &mut Vec<Step>) {
        if let Some(store) = &mut self.store {
            let ((), ns) = timed(|| {
                store
                    .put(ks, key, value)
                    .and_then(|()| store.sync())
                    .expect("probe store write");
            });
            steps.push(Step {
                name: "store.put_sync",
                ns,
            });
        }
    }

    /// Replay one non-batch request; `miss` says whether the server's
    /// cache missed it (only misses run a kernel and write the store).
    pub fn member(&mut self, req: &Request, miss: bool, steps: &mut Vec<Step>) {
        match req {
            Request::Singularity { dim, k, input } => {
                let (m, ns) = timed(|| MatrixEncoding::new(*dim, *k).decode(input));
                steps.push(Step {
                    name: "comm.decode",
                    ns,
                });
                let (fp, ns) = timed(|| ccmx_linalg::crt::matrix_fingerprint(&m));
                steps.push(Step {
                    name: "linalg.fingerprint",
                    ns,
                });
                if miss {
                    let (rank, ns) = timed(|| ccmx_linalg::crt::rank_int(&m));
                    steps.push(Step {
                        name: "linalg.crt_rank",
                        ns,
                    });
                    let mut key = Vec::new();
                    dim.put(&mut key);
                    k.put(&mut key);
                    fp.put(&mut key);
                    self.backend.to_string().put(&mut key);
                    self.put_sync(Keyspace::CRT, &key, &[u8::from(rank < *dim)], steps);
                }
            }
            Request::CcSearch {
                rows,
                cols,
                bits,
                depth_limit,
            } => {
                if miss {
                    let (resp, ns) = timed(|| {
                        let t = TruthMatrix::from_fn(*rows, *cols, |x, y| bits.get(x * cols + y));
                        let cfg = ccmx_search::SearchConfig {
                            depth_limit: *depth_limit,
                            ..ccmx_search::SearchConfig::default()
                        };
                        let r = ccmx_search::solve(&t, &cfg).expect("probe solve");
                        self.search.solves += 1;
                        self.search.nodes += r.stats.nodes;
                        self.search.memo_hits += r.stats.memo_hits;
                        self.search.memo_misses += r.stats.memo_misses;
                        Response::CcSearch {
                            cc: r.cc,
                            exact: r.exact,
                            nodes: r.stats.nodes,
                            certificate: r.certificate.map(|c| c.to_bytes()).unwrap_or_default(),
                        }
                    });
                    steps.push(Step {
                        name: "search.solve",
                        ns,
                    });
                    let mut key = Vec::new();
                    rows.put(&mut key);
                    cols.put(&mut key);
                    bits.put(&mut key);
                    depth_limit.put(&mut key);
                    self.put_sync(Keyspace::CC, &key, &resp.to_wire_bytes(), steps);
                }
            }
            Request::Run { spec, input, seed } => {
                let (_, ns) = timed(|| {
                    let lab = spec.build();
                    run_sequential(lab.proto.as_ref(), &lab.partition, input, *seed)
                });
                steps.push(Step {
                    name: "comm.run",
                    ns,
                });
            }
            Request::Bounds { n, k, security } => {
                if miss {
                    let (report, ns) = timed(|| crate::oracle::bounds_report(*n, *k, *security));
                    steps.push(Step {
                        name: "core.bounds",
                        ns,
                    });
                    let mut key = Vec::new();
                    n.put(&mut key);
                    k.put(&mut key);
                    security.put(&mut key);
                    self.backend.to_string().put(&mut key);
                    self.put_sync(Keyspace::BOUNDS, &key, &report.to_wire_bytes(), steps);
                }
            }
            Request::Ping | Request::Metrics | Request::Batch(_) => {}
        }
    }
}

/// Codec work on the server side of each connection a request
/// crosses: every server decodes the request and encodes the response,
/// and a coordinator also encodes it onward and decodes the reply. The
/// client's own encode and decode are timed live.
pub fn server_codec_ns(req: &Request, resp: &Response, hops: usize) -> u64 {
    let (rb, sb) = (req.to_wire_bytes(), resp.to_wire_bytes());
    let (_, ns) = timed(|| {
        for hop in 0..hops {
            let r = Request::from_wire_bytes(&rb).expect("request round-trips");
            std::hint::black_box((r, resp.to_wire_bytes()));
            if hop > 0 {
                let s = Response::from_wire_bytes(&sb).expect("response round-trips");
                std::hint::black_box((req.to_wire_bytes(), s));
            }
        }
    });
    ns
}

/// Which shard's cache a request lands in.
pub struct Router {
    ring: Option<HashRing>,
}

impl Router {
    pub fn new(cluster: bool) -> Router {
        Router {
            ring: cluster.then(|| {
                let mut ring = HashRing::new(DEFAULT_VNODES);
                for s in SHARDS {
                    ring.add_shard(s);
                }
                ring
            }),
        }
    }

    pub fn shard(&self, req: &Request) -> usize {
        match &self.ring {
            None => 0,
            Some(ring) => {
                let name = ring.route(request_route_key(req)).unwrap_or(SHARDS[0]);
                SHARDS.iter().position(|s| *s == name).unwrap_or(0)
            }
        }
    }

    /// Median nanoseconds of one routing decision (key hash + ring
    /// lookup) over `reqs`.
    pub fn route_ns(&self, reqs: &[&Request]) -> f64 {
        let Some(ring) = &self.ring else {
            return 0.0;
        };
        let mut per: Vec<f64> = reqs
            .iter()
            .map(|r| {
                let reps = 16;
                let (_, ns) = timed(|| {
                    for _ in 0..reps {
                        std::hint::black_box(
                            ring.route(request_route_key(std::hint::black_box(r))),
                        );
                    }
                });
                ns as f64 / reps as f64
            })
            .collect();
        per.sort_by(f64::total_cmp);
        crate::stats::median(&per).unwrap_or(0.0)
    }
}

/// A model of the servers' per-kind LRU caches (capacity
/// [`CACHE_CAPACITY`], one set per shard), fed the requests in the
/// order they were issued, to tell replays which requests missed.
pub struct CacheModel {
    /// `(shard, kind)` → key bytes → last-use tick.
    lrus: HashMap<(usize, u8), HashMap<Vec<u8>, u64>>,
    tick: u64,
}

impl CacheModel {
    pub fn new() -> CacheModel {
        CacheModel {
            lrus: HashMap::new(),
            tick: 0,
        }
    }

    /// Record a lookup of `req` on `shard`; `true` on a miss.
    /// Uncached kinds always miss.
    pub fn lookup(&mut self, shard: usize, req: &Request) -> bool {
        let kind = match req {
            Request::Bounds { .. } => 1,
            Request::Singularity { .. } => 2,
            Request::CcSearch { .. } => 3,
            _ => return true,
        };
        self.tick += 1;
        let lru = self.lrus.entry((shard, kind)).or_default();
        let key = req.to_wire_bytes();
        if let Some(t) = lru.get_mut(&key) {
            *t = self.tick;
            return false;
        }
        if lru.len() >= CACHE_CAPACITY {
            if let Some(old) = lru.iter().min_by_key(|(_, t)| **t).map(|(k, _)| k.clone()) {
                lru.remove(&old);
            }
        }
        lru.insert(key, self.tick);
        true
    }
}

/// Mean microseconds of `crt::rank_int` on `count` matrices of `dim`
/// drawn from the run's seed, half forced singular, half uniform; plus
/// the Hong–Kung words moved per metered kernel call over them.
pub fn rank_probe(seed: u64, dim: usize, count: u64) -> (f64, u64, u64) {
    let (w0, c0) = io_totals();
    let mut total = 0u64;
    for j in 0..count {
        let (_, entries) = gen::sing_item(seed, PROBE_BASE + j, dim, j % 2 == 0);
        let m = ccmx_linalg::Matrix::from_fn(dim, dim, |r, c| {
            ccmx_bigint::Integer::from(entries[r * dim + c])
        });
        total += timed(|| ccmx_linalg::crt::rank_int(&m)).1;
    }
    let (w1, c1) = io_totals();
    (total as f64 / count as f64 / 1e3, w1 - w0, c1 - c0)
}

fn io_totals() -> (u64, u64) {
    let mut words = 0;
    let mut calls = 0;
    for kernel in [Kernel::Det, Kernel::Rank, Kernel::Rref] {
        for blocked in [false, true] {
            let (w, c) = iomodel::kernel_stats(kernel, blocked);
            words += w;
            calls += c;
        }
    }
    (words, calls)
}

/// Spans of the traced window, kept in memory and written at the end.
#[derive(Default)]
pub struct Spans {
    lines: Vec<String>,
    next_id: u64,
}

impl Spans {
    fn push(
        &mut self,
        trace: u64,
        parent: u64,
        name: &str,
        start: u64,
        dur: u64,
        live: bool,
    ) -> u64 {
        self.next_id += 1;
        self.lines.push(
            Value::obj([
                ("trace", Value::Num(trace as f64)),
                ("span", Value::Num(self.next_id as f64)),
                ("parent", Value::Num(parent as f64)),
                ("name", Value::Str(name.to_string())),
                ("start_ns", Value::Num(start as f64)),
                ("dur_ns", Value::Num(dur as f64)),
                ("replayed", Value::Bool(!live)),
            ])
            .render(),
        );
        self.next_id
    }

    /// Record one request's spans: the client-observed root and its
    /// four client-side stages, measured while the request ran; under
    /// the wait stage, the replayed server-side layer steps, each the
    /// child of the one before and laid end to end from the wait's
    /// start.
    pub fn record(&mut self, trace: u64, start: u64, latency: u64, st: &Stages, steps: &[Step]) {
        let root = self.push(trace, 0, "client.request", start, latency, true);
        let mut at = start;
        for (name, dur) in [
            ("client.encode", st.encode_ns),
            ("net.send", st.send_ns),
            ("net.wait", st.wait_ns),
            ("client.decode", st.decode_ns),
        ] {
            let id = self.push(trace, root, name, at, dur, true);
            if name == "net.wait" {
                let (mut parent, mut t) = (id, at);
                for s in steps {
                    parent = self.push(trace, parent, s.name, t, s.ns, false);
                    t += s.ns;
                }
            }
            at += dur;
        }
    }

    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut text = self.lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The flattened members of a request (itself, unless a batch).
pub fn members(req: &Request) -> Vec<&Request> {
    match req {
        Request::Batch(m) => m.iter().collect(),
        other => vec![other],
    }
}
