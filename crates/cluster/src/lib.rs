//! # ccmx-cluster — sharded multi-node protocol lab
//!
//! The single-server lab (`ccmx-net`) answers Theorem 1.1 bound
//! queries, metered protocol runs, and singularity checks over one TCP
//! endpoint. This crate scales that lab *out*: a fleet of ordinary
//! shard servers plus one **coordinator** that consistent-hashes each
//! request's routing key — the same `(spec, input-hash, backend id)`
//! triple the server's bounds cache keys on — across the fleet.
//!
//! The payoff mirrors the multi-party direction in the literature
//! (Chu–Schnitger's bounds are two-party; follow-ups distribute the
//! matrix across `s` players): with deterministic key→shard placement,
//! `N` shards of cache capacity `C` behave like one bounds cache of
//! capacity `~N·C`, so adding shards grows the *working set* the lab
//! can hold at protocol speed — the effect experiment E18 measures.
//!
//! Layers:
//!
//! - [`ring`]: the consistent-hash circle (FNV-1a vnodes). Join/leave
//!   moves only `~1/N` of keys, so resharding keeps caches warm.
//! - [`shard`]: a named `ccmx_net::serve` instance with a
//!   `ccmx_shard_up{shard}` liveness gauge.
//! - [`coordinator`]: replica fan-out with breaker-guarded links
//!   (`ccmx-net`'s `CircuitBreaker` per shard), per-shard in-flight
//!   caps that shed load before queues melt, batch-group fan-out, and
//!   a degraded mode that answers `Bounds` from a local LRU when no
//!   shard is reachable. Everything is metered under
//!   `ccmx_cluster_*` metric families.
//! - [`chaos`]: seals every coordinator↔shard link inside the PR 5
//!   fault-injection transport and soaks the whole topology —
//!   asserting that failover, retransmission, resharding, and shard
//!   death never change a single metered protocol bit.
//!
//! The invariant of the whole repo holds one level up: the
//! coordinator is infrastructure, so nothing it does — routing,
//! retries, fan-out — may appear in the communication-complexity
//! ledger. `chaos::cluster_soak` enforces that bit-for-bit against
//! `run_sequential`.

#![deny(missing_docs)]

pub mod ccfan;
pub mod chaos;
pub mod coordinator;
pub mod ring;
pub mod shard;

pub use ccfan::{cc_via_fanout, CcFanResult};
pub use chaos::{cluster_soak, ChaosDialer, ClusterSoakReport, SoakConfig};
pub use coordinator::{
    request_route_key, serve_coordinator, ClusterConfig, Coordinator, CoordinatorHandler,
    ShardConn, ShardDialer, ShardSpec, TcpDialer,
};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use shard::{serve_shard, ShardConfig, ShardHandle};
