//! A shard: the ordinary protocol-lab server plus a cluster identity.
//!
//! A shard *is* `ccmx_net::serve` — same dispatch table, same bounds
//! cache, same evented engine — wrapped with a stable name for ring
//! placement and a `ccmx_shard_up{shard}` liveness gauge the operator
//! can alert on. The interesting per-shard knob is the server's
//! `bounds_cache_capacity`: the coordinator's consistent hashing
//! partitions the key space, so N shards of capacity C behave like one
//! bounds cache of capacity ~N·C — the resource that actually scales
//! when shards are added (see experiment E18).

use ccmx_net::{serve, ServerConfig, ServerHandle, ServerStats};

use crate::coordinator::intern_label;

/// Identity and sizing for one shard server.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Stable shard name (ring position, metric label).
    pub name: String,
    /// Data-directory *root* for the persistent certified-result
    /// store. Each shard keeps its own log under
    /// `<root>/<shard-name>`, so a whole cluster can share one root
    /// without write collisions, and a restarted shard warm-starts
    /// from exactly the verdicts it certified. `None` = in-memory.
    pub store_root: Option<std::path::PathBuf>,
    /// Server knobs, cache capacity and compute-pool size included.
    pub server: ServerConfig,
}

impl ShardConfig {
    /// A shard named `name` with default server knobs.
    pub fn named(name: &str) -> Self {
        ShardConfig {
            name: name.to_string(),
            store_root: None,
            server: ServerConfig::default(),
        }
    }
}

/// A running shard. Dropping (or [`ShardHandle::shutdown`]) drains the
/// server and clears the liveness gauge.
pub struct ShardHandle {
    inner: Option<ServerHandle>,
    name: String,
    up: &'static ccmx_obs::Gauge,
}

impl ShardHandle {
    /// The shard's stable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bound socket address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.inner.as_ref().expect("live until dropped").addr()
    }

    /// Live server counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.as_ref().expect("live until dropped").stats()
    }

    /// Drain in-flight work, close the listener, and mark the shard
    /// down.
    pub fn shutdown(mut self) {
        if let Some(inner) = self.inner.take() {
            inner.shutdown();
        }
        self.up.set(0);
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner.shutdown();
            self.up.set(0);
        }
    }
}

/// Bind `addr` and serve one shard.
pub fn serve_shard(addr: &str, config: ShardConfig) -> std::io::Result<ShardHandle> {
    let server = ServerConfig {
        store_dir: config
            .store_root
            .as_ref()
            .map(|root| root.join(&config.name))
            .or(config.server.store_dir.clone()),
        ..config.server
    };
    let inner = serve(addr, server)?;
    let label = intern_label(&config.name);
    let up = ccmx_obs::registry().gauge("ccmx_shard_up", &[("shard", label)]);
    up.set(1);
    Ok(ShardHandle {
        inner: Some(inner),
        name: config.name,
        up,
    })
}
