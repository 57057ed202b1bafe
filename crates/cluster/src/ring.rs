//! Consistent-hash ring over shard names.
//!
//! The coordinator must send *the same key to the same shard every
//! time* — that is what makes each shard's bounds cache an independent
//! slice of one large aggregate cache — while a shard join or leave
//! disturbs as few keys as possible. The classic construction: every
//! shard owns `vnodes_per_shard` pseudo-random points on a `u64` circle
//! (FNV-1a of `name:index` via [`ccmx_store::fnv64`], stable across
//! processes so a coordinator restart routes identically), and a key is
//! routed to the shard owning the first point at or clockwise after the
//! key's position. Adding a shard inserts only that shard's points, so
//! only the arcs those points split — about `1/(s+1)` of the circle —
//! change owners; every other key keeps its shard and therefore its warm
//! cache entry. The property suite in `tests/ring_props.rs` enforces
//! both the ±20% balance and the ~`1/N` remap bound.

/// Default vnode multiplicity. 160 points per shard keeps the maximum
/// arc-share deviation comfortably inside ±20% for 2–8 shards.
pub const DEFAULT_VNODES: usize = 160;

/// splitmix64 finalizer. FNV-1a alone avalanches poorly on short
/// inputs (vnode tags are ~10 bytes), which skews arc lengths far past
/// the ±20% balance budget; one multiply-xorshift round fixes the
/// distribution while staying fully deterministic.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A consistent-hash ring mapping `u64` key positions to shard names.
#[derive(Clone, Debug)]
pub struct HashRing {
    vnodes_per_shard: usize,
    shards: Vec<String>,
    /// Sorted `(point, shard index)` pairs — the circle.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// An empty ring; each shard added will own `vnodes_per_shard`
    /// points (clamped to at least 1).
    pub fn new(vnodes_per_shard: usize) -> Self {
        HashRing {
            vnodes_per_shard: vnodes_per_shard.max(1),
            shards: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Shard names currently on the ring, in join order.
    pub fn shards(&self) -> &[String] {
        &self.shards
    }

    /// Number of shards on the ring.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True iff no shard has joined.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Add a shard. A name already present is a no-op (returns false).
    pub fn add_shard(&mut self, name: &str) -> bool {
        if self.shards.iter().any(|s| s == name) {
            return false;
        }
        self.shards.push(name.to_string());
        self.rebuild();
        true
    }

    /// Remove a shard by name; returns false if it was not present.
    pub fn remove_shard(&mut self, name: &str) -> bool {
        let Some(pos) = self.shards.iter().position(|s| s == name) else {
            return false;
        };
        self.shards.remove(pos);
        self.rebuild();
        true
    }

    /// Vnode positions depend only on `(name, index)`, so a rebuild
    /// reproduces every surviving shard's points bit-for-bit — which is
    /// exactly why membership changes move only ~1/N of the keyspace.
    fn rebuild(&mut self) {
        self.points.clear();
        for (idx, name) in self.shards.iter().enumerate() {
            let mut tag = Vec::with_capacity(name.len() + 9);
            tag.extend_from_slice(name.as_bytes());
            tag.push(b':');
            for i in 0..self.vnodes_per_shard {
                tag.truncate(name.len() + 1);
                tag.extend_from_slice(&(i as u64).to_le_bytes());
                self.points.push((mix64(ccmx_store::fnv64(&tag)), idx));
            }
        }
        self.points.sort_unstable();
    }

    /// Index into `points` of the first point at or clockwise after
    /// `key` (wrapping past the top of the circle).
    fn successor(&self, key: u64) -> usize {
        match self.points.binary_search_by(|&(p, _)| p.cmp(&key)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0,
            Err(i) => i,
        }
    }

    /// The shard owning `key`'s position, or `None` on an empty ring.
    /// The key is finalized through the same mixer as the vnode points,
    /// so even weakly-hashed keys spread over the circle.
    pub fn route(&self, key: u64) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let (_, idx) = self.points[self.successor(mix64(key))];
        Some(&self.shards[idx])
    }

    /// Up to `n` *distinct* shards for `key`, primary first, then the
    /// next distinct owners clockwise — the replica set for failover
    /// and batch fan-out.
    pub fn candidates(&self, key: u64, n: usize) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::with_capacity(n.min(self.shards.len()));
        if self.points.is_empty() || n == 0 {
            return out;
        }
        let start = self.successor(mix64(key));
        for off in 0..self.points.len() {
            let (_, idx) = self.points[(start + off) % self.points.len()];
            let name = self.shards[idx].as_str();
            if !out.contains(&name) {
                out.push(name);
                if out.len() == n || out.len() == self.shards.len() {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_is_deterministic_and_total() {
        let mut ring = HashRing::new(DEFAULT_VNODES);
        assert!(ring.route(42).is_none());
        ring.add_shard("s0");
        ring.add_shard("s1");
        let a = ring.route(42).unwrap().to_string();
        let b = ring.route(42).unwrap().to_string();
        assert_eq!(a, b);
        assert!(a == "s0" || a == "s1");
    }

    #[test]
    fn duplicate_add_is_a_noop() {
        let mut ring = HashRing::new(8);
        assert!(ring.add_shard("s0"));
        assert!(!ring.add_shard("s0"));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn candidates_are_distinct_and_primary_first() {
        let mut ring = HashRing::new(DEFAULT_VNODES);
        for i in 0..4 {
            ring.add_shard(&format!("s{i}"));
        }
        for key in [0u64, 7, 0xdead_beef, u64::MAX] {
            let c = ring.candidates(key, 3);
            assert_eq!(c.len(), 3);
            assert_eq!(c[0], ring.route(key).unwrap());
            let mut sorted: Vec<_> = c.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "candidates must be distinct");
        }
    }

    #[test]
    fn remove_restores_previous_routing() {
        let mut ring = HashRing::new(DEFAULT_VNODES);
        ring.add_shard("s0");
        ring.add_shard("s1");
        let before: Vec<String> = (0u8..=255)
            .map(|k| ring.route(ccmx_store::fnv64(&[k])).unwrap().to_string())
            .collect();
        ring.add_shard("s2");
        ring.remove_shard("s2");
        let after: Vec<String> = (0u8..=255)
            .map(|k| ring.route(ccmx_store::fnv64(&[k])).unwrap().to_string())
            .collect();
        assert_eq!(before, after, "join+leave must be routing-neutral");
    }
}
