//! Property suite for the consistent-hash ring — the two promises the
//! coordinator's cache-partitioning story rests on:
//!
//! 1. **Balance**: across 2–8 shards, each shard's share of a large
//!    hashed key population stays within ±20% of uniform, so no shard's
//!    bounds cache becomes the hot spot.
//! 2. **Stability**: a join or leave remaps only about `1/N` of keys,
//!    so resharding leaves the other shards' caches warm.

use ccmx_cluster::{request_route_key, HashRing, DEFAULT_VNODES};
use ccmx_comm::BitString;
use ccmx_net::{ProtoSpec, Request};
use ccmx_store::fnv64;
use proptest::prelude::*;

const KEYS: u64 = 20_000;

/// Hashed key population: the ring is only ever fed hashes (the
/// coordinator hashes the request bytes first), so the population we
/// test with is hashes of a seeded counter stream.
fn key_stream(salt: u64) -> impl Iterator<Item = u64> {
    (0..KEYS).map(move |i| fnv64(&(i ^ salt).to_le_bytes()))
}

fn ring_with(shards: usize, salt: u64) -> HashRing {
    let mut ring = HashRing::new(DEFAULT_VNODES);
    for i in 0..shards {
        ring.add_shard(&format!("shard-{salt}-{i}"));
    }
    ring
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every shard's share of 20k keys is within ±20% of `1/N` for all
    /// fleet sizes the lab targets (2–8 shards).
    #[test]
    fn key_distribution_within_20pct_of_uniform(
        shards in 2usize..=8,
        salt in any::<u64>(),
    ) {
        let ring = ring_with(shards, salt);
        let mut counts = std::collections::HashMap::new();
        for key in key_stream(salt) {
            *counts.entry(ring.route(key).unwrap().to_string()).or_insert(0u64) += 1;
        }
        prop_assert_eq!(counts.len(), shards, "every shard must own keys");
        let ideal = KEYS as f64 / shards as f64;
        for (name, count) in counts {
            let dev = (count as f64 - ideal).abs() / ideal;
            prop_assert!(
                dev <= 0.20,
                "{} owns {} of {} keys ({:.1}% off uniform share {:.0})",
                name, count, KEYS, dev * 100.0, ideal
            );
        }
    }

    /// A join moves some keys (the new shard must take load) but no
    /// more than ~`2/(N+1)` — twice the ideal `1/(N+1)` share, giving
    /// vnode variance headroom. Keys that move all move *to* the new
    /// shard: nobody else's cache is disturbed.
    #[test]
    fn join_remaps_about_one_nth_of_keys(
        shards in 2usize..=7,
        salt in any::<u64>(),
    ) {
        let mut ring = ring_with(shards, salt);
        let before: Vec<String> = key_stream(salt)
            .map(|k| ring.route(k).unwrap().to_string())
            .collect();
        let newcomer = format!("shard-{salt}-joiner");
        ring.add_shard(&newcomer);
        let mut moved = 0u64;
        for (key, old) in key_stream(salt).zip(before.iter()) {
            let now = ring.route(key).unwrap();
            if now != old {
                prop_assert_eq!(now, newcomer.as_str(),
                    "a join may only move keys to the joining shard");
                moved += 1;
            }
        }
        prop_assert!(moved > 0, "the joining shard must take some load");
        let bound = 2.0 * KEYS as f64 / (shards + 1) as f64;
        prop_assert!(
            (moved as f64) <= bound,
            "join moved {} of {} keys; bound {:.0}",
            moved, KEYS, bound
        );
    }

    /// A leave scatters only the departed shard's keys; every key that
    /// was *not* on the leaver keeps its shard (warm cache preserved).
    #[test]
    fn leave_remaps_only_the_departed_shards_keys(
        shards in 3usize..=8,
        salt in any::<u64>(),
        victim in 0usize..8,
    ) {
        let mut ring = ring_with(shards, salt);
        let victim = format!("shard-{salt}-{}", victim % shards);
        let before: Vec<String> = key_stream(salt)
            .map(|k| ring.route(k).unwrap().to_string())
            .collect();
        ring.remove_shard(&victim);
        for (key, old) in key_stream(salt).zip(before.iter()) {
            let now = ring.route(key).unwrap();
            if old != &victim {
                prop_assert_eq!(now, old.as_str(),
                    "a leave must not move keys that were not on the leaver");
            } else {
                prop_assert_ne!(now, victim.as_str());
            }
        }
    }
}

/// Route keys and one placement as the coordinator has always computed
/// them: each shard's persisted cache lives where these keys send it.
#[test]
fn route_keys_and_placement_are_pinned() {
    let run = Request::Run {
        spec: ProtoSpec::SendAllSingularity { dim: 2, k: 2 },
        input: BitString::from_u64(0b1001_0110, 8),
        seed: 7,
    };
    let bounds = Request::Bounds {
        n: 61,
        k: 8,
        security: 20,
    };
    for (req, key) in [
        (Request::Ping, 0x1c83_e57e_f0d8_c8f2),
        (bounds, 0xe22f_abec_874a_5214),
        (run, 0xa950_9590_3b64_c623),
    ] {
        assert_eq!(request_route_key(&req), key, "route key of {req:?}");
    }
    let mut ring = HashRing::new(DEFAULT_VNODES);
    for name in ["s0", "s1", "s2"] {
        ring.add_shard(name);
    }
    assert_eq!(ring.route(0xe22f_abec_874a_5214), Some("s1"));
}
