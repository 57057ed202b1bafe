//! E18: the sharded cluster measured in-process — ring routing cost,
//! coordinator dispatch on the cache-hit path, and a metered protocol
//! run through the full coordinator→shard TCP stack vs the in-process
//! sequential baseline. The heavyweight multi-process phases (the
//! 10k-connection wave, the cache-partition scaling sweep) live in
//! `bench_snapshot --e18`, which commits `BENCH_e18.json`.

use ccmx_cluster::{ClusterConfig, Coordinator, HashRing, ShardConfig, ShardSpec};
use ccmx_comm::run_sequential;
use ccmx_net::{ProtoSpec, Request};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_cluster");
    group.sample_size(10);

    // Ring routing: pure CPU, the per-request cost of placement.
    for &shards in &[2usize, 8] {
        let mut ring = HashRing::new(160);
        for i in 0..shards {
            ring.add_shard(&format!("s{i}"));
        }
        group.bench_with_input(BenchmarkId::new("ring_route", shards), &ring, |b, ring| {
            let mut key = 0u64;
            b.iter(|| {
                key = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
                std::hint::black_box(ring.route(ccmx_store::fnv64(&key.to_le_bytes())))
            });
        });
    }

    // A live 2-shard cluster for the dispatch-path rows.
    let mut shards = Vec::new();
    let mut specs = Vec::new();
    for i in 0..2 {
        let name = format!("e18b-s{i}");
        let h = ccmx_cluster::serve_shard("127.0.0.1:0", ShardConfig::named(&name))
            .expect("bind shard");
        specs.push(ShardSpec::new(&name, &h.addr().to_string()));
        shards.push(h);
    }
    let coordinator = Coordinator::over_tcp(ClusterConfig::default(), specs);

    // Bounds on the hit path: after the first call the shard answers
    // from its LRU; the measured cost is routing + two loopback hops.
    group.bench_function("dispatch_bounds_hit", |b| {
        let req = Request::Bounds {
            n: 7,
            k: 3,
            security: 64,
        };
        coordinator.dispatch(&req);
        b.iter(|| std::hint::black_box(coordinator.dispatch(&req)));
    });

    // A metered protocol run through the cluster vs in-process.
    let spec = ProtoSpec::SendAllSingularity { dim: 2, k: 2 };
    let setup = spec.build();
    let input = ccmx_comm::BitString::from_u64(0b1011_0010, setup.input_bits);
    group.bench_function("run_via_cluster", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let resp = coordinator.dispatch(&Request::Run {
                spec,
                input: input.clone(),
                seed,
            });
            std::hint::black_box(resp)
        });
    });
    group.bench_function("run_sequential_baseline", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            std::hint::black_box(run_sequential(
                setup.proto.as_ref(),
                &setup.partition,
                &input,
                seed,
            ))
        });
    });

    group.finish();
    drop(coordinator);
    for s in shards {
        s.shutdown();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
