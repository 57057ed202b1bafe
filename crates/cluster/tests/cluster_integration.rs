//! Cluster integration: a live coordinator in front of live shard
//! servers, exercised end-to-end — TCP routing, batch fan-out,
//! shard death mid-soak (the breaker absorbs it, failover re-routes,
//! and not one metered protocol bit moves), resharding under chaos,
//! and degraded-mode bounds when the whole fleet is dark.

use std::sync::Arc;

use ccmx_cluster::{cluster_soak, ClusterConfig, Coordinator, ShardConfig, ShardSpec, SoakConfig};
use ccmx_comm::protocol::run_sequential;
use ccmx_comm::BitString;
use ccmx_net::{BreakerState, ChaosLevel, Client, ProtoSpec, Request, Response};

fn boot_shards(prefix: &str, n: usize) -> (Vec<ccmx_cluster::ShardHandle>, Vec<ShardSpec>) {
    let mut handles = Vec::new();
    let mut specs = Vec::new();
    for i in 0..n {
        let name = format!("{prefix}-s{i}");
        let mut config = ShardConfig::named(&name);
        config.server.workers = 2;
        let handle = ccmx_cluster::serve_shard("127.0.0.1:0", config).expect("bind shard");
        specs.push(ShardSpec::new(&name, &handle.addr().to_string()));
        handles.push(handle);
    }
    (handles, specs)
}

/// Full TCP stack: client → coordinator server → shard servers. Every
/// request kind routes, batch members come back in order, and the
/// coordinator's own metrics expose the routing counters.
#[test]
fn tcp_coordinator_routes_every_request_kind() {
    let (shards, specs) = boot_shards("itcp", 2);
    let coordinator = Arc::new(Coordinator::over_tcp(ClusterConfig::default(), specs));
    let server = ccmx_cluster::serve_coordinator(
        "127.0.0.1:0",
        ccmx_net::ServerConfig::default(),
        Arc::clone(&coordinator),
    )
    .expect("bind coordinator");

    let mut client =
        Client::connect(server.addr(), Default::default()).expect("connect coordinator");
    client.ping().expect("ping");

    let spec = ProtoSpec::SendAllSingularity { dim: 2, k: 2 };
    let setup = spec.build();
    let input = BitString::from_u64(0b1011_0010, setup.input_bits);
    let viaduct = client.run(spec, &input, 99).expect("run via cluster");
    let reference = run_sequential(setup.proto.as_ref(), &setup.partition, &input, 99);
    assert_eq!(
        viaduct, reference,
        "cluster routing must not touch metered bits"
    );

    let b = client.bounds(5, 3, 64).expect("bounds via cluster");
    assert_eq!(b.n, 5);

    let members: Vec<Request> = (0..6)
        .map(|i| Request::Bounds {
            n: 5 + 2 * (i % 3),
            k: 3,
            security: 64,
        })
        .collect();
    match client
        .request(&Request::Batch(members.clone()))
        .expect("batch")
    {
        Response::Batch(resps) => {
            assert_eq!(resps.len(), members.len());
            for (req, resp) in members.iter().zip(&resps) {
                let (Request::Bounds { n, .. }, Response::Bounds(rep)) = (req, resp) else {
                    panic!("unexpected batch member answer: {resp:?}");
                };
                assert_eq!(rep.n, *n, "batch answers must stay in member order");
            }
        }
        other => panic!("expected batch, got {other:?}"),
    }

    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics.contains("ccmx_cluster_routed_total"),
        "coordinator metrics must expose routing counters:\n{metrics}"
    );
    assert!(metrics.contains("ccmx_cluster_shards"));

    drop(client);
    server.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// Satellite 3: kill one shard mid-soak. The coordinator's breaker for
/// the dead shard opens, traffic re-routes to the survivor, every
/// request is still answered, and every answered run matches the
/// sequential reference bit-for-bit.
#[test]
fn killed_shard_opens_breaker_and_reroutes_without_bit_divergence() {
    let report = cluster_soak(SoakConfig {
        shards: 2,
        requests: 40,
        seed: 0x1111,
        level: ChaosLevel::Moderate,
        reshard: false,
        kill: true,
    });
    assert_eq!(
        report.answered, report.requests,
        "failover must keep answering"
    );
    assert_eq!(report.errors, 0);
    assert_eq!(
        report.diverged, 0,
        "metered bits diverged from run_sequential"
    );
    assert!(report.zero_bit_divergence);
    let killed = report.killed_shard.as_deref().expect("a shard was killed");
    assert!(
        matches!(
            report.killed_breaker,
            Some(BreakerState::Open | BreakerState::HalfOpen)
        ),
        "breaker for {killed} should have opened, got {:?}",
        report.killed_breaker
    );
    assert!(
        report.failovers > 0,
        "re-routing must be visible in metrics"
    );
}

/// Resharding (join + leave) under aggressive link chaos: membership
/// churn mid-run never perturbs a metered bit.
#[test]
fn resharding_under_chaos_keeps_bits_exact() {
    let report = cluster_soak(SoakConfig {
        shards: 3,
        requests: 45,
        seed: 0x2222,
        level: ChaosLevel::Aggressive,
        reshard: true,
        kill: false,
    });
    assert!(report.resharded, "the soak must actually join and leave");
    assert_eq!(report.errors, 0);
    assert_eq!(report.answered, report.requests);
    assert!(
        report.zero_bit_divergence,
        "{} runs diverged",
        report.diverged
    );
}

/// The CC(f) root frontier fans out across live shards and recombines
/// to exactly the local solver's answer, and a raw `CcSearch` request
/// routes through the coordinator like any other computational kind.
#[test]
fn cc_search_fans_out_and_recombines_exactly() {
    use ccmx_comm::truth::TruthMatrix;

    let (shards, specs) = boot_shards("iccfan", 2);
    let coordinator = Coordinator::over_tcp(ClusterConfig::default(), specs);

    // A raw CcSearch request routes to a shard like any other kind.
    let eq2 = TruthMatrix::from_fn(4, 4, |x, y| x == y);
    let bits = BitString::from_bits(
        (0..16)
            .map(|i: usize| eq2.get(i / 4, i % 4))
            .collect::<Vec<bool>>(),
    );
    let direct = coordinator.dispatch(&Request::CcSearch {
        rows: 4,
        cols: 4,
        bits,
        depth_limit: 32,
    });
    assert!(
        matches!(
            direct,
            Response::CcSearch {
                cc: 3,
                exact: true,
                ..
            }
        ),
        "direct routed cc-search answered {direct:?}"
    );

    // Root fan-out across the fleet equals the local solver, witnesses
    // included, on a spread of shapes.
    for (t, label) in [
        (eq2, "4x4 identity"),
        (TruthMatrix::from_fn(4, 4, |x, y| (x & y) != 0), "4x4 and"),
        (TruthMatrix::from_fn(5, 5, |x, y| x >= y), "5x5 gt"),
        (TruthMatrix::from_fn(3, 3, |_, _| true), "3x3 ones"),
    ] {
        let local = ccmx_search::solve(
            &t,
            &ccmx_search::SearchConfig {
                threads: 1,
                ..ccmx_search::SearchConfig::default()
            },
        )
        .expect("local solve");
        let fanned =
            ccmx_cluster::cc_via_fanout(&coordinator, &t, 32).expect("fan-out must answer");
        assert!(fanned.exact, "{label}: fan-out came back inexact");
        assert_eq!(fanned.cc, local.cc, "{label}: fan-out diverged from local");
        if local.cc > 0 {
            assert!(fanned.moves > 0 && fanned.unique_children > 0, "{label}");
        }
    }

    for s in shards {
        s.shutdown();
    }
}

/// When the entire fleet is dark, bounds the coordinator has seen
/// before are served from its degraded-mode cache; unseen bounds are
/// refused rather than invented.
#[test]
fn bounds_degrade_to_coordinator_cache_when_fleet_is_dark() {
    let (mut shards, specs) = boot_shards("idark", 1);
    let coordinator = Coordinator::over_tcp(ClusterConfig::default(), specs);

    let warm = Request::Bounds {
        n: 7,
        k: 3,
        security: 64,
    };
    let Response::Bounds(live) = coordinator.dispatch(&warm) else {
        panic!("live bounds should be answered by the shard");
    };

    shards.pop().expect("one shard").shutdown();

    let Response::Bounds(cached) = coordinator.dispatch(&warm) else {
        panic!("warm bounds must degrade to the coordinator cache");
    };
    assert_eq!(cached, live, "degraded answer must equal the live answer");

    let cold = Request::Bounds {
        n: 9,
        k: 3,
        security: 64,
    };
    match coordinator.dispatch(&cold) {
        Response::Error(msg) => assert!(msg.contains("no shard"), "got: {msg}"),
        other => panic!("cold bounds with no fleet must refuse, got {other:?}"),
    }
}
