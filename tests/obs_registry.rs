//! One registry owns every stat island.
//!
//! The workspace historically grew six isolated statistics surfaces:
//! `crt::fast_path_stats`, `pool::pool_stats`,
//! `engine::incremental_stats`, `truth::enumeration_stats`, the net
//! server counters, and the bounds-cache counters. This test drives all
//! six and asserts each legacy view is a thin projection of the single
//! shared [`ccmx::obs`] registry — and that a live server scrape over
//! the wire exposes them all in one exposition document.

use std::sync::{Mutex, MutexGuard};

use ccmx::net::{Client, ServerConfig, TransportConfig};
use ccmx::obs;
use ccmx::prelude::*;

/// Both tests boot servers that bump process-global series
/// (`ccmx_server_requests_total`, the iomodel counters) and assert exact
/// deltas of them, so they must not overlap: each holds this lock for
/// its whole body. A failed (poisoned) holder does not block the other.
fn registry_delta_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn all_stat_islands_share_one_registry() {
    let _serial = registry_delta_lock();
    let reg = obs::registry();

    // --- 1. CRT certified fast path (ccmx-linalg::crt) ---------------
    let m = ccmx::linalg::matrix::int_matrix(&[&[1, 2], &[3, 5]]);
    assert_eq!(ccmx::linalg::crt::rank_int(&m), 2);
    let (certified, fallback) = ccmx::linalg::crt::fast_path_stats();
    assert_eq!(
        certified,
        reg.counter("ccmx_crt_certified_total", &[]).get(),
        "fast_path_stats certified != registry"
    );
    assert_eq!(
        fallback,
        reg.counter("ccmx_crt_fallback_total", &[]).get(),
        "fast_path_stats fallback != registry"
    );
    assert!(certified + fallback >= 1, "rank_int counted nowhere");

    // --- 2. Worker pool (ccmx-linalg::pool) --------------------------
    ccmx::linalg::pool::run(16, 3, &|_| {});
    let (workers, batches) = ccmx::linalg::pool::pool_stats();
    assert_eq!(
        batches,
        reg.counter("ccmx_pool_batches_total", &[]).get(),
        "pool_stats batches != registry"
    );
    assert_eq!(
        workers as i64,
        reg.gauge("ccmx_pool_workers", &[]).get(),
        "pool_stats workers != registry gauge"
    );
    assert!(
        reg.counter("ccmx_pool_tasks_total", &[]).get() >= 16,
        "pool task counter missed the batch"
    );

    // --- 3 + 4. Incremental engine and truth enumeration -------------
    // Singularity opts into incremental evaluation, so enumerating its
    // truth matrix drives both the engine step counters and the
    // enumeration point counters.
    let f = Singularity::new(2, 2);
    let pi0 = Partition::pi_zero(&f.enc);
    let t = ccmx::comm::truth::TruthMatrix::enumerate(&f, &pi0, 2);
    assert_eq!((t.rows(), t.cols()), (16, 16));
    let (steps, refreshes) = ccmx::linalg::engine::incremental_stats();
    assert_eq!(
        steps,
        reg.counter("ccmx_engine_incremental_steps_total", &[])
            .get(),
        "incremental_stats steps != registry"
    );
    assert_eq!(
        refreshes,
        reg.counter("ccmx_engine_fresh_refreshes_total", &[]).get(),
        "incremental_stats refreshes != registry"
    );
    assert!(steps > 0, "enumeration never stepped the engine");

    let (inc_points, fresh_points) = ccmx::comm::truth::enumeration_stats();
    assert_eq!(
        inc_points,
        reg.counter("ccmx_enum_incremental_points_total", &[]).get(),
        "enumeration_stats incremental != registry"
    );
    assert_eq!(
        fresh_points,
        reg.counter("ccmx_enum_fresh_points_total", &[]).get(),
        "enumeration_stats fresh != registry"
    );
    assert!(inc_points >= 16 * 16, "truth matrix points uncounted");

    // RankAtMost has no incremental oracle: its enumeration lands on
    // the fresh-points series.
    let g = ccmx::comm::functions::RankAtMost { enc: f.enc, r: 1 };
    let _ = ccmx::comm::truth::TruthMatrix::enumerate(&g, &pi0, 1);
    let (_, fresh_after) = ccmx::comm::truth::enumeration_stats();
    assert!(
        fresh_after >= fresh_points + 16 * 16,
        "fresh path uncounted"
    );

    // --- 5 + 6. Server counters and bounds cache, over the wire ------
    let req_base = reg.counter("ccmx_server_requests_total", &[]).get();
    let cache_labels = [("cache", "bounds")];
    let hit_base = reg.counter("ccmx_cache_hits_total", &cache_labels).get();
    let miss_base = reg.counter("ccmx_cache_misses_total", &cache_labels).get();

    let server = ccmx::net::serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr(), TransportConfig::default()).expect("connect");
    client.ping().expect("ping");
    let first = client.bounds(5, 3, 20).expect("bounds (miss)");
    let second = client.bounds(5, 3, 20).expect("bounds (hit)");
    assert_eq!(first, second);

    let stats = server.stats();
    assert_eq!(
        reg.counter("ccmx_server_requests_total", &[]).get() - req_base,
        stats.requests_served,
        "server stats != registry delta"
    );
    let cache = server.cache_stats();
    assert_eq!(
        reg.counter("ccmx_cache_hits_total", &cache_labels).get() - hit_base,
        cache.hits,
        "cache hits != registry delta"
    );
    assert_eq!(
        reg.counter("ccmx_cache_misses_total", &cache_labels).get() - miss_base,
        cache.misses,
        "cache misses != registry delta"
    );
    assert_eq!((cache.hits, cache.misses), (1, 1));

    // One scrape over the wire shows every island at once.
    let text = client.metrics().expect("metrics scrape");
    for series in [
        "ccmx_crt_certified_total",
        "ccmx_pool_batches_total",
        "ccmx_pool_tasks_total",
        "ccmx_pool_workers",
        "ccmx_engine_incremental_steps_total",
        "ccmx_enum_incremental_points_total",
        "ccmx_cache_hits_total{cache=\"bounds\"}",
        "ccmx_server_requests_total",
        "ccmx_server_request_latency_ns_bucket",
        "ccmx_spans_recorded_total",
    ] {
        assert!(text.contains(series), "scrape lacks {series}:\n{text}");
    }
    server.shutdown();
}

/// The Hong–Kung I/O-model families (`ccmx_iomodel_*`) behave like the
/// bounds-cache counters: they show up in a live wire scrape, and the
/// totals live in the process-wide registry, so dropping the server
/// that produced them loses nothing — a successor server scrapes the
/// accumulated values and keeps adding to them.
#[test]
fn iomodel_series_survive_a_server_drop() {
    use ccmx::linalg::iomodel::{self, Kernel};
    let _serial = registry_delta_lock();

    // Total (words, calls) for a kernel across both dispatch paths:
    // which path a given shape takes is a tuning decision, the meter
    // contract is only that *some* path counts it.
    let rank_totals = || {
        let (wb, cb) = iomodel::kernel_stats(Kernel::Rank, true);
        let (ws, cs) = iomodel::kernel_stats(Kernel::Rank, false);
        (wb + ws, cb + cs)
    };

    // A singularity query at the meter threshold (16 x 16) drives the
    // certified CRT rank path through a metered Montgomery kernel.
    let dim = 16usize;
    let enc = MatrixEncoding::new(dim, 1);
    let identity = Matrix::from_fn(dim, dim, |i, j| Integer::from(u64::from(i == j)));
    let input = enc.encode(&identity);

    let (w0, c0) = rank_totals();
    let server = ccmx::net::serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr(), TransportConfig::default()).expect("connect");
    assert!(!client
        .singularity(dim, 1, &input)
        .expect("singularity query"));
    let (w1, c1) = rank_totals();
    assert!(c1 > c0, "wire singularity query hit no metered kernel");
    assert!(w1 > w0, "metered kernel reported zero words moved");

    // The live scrape exposes the whole family: the fast-memory gauge
    // and the per-kernel/per-path word and call counters.
    let text = client.metrics().expect("metrics scrape");
    for series in [
        "ccmx_iomodel_fast_mem_words",
        "ccmx_iomodel_words_moved_total{kernel=\"rank\"",
        "ccmx_iomodel_kernel_calls_total{kernel=\"rank\"",
    ] {
        assert!(text.contains(series), "scrape lacks {series}:\n{text}");
    }
    server.shutdown();
    drop(client);

    // Server gone; the registry totals are untouched.
    assert_eq!(rank_totals(), (w1, c1), "server drop disturbed the meter");

    // A successor server sees the accumulated series and adds to them.
    let server2 = ccmx::net::serve("127.0.0.1:0", ServerConfig::default()).expect("rebind");
    let mut client2 =
        Client::connect(server2.addr(), TransportConfig::default()).expect("reconnect");
    assert!(!client2
        .singularity(dim, 1, &input)
        .expect("singularity query after restart"));
    let (w2, c2) = rank_totals();
    assert!(
        w2 > w1 && c2 > c1,
        "successor server did not aggregate onto the surviving series"
    );
    let text2 = client2.metrics().expect("second scrape");
    assert!(
        text2.contains("ccmx_iomodel_words_moved_total{kernel=\"rank\""),
        "series vanished across the server drop:\n{text2}"
    );
    server2.shutdown();
}
