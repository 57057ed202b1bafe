//! End-to-end loopback benchmark for ccmx.
//!
//! ```text
//! cargo run --release -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload kernel_cold|cluster_batch --seed N --seconds S --trace 0|1
//! cargo run --release -q --manifest-path e2ebench/Cargo.toml -- compare BEFORE_DIR AFTER_DIR
//! ```
//!
//! Run from the repository root. It builds the `ccmx` binary, boots the
//! workload's server processes on loopback, drives them from two
//! closed-loop client threads, checks every answer against an
//! in-process oracle, and prints the metrics; the last line of standard
//! output is one JSON object. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer ones. See `e2ebench/README.md`.

mod compare;
mod gen;
mod json;
mod layers;
mod load;
mod oracle;
mod procs;
mod scrape;
mod stats;

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use ccmx_net::{Client, Request, WireCodec};

use gen::{Generator, Workload, CACHE_CAPACITY, PROBE_BASE};
use json::Value;
use layers::{CacheModel, Replayer, Router, Spans, Step};
use load::{closed_loop, Window};
use oracle::{Check, Oracle};
use procs::{client_config, Fleet, CCMX_THREADS, WORKERS};
use scrape::Scrape;
use stats::median;

/// Everything the benchmark writes lives under this directory of the
/// checkout.
const OUT_DIR: &str = "e2ebench/out";
/// Boots per untraced run; `setup_s` is their median.
const SETUPS: usize = 42;
/// The boots run in this many groups: one before the first fleet and
/// one after each fleet, so their median samples the host over the
/// whole run, as the windows do, rather than over the first second.
const SETUP_GROUPS: usize = FLEETS + 1;
/// Fleets booted per untraced run, so no single boot's scheduling
/// regime (thread placement, which connection tends to hold a cache
/// lock) sets the run's figures.
const FLEETS: usize = 6;
/// Consecutive timed windows on each fleet. Throughput and p50 are
/// medians over all windows and p99 a median over blocks of them, so a
/// host stall moves the few windows it lands in, not the run.
const WINDOWS_PER_FLEET: usize = 4;
/// Client connections (one thread each) of the timed windows.
const CONNS: usize = 2;
/// Untimed traffic before the first window: connections, pool threads
/// and allocator state settle.
const WARMUP: Duration = Duration::from_millis(500);
/// Traced requests replayed layer by layer.
const REPLAY_MAX: usize = 150;
/// `(steal, total)` CPU ticks of the whole machine so far, from
/// `/proc/stat`. Over an interval, their ratio is the share of time the
/// host ran something else on this machine's vCPUs.
fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let xs: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (xs.get(7).copied().unwrap_or(0), xs.iter().sum())
}

/// Rounds of the traced run.
const ROUNDS: usize = 4;
/// Largest gap between the cache model's hit ratio and the one the
/// shards report before the replay's miss flags are not trusted.
const MODEL_TOLERANCE: f64 = 0.05;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        match compare::run(&args[1..]) {
            Ok(code) => std::process::exit(code),
            Err(e) => {
                eprintln!("e2ebench: {e}");
                std::process::exit(2)
            }
        }
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "e2ebench: {e}\nusage: --workload kernel_cold|cluster_batch --seed N --seconds S --trace 0|1\n       compare BEFORE_DIR AFTER_DIR"
            );
            std::process::exit(2)
        }
    };
    match run(&opts) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.result.render());
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1)
        }
    }
}

/// A scratch directory under [`OUT_DIR`], removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(opts: &Opts) -> Result<WorkDir, String> {
        let dir = Path::new(OUT_DIR).join("work").join(format!(
            "{}-{}-{}",
            opts.workload.name(),
            opts.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A fresh, empty subdirectory.
    fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Report {
    lines: Vec<String>,
    result: Value,
}

/// One named metric: value and unit, plus the direction for humans.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    better: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        better,
    }
}

/// A workload-sanity check, recorded with every run.
struct Sanity {
    name: &'static str,
    pass: bool,
    detail: String,
}

fn sanity(name: &'static str, pass: bool, detail: String) -> Sanity {
    Sanity { name, pass, detail }
}

fn run(opts: &Opts) -> Result<Report, String> {
    let bin = procs::build_server()?;
    let gen = Generator::new(opts.workload, opts.seed);
    let oracle = Oracle::new(&gen.cc_bases);
    let work = WorkDir::new(opts)?;
    // kernel_cold boots from a store holding its stored set, written by
    // an untimed boot before any setup is timed.
    let warm_store = match opts.workload {
        Workload::KernelCold => Some(populate(&bin, &gen, &oracle, &work)?),
        _ => None,
    };
    let measured = if opts.trace {
        traced(opts, &bin, &gen, &oracle, &work, warm_store.as_deref())?
    } else {
        untraced(opts, &bin, &gen, &oracle, &work, warm_store.as_deref())?
    };

    let Measured {
        check,
        metrics,
        checks,
        spans,
        notes,
    } = measured;
    let correct = check.ok() && checks.iter().all(|s| s.pass);
    let mut lines = vec![format!(
        "# e2ebench {} seed={} seconds={} trace={}: attempted={} errors={} wrong={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        check.attempted,
        check.errors,
        check.wrong
    )];
    let config = config(opts);
    lines.push(format!("  config {}", config.render()));
    for m in &metrics {
        lines.push(format!(
            "  {:<34} {:>16.6} {:<8} ({} is better)",
            m.name, m.value, m.unit, m.better
        ));
    }
    lines.extend(notes);
    for s in &checks {
        lines.push(format!(
            "  sanity {:<34} {} ({})",
            s.name,
            if s.pass { "pass" } else { "FAIL" },
            s.detail
        ));
    }

    // The untraced run reports only the metrics BENCHMARK.json gates;
    // the others are printed above and kept in the result file.
    let reported = metrics_json(
        metrics
            .iter()
            .filter(|m| opts.trace || GATED.contains(&m.name)),
    );
    let attempted = check.attempted;
    let failed = check.errors + check.wrong;
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", reported),
    ]);

    let record = Value::obj([
        ("workload", Value::Str(opts.workload.name().into())),
        ("seed", Value::Num(opts.seed as f64)),
        ("seconds", Value::Num(opts.seconds)),
        ("trace", Value::Num(f64::from(u8::from(opts.trace)))),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("wrong", Value::Num(check.wrong as f64)),
        ("metrics", metrics_json(&metrics)),
        (
            "sanity",
            Value::Arr(
                checks
                    .iter()
                    .map(|s| {
                        Value::obj([
                            ("name", Value::Str(s.name.into())),
                            ("pass", Value::Bool(s.pass)),
                            ("detail", Value::Str(s.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("config", config),
    ]);
    let results = Path::new(OUT_DIR).join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let path = results.join(format!("{stem}.json"));
    std::fs::write(&path, record.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    lines.push(format!("  result file {}", path.display()));
    if let Some(spans) = spans {
        let path = results.join(format!("{stem}-spans.jsonl"));
        spans.write(&path)?;
        lines.push(format!("  spans file {}", path.display()));
    }
    Ok(Report { lines, result })
}

/// `{name: {"value": v, "unit": u}}` for each metric.
fn metrics_json<'a>(ms: impl IntoIterator<Item = &'a Metric>) -> Value {
    Value::Obj(
        ms.into_iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::obj([
                        ("value", Value::Num(m.value)),
                        ("unit", Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The end-to-end metrics `BENCHMARK.json` lists: those that are never
/// zero and that repeat across runs of the same code within their
/// bounds. The wall-clock ones (`throughput_rps`, `latency_p50_ms`,
/// `latency_p99_ms`) follow the shared host's steal and wake-up delays
/// more than the program, and `error_rate` is zero in every correct
/// run; all four are printed, kept in the result file and judged by
/// `compare` (see `compare::UNGATED`), and failures also reach
/// `attempted`, `failed` and `correct`.
const GATED: [&str; 5] = [
    "server_cpu_ms_per_req",
    "setup_s",
    "server_rss_mb",
    "io_words_per_req",
    "protocol_bits_per_run",
];

struct Measured {
    check: Check,
    metrics: Vec<Metric>,
    checks: Vec<Sanity>,
    spans: Option<Spans>,
    /// Extra lines for the human-readable report.
    notes: Vec<String>,
}

/// Write `kernel_cold`'s stored set into a fresh store through a real
/// server (untimed), and return the store directory.
fn populate(
    bin: &Path,
    gen: &Generator,
    oracle: &Oracle,
    work: &WorkDir,
) -> Result<PathBuf, String> {
    let dir = work.fresh("warm-store")?;
    let (fleet, _) = Fleet::boot(gen.workload, bin, Some(&dir))?;
    let mut c = Client::connect(fleet.front(), client_config()).map_err(|e| e.to_string())?;
    for (k, item) in gen.stored_set().iter().enumerate() {
        let resp = c.request(&item.req).map_err(|e| e.to_string())?;
        if !oracle.check(item, &resp).ok() {
            return Err(format!("populate: wrong answer for stored key {k}"));
        }
    }
    drop(c);
    drop(fleet);
    Ok(dir)
}

/// Copy a store directory (flat: segment files only) and sync the
/// copies, so their writeback never lands in a timed boot.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |p: &Path, e: std::io::Error| format!("{}: {e}", p.display());
    for entry in std::fs::read_dir(from).map_err(|e| io(from, e))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            let dest = to.join(path.file_name().expect("a file has a name"));
            std::fs::copy(&path, &dest).map_err(|e| io(&dest, e))?;
            std::fs::File::open(&dest)
                .and_then(|f| f.sync_all())
                .map_err(|e| io(&dest, e))?;
        }
    }
    std::fs::File::open(to)
        .and_then(|f| f.sync_all())
        .map_err(|e| io(to, e))
}

/// The store directory a boot uses, made under `name` before the boot:
/// a fresh copy of the warm store (`kernel_cold`), or none.
fn boot_store(
    opts: &Opts,
    work: &WorkDir,
    warm: Option<&Path>,
    name: &str,
) -> Result<Option<PathBuf>, String> {
    match opts.workload {
        Workload::KernelCold => {
            let dir = work.fresh(name)?;
            copy_dir(warm.expect("kernel_cold populates a warm store"), &dir)?;
            Ok(Some(dir))
        }
        Workload::ClusterBatch => Ok(None),
    }
}

fn merged(parts: &[(String, Scrape)]) -> Scrape {
    Scrape::merged(parts.iter().map(|(_, s)| s))
}

/// Check every sample of `windows` with the oracle; also returns the
/// correct answers per window.
fn verify(gen: &Generator, oracle: &Oracle, windows: &[&Window]) -> (Check, Vec<u64>) {
    let mut total = Check::default();
    let mut ok_per_window = Vec::new();
    for w in windows {
        let parts: Vec<(Check, u64)> = std::thread::scope(|s| {
            let chunk = w.samples.len().div_ceil(2).max(1);
            let handles: Vec<_> = w
                .samples
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        let mut c = Check::default();
                        let mut ok = 0;
                        for sample in part {
                            let one = match &sample.resp {
                                Ok(resp) => oracle.check(&gen.item(sample.index), resp),
                                Err(_) => Check {
                                    errors: 1,
                                    ..Check::default()
                                },
                            };
                            if one.ok() {
                                ok += 1;
                            }
                            c.add(one);
                            c.attempted += 1;
                        }
                        (c, ok)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verifier thread panicked"))
                .collect()
        });
        let mut ok = 0;
        for (c, k) in parts {
            total.add(c);
            ok += k;
        }
        ok_per_window.push(ok);
    }
    (total, ok_per_window)
}

/// Client latencies in ms; a failed request counts as waiting the whole
/// window, so it misses any latency limit.
fn latencies(w: &Window) -> Vec<f64> {
    w.samples
        .iter()
        .map(|s| match s.resp {
            Ok(_) => s.latency.as_secs_f64() * 1e3,
            Err(_) => w.elapsed.as_secs_f64() * 1e3,
        })
        .collect()
}

fn untraced(
    opts: &Opts,
    bin: &Path,
    gen: &Generator,
    oracle: &Oracle,
    work: &WorkDir,
    warm: Option<&Path>,
) -> Result<Measured, String> {
    // Every boot's store is made before the first boot is timed.
    let stores = (0..SETUPS)
        .map(|i| boot_store(opts, work, warm, &format!("setup-{i}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut stores = stores.iter();
    let mut time_boots = || -> Result<(), String> {
        for store in stores.by_ref().take(SETUPS / SETUP_GROUPS) {
            let (fleet, secs) = Fleet::boot(opts.workload, bin, store.as_deref())?;
            setups.push(secs);
            drop(fleet);
            // Let the teardown finish before the next boot is timed.
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    };
    time_boots()?;
    let next = AtomicU64::new(0);
    let length = Duration::from_secs_f64(opts.seconds / (FLEETS * WINDOWS_PER_FLEET) as f64);
    let mut windows = Vec::with_capacity(FLEETS * WINDOWS_PER_FLEET);
    let mut deltas = Vec::with_capacity(FLEETS);
    let mut rss = Vec::with_capacity(FLEETS);
    // The first fleet's counters before its windows: what boot did.
    let mut first_boot = Scrape::default();
    let mut cpu_ms_per_req = Vec::with_capacity(FLEETS);
    let mut steal = (0, 0);
    for f in 0..FLEETS {
        let store = boot_store(opts, work, warm, &format!("fleet-{f}"))?;
        let (fleet, _) = Fleet::boot(opts.workload, bin, store.as_deref())?;
        closed_loop(fleet.front(), CONNS, WARMUP, gen, &next, false);
        let before = fleet.scrape()?;
        if f == 0 {
            first_boot = merged(&before);
        }
        let (cpu0, steal0) = (fleet.cpu_secs()?, steal_ticks());
        let mut requests = 0;
        for _ in 0..WINDOWS_PER_FLEET {
            let w = closed_loop(fleet.front(), CONNS, length, gen, &next, false);
            requests += w.samples.len();
            windows.push(w);
        }
        let (cpu1, steal1) = (fleet.cpu_secs()?, steal_ticks());
        cpu_ms_per_req.push((cpu1 - cpu0) * 1e3 / requests.max(1) as f64);
        steal = (steal.0 + steal1.0 - steal0.0, steal.1 + steal1.1 - steal0.1);
        let after = fleet.scrape()?;
        deltas.push(merged(&after).delta(&merged(&before)));
        rss.push(fleet.rss_mib()?);
        drop(fleet);
        time_boots()?;
    }
    let windows: Vec<&Window> = windows.iter().collect();

    let (check, ok) = verify(gen, oracle, &windows);
    let lat: Vec<Vec<f64>> = windows.iter().map(|w| latencies(w)).collect();
    let samples: usize = lat.iter().map(Vec::len).sum();
    let (p99, blocks) = stats::blocked_p99(&lat).ok_or_else(|| {
        format!(
            "latency_p99_ms unresolved: {samples} samples leave fewer than {} beyond the 99th percentile",
            stats::P99_TAIL
        )
    })?;
    let per_window = |f: &dyn Fn(usize, &Window) -> Option<f64>| -> f64 {
        let xs: Vec<f64> = windows
            .iter()
            .enumerate()
            .filter_map(|(i, w)| f(i, w))
            .collect();
        median(&xs).unwrap_or(0.0)
    };
    let delta = Scrape::merged(&deltas);
    let attempted = samples as f64;
    let throughput = per_window(&|i, w| Some(ok[i] as f64 / w.elapsed.as_secs_f64()));
    let p50 = per_window(&|i, _| median(&lat[i]));
    let setup = median(&setups).unwrap_or(0.0);
    let metrics = vec![
        metric(
            "server_cpu_ms_per_req",
            median(&cpu_ms_per_req).unwrap_or(0.0),
            "ms",
            "lower",
        ),
        metric("throughput_rps", throughput, "1/s", "higher"),
        metric("latency_p50_ms", p50, "ms", "lower"),
        metric("latency_p99_ms", p99, "ms", "lower"),
        metric(
            "error_rate",
            (check.errors + check.wrong) as f64 / attempted,
            "ratio",
            "lower",
        ),
        metric("setup_s", setup, "s", "lower"),
        metric("server_rss_mb", median(&rss).unwrap_or(0.0), "MiB", "lower"),
        metric(
            "io_words_per_req",
            delta.sum("ccmx_iomodel_words_moved_total", &[]) / attempted,
            "words",
            "lower",
        ),
        metric(
            "protocol_bits_per_run",
            check.run_bits as f64 / check.runs.max(1) as f64,
            "bits",
            "lower",
        ),
        metric(
            "host_steal_share",
            steal.0 as f64 / steal.1.max(1) as f64,
            "ratio",
            "lower",
        ),
    ];
    let mut checks = workload_sanity(opts, gen, &windows, &delta, &first_boot);
    checks.push(sanity(
        "latency_samples",
        true,
        format!(
            "{samples} samples over {} windows; p99 is the median of {blocks} blocks",
            windows.len()
        ),
    ));
    let fmt = |xs: Vec<f64>| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let notes = vec![
        format!(
            "  windows throughput_rps {}",
            fmt(windows
                .iter()
                .zip(&ok)
                .map(|(w, &n)| n as f64 / w.elapsed.as_secs_f64())
                .collect())
        ),
        format!(
            "  windows latency_p50_ms {}",
            fmt(lat.iter().filter_map(|l| median(l)).collect())
        ),
        format!("  fleets server_cpu_ms_per_req {}", fmt(cpu_ms_per_req)),
        format!("  boots setup_s {}", fmt(setups)),
    ];
    Ok(Measured {
        check,
        metrics,
        checks,
        spans: None,
        notes,
    })
}

/// The workload-sanity checks over the measured windows, from the
/// scrape delta around them.
fn workload_sanity(
    opts: &Opts,
    gen: &Generator,
    windows: &[&Window],
    delta: &Scrape,
    boot: &Scrape,
) -> Vec<Sanity> {
    let hits = |cache: &str| delta.sum("ccmx_cache_hits_total", &[("cache", cache)]);
    let samples = || windows.iter().flat_map(|w| w.samples.iter());
    match opts.workload {
        Workload::KernelCold => {
            let mut seen = HashSet::new();
            let mut repeats = 0;
            let mut fresh = 0u64;
            for s in samples() {
                let item = gen.item(s.index);
                if !seen.insert(item.req.to_wire_bytes()) {
                    repeats += 1;
                }
                let cacheable = matches!(
                    item.req,
                    Request::Bounds { .. } | Request::Singularity { .. } | Request::CcSearch { .. }
                );
                if cacheable
                    && matches!(s.resp, Ok(ref r) if !matches!(r, ccmx_net::Response::Error(_)))
                {
                    fresh += 1;
                }
            }
            let all_hits = hits("bounds") + hits("sing") + hits("cc");
            let appends = delta.sum("ccmx_store_appends_total", &[]);
            let recovered = boot.sum("ccmx_store_recovered_records_total", &[]);
            let stored = gen.stored_set().len();
            vec![
                sanity(
                    "store_recovered_at_boot",
                    recovered == stored as f64,
                    format!("{recovered} records recovered, {stored} stored"),
                ),
                sanity(
                    "zero_repeated_keys",
                    repeats == 0,
                    format!("{repeats} repeated"),
                ),
                sanity(
                    "cache_hit_ratio_zero",
                    all_hits == 0.0,
                    format!("{all_hits} hits"),
                ),
                sanity(
                    "store_appends_equal_fresh_verdicts",
                    appends == fresh as f64,
                    format!("{appends} appends, {fresh} fresh verdicts"),
                ),
            ]
        }
        Workload::ClusterBatch => procs::SHARDS
            .iter()
            .map(|shard| {
                let routed = delta.sum("ccmx_cluster_routed_total", &[("shard", shard)]);
                sanity(
                    if *shard == "s0" {
                        "routed_nonzero_s0"
                    } else {
                        "routed_nonzero_s1"
                    },
                    routed > 0.0,
                    format!("{routed} routed to {shard}"),
                )
            })
            .collect(),
    }
}

/// The traced run: [`ROUNDS`] rounds of three windows (1 connection
/// untraced, then 2 connections untraced and traced), then
/// in-process layer timings on the same seeded inputs. Interleaving the
/// rounds lets host drift fall on both sides of each ratio.
fn traced(
    opts: &Opts,
    bin: &Path,
    gen: &Generator,
    oracle: &Oracle,
    work: &WorkDir,
    warm: Option<&Path>,
) -> Result<Measured, String> {
    let store = boot_store(opts, work, warm, "traced")?;
    let (fleet, _) = Fleet::boot(opts.workload, bin, store.as_deref())?;
    let boot = merged(&fleet.scrape()?);
    let next = AtomicU64::new(0);
    closed_loop(fleet.front(), CONNS, WARMUP, gen, &next, false);
    let length = Duration::from_secs_f64(opts.seconds / (3 * ROUNDS) as f64);
    let mut windows = Vec::with_capacity(3 * ROUNDS);
    // Scrape deltas around the traced windows: all processes, shards.
    let (mut delta, mut shard_delta) = (Scrape::default(), Scrape::default());
    for r in 0..ROUNDS {
        let one = closed_loop(fleet.front(), 1, length, gen, &next, false);
        // Odd rounds run the traced window first, so drift within a
        // round favours neither side of `trace.overhead`.
        let (mut two, mut traced_window) = (None, None);
        for traced in [r % 2 == 1, r % 2 == 0] {
            if !traced {
                two = Some(closed_loop(fleet.front(), CONNS, length, gen, &next, false));
                continue;
            }
            let before = fleet.scrape()?;
            traced_window = Some(closed_loop(fleet.front(), CONNS, length, gen, &next, true));
            let after = fleet.scrape()?;
            delta = Scrape::merged([&delta, &merged(&after).delta(&merged(&before))]);
            let shards: Vec<Scrape> = after
                .iter()
                .zip(&before)
                .filter(|((n, _), _)| procs::SHARDS.contains(&n.as_str()))
                .map(|((_, a), (_, b))| a.delta(b))
                .collect();
            shard_delta = Scrape::merged(std::iter::once(&shard_delta).chain(&shards));
        }
        windows.extend([two, Some(one), traced_window].map(|w| w.expect("each window ran")));
    }
    let issued = next.load(std::sync::atomic::Ordering::Relaxed);

    let rtt_us = ping_rtt_us(fleet.front())?;
    let router = Router::new(opts.workload == Workload::ClusterBatch);
    let hop_us = match opts.workload {
        Workload::ClusterBatch => hop_us(&fleet, gen, &router)?,
        _ => 0.0,
    };
    drop(fleet);

    let (check, ok) = verify(gen, oracle, &windows.iter().collect::<Vec<_>>());
    // Per round: 2-connection, 1-connection and traced throughput.
    let thr: Vec<f64> = windows
        .iter()
        .zip(&ok)
        .map(|(w, &n)| n as f64 / w.elapsed.as_secs_f64())
        .collect();
    let per_round = |f: &dyn Fn(&[f64]) -> f64| -> f64 {
        median(&thr.chunks(3).map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let two_conn_speedup = per_round(&|r| r[0] / r[1]);
    let overhead = per_round(&|r| r[2] / r[0]);
    // The traced windows, joined.
    let traced_w = Window {
        samples: windows
            .iter()
            .skip(2)
            .step_by(3)
            .flat_map(|w| w.samples.iter().map(load::Sample::clone))
            .collect(),
        elapsed: windows.iter().skip(2).step_by(3).map(|w| w.elapsed).sum(),
    };

    // Replay a sample of the traced window, layer by layer.
    let hops = if opts.workload == Workload::ClusterBatch {
        2
    } else {
        1
    };
    let picked: Vec<&load::Sample> = {
        let good: Vec<&load::Sample> = traced_w.samples.iter().filter(|s| s.resp.is_ok()).collect();
        let step = (good.len() / REPLAY_MAX).max(1);
        good.into_iter().step_by(step).take(REPLAY_MAX).collect()
    };
    let (misses, model) = miss_flags(opts.workload, gen, &router, issued, &traced_w, &picked);
    let mut replayer = Replayer::new(
        match opts.workload {
            Workload::KernelCold => Some(work.fresh("replay-store")?),
            _ => None,
        }
        .as_deref(),
    )?;
    let mut spans = Spans::default();
    let (mut self_us, mut unattributed, mut codec_us) = (Vec::new(), Vec::new(), Vec::new());
    for (s, miss) in picked.iter().zip(&misses) {
        let item = gen.item(s.index);
        let resp = s.resp.as_ref().expect("picked samples succeeded");
        let live = s.stages.expect("the traced window records stages");
        // Server-side steps, replayed: the loopback round trip, the
        // coordinator hop and routing, codec, then each member's layers.
        let mut steps = vec![Step {
            name: "net.rtt",
            ns: (rtt_us * 1e3) as u64,
        }];
        if hops == 2 {
            // Sub-batches go to their shards one after another: one hop
            // per distinct shard.
            let reqs = layers::members(&item.req);
            let shards: HashSet<usize> = reqs.iter().map(|r| router.shard(r)).collect();
            steps.push(Step {
                name: "cluster.hop",
                ns: (hop_us.max(0.0) * 1e3 * shards.len() as f64) as u64,
            });
            steps.push(Step {
                name: "cluster.route",
                ns: (router.route_ns(&reqs) * reqs.len() as f64) as u64,
            });
        }
        let server_codec = layers::server_codec_ns(&item.req, resp, hops);
        steps.push(Step {
            name: "net.codec",
            ns: server_codec,
        });
        for (m, &is_miss) in layers::members(&item.req).into_iter().zip(miss) {
            replayer.member(m, is_miss, &mut steps);
        }
        let client_ns = (live.encode_ns + live.decode_ns) as f64;
        codec_us.push((client_ns + server_codec as f64) / 1e3);
        let latency_ns = s.latency.as_nanos() as f64;
        // Self time leaves out the round trip and the hop: they are the
        // server's own share of the wait, not a layer it calls.
        let layer_ns: f64 = steps
            .iter()
            .filter(|st| !matches!(st.name, "net.rtt" | "cluster.hop"))
            .map(|st| st.ns as f64)
            .sum();
        let covered =
            client_ns + live.send_ns as f64 + steps.iter().map(|st| st.ns as f64).sum::<f64>();
        self_us.push((latency_ns - client_ns - layer_ns) / 1e3);
        unattributed.push(((latency_ns - covered) / latency_ns).max(0.0));
        spans.record(
            s.index,
            s.start.as_nanos() as u64,
            latency_ns as u64,
            &live,
            &steps,
        );
    }

    // In-process probes of every layer on the workload's inputs, each
    // request replayed as a cache miss so every kernel runs.
    let mut probe = Replayer::new(Some(&work.fresh("probe-store")?))?;
    let mut probe_steps = Vec::new();
    let probe_items: Vec<gen::Item> = (0..probe_count(opts.workload))
        .map(|j| gen.item(PROBE_BASE + j))
        .collect();
    for item in &probe_items {
        for m in layers::members(&item.req) {
            probe.member(m, true, &mut probe_steps);
        }
    }
    if probe.search.solves == 0 {
        // No CcSearch class on this workload: probe the shared one.
        for j in 0..gen.cc_bases.len() as u64 {
            let item = gen::cc_item(opts.seed, PROBE_BASE + j, &gen.cc_bases, j as usize);
            probe.member(&item.req, true, &mut probe_steps);
        }
    }
    let step_median = |name: &str, scale: f64| {
        let xs: Vec<f64> = probe_steps
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns as f64 / scale)
            .collect();
        median(&xs).unwrap_or(0.0)
    };
    let (r16, w16, c16) = layers::rank_probe(opts.seed, 16, 8);
    let (r32, w32, c32) = layers::rank_probe(opts.seed, 32, 4);
    let (r48, w48, c48) = layers::rank_probe(opts.seed, 48, 4);
    let all_members: Vec<&Request> = probe_items
        .iter()
        .flat_map(|it| layers::members(&it.req))
        .collect();
    let open_ms = store_open_ms(store.as_deref(), work)?;

    let ratio = |h: f64, m: f64| if h + m > 0.0 { h / (h + m) } else { 0.0 };
    let hit_ratio = |cache: &str| {
        ratio(
            delta.sum("ccmx_cache_hits_total", &[("cache", cache)]),
            delta.sum("ccmx_cache_misses_total", &[("cache", cache)]),
        )
    };
    let batches = traced_w.samples.len() as f64;
    let (shard_share, shard_hit) = match opts.workload {
        Workload::ClusterBatch => {
            let routed: Vec<f64> = procs::SHARDS
                .iter()
                .map(|s| delta.sum("ccmx_cluster_routed_total", &[("shard", s)]))
                .collect();
            let (max, min) = routed
                .iter()
                .fold((0.0f64, f64::MAX), |(a, b), &x| (a.max(x), b.min(x)));
            let m = &shard_delta;
            (
                if min > 0.0 { max / min } else { 0.0 },
                ratio(
                    m.sum("ccmx_cache_hits_total", &[]),
                    m.sum("ccmx_cache_misses_total", &[]),
                ),
            )
        }
        _ => (0.0, 0.0),
    };
    let search = &probe.search;
    let metrics = vec![
        metric("net.ping_rtt_us", rtt_us, "us", "lower"),
        metric(
            "net.server_self_us",
            median(&self_us).unwrap_or(0.0),
            "us",
            "lower",
        ),
        metric(
            "net.codec_us",
            median(&codec_us).unwrap_or(0.0),
            "us",
            "lower",
        ),
        metric(
            "net.cache_hit_ratio.bounds",
            hit_ratio("bounds"),
            "ratio",
            "higher",
        ),
        metric(
            "net.cache_hit_ratio.sing",
            hit_ratio("sing"),
            "ratio",
            "higher",
        ),
        metric("net.cache_hit_ratio.cc", hit_ratio("cc"), "ratio", "higher"),
        metric(
            "net.cache_evictions",
            delta.sum("ccmx_cache_evictions_total", &[]),
            "count",
            "lower",
        ),
        metric("net.two_conn_speedup", two_conn_speedup, "ratio", "higher"),
        metric(
            "net.shed",
            delta.sum("ccmx_server_shed_total", &[]) + delta.sum("ccmx_cluster_shed_total", &[]),
            "count",
            "lower",
        ),
        metric(
            "net.deadline_exceeded",
            delta.sum("ccmx_server_deadline_exceeded_total", &[]),
            "count",
            "lower",
        ),
        metric(
            "linalg.fingerprint_us",
            step_median("linalg.fingerprint", 1e3),
            "us",
            "lower",
        ),
        metric("linalg.crt_rank_us.d16", r16, "us", "lower"),
        metric("linalg.crt_rank_us.d32", r32, "us", "lower"),
        metric("linalg.crt_rank_us.d48", r48, "us", "lower"),
        metric(
            "linalg.io_words_per_call",
            (w16 + w32 + w48) as f64 / (c16 + c32 + c48).max(1) as f64,
            "words",
            "lower",
        ),
        metric(
            "linalg.crt_certified",
            delta.sum("ccmx_crt_certified_total", &[]),
            "count",
            "higher",
        ),
        metric(
            "linalg.pool_tasks",
            delta.sum("ccmx_pool_tasks_total", &[]),
            "count",
            "higher",
        ),
        metric(
            "search.solve_ms",
            step_median("search.solve", 1e6),
            "ms",
            "lower",
        ),
        metric(
            "search.nodes_per_solve",
            search.nodes as f64 / search.solves.max(1) as f64,
            "count",
            "lower",
        ),
        metric(
            "search.memo_hit_ratio",
            ratio(search.memo_hits as f64, search.memo_misses as f64),
            "ratio",
            "higher",
        ),
        metric(
            "comm.decode_us",
            step_median("comm.decode", 1e3),
            "us",
            "lower",
        ),
        metric("comm.run_us", step_median("comm.run", 1e3), "us", "lower"),
        metric(
            "comm.run_bits",
            check.run_bits as f64 / check.runs.max(1) as f64,
            "bits",
            "lower",
        ),
        metric(
            "core.bounds_us",
            step_median("core.bounds", 1e3),
            "us",
            "lower",
        ),
        metric(
            "store.put_sync_us",
            step_median("store.put_sync", 1e3),
            "us",
            "lower",
        ),
        metric(
            "store.appends",
            delta.sum("ccmx_store_appends_total", &[]),
            "count",
            "lower",
        ),
        metric("store.open_ms", open_ms, "ms", "lower"),
        metric(
            "store.recovered_records",
            boot.sum("ccmx_store_recovered_records_total", &[]),
            "count",
            "lower",
        ),
        metric("cluster.hop_us", hop_us, "us", "lower"),
        metric(
            "cluster.batch_fanout_per_batch",
            delta.sum("ccmx_cluster_batch_fanout_total", &[]) / batches.max(1.0),
            "count",
            "lower",
        ),
        metric(
            "cluster.shard_share_max_over_min",
            shard_share,
            "ratio",
            "lower",
        ),
        metric(
            "cluster.shard_cache_hit_ratio",
            shard_hit,
            "ratio",
            "higher",
        ),
        metric(
            "cluster.route_ns",
            router.route_ns(&all_members),
            "ns",
            "lower",
        ),
        metric(
            "trace.unattributed_share",
            median(&unattributed).unwrap_or(0.0),
            "ratio",
            "lower",
        ),
        metric("trace.overhead", overhead, "ratio", "higher"),
    ];
    let mut checks = workload_sanity(opts, gen, &[&traced_w], &delta, &boot);
    if let Some(model) = model {
        // The replay's miss flags come from the model: it must agree
        // with the hit ratio the shards counted over the same window.
        checks.push(sanity(
            "cache_model_matches_shards",
            (model - shard_hit).abs() <= MODEL_TOLERANCE,
            format!("model hit ratio {model:.4}, shards report {shard_hit:.4}"),
        ));
    }
    Ok(Measured {
        check,
        metrics,
        checks,
        spans: Some(spans),
        notes: Vec::new(),
    })
}

/// Generator items the in-process probes replay.
fn probe_count(w: Workload) -> u64 {
    match w {
        Workload::KernelCold => 48,
        Workload::ClusterBatch => 16,
    }
}

/// Per member of each picked request: did the server's cache miss it?
/// `kernel_cold` keys are all fresh; for
/// `cluster_batch` a model of the shards' LRUs is fed every issued
/// request in issue order, and its hit ratio over the cached kinds in
/// `window` is returned to be checked against the shards' own count.
fn miss_flags(
    w: Workload,
    gen: &Generator,
    router: &Router,
    issued: u64,
    window: &Window,
    picked: &[&load::Sample],
) -> (Vec<Vec<bool>>, Option<f64>) {
    let flags_for = |req: &Request, f: &dyn Fn(&Request) -> bool| -> Vec<bool> {
        layers::members(req).into_iter().map(f).collect()
    };
    let cached = |r: &Request| {
        matches!(
            r,
            Request::Bounds { .. } | Request::Singularity { .. } | Request::CcSearch { .. }
        )
    };
    match w {
        Workload::KernelCold => (
            picked
                .iter()
                .map(|s| flags_for(&gen.item(s.index).req, &|_| true))
                .collect(),
            None,
        ),
        Workload::ClusterBatch => {
            let wanted: std::collections::HashMap<u64, usize> = picked
                .iter()
                .enumerate()
                .map(|(k, s)| (s.index, k))
                .collect();
            let in_window: HashSet<u64> = window.samples.iter().map(|s| s.index).collect();
            let mut out = vec![Vec::new(); picked.len()];
            let mut model = CacheModel::new();
            let (mut hits, mut lookups) = (0u64, 0u64);
            for i in 0..issued {
                let item = gen.item(i);
                let members = layers::members(&item.req);
                let flags: Vec<bool> = members
                    .iter()
                    .map(|m| model.lookup(router.shard(m), m))
                    .collect();
                if in_window.contains(&i) {
                    for (m, miss) in members.iter().zip(&flags) {
                        if cached(m) {
                            lookups += 1;
                            hits += u64::from(!miss);
                        }
                    }
                }
                if let Some(&k) = wanted.get(&i) {
                    out[k] = flags;
                }
            }
            (out, Some(hits as f64 / lookups.max(1) as f64))
        }
    }
}

/// Median client-observed `Ping` round trip on one connection, in µs.
fn ping_rtt_us(addr: &str) -> Result<f64, String> {
    let mut c = Client::connect(addr, client_config()).map_err(|e| e.to_string())?;
    let mut xs = Vec::with_capacity(300);
    for _ in 0..300 {
        let t = Instant::now();
        c.ping().map_err(|e| e.to_string())?;
        xs.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&xs).unwrap_or(0.0))
}

/// The coordinator hop: the same warm Bounds request's latency through
/// the coordinator minus its latency sent straight to its owning shard,
/// as medians over alternating sends.
fn hop_us(fleet: &Fleet, gen: &Generator, router: &Router) -> Result<f64, String> {
    let connect = |addr: &str| Client::connect(addr, client_config()).map_err(|e| e.to_string());
    let mut coord = connect(fleet.front())?;
    let mut shards: Vec<Client> = fleet
        .shards()
        .map(|p| connect(&p.addr))
        .collect::<Result<_, _>>()?;
    let keys: Vec<&Request> = gen
        .key_set()
        .iter()
        .map(|it| &it.req)
        .filter(|r| matches!(r, Request::Bounds { .. }))
        .take(32)
        .collect();
    let (mut via, mut direct) = (Vec::new(), Vec::new());
    for req in &keys {
        coord.request(req).map_err(|e| e.to_string())?;
    }
    for _ in 0..4 {
        for req in &keys {
            let t = Instant::now();
            coord.request(req).map_err(|e| e.to_string())?;
            via.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            shards[router.shard(req)]
                .request(req)
                .map_err(|e| e.to_string())?;
            direct.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(median(&via).unwrap_or(0.0) - median(&direct).unwrap_or(0.0))
}

/// Median milliseconds to open (and recover) the workload's store after
/// its server stopped; an empty store when the workload keeps none.
fn store_open_ms(dir: Option<&Path>, work: &WorkDir) -> Result<f64, String> {
    let dir = match dir {
        Some(d) => d.to_path_buf(),
        None => work.fresh("empty-store")?,
    };
    let mut xs = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let store = ccmx_store::Store::open(ccmx_store::StoreConfig::new(&dir).label("e2ebench"))
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        xs.push(t.elapsed().as_secs_f64() * 1e3);
        drop(store);
    }
    Ok(median(&xs).unwrap_or(0.0))
}

/// The machine and configuration every result records.
fn config(opts: &Opts) -> Value {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("ccmx_threads", Value::Num(CCMX_THREADS as f64)),
        (
            "ccmx_fast_mem_words",
            Value::Num(ccmx_linalg::iomodel::fast_mem_words() as f64),
        ),
        ("server_workers", Value::Num(WORKERS as f64)),
        ("client_connections", Value::Num(CONNS as f64)),
        (
            "cache_capacity",
            Value::obj([
                ("bounds", Value::Num(CACHE_CAPACITY as f64)),
                ("sing", Value::Num(CACHE_CAPACITY as f64)),
                ("cc", Value::Num(CACHE_CAPACITY as f64)),
            ]),
        ),
        ("seed", Value::Num(opts.seed as f64)),
        ("run_seconds", Value::Num(opts.seconds)),
        ("git_commit", Value::Str(git_commit())),
        ("rustc", Value::Str(rustc)),
    ])
}

/// The checked-out commit, read from `.git` in the working directory
/// (a plain source checkout has none).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| format!("unresolved {r}")),
    }
}
