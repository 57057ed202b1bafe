//! Server processes: spawn the real `ccmx` binary on loopback, wait
//! until it answers `Ping`, read its peak RSS, stop it.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use ccmx_net::{Client, TransportConfig};

use crate::gen::Workload;
use crate::scrape::Scrape;

/// Linalg pool threads of every server process.
pub const CCMX_THREADS: usize = 2;
/// Compute workers of every server process.
pub const WORKERS: usize = 2;
/// Idle window for shard and coordinator connections: wide enough that
/// the coordinator's pooled shard connections survive the untimed gaps
/// between phases.
const IDLE_SECS: u64 = 60;

/// Transport settings for benchmark clients: generous timeouts (a
/// timeout is a failed request, never a retry).
pub fn client_config() -> TransportConfig {
    TransportConfig {
        read_timeout: Some(Duration::from_secs(60)),
        write_timeout: Some(Duration::from_secs(60)),
        max_retries: 0,
        retry_backoff: Duration::from_millis(1),
    }
}

/// One running server process.
pub struct Proc {
    pub name: String,
    pub addr: String,
    child: Child,
    /// Kept open so the server's periodic stats lines never hit a
    /// closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Proc {
    /// Spawn `bin args…` and read the bound address from its banner
    /// (`… on <addr> …`).
    fn spawn(bin: &Path, name: &str, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .env("CCMX_THREADS", CCMX_THREADS.to_string())
            .env_remove("CCMX_STORE_DIR")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .split_once(" on ")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Proc {
                name: name.to_string(),
                addr,
                child,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("{name}: no address in banner {banner:?}"))
            }
        }
    }

    /// Peak resident set (`VmHWM`) in KiB.
    fn vm_hwm_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Answer one `Ping`, or fail.
fn ping(addr: &str) -> Result<(), String> {
    let cfg = TransportConfig {
        read_timeout: Some(Duration::from_secs(5)),
        ..client_config()
    };
    let mut c = Client::connect(addr, cfg).map_err(|e| e.to_string())?;
    c.ping().map_err(|e| e.to_string())
}

/// Poll until `addr` answers `Ping`.
fn wait_ready(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match ping(addr) {
            Ok(()) => return Ok(()),
            Err(e) if Instant::now() > deadline => return Err(format!("{addr}: {e}")),
            Err(_) => std::thread::sleep(Duration::from_micros(100)),
        }
    }
}

/// The server processes of one workload.
pub struct Fleet {
    pub procs: Vec<Proc>,
}

impl Fleet {
    /// Boot the workload's processes; returns the fleet and the seconds
    /// from the first spawn until every process answered `Ping`.
    pub fn boot(
        workload: Workload,
        bin: &Path,
        store: Option<&Path>,
    ) -> Result<(Fleet, f64), String> {
        let t0 = Instant::now();
        let mut procs = Vec::new();
        match workload {
            Workload::KernelCold => {
                let mut args = vec!["serve".into(), "127.0.0.1:0".into(), WORKERS.to_string()];
                if let Some(dir) = store {
                    args.push("--store".into());
                    args.push(dir.display().to_string());
                }
                procs.push(Proc::spawn(bin, "server", &args)?);
            }
            Workload::ClusterBatch => {
                for name in SHARDS {
                    let args = [
                        "shard",
                        "127.0.0.1:0",
                        "--name",
                        name,
                        "--workers",
                        &WORKERS.to_string(),
                        "--idle-secs",
                        &IDLE_SECS.to_string(),
                    ]
                    .map(String::from);
                    procs.push(Proc::spawn(bin, name, &args)?);
                }
                let mut args: Vec<String> = vec!["coordinator".into(), "127.0.0.1:0".into()];
                for p in &procs {
                    args.push("--shard".into());
                    args.push(format!("{}={}", p.name, p.addr));
                }
                args.push("--idle-secs".into());
                args.push(IDLE_SECS.to_string());
                // The coordinator is the front: keep it first.
                procs.insert(0, Proc::spawn(bin, "coordinator", &args)?);
            }
        }
        for p in &procs {
            wait_ready(&p.addr)?;
        }
        Ok((Fleet { procs }, t0.elapsed().as_secs_f64()))
    }

    /// Where clients send traffic.
    pub fn front(&self) -> &str {
        &self.procs[0].addr
    }

    /// The shard processes (empty for a single server).
    pub fn shards(&self) -> impl Iterator<Item = &Proc> {
        self.procs
            .iter()
            .filter(|p| SHARDS.contains(&p.name.as_str()))
    }

    /// CPU time (user + system, `/proc/<pid>/stat` fields 14 and 15, in
    /// clock ticks of 1/100 s) used so far by every server process, in
    /// seconds. Time the host stole from the vCPU is not in it.
    pub fn cpu_secs(&self) -> Result<f64, String> {
        let mut ticks = 0u64;
        for p in &self.procs {
            let stat = std::fs::read_to_string(format!("/proc/{}/stat", p.child.id()))
                .map_err(|e| format!("{}: {e}", p.name))?;
            let fields: Vec<&str> = stat[stat.rfind(')').unwrap_or(0) + 2..]
                .split_whitespace()
                .collect();
            for i in [11, 12] {
                ticks += fields
                    .get(i)
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or_else(|| format!("{}: unreadable /proc stat", p.name))?;
            }
        }
        Ok(ticks as f64 / 100.0)
    }

    /// Peak RSS summed over every server process, in MiB.
    pub fn rss_mib(&self) -> Result<f64, String> {
        let mut total = 0;
        for p in &self.procs {
            total += p
                .vm_hwm_kib()
                .ok_or_else(|| format!("{}: no VmHWM", p.name))?;
        }
        Ok(total as f64 / 1024.0)
    }

    /// Scrape every process: `(name, series)`.
    pub fn scrape(&self) -> Result<Vec<(String, Scrape)>, String> {
        self.procs
            .iter()
            .map(|p| {
                let mut c = Client::connect(p.addr.as_str(), client_config())
                    .map_err(|e| format!("{}: {e}", p.name))?;
                let text = c.metrics().map_err(|e| format!("{}: {e}", p.name))?;
                Ok((p.name.clone(), Scrape::parse(&text)))
            })
            .collect()
    }
}

/// Shard names on `cluster_batch`.
pub const SHARDS: [&str; 2] = ["s0", "s1"];

/// Build the server binary in this checkout and return its path.
pub fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "ccmx"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the server failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = target.join("release").join("ccmx");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no server binary at {}", bin.display()))
    }
}
