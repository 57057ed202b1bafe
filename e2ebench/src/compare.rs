//! `compare <before> <after>`: read two result sets (directories of
//! result files written by untraced runs) and judge every workload ×
//! end-to-end metric against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Value;
use crate::stats::{median, quartiles};

/// `(workload, metric)` → values, one per run.
type Set = BTreeMap<(String, String), Vec<f64>>;

fn load(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if v.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        if let Some(Value::Obj(metrics)) = v.get("metrics") {
            for (name, m) in metrics {
                if let Some(x) = m.get("value").and_then(Value::as_f64) {
                    set.entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(x);
                }
            }
        }
    }
    Ok(set)
}

/// One side's summary: median and quartiles.
struct Side {
    q: [f64; 3],
}

impl Side {
    fn of(xs: &[f64]) -> Option<Side> {
        let q = quartiles(xs).or_else(|| median(xs).map(|m| [m, m, m]))?;
        Some(Side { q })
    }

    /// Interquartile distance as a share of the median.
    fn spread(&self) -> f64 {
        (self.q[2] - self.q[0]).abs() / self.q[1].abs().max(f64::MIN_POSITIVE)
    }
}

/// The verdict for one metric: `after` against `before`, where
/// `lower_better` gives the direction and `bound` the share of the
/// before-median by which the metric may worsen.
pub fn verdict(before: &[f64], after: &[f64], lower_better: bool, bound: f64) -> &'static str {
    let (Some(b), Some(a)) = (Side::of(before), Side::of(after)) else {
        return "unresolved";
    };
    let sign = if lower_better { 1.0 } else { -1.0 };
    // Positive = after is worse, as a share of the before-median.
    let worse_by = sign * (a.q[1] - b.q[1]) / b.q[1].abs().max(f64::MIN_POSITIVE);
    // Better needs more than the before-side's own spread, with the two
    // interquartile ranges apart on the better side.
    let iqrs_apart = if lower_better {
        a.q[2] < b.q[0]
    } else {
        a.q[0] > b.q[2]
    };
    if worse_by > bound {
        "worse"
    } else if b.spread() > bound || a.spread() > bound {
        "unresolved"
    } else if -worse_by > b.spread() && iqrs_apart {
        "better"
    } else {
        "unchanged"
    }
}

/// End-to-end metrics kept out of `BENCHMARK.json`, judged here with
/// their own bound: `(name, lower is better, bound)`. `error_rate` is
/// zero in a correct run: a zero that stays zero is unchanged, a zero
/// that turns positive is worse. The wall-clock metrics spread more
/// than their bound between runs of the same code on a small shared
/// host, so there they read `unresolved` unless a change moves them
/// past the bound.
pub const UNGATED: [(&str, bool, f64); 4] = [
    ("error_rate", true, 0.0),
    ("throughput_rps", false, 0.25),
    ("latency_p50_ms", true, 0.25),
    ("latency_p99_ms", true, 0.25),
];

/// Run the comparison; returns the process exit code (1 if any metric
/// got worse by more than its bound).
pub fn run(args: &[String]) -> Result<i32, String> {
    let [before, after] = args else {
        return Err("usage: compare <before-results-dir> <after-results-dir>".into());
    };
    let bench = Value::parse(
        &std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?,
    )?;
    let b = load(Path::new(before))?;
    let a = load(Path::new(after))?;
    let workloads: Vec<String> = bench
        .get("workloads")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    let mut code = 0;
    println!(
        "{:<14} {:<22} {:>34} {:>34}  verdict",
        "workload", "metric", "before q1 / median / q3", "after q1 / median / q3"
    );
    let mut judged: Vec<(String, bool, f64)> = bench
        .get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string(),
                m.get("better").and_then(Value::as_str) == Some("lower"),
                m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
            )
        })
        .collect();
    judged.extend(UNGATED.iter().map(|&(n, l, b)| (n.to_string(), l, b)));
    for w in &workloads {
        for (name, lower, bound) in &judged {
            let (name, lower, bound) = (name.as_str(), *lower, *bound);
            let key = (w.clone(), name.to_string());
            let (xs, ys) = (
                b.get(&key).cloned().unwrap_or_default(),
                a.get(&key).cloned().unwrap_or_default(),
            );
            let v = verdict(&xs, &ys, lower, bound);
            if v == "worse" {
                code = 1;
            }
            let fmt = |s: Option<Side>| {
                s.map(|s| format!("{:.4} / {:.4} / {:.4}", s.q[0], s.q[1], s.q[2]))
                    .unwrap_or_else(|| "-".into())
            };
            println!(
                "{:<14} {:<22} {:>34} {:>34}  {v} (n={}/{}, bound {bound})",
                w,
                name,
                fmt(Side::of(&xs)),
                fmt(Side::of(&ys)),
                xs.len(),
                ys.len()
            );
        }
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8];
        let same = [100.1, 100.9, 99.2, 100.4, 99.6, 100.0, 100.3, 99.9];
        assert_eq!(verdict(&base, &same, true, 0.1), "unchanged");
        let slower: Vec<f64> = base.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&base, &slower, true, 0.1), "worse");
        // Higher-is-better metric that dropped by 30%.
        let fewer: Vec<f64> = base.iter().map(|x| x * 0.7).collect();
        assert_eq!(verdict(&base, &fewer, false, 0.1), "worse");
        assert_eq!(verdict(&base, &fewer, true, 0.1), "better");
        // Counts that are zero on a workload: zero stays unchanged, a
        // median above zero is worse, a stray nonzero run unresolved.
        assert_eq!(verdict(&[0.0; 5], &[0.0; 5], true, 0.0), "unchanged");
        assert_eq!(
            verdict(&[0.0; 5], &[0.0, 0.0, 1e-4, 0.0, 0.0], true, 0.0),
            "unresolved"
        );
        assert_eq!(verdict(&[0.0; 5], &[1e-4; 5], true, 0.0), "worse");
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0, 100.0];
        assert_eq!(verdict(&noisy, &noisy, true, 0.1), "unresolved");
        assert_eq!(verdict(&[], &base, true, 0.1), "unresolved");
    }
}
