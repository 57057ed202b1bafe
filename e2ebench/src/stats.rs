//! Order statistics for latencies and run-to-run spreads.

/// Median with midpoint interpolation; `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The `q`-quantile by nearest rank, but only when at least `tail`
/// samples lie strictly beyond its rank; otherwise the percentile is
/// not resolved by this sample and `None` is returned.
pub fn percentile_with_tail(xs: &[f64], q: f64, tail: usize) -> Option<f64> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < tail {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Samples a p99 needs beyond it before it is reported.
pub const P99_TAIL: usize = 10;

pub fn p99(xs: &[f64]) -> Option<f64> {
    percentile_with_tail(xs, 0.99, P99_TAIL)
}

/// The p99 of a run cut into consecutive windows: the windows are
/// joined in order into blocks just large enough to resolve a p99, a
/// short last block joins the one before, and the median of the blocks'
/// p99s is returned with the number of blocks. A host stall that lands
/// in one block moves only that block's p99. `None` when all windows
/// together do not resolve it.
pub fn blocked_p99(windows: &[Vec<f64>]) -> Option<(f64, usize)> {
    let mut blocks: Vec<Vec<f64>> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    for w in windows {
        open.extend_from_slice(w);
        if p99(&open).is_some() {
            blocks.push(std::mem::take(&mut open));
        }
    }
    if !open.is_empty() {
        blocks.last_mut()?.extend(open);
    }
    let p99s: Vec<f64> = blocks.iter().filter_map(|b| p99(b)).collect();
    Some((median(&p99s)?, p99s.len()))
}

/// Quartiles as Python's `statistics.quantiles(data, n=4)` gives them
/// (the default "exclusive" method), so spreads computed here match
/// spreads computed from the result files with Python. Needs at least
/// two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let ld = xs.len();
    if ld < 2 {
        return None;
    }
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_refuses_without_ten_samples_beyond_it() {
        // 999 samples: rank 990, 9 beyond — not enough.
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&xs), None);
        // 1000 samples: rank 990, 10 beyond — reported.
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(p99(&xs), Some(989.0));
        assert_eq!(p99(&[]), None);
        assert_eq!(p99(&[1.0; 50]), None);
    }

    #[test]
    fn blocked_p99_joins_windows_until_each_block_resolves() {
        // 400 samples per window: every block needs three windows.
        let window =
            |offset: f64| -> Vec<f64> { (0..400).map(|i| offset + f64::from(i)).collect() };
        let ws: Vec<Vec<f64>> = (0..7).map(|k| window(f64::from(k) * 1000.0)).collect();
        // Blocks: windows 0–2 and 3–6 (the short tail joins the last).
        let (p, blocks) = blocked_p99(&ws).unwrap();
        assert_eq!(blocks, 2);
        let first = p99(&ws[..3].concat()).unwrap();
        let second = p99(&ws[3..].concat()).unwrap();
        assert_eq!(p, (first + second) / 2.0);
        // Too few samples overall: refused, as `p99` refuses.
        assert_eq!(blocked_p99(&ws[..2]), None);
        assert_eq!(blocked_p99(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }
}
