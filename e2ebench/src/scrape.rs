//! `Request::Metrics` scrapes: parse the exposition text and take
//! deltas between two scrapes of the same process.

use std::collections::BTreeMap;

/// One process's series at one instant: `name{labels}` → value.
#[derive(Clone, Debug, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    series.insert(key.to_string(), v);
                }
            }
        }
        Scrape(series)
    }

    /// Sum over every series of metric `name` whose labels include all
    /// of `labels` (`key="value"` pairs).
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.0
            .iter()
            .filter(|(key, _)| {
                let (metric, rest) = key.split_once('{').unwrap_or((key.as_str(), ""));
                metric == name
                    && labels
                        .iter()
                        .all(|(k, v)| rest.contains(&format!("{k}=\"{v}\"")))
            })
            .map(|(_, v)| v)
            .sum::<f64>()
            // An empty float sum is -0.0; report a plain zero.
            + 0.0
    }

    /// `self - before`, series by series.
    pub fn delta(&self, before: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    /// Series-wise sum of several processes' scrapes.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a Scrape>) -> Scrape {
        let mut out = BTreeMap::new();
        for part in parts {
            for (k, v) in &part.0 {
                *out.entry(k.clone()).or_insert(0.0) += v;
            }
        }
        Scrape(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_labelled_series_and_takes_deltas() {
        let a = Scrape::parse(
            "ccmx_cache_hits_total{cache=\"sing\"} 3\nccmx_cache_hits_total{cache=\"cc\"} 4\nccmx_x 1\n",
        );
        let b = Scrape::parse(
            "ccmx_cache_hits_total{cache=\"sing\"} 10\nccmx_cache_hits_total{cache=\"cc\"} 4\nccmx_x 1\n",
        );
        assert_eq!(a.sum("ccmx_cache_hits_total", &[]), 7.0);
        assert_eq!(a.sum("ccmx_cache_hits_total", &[("cache", "cc")]), 4.0);
        assert_eq!(b.delta(&a).sum("ccmx_cache_hits_total", &[]), 7.0);
        assert_eq!(a.sum("ccmx_x", &[]), 1.0);
        assert_eq!(Scrape::merged([&a, &b]).sum("ccmx_x", &[]), 2.0);
    }
}
