//! Sample summaries, named metrics, and the result line.

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics a workload produced, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Linear-interpolated quantile of `xs` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median, 95th percentile and count of a latency sample, as printed in
/// the human-readable report.
pub fn describe(xs: &[f64]) -> String {
    format!(
        "median {:.4} p95 {:.4} n={}",
        median(xs),
        quantile(xs, 0.95),
        xs.len()
    )
}

/// CPU ticks summed over all CPUs, from the first line of `/proc/stat`.
/// `steal` counts the ticks in which the hypervisor ran another guest while
/// this one had work to run; both are 0 where the file is missing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ticks {
    pub steal: u64,
    pub total: u64,
}

impl Ticks {
    pub fn now() -> Ticks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user and nice.
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .map(|l| l.split_whitespace().filter_map(|t| t.parse().ok()).collect())
            .unwrap_or_default();
        Ticks {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().take(8).sum(),
        }
    }

    /// The share of the ticks since `earlier` that were stolen.
    pub fn steal_since(self, earlier: Ticks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// Indices of the samples taken while the host stole least CPU time:
/// those whose steal share is at most the median share, so at least half.
/// On a shared host, stolen time slows every thread of a sample and
/// stretches each hand-off between threads; a slower program is slower in
/// every sample, so the choice hides no change of the program's own.
pub fn least_stolen(steal: &[f64]) -> Vec<usize> {
    let cut = median(steal);
    (0..steal.len()).filter(|i| steal[*i] <= cut).collect()
}

/// Median of `xs` over the samples [`least_stolen`] keeps.
pub fn least_stolen_median(xs: &[f64], steal: &[f64]) -> f64 {
    let kept: Vec<f64> = least_stolen(steal).into_iter().map(|i| xs[i]).collect();
    median(&kept)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The final result line: `correct`, `attempted`, `failed`, and the given
/// metrics with their units.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn least_stolen_keeps_the_calmer_half() {
        let steal = [0.0, 0.2, 0.05, 0.0];
        assert_eq!(least_stolen(&steal), vec![0, 3]);
        assert_eq!(least_stolen(&[0.1; 3]), vec![0, 1, 2]);
        assert_eq!(least_stolen_median(&[1.0, 9.0, 5.0, 3.0], &steal), 2.0);
        let now = Ticks::now();
        assert_eq!(now.steal_since(now), 0.0);
    }

    #[test]
    fn result_line_is_json() {
        let m = Metric {
            name: "setup_s".into(),
            value: 0.25,
            unit: "s",
        };
        let line = result_line(true, 3, 0, &[&m]);
        let j = idlog_common::Json::parse(&line).unwrap();
        assert_eq!(j.get("attempted").and_then(|v| v.as_u64()), Some(3));
        let v = j.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(v.get("value").and_then(|v| v.as_f64()), Some(0.25));
    }
}
