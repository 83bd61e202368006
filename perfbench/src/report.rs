//! Summary statistics and the result line.

use std::fmt::Write as _;

/// Linear-interpolation quantile (`q` in 0..=1) of `samples`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Indices, in run order, of the fastest quarter (at least one) of the
/// samples `ns`.
pub fn fastest_quarter(ns: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ns.len()).collect();
    order.sort_by(|&a, &b| ns[a].total_cmp(&ns[b]));
    order.truncate(ns.len().div_ceil(4));
    order.sort_unstable();
    order
}

/// Marks the quiet samples of `ns[pass][kind]`: for each kind of cell,
/// the fastest quarter of its passes.
///
/// The host is shared, and other tenants slow stretches of a run,
/// sometimes most of it; a median then measures the neighbours. Noise
/// only ever adds time, so a cell's fastest runs are the ones that
/// measured the simulator, and they are steady from run to run. Choosing
/// per kind, not per pass, needs only one cell, not a whole pass, to
/// fall in a quiet stretch.
pub fn quiet_cells(ns: &[Vec<f64>]) -> Vec<Vec<bool>> {
    let kinds = ns.first().map_or(0, Vec::len);
    let mut quiet = vec![vec![false; kinds]; ns.len()];
    for kind in 0..kinds {
        let column: Vec<f64> = ns.iter().map(|pass| pass[kind]).collect();
        for pass in fastest_quarter(&column) {
            quiet[pass][kind] = true;
        }
    }
    quiet
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// One aligned line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "  {name:<32} {value:>16.4} {unit}");
        }
        out
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Values keep every digit `f64` Display gives; a non-finite value
    /// (never expected) is written as 0 and fails the run.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let finite = self.0.iter().all(|(_, v, _)| v.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            correct && finite
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!((quantile(&(1..=11).map(f64::from).collect::<Vec<_>>(), 0.9) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn the_fastest_quarter_is_in_run_order() {
        assert_eq!(
            fastest_quarter(&[5.0, 1.0, 9.0, 2.0, 8.0, 7.0, 3.0]),
            vec![1, 3]
        );
        assert_eq!(fastest_quarter(&[4.0]), vec![0]);
        assert!(fastest_quarter(&[]).is_empty());
    }

    #[test]
    fn quiet_cells_are_chosen_per_kind() {
        let ns = vec![
            vec![1.0, 9.0],
            vec![5.0, 2.0],
            vec![6.0, 7.0],
            vec![7.0, f64::INFINITY],
        ];
        assert_eq!(
            quiet_cells(&ns),
            vec![
                vec![true, false],
                vec![false, true],
                vec![false, false],
                vec![false, false]
            ]
        );
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("cells_per_s", f64::NAN, "1/s");
        let line = m.result_line(true, 3, 0);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"cells_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
