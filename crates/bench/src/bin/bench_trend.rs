//! `bench-trend` — diff performance snapshots and flag regressions.
//!
//! ```text
//! bench-trend <old.json> <new.json> [more.json ...] [--threshold PCT] [--json]
//! ```
//!
//! Takes two or more JSON snapshots — `BENCH_simulator.json`
//! (`capcheri.perf_baseline.v1`), `capcheri.profile.v1` reports, or any
//! other JSON document — flattens every numeric leaf to a dotted path
//! (`metrics.fig8_wall_ms_threads4`, `runs.0.cycles`, ...), and diffs
//! each consecutive pair. A metric moves the *wrong* way when it grows
//! by more than `--threshold` percent (default 5) — except for keys
//! that name rates or ratios (`per_sec`, `coverage`, `hit_rate`,
//! `speedup`, `throughput`, `utilization`), where shrinking is the
//! regression. Exit status is nonzero when any metric regresses, so CI
//! can gate on it; `--json` emits a `capcheri.trend.v1` report.
//!
//! ```text
//! cargo run --release -p capcheri-bench --bin bench-trend -- \
//!     BENCH_simulator.json /tmp/new.json --threshold 10
//! ```

use obs::json::JsonWriter;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn usage() -> String {
    "usage: bench-trend <old.json> <new.json> [more.json ...] \
     [--threshold PCT] [--json]"
        .to_owned()
}

/// Metrics where bigger is better; everything else (latencies, cycle
/// counts, miss counters, wall times) regresses by growing.
fn higher_is_better(path: &str) -> bool {
    [
        "per_sec",
        "coverage",
        "hit_rate",
        "speedup",
        "throughput",
        "utilization",
    ]
    .iter()
    .any(|token| path.contains(token))
}

struct Delta {
    path: String,
    old: f64,
    new: f64,
    pct: f64,
    regressed: bool,
}

fn diff(old: &BTreeMap<String, f64>, new: &BTreeMap<String, f64>, threshold: f64) -> Vec<Delta> {
    let mut deltas = Vec::new();
    for (path, &a) in old {
        let Some(&b) = new.get(path) else { continue };
        if a == 0.0 {
            continue;
        }
        let pct = (b - a) / a * 100.0;
        let regressed = if higher_is_better(path) {
            pct < -threshold
        } else {
            pct > threshold
        };
        deltas.push(Delta {
            path: path.clone(),
            old: a,
            new: b,
            pct,
            regressed,
        });
    }
    deltas
}

struct Options {
    files: Vec<String>,
    threshold: f64,
    json: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        threshold: 5.0,
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<'_, String>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--threshold" => {
                opts.threshold = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--threshold: {e}"))?;
            }
            "--json" => opts.json = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?}\n\n{}", usage()));
            }
            file => opts.files.push(file.to_owned()),
        }
    }
    if opts.files.len() < 2 {
        return Err(format!("need at least two snapshots\n\n{}", usage()));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut snapshots = Vec::new();
    for file in &opts.files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match obs::json::flatten(&text) {
            Ok(map) => snapshots.push(map),
            Err(e) => {
                eprintln!("{file}: invalid JSON: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut regressions = 0usize;
    let mut w = JsonWriter::new();
    if opts.json {
        w.begin_object();
        w.key("schema");
        w.string("capcheri.trend.v1");
        w.key("threshold_pct");
        w.f64(opts.threshold);
        w.key("steps");
        w.begin_array();
    }
    for pair in opts.files.windows(2).zip(snapshots.windows(2)) {
        let ((from, to), (old, new)) = ((&pair.0[0], &pair.0[1]), (&pair.1[0], &pair.1[1]));
        let deltas = diff(old, new, opts.threshold);
        if opts.json {
            w.begin_object();
            w.key("from");
            w.string(from);
            w.key("to");
            w.string(to);
            w.key("deltas");
            w.begin_array();
            for d in &deltas {
                w.begin_object();
                w.key("metric");
                w.string(&d.path);
                w.key("old");
                w.f64(d.old);
                w.key("new");
                w.f64(d.new);
                w.key("pct");
                w.f64(d.pct);
                w.key("regressed");
                w.bool(d.regressed);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        } else {
            println!(
                "trend: {from} -> {to} ({} shared metrics, threshold {}%)",
                deltas.len(),
                opts.threshold
            );
            for d in &deltas {
                let verdict = if d.regressed {
                    "REGRESSED"
                } else if d.pct.abs() <= opts.threshold {
                    "ok"
                } else {
                    "improved"
                };
                println!(
                    "  {:<44} {:>12.1} -> {:>12.1}  {:>+7.1}%  {verdict}",
                    d.path, d.old, d.new, d.pct
                );
            }
        }
        regressions += deltas.iter().filter(|d| d.regressed).count();
    }
    if opts.json {
        w.end_array();
        w.key("regressions");
        w.u64(regressions as u64);
        w.end_object();
        println!("{}", w.finish());
    } else {
        println!("regressions: {regressions}");
    }
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_heuristic_matches_metric_names() {
        assert!(higher_is_better("metrics.bench_cells_per_sec"));
        assert!(higher_is_better("runs.0.coverage"));
        assert!(!higher_is_better("metrics.fig8_wall_ms_threads4"));
        assert!(!higher_is_better("runs.0.cycles"));
    }

    #[test]
    fn diff_flags_the_right_direction() {
        let old = BTreeMap::from([
            ("wall_ms".to_owned(), 100.0),
            ("ops_per_sec".to_owned(), 100.0),
        ]);
        let new = BTreeMap::from([
            ("wall_ms".to_owned(), 120.0),
            ("ops_per_sec".to_owned(), 120.0),
        ]);
        let deltas = diff(&old, &new, 5.0);
        let wall = deltas.iter().find(|d| d.path == "wall_ms").unwrap();
        let ops = deltas.iter().find(|d| d.path == "ops_per_sec").unwrap();
        assert!(wall.regressed, "wall time +20% must regress");
        assert!(!ops.regressed, "throughput +20% is an improvement");
        let deltas = diff(&new, &old, 5.0);
        assert!(
            deltas
                .iter()
                .find(|d| d.path == "ops_per_sec")
                .unwrap()
                .regressed,
            "throughput -17% must regress"
        );
    }
}
