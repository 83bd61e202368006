//! The static-analysis report: per-benchmark capability-flow analysis
//! and the cycle payoff of eliding proved-safe checks.
//!
//! For every MachSuite benchmark this runs the static analyzer
//! ([`capcheri_analyze::analyze_benchmark`]), audits the driver's
//! default RW grant table against the declared port directions, then
//! measures `ccpu+caccel` twice — fully checked and with the proof
//! installed ([`run_elided`]) — reporting the checks
//! skipped and the speedup. The machine-readable form is the
//! `capcheri.staticreport.v1` schema; rows are produced in
//! `Benchmark::ALL` order and every map the report touches is ordered,
//! so output is byte-identical at any `--threads` count.

use crate::runner::{run, RunError, RunResult, RunSpec};
use capchecker::SystemVariant;
use capcheri_analyze::{analyze_benchmark, audit_grants, default_grants, BenchAnalysis};
use machsuite::Benchmark;
use obs::json::JsonWriter;

/// Schema tag of the JSON form.
pub const STATIC_REPORT_SCHEMA: &str = "capcheri.staticreport.v1";

/// A checked run and its statically-elided twin.
#[derive(Clone, Debug)]
pub struct ElidedRun {
    /// The static analysis that authorized the elision.
    pub analysis: BenchAnalysis,
    /// `ccpu+caccel` with every runtime check on the path.
    pub checked: RunResult,
    /// The same configuration with proved-safe checks elided: tasks get
    /// least-privilege device grants, the verdict map is installed, and
    /// — when every port is proved safe — the checker pipeline stage
    /// drops off the bus path.
    pub elided: RunResult,
    /// Runtime checks the verdict map skipped (functional proof that the
    /// elision actually happened).
    pub checks_elided: u64,
}

impl ElidedRun {
    /// Cycle speedup of the elided run over the checked one.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.checked.cycles as f64 / self.elided.cycles as f64
    }
}

/// Runs `bench` under `ccpu+caccel` twice — fully checked, then with the
/// static analyzer's proof installed — and reports both costs.
///
/// The elided run is only as trustworthy as the analysis; the
/// conformance harness replays elided checkers against the golden oracle
/// (`conformance::run_ops_elided`), so an unsound verdict map shows up
/// there as a divergence rather than silently here.
///
/// # Errors
///
/// As [`run`].
pub fn run_elided(bench: Benchmark, tasks: usize, seed: u64) -> Result<ElidedRun, RunError> {
    let analysis = analyze_benchmark(bench, seed);
    let checked = RunSpec::new(bench, SystemVariant::CheriCpuCheriAccel, tasks, seed);
    let checked_run = run(&checked)?;
    let elided = run(&RunSpec {
        elide: Some(&analysis),
        ..checked
    })?;
    Ok(ElidedRun {
        checked: checked_run.result,
        elided: elided.result,
        checks_elided: elided.checks_elided,
        analysis,
    })
}

/// One benchmark's static-analysis row.
#[derive(Clone, Debug)]
pub struct StaticRow {
    /// The measured pair of runs plus the analysis behind them.
    pub run: ElidedRun,
    /// Over-privilege findings against the default RW grant table (how
    /// much narrower the least-privilege grants are).
    pub over_privileged_grants: u64,
}

impl StaticRow {
    /// Ports proved safe.
    #[must_use]
    pub fn safe_ports(&self) -> usize {
        self.run
            .analysis
            .ports
            .iter()
            .filter(|p| p.verdict == capchecker::StaticVerdict::Safe)
            .count()
    }
}

/// Computes one row.
///
/// # Panics
///
/// When a stock benchmark fails to run, as [`crate::runner::run_benchmark`].
#[must_use]
pub fn row(bench: Benchmark) -> StaticRow {
    let run = run_elided(bench, 1, 0xC0DE).unwrap_or_else(|e| panic!("{bench}: {e}"));
    let over_privileged_grants = audit_grants(bench, &default_grants(bench, 0))
        .iter()
        .filter(|f| f.category == "over-privilege")
        .count() as u64;
    StaticRow {
        run,
        over_privileged_grants,
    }
}

/// All 19 rows, computed on `threads` workers; any thread count produces
/// the same rows in the same order.
#[must_use]
pub fn rows(threads: usize) -> Vec<StaticRow> {
    crate::fan_out(threads, Benchmark::ALL.len(), |i| row(Benchmark::ALL[i]))
}

/// Renders the report as a table, its benchmark cells computed on
/// `threads` workers — byte-identical output for any thread count.
#[must_use]
pub fn report(threads: usize) -> String {
    render_rows(&rows(threads))
}

/// Renders already-computed rows as the text table.
#[must_use]
pub fn render_rows(all: &[StaticRow]) -> String {
    let table_rows: Vec<Vec<String>> = all
        .iter()
        .map(|r| {
            vec![
                r.run.checked.bench.name().to_owned(),
                format!("{}/{}", r.safe_ports(), r.run.analysis.ports.len()),
                r.over_privileged_grants.to_string(),
                r.run.checks_elided.to_string(),
                r.run.checked.cycles.to_string(),
                r.run.elided.cycles.to_string(),
                crate::render::speedup(r.run.speedup()),
            ]
        })
        .collect();
    format!(
        "Static capability-flow analysis: proved-safe ports and check elision\n\
         (ccpu+caccel, one task; grants narrowed to declared directions)\n\n{}",
        crate::render::table(
            &[
                "Benchmark",
                "Safe ports",
                "RW excess",
                "Elided",
                "Checked cyc",
                "Elided cyc",
                "Speedup",
            ],
            &table_rows
        )
    )
}

/// The `capcheri.staticreport.v1` JSON document for `rows`.
#[must_use]
pub fn rows_to_json(rows: &[StaticRow]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string(STATIC_REPORT_SCHEMA);
    w.key("benchmarks");
    w.begin_array();
    for r in rows {
        let a = &r.run.analysis;
        w.begin_object();
        w.key("bench");
        w.string(a.bench.name());
        w.key("all_safe");
        w.bool(a.all_safe());
        w.key("over_privileged_grants");
        w.u64(r.over_privileged_grants);
        w.key("checks_elided");
        w.u64(r.run.checks_elided);
        w.key("checked_cycles");
        w.u64(r.run.checked.cycles);
        w.key("elided_cycles");
        w.u64(r.run.elided.cycles);
        w.key("speedup");
        w.f64(r.run.speedup());
        w.key("ports");
        w.begin_array();
        for p in &a.ports {
            w.begin_object();
            w.key("name");
            w.string(p.name);
            w.key("mode");
            w.string(p.mode.label());
            w.key("verdict");
            w.string(p.verdict.label());
            w.key("read");
            w.bool(p.read);
            w.key("write");
            w.bool(p.write);
            w.end_object();
        }
        w.end_array();
        w.key("findings");
        w.begin_array();
        for f in &a.findings {
            w.begin_object();
            w.key("category");
            w.string(f.category);
            w.key("subject");
            w.string(&f.subject);
            w.key("detail");
            w.string(&f.detail);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_benchmarks_all_prove_safe_and_gain() {
        // A cheap representative subset (the golden test covers all 19).
        for b in [Benchmark::Aes, Benchmark::GemmNcubed, Benchmark::SpmvCrs] {
            let r = row(b);
            assert!(r.run.analysis.all_safe(), "{b}");
            assert!(r.run.checks_elided > 0, "{b}");
            assert!(r.run.speedup() >= 1.0, "{b}");
        }
    }

    #[test]
    fn json_is_valid_and_schema_tagged() {
        let rows = vec![row(Benchmark::Aes)];
        let json = rows_to_json(&rows);
        obs::json::validate(&json).unwrap();
        assert!(json.contains("\"schema\":\"capcheri.staticreport.v1\""));
        assert!(json.contains("\"bench\":\"aes\""));
        assert!(json.contains("\"verdict\":\"safe\""));
    }

    #[test]
    fn elided_run_skips_checks_and_saves_cycles() {
        let run = run_elided(Benchmark::GemmNcubed, 1, 1).unwrap();
        assert!(run.analysis.all_safe());
        assert!(run.checks_elided > 0, "no check was actually elided");
        assert!(
            run.elided.cycles < run.checked.cycles,
            "elision saved nothing: {} vs {}",
            run.elided.cycles,
            run.checked.cycles
        );
        assert!(run.speedup() > 1.0);
        // Setup is untouched: the same number of capabilities installs,
        // merely narrower ones.
        assert_eq!(run.elided.setup_cycles, run.checked.setup_cycles);
    }

    #[test]
    fn elided_runs_are_deterministic() {
        let a = run_elided(Benchmark::SpmvCrs, 2, 7).unwrap();
        let b = run_elided(Benchmark::SpmvCrs, 2, 7).unwrap();
        assert_eq!(a.elided.cycles, b.elided.cycles);
        assert_eq!(a.checks_elided, b.checks_elided);
    }
}
