//! The `capcheri.profile.v1` report — where a run's simulated cycles
//! went, as a machine-readable document and a human-readable tree.
//!
//! Everything serialized here derives from simulated quantities (the
//! cycle-domain span tree, profiler histograms, and check attribution),
//! so the JSON is byte-identical for a fixed `(bench, variant, tasks,
//! seed)` on any machine and at any `--threads` value. Host wall-clock
//! readings never enter this report.

use crate::runner::{run, RunError, RunResult, RunSpec};
use capchecker::{CheckAttribution, SystemVariant};
use machsuite::Benchmark;
use obs::json::JsonWriter;
use obs::{ProfileSnapshot, SpanSnapshot};
use std::fmt::Write as _;

/// Schema identifier stamped into every profile report.
pub const PROFILE_SCHEMA: &str = "capcheri.profile.v1";

/// One profiled benchmark run: its identity plus the frozen profile.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// The run's seed.
    pub seed: u64,
    /// The run's result, which also names the benchmark, the system
    /// configuration and the task count that actually ran.
    pub result: RunResult,
    /// The span tree and profiler histograms.
    pub profile: ProfileSnapshot,
    /// Per-master / per-`(task, object)` check attribution (`None` on
    /// variants without a checker).
    pub attribution: Option<CheckAttribution>,
}

impl ProfileReport {
    /// Runs `bench` with the profiler attached and wraps the take.
    ///
    /// # Errors
    ///
    /// As [`run`].
    pub fn collect(
        bench: Benchmark,
        variant: SystemVariant,
        tasks: usize,
        seed: u64,
    ) -> Result<ProfileReport, RunError> {
        let out = run(&RunSpec {
            profile: true,
            ..RunSpec::new(bench, variant, tasks, seed)
        })?;
        Ok(ProfileReport {
            seed,
            result: out.result,
            profile: out.profile.ok_or(RunError::Unrecorded("profile"))?,
            attribution: out.attribution,
        })
    }

    /// Fraction of the run's total cycles the span tree attributes
    /// (1.0 = every cycle accounted for).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.result.cycles == 0 {
            return 1.0;
        }
        self.profile.attributed_cycles() as f64 / self.result.cycles as f64
    }

    fn write_span(&self, w: &mut JsonWriter, at: usize) {
        let span = &self.profile.spans[at];
        w.begin_object();
        w.key("name");
        w.string(span.name);
        w.key("count");
        w.u64(span.count);
        w.key("cycles");
        w.u64(span.cycles);
        // wall_ns deliberately omitted: host time is nondeterministic
        // and never serialized (the determinism contract of this schema).
        w.key("children");
        w.begin_array();
        for &c in &span.children {
            self.write_span(w, c);
        }
        w.end_array();
        w.end_object();
    }

    fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("schema");
        w.string(PROFILE_SCHEMA);
        w.key("bench");
        w.string(self.result.bench.name());
        w.key("variant");
        w.string(&self.result.variant.to_string());
        w.key("tasks");
        w.u64(self.result.tasks as u64);
        w.key("seed");
        w.u64(self.seed);
        w.key("cycles");
        w.u64(self.result.cycles);
        w.key("attributed_cycles");
        w.u64(self.profile.attributed_cycles());
        w.key("spans");
        if self.profile.spans.is_empty() {
            w.begin_array();
            w.end_array();
        } else {
            w.begin_array();
            self.write_span(w, 0);
            w.end_array();
        }
        w.key("histograms");
        w.begin_object();
        for (name, h) in &self.profile.metrics.histograms {
            w.key(name);
            w.begin_object();
            w.key("count");
            w.u64(h.count);
            w.key("sum");
            w.u64(h.sum);
            w.key("min");
            w.u64(h.min);
            w.key("max");
            w.u64(h.max);
            w.key("mean");
            w.f64(h.mean);
            w.key("buckets");
            w.begin_array();
            for (bucket, count) in &h.buckets {
                w.begin_array();
                w.u64(u64::from(*bucket));
                w.u64(*count);
                w.end_array();
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        w.key("attribution");
        match &self.attribution {
            None => {
                w.begin_object();
                w.end_object();
            }
            Some(a) => {
                w.begin_object();
                w.key("masters");
                w.begin_object();
                for (master, c) in &a.masters {
                    w.key(&master.to_string());
                    write_counters(w, c);
                }
                w.end_object();
                w.key("pairs");
                w.begin_object();
                for ((task, object), c) in &a.pairs {
                    w.key(&format!("{task}/{object}"));
                    write_counters(w, c);
                }
                w.end_object();
                w.end_object();
            }
        }
        w.end_object();
    }

    /// This report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write(&mut w);
        w.finish()
    }

    /// The report as indented human-readable text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} {} tasks={} seed={}",
            self.result.bench.name(),
            self.result.variant,
            self.result.tasks,
            self.seed
        );
        let _ = writeln!(
            out,
            "  cycles {}, attributed {} ({:.1}%)",
            self.result.cycles,
            self.profile.attributed_cycles(),
            self.coverage() * 100.0
        );
        let _ = writeln!(out, "  spans (self cycles):");
        self.profile.walk(|depth, span: &SpanSnapshot| {
            let indent = "  ".repeat(depth + 2);
            let _ = writeln!(
                out,
                "{indent}{:<18} {:>12}  x{}",
                span.name, span.cycles, span.count
            );
        });
        if !self.profile.metrics.histograms.is_empty() {
            let _ = writeln!(out, "  histograms:");
            for (name, h) in &self.profile.metrics.histograms {
                let _ = writeln!(
                    out,
                    "    {name:<18} count={} mean={:.1} max={}",
                    h.count, h.mean, h.max
                );
            }
        }
        if let Some(a) = &self.attribution {
            let t = a.total();
            let _ = writeln!(
                out,
                "  checks: granted={} denied={} elided={} hits={} misses={} stall={}",
                t.granted, t.denied, t.elided, t.hits, t.misses, t.stall_cycles
            );
            let hot = a.hot_pairs(8);
            if !hot.is_empty() {
                let _ = writeln!(out, "  hot (task,object) pairs:");
                for ((task, object), c) in hot {
                    let _ = writeln!(
                        out,
                        "    task{task}/obj{object:<4} checks={:<8} granted={} elided={} misses={}",
                        c.checks(),
                        c.granted,
                        c.elided,
                        c.misses
                    );
                }
            }
        }
        out
    }
}

fn write_counters(w: &mut JsonWriter, c: &capchecker::CheckCounters) {
    w.begin_object();
    w.key("granted");
    w.u64(c.granted);
    w.key("denied");
    w.u64(c.denied);
    w.key("elided");
    w.u64(c.elided);
    w.key("hits");
    w.u64(c.hits);
    w.key("misses");
    w.u64(c.misses);
    w.key("stall_cycles");
    w.u64(c.stall_cycles);
    w.end_object();
}

/// Several reports as one JSON document:
/// `{"schema":"...","runs":[...]}`.
#[must_use]
pub fn reports_to_json(reports: &[ProfileReport]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string(PROFILE_SCHEMA);
    w.key("runs");
    w.begin_array();
    for r in reports {
        r.write(&mut w);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Several reports as one text document.
#[must_use]
pub fn render_all(reports: &[ProfileReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&r.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_valid_and_carries_the_tree() {
        let r = ProfileReport::collect(Benchmark::Aes, SystemVariant::CheriCpuCheriAccel, 1, 3)
            .unwrap();
        let json = r.to_json();
        obs::json::validate(&json).unwrap();
        for needle in [
            "\"schema\":\"capcheri.profile.v1\"",
            "\"bench\":\"aes\"",
            "\"name\":\"run\"",
            "\"name\":\"accel\"",
            "\"attribution\":",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
        assert!(!json.contains("wall"), "host time must never serialize");
    }

    #[test]
    fn coverage_is_high_and_never_exceeds_one() {
        for bench in [Benchmark::Aes, Benchmark::SpmvCrs] {
            for variant in [SystemVariant::CheriCpu, SystemVariant::CheriCpuCheriAccel] {
                let r = ProfileReport::collect(bench, variant, 1, 1).unwrap();
                let cov = r.coverage();
                assert!(cov <= 1.0 + 1e-12, "{bench} {variant}: {cov}");
                assert!(cov >= 0.95, "{bench} {variant}: only {cov} attributed");
            }
        }
    }

    #[test]
    fn render_mentions_spans_and_checks() {
        let r = ProfileReport::collect(
            Benchmark::GemmNcubed,
            SystemVariant::CheriCpuCheriAccel,
            2,
            1,
        )
        .unwrap();
        let text = r.render();
        assert!(text.contains("spans (self cycles)"), "{text}");
        assert!(text.contains("bus_busy"), "{text}");
        assert!(text.contains("hot (task,object) pairs"), "{text}");
    }

    #[test]
    fn report_records_the_task_count_that_ran() {
        // The runner runs exactly one task on a CPU variant and at least
        // one on an accelerator variant, whatever was requested.
        for (variant, requested, ran) in [
            (SystemVariant::CheriCpu, 4, 1),
            (SystemVariant::CheriCpuCheriAccel, 0, 1),
            (SystemVariant::CheriCpuCheriAccel, 2, 2),
        ] {
            let r = ProfileReport::collect(Benchmark::Aes, variant, requested, 1).unwrap();
            assert_eq!(r.result.tasks, ran, "{variant} --tasks {requested}");
            assert!(
                r.to_json().contains(&format!("\"tasks\":{ran},")),
                "{variant} --tasks {requested}"
            );
        }
    }
}
