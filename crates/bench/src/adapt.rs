//! The `capcheri.adapt.v1` bench report — the online adaptive policy
//! controller driven by real benchmark epochs.
//!
//! Each epoch runs the benchmark once under the cache-backed checker in
//! the controller's current provenance mode, samples the checker's cache
//! statistics as that epoch's [`EpochSignals`], and feeds them to the
//! [`AdaptController`]. A `SwitchMode` decision takes effect on the next
//! epoch's configuration, so the report shows closed-loop behaviour —
//! which mode each epoch actually ran in, what it cost, and why the
//! controller moved.
//!
//! Epoch 0 runs fully checked while the static analyzer's segment proof
//! is (notionally) being computed; every later epoch re-installs the
//! retained verdict map before its kernels run — the same
//! install-after-drop move `AdaptController` performs after a mode
//! switch, so elision survives Fine ⇄ Coarse transitions instead of
//! being lost at the first rebuild. Each epoch's `checks_elided` column
//! is the measured payoff.
//!
//! Everything serialized derives from simulated quantities, so the JSON
//! is byte-identical for a fixed `(bench, epochs, tasks, seed)` on any
//! machine and at any `--threads` value.

use crate::runner::{run, RunError, RunSpec};
use capchecker::{
    AdaptConfig, AdaptController, AdaptDecision, CachedCheckerConfig, CheckerMode, EpochSignals,
    SystemVariant,
};
use capcheri_analyze::analyze_benchmark;
use machsuite::Benchmark;
use obs::json::JsonWriter;
use std::fmt::Write as _;

/// Schema identifier stamped into every adaptive bench report.
pub const ADAPT_SCHEMA: &str = "capcheri.adapt.v1";

/// The cache geometry the adaptive bench loop runs under: small enough
/// that real kernels miss, so the stall-share signal has dynamics worth
/// reacting to (the production default of 16 entries absorbs most
/// benchmarks' working sets).
#[must_use]
pub fn adaptive_cache_config() -> CachedCheckerConfig {
    CachedCheckerConfig {
        cache_entries: 4,
        ..CachedCheckerConfig::default()
    }
}

/// One closed-loop epoch: the mode it ran in, what it cost, and the
/// signals the controller saw at its boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdaptEpoch {
    /// Epoch index (0-based).
    pub epoch: u32,
    /// Provenance mode this epoch executed under.
    pub mode: CheckerMode,
    /// Makespan of the epoch's run, in cycles.
    pub cycles: u64,
    /// The boundary sample handed to the controller.
    pub signals: EpochSignals,
    /// Cache hits this epoch (detail behind `signals.checks`).
    pub hits: u64,
    /// Cache misses this epoch.
    pub misses: u64,
    /// Checks the re-installed segment proof skipped this epoch (zero in
    /// epoch 0, where the proof is still being computed).
    pub checks_elided: u64,
}

/// One benchmark driven through `epochs` closed-loop controller epochs.
#[derive(Clone, Debug)]
pub struct AdaptBenchReport {
    /// Which benchmark ran.
    pub bench: Benchmark,
    /// Concurrent accelerator tasks each epoch ran (the requested count,
    /// clamped to at least 1 as the runner does).
    pub tasks: usize,
    /// The base seed (epoch `e` runs with `seed + e`).
    pub seed: u64,
    /// The controller configuration in force.
    pub config: AdaptConfig,
    /// Every epoch, in order.
    pub epochs: Vec<AdaptEpoch>,
    /// Every decision the controller made, in order.
    pub decisions: Vec<AdaptDecision>,
    /// Mode the controller wants after the last epoch.
    pub final_mode: CheckerMode,
}

impl AdaptBenchReport {
    /// Runs `bench` through `epochs` controller epochs and wraps the
    /// take.
    ///
    /// # Errors
    ///
    /// As [`run`].
    ///
    /// # Panics
    ///
    /// When `config` has no hysteresis gap.
    pub fn collect(
        bench: Benchmark,
        epochs: u32,
        tasks: usize,
        seed: u64,
        config: AdaptConfig,
    ) -> Result<AdaptBenchReport, RunError> {
        // The bench loop's only actuator is the provenance mode — the
        // cache itself is the signal source and stays in place, so the
        // cache/FU lattices are inert (`cached = false`, no FUs).
        let mut controller = AdaptController::new(config, CheckerMode::Fine, false);
        // The segment proof the loop re-installs from epoch 1 onward:
        // epoch 0 runs fully checked while the analyzer computes it.
        let analysis = analyze_benchmark(bench, seed);
        let mut out = Vec::with_capacity(epochs as usize);
        let mut tasks_run = tasks.max(1);
        for epoch in 0..epochs {
            let mode = controller.mode();
            let spec = RunSpec {
                cache: Some(adaptive_cache_config().with_mode(mode)),
                // Install-after-drop: each epoch's rebuilt checker (and
                // every mid-epoch mode switch) starts without a verdict
                // map; re-installing the retained segment proof is what
                // keeps elision alive across the controller's switches.
                elide: (epoch > 0).then_some(&analysis),
                ..RunSpec::new(
                    bench,
                    SystemVariant::CheriCpuCheriAccel,
                    tasks,
                    seed.wrapping_add(u64::from(epoch)),
                )
            };
            let run = run(&spec)?;
            tasks_run = run.result.tasks;
            // A fresh system per epoch means the full-run stats *are*
            // the epoch's deltas.
            let cache = run.cache.expect("the cached protection was installed");
            let signals = EpochSignals {
                checks: cache.hits + cache.misses + cache.elided,
                stall_cycles: cache.miss_cycles,
                denied: cache.denied,
                corruption: cache.corruption_detected,
                quarantined_fus: Vec::new(),
            };
            controller.observe(&signals);
            out.push(AdaptEpoch {
                epoch,
                mode,
                cycles: run.result.cycles,
                signals,
                hits: cache.hits,
                misses: cache.misses,
                checks_elided: run.checks_elided,
            });
        }
        Ok(AdaptBenchReport {
            bench,
            tasks: tasks_run,
            seed,
            epochs: out,
            decisions: controller.trace().to_vec(),
            final_mode: controller.mode(),
            config,
        })
    }

    fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("schema");
        w.string(ADAPT_SCHEMA);
        w.key("bench");
        w.string(self.bench.name());
        w.key("tasks");
        w.u64(self.tasks as u64);
        w.key("seed");
        w.u64(self.seed);
        w.key("config");
        w.begin_object();
        self.config.write_fields(w);
        w.end_object();
        w.key("epochs");
        w.begin_array();
        for e in &self.epochs {
            w.begin_object();
            w.key("epoch");
            w.u64(u64::from(e.epoch));
            w.key("mode");
            w.string(e.mode.label());
            w.key("cycles");
            w.u64(e.cycles);
            w.key("checks");
            w.u64(e.signals.checks);
            w.key("stall_cycles");
            w.u64(e.signals.stall_cycles);
            w.key("stall_share_pct");
            w.u64(e.signals.stall_share_pct());
            w.key("hits");
            w.u64(e.hits);
            w.key("misses");
            w.u64(e.misses);
            w.key("checks_elided");
            w.u64(e.checks_elided);
            w.end_object();
        }
        w.end_array();
        w.key("decisions");
        w.begin_array();
        for d in &self.decisions {
            d.write(w);
        }
        w.end_array();
        w.key("final");
        w.begin_object();
        w.key("mode");
        w.string(self.final_mode.label());
        w.end_object();
        w.end_object();
    }

    /// This report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write(&mut w);
        w.finish()
    }

    /// The report as human-readable text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "adapt: {} epochs={} tasks={} seed={}",
            self.bench.name(),
            self.epochs.len(),
            self.tasks,
            self.seed
        );
        let _ = writeln!(
            out,
            "  {:<6} {:<7} {:>12} {:>10} {:>12} {:>6} {:>8}",
            "epoch", "mode", "cycles", "checks", "stall", "share", "elided"
        );
        for e in &self.epochs {
            let _ = writeln!(
                out,
                "  {:<6} {:<7} {:>12} {:>10} {:>12} {:>5}% {:>8}",
                e.epoch,
                e.mode.label(),
                e.cycles,
                e.signals.checks,
                e.signals.stall_cycles,
                e.signals.stall_share_pct(),
                e.checks_elided
            );
        }
        if self.decisions.is_empty() {
            let _ = writeln!(out, "  decisions: none (signals inside the deadband)");
        } else {
            let _ = writeln!(out, "  decisions:");
            for d in &self.decisions {
                let _ = writeln!(
                    out,
                    "    epoch {} {}: share={}% dwell={}",
                    d.epoch,
                    d.rule.label(),
                    d.stall_share_pct,
                    d.dwell
                );
            }
        }
        let _ = writeln!(out, "  final mode: {}", self.final_mode.label());
        out
    }
}

/// Several reports as one JSON document:
/// `{"schema":"...","runs":[...]}`.
#[must_use]
pub fn reports_to_json(reports: &[AdaptBenchReport]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string(ADAPT_SCHEMA);
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
pub fn render_all(reports: &[AdaptBenchReport]) -> String {
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
    fn report_json_is_valid_and_closed_loop() {
        let r = AdaptBenchReport::collect(Benchmark::Aes, 3, 1, 3, AdaptConfig::default()).unwrap();
        let json = r.to_json();
        obs::json::validate(&json).unwrap();
        for needle in [
            "\"schema\":\"capcheri.adapt.v1\"",
            "\"bench\":\"aes\"",
            "\"config\":",
            "\"decisions\":",
            "\"final\":",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
        assert!(!json.contains("wall"), "host time must never serialize");
        assert_eq!(r.epochs.len(), 3);
        // The closed loop is consistent: epoch 0 starts Fine, and each
        // SwitchMode decision changes the very next epoch's mode.
        assert_eq!(r.epochs[0].mode, CheckerMode::Fine);
        for pair in r.epochs.windows(2) {
            let switched = r.decisions.iter().any(|d| {
                d.epoch == pair[0].epoch
                    && matches!(d.action, capchecker::AdaptAction::SwitchMode { .. })
            });
            if switched {
                assert_eq!(pair[1].mode, pair[0].mode.toggled());
            } else {
                assert_eq!(pair[1].mode, pair[0].mode);
            }
        }
    }

    #[test]
    fn small_cache_drives_a_stall_switch() {
        // With 4 cache entries a multi-buffer kernel misses hard enough
        // that the default up-threshold fires. Once the segment proof is
        // re-installed, elided epochs stall so little that the
        // down-threshold brings the system back to Fine — the round trip
        // static elision buys.
        let r =
            AdaptBenchReport::collect(Benchmark::SpmvCrs, 4, 2, 1, AdaptConfig::default()).unwrap();
        assert!(
            r.decisions
                .iter()
                .any(|d| d.rule == obs::AdaptRule::StallUp),
            "no stall-up fired: {:?}",
            r.decisions
        );
        assert_eq!(r.final_mode, CheckerMode::Fine);
        // Constant input ⇒ at most one flip in each direction.
        assert!(r.decisions.len() <= 2, "oscillation: {:?}", r.decisions);
    }

    #[test]
    fn elision_survives_the_first_mode_switch() {
        // The acceptance figure: before epoch-scoped re-install, any mode
        // switch dropped the verdict map and every later epoch reported
        // zero elided checks. Now every epoch after the proof epoch —
        // including those past the first switch — elides.
        let r =
            AdaptBenchReport::collect(Benchmark::SpmvCrs, 4, 2, 1, AdaptConfig::default()).unwrap();
        let first_switch = r
            .decisions
            .iter()
            .find(|d| matches!(d.action, capchecker::AdaptAction::SwitchMode { .. }))
            .map(|d| d.epoch)
            .expect("the small cache drives at least one switch");
        assert_eq!(r.epochs[0].checks_elided, 0, "epoch 0 computes the proof");
        for e in r.epochs.iter().filter(|e| e.epoch > first_switch) {
            assert!(
                e.checks_elided > 0,
                "epoch {} (mode {}) lost elision after the switch at epoch {}",
                e.epoch,
                e.mode.label(),
                first_switch
            );
        }
        assert!(r.to_json().contains("\"checks_elided\":"));
    }

    #[test]
    fn reports_are_byte_deterministic() {
        let a = AdaptBenchReport::collect(Benchmark::GemmNcubed, 3, 2, 7, AdaptConfig::default())
            .unwrap();
        let b = AdaptBenchReport::collect(Benchmark::GemmNcubed, 3, 2, 7, AdaptConfig::default())
            .unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn report_records_the_task_count_that_ran() {
        let r = AdaptBenchReport::collect(Benchmark::Aes, 1, 0, 1, AdaptConfig::default()).unwrap();
        assert_eq!(r.tasks, 1, "the runner runs at least one task");
        assert!(r.to_json().contains("\"tasks\":1,"));
    }
}
