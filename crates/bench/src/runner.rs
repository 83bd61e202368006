//! Runs one benchmark under one of the five §6.3 system configurations
//! and costs it with the timing models.

use capchecker::{
    CacheStats, CachedCheckerConfig, CapChecker, CheckAttribution, HeteroSystem, ProtectionChoice,
    StaticVerdictMap, SystemVariant, TaskRequest,
};
use capcheri_analyze::{analyze_benchmark, declared_perms, BenchAnalysis};
use hetsim::timing::{
    simulate_accel_system_prof, simulate_cpu_prof, simulate_cpu_traced, AccelTask,
    AccelTimingConfig, BusConfig, CpuTiming,
};
use hetsim::{Cycles, Trace};
use machsuite::Benchmark;
use obs::{
    NullProfiler, NullTracer, ProfileSnapshot, Profiler, Registry, SharedTracer, Snapshot,
    SpanProfiler, TraceBuffer, Tracer,
};

/// Pipeline depth the CapChecker adds to each request in the prototype.
pub const CHECKER_PIPELINE_LATENCY: Cycles = 1;

/// The outcome of one measured run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Which benchmark ran.
    pub bench: Benchmark,
    /// Under which system configuration.
    pub variant: SystemVariant,
    /// Concurrent accelerator tasks (1 for CPU configurations).
    pub tasks: usize,
    /// Wall-clock cycles (makespan over all tasks).
    pub cycles: Cycles,
    /// Driver setup cycles of the first task (capability installs show up
    /// here on `ccpu+caccel`).
    pub setup_cycles: Cycles,
    /// Interconnect busy fraction (accelerator runs only).
    pub bus_utilization: f64,
}

/// [`run_benchmark`] plus the full observability take: the metrics
/// snapshot and the recorded event trace.
#[derive(Clone, Debug)]
pub struct ObservedRun {
    /// The same result the untraced path produces (bit-identical cycles:
    /// both paths share one implementation).
    pub result: RunResult,
    /// The frozen metrics registry for this run.
    pub metrics: Snapshot,
    /// Every event the run recorded (driver, checker, bus, L1 domains).
    pub events: TraceBuffer,
}

/// Builds the system, executes the kernel(s) functionally through the
/// protected path, and costs the recorded trace(s) under the variant's
/// timing model.
///
/// # Panics
///
/// Panics if the benign benchmark is denied by its own system — that
/// would be a protection-model bug, and the tests treat it as one.
#[must_use]
pub fn run_benchmark(
    bench: Benchmark,
    variant: SystemVariant,
    tasks: usize,
    seed: u64,
) -> RunResult {
    run_inner(
        bench,
        variant,
        tasks,
        seed,
        None,
        None,
        None,
        &mut NullProfiler,
    )
    .result
}

/// A checked run and its statically-elided twin, for the adaptive-elision
/// figure.
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
/// # Panics
///
/// As [`run_benchmark`].
#[must_use]
pub fn run_benchmark_elided(bench: Benchmark, tasks: usize, seed: u64) -> ElidedRun {
    let variant = SystemVariant::CheriCpuCheriAccel;
    let analysis = analyze_benchmark(bench, seed);
    let checked = run_inner(
        bench,
        variant,
        tasks,
        seed,
        None,
        None,
        None,
        &mut NullProfiler,
    )
    .result;
    let elided = run_inner(
        bench,
        variant,
        tasks,
        seed,
        None,
        None,
        Some(&analysis),
        &mut NullProfiler,
    );
    ElidedRun {
        analysis,
        checked,
        elided: elided.result,
        checks_elided: elided.checks_elided,
    }
}

/// [`run_benchmark`] with tracing and metrics collection attached. The
/// cycle results are bit-identical to the untraced run — the two entry
/// points share one code path that differs only in the tracer it passes.
///
/// # Panics
///
/// As [`run_benchmark`].
#[must_use]
pub fn run_benchmark_observed(
    bench: Benchmark,
    variant: SystemVariant,
    tasks: usize,
    seed: u64,
) -> ObservedRun {
    let tracer = SharedTracer::new();
    let inner = run_inner(
        bench,
        variant,
        tasks,
        seed,
        None,
        Some(tracer.clone()),
        None,
        &mut NullProfiler,
    );
    ObservedRun {
        result: inner.result,
        metrics: inner
            .metrics
            .expect("observed runs always produce a snapshot"),
        events: tracer.take(),
    }
}

/// [`run_benchmark`] plus the profiling take: the deterministic span
/// tree, check attribution, and the metrics snapshot.
#[derive(Clone, Debug)]
pub struct ProfiledRun {
    /// The same result the unprofiled path produces (bit-identical
    /// cycles: all entry points share one implementation).
    pub result: RunResult,
    /// The frozen metrics registry for this run.
    pub metrics: Snapshot,
    /// The span tree and profiler histograms — everything serialized
    /// from it derives from simulated quantities, so it is byte-stable.
    pub profile: ProfileSnapshot,
    /// Per-master / per-`(task, object)` check attribution (`None` on
    /// baseline variants, which have no checker to attribute).
    pub attribution: Option<CheckAttribution>,
}

/// [`run_benchmark`] with the span profiler and check attribution
/// enabled. Cycle results stay bit-identical to the unprofiled run.
///
/// # Panics
///
/// As [`run_benchmark`].
#[must_use]
pub fn run_benchmark_profiled(
    bench: Benchmark,
    variant: SystemVariant,
    tasks: usize,
    seed: u64,
) -> ProfiledRun {
    let tracer = SharedTracer::new();
    let mut prof = SpanProfiler::new();
    let inner = run_inner(
        bench,
        variant,
        tasks,
        seed,
        None,
        Some(tracer.clone()),
        None,
        &mut prof,
    );
    ProfiledRun {
        result: inner.result,
        metrics: inner
            .metrics
            .expect("observed runs always produce a snapshot"),
        profile: prof.snapshot(),
        attribution: inner.attribution,
    }
}

/// A run under the cache-backed checker plus the checker's own cache
/// statistics — the signal source for the adaptive controller.
#[derive(Clone, Debug)]
pub struct CachedRun {
    /// The measured run (variant `ccpu+caccel` with the protection
    /// overridden to the cached checker).
    pub result: RunResult,
    /// Cache statistics accumulated over the whole run, captured before
    /// task teardown resets the checker.
    pub cache: CacheStats,
    /// Runtime checks the installed verdict map skipped (zero unless the
    /// run was seeded with a static proof via
    /// [`run_benchmark_cached_elided`]).
    pub checks_elided: u64,
}

/// Runs `bench` under `ccpu+caccel` with the protection swapped to the
/// cache-backed checker in `config` — the adaptive controller's actuator
/// for Fine ⇄ Coarse mode epochs.
///
/// # Panics
///
/// As [`run_benchmark`].
#[must_use]
pub fn run_benchmark_cached(
    bench: Benchmark,
    tasks: usize,
    seed: u64,
    config: CachedCheckerConfig,
) -> CachedRun {
    let inner = run_inner(
        bench,
        SystemVariant::CheriCpuCheriAccel,
        tasks,
        seed,
        Some(ProtectionChoice::CachedCapChecker(config)),
        None,
        None,
        &mut NullProfiler,
    );
    CachedRun {
        result: inner.result,
        cache: inner
            .cache
            .expect("the cached protection was just installed"),
        checks_elided: inner.checks_elided,
    }
}

/// [`run_benchmark_cached`] with a static proof installed: the analysis'
/// verdict map is retained on the system's epoch-scoped segment ledger
/// and installed before the kernels run, so proved-safe checks are
/// elided — the adaptive bench loop's re-install actuator for epochs
/// after the segment's proof was computed.
///
/// # Panics
///
/// As [`run_benchmark`].
#[must_use]
pub fn run_benchmark_cached_elided(
    bench: Benchmark,
    tasks: usize,
    seed: u64,
    config: CachedCheckerConfig,
    analysis: &BenchAnalysis,
) -> CachedRun {
    let inner = run_inner(
        bench,
        SystemVariant::CheriCpuCheriAccel,
        tasks,
        seed,
        Some(ProtectionChoice::CachedCapChecker(config)),
        None,
        Some(analysis),
        &mut NullProfiler,
    );
    CachedRun {
        result: inner.result,
        cache: inner
            .cache
            .expect("the cached protection was just installed"),
        checks_elided: inner.checks_elided,
    }
}

/// Everything one inner run can produce; the public entry points each
/// surface the slice they promise.
struct InnerRun {
    result: RunResult,
    metrics: Option<Snapshot>,
    checks_elided: u64,
    attribution: Option<CheckAttribution>,
    cache: Option<CacheStats>,
}

#[allow(clippy::too_many_arguments)]
fn run_inner(
    bench: Benchmark,
    variant: SystemVariant,
    tasks: usize,
    seed: u64,
    protection: Option<ProtectionChoice>,
    observe: Option<SharedTracer>,
    elide: Option<&BenchAnalysis>,
    prof: &mut dyn Profiler,
) -> InnerRun {
    let tasks = if variant.uses_accelerator() {
        tasks.max(1)
    } else {
        1
    };
    let mut config = variant.config();
    if let Some(p) = protection {
        config.protection = p;
    }
    let mut sys = HeteroSystem::new(config);
    if let Some(t) = &observe {
        sys.set_tracer(t.clone());
    }
    sys.add_fus(bench.name(), tasks);
    if prof.enabled() {
        sys.enable_check_attribution();
    }

    // Elision only applies where a checker exists to elide from.
    let elide = elide.filter(|_| variant == SystemVariant::CheriCpuCheriAccel);

    let mut traces: Vec<Trace> = Vec::with_capacity(tasks);
    let mut setups: Vec<Cycles> = Vec::with_capacity(tasks);
    let mut ids = Vec::with_capacity(tasks);
    let mut verdicts = StaticVerdictMap::new();
    for t in 0..tasks {
        let mut req = if variant.uses_accelerator() {
            TaskRequest::accel(format!("{bench}#{t}"), bench.name())
        } else {
            TaskRequest::cpu(format!("{bench}#{t}"))
        }
        .rw_buffers(bench.buffers().iter().map(|b| b.size));
        if elide.is_some() {
            // Least-privilege device grants: the host keeps RW staging
            // access, the checker sees only the declared directions.
            req = req.device_ports(declared_perms(bench));
        }
        let id = sys
            .allocate_task(&req)
            .expect("workload fits the prototype system");
        if let Some(analysis) = elide {
            // Accumulate this task's proved pairs and (re)install the
            // combined map before its kernel runs.
            for (task, object, verdict) in analysis.verdict_map(id).iter() {
                verdicts.set(task, object, verdict);
            }
            // Retained, not merely installed: a mode switch mid-run drops
            // the checker's copy, and the epoch-scoped ledger is what the
            // adaptive controller re-installs from.
            sys.retain_segment_verdicts(verdicts.clone());
        }
        for (obj, image) in bench.init(seed.wrapping_add(t as u64)).iter().enumerate() {
            sys.write_buffer(id, obj, 0, image)
                .expect("init data fits its buffer");
        }
        let outcome = if variant.uses_accelerator() {
            sys.run_accel_task(id, |eng| bench.kernel(eng))
        } else {
            sys.run_cpu_task(id, |eng| bench.kernel(eng))
        }
        .expect("kernel executes");
        assert!(
            outcome.completed(),
            "benign {bench} denied under {variant}: {:?}",
            outcome.denial
        );
        setups.push(sys.setup_cycles(id).expect("task is live"));
        traces.push(
            sys.take_trace(id)
                .expect("task is live")
                .expect("kernel ran"),
        );
        ids.push(id);
    }

    // One timing code path for both entry points: the only difference is
    // whether the tracer is a recording handle or the null sink.
    let mut shared = observe.clone();
    let mut null = NullTracer;
    let tracer: &mut dyn Tracer = match shared.as_mut() {
        Some(t) => t,
        None => &mut null,
    };

    let mut registry = observe.as_ref().map(|_| Registry::new());
    let profile = bench.profile();
    let checks_elided = sys.checks_elided();
    let result = if variant.uses_accelerator() {
        let bus = if variant == SystemVariant::CheriCpuCheriAccel {
            // When the analyzer proved every port safe, the checker's
            // pipeline stage drops off the request path — that cycle is
            // the figure-level payoff of static elision.
            if elide.is_some_and(BenchAnalysis::all_safe) {
                BusConfig::default().with_checker(0)
            } else {
                BusConfig::default().with_checker(CHECKER_PIPELINE_LATENCY)
            }
        } else {
            BusConfig::default()
        };
        let accel_tasks: Vec<AccelTask<'_>> = traces
            .iter()
            .zip(&setups)
            .map(|(trace, start)| AccelTask {
                trace,
                cfg: AccelTimingConfig {
                    lanes: profile.lanes,
                    compute_per_cycle: profile.compute_per_cycle,
                    outstanding: profile.outstanding,
                },
                start: *start,
            })
            .collect();
        let report = simulate_accel_system_prof(&accel_tasks, &bus, tracer, prof);
        if let Some(reg) = registry.as_mut() {
            reg.counter_add("bus.beats", report.bus_beats);
            for cycles in &report.per_task {
                reg.observe("task.cycles", *cycles);
            }
            // Accelerator runs bypass the CPU's L1, so the hit rate is the
            // reference costing of the first task's trace on the default
            // CPU model (side-effect-free: a NullTracer, no new events).
            let l1 = simulate_cpu_traced(&traces[0], &CpuTiming::default(), &mut NullTracer);
            add_l1_metrics(reg, l1.hits, l1.misses);
        }
        RunResult {
            bench,
            variant,
            tasks,
            cycles: report.makespan,
            setup_cycles: setups[0],
            bus_utilization: report.bus_utilization,
        }
    } else {
        let timing = CpuTiming {
            cycles_per_unit: profile.cpu_cycles_per_unit,
            ..CpuTiming::default()
        };
        let timing = if variant.cheri_cpu() {
            timing.with_cheri()
        } else {
            timing
        };
        let report = simulate_cpu_prof(&traces[0], &timing, tracer, prof);
        if let Some(reg) = registry.as_mut() {
            add_l1_metrics(reg, report.hits, report.misses);
        }
        RunResult {
            bench,
            variant,
            tasks: 1,
            cycles: report.cycles,
            setup_cycles: setups[0],
            bus_utilization: 0.0,
        }
    };

    // Figure 6 ②: return every task through the driver's deallocation
    // path (evictions, register clears, scrub). Cycles were already
    // costed from the traces, so this cannot perturb the results.
    let attribution = sys.check_attribution().cloned();
    let cache = sys.checker().and_then(CapChecker::cache_stats);
    for id in ids {
        sys.deallocate_task(id).expect("task is live");
    }

    let snapshot = registry.map(|mut reg| {
        reg.counter_add("cycles", result.cycles);
        reg.counter_add("setup_cycles", result.setup_cycles);
        reg.gauge_set("bus_utilization", result.bus_utilization);
        if let Some(t) = &observe {
            reg.counter_add("trace.recorded", t.recorded());
            reg.counter_add("trace.dropped_events", t.dropped());
        }
        sys.export_metrics(&mut reg);
        reg.absorb(&machsuite::stats::of_trace(bench, &traces[0]), "workload.");
        reg.snapshot()
    });
    InnerRun {
        result,
        metrics: snapshot,
        checks_elided,
        attribution,
        cache,
    }
}

fn add_l1_metrics(reg: &mut Registry, hits: u64, misses: u64) {
    reg.counter_add("l1.hits", hits);
    reg.counter_add("l1.misses", misses);
    let total = hits + misses;
    reg.gauge_set(
        "l1.hit_rate",
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        },
    );
}

/// Convenience: cycles for `bench` under `variant` with one task.
#[must_use]
pub fn cycles(bench: Benchmark, variant: SystemVariant) -> Cycles {
    run_benchmark(bench, variant, 1, 0xC0DE).cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_run_aes() {
        for v in SystemVariant::ALL {
            let r = run_benchmark(Benchmark::Aes, v, 1, 1);
            assert!(r.cycles > 0, "{v}");
        }
    }

    #[test]
    fn checker_setup_cost_appears_only_on_caccel() {
        let plain = run_benchmark(Benchmark::MdKnn, SystemVariant::CheriCpuAccel, 1, 1);
        let checked = run_benchmark(Benchmark::MdKnn, SystemVariant::CheriCpuCheriAccel, 1, 1);
        assert!(checked.setup_cycles > plain.setup_cycles);
        assert!(checked.cycles > plain.cycles);
    }

    #[test]
    fn elided_run_skips_checks_and_saves_cycles() {
        let run = run_benchmark_elided(Benchmark::GemmNcubed, 1, 1);
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
        let a = run_benchmark_elided(Benchmark::SpmvCrs, 2, 7);
        let b = run_benchmark_elided(Benchmark::SpmvCrs, 2, 7);
        assert_eq!(a.elided.cycles, b.elided.cycles);
        assert_eq!(a.checks_elided, b.checks_elided);
    }

    #[test]
    fn cached_run_reports_cache_traffic() {
        let run = run_benchmark_cached(Benchmark::Aes, 1, 1, CachedCheckerConfig::default());
        assert!(run.result.cycles > 0);
        assert!(
            run.cache.hits + run.cache.misses > 0,
            "the cached checker saw no requests"
        );
        let again = run_benchmark_cached(Benchmark::Aes, 1, 1, CachedCheckerConfig::default());
        assert_eq!(run.cache, again.cache, "cache stats are deterministic");
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_benchmark(
            Benchmark::SortRadix,
            SystemVariant::CheriCpuCheriAccel,
            2,
            7,
        );
        let b = run_benchmark(
            Benchmark::SortRadix,
            SystemVariant::CheriCpuCheriAccel,
            2,
            7,
        );
        assert_eq!(a.cycles, b.cycles);
    }
}
