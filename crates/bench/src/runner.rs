//! Runs one benchmark under one of the five §6.3 system configurations
//! and costs it with the timing models.

use capchecker::{
    CacheStats, CachedCheckerConfig, CapChecker, CheckAttribution, DriverError, HeteroSystem,
    ProtectionChoice, StaticVerdictMap, SystemVariant, TaskRequest,
};
use capcheri_analyze::{declared_perms, BenchAnalysis};
use hetsim::timing::{
    simulate_accel_system_prof, simulate_cpu, simulate_cpu_prof, AccelTask, AccelTimingConfig,
    BusConfig, CpuTiming,
};
use hetsim::{Cycles, Denial, Trace};
use machsuite::Benchmark;
use obs::{
    NullProfiler, NullTracer, ProfileSnapshot, Profiler, Registry, SharedTracer, Snapshot,
    SpanProfiler, TraceBuffer, Tracer,
};
use std::fmt;

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

/// One cell of the evaluation: a benchmark under one system
/// configuration, plus what to swap in and what to record. Every entry
/// point costs its cell through [`run`], so an observed, profiled, cached
/// or elided run differs from the plain one only in what the spec asks.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec<'a> {
    /// Which benchmark to run.
    pub bench: Benchmark,
    /// Under which system configuration.
    pub variant: SystemVariant,
    /// Concurrent tasks (clamped to at least 1 on accelerator variants
    /// and to exactly 1 on CPU variants).
    pub tasks: usize,
    /// Task `t` initialises its buffers from `seed + t`.
    pub seed: u64,
    /// Swap the variant's checker for the cache-backed one (`ccpu+caccel`
    /// only).
    pub cache: Option<CachedCheckerConfig>,
    /// Elide the checks this analysis proved safe (`ccpu+caccel` only):
    /// tasks get least-privilege device grants, the verdict map is
    /// retained and installed before each kernel, and when every port is
    /// proved safe the checker's pipeline stage drops off the bus path.
    pub elide: Option<&'a BenchAnalysis>,
    /// Record every event and freeze a metrics snapshot.
    pub observe: bool,
    /// Attach the span profiler and check attribution.
    pub profile: bool,
}

impl RunSpec<'_> {
    /// The plain cell: the variant's own protection, nothing recorded.
    #[must_use]
    pub fn new(bench: Benchmark, variant: SystemVariant, tasks: usize, seed: u64) -> Self {
        RunSpec {
            bench,
            variant,
            tasks,
            seed,
            cache: None,
            elide: None,
            observe: false,
            profile: false,
        }
    }
}

/// Everything one run produced; the optional parts are `Some` exactly
/// when the spec asked for them.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The cycle results — bit-identical whatever the spec records.
    pub result: RunResult,
    /// The frozen metrics registry (observed runs).
    pub metrics: Option<Snapshot>,
    /// Every event the run recorded: driver, checker, bus and L1 domains
    /// (observed runs).
    pub events: Option<TraceBuffer>,
    /// The span tree and profiler histograms — everything serialized from
    /// it derives from simulated quantities, so it is byte-stable
    /// (profiled runs).
    pub profile: Option<ProfileSnapshot>,
    /// Per-master / per-`(task, object)` check attribution (profiled runs
    /// on a variant with a checker).
    pub attribution: Option<CheckAttribution>,
    /// Cache statistics over the whole run, captured before task teardown
    /// resets the checker (runs under the cache-backed checker).
    pub cache: Option<CacheStats>,
    /// Runtime checks the installed verdict map skipped (zero unless the
    /// spec elides).
    pub checks_elided: u64,
}

/// Why a run could not produce a result.
#[derive(Debug)]
pub enum RunError {
    /// The spec asks for a cache-backed checker or for elision on a
    /// variant that has no checker.
    NoChecker(SystemVariant),
    /// The system cannot host the workload: too many tasks for the
    /// capability table, the heap or the functional units.
    DoesNotFit(DriverError),
    /// The driver failed to load the inputs, run a kernel or hand back
    /// its trace.
    Driver(DriverError),
    /// A kernel completed without a recorded trace.
    NoTrace,
    /// The benign benchmark was denied by its own system — a
    /// protection-model bug, not a property of the workload.
    Denied(Denial),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::NoChecker(variant) => {
                write!(f, "{variant} has no checker to cache or elide")
            }
            RunError::DoesNotFit(e) => write!(f, "the workload does not fit the system: {e}"),
            RunError::Driver(e) => write!(f, "driver error: {e}"),
            RunError::NoTrace => f.write_str("a kernel completed without recording a trace"),
            RunError::Denied(denial) => write!(f, "benign kernel {denial}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Builds the system, executes the kernel(s) functionally through the
/// protected path, and costs the recorded trace(s) under the variant's
/// timing model.
///
/// # Panics
///
/// Panics where [`run`] returns an error: a workload that does not fit,
/// or a benign benchmark denied by its own system — a protection-model
/// bug, and the tests treat it as one.
#[must_use]
pub fn run_benchmark(
    bench: Benchmark,
    variant: SystemVariant,
    tasks: usize,
    seed: u64,
) -> RunResult {
    match run(&RunSpec::new(bench, variant, tasks, seed)) {
        Ok(outcome) => outcome.result,
        // lint: allow(panic-in-hot-path)
        Err(e) => panic!("{bench} under {variant}: {e}"),
    }
}

/// Runs one cell as `spec` describes.
///
/// # Errors
///
/// [`RunError::NoChecker`] when the spec caches or elides on a variant
/// without a checker; otherwise whatever kept the workload from running
/// to completion.
pub fn run(spec: &RunSpec<'_>) -> Result<RunOutcome, RunError> {
    let RunSpec {
        bench,
        variant,
        seed,
        elide,
        ..
    } = *spec;
    if (spec.cache.is_some() || elide.is_some()) && variant != SystemVariant::CheriCpuCheriAccel {
        return Err(RunError::NoChecker(variant));
    }
    let tasks = if variant.uses_accelerator() {
        spec.tasks.max(1)
    } else {
        1
    };
    let mut config = variant.config();
    if let Some(cache) = spec.cache {
        config.protection = ProtectionChoice::CachedCapChecker(cache);
    }
    let mut sys = HeteroSystem::new(config);
    let observe = spec.observe.then(SharedTracer::new);
    if let Some(t) = &observe {
        sys.set_tracer(t.clone());
    }
    sys.add_fus(bench.name(), tasks);
    if spec.profile {
        sys.enable_check_attribution();
    }

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
        let id = sys.allocate_task(&req).map_err(RunError::DoesNotFit)?;
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
                .map_err(RunError::Driver)?;
        }
        let outcome = if variant.uses_accelerator() {
            sys.run_accel_task(id, |eng| bench.kernel(eng))
        } else {
            sys.run_cpu_task(id, |eng| bench.kernel(eng))
        }
        .map_err(RunError::Driver)?;
        if let Some(denial) = outcome.denial {
            return Err(RunError::Denied(denial));
        }
        setups.push(sys.setup_cycles(id).map_err(RunError::Driver)?);
        traces.push(
            sys.take_trace(id)
                .map_err(RunError::Driver)?
                .ok_or(RunError::NoTrace)?,
        );
        ids.push(id);
    }

    // One timing code path for every spec: the only differences are
    // whether the tracer is a recording handle or the null sink, and
    // whether the profiler is a span profiler or the null one.
    let mut shared = observe.clone();
    let mut null = NullTracer;
    let tracer: &mut dyn Tracer = match shared.as_mut() {
        Some(t) => t,
        None => &mut null,
    };
    let mut spans = spec.profile.then(SpanProfiler::new);
    let mut null_prof = NullProfiler;
    let prof: &mut dyn Profiler = match spans.as_mut() {
        Some(p) => p,
        None => &mut null_prof,
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
            // CPU model (side-effect-free: no tracer, no new events).
            let l1 = simulate_cpu(&traces[0], &CpuTiming::default());
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
        sys.deallocate_task(id).map_err(RunError::Driver)?;
    }

    let metrics = registry.map(|mut reg| {
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
    Ok(RunOutcome {
        result,
        metrics,
        events: observe.map(|t| t.take()),
        profile: spans.map(|p| p.snapshot()),
        attribution,
        cache,
        checks_elided,
    })
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
    fn cached_run_reports_cache_traffic() {
        let spec = RunSpec {
            cache: Some(CachedCheckerConfig::default()),
            ..RunSpec::new(Benchmark::Aes, SystemVariant::CheriCpuCheriAccel, 1, 1)
        };
        let run = super::run(&spec).unwrap();
        assert!(run.result.cycles > 0);
        let cache = run.cache.expect("the cached protection was installed");
        assert!(
            cache.hits + cache.misses > 0,
            "the cached checker saw no requests"
        );
        let again = super::run(&spec).unwrap();
        assert_eq!(again.cache, Some(cache), "cache stats are deterministic");
    }

    #[test]
    fn plain_runs_record_nothing_they_were_not_asked_for() {
        let spec = RunSpec::new(Benchmark::Aes, SystemVariant::CheriCpuCheriAccel, 1, 1);
        let run = super::run(&spec).unwrap();
        assert!(run.metrics.is_none() && run.events.is_none());
        assert!(run.profile.is_none() && run.attribution.is_none());
        assert!(run.cache.is_none());
        assert_eq!(run.checks_elided, 0);
    }

    #[test]
    fn caching_or_eliding_without_a_checker_is_an_error() {
        let analysis = capcheri_analyze::analyze_benchmark(Benchmark::Aes, 1);
        for variant in SystemVariant::ALL
            .into_iter()
            .filter(|&v| v != SystemVariant::CheriCpuCheriAccel)
        {
            let plain = RunSpec::new(Benchmark::Aes, variant, 1, 1);
            let cached = RunSpec {
                cache: Some(CachedCheckerConfig::default()),
                ..plain
            };
            let elided = RunSpec {
                elide: Some(&analysis),
                ..plain
            };
            for spec in [cached, elided] {
                assert!(
                    matches!(super::run(&spec), Err(RunError::NoChecker(v)) if v == variant),
                    "{variant}"
                );
            }
        }
    }

    #[test]
    fn an_oversized_workload_is_an_error_not_a_panic() {
        let spec = RunSpec::new(Benchmark::Aes, SystemVariant::CheriCpuCheriAccel, 300, 1);
        let err = super::run(&spec).unwrap_err();
        assert!(matches!(err, RunError::DoesNotFit(_)), "{err:?}");
        assert!(err.to_string().contains("does not fit"), "{err}");
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
