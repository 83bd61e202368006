//! `runner::run` costs exactly what its tasks' recorded traces cost.
//!
//! For every kernel, on each accelerator variant, at one and at eight
//! tasks, plain and profiled, the run's `RunResult` and profile snapshot
//! must equal what `simulate_accel_system_prof` reports for the traces
//! the same tasks record through `run_accel_task` + `take_trace`. On the
//! two CPU variants the one task's trace, recorded through
//! `run_cpu_task` + `take_trace`, is costed by `simulate_cpu_prof`. The
//! runner is free to cost a cell any way it likes (from a recorded trace,
//! by folding the kernel's ops as they happen, or by costing each op as
//! it is issued); this pins that the way it picks never shows in a
//! result.

use capchecker::{HeteroSystem, SystemVariant, TaskRequest};
use capcheri_bench::runner::{run, RunSpec, CHECKER_PIPELINE_LATENCY};
use hetsim::timing::{
    simulate_accel_system_prof, simulate_cpu_prof, AccelTask, AccelTimingConfig, BusConfig,
    CpuTiming,
};
use hetsim::{Cycles, Trace};
use machsuite::Benchmark;
use obs::{NullProfiler, NullTracer, ProfileSnapshot, SpanProfiler};

const SEED: u64 = 0xF01D;

/// What a cell reports: makespan, first task's setup cycles and the bus
/// utilization's bits.
type Costed = (Cycles, Cycles, u64);

/// Records each task's trace through the public driver API, in the order
/// and with the inputs `runner::run` uses.
fn record(bench: Benchmark, variant: SystemVariant, tasks: usize) -> (Vec<Trace>, Vec<Cycles>) {
    let mut sys = HeteroSystem::new(variant.config());
    sys.add_fus(bench.name(), tasks);
    let mut traces = Vec::with_capacity(tasks);
    let mut setups = Vec::with_capacity(tasks);
    for t in 0..tasks {
        let name = format!("{bench}#{t}");
        let req = if variant.uses_accelerator() {
            TaskRequest::accel(name, bench.name())
        } else {
            TaskRequest::cpu(name)
        }
        .rw_buffers(bench.buffers().iter().map(|b| b.size));
        let id = sys.allocate_task(&req).expect("the cell fits");
        for (obj, image) in bench.init(SEED + t as u64).iter().enumerate() {
            sys.write_buffer(id, obj, 0, image).expect("inputs fit");
        }
        let outcome = if variant.uses_accelerator() {
            sys.run_accel_task(id, |eng| bench.kernel(eng))
        } else {
            sys.run_cpu_task(id, |eng| bench.kernel(eng))
        }
        .expect("the kernel runs");
        assert!(outcome.completed(), "{bench} on {variant} was denied");
        setups.push(sys.setup_cycles(id).expect("live task"));
        traces.push(sys.take_trace(id).expect("live task").expect("traced"));
    }
    (traces, setups)
}

/// Costs recorded traces the way the figures always have.
fn cost(
    bench: Benchmark,
    variant: SystemVariant,
    traces: &[Trace],
    setups: &[Cycles],
    profile: bool,
) -> (Costed, Option<ProfileSnapshot>) {
    let p = bench.profile();
    let mut spans = SpanProfiler::new();
    if !variant.uses_accelerator() {
        let timing = CpuTiming {
            cycles_per_unit: p.cpu_cycles_per_unit,
            ..CpuTiming::default()
        };
        let timing = if variant.cheri_cpu() {
            timing.with_cheri()
        } else {
            timing
        };
        let report = if profile {
            simulate_cpu_prof(&traces[0], &timing, &mut NullTracer, &mut spans)
        } else {
            simulate_cpu_prof(&traces[0], &timing, &mut NullTracer, &mut NullProfiler)
        };
        let costed = (report.cycles, setups[0], 0.0f64.to_bits());
        return (costed, profile.then(|| spans.snapshot()));
    }
    let tasks: Vec<AccelTask<'_>> = traces
        .iter()
        .zip(setups)
        .map(|(trace, &start)| AccelTask {
            trace,
            cfg: AccelTimingConfig {
                lanes: p.lanes,
                compute_per_cycle: p.compute_per_cycle,
                outstanding: p.outstanding,
            },
            start,
        })
        .collect();
    let bus = if variant == SystemVariant::CheriCpuCheriAccel {
        BusConfig::default().with_checker(CHECKER_PIPELINE_LATENCY)
    } else {
        BusConfig::default()
    };
    let report = if profile {
        simulate_accel_system_prof(&tasks, &bus, &mut NullTracer, &mut spans)
    } else {
        simulate_accel_system_prof(&tasks, &bus, &mut NullTracer, &mut NullProfiler)
    };
    let costed = (report.makespan, setups[0], report.bus_utilization.to_bits());
    (costed, profile.then(|| spans.snapshot()))
}

fn check_variant(variant: SystemVariant) {
    // A CPU variant runs exactly one task.
    let task_counts: &[usize] = if variant.uses_accelerator() {
        &[1, 8]
    } else {
        &[1]
    };
    for bench in Benchmark::ALL {
        for &tasks in task_counts {
            let (traces, setups) = record(bench, variant, tasks);
            for profile in [false, true] {
                let spec = RunSpec {
                    profile,
                    ..RunSpec::new(bench, variant, tasks, SEED)
                };
                let got = run(&spec).expect("the cell runs");
                let r = &got.result;
                assert_eq!((r.bench, r.variant, r.tasks), (bench, variant, tasks));
                let (want, want_profile) = cost(bench, variant, &traces, &setups, profile);
                let label = format!("{bench} on {variant}, {tasks} task(s), profile {profile}");
                assert_eq!(
                    (r.cycles, r.setup_cycles, r.bus_utilization.to_bits()),
                    want,
                    "{label}: result differs from the recorded traces' cost"
                );
                assert!(
                    got.profile == want_profile,
                    "{label}: profile differs from the recorded traces' profile"
                );
            }
        }
    }
}

#[test]
fn cpu_runs_cost_their_recorded_traces() {
    check_variant(SystemVariant::Cpu);
}

#[test]
fn cheri_cpu_runs_cost_their_recorded_traces() {
    check_variant(SystemVariant::CheriCpu);
}

#[test]
fn cpu_accel_runs_cost_their_recorded_traces() {
    check_variant(SystemVariant::CpuAccel);
}

#[test]
fn cheri_cpu_accel_runs_cost_their_recorded_traces() {
    check_variant(SystemVariant::CheriCpuAccel);
}

#[test]
fn cheri_cpu_cheri_accel_runs_cost_their_recorded_traces() {
    check_variant(SystemVariant::CheriCpuCheriAccel);
}
