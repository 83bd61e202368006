//! Kernel cells: one `runner::run_benchmark` call, and the same call
//! sequence repeated through the public API of `capchecker::HeteroSystem`
//! and `hetsim::timing` with a span around each call into a layer.

use crate::null_engine::NullEngine;
use capchecker::{HeteroSystem, SystemVariant, TaskRequest};
use capcheri_bench::runner::{self, RunResult};
use hetsim::timing::CpuTiming;
use hetsim::timing::{
    simulate_accel_system, simulate_cpu, AccelTask, AccelTimingConfig, BusConfig,
};
use hetsim::{Cycles, DirectEngine, TaggedMemory, Trace};
use machsuite::Benchmark;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One `run_benchmark` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    pub bench: Benchmark,
    pub variant: SystemVariant,
    pub tasks: usize,
    /// The `seed` argument of `run_benchmark`; task `t` is initialised
    /// from `seed + t`.
    pub seed: u64,
}

impl Cell {
    /// Tasks the runner actually starts: CPU variants run one.
    fn live_tasks(self) -> usize {
        if self.variant.uses_accelerator() {
            self.tasks.max(1)
        } else {
            1
        }
    }

    fn task_seed(self, task: usize) -> u64 {
        self.seed.wrapping_add(task as u64)
    }
}

/// Host nanoseconds spent in each layer of one cell.
///
/// `run_task` is split further by the two reference runs made outside
/// the cell: `null` (the kernel alone) and `direct` (kernel plus trace
/// recording), so `kernel = null`, `trace_record = direct - null` and
/// `vet = run_task - direct`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Layers {
    pub cell: f64,
    pub init: f64,
    pub setup: f64,
    pub run_task: f64,
    pub accel_timing: f64,
    pub cpu_timing: f64,
    pub teardown: f64,
    pub null: f64,
    pub direct: f64,
}

impl Layers {
    pub fn add(&mut self, other: &Layers) {
        self.cell += other.cell;
        self.init += other.init;
        self.setup += other.setup;
        self.run_task += other.run_task;
        self.accel_timing += other.accel_timing;
        self.cpu_timing += other.cpu_timing;
        self.teardown += other.teardown;
        self.null += other.null;
        self.direct += other.direct;
    }

    pub fn kernel(&self) -> f64 {
        self.null
    }

    pub fn trace_record(&self) -> f64 {
        self.direct - self.null
    }

    pub fn vet(&self) -> f64 {
        self.run_task - self.direct
    }

    /// Sum of the layer self times; `run_task` stands for its three parts.
    pub fn attributed(&self) -> f64 {
        self.init + self.setup + self.run_task + self.accel_timing + self.cpu_timing + self.teardown
    }

    pub fn unattributed(&self) -> f64 {
        self.cell - self.attributed()
    }
}

/// What the traced sequence of one cell produced.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    pub cycles: Cycles,
    pub bus_beats: u64,
    pub trace_ops: u64,
    pub mem_ops: u64,
    pub layers: Layers,
    /// Every task's buffers, read back before teardown.
    pub outputs: Vec<Vec<Vec<u8>>>,
    /// Every task's buffers after the null-engine run (empty unless the
    /// reference runs were made).
    pub null_outputs: Vec<Vec<Vec<u8>>>,
}

/// Runs the cell through `run_benchmark`. A panic (the runner panics
/// when a benign kernel is denied) becomes an error, not an abort.
pub fn run_untraced(cell: Cell) -> Result<RunResult, String> {
    guarded(|| runner::run_benchmark(cell.bench, cell.variant, cell.tasks, cell.seed))
}

/// Runs `f`, turning a panic into an error carrying its message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic".to_owned())
    })
}

fn span<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_nanos() as f64;
    out
}

/// The call sequence of `run_benchmark` with a span around each layer.
/// With `reference_runs`, each task's kernel is also run on the null
/// engine and on a `DirectEngine`, outside the cell span.
pub fn run_traced(cell: Cell, reference_runs: bool) -> Result<Traced, String> {
    let err = |e: capchecker::DriverError| format!("{}: {e}", describe(cell));
    let bench = cell.bench;
    let variant = cell.variant;
    let tasks = cell.live_tasks();
    let mut l = Layers::default();
    let mut readback = 0.0;
    let cell_start = Instant::now();

    let mut sys = span(&mut l.setup, || {
        let mut sys = HeteroSystem::new(variant.config());
        sys.add_fus(bench.name(), tasks);
        sys
    });
    let mut traces: Vec<Trace> = Vec::with_capacity(tasks);
    let mut setups = Vec::with_capacity(tasks);
    let mut ids = Vec::with_capacity(tasks);
    for t in 0..tasks {
        let images = span(&mut l.init, || bench.init(cell.task_seed(t)));
        let id = span(&mut l.setup, || {
            let req = if variant.uses_accelerator() {
                TaskRequest::accel(format!("{bench}#{t}"), bench.name())
            } else {
                TaskRequest::cpu(format!("{bench}#{t}"))
            }
            .rw_buffers(bench.buffers().iter().map(|b| b.size));
            let id = sys.allocate_task(&req)?;
            for (obj, image) in images.iter().enumerate() {
                sys.write_buffer(id, obj, 0, image)?;
            }
            Ok::<_, capchecker::DriverError>(id)
        })
        .map_err(err)?;
        let (outcome, trace) = span(&mut l.run_task, || {
            let outcome = if variant.uses_accelerator() {
                sys.run_accel_task(id, |eng| bench.kernel(eng))
            } else {
                sys.run_cpu_task(id, |eng| bench.kernel(eng))
            }?;
            Ok::<_, capchecker::DriverError>((outcome, sys.take_trace(id)?))
        })
        .map_err(err)?;
        if let Some(denial) = outcome.denial {
            return Err(format!(
                "{}: benign kernel denied: {denial:?}",
                describe(cell)
            ));
        }
        traces.push(trace.ok_or_else(|| format!("{}: no trace recorded", describe(cell)))?);
        setups.push(sys.setup_cycles(id).map_err(err)?);
        ids.push(id);
    }

    let profile = bench.profile();
    let (cycles, bus_beats) = if variant.uses_accelerator() {
        span(&mut l.accel_timing, || {
            let bus = if variant == SystemVariant::CheriCpuCheriAccel {
                BusConfig::default().with_checker(runner::CHECKER_PIPELINE_LATENCY)
            } else {
                BusConfig::default()
            };
            let accel: Vec<AccelTask<'_>> = traces
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
            let report = simulate_accel_system(&accel, &bus);
            (report.makespan, report.bus_beats)
        })
    } else {
        span(&mut l.cpu_timing, || {
            let timing = CpuTiming {
                cycles_per_unit: profile.cpu_cycles_per_unit,
                ..CpuTiming::default()
            };
            let timing = if variant.cheri_cpu() {
                timing.with_cheri()
            } else {
                timing
            };
            (simulate_cpu(&traces[0], &timing).cycles, 0)
        })
    };

    // Reading the outputs back is the benchmark's check, not the cell's
    // work: it is kept out of the cell time.
    let outputs = span(&mut readback, || {
        ids.iter()
            .map(|&id| {
                bench
                    .buffers()
                    .iter()
                    .enumerate()
                    .map(|(obj, b)| {
                        let mut out = vec![0u8; b.size as usize];
                        sys.read_buffer(id, obj, 0, &mut out).map(|()| out)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(err)?;

    span(&mut l.teardown, || {
        ids.iter()
            .try_for_each(|&id| sys.deallocate_task(id).map(drop))
    })
    .map_err(err)?;
    l.cell = cell_start.elapsed().as_nanos() as f64 - readback;

    let mut null_outputs = Vec::new();
    if reference_runs {
        for t in 0..tasks {
            let (ns, out) = null_run(bench, cell.task_seed(t))?;
            l.null += ns;
            null_outputs.push(out);
            l.direct += direct_run(bench, cell.task_seed(t))?;
        }
    }

    Ok(Traced {
        cycles,
        bus_beats,
        trace_ops: traces.iter().map(|t| t.len() as u64).sum(),
        mem_ops: traces.iter().map(Trace::mem_ops).sum(),
        layers: l,
        outputs,
        null_outputs,
    })
}

/// The kernel alone on the null engine: host ns and the output buffers.
fn null_run(bench: Benchmark, seed: u64) -> Result<(f64, Vec<Vec<u8>>), String> {
    let mut eng = NullEngine::new(bench.init(seed));
    let mut ns = 0.0;
    span(&mut ns, || bench.kernel(&mut eng))
        .map_err(|e| format!("{bench} on the null engine: {e}"))?;
    Ok((ns, eng.into_buffers()))
}

/// The kernel on a `DirectEngine` (recording its trace, no protection).
fn direct_run(bench: Benchmark, seed: u64) -> Result<f64, String> {
    let layout = bench.place(0x1000);
    let end = layout.buffers.last().map_or(0, |b| b.end());
    let mut mem = TaggedMemory::new(end.next_multiple_of(4096) + 4096);
    for (region, image) in layout.buffers.iter().zip(bench.init(seed)) {
        mem.write_bytes(region.base, &image)
            .map_err(|e| format!("{bench}: {e}"))?;
    }
    let mut eng = DirectEngine::new(&mut mem, layout);
    let mut ns = 0.0;
    span(&mut ns, || bench.kernel(&mut eng))
        .map_err(|e| format!("{bench} on DirectEngine: {e}"))?;
    std::hint::black_box(eng.into_trace());
    Ok(ns)
}

/// The correctness gate of one cell: every task's buffers (and, when the
/// reference runs were made, the null engine's) equal
/// `Benchmark::reference`, and the traced cycles equal the cycles
/// `run_benchmark` reported.
pub fn check(cell: Cell, traced: &Traced, untraced_cycles: Cycles) -> Result<(), String> {
    if traced.cycles != untraced_cycles {
        return Err(format!(
            "{}: traced sequence costs {} cycles, run_benchmark {untraced_cycles}",
            describe(cell),
            traced.cycles
        ));
    }
    if traced.outputs.len() != cell.live_tasks() {
        return Err(format!(
            "{}: {} task outputs read back",
            describe(cell),
            traced.outputs.len()
        ));
    }
    for t in 0..cell.live_tasks() {
        let mut want = cell.bench.init(cell.task_seed(t));
        cell.bench.reference(&mut want);
        let runs = std::iter::once(("system", &traced.outputs[t]))
            .chain(traced.null_outputs.get(t).map(|o| ("null engine", o)));
        for (engine, got) in runs {
            if *got != want {
                return Err(format!(
                    "{}: task {t} output on the {engine} differs from the reference",
                    describe(cell)
                ));
            }
        }
    }
    Ok(())
}

pub fn describe(cell: Cell) -> String {
    format!(
        "{} under {} x{} seed {}",
        cell.bench, cell.variant, cell.tasks, cell.seed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aes_cell() -> Cell {
        Cell {
            bench: Benchmark::Aes,
            variant: SystemVariant::CheriCpuCheriAccel,
            tasks: 2,
            seed: 3,
        }
    }

    #[test]
    fn traced_sequence_reproduces_run_benchmark() {
        for variant in SystemVariant::ALL {
            for bench in [Benchmark::GemmBlocked, Benchmark::SpmvCrs] {
                let cell = Cell {
                    bench,
                    variant,
                    tasks: 2,
                    seed: 11,
                };
                let untraced = run_untraced(cell).unwrap();
                let traced = run_traced(cell, true).unwrap();
                check(cell, &traced, untraced.cycles).unwrap();
            }
        }
    }

    #[test]
    fn planted_wrong_output_is_a_failure() {
        let cell = aes_cell();
        let cycles = run_untraced(cell).unwrap().cycles;
        let mut traced = run_traced(cell, true).unwrap();
        check(cell, &traced, cycles).unwrap();
        traced.outputs[1][0][0] ^= 1;
        assert!(check(cell, &traced, cycles).is_err());

        let mut traced = run_traced(cell, true).unwrap();
        traced.null_outputs[1][0][7] ^= 0x80;
        assert!(check(cell, &traced, cycles).is_err());
    }

    #[test]
    fn planted_wrong_cycle_count_is_a_failure() {
        let cell = aes_cell();
        let cycles = run_untraced(cell).unwrap().cycles;
        let traced = run_traced(cell, false).unwrap();
        assert!(check(cell, &traced, cycles + 1).is_err());
    }

    #[test]
    fn a_panicking_cell_is_an_error_not_an_abort() {
        let out = guarded(|| -> RunResult { panic!("benign aes denied") });
        assert_eq!(out.unwrap_err(), "benign aes denied");
    }

    #[test]
    fn layers_partition_the_cell() {
        let traced = run_traced(aes_cell(), true).unwrap();
        let l = traced.layers;
        assert!(l.cell > 0.0 && l.run_task > 0.0 && l.null > 0.0);
        assert!(
            (l.attributed() + l.unattributed() - l.cell).abs() < 1e-6,
            "{l:?}"
        );
        assert!((l.kernel() + l.trace_record() + l.vet() - l.run_task).abs() < 1e-3);
    }
}
