//! event-core — event-wheel vs stepping timing cores.
//!
//! Benches the three implementations of the accelerator timing model over
//! three adversarial workload shapes:
//!
//! * **long-idle** — sparse bus events separated by ~50 k-cycle compute
//!   stretches. An event-driven core jumps straight between grants; a
//!   cycle-stepped core must walk (or bulk-skip) the idle gap.
//! * **dense** — a saturated bus: thousands of back-to-back DMA beats per
//!   lane with almost no compute. Here per-event constant cost is
//!   everything, which is exactly what the wheel's flat cursor arena (vs
//!   the heap's sift-down per pop) buys.
//! * **contended** — the dense traces spread over 32 lanes per task, so
//!   256 lanes queue for the saturated port, as in Figure 11 at eight
//!   tasks. Every grant is an arbitration decision; the wheel's two
//!   sorted queues make each one O(1), where the heap pays O(log lanes).
//!
//! Cores: `wheel` is the production event wheel
//! ([`hetsim::timing::simulate_accel_system`]), `heap` the retained naive
//! heap scheduler (`simulate_accel_system_naive` — CI's cross-check
//! reference, which pops and re-pushes a lane for every memory op, with
//! no fast path), `stepped` the cycle-accurate validator with its
//! bulk-advance fast path ([`hetsim::validate`]). Each shape's first
//! task is also costed alone, by the wheel (`wheel_one`) and by `stream`,
//! the one-task coster ([`hetsim::timing::StreamCoster`]) that grants
//! each op as it arrives, with no arena and no queue.
//!
//! ```text
//! cargo bench -p capcheri-bench --bench event_core            # print
//! cargo bench ... --bench event_core -- --save FILE           # + JSON
//! ```
//!
//! The JSON (`capcheri.event_core_bench.v1`) rides alongside
//! `perf_smoke`'s baseline so trend tooling (`bench-trend`) can diff any
//! two snapshots; it is informational, not gated — the gated figure is
//! `bench_cells_per_sec` in `BENCH_simulator.json`.

use criterion::{black_box, Criterion};
use hetsim::timing::{
    simulate_accel_system, simulate_accel_system_naive, AccelReport, AccelTask, AccelTimingConfig,
    BusConfig, StreamCoster,
};
use hetsim::validate::simulate_accel_system_cycle_accurate;
use hetsim::{Trace, TraceOp};
use std::process::ExitCode;

/// Long-idle: each mem op hides behind a 100 k-unit compute block at one
/// unit/cycle/lane — the bus is idle ~99.99% of the makespan.
fn long_idle_traces() -> Vec<Trace> {
    (0..4)
        .map(|t| {
            let mut trace = Trace::new();
            for i in 0..64u64 {
                trace.push(TraceOp::Compute(100_000));
                trace.push(TraceOp::Mem {
                    addr: 0x1000 + 8 * (i + 64 * t),
                    bytes: 8,
                    write: i % 2 == 0,
                    object: 0,
                });
            }
            trace
        })
        .collect()
}

/// Dense: 2 000 64-byte DMA ops per task and token compute — every cycle
/// of the makespan has bus work queued behind it.
fn dense_traces() -> Vec<Trace> {
    (0..8)
        .map(|t| {
            let mut trace = Trace::new();
            for i in 0..2_000u64 {
                trace.push(TraceOp::Mem {
                    addr: 0x1000 + 64 * (i + 2_000 * t),
                    bytes: 64,
                    write: i % 3 == 0,
                    object: (i % 3) as u16,
                });
                if i % 16 == 0 {
                    trace.push(TraceOp::Compute(8));
                }
            }
            trace
        })
        .collect()
}

fn tasks_over<'a>(traces: &'a [Trace], lanes: u32) -> Vec<AccelTask<'a>> {
    traces
        .iter()
        .enumerate()
        .map(|(i, trace)| AccelTask {
            trace,
            cfg: AccelTimingConfig {
                lanes,
                compute_per_cycle: 1.0,
                outstanding: 4,
            },
            start: 100 * i as u64,
        })
        .collect()
}

/// Costs `task` alone on `bus` as its ops arrive.
fn stream(task: &AccelTask<'_>, bus: &BusConfig) -> AccelReport {
    let mut coster = StreamCoster::new(*bus, task.cfg, task.start);
    task.trace.replay(&mut coster);
    coster.finish()
}

struct Shape {
    name: &'static str,
    traces: Vec<Trace>,
    lanes: u32,
}

fn measure() -> Vec<(String, f64)> {
    let mut c = Criterion::default().configure_from_args();
    let shapes = [
        Shape {
            name: "long_idle",
            traces: long_idle_traces(),
            lanes: 2,
        },
        Shape {
            name: "dense",
            traces: dense_traces(),
            lanes: 4,
        },
        Shape {
            name: "contended",
            traces: dense_traces(),
            lanes: 32,
        },
    ];

    let bus = BusConfig::default().with_checker(1);
    for shape in &shapes {
        let tasks = tasks_over(&shape.traces, shape.lanes);
        // The three cores must agree before their speeds mean anything.
        let wheel = simulate_accel_system(&tasks, &bus);
        assert_eq!(
            wheel,
            simulate_accel_system_naive(&tasks, &bus),
            "wheel and heap cores disagree on {}",
            shape.name
        );
        let one = &tasks[..1];
        assert_eq!(
            stream(&one[0], &bus),
            simulate_accel_system(one, &bus),
            "stream and wheel cores disagree on {}'s first task",
            shape.name
        );
        let mut g = c.benchmark_group(shape.name);
        g.bench_function("wheel", |b| {
            b.iter(|| black_box(simulate_accel_system(&tasks, &bus)))
        });
        g.bench_function("heap", |b| {
            b.iter(|| black_box(simulate_accel_system_naive(&tasks, &bus)))
        });
        g.bench_function("stepped", |b| {
            b.iter(|| black_box(simulate_accel_system_cycle_accurate(&tasks, &bus)))
        });
        g.bench_function("wheel_one", |b| {
            b.iter(|| black_box(simulate_accel_system(one, &bus)))
        });
        g.bench_function("stream", |b| b.iter(|| black_box(stream(&one[0], &bus))));
        g.finish();
    }

    c.samples()
        .iter()
        .map(|s| {
            (
                format!("{}_ns", s.label().replace('/', "_")),
                s.nanos_per_iter,
            )
        })
        .collect()
}

fn to_json(metrics: &[(String, f64)]) -> String {
    let mut out =
        String::from("{\n  \"schema\": \"capcheri.event_core_bench.v1\",\n  \"metrics\": {");
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{name}\": {value:.1}"));
    }
    out.push_str("\n  }\n}\n");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let metrics = measure();
    let json = to_json(&metrics);
    print!("{json}");
    for (name, wheel_ns) in &metrics {
        let Some(base) = name.strip_suffix("_wheel_ns") else {
            continue;
        };
        for other in ["heap", "stepped"] {
            if let Some((_, v)) = metrics
                .iter()
                .find(|(n, _)| n == &format!("{base}_{other}_ns"))
            {
                println!("{base}: wheel is {:.1}x vs {other}", v / wheel_ns);
            }
        }
        let one_task = |core: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == &format!("{base}_{core}_ns"))
                .map(|(_, v)| *v)
        };
        if let (Some(wheel_one), Some(stream)) = (one_task("wheel_one"), one_task("stream")) {
            println!(
                "{base}: stream is {:.1}x vs wheel, one task",
                wheel_one / stream
            );
        }
    }
    if let Some(path) = value_after("--save") {
        // Resolve relative paths against the workspace root — cargo runs
        // benches with the package directory as cwd.
        let p = std::path::Path::new(&path);
        let p = if p.is_absolute() {
            p.to_path_buf()
        } else {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(p)
        };
        if let Err(e) = std::fs::write(&p, &json) {
            eprintln!("cannot write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
        println!("saved {}", p.display());
    }
    ExitCode::SUCCESS
}
