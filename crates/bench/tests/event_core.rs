//! Event-wheel timing core pinned against the retained naive heap core.
//!
//! The production `simulate_accel_system` runs on the event-wheel arena,
//! folded in one pass in trace order; `simulate_accel_system_naive` is
//! the original heap-scheduled implementation in its plainest form
//! (every memory op pops and re-enters the heap), kept public precisely
//! so this suite and CI can diff the two. The contract is *cycle-for-cycle equality* — not
//! "close": per-task completion cycles, makespan, bus beats, and
//! utilization must be identical on every MachSuite kernel, under bus
//! faults, and for staggered multi-task mixes. Any wheel event that was
//! skipped, reordered, or double-counted shows up here as a cycle diff.
//!
//! One-task runs have a third core: `StreamCoster` grants each memory op
//! as the kernel issues it. It is pinned the same way, against both.

use hetsim::timing::{
    simulate_accel_system, simulate_accel_system_naive, AccelReport, AccelTask, AccelTimingConfig,
    BusConfig, StreamCoster,
};
use hetsim::{BusFaultConfig, MemEngine, Record, TaggedMemory, Trace, Ungated};
use machsuite::Benchmark;

/// Executes one instance of `bench` functionally, recording into `rec`.
fn run_kernel<R: Record>(bench: Benchmark, seed: u64, rec: R) -> R {
    let mut mem = TaggedMemory::new(64 << 20);
    let layout = bench.place(0x1000);
    for (obj, image) in bench.init(seed).iter().enumerate() {
        mem.write_bytes(layout.address(obj, 0), image)
            .expect("init data fits its buffer");
    }
    let mut eng = MemEngine::recording(&mut mem, layout, Ungated, rec);
    bench.kernel(&mut eng).expect("benign kernel executes");
    eng.into_recorder()
}

/// Executes one instance of `bench` functionally and returns its DMA trace.
fn kernel_trace(bench: Benchmark, seed: u64) -> Trace {
    run_kernel(bench, seed, Trace::new())
}

fn accel_cfg(bench: Benchmark) -> AccelTimingConfig {
    let p = bench.profile();
    AccelTimingConfig {
        lanes: p.lanes,
        compute_per_cycle: p.compute_per_cycle,
        outstanding: p.outstanding,
    }
}

/// Runs both cores over the same tasks and asserts full report equality.
fn assert_cores_agree(bench: Benchmark, tasks: &[AccelTask<'_>], bus: &BusConfig) -> AccelReport {
    let wheel = simulate_accel_system(tasks, bus);
    let naive = simulate_accel_system_naive(tasks, bus);
    assert_eq!(
        wheel, naive,
        "event wheel diverged from the naive heap core on {bench}"
    );
    wheel
}

#[test]
fn wheel_matches_naive_on_every_kernel() {
    let bus = BusConfig::default().with_checker(1);
    for bench in Benchmark::ALL {
        let traces: Vec<Trace> = (0..2).map(|t| kernel_trace(bench, 0xC0DE + t)).collect();
        let tasks: Vec<AccelTask<'_>> = traces
            .iter()
            .enumerate()
            .map(|(t, trace)| AccelTask {
                trace,
                cfg: accel_cfg(bench),
                start: 150 * t as u64,
            })
            .collect();
        let report = assert_cores_agree(bench, &tasks, &bus);
        assert!(report.makespan > 0, "{bench} simulated no cycles");
    }
}

/// The cross-check CI runs on every push: two kernels with contrasting
/// shapes — gemm_ncubed (dense compute, deep traces) and md_knn (the
/// Figure 8 overhead outlier, memory-bound). Named so the perf-smoke job
/// can invoke exactly this test without paying for the full suite.
#[test]
fn wheel_matches_naive_two_kernel_smoke() {
    let bus = BusConfig::default().with_checker(1);
    for bench in [Benchmark::GemmNcubed, Benchmark::MdKnn] {
        let trace = kernel_trace(bench, 0xC0DE);
        let tasks = [AccelTask {
            trace: &trace,
            cfg: accel_cfg(bench),
            start: 150,
        }];
        assert_cores_agree(bench, &tasks, &bus);
    }
}

/// Figure 11's contended shape: eight instances of one kernel on one
/// port. Tasks start in pairs, the highest-numbered first, so lanes that
/// have not started yet carry lower indices than lanes already served
/// and win ties with them. backprop and viterbi put 256 lanes on the
/// bus; fft_transpose, bfs_queue and md_knn vary the lane count and the
/// memory intensity. Named so the perf-smoke job can run it next to the
/// two-kernel smoke.
#[test]
fn wheel_matches_naive_at_eight_tasks() {
    let bus = BusConfig::default().with_checker(1);
    for bench in [
        Benchmark::Backprop,
        Benchmark::Viterbi,
        Benchmark::FftTranspose,
        Benchmark::BfsQueue,
        Benchmark::MdKnn,
    ] {
        let traces: Vec<Trace> = (0..8).map(|t| kernel_trace(bench, 0x8A5C + t)).collect();
        let tasks: Vec<AccelTask<'_>> = traces
            .iter()
            .enumerate()
            .map(|(t, trace)| AccelTask {
                trace,
                cfg: accel_cfg(bench),
                start: [30, 30, 8, 8, 1, 1, 0, 0][t],
            })
            .collect();
        let report = assert_cores_agree(bench, &tasks, &bus);
        assert!(
            report.bus_utilization > 0.0,
            "{bench} moved no beats at eight tasks"
        );
    }
}

/// Every kernel as one task, costed as its kernel issues each op, on a
/// healthy bus and under bus faults: the report must equal the wheel's
/// and the naive core's over the recorded trace. Named so the perf-smoke
/// job can run it next to the wheel cross-checks.
#[test]
fn stream_matches_wheel_on_every_kernel() {
    let faults = BusFaultConfig {
        stall_every: 7,
        stall_cycles: 12,
        drop_every: 11,
    };
    let healthy = BusConfig::default().with_checker(1);
    for bus in [healthy, healthy.with_faults(faults)] {
        for bench in Benchmark::ALL {
            let trace = kernel_trace(bench, 0x57E4);
            let tasks = [AccelTask {
                trace: &trace,
                cfg: accel_cfg(bench),
                start: 150,
            }];
            let wheel = assert_cores_agree(bench, &tasks, &bus);
            let coster = StreamCoster::new(bus, accel_cfg(bench), 150);
            assert_eq!(
                run_kernel(bench, 0x57E4, coster).finish(),
                wheel,
                "the streamed one-task cost diverged from the wheel on {bench}"
            );
        }
    }
}

#[test]
fn wheel_matches_naive_under_bus_faults() {
    // Stalls move grant times; drops double beat occupancy. Both cores
    // must count grants in the same global order for these to agree.
    let faults = BusFaultConfig {
        stall_every: 7,
        stall_cycles: 12,
        drop_every: 11,
    };
    let bus = BusConfig::default().with_checker(1).with_faults(faults);
    for bench in [Benchmark::Aes, Benchmark::SpmvCrs, Benchmark::MdKnn] {
        let traces: Vec<Trace> = (0..3).map(|t| kernel_trace(bench, 0xBEEF + t)).collect();
        let tasks: Vec<AccelTask<'_>> = traces
            .iter()
            .enumerate()
            .map(|(t, trace)| AccelTask {
                trace,
                cfg: accel_cfg(bench),
                start: 40 * t as u64,
            })
            .collect();
        assert_cores_agree(bench, &tasks, &bus);
    }
}

#[test]
fn wheel_matches_naive_on_heterogeneous_mixes() {
    // Different FU configs sharing one bus — the scheduler interleaving
    // across unequal lane counts is where an ordering bug would hide.
    let bus = BusConfig::default();
    let benches = [Benchmark::Aes, Benchmark::GemmBlocked, Benchmark::Viterbi];
    let traces: Vec<(Benchmark, Trace)> = benches
        .iter()
        .map(|&b| (b, kernel_trace(b, 0xFEED)))
        .collect();
    let tasks: Vec<AccelTask<'_>> = traces
        .iter()
        .enumerate()
        .map(|(t, (b, trace))| AccelTask {
            trace,
            cfg: accel_cfg(*b),
            start: 25 * t as u64,
        })
        .collect();
    let wheel = simulate_accel_system(&tasks, &bus);
    let naive = simulate_accel_system_naive(&tasks, &bus);
    assert_eq!(wheel, naive, "mixed-FU system diverged between cores");
}
