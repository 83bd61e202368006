//! Property tests for the event-wheel timing core.
//!
//! The wheel folds every task's trace, in one pass and in trace order,
//! into a flat `LaneEntry` arena whose lanes step through it `stride`
//! entries at a time, and picks the next lane from two sorted queues
//! (lanes not yet started, and served lanes in grant order); a bug that
//! skipped an entry, stepped a cursor by the wrong stride, or broke a
//! `(time, lane)` tie the wrong way would silently drop or reorder
//! registered events. These properties pin the wheel to the one retained
//! heap core (`simulate_accel_system_naive`, where every memory op pops
//! and re-enters the heap) on randomized workloads — every
//! registered memory event must be granted exactly once (beat
//! accounting) and every per-task completion cycle must match the
//! reference scheduler cycle-for-cycle.
//!
//! The wheel has two feeders: a kernel run folds each op into a
//! `LaneFolder` as it happens, and `simulate_accel_system` replays
//! recorded traces into the same folder. A folder fed op by op, with its
//! compute arriving in arbitrary pieces, must time exactly what the trace
//! feeder times. The same holds for the two costers that charge each op
//! as it arrives: `StreamCoster` on one-task accelerator runs, against
//! the wheel and the heap core, and `CpuCoster`, against `simulate_cpu`.

use hetsim::timing::{
    simulate_accel_system, simulate_accel_system_naive, simulate_accel_system_naive_prof,
    simulate_accel_system_prof, simulate_cpu_prof, simulate_wheel_prof, AccelTask,
    AccelTimingConfig, BusConfig, CacheConfig, CpuCoster, CpuTiming, StreamCoster, Wheel,
};
use hetsim::{BusFaultConfig, Record, Trace, TraceOp};
use obs::{NullProfiler, NullTracer, SpanProfiler, TraceBuffer};
use proptest::prelude::*;

/// One randomized trace op. Compute units are kept small so traces stay
/// cheap; addresses stride so coalescing both does and doesn't fire.
fn arb_op() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        (0u64..0x4000, 1u16..64, any::<bool>(), 0u16..4).prop_map(
            |(addr, bytes, write, object)| TraceOp::Mem {
                addr: 0x1000 + addr,
                bytes,
                write,
                object,
            }
        ),
        (1u64..2000).prop_map(TraceOp::Compute),
        (0u64..0x1000, 0u64..0x1000, 1u64..256).prop_map(|(src, dst, bytes)| TraceOp::Copy {
            src: 0x1000 + src,
            dst: 0x5000 + dst,
            bytes,
        }),
    ]
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(arb_op(), 0..120).prop_map(|ops| {
        let mut t = Trace::new();
        for op in ops {
            t.push(op);
        }
        t
    })
}

fn arb_cfg() -> impl Strategy<Value = AccelTimingConfig> {
    // Up to 32 lanes per task, backprop's and viterbi's width: eight
    // such tasks put 256 lanes on the bus, as Figure 11 does.
    (1u32..33, 0usize..5, 1u32..6).prop_map(|(lanes, cpc_ix, outstanding)| AccelTimingConfig {
        lanes,
        // Drawn from the profiles real kernels use, including sub-1.0
        // (multi-cycle ops) — f64 division by each must stay bit-exact
        // between the wheel's hoisted form and the naive per-op form.
        compute_per_cycle: [0.5, 1.0, 2.0, 4.0, 16.0][cpc_ix],
        outstanding,
    })
}

/// A task start drawn from a small set, so tasks share starts and a lane
/// that has not started yet ties the key of a lane already served.
fn arb_start() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(1), Just(8), Just(30)]
}

fn arb_bus() -> impl Strategy<Value = BusConfig> {
    (
        prop_oneof![Just(4u64), Just(8), Just(16)],
        1u64..60,
        0u64..4,
        0u64..6,
        0u64..20,
        0u64..9,
    )
        .prop_map(
            |(beat_bytes, mem_latency, checker, stall_every, stall_cycles, drop_every)| BusConfig {
                beat_bytes,
                mem_latency,
                checker_latency: checker,
                faults: BusFaultConfig {
                    stall_every,
                    stall_cycles,
                    drop_every,
                },
            },
        )
}

/// A bus with both interconnect fault models armed.
fn arb_faulty_bus() -> impl Strategy<Value = BusConfig> {
    (arb_bus(), 1u64..6, 1u64..20, 1u64..9).prop_map(
        |(bus, stall_every, stall_cycles, drop_every)| BusConfig {
            faults: BusFaultConfig {
                stall_every,
                stall_cycles,
                drop_every,
            },
            ..bus
        },
    )
}

/// A CPU model: cycles per unit that do not add up exactly in `f64`, so
/// costing compute in pieces rounds differently from costing it whole;
/// a direct-mapped, a two-way or no L1; plain or CHERI.
fn arb_cpu() -> impl Strategy<Value = CpuTiming> {
    (0usize..4, 0usize..3, any::<bool>()).prop_map(|(cpi_ix, cache_ix, cheri)| {
        let timing = CpuTiming {
            cycles_per_unit: [0.1, 0.3, 0.7, 1.3][cpi_ix],
            cache: [
                Some(CacheConfig::direct_mapped(1024, 64)),
                Some(CacheConfig {
                    size: 2048,
                    line: 32,
                    ways: 2,
                }),
                None,
            ][cache_ix],
            ..CpuTiming::default()
        };
        if cheri {
            timing.with_cheri()
        } else {
            timing
        }
    })
}

/// Feeds `trace` to `rec` the way a kernel run would, one engine call at
/// a time, except that each `Compute(u)` arrives as several `compute`
/// calls of random positive pieces summing to `u` (an xorshift stream
/// seeded by `salt` picks them).
fn feed_in_pieces(trace: &Trace, salt: &mut u64, rec: &mut impl Record) {
    for op in trace.ops() {
        match *op {
            TraceOp::Compute(mut units) => {
                while units > 0 {
                    *salt ^= *salt << 13;
                    *salt ^= *salt >> 7;
                    *salt ^= *salt << 17;
                    let piece = 1 + *salt % units;
                    rec.compute(piece);
                    units -= piece;
                }
            }
            TraceOp::Mem {
                addr,
                bytes,
                write,
                object,
            } => rec.mem(addr, bytes, write, object),
            TraceOp::Copy { src, dst, bytes } => rec.copy(src, dst, bytes),
        }
    }
}

proptest! {
    /// The two feeders of the wheel agree: folding each task's ops as a
    /// kernel run hands them over — compute split into random pieces,
    /// 1–8 tasks of up to 32 lanes, both bus fault models armed — gives
    /// the report, the recorded events (every `BusGrant` included) and
    /// the span profile that replaying the recorded traces gives.
    #[test]
    fn folder_fed_op_by_op_matches_the_trace_feeder(
        traces in prop::collection::vec(arb_trace(), 1..9),
        cfgs in prop::collection::vec(arb_cfg(), 8..9),
        starts in prop::collection::vec(arb_start(), 8..9),
        bus in arb_faulty_bus(),
        salt in 1u64..u64::MAX,
    ) {
        let tasks: Vec<AccelTask<'_>> = traces
            .iter()
            .enumerate()
            .map(|(i, trace)| AccelTask {
                trace,
                cfg: cfgs[i % cfgs.len()],
                start: starts[i % starts.len()],
            })
            .collect();
        let fold = |salt: &mut u64| {
            let mut wheel = Wheel::new(bus);
            for task in &tasks {
                let mut folder = wheel.task(task.cfg, task.start);
                feed_in_pieces(task.trace, salt, &mut folder);
                wheel = folder.finish();
            }
            wheel
        };
        let (mut fed_events, mut traced_events) = (TraceBuffer::new(), TraceBuffer::new());
        let (mut fed_prof, mut traced_prof) = (SpanProfiler::new(), SpanProfiler::new());
        let mut pieces = salt;
        let fed = simulate_wheel_prof(fold(&mut pieces), &mut fed_events, &mut fed_prof);
        let traced =
            simulate_accel_system_prof(&tasks, &bus, &mut traced_events, &mut traced_prof);
        prop_assert_eq!(&fed, &traced);
        prop_assert!(fed_events == traced_events, "recorded events differ");
        prop_assert!(fed_prof.snapshot() == traced_prof.snapshot(), "span profiles differ");
        let mut pieces = salt;
        let quiet = simulate_wheel_prof(fold(&mut pieces), &mut NullTracer, &mut NullProfiler);
        prop_assert_eq!(&quiet, &traced, "the unobserved wheel differs");
    }

    /// Cycle-for-cycle equivalence on arbitrary multi-task systems: if the
    /// wheel ever skipped or duplicated a registered event, some task's
    /// completion cycle, the total beat count, or the utilization ratio
    /// would diverge from the heap scheduler that pops every event
    /// individually.
    #[test]
    fn wheel_never_skips_a_registered_event(
        traces in prop::collection::vec(arb_trace(), 1..9),
        cfgs in prop::collection::vec(arb_cfg(), 8..9),
        starts in prop::collection::vec(arb_start(), 8..9),
        bus in arb_bus(),
    ) {
        let tasks: Vec<AccelTask<'_>> = traces
            .iter()
            .enumerate()
            .map(|(i, trace)| AccelTask {
                trace,
                cfg: cfgs[i % cfgs.len()],
                start: starts[i % starts.len()],
            })
            .collect();
        let wheel = simulate_accel_system(&tasks, &bus);
        let naive = simulate_accel_system_naive(&tasks, &bus);
        prop_assert_eq!(&wheel, &naive);
        prop_assert_eq!(wheel.per_task.len(), tasks.len());
        for (task, finish) in tasks.iter().zip(&wheel.per_task) {
            prop_assert!(*finish >= task.start,
                "a task finished before its start offset");
        }
    }

    /// The observed paths agree too: on arbitrary systems, with and
    /// without armed bus faults, the wheel and the heap scheduler record
    /// the same events in the same order and attribute the same cycles to
    /// the same spans and histograms.
    #[test]
    fn observed_wheel_records_what_the_heap_records(
        traces in prop::collection::vec(arb_trace(), 1..9),
        cfgs in prop::collection::vec(arb_cfg(), 8..9),
        starts in prop::collection::vec(arb_start(), 8..9),
        bus in arb_bus(),
    ) {
        let tasks: Vec<AccelTask<'_>> = traces
            .iter()
            .enumerate()
            .map(|(i, trace)| AccelTask {
                trace,
                cfg: cfgs[i % cfgs.len()],
                start: starts[i % starts.len()],
            })
            .collect();
        let (mut wheel_events, mut naive_events) = (TraceBuffer::new(), TraceBuffer::new());
        let (mut wheel_prof, mut naive_prof) = (SpanProfiler::new(), SpanProfiler::new());
        let wheel = simulate_accel_system_prof(&tasks, &bus, &mut wheel_events, &mut wheel_prof);
        let naive =
            simulate_accel_system_naive_prof(&tasks, &bus, &mut naive_events, &mut naive_prof);
        prop_assert_eq!(&wheel, &naive);
        prop_assert!(!wheel_events.is_empty(), "the tracer saw no event");
        prop_assert!(wheel_events == naive_events, "recorded events differ");
        prop_assert!(
            wheel_prof.snapshot() == naive_prof.snapshot(),
            "span profiles differ"
        );
    }

    /// Beat accounting on a healthy bus: every memory event registers
    /// ceil(bytes/beat) beats (min 1) and the wheel must grant each beat
    /// exactly once — no drops without a fault model armed.
    #[test]
    fn healthy_bus_grants_every_registered_beat(
        trace in arb_trace(),
        cfg in arb_cfg(),
        beat_bytes in prop_oneof![Just(4u64), Just(8), Just(16)],
    ) {
        let bus = BusConfig {
            beat_bytes,
            ..BusConfig::default()
        };
        let expected: u64 = trace
            .ops()
            .iter()
            .map(|op| match *op {
                TraceOp::Mem { bytes, .. } =>
                    u64::from(bytes).div_ceil(beat_bytes).max(1),
                // A copy is a read stream plus a write stream.
                TraceOp::Copy { bytes, .. } =>
                    2 * bytes.div_ceil(beat_bytes).max(1),
                TraceOp::Compute(_) => 0,
            })
            .sum();
        let tasks = [AccelTask { trace: &trace, cfg, start: 0 }];
        let wheel = simulate_accel_system(&tasks, &bus);
        prop_assert_eq!(wheel.bus_beats, expected,
            "wheel granted a different number of beats than were registered");
    }

    /// A one-task run costed as it is issued — compute split into random
    /// pieces, up to 32 lanes, on healthy and on faulty buses — reports
    /// what the event wheel and the heap core report for the recorded
    /// trace.
    #[test]
    fn streamed_one_task_run_matches_the_wheel_and_the_heap(
        trace in arb_trace(),
        cfg in arb_cfg(),
        start in arb_start(),
        bus in prop_oneof![arb_bus(), arb_faulty_bus()],
        salt in 1u64..u64::MAX,
    ) {
        let mut coster = StreamCoster::new(bus, cfg, start);
        let mut pieces = salt;
        feed_in_pieces(&trace, &mut pieces, &mut coster);
        let streamed = coster.finish();
        let tasks = [AccelTask { trace: &trace, cfg, start }];
        prop_assert_eq!(&streamed, &simulate_accel_system(&tasks, &bus));
        prop_assert_eq!(&streamed, &simulate_accel_system_naive(&tasks, &bus));
    }

    /// A CPU run costed as it happens — compute split into random pieces
    /// — reports, records and attributes what `simulate_cpu_prof` does
    /// for the recorded trace, observed or not.
    #[test]
    fn cpu_coster_fed_op_by_op_matches_the_trace(
        trace in arb_trace(),
        timing in arb_cpu(),
        salt in 1u64..u64::MAX,
    ) {
        let mut pieces = salt;
        let mut coster = CpuCoster::new(&timing);
        feed_in_pieces(&trace, &mut pieces, &mut coster);
        let quiet = coster.finish();
        prop_assert_eq!(
            quiet,
            simulate_cpu_prof(&trace, &timing, &mut NullTracer, &mut NullProfiler)
        );

        let (mut fed_events, mut traced_events) = (TraceBuffer::new(), TraceBuffer::new());
        let (mut fed_prof, mut traced_prof) = (SpanProfiler::new(), SpanProfiler::new());
        let mut pieces = salt;
        let mut coster = CpuCoster::observed(&timing, &mut fed_events, &mut fed_prof);
        feed_in_pieces(&trace, &mut pieces, &mut coster);
        let fed = coster.finish();
        let traced = simulate_cpu_prof(&trace, &timing, &mut traced_events, &mut traced_prof);
        prop_assert_eq!(fed, traced);
        prop_assert_eq!(fed, quiet, "observing changed the report");
        prop_assert!(fed_events == traced_events, "recorded events differ");
        prop_assert!(fed_prof.snapshot() == traced_prof.snapshot(), "span profiles differ");
    }
}
