//! Property tests for the event-wheel timing core.
//!
//! The wheel pre-folds every task's trace into a flat `LaneEntry` arena
//! and advances lane cursors by argmin scan; a bug that skipped an entry,
//! advanced a cursor twice, or mis-merged the runner-up bound would
//! silently drop registered events. These properties pin the wheel to the
//! retained naive heap core (`simulate_accel_system_naive`) on randomized
//! workloads — every registered memory event must be granted exactly once
//! (beat accounting) and every per-task completion cycle must match the
//! reference scheduler cycle-for-cycle.

use hetsim::timing::{
    simulate_accel_system, simulate_accel_system_naive, simulate_accel_system_naive_prof,
    simulate_accel_system_prof, AccelTask, AccelTimingConfig, BusConfig,
};
use hetsim::{BusFaultConfig, Trace, TraceOp};
use obs::{SpanProfiler, TraceBuffer};
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
    (1u32..9, 0usize..5, 1u32..6).prop_map(|(lanes, cpc_ix, outstanding)| AccelTimingConfig {
        lanes,
        // Drawn from the profiles real kernels use, including sub-1.0
        // (multi-cycle ops) — f64 division by each must stay bit-exact
        // between the wheel's hoisted form and the naive per-op form.
        compute_per_cycle: [0.5, 1.0, 2.0, 4.0, 16.0][cpc_ix],
        outstanding,
    })
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

proptest! {
    /// Cycle-for-cycle equivalence on arbitrary multi-task systems: if the
    /// wheel ever skipped or duplicated a registered event, some task's
    /// completion cycle, the total beat count, or the utilization ratio
    /// would diverge from the heap scheduler that pops every event
    /// individually.
    #[test]
    fn wheel_never_skips_a_registered_event(
        traces in prop::collection::vec(arb_trace(), 1..5),
        cfgs in prop::collection::vec(arb_cfg(), 5..6),
        starts in prop::collection::vec(0u64..400, 5..6),
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
        traces in prop::collection::vec(arb_trace(), 1..5),
        cfgs in prop::collection::vec(arb_cfg(), 5..6),
        starts in prop::collection::vec(0u64..400, 5..6),
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
}
