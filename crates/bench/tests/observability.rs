//! Observability guarantees: traced runs cost exactly what untraced runs
//! cost, and every export is byte-deterministic for a fixed seed.

use capchecker::SystemVariant;
use capcheri_bench::runner::{run, run_benchmark, RunResult, RunSpec};
use machsuite::Benchmark;
use obs::chrome::chrome_trace_json;
use obs::json::validate;
use obs::{Snapshot, TraceBuffer};

/// An observed aes run: its result, metrics snapshot and recorded events.
fn observed(variant: SystemVariant, tasks: usize, seed: u64) -> (RunResult, Snapshot, TraceBuffer) {
    let spec = RunSpec {
        observe: true,
        ..RunSpec::new(Benchmark::Aes, variant, tasks, seed)
    };
    let out = run(&spec).expect("aes runs");
    (
        out.result,
        out.metrics.expect("observed runs freeze their metrics"),
        out.events.expect("observed runs record events"),
    )
}

#[test]
fn observed_runs_match_plain_runs_bit_for_bit() {
    for variant in SystemVariant::ALL {
        let plain = run_benchmark(Benchmark::Aes, variant, 2, 7);
        let (observed, _, _) = observed(variant, 2, 7);
        assert_eq!(plain.cycles, observed.cycles, "{variant}");
        assert_eq!(plain.setup_cycles, observed.setup_cycles, "{variant}");
        assert_eq!(
            plain.bus_utilization.to_bits(),
            observed.bus_utilization.to_bits(),
            "{variant}"
        );
    }
}

#[test]
fn same_seed_runs_export_byte_identical_artifacts() {
    let a = observed(SystemVariant::CheriCpuCheriAccel, 2, 42);
    let b = observed(SystemVariant::CheriCpuCheriAccel, 2, 42);
    assert_eq!(
        a.1.to_json(),
        b.1.to_json(),
        "metrics snapshots must be byte-identical"
    );
    assert_eq!(
        chrome_trace_json(&a.2.sorted_by_cycle()),
        chrome_trace_json(&b.2.sorted_by_cycle()),
        "chrome traces must be byte-identical"
    );
}

#[test]
fn chrome_export_is_well_formed_with_monotone_timestamps() {
    let (_, _, events) = observed(SystemVariant::CheriCpuCheriAccel, 2, 1);
    assert!(!events.is_empty(), "a run must record events");
    let json = chrome_trace_json(&events.sorted_by_cycle());
    validate(&json).expect("chrome trace must be valid JSON");
    let mut last = 0u64;
    let mut seen = 0usize;
    for rest in json.split("\"ts\":").skip(1) {
        let ts = rest
            .bytes()
            .take_while(u8::is_ascii_digit)
            .fold(0u64, |acc, b| acc * 10 + u64::from(b - b'0'));
        assert!(ts >= last, "ts must be monotonically non-decreasing");
        last = ts;
        seen += 1;
    }
    assert!(seen > 0, "the trace must carry timestamped events");
}

#[test]
fn report_carries_the_required_metrics() {
    let (result, m, _) = observed(SystemVariant::CheriCpuCheriAccel, 4, 3);
    assert_eq!(m.counter("cycles"), Some(result.cycles));
    assert_eq!(m.counter("setup_cycles"), Some(result.setup_cycles));
    assert!(m.gauge("bus_utilization").is_some());
    assert!(m.gauge("l1.hit_rate").is_some());
    assert!(m.counter("checker.install_stalls").is_some());
    assert!(m.counter("checker.evictions").is_some());
    assert!(
        m.counter("checker.evictions").unwrap() > 0,
        "deallocation must evict the tasks' capabilities"
    );
    let json = m.to_json();
    validate(&json).expect("metrics JSON must be valid");
}

#[test]
fn driver_lifecycle_appears_in_the_event_stream() {
    use obs::EventKind;
    let (_, _, events) = observed(SystemVariant::CheriCpuCheriAccel, 1, 5);
    let events = events.events();
    let has = |pred: &dyn Fn(&EventKind) -> bool| events.iter().any(|e| pred(&e.kind));
    assert!(has(&|k| matches!(k, EventKind::DriverPhase { .. })));
    assert!(has(&|k| matches!(k, EventKind::MmioCapInstall { .. })));
    assert!(has(&|k| matches!(k, EventKind::CheckerCheck { .. })));
    assert!(has(&|k| matches!(k, EventKind::CheckerEvict { .. })));
    assert!(has(&|k| matches!(k, EventKind::BusGrant { .. })));
    assert!(has(&|k| matches!(k, EventKind::TaskStart { .. })));
    assert!(has(&|k| matches!(k, EventKind::TaskEnd { .. })));
}
