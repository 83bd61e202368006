//! Layer-attributed host-time benchmark of the cheri-hetero simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on the public entry points
//! (`runner::run_benchmark`, `conformance::run_ops`). `--trace 1` repeats
//! each cell's call sequence with a span around every call into a layer
//! and reports host time per layer. Both check every output and print,
//! as their last line, one JSON object with the run's metrics.
//!
//! A cell is one `run_benchmark` call on the kernel workloads and one
//! replay of the stream on `checker_stream`, so every end-to-end metric
//! reads on every workload: `stream_ops_per_s` counts trace ops on the
//! kernel workloads and replayed ops on the stream. The fail ratio is
//! the result line's `failed / attempted` (and a printed line); it is
//! not a metric, because a metric that is 0 on every good run has no
//! median to compare against.
//!
//! Seed discipline, the same in every run and on every commit:
//! - timed pass `k` uses seed `seed + k`, so no input recurs across
//!   passes and a cache can never hit from one pass into the next;
//! - the warm-up uses `seed - 1`, which no timed pass uses;
//! - the five variants of one `variant_sweep` kernel share their seed, as
//!   Figure 10 does, so a cross-variant trace memo can hit there;
//! - a `contended_8task` cell passes `8 × (seed + k)` to the runner, whose
//!   tasks take `8 × (seed + k) + t`: no (kernel, input seed) recurs.

mod cells;
mod golden;
mod null_engine;
mod report;
mod stream;

use capchecker::SystemVariant;
use cells::{Cell, Layers};
use machsuite::Benchmark;
use report::{median, quantile, ratio, Metrics};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <variant_sweep|contended_8task|checker_stream> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Where the Figure 10 golden lives, relative to the repository root the
/// benchmark runs from.
const FIG10_GOLDEN: &str = "crates/bench/tests/golden/fig10.json";

/// Set-up runs at least `SETUP_REPEATS` times, and again until
/// `SETUP_BUDGET` has passed since process start (at most
/// `SETUP_MAX_REPEATS` times); `setup_s` is the median repetition. A
/// set-up of a few ms gets enough repetitions for a steady median.
const SETUP_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 64;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Concurrent tasks per `contended_8task` cell (Figure 11's top point).
const CONTENDED_TASKS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    VariantSweep,
    Contended8Task,
    CheckerStream,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "variant_sweep" => Some(Workload::VariantSweep),
            "contended_8task" => Some(Workload::Contended8Task),
            "checker_stream" => Some(Workload::CheckerStream),
            _ => None,
        }
    }

    /// The cells of timed pass `pass_seed` (see the seed discipline above).
    fn cells(self, pass_seed: u64) -> Vec<Cell> {
        match self {
            Workload::VariantSweep => Benchmark::ALL
                .into_iter()
                .flat_map(|bench| {
                    SystemVariant::ALL.into_iter().map(move |variant| Cell {
                        bench,
                        variant,
                        tasks: 1,
                        seed: pass_seed,
                    })
                })
                .collect(),
            Workload::Contended8Task => Benchmark::ALL
                .into_iter()
                .map(|bench| Cell {
                    bench,
                    variant: SystemVariant::CheriCpuCheriAccel,
                    tasks: CONTENDED_TASKS,
                    seed: pass_seed.wrapping_mul(CONTENDED_TASKS as u64),
                })
                .collect(),
            Workload::CheckerStream => Vec::new(),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Failures seen in a run; the first few are printed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.messages.len() < 8 {
                    self.messages.push(e);
                }
                None
            }
        }
    }

    /// A failed step outside the timed cells (warm-up, golden file).
    fn fail(&mut self, message: String) {
        self.record(Err::<(), _>(message));
    }

    fn fail_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

struct Outcome {
    tally: Tally,
    metrics: Metrics,
    /// Human-readable lines printed before the metric table.
    notes: Vec<String>,
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match (args.workload, args.trace) {
        (Workload::CheckerStream, false) => stream_untraced(&args, start),
        (Workload::CheckerStream, true) => stream_traced(&args),
        (_, false) => kernels_untraced(&args, start),
        (_, true) => kernels_traced(&args),
    };
    for note in &out.notes {
        println!("{note}");
    }
    for message in &out.tally.messages {
        eprintln!("FAILED: {message}");
    }
    println!(
        "fail_ratio {:.6} ({} of {} failed)",
        out.tally.fail_ratio(),
        out.tally.failed,
        out.tally.attempted
    );
    print!("{}", out.metrics.table());
    let correct = out.tally.failed == 0;
    println!(
        "{}",
        out.metrics
            .result_line(correct, out.tally.attempted.max(1), out.tally.failed)
    );
    ExitCode::SUCCESS
}

fn ns_to_ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Repeats the set-up `f` and returns each repetition's seconds; the
/// first is timed from process start.
fn timed_setups(start: Instant, mut f: impl FnMut()) -> Vec<f64> {
    let mut secs = Vec::new();
    let mut rep_start = start;
    while secs.len() < SETUP_REPEATS
        || (secs.len() < SETUP_MAX_REPEATS && start.elapsed() < SETUP_BUDGET)
    {
        f();
        secs.push(rep_start.elapsed().as_secs_f64());
        rep_start = Instant::now();
    }
    secs
}

fn setup_note(setup_s: &[f64]) -> String {
    format!(
        "set-up {:.4} s median of {} (first, from process start: {:.4} s)",
        median(setup_s),
        setup_s.len(),
        setup_s[0]
    )
}

/// Sum of cycles, bus beats and trace ops over the first timed pass, with
/// an FNV-1a hash of the per-cell triples: identical on every run of one
/// seed, and on every commit that leaves the simulation unchanged.
#[derive(Debug, Default)]
struct KernelDigest {
    cells: u64,
    sim_cycles: u64,
    bus_beats: u64,
    trace_ops: u64,
    fnv: u64,
}

impl KernelDigest {
    fn add(&mut self, traced: &cells::Traced) {
        if self.cells == 0 {
            self.fnv = 0xcbf2_9ce4_8422_2325;
        }
        self.cells += 1;
        self.sim_cycles += traced.cycles;
        self.bus_beats += traced.bus_beats;
        self.trace_ops += traced.trace_ops;
        for word in [traced.cycles, traced.bus_beats, traced.trace_ops] {
            for byte in word.to_le_bytes() {
                self.fnv = (self.fnv ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn line(&self, workload: Workload, seed: u64) -> String {
        format!(
            "digest {{\"workload\": \"{}\", \"seed\": {seed}, \"cells\": {}, \"sim_cycles\": {}, \
             \"bus_beats\": {}, \"trace_ops\": {}, \"fnv\": \"{:016x}\"}}",
            workload_name(workload),
            self.cells,
            self.sim_cycles,
            self.bus_beats,
            self.trace_ops,
            self.fnv
        )
    }
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::VariantSweep => "variant_sweep",
        Workload::Contended8Task => "contended_8task",
        Workload::CheckerStream => "checker_stream",
    }
}

/// The seed-`0xC0DE` `variant_sweep` cells against the Figure 10 golden.
fn check_fig10(tally: &mut Tally) {
    let rows = match std::fs::read_to_string(FIG10_GOLDEN)
        .map_err(|e| format!("{FIG10_GOLDEN}: {e}"))
        .and_then(|text| golden::parse(&text))
    {
        Ok(rows) => rows,
        Err(e) => return tally.fail(e),
    };
    for (bench, want) in rows {
        for (variant, want) in SystemVariant::ALL.into_iter().zip(want) {
            let cell = Cell {
                bench,
                variant,
                tasks: 1,
                seed: golden::FIGURE_SEED,
            };
            tally.record(cells::run_untraced(cell).and_then(|r| {
                if r.cycles == want {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: {} cycles, Figure 10 golden {want}",
                        cells::describe(cell),
                        r.cycles
                    ))
                }
            }));
        }
    }
}

fn kernels_untraced(args: &Args, start: Instant) -> Outcome {
    let w = args.workload;
    let mut tally = Tally::default();
    let setup_s = timed_setups(start, || {
        for cell in w.cells(args.seed.wrapping_sub(1)) {
            if let Err(e) = cells::run_untraced(cell) {
                tally.fail(format!("warm-up: {e}"));
            }
        }
    });

    // passes[k][i]: cell i of pass k, its host ns and its result.
    let mut passes = Vec::new();
    let timed = Instant::now();
    while passes.is_empty() || timed.elapsed() < args.seconds {
        let pass: Vec<_> = w
            .cells(args.seed.wrapping_add(passes.len() as u64))
            .into_iter()
            .map(|cell| {
                let t = Instant::now();
                let r = cells::run_untraced(cell);
                (cell, t.elapsed().as_nanos() as f64, r)
            })
            .collect();
        passes.push(pass);
    }
    let ns: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.iter().map(|(_, ns, _)| *ns).collect())
        .collect();
    let quiet = report::quiet_cells(&ns);

    // The quiet cells, and the cells of the first pass (the digest), are
    // re-run through the traced sequence: their outputs are read back
    // against the reference and their cycles must match. Every other
    // cell must have completed.
    let mut digest = KernelDigest::default();
    let mut quiet_ns = 0.0;
    let mut quiet_ops = 0;
    let mut cell_ms = Vec::new();
    for (k, pass) in passes.into_iter().enumerate() {
        for (i, (cell, ns, result)) in pass.into_iter().enumerate() {
            if !quiet[k][i] && k != 0 {
                tally.record(result);
                continue;
            }
            let verified = result.and_then(|r| {
                let traced = cells::run_traced(cell, false)?;
                cells::check(cell, &traced, r.cycles).map(|()| traced)
            });
            if let Some(traced) = tally.record(verified) {
                if k == 0 {
                    digest.add(&traced);
                }
                if quiet[k][i] {
                    quiet_ns += ns;
                    quiet_ops += traced.trace_ops;
                    cell_ms.push(ns_to_ms(ns));
                }
            }
        }
    }
    if w == Workload::VariantSweep {
        check_fig10(&mut tally);
    }

    let mut metrics = Metrics::default();
    metrics.put(
        "cells_per_s",
        ratio(cell_ms.len() as f64, quiet_ns / 1e9),
        "1/s",
    );
    metrics.put("cell_ms_p50", quantile(&cell_ms, 0.5), "ms");
    metrics.put("cell_ms_p90", quantile(&cell_ms, 0.9), "ms");
    metrics.put(
        "stream_ops_per_s",
        ratio(quiet_ops as f64, quiet_ns / 1e9),
        "1/s",
    );
    metrics.put("peak_rss_mb", report::peak_rss_mb(), "MB");
    metrics.put("setup_s", median(&setup_s), "s");
    Outcome {
        notes: vec![
            format!(
                "{}: {} passes of {} cells, {} quiet cells (cell_ms samples), {}",
                workload_name(w),
                ns.len(),
                ns[0].len(),
                cell_ms.len(),
                setup_note(&setup_s)
            ),
            digest.line(w, args.seed),
        ],
        tally,
        metrics,
    }
}

fn kernels_traced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut tally = Tally::default();
    for cell in w.cells(args.seed.wrapping_sub(1)) {
        if let Err(e) = cells::run_untraced(cell).and_then(|_| cells::run_traced(cell, true)) {
            tally.fail(format!("warm-up: {e}"));
        }
    }

    // samples[k][i]: cell i of pass k, its untraced host ns and, if it
    // passed its checks, its traced layers.
    let mut samples: Vec<Vec<(f64, Option<LayerTotals>)>> = Vec::new();
    let mut digest = KernelDigest::default();
    let timed = Instant::now();
    while samples.is_empty() || timed.elapsed() < args.seconds {
        let cells = w.cells(args.seed.wrapping_add(samples.len() as u64));
        // The untraced pass first, then the traced one, so that each
        // cell of either is preceded by a different kernel, not by its
        // own twin.
        let untraced: Vec<_> = cells
            .iter()
            .map(|&cell| {
                let t = Instant::now();
                let r = cells::run_untraced(cell);
                (t.elapsed().as_nanos() as f64, r)
            })
            .collect();
        let mut pass = Vec::with_capacity(cells.len());
        for (&cell, (ns, result)) in cells.iter().zip(untraced) {
            let verified = result.and_then(|r| {
                let traced = cells::run_traced(cell, true)?;
                cells::check(cell, &traced, r.cycles).map(|()| traced)
            });
            let traced = tally.record(verified);
            if let (true, Some(t)) = (samples.is_empty(), &traced) {
                digest.add(t);
            }
            pass.push((ns, traced.map(|t| LayerTotals::of(cell, &t))));
        }
        samples.push(pass);
    }
    if w == Workload::VariantSweep {
        check_fig10(&mut tally);
    }

    // Layers over the quiet traced cells, the untraced rate over the
    // quiet untraced ones.
    let traced_ns: Vec<Vec<f64>> = samples
        .iter()
        .map(|p| {
            p.iter()
                .map(|(_, t)| t.as_ref().map_or(f64::INFINITY, |t| t.layers.cell))
                .collect()
        })
        .collect();
    let untraced_ns: Vec<Vec<f64>> = samples
        .iter()
        .map(|p| p.iter().map(|(ns, _)| *ns).collect())
        .collect();
    let mut t = LayerTotals::default();
    let mut u = (0u64, 0.0);
    let (quiet_traced, quiet_untraced) = (
        report::quiet_cells(&traced_ns),
        report::quiet_cells(&untraced_ns),
    );
    for (k, pass) in samples.iter().enumerate() {
        for (i, (ns, traced)) in pass.iter().enumerate() {
            if let (true, Some(traced)) = (quiet_traced[k][i], traced) {
                t.merge(traced);
            }
            if quiet_untraced[k][i] {
                u = (u.0 + 1, u.1 + ns);
            }
        }
    }
    let layers = t.layers;
    let per_cell = |ns: f64| ns_to_ms(ns) / t.cells.max(1) as f64;
    let untraced_rate = ratio(u.0 as f64, u.1 / 1e9);
    let traced_rate = ratio(t.cells as f64, layers.cell / 1e9);
    let notes = vec![
        format!(
            "{}: {} passes, layers from {} quiet cells",
            workload_name(w),
            samples.len(),
            t.cells
        ),
        digest.line(w, args.seed),
        format!(
            "layer self times sum to {:.4} ms of {:.4} ms per cell ({:.2}%); unattributed {:.4} ms ({:.2}%)",
            per_cell(layers.attributed()),
            per_cell(layers.cell),
            100.0 * ratio(layers.attributed(), layers.cell),
            per_cell(layers.unattributed()),
            100.0 * ratio(layers.unattributed(), layers.cell)
        ),
        format!(
            "tracing overhead: untraced {untraced_rate:.3} cells/s, traced {traced_rate:.3} cells/s, gap {:.2}%",
            100.0 * ratio(untraced_rate - traced_rate, untraced_rate)
        ),
    ];
    let k = KernelLayers {
        setup: per_cell(layers.setup),
        init: per_cell(layers.init),
        run_task: per_cell(layers.run_task),
        kernel: per_cell(layers.kernel()),
        trace_record: per_cell(layers.trace_record()),
        vet: per_cell(layers.vet()),
        accel_timing: per_cell(layers.accel_timing),
        cpu_timing: per_cell(layers.cpu_timing),
        teardown: per_cell(layers.teardown),
        unattributed: per_cell(layers.unattributed()),
        cell: per_cell(layers.cell),
        trace_ops: digest.trace_ops,
        bus_beats: digest.bus_beats,
        sim_cycles: digest.sim_cycles,
        accel_timing_ns_per_op: ratio(layers.accel_timing, t.accel_ops as f64),
        trace_record_ns_per_op: ratio(layers.trace_record(), t.trace_ops as f64),
        vet_ns_per_access: ratio(layers.vet(), t.mem_ops as f64),
    };
    Outcome {
        metrics: layer_metrics(&k, &StreamLayers::default()),
        tally,
        notes,
    }
}

/// Layer times and work summed over traced cells that passed their checks.
#[derive(Clone, Debug, Default)]
struct LayerTotals {
    cells: u64,
    layers: Layers,
    mem_ops: u64,
    trace_ops: u64,
    accel_ops: u64,
}

impl LayerTotals {
    fn of(cell: Cell, traced: &cells::Traced) -> LayerTotals {
        LayerTotals {
            cells: 1,
            layers: traced.layers,
            mem_ops: traced.mem_ops,
            trace_ops: traced.trace_ops,
            accel_ops: if cell.variant.uses_accelerator() {
                traced.trace_ops
            } else {
                0
            },
        }
    }

    fn merge(&mut self, other: &LayerTotals) {
        self.cells += other.cells;
        self.layers.add(&other.layers);
        self.mem_ops += other.mem_ops;
        self.trace_ops += other.trace_ops;
        self.accel_ops += other.accel_ops;
    }
}

/// Per-cell (ms) and per-pass (counts) layer figures of a kernel workload.
#[derive(Debug, Default)]
struct KernelLayers {
    setup: f64,
    init: f64,
    run_task: f64,
    kernel: f64,
    trace_record: f64,
    vet: f64,
    accel_timing: f64,
    cpu_timing: f64,
    teardown: f64,
    unattributed: f64,
    cell: f64,
    trace_ops: u64,
    bus_beats: u64,
    sim_cycles: u64,
    accel_timing_ns_per_op: f64,
    trace_record_ns_per_op: f64,
    vet_ns_per_access: f64,
}

/// Per-replay layer figures of `checker_stream`.
#[derive(Debug, Default)]
struct StreamLayers {
    oracle: f64,
    uncached: f64,
    cached: f64,
    degrading: f64,
    unattributed: f64,
    pass: f64,
    digest: Option<stream::Digest>,
    ops: f64,
}

/// Every per-layer metric, for any workload: a layer a workload does not
/// pass through reads 0.
fn layer_metrics(k: &KernelLayers, s: &StreamLayers) -> Metrics {
    let d = s.digest.unwrap_or_default();
    let mut m = Metrics::default();
    m.put("system.setup_ms", k.setup, "ms");
    m.put("machsuite.init_ms", k.init, "ms");
    m.put("system.run_task_ms", k.run_task, "ms");
    m.put("machsuite.kernel_ms", k.kernel, "ms");
    m.put("hetsim.trace_record_ms", k.trace_record, "ms");
    m.put("capchecker.vet_ms", k.vet, "ms");
    m.put("hetsim.accel_timing_ms", k.accel_timing, "ms");
    m.put("hetsim.cpu_timing_ms", k.cpu_timing, "ms");
    m.put("system.teardown_ms", k.teardown, "ms");
    m.put("conformance.oracle_ms", s.oracle, "ms");
    m.put("capchecker.uncached_ms", s.uncached, "ms");
    m.put("capchecker.cached_ms", s.cached, "ms");
    m.put("capchecker.degrading_ms", s.degrading, "ms");
    m.put(
        "bench.unattributed_ms",
        k.unattributed + s.unattributed,
        "ms",
    );
    m.put("bench.cell_ms", k.cell + s.pass, "ms");
    m.put("hetsim.trace_ops", k.trace_ops as f64, "count");
    m.put("hetsim.bus_beats", k.bus_beats as f64, "count");
    m.put("hetsim.sim_cycles", k.sim_cycles as f64, "count");
    m.put(
        "hetsim.accel_timing_ns_per_op",
        k.accel_timing_ns_per_op,
        "ns",
    );
    m.put(
        "hetsim.trace_record_ns_per_op",
        k.trace_record_ns_per_op,
        "ns",
    );
    m.put("capchecker.vet_ns_per_access", k.vet_ns_per_access, "ns");
    m.put("conformance.accesses", d.accesses as f64, "count");
    m.put("conformance.grants", d.grants as f64, "count");
    m.put("conformance.sweeps", d.sweeps as f64, "count");
    m.put("capchecker.fail_stops", d.fail_stops as f64, "count");
    m.put(
        "capchecker.cached_ns_per_op",
        ratio(s.cached * 1e6, s.ops),
        "ns",
    );
    m.put(
        "capchecker.uncached_ns_per_op",
        ratio(s.uncached * 1e6, s.ops),
        "ns",
    );
    m
}

fn stream_digest_line(seed: u64, d: &stream::Digest) -> String {
    format!(
        "digest {{\"workload\": \"checker_stream\", \"seed\": {seed}, \"ops\": {}, \"granted\": {}, \
         \"denied\": {}, \"fail_stops\": {}, \"grants\": {}, \"sweeps\": {}}}",
        stream::STREAM_OPS,
        d.granted,
        d.denied,
        d.fail_stops,
        d.grants,
        d.sweeps
    )
}

/// Replays `ops` and checks it against `first` (or makes it the first).
fn checked_replay(
    tally: &mut Tally,
    ops: &[conformance::Op],
    first: &mut Option<stream::Digest>,
) -> f64 {
    let (ns, out) = stream::replay(ops);
    let want = *first.get_or_insert_with(|| stream::Digest::of(&out));
    tally.record(stream::check(&out, &want));
    ns
}

fn stream_untraced(args: &Args, start: Instant) -> Outcome {
    let mut tally = Tally::default();
    let mut ops = Vec::new();
    let setup_s = timed_setups(start, || {
        ops = conformance::generate(args.seed, stream::STREAM_OPS);
        let warm = conformance::generate(args.seed.wrapping_sub(1), stream::STREAM_OPS);
        let (_, out) = stream::replay(&warm);
        if !out.is_clean() {
            tally.fail("warm-up replay diverged from the oracle".into());
        }
    });

    let mut first = None;
    let mut replays = Vec::new();
    let timed = Instant::now();
    while replays.is_empty() || timed.elapsed() < args.seconds {
        replays.push(checked_replay(&mut tally, &ops, &mut first));
    }
    // The stream is the one kind of cell here.
    let quiet: Vec<f64> = report::fastest_quarter(&replays)
        .into_iter()
        .map(|k| replays[k])
        .collect();
    let quiet_s = quiet.iter().sum::<f64>() / 1e9;
    let ms: Vec<f64> = quiet.iter().map(|ns| ns_to_ms(*ns)).collect();

    let mut metrics = Metrics::default();
    metrics.put("cells_per_s", ratio(ms.len() as f64, quiet_s), "1/s");
    metrics.put("cell_ms_p50", quantile(&ms, 0.5), "ms");
    metrics.put("cell_ms_p90", quantile(&ms, 0.9), "ms");
    metrics.put(
        "stream_ops_per_s",
        ratio((ms.len() * ops.len()) as f64, quiet_s),
        "1/s",
    );
    metrics.put("peak_rss_mb", report::peak_rss_mb(), "MB");
    metrics.put("setup_s", median(&setup_s), "s");
    let mut notes = vec![format!(
        "checker_stream: {} replays of {} ops, {} quiet (cell_ms samples), {}",
        replays.len(),
        stream::STREAM_OPS,
        ms.len(),
        setup_note(&setup_s)
    )];
    if let Some(d) = first {
        notes.push(stream_digest_line(args.seed, &d));
    }
    Outcome {
        tally,
        metrics,
        notes,
    }
}

fn stream_traced(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let warm = conformance::generate(args.seed.wrapping_sub(1), stream::STREAM_OPS);
    let _ = stream::replay(&warm);
    for solo in stream::Solo::ALL {
        let _ = stream::replay_solo(&warm, solo);
    }
    let ops = conformance::generate(args.seed, stream::STREAM_OPS);

    let mut first = None;
    // Per pass: the full replay, then each single-subject replay.
    let mut passes: Vec<[f64; 5]> = Vec::new();
    let timed = Instant::now();
    while passes.is_empty() || timed.elapsed() < args.seconds {
        let mut pass = [0.0; 5];
        pass[0] = checked_replay(&mut tally, &ops, &mut first);
        let want = first.expect("set by the replay above");
        for (i, solo) in stream::Solo::ALL.into_iter().enumerate() {
            let (ns, out) = stream::replay_solo(&ops, solo);
            pass[i + 1] = ns;
            let verdicts = (out.granted, out.denied);
            tally.record(if !out.is_clean() {
                Err(format!("{solo:?} replay diverged from the oracle"))
            } else if verdicts != (want.granted, want.denied) {
                Err(format!("{solo:?} replay: oracle verdicts {verdicts:?}"))
            } else {
                Ok(())
            });
        }
        passes.push(pass);
    }

    let ns: Vec<Vec<f64>> = passes.iter().map(|p| p.to_vec()).collect();
    let quiet = report::quiet_cells(&ns);
    let mean = |i: usize| {
        let picked: Vec<f64> = ns
            .iter()
            .zip(&quiet)
            .filter(|(_, q)| q[i])
            .map(|(p, _)| p[i])
            .collect();
        ns_to_ms(picked.iter().sum::<f64>()) / picked.len() as f64
    };
    let [pass, oracle, uncached, cached, degrading] = [0, 1, 2, 3, 4].map(mean);
    let s = StreamLayers {
        oracle,
        uncached: uncached - oracle,
        cached: cached - oracle,
        degrading: degrading - oracle,
        unattributed: pass - (uncached + cached + degrading - 2.0 * oracle),
        pass,
        digest: first,
        ops: ops.len() as f64,
    };
    let attributed = s.pass - s.unattributed;
    let mut notes = vec![
        format!(
            "checker_stream: {} traced passes of {} ops, layers from the quiet quarter",
            passes.len(),
            ops.len()
        ),
        format!(
            "oracle + subjects sum to {attributed:.4} ms of {:.4} ms per replay ({:.2}%); unattributed {:.4} ms ({:.2}%)",
            s.pass,
            100.0 * ratio(attributed, s.pass),
            s.unattributed,
            100.0 * ratio(s.unattributed, s.pass)
        ),
        "tracing overhead: none (layers are timed by separate single-subject replays)".into(),
    ];
    if let Some(d) = &first {
        notes.insert(1, stream_digest_line(args.seed, d));
    }
    Outcome {
        metrics: layer_metrics(&KernelLayers::default(), &s),
        tally,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload checker_stream --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::CheckerStream);
        assert_eq!((a.seed, a.seconds.as_secs(), a.trace), (7, 10, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload variant_sweep --seed -1 --seconds 1 --trace 0",
            "--workload variant_sweep --seed 1 --seconds 0 --trace 0",
            "--workload variant_sweep --seed 1 --seconds 1 --trace 2",
            "--workload variant_sweep --seed 1 --seconds 1",
            "--workload variant_sweep --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn no_input_seed_recurs_across_passes_or_with_the_warm_up() {
        for w in [Workload::VariantSweep, Workload::Contended8Task] {
            let seed = 40;
            let mut seen = std::collections::HashMap::new();
            for (pass, pass_seed) in [(None, seed - 1)]
                .into_iter()
                .chain((0..6).map(|k| (Some(k), seed + k)))
            {
                for cell in w.cells(pass_seed) {
                    let tasks = if cell.variant.uses_accelerator() {
                        cell.tasks
                    } else {
                        1
                    };
                    for t in 0..tasks as u64 {
                        let key = (cell.bench, cell.seed + t);
                        let prev = seen.insert((key, cell.variant), pass);
                        assert!(prev.is_none(), "{w:?}: {key:?} recurs");
                        if w == Workload::VariantSweep {
                            continue;
                        }
                        // Contended: not even another variant reuses an input.
                        assert_eq!(seen.keys().filter(|(k, _)| *k == key).count(), 1);
                    }
                }
            }
        }
        // The five variants of a variant_sweep kernel share their seed.
        let cells = Workload::VariantSweep.cells(9);
        assert_eq!(cells.len(), 95);
        assert!(cells
            .chunks(5)
            .all(|c| c.iter().all(|x| x.seed == 9 && x.bench == c[0].bench)));
    }

    #[test]
    fn a_failed_cell_counts_against_the_fail_ratio() {
        let mut tally = Tally::default();
        assert_eq!(tally.record(Ok::<_, String>(1)), Some(1));
        assert_eq!(tally.record(Err::<u8, _>("planted".into())), None);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.fail_ratio(), 0.5);
    }

    #[test]
    fn fig10_check_passes_on_the_committed_golden() {
        let rows = golden::parse(
            &std::fs::read_to_string(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../crates/bench/tests/golden/fig10.json"
            ))
            .unwrap(),
        )
        .unwrap();
        // One row is enough to pin the seed and the variant order.
        let (bench, want) = rows[0];
        for (variant, want) in SystemVariant::ALL.into_iter().zip(want) {
            let cell = Cell {
                bench,
                variant,
                tasks: 1,
                seed: golden::FIGURE_SEED,
            };
            assert_eq!(cells::run_untraced(cell).unwrap().cycles, want, "{variant}");
        }
    }
}
