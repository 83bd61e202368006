//! perf-smoke — the tracked performance baseline of the simulator.
//!
//! Measures the three numbers the perf work of this repo is judged by and
//! compares them against the committed `BENCH_simulator.json`:
//!
//! 1. **Revocation sweep ns/op** — the indexed sweep
//!    ([`capchecker::sweep_revoked_many`]) against the O(memory) naive
//!    reference, over a populated tag map.
//! 2. **Benchmark cells/sec** — end-to-end [`runner::run_benchmark`]
//!    throughput across the MachSuite suite.
//! 3. **Figure 8 wall time** — the full figure generator, sequential and
//!    on four workers.
//!
//! ```text
//! cargo bench -p capcheri-bench --bench perf_smoke               # print
//! cargo bench ... --bench perf_smoke -- --save FILE             # refresh
//! cargo bench ... --bench perf_smoke -- --check BENCH_simulator.json
//! ```
//!
//! `--check` applies a deliberately generous 2× regression gate: CI boxes
//! are noisy, and the gate exists to catch algorithmic regressions (a
//! sweep going O(memory) again), not scheduler jitter.

use capchecker::{sweep_revoked_many, sweep_revoked_naive, SystemVariant};
use capcheri_bench::{fig8, runner};
use cheri::{Capability, Perms};
use criterion::{black_box, Criterion};
use hetsim::TaggedMemory;
use machsuite::Benchmark;
use std::process::ExitCode;
use std::time::Instant;

/// Physical memory for the sweep microbench — big enough that the naive
/// O(memory) walk visibly dominates the indexed walk.
const SWEEP_MEM_BYTES: u64 = 8 << 20;
/// Live spilled capabilities during the sweep.
const SWEEP_CAPS: u64 = 512;

fn spill(mem: &mut TaggedMemory, at: u64, base: u64, len: u64) {
    let cap = Capability::root()
        .set_bounds(base, len)
        .unwrap()
        .and_perms(Perms::RW)
        .unwrap();
    mem.write_capability(at, cap.compress(), true).unwrap();
}

/// A memory with [`SWEEP_CAPS`] spilled capabilities, none of which
/// intersect the probed region — so a sweep is pure scan cost and leaves
/// the memory unchanged, making iterations identical.
fn sweep_memory() -> (TaggedMemory, Vec<(u64, u64)>) {
    let mut mem = TaggedMemory::new(SWEEP_MEM_BYTES);
    for i in 0..SWEEP_CAPS {
        spill(&mut mem, 0x1000 + i * 16, 0x10_0000 + i * 0x100, 0x80);
    }
    // Probe regions beyond every spilled capability's authority.
    (mem, vec![(0x70_0000, 0x1000), (0x7f_0000, 0x100)])
}

/// One measured baseline metric.
struct Metric {
    name: &'static str,
    value: f64,
    /// `true` when bigger is better (throughput), `false` for times.
    higher_is_better: bool,
}

fn measure() -> Vec<Metric> {
    let mut c = Criterion::default().configure_from_args();

    let (mut mem, regions) = sweep_memory();
    let mut g = c.benchmark_group("sweep");
    g.bench_function("indexed", |b| {
        b.iter(|| black_box(sweep_revoked_many(&mut mem, &regions)))
    });
    g.bench_function("naive", |b| {
        b.iter(|| black_box(sweep_revoked_naive(&mut mem, &regions)))
    });
    g.finish();
    let ns = |label: &str| {
        c.samples()
            .iter()
            .find(|s| s.label() == label)
            .expect("sample recorded")
            .nanos_per_iter
    };
    let sweep_indexed = ns("sweep/indexed");
    let sweep_naive = ns("sweep/naive");

    let cells = Benchmark::ALL.len();
    // One untimed warm-up pass, as the criterion groups above do for the
    // sweeps: the first pass pays one-off page faults on the trace and
    // event-wheel arenas (recycled thereafter), which is allocator noise,
    // not simulator throughput.
    for bench in Benchmark::ALL {
        black_box(runner::run_benchmark(
            bench,
            SystemVariant::CheriCpuCheriAccel,
            1,
            0xC0DE,
        ));
    }
    let start = Instant::now();
    for bench in Benchmark::ALL {
        black_box(runner::run_benchmark(
            bench,
            SystemVariant::CheriCpuCheriAccel,
            1,
            0xC0DE,
        ));
    }
    let cells_per_sec = cells as f64 / start.elapsed().as_secs_f64();

    let start = Instant::now();
    black_box(fig8::report(1));
    let fig8_seq_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    black_box(fig8::report(4));
    let fig8_par_ms = start.elapsed().as_secs_f64() * 1e3;

    vec![
        Metric {
            name: "sweep_indexed_ns_per_op",
            value: sweep_indexed,
            higher_is_better: false,
        },
        Metric {
            name: "sweep_naive_ns_per_op",
            value: sweep_naive,
            higher_is_better: false,
        },
        Metric {
            name: "bench_cells_per_sec",
            value: cells_per_sec,
            higher_is_better: true,
        },
        Metric {
            name: "fig8_wall_ms_threads1",
            value: fig8_seq_ms,
            higher_is_better: false,
        },
        Metric {
            name: "fig8_wall_ms_threads4",
            value: fig8_par_ms,
            higher_is_better: false,
        },
    ]
}

fn to_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{\n  \"schema\": \"capcheri.perf_baseline.v1\",\n  \"metrics\": {");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {:.1}", m.name, m.value));
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Pulls `"name": <number>` out of the baseline file — the schema is ours
/// and flat, so a scan beats dragging in a JSON parser.
fn baseline_value(doc: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let at = doc.find(&key)? + key.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn check(metrics: &[Metric], baseline_path: &std::path::Path) -> ExitCode {
    let doc = match std::fs::read_to_string(baseline_path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read baseline {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for m in metrics {
        let Some(base) = baseline_value(&doc, m.name) else {
            eprintln!("FAIL {:<26} missing from baseline", m.name);
            failed = true;
            continue;
        };
        // Generous 2× gate in the metric's bad direction.
        let ok = if m.higher_is_better {
            m.value >= base / 2.0
        } else {
            m.value <= base * 2.0
        };
        let verdict = if ok { "ok  " } else { "FAIL" };
        println!(
            "{verdict} {:<26} measured {:>14.1}  baseline {:>14.1}",
            m.name, m.value, base
        );
        failed |= !ok;
    }
    if failed {
        eprintln!("perf-smoke: regression beyond the 2x gate (see FAIL lines)");
        ExitCode::FAILURE
    } else {
        println!("perf-smoke: all metrics within the 2x gate");
        ExitCode::SUCCESS
    }
}

/// Resolves `path` against the workspace root when relative — cargo runs
/// benches with the *package* directory as cwd, but the baseline lives at
/// the repo root.
fn from_root(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(p)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `cargo bench` appends `--bench`; ignore flags we don't own.
    let value_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let metrics = measure();
    let json = to_json(&metrics);
    print!("{json}");
    if let Some(path) = value_after("--save") {
        let path = from_root(&path);
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("saved {}", path.display());
    }
    if let Some(path) = value_after("--check") {
        return check(&metrics, &from_root(&path));
    }
    ExitCode::SUCCESS
}
