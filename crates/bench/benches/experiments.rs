//! Criterion benches: one group per table/figure, timing the simulation
//! pipeline that regenerates it (representative subsets keep wall time
//! reasonable; the binaries produce the full outputs).

use capchecker::SystemVariant;
use capcheri_bench::{fig10, fig11, fig12, fig7, fig8, fig9, runner, table1, table2, table3};
use criterion::{criterion_group, criterion_main, Criterion};
use machsuite::Benchmark;
use std::hint::black_box;

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    g.bench_function("table1_properties", |b| {
        b.iter(|| black_box(table1::report()))
    });
    g.bench_function("table2_buffers", |b| b.iter(|| black_box(table2::report())));
    g.sample_size(10);
    g.bench_function("table3_attack_matrix", |b| {
        b.iter(|| black_box(table3::rows()))
    });
    g.finish();
}

fn bench_fig7(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_speedup");
    g.sample_size(10);
    for bench in [Benchmark::Aes, Benchmark::MdKnn, Benchmark::SpmvCrs] {
        g.bench_function(bench.name(), |b| b.iter(|| black_box(fig7::row(bench))));
    }
    g.finish();
}

fn bench_fig8(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_overhead");
    g.sample_size(10);
    for bench in [Benchmark::Aes, Benchmark::MdKnn, Benchmark::SortRadix] {
        g.bench_function(bench.name(), |b| b.iter(|| black_box(fig8::row(bench))));
    }
    g.finish();
}

fn bench_fig9(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_mixed");
    g.sample_size(10);
    g.bench_function("one_mixed_system", |b| b.iter(|| black_box(fig9::row(0))));
    g.finish();
}

fn bench_fig10(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_breakdown");
    g.sample_size(10);
    for bench in [Benchmark::GemmBlocked, Benchmark::Kmp] {
        g.bench_function(bench.name(), |b| b.iter(|| black_box(fig10::row(bench))));
    }
    g.finish();
}

fn bench_fig11(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_parallelism");
    g.sample_size(10);
    for tasks in [1usize, 8] {
        g.bench_function(format!("tasks_{tasks}"), |b| {
            b.iter(|| black_box(fig11::row(tasks)))
        });
    }
    g.finish();
}

fn bench_fig12(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_entries");
    g.bench_function("all_benchmarks", |b| b.iter(|| black_box(fig12::rows(1))));
    g.finish();
}

fn bench_simulator_core(c: &mut Criterion) {
    // The hot inner path behind every figure: a protected run.
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    g.bench_function("protected_run_sort_merge", |b| {
        b.iter(|| {
            black_box(runner::run_benchmark(
                Benchmark::SortMerge,
                SystemVariant::CheriCpuCheriAccel,
                1,
                42,
            ))
        })
    });
    g.finish();
}

criterion_group!(
    experiments,
    bench_tables,
    bench_fig7,
    bench_fig8,
    bench_fig9,
    bench_fig10,
    bench_fig11,
    bench_fig12,
    bench_simulator_core
);
criterion_main!(experiments);
