//! Figure 10 — wall-clock breakdown across the five system
//! configurations, per benchmark.
//!
//! The paper's observations this reproduces: adding the CapChecker
//! (`ccpu+accel` → `ccpu+caccel`) costs less than adding CHERI to the CPU
//! (`cpu` → `ccpu`) for most benchmarks, and `gemm_blocked` actually runs
//! *faster* on the CHERI CPU thanks to the 128-bit capability-copy
//! instruction.

use crate::render::{pct, speedup, table};
use crate::runner;
use capchecker::SystemVariant;
use hetsim::Cycles;
use machsuite::Benchmark;

/// One benchmark's cycles under all five configurations.
#[derive(Clone, Copy, Debug)]
pub struct BreakdownRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// Cycles in [`SystemVariant::ALL`] order.
    pub cycles: [Cycles; 5],
}

impl BreakdownRow {
    /// Cycles under one configuration.
    #[must_use]
    pub fn of(&self, variant: SystemVariant) -> Cycles {
        let idx = SystemVariant::ALL
            .iter()
            .position(|v| *v == variant)
            .expect("known variant");
        self.cycles[idx]
    }

    /// CHERI-on-CPU overhead: `ccpu` vs `cpu`.
    #[must_use]
    pub fn cheri_cpu_overhead(&self) -> f64 {
        let cpu = self.of(SystemVariant::Cpu) as f64;
        (self.of(SystemVariant::CheriCpu) as f64 - cpu) / cpu
    }

    /// CapChecker overhead: `ccpu+caccel` vs `ccpu+accel`.
    #[must_use]
    pub fn checker_overhead(&self) -> f64 {
        let base = self.of(SystemVariant::CheriCpuAccel) as f64;
        (self.of(SystemVariant::CheriCpuCheriAccel) as f64 - base) / base
    }
}

/// Computes one row.
#[must_use]
pub fn row(bench: Benchmark) -> BreakdownRow {
    let mut cycles = [0; 5];
    for (i, v) in SystemVariant::ALL.into_iter().enumerate() {
        cycles[i] = runner::cycles(bench, v);
    }
    BreakdownRow { bench, cycles }
}

/// All rows, computed on `threads` workers; any thread count produces
/// the same rows in the same order.
#[must_use]
pub fn rows(threads: usize) -> Vec<BreakdownRow> {
    crate::fan_out(threads, Benchmark::ALL.len(), |i| row(Benchmark::ALL[i]))
}

/// Renders Figure 10, its benchmark cells computed on `threads` workers —
/// byte-identical output for any thread count.
#[must_use]
pub fn report(threads: usize) -> String {
    let mut headers = vec!["Benchmark"];
    headers.extend(SystemVariant::ALL.iter().map(|v| v.label()));
    headers.extend(["cCPU ovh", "CapChk ovh", "Speedup"]);
    let table_rows: Vec<Vec<String>> = rows(threads)
        .into_iter()
        .map(|r| {
            let mut row = vec![r.bench.name().to_owned()];
            row.extend(r.cycles.iter().map(Cycles::to_string));
            row.push(pct(r.cheri_cpu_overhead()));
            row.push(pct(r.checker_overhead()));
            row.push(speedup(
                r.of(SystemVariant::CheriCpu) as f64
                    / r.of(SystemVariant::CheriCpuCheriAccel) as f64,
            ));
            row
        })
        .collect();
    format!(
        "Figure 10: wall-clock cycles under the five system configurations\n\n{}",
        table(&headers, &table_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_blocked_is_faster_on_the_cheri_cpu() {
        let r = row(Benchmark::GemmBlocked);
        assert!(
            r.of(SystemVariant::CheriCpu) < r.of(SystemVariant::Cpu),
            "capability copies should win: ccpu {} vs cpu {}",
            r.of(SystemVariant::CheriCpu),
            r.of(SystemVariant::Cpu)
        );
    }

    #[test]
    fn checker_cheaper_than_cpu_cheri_for_most() {
        let mut cheaper = 0;
        let sample = [
            Benchmark::Aes,
            Benchmark::GemmNcubed,
            Benchmark::FftStrided,
            Benchmark::Viterbi,
            Benchmark::SortMerge,
            Benchmark::Kmp,
        ];
        for b in sample {
            let r = row(b);
            if r.checker_overhead() <= r.cheri_cpu_overhead() {
                cheaper += 1;
            }
        }
        assert!(
            cheaper * 2 > sample.len(),
            "only {cheaper}/{} cheaper",
            sample.len()
        );
    }

    #[test]
    fn accelerator_variants_agree_with_cpu_variants_on_work() {
        // cpu+accel vs ccpu+accel differ only in CPU-side effects, which
        // are absent in accelerator timing: equal cycles.
        let r = row(Benchmark::SpmvCrs);
        assert_eq!(
            r.of(SystemVariant::CpuAccel),
            r.of(SystemVariant::CheriCpuAccel)
        );
    }
}
