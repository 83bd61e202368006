//! # capcheri-bench — the paper's evaluation, regenerated
//!
//! One module per table/figure of the evaluation section, each exposing a
//! typed `rows(threads)`/data function and a `report(threads)` string
//! that prints the same rows/series the paper shows, byte-identical at
//! any thread count (tables take no thread count). The matching binaries
//! (`cargo run -p capcheri-bench --release --bin <name>`) are thin wrappers:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table 1 — qualitative mechanism comparison |
//! | `table2` | Table 2 — benchmark buffer counts and sizes |
//! | `table3` | Table 3 — CWE weakness matrix (runs the attacks) |
//! | `fig7_speedup` | Figure 7 — accelerator speedup per benchmark |
//! | `fig8_overhead` | Figure 8 — CapChecker performance/area/power overhead |
//! | `fig9_mixed` | Figure 9 — 20 mixed-accelerator systems |
//! | `fig10_breakdown` | Figure 10 — five system configurations per benchmark |
//! | `fig11_parallelism` | Figure 11 — gemm_ncubed parallelism sweep |
//! | `fig12_entries` | Figure 12 — IOMMU vs CapChecker entry counts |
//! | `all_experiments` | everything above, in order |
//!
//! Beyond the paper's artifacts, [`staticreport`] reports the static
//! capability-flow analysis and the cycle payoff of check elision
//! (`simulate analyze`).
//!
//! Simulations are deterministic: the same seeds produce the same rows.

#![warn(missing_docs)]

pub mod adapt;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod flowreport;
pub mod profile;
pub mod render;
pub mod runner;
pub mod staticreport;
pub mod table1;
pub mod table2;
pub mod table3;

/// Runs `cells` independent experiment cells on a pool of `threads`
/// scoped workers and returns the results in cell order — the figure
/// modules' parallel backbone (see [`perf::parallel_map`] for the
/// determinism contract). A worker panic resumes on the caller, so
/// figure generation keeps plain panic semantics.
#[must_use]
pub fn fan_out<T, F>(threads: usize, cells: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    perf::parallel_map(threads, cells, f).unwrap_or_else(|p| p.resume())
}

/// Geometric mean of strictly positive samples.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        let g = geomean(&[1.0, 100.0]);
        assert!(g > 1.0 && g < 100.0);
        assert!((g - 10.0).abs() < 1e-9);
    }
}
