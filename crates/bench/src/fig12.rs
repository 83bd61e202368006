//! Figure 12 — entries required by the IOMMU vs the CapChecker.
//!
//! The IOMMU's entry count scales with buffer *sizes* (pages, at most one
//! buffer per page for equal protection granularity — the paper's
//! fairness rule); the CapChecker's scales only with buffer *count*.

use crate::render::table;
use ioprotect::Iommu;
use machsuite::{Benchmark, INSTANCES};

/// The IOMMU page size evaluated (4 kB).
pub const PAGE_SIZE: u64 = 4096;
/// Superpage size for the §6.4 discussion point ("this challenge may be
/// reduced by superpages… the IOMMU entries still scale with buffer
/// size").
pub const SUPERPAGE_SIZE: u64 = 64 * 1024;

/// One benchmark's entry requirements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntriesRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// Entries a 4 kB-page IOMMU needs (all instances).
    pub iommu_entries: u64,
    /// Entries a 64 kB-superpage IOMMU needs (all instances).
    pub iommu_superpage_entries: u64,
    /// Entries the CapChecker needs (all instances).
    pub capchecker_entries: u64,
}

/// Computes one row.
#[must_use]
pub fn row(bench: Benchmark) -> EntriesRow {
    let pages = |page: u64| -> u64 {
        bench
            .buffers()
            .iter()
            .map(|b| Iommu::entries_for_buffer(page, b.size))
            .sum()
    };
    let per_instance_caps = bench.buffers().len() as u64;
    EntriesRow {
        bench,
        iommu_entries: pages(PAGE_SIZE) * INSTANCES as u64,
        iommu_superpage_entries: pages(SUPERPAGE_SIZE) * INSTANCES as u64,
        capchecker_entries: per_instance_caps * INSTANCES as u64,
    }
}

/// All rows, computed on `threads` workers; any thread count produces
/// the same rows in the same order.
#[must_use]
pub fn rows(threads: usize) -> Vec<EntriesRow> {
    crate::fan_out(threads, Benchmark::ALL.len(), |i| row(Benchmark::ALL[i]))
}

/// Renders Figure 12, its benchmark cells computed on `threads` workers —
/// byte-identical output for any thread count.
#[must_use]
pub fn report(threads: usize) -> String {
    let table_rows: Vec<Vec<String>> = rows(threads)
        .into_iter()
        .map(|r| {
            vec![
                r.bench.name().to_owned(),
                r.iommu_entries.to_string(),
                r.iommu_superpage_entries.to_string(),
                r.capchecker_entries.to_string(),
                format!(
                    "{:.2}",
                    r.iommu_entries as f64 / r.capchecker_entries as f64
                ),
            ]
        })
        .collect();
    format!(
        "Figure 12: protection entries required (IOMMU page size = 4 kB,\n\
         superpage = 64 kB, at most one buffer per page for equal granularity)\n\n{}",
        table(
            &[
                "Benchmark",
                "IOMMU 4k",
                "IOMMU 64k",
                "CapChecker",
                "4k/CapChecker"
            ],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capchecker_needs_no_more_entries_than_the_iommu() {
        for r in rows(1) {
            assert!(
                r.capchecker_entries <= r.iommu_entries,
                "{}: {} vs {}",
                r.bench,
                r.capchecker_entries,
                r.iommu_entries
            );
        }
    }

    #[test]
    fn big_buffer_benchmarks_show_the_gap() {
        // nw has two 65 kB+ buffers: 17 pages each vs 1 capability each.
        let nw = row(Benchmark::Nw);
        assert!(nw.iommu_entries as f64 / nw.capchecker_entries as f64 > 3.0);
        // aes is one tiny buffer: both need a single entry per instance.
        let aes = row(Benchmark::Aes);
        assert_eq!(aes.iommu_entries, aes.capchecker_entries);
    }

    #[test]
    fn every_row_fits_the_256_entry_prototype() {
        for r in rows(1) {
            assert!(r.capchecker_entries <= 256, "{}", r.bench);
        }
    }

    #[test]
    fn superpages_reduce_but_never_beat_the_capchecker() {
        for r in rows(1) {
            assert!(r.iommu_superpage_entries <= r.iommu_entries, "{}", r.bench);
            assert!(
                r.capchecker_entries <= r.iommu_superpage_entries,
                "{}",
                r.bench
            );
        }
        // And for a workload bigger than a superpage, the size-scaling
        // persists — the §6.4 point that superpages only defer the blowup.
        use ioprotect::Iommu;
        assert_eq!(Iommu::entries_for_buffer(SUPERPAGE_SIZE, 10 << 20), 160);
    }
}
