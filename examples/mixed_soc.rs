//! A Figure-9-style SoC: eight different accelerators behind one
//! CapChecker, all tasks live at once, sharing the interconnect.
//!
//! Run with: `cargo run --release --example mixed_soc`

use cheri_hetero::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mix = [
        Benchmark::Aes,
        Benchmark::FftTranspose,
        Benchmark::SortRadix,
        Benchmark::SpmvCrs,
        Benchmark::Kmp,
        Benchmark::Stencil3d,
        Benchmark::MdKnn,
        Benchmark::Viterbi,
    ];

    let mut sys = HeteroSystem::new(SystemConfig::default());
    for bench in &mix {
        sys.add_fus(bench.name(), 1);
    }

    // Allocate everything up front: the capability table holds all of it.
    let mut tasks = Vec::new();
    for (i, bench) in mix.iter().enumerate() {
        let id = sys.allocate_task(
            &TaskRequest::accel(format!("{bench}#{i}"), bench.name())
                .rw_buffers(bench.buffers().iter().map(|b| b.size)),
        )?;
        for (obj, image) in bench.init(0x900D + i as u64).iter().enumerate() {
            sys.write_buffer(id, obj, 0, image)?;
        }
        tasks.push((id, *bench));
    }
    println!(
        "capability table: {} entries in use (of {})",
        sys.protection_entries(),
        sys.checker().expect("CapChecker present").config().entries
    );

    for (id, bench) in &tasks {
        let outcome = sys.run_accel_task(*id, |eng| bench.kernel(eng))?;
        let trace = sys.trace(*id)?.expect("ran");
        println!(
            "{:<14} completed={} mem_bytes={:>8} compute_units={:>9}",
            bench.name(),
            outcome.completed(),
            trace.mem_bytes(),
            trace.compute_units()
        );
    }

    let stats = sys.checker().expect("CapChecker present").stats();
    println!(
        "\nCapChecker: {} requests granted, {} denied, {} capabilities installed",
        stats.granted, stats.denied, stats.installs
    );

    for (id, _) in tasks {
        let report = sys.deallocate_task(id)?;
        assert!(report.exception.is_none());
    }
    println!(
        "all tasks deallocated; table entries in use: {}",
        sys.protection_entries()
    );
    Ok(())
}
