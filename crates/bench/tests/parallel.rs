//! Determinism pins for the parallel run harness: every figure, table,
//! and campaign report must be **byte-identical** for any worker count.
//!
//! The pool's contract (see `perf::parallel_map`) is that results merge
//! in cell-index order regardless of which worker computed what, so a
//! sequential run (`threads = 1`) is the reference for every other count.

use capcheri_bench::{fig10, fig11, fig12, fig7, fig8, fig9};
use std::process::Command;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

#[test]
fn fig7_report_is_byte_identical_for_any_thread_count() {
    let sequential = fig7::report(1);
    for t in THREAD_COUNTS {
        assert_eq!(fig7::report(t), sequential, "threads={t}");
    }
}

#[test]
fn fig8_report_is_byte_identical_for_any_thread_count() {
    let sequential = fig8::report(1);
    for t in THREAD_COUNTS {
        assert_eq!(fig8::report(t), sequential, "threads={t}");
    }
}

#[test]
fn fig9_report_is_byte_identical_for_any_thread_count() {
    let sequential = fig9::report(1);
    for t in THREAD_COUNTS {
        assert_eq!(fig9::report(t), sequential, "threads={t}");
    }
}

#[test]
fn fig10_report_is_byte_identical_for_any_thread_count() {
    let sequential = fig10::report(1);
    for t in THREAD_COUNTS {
        assert_eq!(fig10::report(t), sequential, "threads={t}");
    }
}

#[test]
fn fig11_report_is_byte_identical_for_any_thread_count() {
    let sequential = fig11::report(1);
    for t in THREAD_COUNTS {
        assert_eq!(fig11::report(t), sequential, "threads={t}");
    }
}

#[test]
fn fig12_report_is_byte_identical_for_any_thread_count() {
    let sequential = fig12::report(1);
    for t in THREAD_COUNTS {
        assert_eq!(fig12::report(t), sequential, "threads={t}");
    }
}

#[test]
fn survival_table_is_identical_for_any_thread_count() {
    let sequential = threatbench::recovery::survival_table(8, 0x5EED, 1);
    for t in THREAD_COUNTS {
        assert_eq!(
            threatbench::recovery::survival_table(8, 0x5EED, t),
            sequential,
            "threads={t}"
        );
    }
}

/// End-to-end: the `simulate` binary's stdout — table and JSON modes —
/// must not change with `--threads`.
#[test]
fn simulate_binary_output_is_byte_identical_across_threads() {
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(["all", "--tasks", "2", "--seed", "99"])
            .args(extra)
            .env_remove(perf::THREADS_ENV)
            .output()
            .expect("simulate runs");
        assert!(out.status.success(), "{:?}", out);
        out.stdout
    };
    let table_seq = run(&["--threads", "1"]);
    let json_seq = run(&["--threads", "1", "--json"]);
    for t in ["2", "4", "8"] {
        assert_eq!(run(&["--threads", t]), table_seq, "table, threads={t}");
        assert_eq!(
            run(&["--threads", t, "--json"]),
            json_seq,
            "json, threads={t}"
        );
    }
}
