//! Exit-code contract of every `simulate` subcommand.
//!
//! CI tells three outcomes apart by exit status alone: 0 = every
//! property held, 1 = a property was violated (a red verdict), 2 = the
//! harness itself failed (bad invocation, unwritable output, a workload
//! that does not fit). A conflated code would let a broken harness
//! masquerade as a clean run — these tests pin each code end-to-end
//! through the real binary.

use std::process::Command;

fn simulate(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate binary runs")
}

/// A path no process can create a file at.
const UNWRITABLE: &str = "/nonexistent-dir/report.json";

/// `(argv, expected exit code)` for every subcommand: a clean run, a
/// flag it does not take, a value that does not parse, and an
/// unwritable output file where it writes one.
const CONTRACT: &[(&[&str], i32)] = &[
    // simulate <benchmark|all>
    (&["aes", "--variant", "ccpu"], 0),
    (&["aes", "--out", "x.json"], 2),
    (&["aes", "--tasks", "many"], 2),
    (&["aes", "--variant", "gpu"], 2),
    (&["aes", "--seed"], 2),
    (&["nosuch"], 2),
    (&[], 2),
    (&["all", "--trace-out", UNWRITABLE], 2),
    (&["aes", "--trace-out", UNWRITABLE], 2),
    // faults
    (&["faults", "--tasks", "4"], 0),
    (&["faults", "--out", "x.json"], 2),
    (&["faults", "--spec", "bogus:1"], 2),
    (&["faults", "--tasks", "-1"], 2),
    (&["faults", "--tasks", "4294967296"], 2),
    // conformance
    (&["conformance", "--ops", "50", "--seed", "7"], 0),
    (&["conformance", "--no-such-flag"], 2),
    (&["conformance", "--ops", "x"], 2),
    // verify
    (
        &["verify", "--depth", "3", "--tasks", "2", "--objects", "2"],
        0,
    ),
    (
        &[
            "verify",
            "--depth",
            "4",
            "--tasks",
            "2",
            "--objects",
            "2",
            "--planted-bug",
            "off-by-one",
        ],
        1,
    ),
    (&["verify", "--no-such-flag"], 2),
    (&["verify", "--depth", "not-a-number"], 2),
    (&["verify", "--tasks", "9"], 2),
    (&["verify", "--planted-bug", "other"], 2),
    (
        &[
            "verify",
            "--depth",
            "2",
            "--tasks",
            "2",
            "--objects",
            "2",
            "--json",
            "--out",
            UNWRITABLE,
        ],
        2,
    ),
    // analyze
    (&["analyze", "--trace-out", "x.json"], 2),
    (&["analyze", "--streams", "x"], 2),
    (
        &[
            "analyze",
            "--flow",
            "--streams",
            "1",
            "--ops",
            "50",
            "--out",
            UNWRITABLE,
        ],
        2,
    ),
    // profile
    (&["profile", "aes", "--variant", "ccpu"], 0),
    (&["profile"], 2),
    (&["profile", "aes", "--epochs", "2"], 2),
    (&["profile", "aes", "--threads", "x"], 2),
    (&["profile", "aes", "--out", UNWRITABLE], 2),
    // adapt
    (&["adapt", "aes", "--epochs", "1"], 0),
    (&["adapt", "campaign", "--tasks", "4"], 0),
    // A campaign's epochs follow from its task count.
    (&["adapt", "campaign", "--tasks", "4", "--epochs", "1"], 2),
    (&["adapt", "campaign", "--tasks", "4294967296"], 2),
    (&["adapt", "aes", "--variant", "ccpu"], 2),
    (&["adapt", "aes", "--epochs", "-1"], 2),
    (&["adapt", "aes", "--epochs", "1", "--out", UNWRITABLE], 2),
    // A workload that does not fit the fixed 256-entry table is a
    // harness failure (adapt runs the cache-backed checker, which holds
    // any number of capabilities).
    (&["aes", "--tasks", "300"], 2),
    (&["profile", "aes", "--tasks", "300"], 2),
];

#[test]
fn every_subcommand_keeps_the_exit_code_contract() {
    for (args, code) in CONTRACT {
        let out = simulate(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*code), "args {args:?}: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "args {args:?} panicked: {stderr}"
        );
        if *code != 0 {
            assert!(!stderr.trim().is_empty(), "args {args:?}: silent failure");
        }
    }
}

#[test]
fn a_workload_that_does_not_fit_fails_in_one_line() {
    let out = simulate(&["aes", "--tasks", "300"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("does not fit"), "{stderr}");
}

#[test]
fn verify_violation_is_loud_on_stderr() {
    let out = simulate(&[
        "verify",
        "--depth",
        "4",
        "--tasks",
        "2",
        "--objects",
        "2",
        "--planted-bug",
        "off-by-one",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("verify FAILED"),
        "violation must be loud on stderr: {stderr}"
    );
    let out = simulate(&["verify", "--depth", "3", "--tasks", "2", "--objects", "2"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("verdict: clean"), "{stdout}");
}

#[test]
fn verify_json_report_is_byte_identical_across_threads() {
    let run = |threads: &str| {
        let out = simulate(&[
            "verify",
            "--depth",
            "4",
            "--tasks",
            "2",
            "--objects",
            "2",
            "--threads",
            threads,
            "--json",
        ]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        out.stdout
    };
    let sequential = run("1");
    let stdout = String::from_utf8(sequential.clone()).unwrap();
    assert!(
        stdout.contains("\"schema\":\"capcheri.modelcheck.v1\""),
        "{stdout}"
    );
    for t in ["2", "4"] {
        assert_eq!(run(t), sequential, "threads={t}");
    }
}

/// The golden document `tests/golden.rs` pins for `report`.
fn golden_doc(name: &str, kind: &str, report: &str) -> String {
    let mut w = obs::json::JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("capcheri.golden.v1");
    w.key("name");
    w.string(name);
    w.key("kind");
    w.string(kind);
    w.key("report");
    w.string(report);
    w.end_object();
    let mut doc = w.finish();
    doc.push('\n');
    doc
}

/// The report goldens pin is the one the CLI prints: stdout (less its
/// one trailing newline) or the `--trace-out` file, byte for byte.
#[test]
fn cli_reports_match_their_golden_snapshots() {
    let dir = std::env::temp_dir().join(format!("capcheri-cli-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("chrome_aes.json");
    let trace_arg = trace.to_str().unwrap();
    let cases: [(&str, &str, &[&str]); 8] = [
        ("bench_report", "report", &["all", "--tasks", "2", "--json"]),
        (
            "bench_report_ccpu",
            "report",
            &["all", "--variant", "ccpu", "--json"],
        ),
        ("profile", "report", &["profile", "all", "--json"]),
        (
            "profile_ccpu",
            "report",
            &["profile", "all", "--variant", "ccpu", "--json"],
        ),
        (
            "fault_campaign",
            "report",
            &[
                "faults", "--spec", "all:0.8", "--tasks", "64", "--seed", "51966", "--json",
            ],
        ),
        (
            "fault_campaign_degrade",
            "report",
            &[
                "faults",
                "--spec",
                "cache-corrupt:0.5",
                "--tasks",
                "24",
                "--seed",
                "7",
                "--json",
            ],
        ),
        (
            "adapt_campaign_hang",
            "report",
            &[
                "adapt",
                "campaign",
                "--spec",
                "engine-hang:0.4",
                "--tasks",
                "32",
                "--json",
            ],
        ),
        (
            "chrome_aes",
            "trace",
            &["aes", "--tasks", "2", "--trace-out", trace_arg],
        ),
    ];
    for (name, kind, args) in cases {
        let out = simulate(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        let report = if kind == "trace" {
            std::fs::read_to_string(&trace).unwrap()
        } else {
            let stdout = String::from_utf8(out.stdout).unwrap();
            stdout.strip_suffix('\n').unwrap_or(&stdout).to_owned()
        };
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{name}.json"));
        let pinned = std::fs::read_to_string(&path).unwrap();
        assert!(
            pinned == golden_doc(name, kind, &report),
            "{args:?}: CLI output differs from {}",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
