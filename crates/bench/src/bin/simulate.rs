//! `simulate` — run any benchmark under any system configuration.
//!
//! A small operator tool over the same harness the figures use. Run it
//! with no arguments for the synopsis of every subcommand and flag.
//!
//! `--threads N` fans independent benchmark cells out over a scoped
//! worker pool (default: `CAPCHERI_THREADS` or the machine's available
//! parallelism). Results are merged in benchmark order, so every output
//! — table, `--json` report, `--trace-out` file — is byte-identical for
//! any thread count.
//!
//! `--json` replaces the table with a machine-readable report on the
//! `capcheri.bench_report.v1` schema; `--trace-out` writes a Chrome
//! trace-event file (load it at <https://ui.perfetto.dev>). Both are
//! byte-deterministic for a fixed benchmark, variant, task count, and
//! seed.
//!
//! The `faults` subcommand runs a deterministic fault-injection campaign
//! against the recovering driver. `--spec` takes a declarative fault
//! spec — `none`, `all:<rate>`, or `kind:rate,...` over the kinds
//! `tag-flip`, `rogue-dma`, `garbled-dma`, `engine-hang`, `bus-stall`,
//! `dropped-beat`, `cache-corrupt` — and `--json` emits the
//! `capcheri.fault_campaign.v1` report, byte-identical for a fixed spec,
//! seed, and task count.
//!
//! The `conformance` subcommand replays a seeded op stream through every
//! checker implementation and the golden oracle, diffing each verdict,
//! exception code, and the final tag state (see the `conformance`
//! crate). `--json` emits the `capcheri.conformance.v1` report; a
//! divergent run prints a shrunk, ready-to-paste minimal reproducer.
//!
//! The `verify` subcommand model-checks the scaled-down checker model
//! exhaustively to `--depth` (see the `capcheri-mc` crate) and emits the
//! `capcheri.modelcheck.v1` report with `--json`, byte-identical for any
//! `--threads` value.
//!
//! The `profile` subcommand reruns a benchmark with the hierarchical
//! span profiler and check attribution attached and prints where every
//! simulated cycle went — the span tree, profiler histograms, and hot
//! `(task, object)` check pairs. `--json` emits the
//! `capcheri.profile.v1` report, which serializes only cycle-domain
//! quantities and is therefore byte-identical for any `--threads`
//! value.
//!
//! The `adapt` subcommand closes the loop: the online adaptive policy
//! controller drives real runs. With a benchmark (or `all`) it runs
//! `--epochs` epochs under the cache-backed checker, feeding the cache's
//! stall signals back into the controller so Fine ⇄ Coarse mode switches
//! take effect on the next epoch. With the `campaign` pseudo-target it
//! reruns the fault campaign with the controller in charge of
//! degradation, probationary re-promotion, and quarantine release; a
//! campaign has one epoch per `epoch_tasks` tasks, so it refuses
//! `--epochs`.
//! `--json` emits the `capcheri.adapt.v1` report; decisions carry their
//! epoch, rule, raw inputs, and hysteresis state, and the bytes are
//! identical for any `--threads` value.
//!
//! The `analyze` subcommand runs the static capability-flow analyzer
//! over every benchmark configuration and reports the proved-safe ports,
//! over-privileged default grants, and the measured cycle payoff of
//! eliding the proved checks (`capcheri.staticreport.v1` with `--json`).
//! `--streams N` additionally analyzes N seeded conformance op streams
//! and *verifies* each verdict map by replaying the elided checkers
//! against the golden oracle — an unsound map is a hard failure.
//! `--lint` runs the repository lint pass (nondeterminism hazards,
//! panic-in-hot-path, nd-hashmap-iter, unsafe-audit) and fails on any
//! finding. `--flow` switches to the incremental dataflow engine's
//! report: barrier-delimited segment verdicts, the re-analysis work
//! ratio under grant churn, and provenance flow findings
//! (`capcheri.flowreport.v1` with `--json`); `--incremental` does the
//! same through the caching engine and asserts incremental ≡
//! from-scratch — the emitted bytes are identical either way, so CI
//! `cmp`s the two files. Each segment's verdict map is replayed through
//! the elided checkers against the golden oracle; a divergence fails
//! the run.
//!
//! `--out FILE` writes the report to a file, byte for byte; on stdout a
//! report ends in exactly one newline.
//!
//! Exit status: 0 = clean; 1 = a property was violated (a conformance
//! divergence, a model-check violation, an unsafe or unsound analysis, a
//! lint finding, a benign kernel denied); 2 = the harness failed (a bad
//! flag or value, an unwritable `--out` or `--trace-out`, a workload
//! that does not fit the system).
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p capcheri-bench --bin simulate -- gemm_ncubed --tasks 4
//! cargo run --release -p capcheri-bench --bin simulate -- all --variant ccpu
//! cargo run --release -p capcheri-bench --bin simulate -- faults --spec all:0.8 --tasks 64
//! cargo run --release -p capcheri-bench --bin simulate -- conformance --seed 1 --ops 10000
//! ```

use capchecker::{run_adaptive_campaign, run_campaign, AdaptConfig, CampaignConfig, SystemVariant};
use capcheri_bench::adapt::{self, AdaptBenchReport};
use capcheri_bench::profile::{self, ProfileReport};
use capcheri_bench::runner::{self, RunError, RunSpec};
use capcheri_bench::{flowreport, staticreport};
use capcheri_mc::{ExploreConfig, PlantedBug};
use hetsim::FaultSpec;
use machsuite::Benchmark;
use obs::report::{reports_to_json, BenchReport};
use std::fmt::{Display, Write as _};
use std::io::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

fn usage() -> String {
    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    format!(
        "usage: simulate <benchmark|all> [--variant cpu|ccpu|cpu+accel|ccpu+accel|ccpu+caccel]\n\
         \x20               [--tasks N] [--seed S] [--threads N] [--json] [--trace-out FILE]\n\
         \x20      simulate faults [--spec none|all:RATE|kind:RATE,...] [--tasks N] [--seed S]\n\
         \x20               [--fus N] [--json]\n\
         \x20      simulate conformance [--seed S] [--ops N] [--json]\n\
         \x20      simulate verify [--depth N] [--tasks N] [--objects N] [--threads N]\n\
         \x20               [--planted-bug off-by-one] [--json] [--out FILE]\n\
         \x20      simulate analyze [--lint] [--flow | --incremental] [--streams N] [--ops N]\n\
         \x20               [--seed S] [--threads N] [--json] [--out FILE]\n\
         \x20      simulate profile <benchmark|all> [--variant V] [--tasks N] [--seed S]\n\
         \x20               [--threads N] [--json] [--out FILE]\n\
         \x20      simulate adapt <benchmark|all|campaign> [--tasks N] [--seed S] [--spec SPEC]\n\
         \x20               [--fus N] [--threads N] [--json] [--out FILE]\n\
         \x20               [--epochs N (benchmarks only)]\n\n\
         benchmarks: {}\n\
         fault kinds: {}",
        names.join(", "),
        obs::FaultKind::ALL
            .iter()
            .map(|k| k.label())
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// Why an invocation did not end clean.
#[derive(Debug)]
enum Failure {
    /// A property was violated (exit 1).
    Violated(String),
    /// The harness itself failed (exit 2).
    Harness(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Harness(msg)
    }
}

/// A run that could not finish: a denied benign kernel is a violated
/// property, anything else a harness failure.
fn failed(bench: Benchmark, e: &RunError) -> Failure {
    let msg = format!("{bench}: {e}");
    match e {
        RunError::Denied(_) => Failure::Violated(msg),
        _ => Failure::Harness(msg),
    }
}

/// What the first argument may name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Target {
    /// Nothing: flags start right away.
    None,
    /// A benchmark or `all`.
    Benches,
    /// A benchmark, `all`, or the `campaign` pseudo-target.
    BenchesOrCampaign,
}

/// One subcommand: its name, what it targets, the flags it accepts, and
/// what it runs.
struct Command {
    name: &'static str,
    target: Target,
    flags: &'static [&'static str],
    run: fn(&Args) -> Result<(), Failure>,
}

/// `simulate <benchmark|all> ...` — the default when no subcommand is
/// named.
const RUN: Command = Command {
    name: "run",
    target: Target::Benches,
    flags: &[
        "--variant",
        "--tasks",
        "--seed",
        "--threads",
        "--json",
        "--trace-out",
    ],
    run: run_cells,
};

const COMMANDS: [Command; 6] = [
    Command {
        name: "faults",
        target: Target::None,
        flags: &["--spec", "--tasks", "--seed", "--fus", "--json"],
        run: run_faults,
    },
    Command {
        name: "conformance",
        target: Target::None,
        flags: &["--seed", "--ops", "--json"],
        run: run_conformance,
    },
    Command {
        name: "verify",
        target: Target::None,
        flags: &[
            "--depth",
            "--tasks",
            "--objects",
            "--threads",
            "--planted-bug",
            "--json",
            "--out",
        ],
        run: run_verify,
    },
    Command {
        name: "analyze",
        target: Target::None,
        flags: &[
            "--lint",
            "--flow",
            "--incremental",
            "--streams",
            "--ops",
            "--seed",
            "--threads",
            "--json",
            "--out",
        ],
        run: run_analyze,
    },
    Command {
        name: "profile",
        target: Target::Benches,
        flags: &[
            "--variant",
            "--tasks",
            "--seed",
            "--threads",
            "--json",
            "--out",
        ],
        run: run_profile,
    },
    Command {
        name: "adapt",
        target: Target::BenchesOrCampaign,
        flags: &[
            "--epochs",
            "--tasks",
            "--seed",
            "--spec",
            "--fus",
            "--threads",
            "--json",
            "--out",
        ],
        run: run_adapt,
    },
];

/// One parsed invocation: the targeted benchmarks (empty for `campaign`
/// and for untargeted subcommands) and the typed value of every flag
/// given — `None`/`false` for the rest, so each subcommand applies its
/// own defaults.
#[derive(Debug, Default)]
struct Args {
    benches: Vec<Benchmark>,
    variant: Option<SystemVariant>,
    tasks: Option<usize>,
    seed: Option<u64>,
    threads: Option<usize>,
    json: bool,
    out: Option<String>,
    trace_out: Option<String>,
    spec: Option<FaultSpec>,
    fus: Option<usize>,
    ops: Option<u64>,
    streams: Option<u64>,
    epochs: Option<u32>,
    depth: Option<u32>,
    objects: Option<usize>,
    planted: Option<PlantedBug>,
    lint: bool,
    flow: bool,
    incremental: bool,
}

impl Args {
    fn threads(&self) -> usize {
        self.threads.unwrap_or_else(perf::auto_threads)
    }
}

fn parsed<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn unknown_flag(flag: &str) -> String {
    format!("unknown flag {flag:?}\n\n{}", usage())
}

/// Splits `argv` into its subcommand and that subcommand's typed
/// arguments. Every flag is checked against the subcommand's table, so
/// a flag another subcommand takes is still rejected here.
fn parse(argv: &[String]) -> Result<(&'static Command, Args), String> {
    let (cmd, rest) = match COMMANDS
        .iter()
        .find(|c| argv.first().is_some_and(|a| a == c.name))
    {
        Some(cmd) => (cmd, &argv[1..]),
        None => (&RUN, argv),
    };
    let mut args = Args::default();
    let mut it = rest.iter();
    if cmd.target != Target::None {
        match it.next().map(String::as_str) {
            None => return Err(usage()),
            Some("campaign") if cmd.target == Target::BenchesOrCampaign => {}
            Some("all") => args.benches = Benchmark::ALL.to_vec(),
            Some(name) => args.benches.push(
                name.parse::<Benchmark>()
                    .map_err(|e| format!("{e}\n\n{}", usage()))?,
            ),
        }
    }
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if !cmd.flags.contains(&flag) {
            return Err(unknown_flag(flag));
        }
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--json" => args.json = true,
            "--lint" => args.lint = true,
            "--flow" => args.flow = true,
            "--incremental" => {
                args.flow = true;
                args.incremental = true;
            }
            "--variant" => {
                let v = value()?;
                args.variant = Some(
                    SystemVariant::ALL
                        .into_iter()
                        .find(|x| x.label() == v)
                        .ok_or_else(|| format!("unknown variant {v:?}"))?,
                );
            }
            "--tasks" => args.tasks = Some(parsed(flag, value()?)?),
            "--seed" => args.seed = Some(parsed(flag, value()?)?),
            "--threads" => args.threads = Some(parsed::<usize>(flag, value()?)?.max(1)),
            "--fus" => args.fus = Some(parsed(flag, value()?)?),
            "--ops" => args.ops = Some(parsed(flag, value()?)?),
            "--streams" => args.streams = Some(parsed(flag, value()?)?),
            "--epochs" => args.epochs = Some(parsed(flag, value()?)?),
            "--depth" => args.depth = Some(parsed(flag, value()?)?),
            "--objects" => args.objects = Some(parsed(flag, value()?)?),
            "--out" => args.out = Some(value()?.to_owned()),
            "--trace-out" => args.trace_out = Some(value()?.to_owned()),
            "--spec" => args.spec = Some(parsed(flag, value()?)?),
            "--planted-bug" => match value()? {
                "off-by-one" => args.planted = Some(PlantedBug::BoundsOffByOne),
                other => return Err(format!("--planted-bug: unknown bug {other:?}")),
            },
            _ => return Err(unknown_flag(flag)),
        }
    }
    Ok((cmd, args))
}

fn write_file(path: &str, bytes: &str) -> Result<(), Failure> {
    std::fs::write(path, bytes).map_err(|e| Failure::Harness(format!("cannot write {path}: {e}")))
}

/// Writes `rendered` to `out` byte for byte, or to stdout ending in
/// exactly one newline.
fn emit(out: Option<&str>, rendered: &str) -> Result<(), Failure> {
    match out {
        Some(path) => write_file(path, rendered),
        None => writeln!(
            std::io::stdout().lock(),
            "{}",
            rendered.trim_end_matches('\n')
        )
        .map_err(|e| Failure::Harness(format!("cannot write stdout: {e}"))),
    }
}

/// Runs `cell` for every benchmark on `threads` workers and returns the
/// results in benchmark order, so the output is byte-identical for any
/// thread count. The first failure in benchmark order wins.
fn cells<T: Send>(
    threads: usize,
    benches: &[Benchmark],
    cell: impl Fn(Benchmark) -> Result<T, RunError> + Sync,
) -> Result<Vec<T>, Failure> {
    perf::parallel_map(threads, benches.len(), |i| {
        cell(benches[i]).map_err(|e| failed(benches[i], &e))
    })
    .map_err(|p| Failure::Harness(p.to_string()))?
    .into_iter()
    .collect()
}

fn run_cells(a: &Args) -> Result<(), Failure> {
    let variant = a.variant.unwrap_or(SystemVariant::CheriCpuCheriAccel);
    let (tasks, seed) = (a.tasks.unwrap_or(1), a.seed.unwrap_or(0xC0DE));
    if a.trace_out.is_some() && a.benches.len() > 1 {
        return Err(Failure::Harness(
            "--trace-out needs a single benchmark (events from several runs would share one file)"
                .to_owned(),
        ));
    }
    let spec = |bench| RunSpec {
        observe: a.json || a.trace_out.is_some(),
        ..RunSpec::new(bench, variant, tasks, seed)
    };
    // Each cell runs on its own worker with its own registry and trace
    // buffer.
    let rows = cells(a.threads(), &a.benches, |bench| {
        let run = runner::run(&spec(bench))?;
        let trace = run
            .events
            .filter(|_| a.trace_out.is_some())
            .map(|events| obs::chrome::chrome_trace_json(&events.sorted_by_cycle()));
        let report = run.metrics.map(|metrics| BenchReport {
            bench: bench.name().to_owned(),
            variant: run.result.variant.label().to_owned(),
            tasks: run.result.tasks,
            seed,
            metrics,
        });
        Ok((run.result, report, trace))
    })?;
    let mut text = format!(
        "{:<14} {:>12} {:>8} {:>12} {:>10} {:>9}\n",
        "benchmark", "variant", "tasks", "cycles", "setup", "bus util"
    );
    let mut reports = Vec::new();
    for (r, report, trace) in rows {
        if let (Some(path), Some(json)) = (&a.trace_out, trace) {
            write_file(path, &json)?;
        }
        reports.extend(report);
        let _ = writeln!(
            text,
            "{:<14} {:>12} {:>8} {:>12} {:>10} {:>8.1}%",
            r.bench.name(),
            r.variant.label(),
            r.tasks,
            r.cycles,
            r.setup_cycles,
            r.bus_utilization * 100.0
        );
    }
    emit(
        None,
        &if a.json {
            reports_to_json(&reports)
        } else {
            text
        },
    )
}

/// Applies the campaign flags `faults` and `adapt campaign` share. A
/// `--tasks` beyond what a campaign can count is a harness failure.
fn campaign_config(a: &Args) -> Result<CampaignConfig, Failure> {
    let mut config = CampaignConfig::default();
    if let Some(spec) = &a.spec {
        config.spec = spec.clone();
    }
    if let Some(fus) = a.fus {
        config.fus = fus;
    }
    if let Some(tasks) = a.tasks {
        config.tasks = u32::try_from(tasks).map_err(|e| format!("--tasks: {e}"))?;
    }
    if let Some(seed) = a.seed {
        config.seed = seed;
    }
    Ok(config)
}

fn run_faults(a: &Args) -> Result<(), Failure> {
    let config = campaign_config(a)?;
    let report = run_campaign(&config).map_err(|e| format!("campaign failed: {e}"))?;
    if a.json {
        return emit(None, &report.to_json());
    }
    let mut text = format!(
        "fault campaign: {} tasks, seed {:#x}, spec {:?}\n{:<16} {:>8}\n",
        report.tasks, report.seed, report.spec, "injected", "count"
    );
    for (kind, n) in report.injected_counts() {
        let _ = writeln!(text, "{kind:<16} {n:>8}");
    }
    let _ = writeln!(text, "{:<18} {:>8}", "resolution", "count");
    for (res, n) in report.resolution_counts() {
        let _ = writeln!(text, "{res:<18} {n:>8}");
    }
    let _ = writeln!(
        text,
        "degraded: {}  quarantined fus: {}  denied checks: {}  \
         corruption detected: {}  driver cycles: {}  events: {}",
        report.degraded,
        report.quarantined_fus,
        report.denied_checks,
        report.corruption_detected,
        report.driver_cycles,
        report.events
    );
    emit(None, &text)
}

fn run_conformance(a: &Args) -> Result<(), Failure> {
    let report =
        threatbench::fuzz::conformance_campaign(a.ops.unwrap_or(10_000), a.seed.unwrap_or(1));
    emit(
        None,
        &if a.json {
            report.to_json()
        } else {
            report.summary()
        },
    )?;
    if report.is_clean() {
        Ok(())
    } else {
        Err(Failure::Violated(
            "conformance FAILED: an implementation diverged from the oracle".to_owned(),
        ))
    }
}

fn run_verify(a: &Args) -> Result<(), Failure> {
    let mut cfg = ExploreConfig::new(a.depth.unwrap_or(10));
    // The model is deliberately tiny.
    let small = |n: usize| u8::try_from(n).ok().filter(|n| (1..=4).contains(n));
    let (Some(tasks), Some(objects)) = (
        small(a.tasks.unwrap_or(usize::from(cfg.tasks))),
        small(a.objects.unwrap_or(usize::from(cfg.objects))),
    ) else {
        return Err(Failure::Harness(
            "--tasks and --objects must be 1-4 (the model is deliberately tiny)".to_owned(),
        ));
    };
    cfg.tasks = tasks;
    cfg.objects = objects;
    cfg.threads = a.threads.unwrap_or(cfg.threads);
    cfg.planted = a.planted;
    let result = capcheri_mc::explore(cfg);
    let rendered = if a.json {
        capcheri_mc::to_json(&cfg, &result)
    } else {
        capcheri_mc::summary(&cfg, &result)
    };
    emit(a.out.as_deref(), &rendered)?;
    match result.violation {
        None => Ok(()),
        Some(_) => Err(Failure::Violated(
            "verify FAILED: a property violation was found".to_owned(),
        )),
    }
}

/// Analyzes `count` seeded op streams and replays each verdict map
/// through the elided checkers against the golden oracle. Returns
/// `false` if any replay diverges (an unsound verdict map).
fn verify_streams(first_seed: u64, count: u64, ops: u64) -> bool {
    let mut sound = true;
    for i in 0..count {
        let seed = first_seed.wrapping_add(i);
        let stream = conformance::generate(seed, ops as usize);
        let analysis = capcheri_analyze::analyze_stream(&stream);
        let outcome = conformance::run_ops_elided(&stream, &analysis.verdict_map());
        let ok = outcome.is_clean();
        sound &= ok;
        println!(
            "stream seed {seed}: {} safe, {} flagged, {} dynamic; \
             {} checks elided; oracle replay {}",
            analysis.safe,
            analysis.flagged,
            analysis.dynamic,
            outcome.elided,
            if ok { "clean" } else { "DIVERGED" }
        );
        for f in &analysis.findings {
            println!("  finding {f}");
        }
    }
    sound
}

fn run_analyze(a: &Args) -> Result<(), Failure> {
    // Short enough that the adversarial generator leaves some pairs
    // denial-free, so verified runs actually exercise elision.
    let (seed, ops, streams) = (
        a.seed.unwrap_or(1),
        a.ops.unwrap_or(400),
        a.streams.unwrap_or(0),
    );
    if a.lint {
        let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = capcheri_analyze::lint_paths(&root)
            .map_err(|e| format!("lint: cannot walk {}: {e}", root.display()))?;
        if !findings.is_empty() {
            for f in &findings {
                println!("{f}");
            }
            return Err(Failure::Violated(format!(
                "lint: {} finding(s)",
                findings.len()
            )));
        }
        println!("lint: clean");
    }
    if a.flow {
        // The flow report always analyzes at least a few streams — the
        // work ratio is meaningless on an empty stream set.
        let report =
            flowreport::FlowReport::collect(seed, streams.max(4), ops, a.threads(), a.incremental);
        emit(
            a.out.as_deref(),
            &if a.json {
                report.to_json()
            } else {
                report.render()
            },
        )?;
        if !report.all_replays_clean() {
            return Err(Failure::Violated(
                "analyze: a segment-elided replay diverged from the oracle".to_owned(),
            ));
        }
        return Ok(());
    }
    let rows = staticreport::rows(a.threads());
    let unsafe_findings: usize = rows.iter().map(|r| r.run.analysis.findings.len()).sum();
    emit(
        a.out.as_deref(),
        &if a.json {
            staticreport::rows_to_json(&rows)
        } else {
            staticreport::render_rows(&rows)
        },
    )?;
    if unsafe_findings > 0 {
        return Err(Failure::Violated(format!(
            "analyze: {unsafe_findings} statically-unsafe finding(s)"
        )));
    }
    if streams > 0 && !verify_streams(seed, streams, ops) {
        return Err(Failure::Violated(
            "analyze: an elided replay diverged from the oracle".to_owned(),
        ));
    }
    Ok(())
}

fn run_profile(a: &Args) -> Result<(), Failure> {
    let variant = a.variant.unwrap_or(SystemVariant::CheriCpuCheriAccel);
    let (tasks, seed) = (a.tasks.unwrap_or(1), a.seed.unwrap_or(0xC0DE));
    // The profile serializes only simulated quantities — see
    // capcheri_bench::profile.
    let reports = cells(a.threads(), &a.benches, |bench| {
        ProfileReport::collect(bench, variant, tasks, seed)
    })?;
    emit(
        a.out.as_deref(),
        &if a.json {
            profile::reports_to_json(&reports)
        } else {
            profile::render_all(&reports)
        },
    )
}

fn run_adapt(a: &Args) -> Result<(), Failure> {
    if !a.benches.is_empty() {
        // The report serializes only simulated quantities.
        let reports = cells(a.threads(), &a.benches, |bench| {
            AdaptBenchReport::collect(
                bench,
                a.epochs.unwrap_or(4),
                a.tasks.unwrap_or(1),
                a.seed.unwrap_or(0xC0DE),
                AdaptConfig::default(),
            )
        })?;
        return emit(
            a.out.as_deref(),
            &if a.json {
                adapt::reports_to_json(&reports)
            } else {
                adapt::render_all(&reports)
            },
        );
    }
    if a.epochs.is_some() {
        return Err(format!(
            "--epochs does not apply to `adapt campaign`: a campaign has \
             one epoch per {} tasks",
            AdaptConfig::default().epoch_tasks
        )
        .into());
    }
    let config = campaign_config(a)?;
    let report = run_adaptive_campaign(&config, &AdaptConfig::default())
        .map_err(|e| format!("adaptive campaign failed: {e}"))?;
    if a.json {
        return emit(a.out.as_deref(), &report.to_json());
    }
    let mut text = format!(
        "adaptive campaign: {} tasks, seed {:#x}, spec {:?}, {} epochs\n{:<22} {:>8}\n",
        report.campaign.tasks,
        report.campaign.seed,
        report.campaign.spec,
        report.epochs,
        "resolution",
        "count"
    );
    for (res, n) in report.campaign.resolution_counts() {
        let _ = writeln!(text, "{res:<22} {n:>8}");
    }
    if report.decisions.is_empty() {
        let _ = writeln!(text, "decisions: none");
    } else {
        let _ = writeln!(text, "decisions:");
        for d in &report.decisions {
            let _ = writeln!(
                text,
                "  epoch {:<3} {:<15} share={}% corruption={} dwell={}",
                d.epoch,
                d.rule.label(),
                d.stall_share_pct,
                d.corruption,
                d.dwell
            );
        }
    }
    let _ = writeln!(
        text,
        "final: mode={} cache={} released_fus={} latched_fus={}",
        report.final_mode.label(),
        report.cache_health.label(),
        report.released_fus,
        report.latched_fus
    );
    emit(a.out.as_deref(), &text)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv)
        .map_err(Failure::Harness)
        .and_then(|(cmd, args)| (cmd.run)(&args));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Violated(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
        // Exit 1 is reserved for "property violated"; a broken harness
        // exits 2, so CI can tell a red verdict from a broken harness.
        Err(Failure::Harness(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every word the parser might meet: subcommands, targets, every
    /// flag, and good and bad values.
    const VOCABULARY: [&str; 42] = [
        "faults",
        "conformance",
        "verify",
        "analyze",
        "profile",
        "adapt",
        "all",
        "campaign",
        "aes",
        "gemm_ncubed",
        "--variant",
        "--tasks",
        "--seed",
        "--threads",
        "--json",
        "--out",
        "--trace-out",
        "--spec",
        "--fus",
        "--ops",
        "--streams",
        "--epochs",
        "--depth",
        "--objects",
        "--planted-bug",
        "--lint",
        "--flow",
        "--incremental",
        "--bogus",
        "0",
        "1",
        "4",
        "300",
        "-1",
        "x",
        "18446744073709551616",
        "ccpu",
        "ccpu+caccel",
        "none",
        "all:0.5",
        "off-by-one",
        "",
    ];

    fn argv(words: &[usize]) -> Vec<String> {
        words.iter().map(|&w| VOCABULARY[w].to_owned()).collect()
    }

    fn args(line: &str) -> Args {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&argv).expect("valid invocation").1
    }

    proptest! {
        /// Any argv drawn from the vocabulary parses or is refused; the
        /// parser never panics.
        #[test]
        fn parser_never_panics(words in prop::collection::vec(0..VOCABULARY.len(), 0..8)) {
            let argv = argv(&words);
            let parsed = std::panic::catch_unwind(|| parse(&argv).map(|(cmd, _)| cmd.name));
            prop_assert!(parsed.is_ok(), "parser panicked on {argv:?}");
        }
    }

    #[test]
    fn every_table_flag_parses_and_others_are_refused() {
        let all_flags: Vec<&str> = COMMANDS
            .iter()
            .chain([&RUN])
            .flat_map(|c| c.flags.iter().copied())
            .collect();
        for cmd in COMMANDS.iter().chain([&RUN]) {
            let head: Vec<&str> = match cmd.target {
                Target::None => vec![cmd.name],
                _ if cmd.name == RUN.name => vec!["aes"],
                _ => vec![cmd.name, "aes"],
            };
            for &flag in &all_flags {
                let value = match flag {
                    "--variant" => Some("ccpu"),
                    "--spec" => Some("none"),
                    "--planted-bug" => Some("off-by-one"),
                    "--out" | "--trace-out" => Some("file"),
                    "--json" | "--lint" | "--flow" | "--incremental" => None,
                    _ => Some("2"),
                };
                let line: Vec<String> = head
                    .iter()
                    .copied()
                    .chain([flag])
                    .chain(value)
                    .map(str::to_owned)
                    .collect();
                let parsed = parse(&line);
                assert_eq!(
                    parsed.is_ok(),
                    cmd.flags.contains(&flag),
                    "{line:?}: {:?}",
                    parsed.err()
                );
            }
        }
    }

    #[test]
    fn subcommands_and_targets_resolve() {
        let name = |line: &str| {
            let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            parse(&argv).map(|(cmd, a)| (cmd.name, a.benches.len()))
        };
        assert_eq!(name("aes"), Ok(("run", 1)));
        assert_eq!(name("all --json"), Ok(("run", Benchmark::ALL.len())));
        assert_eq!(name("profile gemm_ncubed"), Ok(("profile", 1)));
        assert_eq!(name("adapt campaign"), Ok(("adapt", 0)));
        assert_eq!(name("verify"), Ok(("verify", 0)));
        assert!(name("campaign").is_err(), "only adapt takes campaign");
        assert!(name("profile").is_err(), "profile needs a target");
        assert!(name("").is_err(), "no arguments prints usage");
        assert!(name("nosuch").is_err());
    }

    #[test]
    fn values_are_typed_and_threads_clamp_to_one() {
        let a = args("aes --variant ccpu --tasks 3 --seed 9 --threads 0 --json");
        assert_eq!(a.variant, Some(SystemVariant::CheriCpu));
        assert_eq!(
            (a.tasks, a.seed, a.threads, a.json),
            (Some(3), Some(9), Some(1), true)
        );
        assert_eq!(a.threads(), 1);
        let a = args("analyze --incremental --ops 5");
        assert!(a.flow && a.incremental);
        assert_eq!(a.ops, Some(5));
        let a = args("verify --planted-bug off-by-one --depth 3");
        assert_eq!(
            (a.planted, a.depth),
            (Some(PlantedBug::BoundsOffByOne), Some(3))
        );
        for bad in [
            "aes --tasks x",
            "aes --variant gpu",
            "aes --seed",
            "verify --planted-bug other",
            "adapt aes --spec bogus:1",
        ] {
            let argv: Vec<String> = bad.split_whitespace().map(str::to_owned).collect();
            assert!(parse(&argv).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_denied_benign_kernel_is_a_violation_and_other_run_errors_are_not() {
        use hetsim::{Access, Denial, DenyReason, MasterId, TaskId};
        let denial = Denial {
            access: Access::read(MasterId(1), TaskId(0), 0x1000, 4),
            reason: DenyReason::OutOfBounds,
        };
        let bench = Benchmark::Aes;
        assert!(matches!(
            failed(bench, &RunError::Denied(denial)),
            Failure::Violated(_)
        ));
        for e in [RunError::NoTrace, RunError::NoChecker(SystemVariant::Cpu)] {
            assert!(matches!(failed(bench, &e), Failure::Harness(_)), "{e}");
        }
    }
}
