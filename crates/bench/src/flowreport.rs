//! The `capcheri.flowreport.v1` report — the incremental dataflow
//! engine's segment verdicts, re-analysis work ratio, and provenance
//! flow findings.
//!
//! For every seeded conformance stream the report analyzes the stream,
//! churns its grants ([`capcheri_analyze::churn_grants`] — the bounded
//! re-grant pattern an adaptive driver produces), analyzes the churned
//! stream, and reports the churned analysis alongside the *pure*
//! re-analysis work ratio ([`capcheri_analyze::reanalysis_work`]): how
//! many `(segment, pair)` units actually depended on the grants that
//! moved. Each verdict map is validated differentially by replaying the
//! elided checkers segment-by-segment against the golden oracle
//! ([`conformance::run_ops_elided_segments`]); a divergence means an
//! unsound map and fails the run.
//!
//! Two MachSuite kernels ride along as fixed fixtures
//! ([`kernel_stream`]): their port grants are laid out at the
//! conformance slot geometry for two tenant instances, separated by
//! revocation and sweep barriers, so the segment partition and the
//! cross-tenant provenance audit run over realistic driver behaviour.
//!
//! The serialized report never mentions *how* a result was obtained —
//! [`capcheri_analyze::FlowAnalysis::reused`] is deliberately excluded —
//! so the bytes are identical between `--incremental` and from-scratch
//! runs, and for any `--threads` value. CI compares the two files with
//! `cmp`.

use capchecker::StaticVerdict;
use capcheri_analyze::{
    analyze_benchmark, analyze_flow, churn_grants, reanalysis_work, Finding, FlowAnalysis,
    IncrementalAnalyzer, WorkRatio,
};
use conformance::stream::{slot_base, OBJECTS, SLOT_BYTES};
use conformance::{generate, Op};
use machsuite::Benchmark;
use obs::json::JsonWriter;
use std::fmt::Write as _;

/// Schema identifier stamped into every flow report.
pub const FLOW_SCHEMA: &str = "capcheri.flowreport.v1";

/// The kernels pinned by the golden snapshot.
pub const KERNELS: [Benchmark; 2] = [Benchmark::Aes, Benchmark::GemmNcubed];

/// One seeded conformance stream's analysis row.
#[derive(Clone, Debug)]
pub struct FlowStreamRow {
    /// The stream's generator seed.
    pub seed: u64,
    /// Analysis of the grant-churned stream (the current state).
    pub analysis: FlowAnalysis,
    /// Units whose dependency slice the churn touched, over all units —
    /// computed from the two op streams alone, so it is identical
    /// between incremental and from-scratch runs.
    pub work: WorkRatio,
    /// Whether the segment-by-segment elided replay matched the oracle.
    pub replay_clean: bool,
}

/// One kernel fixture's analysis row.
#[derive(Clone, Debug)]
pub struct KernelFlowRow {
    /// The kernel.
    pub bench: Benchmark,
    /// Analysis of [`kernel_stream`].
    pub analysis: FlowAnalysis,
    /// Whether the segment-by-segment elided replay matched the oracle.
    pub replay_clean: bool,
}

/// The full flow report.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// First stream seed (stream `i` uses `seed + i`).
    pub seed: u64,
    /// Ops per generated stream.
    pub ops: u64,
    /// Per-stream rows, in seed order.
    pub streams: Vec<FlowStreamRow>,
    /// Per-kernel rows, in [`KERNELS`] order.
    pub kernels: Vec<KernelFlowRow>,
    /// Units the incremental engine reused across the whole collection
    /// (0 on a from-scratch run). Display/telemetry only — never
    /// serialized, so report bytes cannot depend on the engine mode.
    pub reused: u64,
}

/// A deterministic driver-shaped op stream for one kernel: two tenant
/// instances of the kernel's declared ports at the conformance slot
/// geometry, separated by analysis barriers.
///
/// Layout: tenant 0 and tenant 1 each grant every port into their own
/// home slots and touch it as the port's replay envelope observed; a
/// `RevokeTask` barrier evicts tenant 0, which then re-enters with
/// narrower grants; a `Sweep` barrier scrubs tenant 0's home region
/// while tenant 1 keeps running. Three segments, no cross-tenant spans.
#[must_use]
pub fn kernel_stream(bench: Benchmark) -> Vec<Op> {
    let analysis = analyze_benchmark(bench, 0xC0DE);
    let mut ops = Vec::new();
    let grant_len = |size: u64| -> u16 {
        let len = size.clamp(16, SLOT_BYTES);
        u16::try_from(len).expect("slot-clamped length fits u16")
    };
    let touch = |ops: &mut Vec<Op>, task: u8| {
        for (obj, port) in analysis.ports.iter().enumerate() {
            let object = obj as u8;
            let addr = slot_base(task, object);
            if port.read {
                ops.push(Op::Access {
                    task,
                    object,
                    provenance: true,
                    write: false,
                    addr,
                    len: 8,
                    value: 0,
                });
            }
            if port.write {
                ops.push(Op::Access {
                    task,
                    object,
                    provenance: true,
                    write: true,
                    addr,
                    len: 8,
                    value: u64::from(object) + 1,
                });
            }
        }
    };
    // Segment 0: both tenants enter with full declared grants and run.
    for task in 0..2u8 {
        for (obj, port) in analysis.ports.iter().enumerate() {
            let object = obj as u8;
            ops.push(Op::Grant {
                task,
                object,
                base: slot_base(task, object),
                len: grant_len(port.region.1 - port.region.0),
                perms: port.declared.bits(),
                seal: false,
                untagged: false,
            });
        }
        touch(&mut ops, task);
    }
    // Segment 1: tenant 0 is revoked, re-enters with half-size grants.
    ops.push(Op::RevokeTask { task: 0 });
    for (obj, port) in analysis.ports.iter().enumerate() {
        let object = obj as u8;
        ops.push(Op::Grant {
            task: 0,
            object,
            base: slot_base(0, object),
            len: grant_len((port.region.1 - port.region.0) / 2),
            perms: port.declared.bits(),
            seal: false,
            untagged: false,
        });
    }
    touch(&mut ops, 0);
    touch(&mut ops, 1);
    // Segment 2: tenant 0's home region is swept; tenant 1 keeps running.
    ops.push(Op::Sweep {
        base: slot_base(0, 0),
        len: u32::try_from(u64::from(OBJECTS) * SLOT_BYTES).expect("home region fits u32"),
    });
    touch(&mut ops, 1);
    ops
}

impl FlowReport {
    /// Collects the report over `streams` generated streams plus the
    /// [`KERNELS`] fixtures.
    ///
    /// With `incremental` the engine analyzes the base stream, then
    /// re-analyzes the churned stream reusing every unit whose
    /// dependency slice is unchanged — and asserts the result is
    /// identical to a from-scratch pass (the incremental ≡ from-scratch
    /// guarantee, enforced on every run, not only under test).
    ///
    /// # Panics
    ///
    /// If an incremental analysis diverges from the from-scratch one.
    #[must_use]
    pub fn collect(
        seed: u64,
        streams: u64,
        ops: u64,
        threads: usize,
        incremental: bool,
    ) -> FlowReport {
        let mut reused = 0;
        let stream_rows = (0..streams)
            .map(|i| {
                let stream_seed = seed.wrapping_add(i);
                let base = generate(stream_seed, ops as usize);
                let churned = churn_grants(&base);
                let analysis = if incremental {
                    let mut engine = IncrementalAnalyzer::with_threads(threads);
                    let _ = engine.analyze(&base);
                    let inc = engine.analyze(&churned);
                    let scratch = analyze_flow(&churned, threads);
                    assert!(
                        inc.same_results(&scratch),
                        "incremental analysis diverged from scratch (seed {stream_seed})"
                    );
                    inc
                } else {
                    analyze_flow(&churned, threads)
                };
                reused += analysis.reused;
                let replay_clean =
                    conformance::run_ops_elided_segments(&churned, &analysis.segment_maps())
                        .is_clean();
                FlowStreamRow {
                    seed: stream_seed,
                    work: reanalysis_work(&base, &churned),
                    analysis,
                    replay_clean,
                }
            })
            .collect();
        let kernels = KERNELS
            .iter()
            .map(|&bench| {
                let stream = kernel_stream(bench);
                let analysis = analyze_flow(&stream, threads);
                let replay_clean =
                    conformance::run_ops_elided_segments(&stream, &analysis.segment_maps())
                        .is_clean();
                KernelFlowRow {
                    bench,
                    analysis,
                    replay_clean,
                }
            })
            .collect();
        FlowReport {
            seed,
            ops,
            streams: stream_rows,
            kernels,
            reused,
        }
    }

    /// Whether every segment replay matched the oracle.
    #[must_use]
    pub fn all_replays_clean(&self) -> bool {
        self.streams.iter().all(|r| r.replay_clean) && self.kernels.iter().all(|r| r.replay_clean)
    }

    /// This report as one JSON object on the [`FLOW_SCHEMA`] schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.string(FLOW_SCHEMA);
        w.key("seed");
        w.u64(self.seed);
        w.key("ops");
        w.u64(self.ops);
        w.key("streams");
        w.begin_array();
        for row in &self.streams {
            w.begin_object();
            w.key("seed");
            w.u64(row.seed);
            write_segments(&mut w, &row.analysis);
            w.key("units");
            w.begin_object();
            w.key("total");
            w.u64(row.work.units);
            w.key("changed");
            w.u64(row.work.changed);
            w.key("work_ratio_pct");
            w.u64(row.work.pct());
            w.end_object();
            write_flows(&mut w, &row.analysis.flows);
            w.key("replay_clean");
            w.bool(row.replay_clean);
            w.end_object();
        }
        w.end_array();
        w.key("kernels");
        w.begin_array();
        for row in &self.kernels {
            w.begin_object();
            w.key("kernel");
            w.string(row.bench.name());
            write_segments(&mut w, &row.analysis);
            write_flows(&mut w, &row.analysis.flows);
            w.key("replay_clean");
            w.bool(row.replay_clean);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// The report as human-readable text. Like the JSON, the text never
    /// mentions cache reuse, so it too is mode- and thread-independent.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flow analysis: {} stream(s) x {} ops (seed {}), {} kernel fixture(s)",
            self.streams.len(),
            self.ops,
            self.seed,
            self.kernels.len()
        );
        for row in &self.streams {
            let _ = writeln!(
                out,
                "  stream seed {}: {} segment(s); re-analysis {}/{} units ({}%); \
                 {} flow finding(s); replay {}",
                row.seed,
                row.analysis.segments.len(),
                row.work.changed,
                row.work.units,
                row.work.pct(),
                row.analysis.flows.len(),
                if row.replay_clean {
                    "clean"
                } else {
                    "DIVERGED"
                }
            );
            render_segments(&mut out, &row.analysis);
        }
        for row in &self.kernels {
            let _ = writeln!(
                out,
                "  kernel {}: {} segment(s); {} flow finding(s); replay {}",
                row.bench.name(),
                row.analysis.segments.len(),
                row.analysis.flows.len(),
                if row.replay_clean {
                    "clean"
                } else {
                    "DIVERGED"
                }
            );
            render_segments(&mut out, &row.analysis);
        }
        out
    }
}

/// The pinned golden configuration: the [`KERNELS`] fixtures plus two
/// seeded streams at 300 ops, analyzed incrementally — so every golden
/// run also re-proves the incremental ≡ from-scratch guarantee.
#[must_use]
pub fn report(threads: usize) -> String {
    FlowReport::collect(1, 2, 300, threads, true).to_json()
}

fn render_segments(out: &mut String, analysis: &FlowAnalysis) {
    for s in &analysis.segments {
        let _ = writeln!(
            out,
            "    segment {} ({:<6} at op {:>5}, {:>4} ops): {} safe, {} flagged, {} dynamic",
            s.index,
            s.barrier.label(),
            s.start,
            s.ops,
            s.count(StaticVerdict::Safe),
            s.count(StaticVerdict::Unsafe),
            s.count(StaticVerdict::Dynamic)
        );
    }
    for f in &analysis.flows {
        let _ = writeln!(out, "    finding {f}");
    }
}

fn write_segments(w: &mut JsonWriter, analysis: &FlowAnalysis) {
    w.key("segments");
    w.begin_array();
    for s in &analysis.segments {
        w.begin_object();
        w.key("index");
        w.u64(u64::from(s.index));
        w.key("start");
        w.u64(s.start);
        w.key("ops");
        w.u64(s.ops);
        w.key("barrier");
        w.string(s.barrier.label());
        w.key("safe");
        w.u64(s.count(StaticVerdict::Safe));
        w.key("flagged");
        w.u64(s.count(StaticVerdict::Unsafe));
        w.key("dynamic");
        w.u64(s.count(StaticVerdict::Dynamic));
        w.end_object();
    }
    w.end_array();
}

fn write_flows(w: &mut JsonWriter, flows: &[Finding]) {
    w.key("flows");
    w.begin_array();
    for f in flows {
        w.begin_object();
        w.key("category");
        w.string(f.category);
        w.key("subject");
        w.string(&f.subject);
        w.key("detail");
        w.string(&f.detail);
        w.key("count");
        w.u64(f.count);
        w.end_object();
    }
    w.end_array();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_streams_partition_into_three_segments() {
        for bench in KERNELS {
            let stream = kernel_stream(bench);
            let analysis = analyze_flow(&stream, 1);
            assert_eq!(analysis.segments.len(), 3, "{bench}");
            assert!(
                analysis.flows.is_empty(),
                "stock {bench} must have no flow findings: {:?}",
                analysis.flows
            );
            assert!(
                conformance::run_ops_elided_segments(&stream, &analysis.segment_maps()).is_clean(),
                "{bench} segment replay diverged"
            );
        }
    }

    #[test]
    fn incremental_and_scratch_reports_are_byte_identical() {
        let inc = FlowReport::collect(1, 2, 300, 1, true);
        let scratch = FlowReport::collect(1, 2, 300, 1, false);
        assert!(inc.reused > 0, "the incremental engine reused nothing");
        assert_eq!(scratch.reused, 0);
        assert_eq!(inc.to_json(), scratch.to_json());
        assert_eq!(inc.render(), scratch.render());
        obs::json::validate(&inc.to_json()).unwrap();
    }

    #[test]
    fn thread_count_does_not_change_report_bytes() {
        let one = FlowReport::collect(5, 2, 300, 1, true);
        let eight = FlowReport::collect(5, 2, 300, 8, true);
        assert_eq!(one.to_json(), eight.to_json());
    }

    #[test]
    fn replays_are_clean_and_schema_tagged() {
        let r = FlowReport::collect(1, 3, 300, 1, true);
        assert!(r.all_replays_clean());
        let json = r.to_json();
        assert!(json.contains("\"schema\":\"capcheri.flowreport.v1\""));
        assert!(json.contains("\"work_ratio_pct\":"));
        assert!(
            !json.contains("reused"),
            "reuse accounting must never serialize"
        );
    }
}
