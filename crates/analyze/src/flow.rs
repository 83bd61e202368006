//! Incremental dataflow analysis over conformance op streams.
//!
//! [`crate::stream::analyze_stream`] interprets a whole stream in one
//! monolithic pass; re-running it after every grant churn repeats all
//! the per-access judgment work even when one pair changed. This module
//! restructures the same analysis into *work units* that can be cached
//! and reused:
//!
//! 1. **Segmentation.** The stream is partitioned at *analysis
//!    barriers* — [`Op::RevokeTask`] and [`Op::Sweep`], the in-stream
//!    counterparts of the adaptive controller's mode switches and
//!    degrade/re-promote boundaries (those arrive as epoch boundaries,
//!    not stream ops). A barrier op opens the segment it belongs to.
//! 2. **Skeleton pass.** A cheap linear walk computes, per segment and
//!    pair, the unit's complete *dependency slice* (`UnitInput`): the
//!    capability in force at segment entry, whether the pair was ever
//!    granted before the segment, and the pair's in-segment grants and
//!    accesses at segment-relative offsets. Grant admission respects
//!    the 256-entry capacity gate exactly, so the slice captures even
//!    cross-pair capacity effects.
//! 3. **Unit pass.** Each `(segment, pair)` unit re-judges only its own
//!    slice (`run_unit`); units are embarrassingly parallel and merge
//!    in deterministic key order.
//!
//! Because a unit's result is a pure function of its input, the
//! incremental engine ([`IncrementalAnalyzer`]) reuses a cached result
//! whenever the input is *equal* — exact structural comparison, not a
//! fingerprint, so a hash collision can never corrupt the property the
//! tests pin: **incremental ≡ from-scratch, byte for byte**. The
//! whole-stream merge is fed through the very same
//! `classify` pass the monolithic analyzer uses, so
//! flow analysis and `analyze_stream` agree structurally, not by luck.
//!
//! On top of the same skeleton the module builds a
//! [`crate::ProvenanceLattice`] and surfaces its two audit classes
//! (authority widening, cross-tenant flow) as [`Finding`]s.

use crate::provenance::{InstalledGrant, ProvenanceLattice};
use crate::stream::{
    classify, judge_cap, AbstractCap, DeniedRec, GrantedRec, Predicted, StreamAnalysis, CAPACITY,
};
use crate::Finding;
use capchecker::{StaticVerdict, StaticVerdictMap};
use conformance::{build_grant_cap, Op};
use hetsim::{AccessKind, DenyReason, ObjectId, TaskId};
use obs::EventKind;
use std::collections::BTreeMap;

/// Why a segment begins where it does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Barrier {
    /// Stream start (segment 0 only).
    Start,
    /// A task revocation opened the segment.
    Revoke,
    /// A revocation sweep opened the segment.
    Sweep,
}

impl Barrier {
    /// Stable label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Barrier::Start => "start",
            Barrier::Revoke => "revoke",
            Barrier::Sweep => "sweep",
        }
    }
}

/// One in-segment event relevant to a single pair, at an offset
/// *relative to the segment start* — position independence is what lets
/// a cached unit survive churn in unrelated ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UnitEvent {
    /// An admitted grant replaced the pair's capability.
    Grant { off: u32, cap: AbstractCap },
    /// An access to judge.
    Access {
        off: u32,
        provenance: bool,
        write: bool,
        addr: u64,
        len: u8,
    },
}

/// The complete dependency slice of one `(segment, pair)` work unit —
/// everything its verdicts can depend on. Equal inputs force equal
/// results, which is the entire incremental-reuse argument.
#[derive(Clone, Debug, PartialEq, Eq)]
struct UnitInput {
    /// The pair's capability in force at segment entry (post-barrier).
    entry: Option<AbstractCap>,
    /// Whether the pair had ever been granted before the segment.
    entry_granted: bool,
    /// The pair's in-segment grants and accesses, in offset order.
    events: Vec<UnitEvent>,
}

/// What one work unit computed: every access verdict, at
/// segment-relative offsets (global indices are re-attached at merge).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct UnitResult {
    /// Granted accesses: offset, addr, len, write, granted-before.
    granted: Vec<(u32, u64, u8, bool, bool)>,
    /// Denied accesses: offset, reason, granted-before, provenance.
    denied: Vec<(u32, DenyReason, bool, bool)>,
}

/// One unit as the skeleton pass laid it out.
#[derive(Clone, Debug)]
struct SkeletonUnit {
    segment: u32,
    pair: (u8, u8),
    input: UnitInput,
    /// Global op indices the unit's verdict rests on: the entry
    /// capability's installing grant, the revocation that last touched
    /// the pair's task before the segment, and every in-segment grant.
    deps: Vec<u64>,
}

/// Per-segment layout facts.
#[derive(Clone, Copy, Debug)]
struct SegmentMeta {
    start: u64,
    ops: u64,
    barrier: Barrier,
}

/// The cheap linear pass: segments, per-unit dependency slices, and the
/// provenance lattice's raw material. Everything downstream (unit
/// judging) is derivable from this alone.
struct Skeleton {
    segments: Vec<SegmentMeta>,
    units: Vec<SkeletonUnit>,
    skipped: u64,
    installed: Vec<InstalledGrant>,
    revokes: Vec<(u64, u8)>,
}

/// Per-pair unit being accumulated for the current segment.
struct UnitBuild {
    input: UnitInput,
    deps: Vec<u64>,
}

#[allow(clippy::too_many_lines)]
fn skeleton(ops: &[Op]) -> Skeleton {
    // `table` mirrors the monolithic analyzer's abstract table, plus the
    // installing op index so entry deps can be reported.
    let mut table: BTreeMap<(u8, u8), (AbstractCap, u64)> = BTreeMap::new();
    let mut ever_granted: BTreeMap<(u8, u8), u64> = BTreeMap::new();
    let mut last_revoke: BTreeMap<u8, u64> = BTreeMap::new();
    let mut segments: Vec<SegmentMeta> = vec![SegmentMeta {
        start: 0,
        ops: 0,
        barrier: Barrier::Start,
    }];
    let mut units: Vec<SkeletonUnit> = Vec::new();
    let mut current: BTreeMap<(u8, u8), UnitBuild> = BTreeMap::new();
    let mut skipped = 0u64;
    let mut installed: Vec<InstalledGrant> = Vec::new();
    let mut revokes: Vec<(u64, u8)> = Vec::new();

    fn flush(
        units: &mut Vec<SkeletonUnit>,
        current: &mut BTreeMap<(u8, u8), UnitBuild>,
        segment: u32,
    ) {
        for (pair, build) in std::mem::take(current) {
            units.push(SkeletonUnit {
                segment,
                pair,
                input: build.input,
                deps: build.deps,
            });
        }
    }

    for (index, op) in ops.iter().enumerate() {
        let index = index as u64;
        // Barriers close the running segment; the barrier op itself
        // belongs to the segment it opens.
        let barrier = match *op {
            Op::RevokeTask { .. } => Some(Barrier::Revoke),
            Op::Sweep { .. } => Some(Barrier::Sweep),
            _ => None,
        };
        if let Some(kind) = barrier {
            let seg = segments.last_mut().expect("segment 0 always exists");
            if seg.start == index {
                // Back-to-back barriers: this op re-labels the segment
                // it already opens instead of creating an empty one.
                seg.barrier = kind;
            } else {
                flush(&mut units, &mut current, segments.len() as u32 - 1);
                segments.push(SegmentMeta {
                    start: index,
                    ops: 0,
                    barrier: kind,
                });
            }
        }
        let seg_start = segments.last().expect("nonempty").start;
        segments.last_mut().expect("nonempty").ops += 1;

        // A unit's entry state is captured lazily, the first time the
        // segment touches the pair.
        fn ensure<'a>(
            current: &'a mut BTreeMap<(u8, u8), UnitBuild>,
            table: &BTreeMap<(u8, u8), (AbstractCap, u64)>,
            ever_granted: &BTreeMap<(u8, u8), u64>,
            last_revoke: &BTreeMap<u8, u64>,
            key: (u8, u8),
        ) -> &'a mut UnitBuild {
            current.entry(key).or_insert_with(|| {
                let entry = table.get(&key).copied();
                let mut deps = Vec::new();
                if let Some((_, grant_op)) = entry {
                    deps.push(grant_op);
                }
                if let Some(&revoke_op) = last_revoke.get(&key.0) {
                    deps.push(revoke_op);
                }
                UnitBuild {
                    input: UnitInput {
                        entry: entry.map(|(cap, _)| cap),
                        entry_granted: ever_granted.contains_key(&key),
                        events: Vec::new(),
                    },
                    deps,
                }
            })
        }

        match *op {
            Op::Grant {
                task,
                object,
                base,
                len,
                perms,
                seal,
                untagged,
            } => {
                let Ok(cap) = build_grant_cap(base, len, perms, seal, untagged) else {
                    skipped += 1;
                    continue;
                };
                if !cap.is_valid() || cap.is_sealed() {
                    continue;
                }
                let key = (task, object);
                if table.contains_key(&key) || table.len() < CAPACITY {
                    let abstract_cap = AbstractCap {
                        perms: cap.perms(),
                        base: cap.base(),
                        top: cap.top(),
                    };
                    // Capture the unit's entry state *before* this
                    // grant mutates the table.
                    let build = ensure(&mut current, &table, &ever_granted, &last_revoke, key);
                    build.input.events.push(UnitEvent::Grant {
                        off: (index - seg_start) as u32,
                        cap: abstract_cap,
                    });
                    build.deps.push(index);
                    table.insert(key, (abstract_cap, index));
                    ever_granted.entry(key).or_insert(index);
                    installed.push(InstalledGrant {
                        op: index,
                        task,
                        object,
                        base: abstract_cap.base,
                        top: abstract_cap.top,
                        perms: abstract_cap.perms,
                    });
                }
            }
            Op::RevokeTask { task } => {
                table.retain(|(t, _), _| *t != task);
                last_revoke.insert(task, index);
                revokes.push((index, task));
            }
            Op::Access {
                task,
                object,
                provenance,
                write,
                addr,
                len,
                value: _,
            } => {
                let key = (task, object);
                let build = ensure(&mut current, &table, &ever_granted, &last_revoke, key);
                build.input.events.push(UnitEvent::Access {
                    off: (index - seg_start) as u32,
                    provenance,
                    write,
                    addr,
                    len,
                });
            }
            Op::Spill { .. } | Op::Sweep { .. } | Op::TagFlip { .. } | Op::CacheCorrupt { .. } => {}
        }
    }
    flush(&mut units, &mut current, segments.len() as u32 - 1);

    Skeleton {
        segments,
        units,
        skipped,
        installed,
        revokes,
    }
}

/// Re-judges one unit's dependency slice — the only expensive work in
/// the whole analysis, and the only part the incremental engine skips.
fn run_unit(input: &UnitInput) -> UnitResult {
    let mut cap = input.entry;
    let mut ever = input.entry_granted;
    let mut out = UnitResult::default();
    for ev in &input.events {
        match *ev {
            UnitEvent::Grant { cap: granted, .. } => {
                cap = Some(granted);
                ever = true;
            }
            UnitEvent::Access {
                off,
                provenance,
                write,
                addr,
                len,
            } => {
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                match judge_cap(cap.as_ref(), provenance, kind, addr, len) {
                    None => out.granted.push((off, addr, len, write, ever)),
                    Some(reason) => out.denied.push((off, reason, ever, provenance)),
                }
            }
        }
    }
    out
}

/// One pair's verdict inside one segment, with its dependency set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentPair {
    /// Task half of the key.
    pub task: u8,
    /// Object half of the key.
    pub object: u8,
    /// The pair's verdict *within this segment*.
    pub verdict: StaticVerdict,
    /// Provenanced accesses proved granted in the segment.
    pub granted: u64,
    /// Provenanced accesses proved denied in the segment.
    pub denied: u64,
    /// Global op indices the verdict rests on: the entry capability's
    /// installing grant, the pair's last pre-segment revocation, and
    /// every in-segment grant.
    pub deps: Vec<u64>,
}

/// One analysis segment: layout plus per-pair verdicts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentReport {
    /// Segment index (0-based).
    pub index: u32,
    /// Global op index of the segment's first op.
    pub start: u64,
    /// Ops in the segment (including the opening barrier op).
    pub ops: u64,
    /// What opened the segment.
    pub barrier: Barrier,
    /// Per-pair verdicts, in key order.
    pub pairs: Vec<SegmentPair>,
}

impl SegmentReport {
    /// The segment's verdict map — what an epoch-scoped installer loads
    /// while execution is inside this segment.
    #[must_use]
    pub fn verdict_map(&self) -> StaticVerdictMap {
        let mut map = StaticVerdictMap::new();
        for p in &self.pairs {
            map.set(
                TaskId(u32::from(p.task)),
                ObjectId(u16::from(p.object)),
                p.verdict,
            );
        }
        map
    }

    /// Pairs with the given verdict in this segment.
    #[must_use]
    pub fn count(&self, verdict: StaticVerdict) -> u64 {
        self.pairs.iter().filter(|p| p.verdict == verdict).count() as u64
    }
}

/// Everything one incremental (or from-scratch) flow analysis produced.
#[derive(Clone, Debug)]
pub struct FlowAnalysis {
    /// Barrier-delimited segments with per-segment verdict maps.
    pub segments: Vec<SegmentReport>,
    /// The whole-stream merge — byte-identical to what
    /// [`crate::stream::analyze_stream`] computes on the same ops.
    pub stream: StreamAnalysis,
    /// The provenance lattice over every installed grant.
    pub lattice: ProvenanceLattice,
    /// Provenance audit findings: `authority-widening` (empty by
    /// construction) then `cross-tenant-flow`, each deduplicated.
    pub flows: Vec<Finding>,
    /// Total `(segment, pair)` work units in the pass.
    pub units: u64,
    /// Units whose cached result was reused (0 on a from-scratch pass).
    /// Deliberately *not* serialized into any report: reports must be
    /// byte-identical between incremental and from-scratch runs.
    pub reused: u64,
}

impl FlowAnalysis {
    /// `(segment start, verdict map)` pairs for the differential
    /// soundness replay (`conformance::run_ops_elided_segments`).
    #[must_use]
    pub fn segment_maps(&self) -> Vec<(u64, StaticVerdictMap)> {
        self.segments
            .iter()
            .map(|s| (s.start, s.verdict_map()))
            .collect()
    }

    /// The summary event for tracing.
    #[must_use]
    pub fn event(&self) -> EventKind {
        EventKind::FlowAnalysisComplete {
            segments: self.segments.len() as u64,
            reused: self.reused,
            units: self.units,
        }
    }

    /// Whether two analyses computed identical results — everything
    /// except [`FlowAnalysis::reused`], which records *how* the result
    /// was obtained, not what it is.
    #[must_use]
    pub fn same_results(&self, other: &FlowAnalysis) -> bool {
        self.segments == other.segments
            && self.stream == other.stream
            && self.lattice == other.lattice
            && self.flows == other.flows
            && self.units == other.units
    }
}

/// The incremental engine: caches every unit's `(input, result)` and
/// re-judges only units whose dependency slice changed since the
/// previous [`IncrementalAnalyzer::analyze`] call.
#[derive(Debug, Default)]
pub struct IncrementalAnalyzer {
    threads: usize,
    cache: BTreeMap<(u32, (u8, u8)), (UnitInput, UnitResult)>,
}

impl IncrementalAnalyzer {
    /// A sequential engine with an empty cache.
    #[must_use]
    pub fn new() -> IncrementalAnalyzer {
        IncrementalAnalyzer::with_threads(1)
    }

    /// An engine judging units on `threads` workers. Results are
    /// byte-identical across thread counts: units are laid out in
    /// deterministic `(segment, pair)` order and merged by index.
    #[must_use]
    pub fn with_threads(threads: usize) -> IncrementalAnalyzer {
        IncrementalAnalyzer {
            threads: threads.max(1),
            cache: BTreeMap::new(),
        }
    }

    /// Analyzes `ops`, reusing cached unit results where the dependency
    /// slice is unchanged, and replaces the cache with this stream's
    /// units.
    ///
    /// # Panics
    ///
    /// Propagates worker panics from the parallel unit pass.
    pub fn analyze(&mut self, ops: &[Op]) -> FlowAnalysis {
        let skeleton = skeleton(ops);
        let mut results: Vec<Option<UnitResult>> = skeleton
            .units
            .iter()
            .map(|unit| {
                self.cache
                    .get(&(unit.segment, unit.pair))
                    .and_then(|(input, result)| (*input == unit.input).then(|| result.clone()))
            })
            .collect();
        let reused = results.iter().filter(|r| r.is_some()).count() as u64;
        let todo: Vec<usize> = (0..results.len())
            .filter(|&i| results[i].is_none())
            .collect();
        let fresh: Vec<UnitResult> = if self.threads > 1 {
            let units = &skeleton.units;
            let todo_ref = &todo;
            perf::parallel_map(self.threads, todo.len(), |i| {
                run_unit(&units[todo_ref[i]].input)
            })
            .expect("flow-analysis worker panicked")
        } else {
            todo.iter()
                .map(|&i| run_unit(&skeleton.units[i].input))
                .collect()
        };
        for (slot, result) in todo.into_iter().zip(fresh) {
            results[slot] = Some(result);
        }
        let results: Vec<UnitResult> = results
            .into_iter()
            .map(|r| r.expect("every unit is reused or freshly judged"))
            .collect();
        self.cache = skeleton
            .units
            .iter()
            .zip(&results)
            .map(|(unit, result)| {
                (
                    (unit.segment, unit.pair),
                    (unit.input.clone(), result.clone()),
                )
            })
            .collect();
        assemble(&skeleton, &results, reused)
    }
}

/// From-scratch flow analysis: an empty-cache engine run once.
#[must_use]
pub fn analyze_flow(ops: &[Op], threads: usize) -> FlowAnalysis {
    IncrementalAnalyzer::with_threads(threads).analyze(ops)
}

/// Merges unit results into the full [`FlowAnalysis`].
fn assemble(skeleton: &Skeleton, results: &[UnitResult], reused: u64) -> FlowAnalysis {
    // Per-segment reports, in (segment, pair) order — exactly how the
    // skeleton laid the units out.
    let mut segments: Vec<SegmentReport> = skeleton
        .segments
        .iter()
        .enumerate()
        .map(|(i, meta)| SegmentReport {
            index: i as u32,
            start: meta.start,
            ops: meta.ops,
            barrier: meta.barrier,
            pairs: Vec::new(),
        })
        .collect();
    for (unit, result) in skeleton.units.iter().zip(results) {
        let granted = result.granted.len() as u64;
        let denied = result
            .denied
            .iter()
            .filter(|&&(_, _, _, provenance)| provenance)
            .count() as u64;
        let verdict = if denied > 0 {
            StaticVerdict::Unsafe
        } else if granted > 0 {
            StaticVerdict::Safe
        } else {
            StaticVerdict::Dynamic
        };
        segments[unit.segment as usize].pairs.push(SegmentPair {
            task: unit.pair.0,
            object: unit.pair.1,
            verdict,
            granted,
            denied,
            deps: unit.deps.clone(),
        });
    }

    // Whole-stream merge: re-attach global op indices and feed the very
    // same classification pass the monolithic analyzer runs. Op indices
    // are unique, so sorting by index restores exact stream order.
    let mut granted_ok: Vec<GrantedRec> = Vec::new();
    let mut predictions: Vec<DeniedRec> = Vec::new();
    for (unit, result) in skeleton.units.iter().zip(results) {
        let seg_start = skeleton.segments[unit.segment as usize].start;
        for &(off, addr, len, write, granted_before) in &result.granted {
            granted_ok.push((
                seg_start + u64::from(off),
                Predicted {
                    key: unit.pair,
                    provenance: true,
                    granted_before,
                },
                addr,
                len,
                write,
            ));
        }
        for &(off, reason, granted_before, provenance) in &result.denied {
            predictions.push((
                seg_start + u64::from(off),
                Predicted {
                    key: unit.pair,
                    provenance,
                    granted_before,
                },
                reason,
            ));
        }
    }
    granted_ok.sort_by_key(|&(index, ..)| index);
    predictions.sort_by_key(|&(index, ..)| index);
    let stream = classify(&predictions, &granted_ok, skeleton.skipped);

    let lattice = ProvenanceLattice::build(&skeleton.installed, &skeleton.revokes);
    let mut flows = lattice.audit_widening();
    flows.extend(lattice.audit_flows());

    FlowAnalysis {
        segments,
        stream,
        lattice,
        flows,
        units: skeleton.units.len() as u64,
        reused,
    }
}

/// The re-analysis work the incremental engine would do moving from
/// `prev` to `cur` — a *pure function of the two streams*, so reports
/// can state the work ratio identically whether they were produced
/// incrementally or from scratch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkRatio {
    /// Total work units in `cur`.
    pub units: u64,
    /// Units whose dependency slice is new or changed versus `prev`.
    pub changed: u64,
}

impl WorkRatio {
    /// Changed units as a percentage of all units (0 when empty).
    #[must_use]
    pub fn pct(&self) -> u64 {
        (self.changed * 100).checked_div(self.units).unwrap_or(0)
    }
}

/// Computes the [`WorkRatio`] between two streams by diffing their
/// skeletons' dependency slices.
#[must_use]
pub fn reanalysis_work(prev: &[Op], cur: &[Op]) -> WorkRatio {
    let before = skeleton(prev);
    let after = skeleton(cur);
    let index: BTreeMap<(u32, (u8, u8)), &UnitInput> = before
        .units
        .iter()
        .map(|u| ((u.segment, u.pair), &u.input))
        .collect();
    let changed = after
        .units
        .iter()
        .filter(|u| index.get(&(u.segment, u.pair)) != Some(&&u.input))
        .count() as u64;
    WorkRatio {
        units: after.units.len() as u64,
        changed,
    }
}

/// Deterministic grant churn for demos and property tests: every fifth
/// grant op's length is halved (floored at 8 bytes). Op positions are
/// preserved, so units of unaffected pairs keep identical dependency
/// slices and the incremental engine's reuse is visible.
#[must_use]
pub fn churn_grants(ops: &[Op]) -> Vec<Op> {
    let mut out = ops.to_vec();
    let mut nth = 0u32;
    for op in &mut out {
        if let Op::Grant { len, .. } = op {
            nth += 1;
            if nth.is_multiple_of(5) {
                *len = (*len / 2).max(8);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::analyze_stream;
    use cheri::Perms;

    fn grant(task: u8, object: u8, base: u64, len: u16, perms: Perms) -> Op {
        Op::Grant {
            task,
            object,
            base,
            len,
            perms: perms.bits(),
            seal: false,
            untagged: false,
        }
    }

    fn access(task: u8, object: u8, write: bool, addr: u64, len: u8) -> Op {
        Op::Access {
            task,
            object,
            provenance: true,
            write,
            addr,
            len,
            value: 0,
        }
    }

    #[test]
    fn barriers_partition_the_stream() {
        let b = conformance::stream::slot_base(0, 0);
        let ops = vec![
            grant(0, 0, b, 0x100, Perms::RW),
            access(0, 0, false, b, 8),
            Op::RevokeTask { task: 0 },
            grant(0, 0, b, 0x100, Perms::RW),
            access(0, 0, true, b, 8),
            Op::Sweep {
                base: b,
                len: 0x100,
            },
            access(0, 0, false, b, 8),
        ];
        let flow = analyze_flow(&ops, 1);
        assert_eq!(flow.segments.len(), 3);
        assert_eq!(flow.segments[0].barrier, Barrier::Start);
        assert_eq!(flow.segments[1].barrier, Barrier::Revoke);
        assert_eq!(flow.segments[2].barrier, Barrier::Sweep);
        assert_eq!(flow.segments[1].start, 2);
        assert_eq!(flow.segments[2].start, 5);
        // Every segment's accesses are granted, so every segment map
        // marks the pair safe.
        for seg in &flow.segments {
            assert_eq!(seg.count(StaticVerdict::Safe), 1, "segment {}", seg.index);
        }
    }

    #[test]
    fn segment_verdicts_are_scoped_to_their_segment() {
        let b = conformance::stream::slot_base(1, 2);
        let ops = vec![
            grant(1, 2, b, 0x100, Perms::RW),
            access(1, 2, false, b, 8),
            Op::RevokeTask { task: 1 },
            // Stale access: denied in segment 1 only.
            access(1, 2, false, b, 8),
        ];
        let flow = analyze_flow(&ops, 1);
        assert_eq!(flow.segments.len(), 2);
        assert_eq!(flow.segments[0].count(StaticVerdict::Safe), 1);
        assert_eq!(flow.segments[1].count(StaticVerdict::Unsafe), 1);
        // The whole-stream verdict is poisoned, exactly as the
        // monolithic analyzer says.
        assert_eq!(
            flow.stream.verdict_map().verdict(TaskId(1), ObjectId(2)),
            StaticVerdict::Unsafe
        );
    }

    #[test]
    fn whole_stream_merge_equals_the_monolithic_analyzer() {
        for seed in 1..=8u64 {
            let ops = conformance::generate(seed, 300);
            let flow = analyze_flow(&ops, 1);
            let mono = analyze_stream(&ops);
            assert_eq!(flow.stream, mono, "seed {seed}");
        }
    }

    #[test]
    fn incremental_reuses_unchanged_units_and_matches_scratch() {
        for seed in 1..=6u64 {
            let prev = conformance::generate(seed, 300);
            let cur = churn_grants(&prev);
            let mut engine = IncrementalAnalyzer::new();
            let first = engine.analyze(&prev);
            assert_eq!(first.reused, 0, "first pass has nothing to reuse");
            let incremental = engine.analyze(&cur);
            let scratch = analyze_flow(&cur, 1);
            assert!(
                incremental.same_results(&scratch),
                "seed {seed}: incremental must equal from-scratch"
            );
            // The engine's actual reuse equals the pure work-ratio
            // prediction.
            let work = reanalysis_work(&prev, &cur);
            assert_eq!(
                incremental.reused,
                work.units - work.changed,
                "seed {seed}: reuse must match the skeleton diff"
            );
            assert!(
                incremental.reused > 0,
                "seed {seed}: churned streams must still reuse some units"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let ops = conformance::generate(11, 400);
        let seq = analyze_flow(&ops, 1);
        let par = analyze_flow(&ops, 8);
        assert!(seq.same_results(&par));
        assert_eq!(seq.reused, par.reused);
    }

    #[test]
    fn dependency_sets_name_the_grants_and_revocations() {
        let b = conformance::stream::slot_base(0, 0);
        let ops = vec![
            grant(0, 0, b, 0x100, Perms::RW), // op 0
            access(0, 0, false, b, 8),
            Op::RevokeTask { task: 0 },       // op 2
            grant(0, 0, b, 0x100, Perms::RW), // op 3
            access(0, 0, true, b, 8),
        ];
        let flow = analyze_flow(&ops, 1);
        assert_eq!(flow.segments[0].pairs[0].deps, vec![0]);
        // Segment 1's verdict rests on the revocation that opened it and
        // the re-grant inside it.
        assert_eq!(flow.segments[1].pairs[0].deps, vec![2, 3]);
    }

    #[test]
    fn work_ratio_is_complete_when_everything_changes() {
        let ops = conformance::generate(3, 200);
        let work = reanalysis_work(&[], &ops);
        assert_eq!(work.changed, work.units);
        assert_eq!(work.pct(), 100);
        let same = reanalysis_work(&ops, &ops);
        assert_eq!(same.changed, 0);
        assert_eq!(same.pct(), 0);
    }
}
