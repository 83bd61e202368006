//! The differential harness: replays one operation stream through every
//! implementation and the oracle, diffing each verdict, exception code,
//! and the final tag state.
//!
//! ## Subjects
//!
//! Every production path is the one [`CapChecker`] front end over one of
//! its two capability stores, wrapped as a [`CheckerSubject`]:
//!
//! * [`CheckerSubject::uncached`] — over the fixed table;
//! * [`CheckerSubject::cached`] — over the cache, with its sanctioned
//!   fail-stop reconciled (see below);
//! * [`CheckerSubject::degrading`] — the recovery path: starts cached,
//!   degrades to the fixed table (re-granting every live capability,
//!   mirroring `HeteroSystem::degrade_to_uncached`) on the first
//!   corruption detection *or* unconditionally at a fixed operation
//!   index, so every seed exercises both halves of the path;
//! * [`CheckerSubject::elided`] / [`CheckerSubject::elided_cached`] —
//!   either store with a static verdict map installed.
//!
//! ## Fail-stop reconciliation
//!
//! Injected cache corruption makes a cache-backed checker *deny* with
//! [`DenyReason::InvalidTag`] and bump its corruption counter — that is
//! its specified fail-stop, not a bug. The harness classifies such a
//! denial (reason `InvalidTag` **and** counter increment) as a
//! `fail_stop`, re-issues the check once (the corrupt line has been
//! dropped, so the retry consults the backing store — or, on the
//! degrading path, the fixed table it just degraded to), and diffs the
//! retry's verdict. An `InvalidTag` denial *without* a counter increment
//! is a real divergence.

use crate::oracle::{Oracle, Verdict};
use crate::stream::{self, Op};
use capchecker::{sweep_revoked, CachedCheckerConfig, CapChecker, CheckerConfig, StaticVerdictMap};
use cheri::{CapFault, Capability, Perms};
use hetsim::{Access, DenyReason, MasterId, ObjectId, TaggedMemory, TaskId};
use ioprotect::{GrantError, IoProtection};
use obs::{Event, EventKind};
use std::collections::BTreeMap;

/// One subject's answer to one access, with fail-stop attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checked {
    /// The verdict to diff against the oracle.
    pub verdict: Verdict,
    /// `true` when this check consumed a sanctioned corruption
    /// fail-stop before producing the verdict.
    pub fail_stop: bool,
}

/// One implementation under differential test.
pub trait Subject {
    /// Display name used in divergence records.
    fn name(&self) -> &'static str;
    /// Called at the start of every op with its stream index.
    fn begin_op(&mut self, _index: u64) {}
    /// Install a capability.
    ///
    /// # Errors
    ///
    /// Exactly the implementation's grant error — diffed verbatim.
    fn grant(&mut self, task: TaskId, object: ObjectId, cap: &Capability)
        -> Result<(), GrantError>;
    /// Evict a task's entries.
    fn revoke_task(&mut self, task: TaskId);
    /// Judge one access.
    fn check(&mut self, access: &Access) -> Checked;
    /// Fault overlay: corrupt the capability cache, if the subject has one.
    fn corrupt_cache(&mut self, _slot: u8, _flip: u64, _on_insert: bool) {}
    /// Install (replace) a static verdict map mid-stream, if the
    /// subject elides. Segmented replays use this at analysis barriers.
    fn install_verdicts(&mut self, _map: &StaticVerdictMap) {}
    /// The subject's latched exception flag.
    fn exception_flag(&self) -> bool;
    /// What the flag *should* be given the verdicts this subject
    /// returned (denial or fail-stop latches; degradation resets).
    fn expected_exception_flag(&self) -> bool;
    /// The op index at which the subject degraded, if it did.
    fn degraded_at(&self) -> Option<u64> {
        None
    }
    /// Checks this subject skipped under a static verdict map.
    fn checks_elided(&self) -> u64 {
        0
    }
}

/// A Fine-mode [`CapChecker`] under differential test: the fixed
/// 256-entry table or the default 16-line cache, optionally with a
/// static verdict map installed, optionally degrading from the cache to
/// the table mid-stream.
///
/// An elided subject is how an analyzer result gets *proved* rather than
/// trusted: pairs the map marks safe skip the per-beat check and answer
/// `Granted` unchecked, and the harness diffs every one of those answers
/// against the oracle. An unsound map — one that marks a pair safe whose
/// stream contains a denial — shows up as an ordinary divergence.
/// Elided accesses never touch the cache, so they are immune to injected
/// corruption — itself a differential fact the oracle confirms.
#[derive(Debug)]
pub struct CheckerSubject {
    name: &'static str,
    checker: CapChecker,
    /// Degrading subjects only: degrade before this op index if no
    /// corruption forced it earlier.
    degrade_after: Option<u64>,
    degraded_at: Option<u64>,
    current_op: u64,
    expected_flag: bool,
}

impl CheckerSubject {
    fn new(name: &'static str, checker: CapChecker) -> CheckerSubject {
        CheckerSubject {
            name,
            checker,
            degrade_after: None,
            degraded_at: None,
            current_op: 0,
            expected_flag: false,
        }
    }

    /// `CapChecker`: the fixed table, verbatim.
    #[must_use]
    pub fn uncached() -> CheckerSubject {
        CheckerSubject::new("CapChecker", CapChecker::new(CheckerConfig::fine()))
    }

    /// `CachedCapChecker`: the cache store.
    #[must_use]
    pub fn cached() -> CheckerSubject {
        CheckerSubject::new(
            "CachedCapChecker",
            CapChecker::cached(CachedCheckerConfig::default()),
        )
    }

    /// `DegradedPath`: starts cached; unconditionally degrades before op
    /// `degrade_after` even if no corruption is ever detected, so both
    /// halves of the path run under every seed.
    #[must_use]
    pub fn degrading(degrade_after: u64) -> CheckerSubject {
        CheckerSubject {
            degrade_after: Some(degrade_after),
            ..CheckerSubject::new(
                "DegradedPath",
                CapChecker::cached(CachedCheckerConfig::default()),
            )
        }
    }

    /// `CapChecker+elide`: the fixed table with `map` installed.
    #[must_use]
    pub fn elided(map: StaticVerdictMap) -> CheckerSubject {
        let mut subject = CheckerSubject::uncached();
        subject.checker.set_static_verdicts(map);
        subject.name = "CapChecker+elide";
        subject
    }

    /// `CachedCapChecker+elide`: the cache store with `map` installed.
    #[must_use]
    pub fn elided_cached(map: StaticVerdictMap) -> CheckerSubject {
        let mut subject = CheckerSubject::cached();
        subject.checker.set_static_verdicts(map);
        subject.name = "CachedCapChecker+elide";
        subject
    }

    /// Swaps the cache for a fresh fixed table holding every live
    /// capability, in `(task, object)` order.
    fn degrade(&mut self, at: u64) {
        let mut replacement = CapChecker::new(*self.checker.config());
        for (task, object, cap) in self.checker.snapshot().entries {
            IoProtection::grant(&mut replacement, task, object, &cap)
                .expect("live capabilities fit the replacement table");
        }
        self.checker = replacement;
        self.degraded_at = Some(at);
        // The replacement checker starts with a clear exception flag.
        self.expected_flag = false;
    }

    fn degrades_pending(&self) -> bool {
        self.degrade_after.is_some() && self.degraded_at.is_none()
    }

    fn judge(&mut self, access: &Access) -> Verdict {
        match self.checker.check(access) {
            Ok(()) => Verdict::Granted,
            Err(denial) => {
                self.expected_flag = true;
                Verdict::Denied(denial.reason)
            }
        }
    }
}

impl Subject for CheckerSubject {
    fn name(&self) -> &'static str {
        self.name
    }

    fn begin_op(&mut self, index: u64) {
        self.current_op = index;
        if self.degraded_at.is_none() && self.degrade_after.is_some_and(|n| index >= n) {
            self.degrade(index);
        }
    }

    fn grant(
        &mut self,
        task: TaskId,
        object: ObjectId,
        cap: &Capability,
    ) -> Result<(), GrantError> {
        IoProtection::grant(&mut self.checker, task, object, cap)
    }

    fn revoke_task(&mut self, task: TaskId) {
        IoProtection::revoke_task(&mut self.checker, task);
    }

    fn check(&mut self, access: &Access) -> Checked {
        let before = self.checker.corruption_detected();
        match self.checker.check(access) {
            Ok(()) => Checked {
                verdict: Verdict::Granted,
                fail_stop: false,
            },
            Err(denial)
                if denial.reason == DenyReason::InvalidTag
                    && self.checker.corruption_detected() > before =>
            {
                // Sanctioned fail-stop: the corrupt line was detected and
                // dropped. The recovery path degrades now; either way the
                // retry consults intact storage.
                if self.degrades_pending() {
                    self.degrade(self.current_op);
                } else {
                    self.expected_flag = true;
                }
                Checked {
                    verdict: self.judge(access),
                    fail_stop: true,
                }
            }
            Err(denial) => {
                self.expected_flag = true;
                Checked {
                    verdict: Verdict::Denied(denial.reason),
                    fail_stop: false,
                }
            }
        }
    }

    fn corrupt_cache(&mut self, slot: u8, flip: u64, on_insert: bool) {
        let flip = u128::from(flip) | (u128::from(flip) << 64);
        if on_insert {
            self.checker.corrupt_next_insert(flip);
        } else {
            let _hit = self.checker.corrupt_cache_slot(usize::from(slot), flip);
        }
    }

    fn install_verdicts(&mut self, map: &StaticVerdictMap) {
        self.checker.set_static_verdicts(map.clone());
    }

    fn exception_flag(&self) -> bool {
        self.checker.exception_flag()
    }

    fn expected_exception_flag(&self) -> bool {
        self.expected_flag
    }

    fn degraded_at(&self) -> Option<u64> {
        self.degraded_at
    }

    fn checks_elided(&self) -> u64 {
        self.checker.stats().elided
    }
}

/// How many ops of each kind a run replayed (corpus composition).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Capability installs attempted.
    pub grants: u64,
    /// Accesses judged.
    pub accesses: u64,
    /// Task revocations.
    pub revokes: u64,
    /// Capability spills to memory.
    pub spills: u64,
    /// Revocation sweeps.
    pub sweeps: u64,
    /// Tag flips applied.
    pub tag_flips: u64,
    /// Cache corruptions injected.
    pub cache_corruptions: u64,
    /// Ops skipped because they could not apply deterministically
    /// (tag flip on unknown bytes, out-of-range spill, underivable grant).
    pub skipped: u64,
}

/// One disagreement between a subject and the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Stream index of the diverging op (`ops.len()` for final-state
    /// divergences).
    pub op: u64,
    /// Name of the diverging subject, or `"tag-state"`.
    pub subject: String,
    /// What the oracle said.
    pub expected: String,
    /// What the subject said.
    pub got: String,
}

/// Everything one differential run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Corpus composition.
    pub counts: OpCounts,
    /// Oracle-vs-subject comparisons made.
    pub checked: u64,
    /// Accesses the oracle granted.
    pub granted: u64,
    /// Accesses the oracle denied.
    pub denied: u64,
    /// Sanctioned corruption fail-stops consumed across subjects.
    pub fail_stops: u64,
    /// Checks skipped under a static verdict map, summed over subjects
    /// (0 unless an elided subject ran).
    pub elided: u64,
    /// Op index at which the degrading subject switched to uncached.
    pub degraded_at: Option<u64>,
    /// Granules carrying a tag in either the memory or the oracle at
    /// the end of the run.
    pub tag_granules: u64,
    /// Final tag-state granules where memory and oracle disagreed.
    pub tag_mismatches: u64,
    /// Every disagreement, in stream order.
    pub divergences: Vec<Divergence>,
    /// Obs events the run emitted (divergences + completion).
    pub events: Vec<Event>,
}

impl RunOutcome {
    /// `true` when every implementation agreed with the oracle on every
    /// verdict and on the final tag state.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty() && self.tag_mismatches == 0
    }
}

/// The standard subject set: uncached, cached, and the degrading path
/// (forced to degrade at the stream midpoint so both halves run).
#[must_use]
pub fn default_subjects(ops_len: usize) -> Vec<Box<dyn Subject>> {
    vec![
        Box::new(CheckerSubject::uncached()),
        Box::new(CheckerSubject::cached()),
        Box::new(CheckerSubject::degrading(ops_len as u64 / 2)),
    ]
}

/// Replays `ops` through the standard subjects and the oracle.
#[must_use]
pub fn run_ops(ops: &[Op]) -> RunOutcome {
    run_stream(ops, default_subjects(ops.len()))
}

/// Replays `ops` through elision-enabled subjects (plain and cached,
/// both carrying `map`) and the oracle: the differential proof that the
/// analyzer's verdict map is sound for this stream.
#[must_use]
pub fn run_ops_elided(ops: &[Op], map: &StaticVerdictMap) -> RunOutcome {
    run_stream(
        ops,
        vec![
            Box::new(CheckerSubject::elided(map.clone())),
            Box::new(CheckerSubject::elided_cached(map.clone())),
        ],
    )
}

/// Replays `ops` through elision-enabled subjects, re-installing a new
/// verdict map at every segment boundary: the differential proof that
/// an incremental analysis's *per-segment* maps are each sound while
/// their segment executes. `segments` pairs each segment's first op
/// index with its map, in ascending order (a map whose start is 0
/// replaces the initial empty map before any op runs).
#[must_use]
pub fn run_ops_elided_segments(ops: &[Op], segments: &[(u64, StaticVerdictMap)]) -> RunOutcome {
    run_stream_with_installs(
        ops,
        vec![
            Box::new(CheckerSubject::elided(StaticVerdictMap::new())),
            Box::new(CheckerSubject::elided_cached(StaticVerdictMap::new())),
        ],
        segments,
    )
}

/// Builds the capability a [`Op::Grant`] would install — the one
/// construction both the harness and the static analyzer use, so the
/// analyzer's model can never drift from what actually enters a table.
///
/// # Errors
///
/// The [`CapFault`] of an underivable request (the harness skips such
/// ops; the analyzer must too).
pub fn build_grant_cap(
    base: u64,
    len: u16,
    perms: u16,
    seal: bool,
    untagged: bool,
) -> Result<Capability, CapFault> {
    // `and_perms` intersects with the root's 12 meaningful bits, so
    // out-of-range mask bits can never survive into the table.
    let mut cap = Capability::root()
        .set_bounds(base, u64::from(len))?
        .and_perms(Perms::from_bits(perms))?;
    if seal {
        cap = cap.seal(4)?;
    }
    if untagged {
        cap = cap.clear_tag();
    }
    Ok(cap)
}

/// Builds the [`Access`] a [`Op::Access`] issues (shared with the
/// static analyzer, like [`build_grant_cap`]).
#[must_use]
pub fn build_access(
    task: u8,
    object: u8,
    provenance: bool,
    write: bool,
    addr: u64,
    len: u8,
) -> Access {
    let access = if write {
        Access::write(MasterId(0), TaskId(u32::from(task)), addr, u64::from(len))
    } else {
        Access::read(MasterId(0), TaskId(u32::from(task)), addr, u64::from(len))
    };
    if provenance {
        access.with_object(ObjectId(u16::from(object)))
    } else {
        access
    }
}

/// Replays `ops` through an explicit subject set and the oracle.
///
/// Tests use this to insert a deliberately buggy subject and prove the
/// harness catches it; [`run_ops`] is the production entry point.
#[must_use]
pub fn run_stream(ops: &[Op], subjects: Vec<Box<dyn Subject>>) -> RunOutcome {
    run_stream_with_installs(ops, subjects, &[])
}

/// [`run_stream`] plus mid-stream verdict-map installation: before the
/// op at each `installs` index runs, every subject receives the map via
/// [`Subject::install_verdicts`].
#[allow(clippy::too_many_lines)]
fn run_stream_with_installs(
    ops: &[Op],
    mut subjects: Vec<Box<dyn Subject>>,
    installs: &[(u64, StaticVerdictMap)],
) -> RunOutcome {
    let mut next_install = 0usize;
    let mut oracle = Oracle::new(256);
    let mut mem = TaggedMemory::new(stream::MEM_BYTES);
    let mut out = RunOutcome {
        counts: OpCounts::default(),
        checked: 0,
        granted: 0,
        denied: 0,
        fail_stops: 0,
        elided: 0,
        degraded_at: None,
        tag_granules: 0,
        tag_mismatches: 0,
        divergences: Vec::new(),
        events: Vec::new(),
    };

    for (index, op) in ops.iter().enumerate() {
        let index = index as u64;
        while next_install < installs.len() && installs[next_install].0 == index {
            for subject in &mut subjects {
                subject.install_verdicts(&installs[next_install].1);
            }
            next_install += 1;
        }
        for subject in &mut subjects {
            subject.begin_op(index);
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
                    out.counts.skipped += 1;
                    continue;
                };
                out.counts.grants += 1;
                let task = TaskId(u32::from(task));
                let object = ObjectId(u16::from(object));
                let want = oracle.grant(task, object, &cap);
                out.checked += 1;
                for subject in &mut subjects {
                    let got = subject.grant(task, object, &cap);
                    if got != want {
                        diverge(&mut out, index, subject.name(), &want, &got);
                    }
                }
            }
            Op::Access {
                task,
                object,
                provenance,
                write,
                addr,
                len,
                value,
            } => {
                out.counts.accesses += 1;
                let access = build_access(task, object, provenance, write, addr, len);
                let want = oracle.check(&access);
                match want {
                    Verdict::Granted => out.granted += 1,
                    Verdict::Denied(_) => out.denied += 1,
                }
                out.checked += 1;
                for subject in &mut subjects {
                    let checked = subject.check(&access);
                    if checked.fail_stop {
                        out.fail_stops += 1;
                    }
                    if checked.verdict != want {
                        diverge(&mut out, index, subject.name(), &want, &checked.verdict);
                    }
                }
                if want == Verdict::Granted && write {
                    // A granted DMA write lands: data changes, and every
                    // tag its span overlaps dies — on both sides.
                    let wlen = len.min(8);
                    if mem.write_uint(addr, wlen, value).is_ok() {
                        oracle.dma_write(addr, u64::from(wlen));
                    }
                }
            }
            Op::RevokeTask { task } => {
                out.counts.revokes += 1;
                let task = TaskId(u32::from(task));
                oracle.revoke_task(task);
                for subject in &mut subjects {
                    subject.revoke_task(task);
                }
            }
            Op::Spill { granule, base, len } => {
                let addr = u64::from(granule) * 16;
                let spilled = Capability::root()
                    .set_bounds(base, u64::from(len))
                    .and_then(|c| c.and_perms(Perms::RW));
                match spilled {
                    Ok(cap) if mem.write_capability(addr, cap.compress(), true).is_ok() => {
                        out.counts.spills += 1;
                        oracle.spill(addr, cap.base(), cap.top());
                    }
                    _ => out.counts.skipped += 1,
                }
            }
            Op::Sweep { base, len } => {
                out.counts.sweeps += 1;
                let _report = sweep_revoked(&mut mem, base, u64::from(len));
                oracle.sweep(base, u64::from(len));
            }
            Op::TagFlip { granule } => {
                let addr = u64::from(granule) * 16;
                if addr < stream::MEM_BYTES && oracle.tag_flip(addr).is_some() {
                    out.counts.tag_flips += 1;
                    mem.set_tag_raw(addr, true)
                        .expect("flip target is in range by the guard above");
                } else {
                    out.counts.skipped += 1;
                }
            }
            Op::CacheCorrupt {
                slot,
                flip,
                on_insert,
            } => {
                out.counts.cache_corruptions += 1;
                for subject in &mut subjects {
                    subject.corrupt_cache(slot, flip, on_insert);
                }
            }
        }
    }

    let final_op = ops.len() as u64;

    // Final tag state: the memory's shadow tags (with the bounds its
    // index derived) must equal the oracle's flat tag memory exactly.
    let mem_tags: BTreeMap<u64, (u64, u128)> = mem
        .tagged_capabilities()
        .map(|(addr, base, top)| (addr, (base, top)))
        .collect();
    let oracle_tags = oracle.tags();
    let mut granules: Vec<u64> = mem_tags.keys().chain(oracle_tags.keys()).copied().collect();
    granules.sort_unstable();
    granules.dedup();
    out.tag_granules = granules.len() as u64;
    for granule in granules {
        let in_mem = mem_tags.get(&granule);
        let in_oracle = oracle_tags.get(&granule);
        if in_mem != in_oracle {
            out.tag_mismatches += 1;
            diverge(
                &mut out,
                final_op,
                &format!("tag-state@{granule:#x}"),
                &in_oracle,
                &in_mem,
            );
        }
    }

    // Exception flags: each subject's latch must reflect the verdicts it
    // returned (denial or fail-stop sets it; degradation resets it).
    for subject in &subjects {
        let got = subject.exception_flag();
        let want = subject.expected_exception_flag();
        if got != want {
            diverge(
                &mut out,
                final_op,
                &format!("{}.exception_flag", subject.name()),
                &want,
                &got,
            );
        }
        if let Some(at) = subject.degraded_at() {
            out.degraded_at = Some(out.degraded_at.map_or(at, |prev: u64| prev.min(at)));
        }
        out.elided += subject.checks_elided();
    }

    out.events.push(Event {
        cycle: final_op,
        kind: EventKind::ConformanceComplete {
            ops: final_op,
            divergences: out.divergences.len() as u64,
        },
    });
    out
}

fn diverge<W: std::fmt::Debug + ?Sized, G: std::fmt::Debug + ?Sized>(
    out: &mut RunOutcome,
    op: u64,
    subject: &str,
    want: &W,
    got: &G,
) {
    out.events.push(Event {
        cycle: op,
        kind: EventKind::ConformanceDivergence { op },
    });
    out.divergences.push(Divergence {
        op,
        subject: subject.to_string(),
        expected: format!("{want:?}"),
        got: format!("{got:?}"),
    });
}
