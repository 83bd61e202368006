//! The concrete model state: five checker subjects run in lockstep with
//! the golden oracle and an independent live-grant model.
//!
//! One [`McState`] holds:
//!
//! * the PR 4 [`Oracle`] — the *spec* every verdict is compared against;
//! * five [`CapChecker`] subjects: one over the fixed table, one over the
//!   cache store, the post-degradation path (cache store until a
//!   [`McOp::Degrade`], fixed table after), and an elided variant of
//!   the first two (a `StaticVerdictMap`/`VerdictBitmap` installed);
//! * an *independent* abstract model — which pairs hold which grant,
//!   which slots hold spilled tags, which pairs the verdict map waves —
//!   used both to cross-check the oracle ("no access succeeds without a
//!   live grant") and as the canonical encoding in [`crate::canon`].
//!
//! [`McState::apply`] is the transition function: it replays one op
//! through everything, checks refinement (every subject's verdict equals
//! its spec), and checks the per-state invariants (map/bitmap coherence,
//! exception-flag agreement, tag memory mirroring the spill set).

use crate::ops::{full_cap, mem_bytes, narrow_cap, slot_base, McOp, NARROW_BYTES, SLOT_BYTES};
use capchecker::{
    sweep_revoked, CachedCheckerConfig, CapChecker, CheckerConfig, CheckerSnapshot, StaticVerdict,
    StaticVerdictMap,
};
use cheri::{CapFault, Capability};
use conformance::{Oracle, Verdict};
use hetsim::{Access, Denial, DenyReason, MasterId, ObjectId, TaggedMemory, TaskId};
use ioprotect::IoProtection;
use std::collections::{BTreeMap, BTreeSet};

/// A bug deliberately reintroduced behind this hook so tests can prove
/// the model checker finds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlantedBug {
    /// The PR 4 off-by-one: when a request is denied for bounds, retry
    /// with `len - 1` and wave the original through if the retry passes
    /// — re-admitting exactly the one-byte overflows.
    BoundsOffByOne,
}

/// Scaled-down model configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McConfig {
    /// Tasks in the model (1–4).
    pub tasks: u8,
    /// Objects per task (1–4).
    pub objects: u8,
    /// Optional planted bug on the fixed-table subject.
    pub planted: Option<PlantedBug>,
}

impl McConfig {
    /// A `tasks`×`objects` model with no planted bug.
    ///
    /// # Panics
    ///
    /// When either dimension is outside 1–4 — the explicit-state frontier
    /// is only tractable at the scaled-down sizes.
    #[must_use]
    pub fn new(tasks: u8, objects: u8) -> McConfig {
        assert!(
            (1..=4).contains(&tasks) && (1..=4).contains(&objects),
            "model dimensions must be 1-4 tasks x 1-4 objects"
        );
        McConfig {
            tasks,
            objects,
            planted: None,
        }
    }

    /// This configuration with a planted bug enabled.
    #[must_use]
    pub fn with_planted(mut self, bug: PlantedBug) -> McConfig {
        self.planted = Some(bug);
        self
    }

    fn pairs(self) -> usize {
        usize::from(self.tasks) * usize::from(self.objects)
    }

    /// An empty checker over the cache store (`cached`) or the fixed
    /// table, sized to hold every pair.
    fn checker(self, cached: bool) -> CapChecker {
        let base = CheckerConfig {
            entries: self.pairs(),
            ..CheckerConfig::fine()
        };
        if cached {
            CapChecker::cached(CachedCheckerConfig {
                cache_entries: 4,
                miss_penalty: 35,
                base,
            })
        } else {
            CapChecker::new(base)
        }
    }
}

/// What kind of grant a pair currently holds in the live-grant model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum GrantKind {
    /// The full-authority RW capability over the whole slot.
    Full,
    /// The derived LOAD-only capability over the front half.
    Narrow,
}

/// Display names of the five subjects, in expected-flag index order.
pub const SUBJECTS: [&str; 5] = [
    "CapChecker",
    "CachedCapChecker",
    "DegradingPath",
    "CapChecker+Verdicts",
    "CachedCapChecker+Verdicts",
];

/// Whether each subject starts over the cache store, in [`SUBJECTS`]
/// order.
const STARTS_CACHED: [bool; 5] = [false, true, true, false, true];

/// The subject that degrades to the fixed table and re-promotes.
const DEGRADING: usize = 2;

/// The subjects that carry the verdict maps.
const ELIDED: [usize; 2] = [3, 4];

/// One property violation: which subject broke which property, and how.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The subject (or model component) that disagreed.
    pub subject: String,
    /// The property broken (stable label, used in reports).
    pub property: &'static str,
    /// Deterministic human-readable detail.
    pub detail: String,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Probe {
    Read,
    ReadEdge,
    WriteHead,
    ReadNoProv,
}

const PROBES: [Probe; 4] = [
    Probe::Read,
    Probe::ReadEdge,
    Probe::WriteHead,
    Probe::ReadNoProv,
];

/// The full concrete state of the scaled-down model.
#[derive(Clone, Debug)]
pub struct McState {
    cfg: McConfig,
    oracle: Oracle,
    /// The subjects, in [`SUBJECTS`] order.
    checkers: [CapChecker; 5],
    /// Live grants: the independent model the oracle is checked against.
    shadow: BTreeMap<(u8, u8), GrantKind>,
    /// Pairs whose slot currently holds a spilled, tagged capability.
    spills: BTreeSet<(u8, u8)>,
    /// Pairs the installed verdict maps wave through (empty ⇒ no waving).
    safe: BTreeSet<(u8, u8)>,
    /// The retained analysis segment: the safe set snapshotted by the
    /// last `InstallVerdicts`, surviving rebuilds so
    /// `InstallSegmentVerdicts` can re-install it into a rebuilt
    /// checker through [`capchecker::CapChecker::set_static_verdicts`].
    segment: BTreeSet<(u8, u8)>,
    /// Whether verdict maps are installed on the elided subjects.
    maps_live: bool,
    /// Expected exception flags, one per [`SUBJECTS`] entry.
    expected: [bool; 5],
}

/// Architectural snapshot of one [`McState`], built from the checker
/// snapshot hooks — what the BFS frontier stores between depth levels.
#[derive(Clone, Debug)]
pub struct SavedState {
    checkers: [CheckerSnapshot; 5],
    /// Whether the degrading subject had degraded to the fixed table.
    degraded: bool,
    oracle: Oracle,
    shadow: BTreeMap<(u8, u8), GrantKind>,
    spills: BTreeSet<(u8, u8)>,
    safe: BTreeSet<(u8, u8)>,
    segment: BTreeSet<(u8, u8)>,
    maps_live: bool,
    expected: [bool; 5],
}

fn to_verdict(result: Result<(), Denial>) -> Verdict {
    match result {
        Ok(()) => Verdict::Granted,
        Err(denial) => Verdict::Denied(denial.reason),
    }
}

/// A relabeling-invariant label for one verdict: the grant/deny shape
/// and the denial *kind*, with concrete addresses stripped — slot bases
/// differ across task/object renamings, the judgment must not.
fn verdict_label(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Granted => "G",
        Verdict::Denied(reason) => match reason {
            DenyReason::NoEntry => "D:no-entry",
            DenyReason::OutOfBounds => "D:oob",
            DenyReason::MissingPermission => "D:perm",
            DenyReason::InvalidTag => "D:tag",
            DenyReason::BadProvenance => "D:prov",
            DenyReason::Capability(fault) => match fault {
                cheri::CapFault::TagViolation => "D:cap-tag",
                cheri::CapFault::SealViolation => "D:cap-seal",
                cheri::CapFault::BoundsViolation { .. } => "D:cap-bounds",
                cheri::CapFault::PermissionViolation { .. } => "D:cap-perm",
                cheri::CapFault::MonotonicityViolation => "D:cap-mono",
                cheri::CapFault::UnrepresentableBounds => "D:cap-repr-bounds",
                cheri::CapFault::UnrepresentableAddress => "D:cap-repr-addr",
                cheri::CapFault::InvalidObjectType => "D:cap-otype",
            },
        },
    }
}

impl McState {
    /// The initial state: empty tables, empty tag memory, no verdict
    /// maps. Fully symmetric under task/object renaming — the anchor the
    /// symmetry reduction needs.
    #[must_use]
    pub fn new(cfg: McConfig) -> McState {
        McState {
            cfg,
            oracle: Oracle::new(cfg.pairs()),
            checkers: STARTS_CACHED.map(|cached| cfg.checker(cached)),
            shadow: BTreeMap::new(),
            spills: BTreeSet::new(),
            safe: BTreeSet::new(),
            segment: BTreeSet::new(),
            maps_live: false,
            expected: [false; 5],
        }
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> McConfig {
        self.cfg
    }

    /// Applies one op: replays it through the oracle and all five
    /// subjects, then checks refinement and the per-state invariants.
    ///
    /// # Errors
    ///
    /// The first [`Violation`] found, if any — the state may be mid-op
    /// inconsistent afterwards and must be discarded.
    pub fn apply(&mut self, op: McOp) -> Result<(), Violation> {
        match op {
            McOp::GrantFull { task, object } => {
                let cap = full_cap(task, object, self.cfg.objects);
                self.grant_op(op, task, object, cap, Some(GrantKind::Full))?;
            }
            McOp::GrantNarrow { task, object } => {
                let cap = narrow_cap(task, object, self.cfg.objects);
                self.grant_op(op, task, object, cap, Some(GrantKind::Narrow))?;
            }
            McOp::GrantSealed { task, object } => {
                let cap = full_cap(task, object, self.cfg.objects)
                    .seal(4)
                    .expect("unsealed caps seal");
                self.grant_op(op, task, object, cap, None)?;
            }
            McOp::GrantUntagged { task, object } => {
                let cap = full_cap(task, object, self.cfg.objects).clear_tag();
                self.grant_op(op, task, object, cap, None)?;
            }
            McOp::Derive { task, object } => self.derive_op(op, task, object)?,
            McOp::Read { task, object } => self.access_op(op, task, object, Probe::Read)?,
            McOp::ReadEdge { task, object } => self.access_op(op, task, object, Probe::ReadEdge)?,
            McOp::WriteHead { task, object } => {
                self.access_op(op, task, object, Probe::WriteHead)?;
            }
            McOp::ReadNoProv { task, object } => {
                self.access_op(op, task, object, Probe::ReadNoProv)?;
            }
            McOp::Spill { task, object } => {
                let slot = slot_base(task, object, self.cfg.objects);
                self.oracle
                    .spill(slot, slot, u128::from(slot) + u128::from(SLOT_BYTES));
                self.spills.insert((task, object));
            }
            McOp::Revoke { task } => {
                self.oracle.revoke_task(TaskId(u32::from(task)));
                let tid = TaskId(u32::from(task));
                for checker in &mut self.checkers {
                    checker.revoke_task(tid);
                }
                self.shadow.retain(|&(t, _), _| t != task);
            }
            McOp::Sweep { task } => self.sweep_op(op, task)?,
            McOp::InstallVerdicts => {
                let mut map = StaticVerdictMap::new();
                self.safe.clear();
                for (&(t, o), &kind) in &self.shadow {
                    if kind == GrantKind::Full {
                        map.set(
                            TaskId(u32::from(t)),
                            ObjectId(u16::from(o)),
                            StaticVerdict::Safe,
                        );
                        self.safe.insert((t, o));
                    }
                }
                self.install_maps(&map);
                self.segment = self.safe.clone();
                self.maps_live = true;
            }
            McOp::InstallSegmentVerdicts => {
                // Install-after-drop: re-install the retained segment,
                // filtered to pairs whose full grant is still live (the
                // verdict's dependency) — revoked or narrowed pairs fall
                // back to dynamic checking.
                let mut map = StaticVerdictMap::new();
                self.safe.clear();
                for &(t, o) in &self.segment {
                    if self.shadow.get(&(t, o)) == Some(&GrantKind::Full) {
                        map.set(
                            TaskId(u32::from(t)),
                            ObjectId(u16::from(o)),
                            StaticVerdict::Safe,
                        );
                        self.safe.insert((t, o));
                    }
                }
                self.install_maps(&map);
                self.maps_live = true;
            }
            McOp::ModeSwitch => {
                // The actuator's architectural effect: every checker is
                // rebuilt, live grants re-granted, verdict maps dropped,
                // latched flags cleared. (The Fine⇄Coarse address view is
                // a provenance-resolution detail orthogonal to the
                // properties checked here; the model stays Fine-judged.)
                self.checkers = self
                    .checkers
                    .each_ref()
                    .map(|c| self.rebuild(c.is_cached()));
                self.safe.clear();
                self.maps_live = false;
                self.expected = [false; 5];
                // `segment` deliberately survives: the retained ledger
                // lives driver-side, outside the rebuilt checkers.
            }
            McOp::Degrade => {
                if self.checkers[DEGRADING].is_cached() {
                    self.checkers[DEGRADING] = self.rebuild(false);
                    self.expected[DEGRADING] = false;
                }
            }
            McOp::Repromote => {
                if !self.checkers[DEGRADING].is_cached() {
                    self.checkers[DEGRADING] = self.rebuild(true);
                    self.expected[DEGRADING] = false;
                }
            }
        }
        self.invariants(op)
    }

    /// Installs `map` on the elided subjects.
    fn install_maps(&mut self, map: &StaticVerdictMap) {
        for i in ELIDED {
            self.checkers[i].set_static_verdicts(map.clone());
        }
    }

    /// A fresh checker over the cache store (`cached`) or the fixed table
    /// with every live grant re-granted, in grant-model (BTreeMap) order —
    /// the driver's rebuild sequence.
    fn rebuild(&self, cached: bool) -> CapChecker {
        let mut checker = self.cfg.checker(cached);
        for (&(t, o), &kind) in &self.shadow {
            checker
                .grant(
                    TaskId(u32::from(t)),
                    ObjectId(u16::from(o)),
                    &self.grant_cap(t, o, kind),
                )
                .expect("re-granting a live capability cannot fail");
        }
        checker
    }

    fn grant_cap(&self, task: u8, object: u8, kind: GrantKind) -> Capability {
        match kind {
            GrantKind::Full => full_cap(task, object, self.cfg.objects),
            GrantKind::Narrow => narrow_cap(task, object, self.cfg.objects),
        }
    }

    fn grant_op(
        &mut self,
        op: McOp,
        task: u8,
        object: u8,
        cap: Capability,
        kind: Option<GrantKind>,
    ) -> Result<(), Violation> {
        let tid = TaskId(u32::from(task));
        let oid = ObjectId(u16::from(object));
        let spec = self.oracle.grant(tid, oid, &cap);
        let got = self.checkers.each_mut().map(|c| c.grant(tid, oid, &cap));
        for (i, g) in got.iter().enumerate() {
            if *g != spec {
                return Err(Violation {
                    subject: SUBJECTS[i].to_string(),
                    property: "grant-refinement",
                    detail: format!("{op:?}: oracle said {spec:?}, subject said {g:?}"),
                });
            }
        }
        if spec.is_ok() {
            if let Some(kind) = kind {
                self.shadow.insert((task, object), kind);
            }
        }
        Ok(())
    }

    /// Pure derivation algebra: monotonicity, seal/unseal round-trip,
    /// and the widening attempts that must fail. Never changes state.
    fn derive_op(&mut self, op: McOp, task: u8, object: u8) -> Result<(), Violation> {
        let fail = |detail: String| Violation {
            subject: "capability-algebra".to_string(),
            property: "derivation-monotonic",
            detail: format!("{op:?}: {detail}"),
        };
        let slot = slot_base(task, object, self.cfg.objects);
        let full = full_cap(task, object, self.cfg.objects);
        let narrow = narrow_cap(task, object, self.cfg.objects);
        if !Capability::root().dominates(&full) || !full.dominates(&narrow) {
            return Err(fail("derived capability escapes its parent".to_string()));
        }
        if narrow.set_bounds(slot, SLOT_BYTES).is_ok() {
            return Err(fail("bounds widened past the parent".to_string()));
        }
        let sealed = full
            .seal(4)
            .map_err(|e| fail(format!("seal refused: {e:?}")))?;
        if !sealed.is_sealed() {
            return Err(fail("seal left the capability unsealed".to_string()));
        }
        if sealed.set_bounds(slot, NARROW_BYTES).is_ok() {
            return Err(fail("sealed capability allowed derivation".to_string()));
        }
        let unsealed = sealed
            .unseal()
            .map_err(|e| fail(format!("unseal refused: {e:?}")))?;
        if unsealed != full {
            return Err(fail("seal/unseal round-trip changed authority".to_string()));
        }
        Ok(())
    }

    fn build_access(&self, task: u8, object: u8, probe: Probe) -> Access {
        let slot = slot_base(task, object, self.cfg.objects);
        let tid = TaskId(u32::from(task));
        let oid = ObjectId(u16::from(object));
        match probe {
            Probe::Read => Access::read(MasterId(0), tid, slot + 0x10, 8).with_object(oid),
            // Overflows the slot's top by exactly one byte.
            Probe::ReadEdge => {
                Access::read(MasterId(0), tid, slot + SLOT_BYTES - 7, 8).with_object(oid)
            }
            Probe::WriteHead => Access::write(MasterId(0), tid, slot, 8).with_object(oid),
            Probe::ReadNoProv => Access::read(MasterId(0), tid, slot + 0x10, 8),
        }
    }

    /// The independent live-grant judge: grants iff hardware provenance
    /// is present, the pair holds a live grant, the grant's permissions
    /// cover the probe, and the probe stays inside the grant's bounds.
    fn shadow_grants(&self, task: u8, object: u8, probe: Probe) -> bool {
        if probe == Probe::ReadNoProv {
            return false;
        }
        matches!(
            (self.shadow.get(&(task, object)), probe),
            (Some(GrantKind::Full), Probe::Read | Probe::WriteHead)
                | (Some(GrantKind::Narrow), Probe::Read)
        )
    }

    /// Every subject's verdict on `access`, in [`SUBJECTS`] order.
    fn verdicts(&mut self, access: &Access) -> [Verdict; 5] {
        let mut verdicts = self
            .checkers
            .each_mut()
            .map(|c| to_verdict(c.check(access)));
        verdicts[0] = self.planted_verdict(verdicts[0], access);
        verdicts
    }

    /// The fixed-table subject's verdict `first`, with the planted
    /// off-by-one applied when enabled: a bounds denial is retried one
    /// byte shorter and waved through if the retry passes.
    fn planted_verdict(&mut self, first: Verdict, access: &Access) -> Verdict {
        if self.cfg.planted == Some(PlantedBug::BoundsOffByOne)
            && matches!(
                first,
                Verdict::Denied(DenyReason::Capability(CapFault::BoundsViolation { .. }))
            )
            && access.len > 1
        {
            let mut shorter = *access;
            shorter.len -= 1;
            if self.checkers[0].check(&shorter).is_ok() {
                self.checkers[0].clear_exception_flag();
                return Verdict::Granted;
            }
        }
        first
    }

    fn access_op(&mut self, op: McOp, task: u8, object: u8, probe: Probe) -> Result<(), Violation> {
        let access = self.build_access(task, object, probe);
        let oracle_verdict = self.oracle.check(&access);
        // The oracle itself is cross-checked against the independent
        // live-grant model: no access may succeed without a live grant
        // covering it, and no covered access may be refused.
        if (oracle_verdict == Verdict::Granted) != self.shadow_grants(task, object, probe) {
            return Err(Violation {
                subject: "oracle".to_string(),
                property: "live-grant-soundness",
                detail: format!(
                    "{op:?}: oracle said {oracle_verdict:?} but the live-grant model disagrees"
                ),
            });
        }
        // Elided subjects wave waved pairs (with provenance) by design;
        // everything else must match the oracle verdict exactly.
        let waved = self.safe.contains(&(task, object)) && probe != Probe::ReadNoProv;
        let elided_spec = if waved {
            Verdict::Granted
        } else {
            oracle_verdict
        };
        let specs = [
            oracle_verdict,
            oracle_verdict,
            oracle_verdict,
            elided_spec,
            elided_spec,
        ];
        let got = self.verdicts(&access);
        for i in 0..SUBJECTS.len() {
            if got[i] != specs[i] {
                return Err(Violation {
                    subject: SUBJECTS[i].to_string(),
                    property: "verdict-refinement",
                    detail: format!(
                        "{op:?}: spec says {:?}, subject says {:?}",
                        specs[i], got[i]
                    ),
                });
            }
            if specs[i] != Verdict::Granted {
                self.expected[i] = true;
            }
        }
        // A granted DMA write is capability-unaware downstream: it clears
        // the tag of every granule it touches. WriteHead lands on the
        // pair's own spill granule.
        if probe == Probe::WriteHead && oracle_verdict == Verdict::Granted {
            self.oracle.dma_write(access.addr, access.len);
            self.spills.remove(&(task, object));
        }
        Ok(())
    }

    /// Revocation sweep over the task's whole slot region, cross-checked
    /// three ways: the oracle's tag model, the production
    /// [`sweep_revoked`] over a scratch tagged memory rebuilt from the
    /// abstract spill set, and the completeness property itself.
    fn sweep_op(&mut self, op: McOp, task: u8) -> Result<(), Violation> {
        let base = slot_base(task, 0, self.cfg.objects);
        let len = u64::from(self.cfg.objects) * SLOT_BYTES;
        self.oracle.sweep(base, len);

        let mut mem = TaggedMemory::new(mem_bytes(self.cfg.tasks, self.cfg.objects));
        for &(t, o) in &self.spills {
            let slot = slot_base(t, o, self.cfg.objects);
            mem.write_capability(slot, full_cap(t, o, self.cfg.objects).compress(), true)
                .expect("spill granules are aligned and in range");
        }
        let _ = sweep_revoked(&mut mem, base, len);

        let lo = u128::from(base);
        let hi = lo + u128::from(len);
        let objects = self.cfg.objects;
        self.spills.retain(|&(t, o)| {
            let cap_base = u128::from(slot_base(t, o, objects));
            let cap_top = cap_base + u128::from(SLOT_BYTES);
            !(cap_base < hi && cap_top > lo)
        });

        let surviving: BTreeSet<u64> = mem.tagged_capabilities().map(|(addr, _, _)| addr).collect();
        let expected: BTreeSet<u64> = self
            .spills
            .iter()
            .map(|&(t, o)| slot_base(t, o, objects))
            .collect();
        if surviving != expected {
            return Err(Violation {
                subject: "sweep_revoked".to_string(),
                property: "sweep-refinement",
                detail: format!(
                    "{op:?}: production sweep left tags at {surviving:?}, model expects {expected:?}"
                ),
            });
        }
        if mem
            .tagged_capabilities()
            .any(|(_, cap_base, cap_top)| u128::from(cap_base) < hi && cap_top > lo)
        {
            return Err(Violation {
                subject: "sweep_revoked".to_string(),
                property: "revocation-complete",
                detail: format!("{op:?}: a tag with authority over the swept region survived"),
            });
        }
        Ok(())
    }

    /// Per-state invariants, checked after every transition.
    fn invariants(&self, op: McOp) -> Result<(), Violation> {
        for (i, checker) in self.checkers.iter().enumerate() {
            if !checker.verdicts_coherent() {
                return Err(Violation {
                    subject: SUBJECTS[i].to_string(),
                    property: "verdict-coherence",
                    detail: format!("{op:?}: verdict bitmap diverged from the installed map"),
                });
            }
            if checker.exception_flag() != self.expected[i] {
                return Err(Violation {
                    subject: SUBJECTS[i].to_string(),
                    property: "exception-flag",
                    detail: format!(
                        "{op:?}: exception flag is {}, model expects {}",
                        checker.exception_flag(),
                        self.expected[i]
                    ),
                });
            }
        }
        // `spills` iterates in (task, object) order and `slot_base` is
        // strictly increasing in that order, so both sides are sorted —
        // an allocation-free positional comparison suffices.
        let tags_agree = self.oracle.tags().keys().copied().eq(self
            .spills
            .iter()
            .map(|&(t, o)| slot_base(t, o, self.cfg.objects)));
        if !tags_agree {
            return Err(Violation {
                subject: "oracle".to_string(),
                property: "tag-model",
                detail: format!(
                    "{op:?}: oracle tags at {:?}, spill model expects {:?}",
                    self.oracle.tags().keys().collect::<Vec<_>>(),
                    self.spills
                ),
            });
        }
        Ok(())
    }

    /// Whether no [`Self::expected`] flag would newly latch if this probe
    /// ran now — i.e. every subject's spec is `Granted`, or the flags the
    /// denials would set are already set.
    fn probe_flags_inert(&self, task: u8, object: u8, probe: Probe) -> bool {
        let granted = self.shadow_grants(task, object, probe);
        let waved = self.safe.contains(&(task, object)) && probe != Probe::ReadNoProv;
        let plain_inert = granted || (self.expected[0] && self.expected[1] && self.expected[2]);
        let elided_inert = granted || waved || (self.expected[3] && self.expected[4]);
        plain_inert && elided_inert
    }

    /// True when applying `op` here provably cannot change any
    /// verdict-relevant state — the successor's canonical encoding equals
    /// this state's. The explorer then applies the op *in place* (the
    /// refinement and invariant checks still run in full) instead of
    /// cloning, and counts the transition as a revisit.
    ///
    /// The argument is the same one behind the canonical encoding: all
    /// future verdicts are a function of (grants, spills, safe set,
    /// retained segment, maps-live, expected flags, degradation kind).
    /// An op that leaves
    /// all of those fixed may mutate only verdict-irrelevant residue —
    /// cache LRU order, statistics, the oracle's latched flag — which the
    /// encoding already deliberately ignores.
    #[must_use]
    pub fn abstractly_inert(&self, op: McOp) -> bool {
        match op {
            // Pure ops never mutate anything anywhere.
            McOp::Derive { .. } | McOp::GrantSealed { .. } | McOp::GrantUntagged { .. } => true,
            McOp::Read { task, object } => self.probe_flags_inert(task, object, Probe::Read),
            McOp::ReadEdge { task, object } => {
                self.probe_flags_inert(task, object, Probe::ReadEdge)
            }
            McOp::ReadNoProv { task, object } => {
                self.probe_flags_inert(task, object, Probe::ReadNoProv)
            }
            // A granted head write also clears the pair's spilled tag.
            McOp::WriteHead { task, object } => {
                self.probe_flags_inert(task, object, Probe::WriteHead)
                    && !(self.shadow_grants(task, object, Probe::WriteHead)
                        && self.spills.contains(&(task, object)))
            }
            // Re-granting the grant a pair already holds replaces the
            // entry with an identical capability.
            McOp::GrantFull { task, object } => {
                self.shadow.get(&(task, object)) == Some(&GrantKind::Full)
            }
            McOp::GrantNarrow { task, object } => {
                self.shadow.get(&(task, object)) == Some(&GrantKind::Narrow)
            }
            McOp::Spill { task, object } => self.spills.contains(&(task, object)),
            McOp::Revoke { task } => !self.shadow.keys().any(|&(t, _)| t == task),
            // Slot windows are disjoint per task, so only the task's own
            // spills can intersect its sweep region.
            McOp::Sweep { task } => !self.spills.iter().any(|&(t, _)| t == task),
            McOp::InstallVerdicts => {
                self.maps_live
                    && self.segment == self.safe
                    && self
                        .shadow
                        .iter()
                        .filter(|&(_, &kind)| kind == GrantKind::Full)
                        .map(|(&pair, _)| pair)
                        .eq(self.safe.iter().copied())
            }
            McOp::InstallSegmentVerdicts => {
                self.maps_live
                    && self
                        .segment
                        .iter()
                        .copied()
                        .filter(|pair| self.shadow.get(pair) == Some(&GrantKind::Full))
                        .eq(self.safe.iter().copied())
            }
            McOp::ModeSwitch => false,
            McOp::Degrade => !self.checkers[DEGRADING].is_cached(),
            McOp::Repromote => self.checkers[DEGRADING].is_cached(),
        }
    }

    /// The canonical-encoding cell for one pair: grant kind (2 bits),
    /// spilled-tag bit, waved-safe bit, retained-segment bit.
    #[must_use]
    pub fn cell(&self, task: u8, object: u8) -> u8 {
        let grant = match self.shadow.get(&(task, object)) {
            None => 0u8,
            Some(GrantKind::Full) => 1,
            Some(GrantKind::Narrow) => 2,
        };
        let spill = u8::from(self.spills.contains(&(task, object)));
        let safe = u8::from(self.safe.contains(&(task, object)));
        let retained = u8::from(self.segment.contains(&(task, object)));
        grant | (spill << 2) | (safe << 3) | (retained << 4)
    }

    /// The permutation-invariant global bits: the five expected exception
    /// flags, the degradation-path kind, and whether verdict maps are
    /// installed. (The oracle's own latched flag is a monotone ratchet
    /// with no effect on any future verdict, so it is not encoded.)
    #[must_use]
    pub fn global_bits(&self) -> u8 {
        let mut bits = 0u8;
        for (i, &flag) in self.expected.iter().enumerate() {
            bits |= u8::from(flag) << i;
        }
        bits |= u8::from(!self.checkers[DEGRADING].is_cached()) << 5;
        bits |= u8::from(self.maps_live) << 6;
        bits
    }

    /// Every subject's verdict on every probe of `(task, object)`,
    /// rendered deterministically as relabeling-invariant labels
    /// (`verdict_label` strips concrete addresses, which differ across
    /// renamings) — the probe suite behind the "equal canonical hash ⇒
    /// verdict-equivalent" property. Runs on clones; `self` is untouched.
    #[must_use]
    pub fn probe_pair(&self, task: u8, object: u8) -> String {
        let mut out = String::new();
        for probe in PROBES {
            let mut fork = self.clone();
            let access = fork.build_access(task, object, probe);
            let verdicts = fork.verdicts(&access);
            out.push('[');
            for (i, verdict) in verdicts.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(verdict_label(verdict));
            }
            out.push_str("];");
        }
        out
    }

    /// Captures the state via the checker snapshot hooks — the compact
    /// form the BFS frontier stores.
    #[must_use]
    pub fn save(&self) -> SavedState {
        SavedState {
            checkers: self.checkers.each_ref().map(CapChecker::snapshot),
            degraded: !self.checkers[DEGRADING].is_cached(),
            oracle: self.oracle.clone(),
            shadow: self.shadow.clone(),
            spills: self.spills.clone(),
            safe: self.safe.clone(),
            segment: self.segment.clone(),
            maps_live: self.maps_live,
            expected: self.expected,
        }
    }

    /// Reconstructs a state from a [`SavedState`]: fresh checkers over
    /// the saved stores, verdict maps re-installed when they were live,
    /// then the snapshot hooks restore the architectural state.
    #[must_use]
    pub fn from_saved(cfg: McConfig, saved: &SavedState) -> McState {
        let mut state = McState::new(cfg);
        if saved.degraded {
            state.checkers[DEGRADING] = cfg.checker(false);
        }
        if saved.maps_live {
            let mut map = StaticVerdictMap::new();
            for &(t, o) in &saved.safe {
                map.set(
                    TaskId(u32::from(t)),
                    ObjectId(u16::from(o)),
                    StaticVerdict::Safe,
                );
            }
            state.install_maps(&map);
        }
        for (checker, snap) in state.checkers.iter_mut().zip(&saved.checkers) {
            checker.restore(snap);
        }
        state.oracle = saved.oracle.clone();
        state.shadow = saved.shadow.clone();
        state.spills = saved.spills.clone();
        state.safe = saved.safe.clone();
        state.segment = saved.segment.clone();
        state.maps_live = saved.maps_live;
        state.expected = saved.expected;
        state
    }

    /// Replays `ops` from the initial state, returning the first
    /// violation — the predicate behind ddmin shrinking.
    #[must_use]
    pub fn replay(cfg: McConfig, ops: &[McOp]) -> Option<Violation> {
        let mut state = McState::new(cfg);
        for &op in ops {
            if let Err(violation) = state.apply(op) {
                return Some(violation);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::alphabet;

    #[test]
    fn clean_ops_produce_no_violation() {
        let cfg = McConfig::new(2, 2);
        let ops = [
            McOp::GrantFull { task: 0, object: 0 },
            McOp::Read { task: 0, object: 0 },
            McOp::ReadEdge { task: 0, object: 0 },
            McOp::Spill { task: 0, object: 1 },
            McOp::InstallVerdicts,
            McOp::Read { task: 0, object: 0 },
            McOp::WriteHead { task: 0, object: 0 },
            McOp::Sweep { task: 0 },
            McOp::Degrade,
            McOp::Read { task: 0, object: 0 },
            McOp::ModeSwitch,
            // The install-after-drop interleaving: the rebuild dropped
            // the maps, the retained segment restores them.
            McOp::InstallSegmentVerdicts,
            McOp::Read { task: 0, object: 0 },
            McOp::Repromote,
            McOp::Revoke { task: 0 },
            McOp::InstallSegmentVerdicts,
            McOp::Read { task: 0, object: 0 },
        ];
        assert_eq!(McState::replay(cfg, &ops), None);
    }

    #[test]
    fn segment_reinstall_restores_waving_after_mode_switch() {
        let cfg = McConfig::new(2, 2);
        let mut state = McState::new(cfg);
        state.apply(McOp::GrantFull { task: 0, object: 0 }).unwrap();
        state.apply(McOp::InstallVerdicts).unwrap();
        assert_eq!(state.cell(0, 0) >> 3, 0b11, "safe + retained bits set");
        state.apply(McOp::ModeSwitch).unwrap();
        assert_eq!(state.cell(0, 0) >> 3, 0b10, "safe dropped, segment kept");
        assert_eq!(state.global_bits() >> 6, 0, "maps not live");
        state.apply(McOp::InstallSegmentVerdicts).unwrap();
        assert_eq!(state.cell(0, 0) >> 3, 0b11, "re-install restores waving");
        assert_eq!(state.global_bits() >> 6, 1);
        // Re-installing again is abstractly inert; revoking the grant
        // then re-installing filters the pair out (dependency gone).
        assert!(state.abstractly_inert(McOp::InstallSegmentVerdicts));
        state.apply(McOp::Revoke { task: 0 }).unwrap();
        state.apply(McOp::InstallSegmentVerdicts).unwrap();
        assert_eq!(
            state.cell(0, 0) >> 3,
            0b10,
            "revoked pair falls back to dynamic checking"
        );
    }

    #[test]
    fn every_alphabet_op_applies_cleanly_from_scratch() {
        let cfg = McConfig::new(2, 3);
        for op in alphabet(2, 3) {
            let mut state = McState::new(cfg);
            assert_eq!(state.apply(op), Ok(()), "op {op:?} violated from scratch");
        }
    }

    #[test]
    fn planted_off_by_one_is_caught_by_the_edge_probe() {
        let cfg = McConfig::new(2, 2).with_planted(PlantedBug::BoundsOffByOne);
        let ops = [
            McOp::GrantFull { task: 0, object: 0 },
            McOp::ReadEdge { task: 0, object: 0 },
        ];
        let violation = McState::replay(cfg, &ops).expect("the planted bug must be caught");
        assert_eq!(violation.property, "verdict-refinement");
        assert_eq!(violation.subject, "CapChecker");
    }

    #[test]
    fn save_restore_round_trips_cells_and_probes() {
        let cfg = McConfig::new(2, 2);
        let mut state = McState::new(cfg);
        for op in [
            McOp::GrantFull { task: 0, object: 0 },
            McOp::GrantNarrow { task: 1, object: 1 },
            McOp::Spill { task: 1, object: 0 },
            McOp::InstallVerdicts,
            McOp::ReadEdge { task: 0, object: 0 },
            McOp::Degrade,
        ] {
            state.apply(op).unwrap();
        }
        let restored = McState::from_saved(cfg, &state.save());
        for t in 0..2 {
            for o in 0..2 {
                assert_eq!(state.cell(t, o), restored.cell(t, o));
                assert_eq!(state.probe_pair(t, o), restored.probe_pair(t, o));
            }
        }
        assert_eq!(state.global_bits(), restored.global_bits());
        // And the restored state keeps evolving identically.
        let op = McOp::Read { task: 1, object: 1 };
        let mut a = state;
        let mut b = restored;
        assert_eq!(a.apply(op), b.apply(op));
        assert_eq!(a.global_bits(), b.global_bits());
    }
}
