//! The event taxonomy: everything the simulator can say about itself.

use std::fmt;

/// A driver lifecycle phase — Figure 6's state machine, as seen by the
/// trusted driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Allocation ①: FU search, buffer allocation, capability import.
    Allocate,
    /// Kernel execution through the protected path.
    Execute,
    /// Deallocation ②: eviction, register clearing, scrub, report.
    Deallocate,
}

impl Phase {
    /// Stable lowercase label used in exports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Allocate => "allocate",
            Phase::Execute => "execute",
            Phase::Deallocate => "deallocate",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The fault taxonomy the fault-injection harness can draw from.
///
/// Lives here — not in `hetsim::fault` — because every layer that reports
/// a fault (engines, memory, the cached checker, the driver) funnels it
/// through the same [`EventKind::FaultInjected`] event, and the taxonomy
/// must be shared without a dependency cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A forged tag bit set on a granule of `TaggedMemory`.
    TagFlip,
    /// An unsolicited engine store far outside any granted buffer.
    RogueDma,
    /// Corrupted address lines on the engine's own transfers (persistent).
    GarbledDma,
    /// The engine stops making progress (persistent until quarantined).
    EngineHang,
    /// A bus grant that never arrives — the transfer stalls forever.
    BusStall,
    /// A beat lost on the interconnect; the transfer aborts cleanly.
    DroppedBeat,
    /// Bit flips in a cache line of a cache-backed CapChecker.
    CacheCorrupt,
}

impl FaultKind {
    /// Every kind, in the stable order specs and reports use.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::TagFlip,
        FaultKind::RogueDma,
        FaultKind::GarbledDma,
        FaultKind::EngineHang,
        FaultKind::BusStall,
        FaultKind::DroppedBeat,
        FaultKind::CacheCorrupt,
    ];

    /// Stable kebab-case label used in specs, events, and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::TagFlip => "tag-flip",
            FaultKind::RogueDma => "rogue-dma",
            FaultKind::GarbledDma => "garbled-dma",
            FaultKind::EngineHang => "engine-hang",
            FaultKind::BusStall => "bus-stall",
            FaultKind::DroppedBeat => "dropped-beat",
            FaultKind::CacheCorrupt => "cache-corrupt",
        }
    }

    /// Parses a [`label`](FaultKind::label) back into the kind.
    #[must_use]
    pub fn from_label(label: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The adaptive controller's rule taxonomy: which policy rule fired to
/// produce an [`EventKind::AdaptDecision`].
///
/// Lives here — like [`FaultKind`] — because the controller (`capchecker`),
/// the reports (`capcheri-bench`), and the threat harness all name the
/// same rules and the taxonomy must be shared without a dependency cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AdaptRule {
    /// Check-stall share crossed the up threshold: switch Fine → Coarse.
    StallUp,
    /// Check-stall share fell below the down threshold: switch back.
    StallDown,
    /// Corruption signal crossed the threshold: degrade the cached
    /// checker to the fixed-table design and start probation.
    CacheDegrade,
    /// A clean probation window elapsed: re-promote to the cached design.
    CacheRepromote,
    /// The cache flapped past its failure budget: degraded for good.
    CacheLatch,
    /// A quarantined FU's probation window elapsed: release it.
    FuRelease,
    /// A released FU faulted again: back to quarantine.
    FuRequarantine,
    /// An FU exhausted its re-quarantine budget: quarantined for good.
    FuLatch,
}

impl AdaptRule {
    /// Every rule, in the stable order reports use.
    pub const ALL: [AdaptRule; 8] = [
        AdaptRule::StallUp,
        AdaptRule::StallDown,
        AdaptRule::CacheDegrade,
        AdaptRule::CacheRepromote,
        AdaptRule::CacheLatch,
        AdaptRule::FuRelease,
        AdaptRule::FuRequarantine,
        AdaptRule::FuLatch,
    ];

    /// Stable kebab-case label used in decision traces and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AdaptRule::StallUp => "stall-up",
            AdaptRule::StallDown => "stall-down",
            AdaptRule::CacheDegrade => "cache-degrade",
            AdaptRule::CacheRepromote => "cache-repromote",
            AdaptRule::CacheLatch => "cache-latch",
            AdaptRule::FuRelease => "fu-release",
            AdaptRule::FuRequarantine => "fu-requarantine",
            AdaptRule::FuLatch => "fu-latch",
        }
    }
}

impl fmt::Display for AdaptRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What happened. Each variant carries only plain integers so events are
/// `Copy` and recording costs one `Vec` push.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The shared interconnect granted a lane's request.
    BusGrant {
        /// Global lane index in the simulated system.
        lane: u32,
        /// Owning task (input order of the timing model).
        task: u32,
        /// Beats the grant occupies the bus for.
        beats: u64,
        /// Cycles the request waited behind other traffic (contention).
        waited: u64,
    },
    /// One L1 data-cache lookup on the CPU model.
    L1Access {
        /// `true` on hit, `false` on miss.
        hit: bool,
    },
    /// A task began issuing in the timing model.
    TaskStart {
        /// Task index (input order of the timing model).
        task: u32,
    },
    /// A task's last operation drained.
    TaskEnd {
        /// Task index (input order of the timing model).
        task: u32,
    },
    /// The protection mechanism vetted one request.
    CheckerCheck {
        /// Requesting task ID.
        task: u32,
        /// Object the request claimed.
        object: u16,
        /// `true` when the request was granted.
        granted: bool,
    },
    /// A capability install found the table full (the hardware stall).
    CheckerStall {
        /// Task whose install stalled.
        task: u32,
    },
    /// A task's entries were evicted from the capability table.
    CheckerEvict {
        /// Task whose entries were evicted.
        task: u32,
        /// Entries freed.
        entries: u64,
    },
    /// The checker latched an exception (denied request).
    CheckerException {
        /// Offending task ID.
        task: u32,
        /// Object whose entry carries the exception bit.
        object: u16,
    },
    /// The driver staged a capability over the MMIO import interface.
    MmioCapInstall {
        /// Destination task ID.
        task: u32,
        /// Destination object slot.
        object: u16,
        /// `true` when the commit reported `STATUS_OK`.
        ok: bool,
    },
    /// The driver crossed a Figure 6 phase boundary for a task.
    DriverPhase {
        /// Task ID.
        task: u32,
        /// The phase being entered.
        phase: Phase,
    },
    /// The fault harness injected a fault into the running system.
    FaultInjected {
        /// Task the fault targets.
        task: u32,
        /// What was injected.
        fault: FaultKind,
    },
    /// The per-task watchdog expired and the driver aborted the task.
    WatchdogAbort {
        /// Aborted task ID.
        task: u32,
        /// Operation budget the task had burned when aborted.
        ops: u64,
    },
    /// The driver is re-running a task after a fault, with backoff.
    TaskRetry {
        /// Retried task ID.
        task: u32,
        /// Attempt number (2 = first retry).
        attempt: u32,
        /// Backoff the driver clock waited before this attempt.
        backoff: u64,
    },
    /// The driver quarantined an FU that faulted repeatedly.
    EngineQuarantined {
        /// Quarantined FU index.
        fu: u32,
        /// Consecutive faults observed on it.
        faults: u32,
    },
    /// The driver replaced a corrupted cached checker with the uncached
    /// fixed-table checker, re-granting every live capability.
    CheckerDegraded {
        /// Corruption detections that triggered the downgrade.
        detections: u64,
        /// Capabilities re-granted into the replacement checker.
        regranted: u64,
    },
    /// A driver tag audit cleared forged tags from a task's buffers.
    TagAudit {
        /// Audited task ID.
        task: u32,
        /// Forged tags found and cleared.
        cleared: u64,
    },
    /// The differential conformance harness saw an implementation
    /// disagree with the golden oracle on one operation.
    ConformanceDivergence {
        /// Index of the diverging operation in the stream.
        op: u64,
    },
    /// A differential conformance run finished.
    ConformanceComplete {
        /// Operations replayed through every implementation.
        ops: u64,
        /// Total divergences found (0 on a clean run).
        divergences: u64,
    },
    /// The static capability-flow analyzer finished classifying a
    /// workload's potential accesses.
    AnalysisComplete {
        /// Accesses proved safe on all paths (elidable).
        safe: u64,
        /// Provable violations found (over-privilege, staleness,
        /// aliasing).
        flagged: u64,
        /// Accesses that need the runtime checker.
        dynamic: u64,
    },
    /// The incremental flow analyzer finished one segmented pass over an
    /// op stream.
    FlowAnalysisComplete {
        /// Barrier-delimited analysis segments in the stream.
        segments: u64,
        /// Per-`(segment, pair)` work units whose cached results were
        /// reused (0 on a from-scratch pass).
        reused: u64,
        /// Total per-`(segment, pair)` work units in the pass.
        units: u64,
    },
    /// The driver installed a static verdict map into the active
    /// protection mechanism, enabling check elision.
    StaticVerdictsInstalled {
        /// `(task, object)` pairs the map marks statically safe.
        safe_pairs: u64,
    },
    /// A task retired with per-beat checks elided by static verdicts.
    ChecksElided {
        /// Retiring task ID.
        task: u32,
        /// Checks skipped so far on the active mechanism.
        count: u64,
    },
    /// The adaptive controller issued one policy decision at an epoch
    /// boundary.
    AdaptDecision {
        /// Epoch the decision was taken in.
        epoch: u32,
        /// The rule that fired.
        rule: AdaptRule,
    },
    /// A degraded checker or quarantined FU entered its probation window.
    ProbationStarted {
        /// Epoch probation began in.
        epoch: u32,
        /// Clean epochs required before release/re-promotion.
        window: u32,
    },
    /// A probation window elapsed cleanly.
    ProbationPassed {
        /// Epoch the window closed in.
        epoch: u32,
    },
    /// A probation subject faulted again before its window elapsed.
    ProbationFailed {
        /// Epoch of the recurrence.
        epoch: u32,
        /// Times this subject has now failed.
        failures: u32,
    },
    /// The driver released a quarantined FU back into the pool on
    /// probation (the adaptive controller's reversal of
    /// [`EventKind::EngineQuarantined`]).
    EngineReleased {
        /// Released FU index.
        fu: u32,
    },
    /// The driver re-promoted a degraded checker back to the cached
    /// design after a clean probation window (the reversal of
    /// [`EventKind::CheckerDegraded`]).
    CheckerRepromoted {
        /// Capabilities re-granted into the fresh cached checker.
        regranted: u64,
    },
    /// The driver switched the active checker's provenance mode at a
    /// task boundary, re-granting live capabilities.
    CheckerModeSwitched {
        /// `true` when the new mode is Coarse.
        coarse: bool,
        /// Capabilities re-granted into the rebuilt checker.
        regranted: u64,
    },
    /// The bounded model checker finished exploring one BFS depth level.
    ModelCheckDepth {
        /// Depth level just completed (1 = the initial state's successors).
        depth: u32,
        /// Unique canonical states discovered so far.
        states: u64,
        /// States waiting in the next frontier.
        frontier: u64,
    },
    /// A bounded model-checking run finished.
    ModelCheckComplete {
        /// Unique canonical states explored.
        states: u64,
        /// Property violations found (0 on a clean run).
        violations: u64,
    },
}

impl EventKind {
    /// Stable event name used as the Chrome trace event `name`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::BusGrant { .. } => "bus_grant",
            EventKind::L1Access { hit: true } => "l1_hit",
            EventKind::L1Access { hit: false } => "l1_miss",
            EventKind::TaskStart { .. } => "task_start",
            EventKind::TaskEnd { .. } => "task_end",
            EventKind::CheckerCheck { .. } => "checker_check",
            EventKind::CheckerStall { .. } => "checker_stall",
            EventKind::CheckerEvict { .. } => "checker_evict",
            EventKind::CheckerException { .. } => "checker_exception",
            EventKind::MmioCapInstall { .. } => "mmio_cap_install",
            EventKind::DriverPhase { .. } => "driver_phase",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::WatchdogAbort { .. } => "watchdog_abort",
            EventKind::TaskRetry { .. } => "task_retry",
            EventKind::EngineQuarantined { .. } => "engine_quarantined",
            EventKind::CheckerDegraded { .. } => "checker_degraded",
            EventKind::TagAudit { .. } => "tag_audit",
            EventKind::ConformanceDivergence { .. } => "conformance_divergence",
            EventKind::ConformanceComplete { .. } => "conformance_complete",
            EventKind::AnalysisComplete { .. } => "analysis_complete",
            EventKind::FlowAnalysisComplete { .. } => "flow_analysis_complete",
            EventKind::StaticVerdictsInstalled { .. } => "static_verdicts_installed",
            EventKind::ChecksElided { .. } => "checks_elided",
            EventKind::AdaptDecision { .. } => "adapt_decision",
            EventKind::ProbationStarted { .. } => "probation_started",
            EventKind::ProbationPassed { .. } => "probation_passed",
            EventKind::ProbationFailed { .. } => "probation_failed",
            EventKind::EngineReleased { .. } => "engine_released",
            EventKind::CheckerRepromoted { .. } => "checker_repromoted",
            EventKind::CheckerModeSwitched { .. } => "checker_mode_switched",
            EventKind::ModelCheckDepth { .. } => "modelcheck_depth",
            EventKind::ModelCheckComplete { .. } => "modelcheck_complete",
        }
    }

    /// The track (Chrome trace "thread") the event renders on.
    #[must_use]
    pub fn track(&self) -> &'static str {
        match self {
            EventKind::BusGrant { .. } => "bus",
            EventKind::L1Access { .. } => "l1",
            EventKind::TaskStart { .. } | EventKind::TaskEnd { .. } => "tasks",
            EventKind::CheckerCheck { .. }
            | EventKind::CheckerStall { .. }
            | EventKind::CheckerEvict { .. }
            | EventKind::CheckerException { .. } => "checker",
            EventKind::MmioCapInstall { .. } | EventKind::DriverPhase { .. } => "driver",
            EventKind::FaultInjected { .. } => "fault",
            EventKind::WatchdogAbort { .. }
            | EventKind::TaskRetry { .. }
            | EventKind::EngineQuarantined { .. }
            | EventKind::CheckerDegraded { .. }
            | EventKind::TagAudit { .. } => "recovery",
            EventKind::ConformanceDivergence { .. } | EventKind::ConformanceComplete { .. } => {
                "conformance"
            }
            EventKind::AnalysisComplete { .. }
            | EventKind::FlowAnalysisComplete { .. }
            | EventKind::StaticVerdictsInstalled { .. }
            | EventKind::ChecksElided { .. } => "analysis",
            EventKind::AdaptDecision { .. }
            | EventKind::ProbationStarted { .. }
            | EventKind::ProbationPassed { .. }
            | EventKind::ProbationFailed { .. } => "adapt",
            EventKind::EngineReleased { .. }
            | EventKind::CheckerRepromoted { .. }
            | EventKind::CheckerModeSwitched { .. } => "recovery",
            EventKind::ModelCheckDepth { .. } | EventKind::ModelCheckComplete { .. } => "verify",
        }
    }
}

/// One recorded event: a virtual-cycle timestamp plus what happened.
///
/// Cycle stamps are per-source virtual time: the timing models stamp with
/// simulated cycles, the driver stamps with its accumulated setup-cycle
/// clock, and the functional checker path stamps with its request index.
/// Exports keep the sources on separate tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Virtual-cycle timestamp.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_tracks_are_stable() {
        let e = EventKind::BusGrant {
            lane: 0,
            task: 0,
            beats: 1,
            waited: 0,
        };
        assert_eq!(e.name(), "bus_grant");
        assert_eq!(e.track(), "bus");
        assert_eq!(EventKind::L1Access { hit: true }.name(), "l1_hit");
        assert_eq!(EventKind::L1Access { hit: false }.name(), "l1_miss");
        assert_eq!(
            EventKind::DriverPhase {
                task: 1,
                phase: Phase::Allocate
            }
            .track(),
            "driver"
        );
        let inject = EventKind::FaultInjected {
            task: 3,
            fault: FaultKind::RogueDma,
        };
        assert_eq!(inject.name(), "fault_injected");
        assert_eq!(inject.track(), "fault");
        let abort = EventKind::WatchdogAbort { task: 3, ops: 4096 };
        assert_eq!(abort.name(), "watchdog_abort");
        assert_eq!(abort.track(), "recovery");
        assert_eq!(
            EventKind::EngineQuarantined { fu: 1, faults: 2 }.track(),
            "recovery"
        );
        let div = EventKind::ConformanceDivergence { op: 9 };
        assert_eq!(div.name(), "conformance_divergence");
        assert_eq!(div.track(), "conformance");
        let done = EventKind::ConformanceComplete {
            ops: 100,
            divergences: 0,
        };
        assert_eq!(done.name(), "conformance_complete");
        assert_eq!(done.track(), "conformance");
        let analyzed = EventKind::AnalysisComplete {
            safe: 10,
            flagged: 0,
            dynamic: 2,
        };
        assert_eq!(analyzed.name(), "analysis_complete");
        assert_eq!(analyzed.track(), "analysis");
        let installed = EventKind::StaticVerdictsInstalled { safe_pairs: 3 };
        assert_eq!(installed.name(), "static_verdicts_installed");
        assert_eq!(installed.track(), "analysis");
        let elided = EventKind::ChecksElided { task: 1, count: 64 };
        assert_eq!(elided.name(), "checks_elided");
        assert_eq!(elided.track(), "analysis");
        let decision = EventKind::AdaptDecision {
            epoch: 4,
            rule: AdaptRule::StallUp,
        };
        assert_eq!(decision.name(), "adapt_decision");
        assert_eq!(decision.track(), "adapt");
        assert_eq!(
            EventKind::ProbationStarted {
                epoch: 1,
                window: 2
            }
            .track(),
            "adapt"
        );
        assert_eq!(
            EventKind::ProbationPassed { epoch: 3 }.name(),
            "probation_passed"
        );
        assert_eq!(
            EventKind::ProbationFailed {
                epoch: 3,
                failures: 2
            }
            .name(),
            "probation_failed"
        );
        assert_eq!(EventKind::EngineReleased { fu: 1 }.track(), "recovery");
        assert_eq!(
            EventKind::CheckerRepromoted { regranted: 2 }.name(),
            "checker_repromoted"
        );
        let switched = EventKind::CheckerModeSwitched {
            coarse: true,
            regranted: 4,
        };
        assert_eq!(switched.name(), "checker_mode_switched");
        assert_eq!(switched.track(), "recovery");
        let level = EventKind::ModelCheckDepth {
            depth: 3,
            states: 120,
            frontier: 40,
        };
        assert_eq!(level.name(), "modelcheck_depth");
        assert_eq!(level.track(), "verify");
        let verified = EventKind::ModelCheckComplete {
            states: 500,
            violations: 0,
        };
        assert_eq!(verified.name(), "modelcheck_complete");
        assert_eq!(verified.track(), "verify");
    }

    #[test]
    fn adapt_rule_labels_are_stable_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for rule in AdaptRule::ALL {
            assert!(seen.insert(rule.label()), "duplicate label {rule}");
        }
        assert_eq!(AdaptRule::StallUp.to_string(), "stall-up");
        assert_eq!(AdaptRule::FuRequarantine.label(), "fu-requarantine");
    }

    #[test]
    fn fault_labels_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(FaultKind::from_label("no-such-fault"), None);
        assert_eq!(FaultKind::EngineHang.to_string(), "engine-hang");
    }

    #[test]
    fn phase_labels_match_figure6() {
        assert_eq!(Phase::Allocate.label(), "allocate");
        assert_eq!(Phase::Execute.to_string(), "execute");
        assert_eq!(Phase::Deallocate.label(), "deallocate");
    }
}
