//! Online adaptive policy control: the epoch-driven feedback loop that
//! makes the paper's *adaptivity* a runtime property instead of a static
//! per-run configuration.
//!
//! The driver consults an [`AdaptController`] at task-group boundaries
//! ("epochs"). Each epoch it feeds the controller a deterministic signal
//! sample ([`EpochSignals`]) — check and stall counter deltas, denial and
//! cache-corruption counts, the currently quarantined functional units —
//! and the controller answers with zero or more [`AdaptDecision`]s:
//!
//! * **Mode hysteresis** — switch [`CheckerMode::Fine`] ⇄
//!   [`CheckerMode::Coarse`] when the check-stall share crosses distinct
//!   up/down thresholds, with a minimum dwell time between switches. With
//!   `stall_up_pct > stall_down_pct` the controller makes at most one
//!   flip on any constant input stream (property-tested).
//! * **Cache probation** — degrade the cache-backed checker to the fixed
//!   table under corruption signals, then *re-promote after a clean
//!   probation window*, reversing PR 2's one-way degradation. A
//!   fail-count latch converges a flapping cache to permanently
//!   degraded.
//! * **FU parole** — release quarantined functional units after a clean
//!   probation window, with a bounded re-quarantine budget; an FU that
//!   exhausts its budget is latched out for good.
//!
//! Every decision carries its epoch, rule, raw inputs, and hysteresis
//! state, so the serialized trace (schema `capcheri.adapt.v1`) explains
//! every switch. All state is integer arithmetic over `BTreeMap`s: the
//! same signals produce the same decisions, byte-for-byte, at any thread
//! count.
//!
//! [`run_adaptive_campaign`] closes the loop end-to-end: the PR 2 fault
//! campaign re-run with the controller in charge of degradation,
//! re-promotion, and quarantine release.

use crate::config::{CachedCheckerConfig, CheckerMode};
use crate::recovery::{Campaign, CampaignConfig, CampaignReport};
use crate::system::{DriverError, HeteroSystem, ProtectionChoice};
use obs::json::JsonWriter;
use obs::{AdaptRule, EventKind};
use std::collections::{BTreeMap, BTreeSet};

/// The controller's tuning knobs. All thresholds are integers so every
/// comparison is exact and deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptConfig {
    /// Tasks per epoch in campaign mode (the driver consults the
    /// controller every `epoch_tasks` task teardowns).
    pub epoch_tasks: u32,
    /// Switch Fine → Coarse when the stall share (percent of check+stall
    /// cycles spent stalled) reaches this. Must be strictly greater than
    /// `stall_down_pct` — the hysteresis gap is what prevents
    /// oscillation.
    pub stall_up_pct: u64,
    /// Switch Coarse → Fine when the stall share falls to this or below.
    pub stall_down_pct: u64,
    /// Epochs the mode must dwell before the next switch is allowed.
    pub min_dwell_epochs: u32,
    /// Cache-corruption detections in one epoch that trigger proactive
    /// degradation.
    pub corruption_degrade: u64,
    /// Clean epochs a degraded cache (or quarantined FU) must survive
    /// before re-promotion (or release).
    pub probation_epochs: u32,
    /// Degradations after which the cache is latched permanently
    /// degraded instead of re-promoted (the anti-flap latch).
    pub cache_fail_latch: u32,
    /// Probationary releases each functional unit is granted before a
    /// re-quarantine latches it out for good.
    pub fu_release_budget: u32,
}

impl Default for AdaptConfig {
    fn default() -> AdaptConfig {
        AdaptConfig {
            epoch_tasks: 4,
            stall_up_pct: 30,
            stall_down_pct: 10,
            min_dwell_epochs: 2,
            corruption_degrade: 1,
            probation_epochs: 2,
            cache_fail_latch: 2,
            fu_release_budget: 1,
        }
    }
}

impl AdaptConfig {
    /// Writes the config's fields into an already-open JSON object, so
    /// other reports can embed it without duplicating the key order.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.key("epoch_tasks");
        w.u64(u64::from(self.epoch_tasks));
        w.key("stall_up_pct");
        w.u64(self.stall_up_pct);
        w.key("stall_down_pct");
        w.u64(self.stall_down_pct);
        w.key("min_dwell_epochs");
        w.u64(u64::from(self.min_dwell_epochs));
        w.key("corruption_degrade");
        w.u64(self.corruption_degrade);
        w.key("probation_epochs");
        w.u64(u64::from(self.probation_epochs));
        w.key("cache_fail_latch");
        w.u64(u64::from(self.cache_fail_latch));
        w.key("fu_release_budget");
        w.u64(u64::from(self.fu_release_budget));
    }
}

/// One epoch's deterministic signal sample, as counter *deltas* since the
/// previous epoch (the sampler re-baselines after structural decisions,
/// because swapping the checker resets its statistics).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochSignals {
    /// Checks performed this epoch (granted + denied + elided).
    pub checks: u64,
    /// Cycles lost to check-path stalls this epoch (cache miss penalty
    /// cycles on the cached checker; 0 on the fixed table).
    pub stall_cycles: u64,
    /// Accesses denied this epoch.
    pub denied: u64,
    /// Cache-corruption detections this epoch.
    pub corruption: u64,
    /// Functional units quarantined *right now* (driver state, not a
    /// delta). Order and duplicates are irrelevant; the controller
    /// normalizes into a set.
    pub quarantined_fus: Vec<u32>,
}

impl EpochSignals {
    /// Integer stall share in percent: `100 * stall / (checks + stall)`,
    /// 0 when idle. Widened to 128 bits internally, so the division is
    /// exact (and deterministic) for any counter values.
    #[must_use]
    pub fn stall_share_pct(&self) -> u64 {
        let total = u128::from(self.checks) + u128::from(self.stall_cycles);
        (u128::from(self.stall_cycles) * 100)
            .checked_div(total)
            .unwrap_or(0) as u64
    }
}

/// What a decision does, with its parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptAction {
    /// Switch the checker's provenance mode.
    SwitchMode {
        /// Mode before the switch.
        from: CheckerMode,
        /// Mode after the switch.
        to: CheckerMode,
    },
    /// Degrade the cache-backed checker to the fixed table and start its
    /// probation window.
    DegradeCache,
    /// Probation passed: re-promote the fixed table to the cache-backed
    /// checker.
    RepromoteCache,
    /// The cache flapped past its fail budget: latch it permanently
    /// degraded.
    LatchCache {
        /// Degradations accumulated when the latch closed.
        degrades: u32,
    },
    /// Probation passed: release a quarantined functional unit.
    ReleaseFu {
        /// The released FU.
        fu: u32,
    },
    /// A released FU was quarantined again; restart its probation.
    RequarantineFu {
        /// The re-quarantined FU.
        fu: u32,
        /// Releases already spent on it.
        releases: u32,
    },
    /// A released FU was quarantined again with no release budget left:
    /// latch it out for good.
    LatchFu {
        /// The latched FU.
        fu: u32,
        /// Releases spent before the latch closed.
        releases: u32,
    },
}

impl AdaptAction {
    /// The rule that produced this action.
    #[must_use]
    pub fn rule(&self) -> AdaptRule {
        match self {
            AdaptAction::SwitchMode { to, .. } => match to {
                CheckerMode::Coarse => AdaptRule::StallUp,
                CheckerMode::Fine => AdaptRule::StallDown,
            },
            AdaptAction::DegradeCache => AdaptRule::CacheDegrade,
            AdaptAction::RepromoteCache => AdaptRule::CacheRepromote,
            AdaptAction::LatchCache { .. } => AdaptRule::CacheLatch,
            AdaptAction::ReleaseFu { .. } => AdaptRule::FuRelease,
            AdaptAction::RequarantineFu { .. } => AdaptRule::FuRequarantine,
            AdaptAction::LatchFu { .. } => AdaptRule::FuLatch,
        }
    }
}

/// One controller decision with everything needed to audit it: the epoch,
/// the rule, the action, the raw inputs, and the hysteresis state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdaptDecision {
    /// Epoch the decision was made in (0-based).
    pub epoch: u32,
    /// The rule that fired.
    pub rule: AdaptRule,
    /// What the driver should do.
    pub action: AdaptAction,
    /// Stall share input, percent.
    pub stall_share_pct: u64,
    /// Checks input.
    pub checks: u64,
    /// Stall-cycles input.
    pub stall_cycles: u64,
    /// Denials input.
    pub denied: u64,
    /// Corruption input.
    pub corruption: u64,
    /// Mode-dwell epochs at decision time (hysteresis state).
    pub dwell: u32,
}

impl AdaptDecision {
    /// Writes the decision as one JSON object, so other reports can embed
    /// the trace with byte-identical formatting.
    pub fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("epoch");
        w.u64(u64::from(self.epoch));
        w.key("rule");
        w.string(self.rule.label());
        match self.action {
            AdaptAction::SwitchMode { from, to } => {
                w.key("from");
                w.string(from.label());
                w.key("to");
                w.string(to.label());
            }
            AdaptAction::DegradeCache | AdaptAction::RepromoteCache => {}
            AdaptAction::LatchCache { degrades } => {
                w.key("degrades");
                w.u64(u64::from(degrades));
            }
            AdaptAction::ReleaseFu { fu } => {
                w.key("fu");
                w.u64(u64::from(fu));
            }
            AdaptAction::RequarantineFu { fu, releases }
            | AdaptAction::LatchFu { fu, releases } => {
                w.key("fu");
                w.u64(u64::from(fu));
                w.key("releases");
                w.u64(u64::from(releases));
            }
        }
        w.key("stall_share_pct");
        w.u64(self.stall_share_pct);
        w.key("checks");
        w.u64(self.checks);
        w.key("stall_cycles");
        w.u64(self.stall_cycles);
        w.key("denied");
        w.u64(self.denied);
        w.key("corruption");
        w.u64(self.corruption);
        w.key("dwell");
        w.u64(u64::from(self.dwell));
        w.end_object();
    }
}

/// Where the checker cache stands in the controller's recovery lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheHealth {
    /// No cache-backed checker in this system; the lattice is inert.
    Absent,
    /// Cache in service. `degrades` counts past degradations.
    Cached {
        /// Degradations so far.
        degrades: u32,
    },
    /// Degraded to the fixed table, on probation toward re-promotion.
    Probation {
        /// Consecutive clean epochs observed.
        clean_epochs: u32,
        /// Degradations so far (this one included).
        degrades: u32,
    },
    /// Flapped past the fail budget: permanently degraded.
    LatchedDegraded,
}

impl CacheHealth {
    /// Stable label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CacheHealth::Absent => "absent",
            CacheHealth::Cached { .. } => "cached",
            CacheHealth::Probation { .. } => "probation",
            CacheHealth::LatchedDegraded => "latched-degraded",
        }
    }
}

/// Per-functional-unit health in the controller's lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FuHealth {
    /// Quarantined, serving its probation window.
    Quarantined { clean_epochs: u32, releases: u32 },
    /// Released on parole; a re-quarantine spends budget.
    Released { releases: u32 },
    /// Budget exhausted: out for good.
    Latched,
}

/// The epoch-driven feedback controller. One instance per tenant / task
/// group; state is all integers over ordered maps, so identical signal
/// streams produce identical decision traces.
#[derive(Clone, Debug)]
pub struct AdaptController {
    config: AdaptConfig,
    mode: CheckerMode,
    /// Epochs since the last mode switch (saturating). Starts at
    /// `min_dwell_epochs`, so a fresh controller may act on its first
    /// sample.
    dwell: u32,
    cache: CacheHealth,
    fus: BTreeMap<u32, FuHealth>,
    epoch: u32,
    trace: Vec<AdaptDecision>,
}

impl AdaptController {
    /// Builds a controller for a system starting in `initial_mode`, with
    /// (`cached = true`) or without a cache-backed checker.
    ///
    /// # Panics
    ///
    /// Panics when `stall_up_pct <= stall_down_pct` (no hysteresis gap —
    /// the no-oscillation guarantee would not hold) or `epoch_tasks == 0`.
    #[must_use]
    pub fn new(config: AdaptConfig, initial_mode: CheckerMode, cached: bool) -> AdaptController {
        assert!(
            config.stall_up_pct > config.stall_down_pct,
            "hysteresis needs stall_up_pct > stall_down_pct"
        );
        assert!(config.epoch_tasks > 0, "epochs must contain tasks");
        AdaptController {
            mode: initial_mode,
            dwell: config.min_dwell_epochs,
            cache: if cached {
                CacheHealth::Cached { degrades: 0 }
            } else {
                CacheHealth::Absent
            },
            fus: BTreeMap::new(),
            epoch: 0,
            trace: Vec::new(),
            config,
        }
    }

    /// The controller's configuration.
    #[must_use]
    pub fn config(&self) -> &AdaptConfig {
        &self.config
    }

    /// The mode the controller currently wants the checker in.
    #[must_use]
    pub fn mode(&self) -> CheckerMode {
        self.mode
    }

    /// Where the cache stands in the recovery lattice.
    #[must_use]
    pub fn cache_health(&self) -> CacheHealth {
        self.cache
    }

    /// Epochs observed so far.
    #[must_use]
    pub fn epochs(&self) -> u32 {
        self.epoch
    }

    /// The full decision trace, in decision order.
    #[must_use]
    pub fn trace(&self) -> &[AdaptDecision] {
        &self.trace
    }

    /// Whether a probationary release remains possible for `fu` — i.e.
    /// whether a quarantine now would be "probation pending" rather than
    /// permanent. Unknown FUs have their full budget.
    #[must_use]
    pub fn fu_can_probate(&self, fu: u32) -> bool {
        match self.fus.get(&fu) {
            None => self.config.fu_release_budget > 0,
            Some(FuHealth::Quarantined { releases, .. } | FuHealth::Released { releases }) => {
                *releases < self.config.fu_release_budget
            }
            Some(FuHealth::Latched) => false,
        }
    }

    /// Functional units released on probation so far.
    #[must_use]
    pub fn released_fus(&self) -> u64 {
        self.trace
            .iter()
            .filter(|d| d.rule == AdaptRule::FuRelease)
            .count() as u64
    }

    /// Functional units latched out for good.
    #[must_use]
    pub fn latched_fus(&self) -> u64 {
        self.fus
            .values()
            .filter(|h| matches!(h, FuHealth::Latched))
            .count() as u64
    }

    /// Consumes one epoch's signals and returns the decisions for the
    /// driver to apply, in deterministic order: cache lattice, then mode
    /// hysteresis, then functional units in index order. The decisions
    /// are also appended to [`AdaptController::trace`].
    pub fn observe(&mut self, signals: &EpochSignals) -> Vec<AdaptDecision> {
        let epoch = self.epoch;
        self.epoch += 1;
        let mut out = Vec::new();
        let decide = |action: AdaptAction, dwell: u32| AdaptDecision {
            epoch,
            rule: action.rule(),
            action,
            stall_share_pct: signals.stall_share_pct(),
            checks: signals.checks,
            stall_cycles: signals.stall_cycles,
            denied: signals.denied,
            corruption: signals.corruption,
            dwell,
        };

        // --- Cache lattice -------------------------------------------
        match self.cache {
            CacheHealth::Absent | CacheHealth::LatchedDegraded => {}
            CacheHealth::Cached { degrades } => {
                if signals.corruption >= self.config.corruption_degrade {
                    out.push(decide(AdaptAction::DegradeCache, self.dwell));
                    self.cache = CacheHealth::Probation {
                        clean_epochs: 0,
                        degrades: degrades + 1,
                    };
                }
            }
            CacheHealth::Probation {
                clean_epochs,
                degrades,
            } => {
                let clean_epochs = if signals.corruption == 0 {
                    clean_epochs + 1
                } else {
                    0
                };
                if clean_epochs >= self.config.probation_epochs {
                    if degrades >= self.config.cache_fail_latch {
                        out.push(decide(AdaptAction::LatchCache { degrades }, self.dwell));
                        self.cache = CacheHealth::LatchedDegraded;
                    } else {
                        out.push(decide(AdaptAction::RepromoteCache, self.dwell));
                        self.cache = CacheHealth::Cached { degrades };
                    }
                } else {
                    self.cache = CacheHealth::Probation {
                        clean_epochs,
                        degrades,
                    };
                }
            }
        }

        // --- Mode hysteresis -----------------------------------------
        let share = signals.stall_share_pct();
        let switch_to = match self.mode {
            CheckerMode::Fine if share >= self.config.stall_up_pct => Some(CheckerMode::Coarse),
            CheckerMode::Coarse if share <= self.config.stall_down_pct => Some(CheckerMode::Fine),
            _ => None,
        };
        match switch_to {
            Some(to) if self.dwell >= self.config.min_dwell_epochs => {
                out.push(decide(
                    AdaptAction::SwitchMode {
                        from: self.mode,
                        to,
                    },
                    self.dwell,
                ));
                self.mode = to;
                self.dwell = 0;
            }
            _ => self.dwell = self.dwell.saturating_add(1),
        }

        // --- Functional units ----------------------------------------
        let now_quarantined: BTreeSet<u32> = signals.quarantined_fus.iter().copied().collect();
        // New quarantines and re-quarantines first.
        let mut requarantined = BTreeSet::new();
        for &fu in &now_quarantined {
            match self.fus.get(&fu) {
                None => {
                    self.fus.insert(
                        fu,
                        FuHealth::Quarantined {
                            clean_epochs: 0,
                            releases: 0,
                        },
                    );
                    requarantined.insert(fu);
                }
                Some(FuHealth::Released { releases }) => {
                    let releases = *releases;
                    if releases >= self.config.fu_release_budget {
                        out.push(decide(AdaptAction::LatchFu { fu, releases }, self.dwell));
                        self.fus.insert(fu, FuHealth::Latched);
                    } else {
                        out.push(decide(
                            AdaptAction::RequarantineFu { fu, releases },
                            self.dwell,
                        ));
                        self.fus.insert(
                            fu,
                            FuHealth::Quarantined {
                                clean_epochs: 0,
                                releases,
                            },
                        );
                    }
                    requarantined.insert(fu);
                }
                Some(FuHealth::Quarantined { .. } | FuHealth::Latched) => {}
            }
        }
        // Then serve probation for every quarantined FU (skipping those
        // whose window restarted this very epoch).
        let fus: Vec<u32> = self.fus.keys().copied().collect();
        for fu in fus {
            if requarantined.contains(&fu) {
                continue;
            }
            if let Some(FuHealth::Quarantined {
                clean_epochs,
                releases,
            }) = self.fus.get(&fu).copied()
            {
                let clean_epochs = clean_epochs + 1;
                if clean_epochs >= self.config.probation_epochs
                    && releases < self.config.fu_release_budget
                {
                    out.push(decide(AdaptAction::ReleaseFu { fu }, self.dwell));
                    self.fus.insert(
                        fu,
                        FuHealth::Released {
                            releases: releases + 1,
                        },
                    );
                } else {
                    self.fus.insert(
                        fu,
                        FuHealth::Quarantined {
                            clean_epochs,
                            releases,
                        },
                    );
                }
            }
        }

        self.trace.extend(out.iter().cloned());
        out
    }
}

/// The adaptive campaign's deterministic result: the underlying fault
/// campaign plus the controller's decision trace and final state.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveCampaignReport {
    /// The controller configuration in force.
    pub config: AdaptConfig,
    /// The underlying campaign result (records carry
    /// [`crate::Resolution::QuarantinedProbation`] where parole was
    /// possible).
    pub campaign: CampaignReport,
    /// Epochs observed.
    pub epochs: u32,
    /// Every decision the controller made, in order.
    pub decisions: Vec<AdaptDecision>,
    /// Checker mode at campaign end.
    pub final_mode: CheckerMode,
    /// Cache lattice state at campaign end.
    pub cache_health: CacheHealth,
    /// Functional units released on probation.
    pub released_fus: u64,
    /// Functional units latched out for good.
    pub latched_fus: u64,
}

impl AdaptiveCampaignReport {
    /// Serializes the report as deterministic JSON, schema
    /// `capcheri.adapt.v1`. The embedded `campaign` object reuses the
    /// `capcheri.fault_campaign.v1` body writer, so the two cannot drift.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.string("capcheri.adapt.v1");
        w.key("config");
        w.begin_object();
        self.config.write_fields(&mut w);
        w.end_object();
        w.key("campaign");
        w.begin_object();
        self.campaign.write_fields(&mut w);
        w.end_object();
        w.key("epochs");
        w.u64(u64::from(self.epochs));
        w.key("decisions");
        w.begin_array();
        for d in &self.decisions {
            d.write(&mut w);
        }
        w.end_array();
        w.key("final");
        w.begin_object();
        w.key("mode");
        w.string(self.final_mode.label());
        w.key("cache");
        w.string(self.cache_health.label());
        w.key("released_fus");
        w.u64(self.released_fus);
        w.key("latched_fus");
        w.u64(self.latched_fus);
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// Counter totals sampled from the live system; epoch signals are the
/// deltas between consecutive samples.
#[derive(Clone, Copy, Debug, Default)]
struct Totals {
    checks: u64,
    stall: u64,
    denied: u64,
    corruption: u64,
}

fn sample_totals(sys: &HeteroSystem) -> Totals {
    let Some(c) = sys.checker() else {
        return Totals::default();
    };
    match c.cache_stats() {
        Some(s) => Totals {
            checks: s.hits + s.misses + s.elided,
            stall: s.miss_cycles,
            denied: s.denied,
            corruption: s.corruption_detected,
        },
        None => {
            let s = c.stats();
            Totals {
                checks: s.granted + s.denied + s.elided,
                stall: 0,
                denied: s.denied,
                corruption: 0,
            }
        }
    }
}

/// Runs the PR 2 fault campaign with the adaptive controller closing the
/// loop: inline reactive degradation is *off* (a cache checksum failure
/// drops the corrupt line and the retry walks the backing table), and
/// instead the controller decides at epoch boundaries whether to degrade,
/// re-promote, switch modes, or release quarantined engines.
///
/// Same config + same seed ⇒ byte-identical
/// [`AdaptiveCampaignReport::to_json`].
///
/// # Errors
///
/// Propagates driver platform errors, exactly like
/// [`crate::recovery::run_campaign`].
///
/// # Panics
///
/// Panics only on simulator invariant violations, or on an invalid
/// [`AdaptConfig`] (see [`AdaptController::new`]).
pub fn run_adaptive_campaign(
    config: &CampaignConfig,
    adapt: &AdaptConfig,
) -> Result<AdaptiveCampaignReport, DriverError> {
    let mut campaign = Campaign::new(config);
    let cached_cfg = match config.protection {
        ProtectionChoice::CachedCapChecker(c) => c,
        _ => CachedCheckerConfig::default(),
    };
    let initial_mode = campaign.sys.checker_mode().unwrap_or(CheckerMode::Fine);
    let mut controller = AdaptController::new(
        *adapt,
        initial_mode,
        campaign.sys.cached_checker().is_some(),
    );
    let mut baseline = sample_totals(&campaign.sys);

    for index in 0..config.tasks {
        campaign.run_task(index, Some(&controller))?;
        if (index + 1).is_multiple_of(adapt.epoch_tasks) {
            run_epoch(&mut campaign, &mut controller, &mut baseline, cached_cfg);
        }
    }
    // A trailing partial epoch still gets its boundary, so every task's
    // signals reach the controller.
    if !config.tasks.is_multiple_of(adapt.epoch_tasks) || config.tasks == 0 {
        run_epoch(&mut campaign, &mut controller, &mut baseline, cached_cfg);
    }

    let final_mode = campaign.sys.checker_mode().unwrap_or(controller.mode());
    Ok(AdaptiveCampaignReport {
        config: *adapt,
        epochs: controller.epochs(),
        decisions: controller.trace().to_vec(),
        final_mode,
        cache_health: controller.cache_health(),
        released_fus: controller.released_fus(),
        latched_fus: controller.latched_fus(),
        campaign: campaign.finish(),
    })
}

/// Samples signal deltas, consults the controller, applies its decisions
/// to the live campaign, and re-baselines the sampler (structural
/// decisions reset checker statistics).
fn run_epoch(
    campaign: &mut Campaign<'_>,
    controller: &mut AdaptController,
    baseline: &mut Totals,
    cached_cfg: CachedCheckerConfig,
) {
    let now = sample_totals(&campaign.sys);
    let signals = EpochSignals {
        checks: now.checks.saturating_sub(baseline.checks),
        stall_cycles: now.stall.saturating_sub(baseline.stall),
        denied: now.denied.saturating_sub(baseline.denied),
        corruption: now.corruption.saturating_sub(baseline.corruption),
        quarantined_fus: campaign.quarantined.iter().map(|&f| f as u32).collect(),
    };
    let decisions = controller.observe(&signals);
    for d in &decisions {
        campaign.sys.record(EventKind::AdaptDecision {
            epoch: d.epoch,
            rule: d.rule,
        });
        match d.action {
            AdaptAction::DegradeCache => {
                campaign.degrade();
                campaign.sys.record(EventKind::ProbationStarted {
                    epoch: d.epoch,
                    window: controller.config().probation_epochs,
                });
            }
            AdaptAction::RepromoteCache => {
                campaign.sys.repromote_to_cached(cached_cfg);
                campaign
                    .sys
                    .record(EventKind::ProbationPassed { epoch: d.epoch });
            }
            AdaptAction::LatchCache { degrades } => {
                campaign.sys.record(EventKind::ProbationFailed {
                    epoch: d.epoch,
                    failures: degrades,
                });
            }
            AdaptAction::SwitchMode { to, .. } => {
                campaign.sys.set_checker_mode(to);
            }
            AdaptAction::ReleaseFu { fu } => {
                campaign.release_fu(fu as usize);
                campaign
                    .sys
                    .record(EventKind::ProbationPassed { epoch: d.epoch });
            }
            AdaptAction::RequarantineFu { releases, .. }
            | AdaptAction::LatchFu { releases, .. } => {
                campaign.sys.record(EventKind::ProbationFailed {
                    epoch: d.epoch,
                    failures: releases,
                });
            }
        }
    }
    *baseline = sample_totals(&campaign.sys);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::Resolution;
    use hetsim::fault::FaultSpec;
    use std::str::FromStr;

    fn signals(checks: u64, stall: u64) -> EpochSignals {
        EpochSignals {
            checks,
            stall_cycles: stall,
            ..EpochSignals::default()
        }
    }

    fn controller() -> AdaptController {
        AdaptController::new(AdaptConfig::default(), CheckerMode::Fine, true)
    }

    #[test]
    fn stall_share_is_integer_and_total() {
        assert_eq!(signals(0, 0).stall_share_pct(), 0);
        assert_eq!(signals(70, 30).stall_share_pct(), 30);
        assert_eq!(signals(1, 0).stall_share_pct(), 0);
        assert_eq!(signals(0, 1).stall_share_pct(), 100);
        assert_eq!(signals(u64::MAX, u64::MAX).stall_share_pct(), 50);
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_are_rejected() {
        let _ = AdaptController::new(
            AdaptConfig {
                stall_up_pct: 10,
                stall_down_pct: 10,
                ..AdaptConfig::default()
            },
            CheckerMode::Fine,
            true,
        );
    }

    #[test]
    fn constant_input_flips_at_most_once() {
        for share in [0u64, 5, 10, 15, 29, 30, 50, 100] {
            let mut c = controller();
            let sig = signals(100 - share.min(100), share.min(100));
            let mut flips = 0;
            for _ in 0..64 {
                flips += c
                    .observe(&sig)
                    .iter()
                    .filter(|d| matches!(d.action, AdaptAction::SwitchMode { .. }))
                    .count();
            }
            assert!(flips <= 1, "share {share}: {flips} flips on constant input");
        }
    }

    #[test]
    fn mode_switch_respects_dwell_and_hysteresis() {
        let mut c = AdaptController::new(
            AdaptConfig {
                min_dwell_epochs: 2,
                ..AdaptConfig::default()
            },
            CheckerMode::Fine,
            true,
        );
        // Hot epoch: fresh controller starts past its dwell, switches up.
        let d = c.observe(&signals(50, 50));
        assert_eq!(d.len(), 1);
        assert!(matches!(
            d[0].action,
            AdaptAction::SwitchMode {
                from: CheckerMode::Fine,
                to: CheckerMode::Coarse
            }
        ));
        assert_eq!(d[0].rule, AdaptRule::StallUp);
        assert_eq!(c.mode(), CheckerMode::Coarse);
        // Cool epochs inside the dwell window: no switch back yet.
        assert!(c.observe(&signals(100, 0)).is_empty());
        assert!(c.observe(&signals(100, 0)).is_empty());
        // Dwell served: now it switches back down.
        let d = c.observe(&signals(100, 0));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, AdaptRule::StallDown);
        assert_eq!(c.mode(), CheckerMode::Fine);
        // Mid-band share (between down and up) never switches.
        for _ in 0..16 {
            assert!(c.observe(&signals(80, 20)).is_empty());
        }
    }

    #[test]
    fn cache_lattice_degrade_probation_repromote_then_latch() {
        let cfg = AdaptConfig {
            probation_epochs: 2,
            cache_fail_latch: 2,
            ..AdaptConfig::default()
        };
        let mut c = AdaptController::new(cfg, CheckerMode::Fine, true);
        // Corruption: degrade, enter probation.
        let corrupt = EpochSignals {
            checks: 100,
            corruption: 1,
            ..EpochSignals::default()
        };
        let clean = signals(100, 0);
        let d = c.observe(&corrupt);
        assert_eq!(d[0].rule, AdaptRule::CacheDegrade);
        assert_eq!(c.cache_health().label(), "probation");
        // Two clean epochs: probation passes, re-promote (degrades=1 <
        // latch=2).
        assert!(c.observe(&clean).is_empty());
        let d = c.observe(&clean);
        assert_eq!(d[0].rule, AdaptRule::CacheRepromote);
        assert!(matches!(
            c.cache_health(),
            CacheHealth::Cached { degrades: 1 }
        ));
        // Second corruption: degrade again (degrades=2)...
        let d = c.observe(&corrupt);
        assert_eq!(d[0].rule, AdaptRule::CacheDegrade);
        // ...and after probation the fail latch closes instead.
        assert!(c.observe(&clean).is_empty());
        let d = c.observe(&clean);
        assert_eq!(d[0].rule, AdaptRule::CacheLatch);
        assert_eq!(c.cache_health(), CacheHealth::LatchedDegraded);
        // Terminal: further corruption elicits nothing.
        assert!(c.observe(&corrupt).is_empty());
    }

    #[test]
    fn probation_clean_window_restarts_on_corruption() {
        let cfg = AdaptConfig {
            probation_epochs: 2,
            ..AdaptConfig::default()
        };
        let mut c = AdaptController::new(cfg, CheckerMode::Fine, true);
        let corrupt = EpochSignals {
            checks: 100,
            corruption: 1,
            ..EpochSignals::default()
        };
        let clean = signals(100, 0);
        c.observe(&corrupt);
        assert!(c.observe(&clean).is_empty());
        // Corruption during probation resets the clean window.
        assert!(c.observe(&corrupt).is_empty());
        assert!(c.observe(&clean).is_empty());
        let d = c.observe(&clean);
        assert_eq!(d[0].rule, AdaptRule::CacheRepromote);
    }

    #[test]
    fn fu_lattice_release_requarantine_latch() {
        let cfg = AdaptConfig {
            probation_epochs: 1,
            fu_release_budget: 1,
            ..AdaptConfig::default()
        };
        let mut c = AdaptController::new(cfg, CheckerMode::Fine, true);
        let with_q = EpochSignals {
            checks: 100,
            quarantined_fus: vec![3],
            ..EpochSignals::default()
        };
        let without = signals(100, 0);
        assert!(c.fu_can_probate(3), "fresh FU has its full budget");
        // First sighting: tracked, no decision yet.
        assert!(c.observe(&with_q).is_empty());
        // Window served while quarantined: released on parole.
        let d = c.observe(&with_q);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, AdaptRule::FuRelease);
        assert!(matches!(d[0].action, AdaptAction::ReleaseFu { fu: 3 }));
        assert_eq!(c.released_fus(), 1);
        assert!(!c.fu_can_probate(3), "budget of 1 is spent");
        // Healthy epochs: nothing.
        assert!(c.observe(&without).is_empty());
        // Re-quarantined with no budget left: latched.
        let d = c.observe(&with_q);
        assert_eq!(d[0].rule, AdaptRule::FuLatch);
        assert!(matches!(
            d[0].action,
            AdaptAction::LatchFu { fu: 3, releases: 1 }
        ));
        assert_eq!(c.latched_fus(), 1);
        // Terminal.
        assert!(c.observe(&with_q).is_empty());
        assert!(!c.fu_can_probate(3));
    }

    #[test]
    fn fu_requarantine_with_budget_restarts_probation() {
        let cfg = AdaptConfig {
            probation_epochs: 1,
            fu_release_budget: 2,
            ..AdaptConfig::default()
        };
        let mut c = AdaptController::new(cfg, CheckerMode::Fine, true);
        let with_q = EpochSignals {
            checks: 100,
            quarantined_fus: vec![0],
            ..EpochSignals::default()
        };
        assert!(c.observe(&with_q).is_empty()); // tracked
        let d = c.observe(&with_q);
        assert_eq!(d[0].rule, AdaptRule::FuRelease); // first release
        let d = c.observe(&with_q);
        assert_eq!(d[0].rule, AdaptRule::FuRequarantine); // budget left
        assert!(c.fu_can_probate(0));
        let d = c.observe(&with_q);
        assert_eq!(d[0].rule, AdaptRule::FuRelease); // second release
        assert!(!c.fu_can_probate(0));
        let d = c.observe(&with_q);
        assert_eq!(d[0].rule, AdaptRule::FuLatch);
    }

    fn adaptive(spec: &str, tasks: u32, seed: u64, adapt: &AdaptConfig) -> AdaptiveCampaignReport {
        run_adaptive_campaign(
            &CampaignConfig {
                tasks,
                seed,
                spec: FaultSpec::from_str(spec).unwrap(),
                ..CampaignConfig::default()
            },
            adapt,
        )
        .unwrap()
    }

    #[test]
    fn adaptive_campaign_same_seed_same_bytes() {
        let cfg = AdaptConfig::default();
        let a = adaptive("all:0.9", 24, 42, &cfg);
        let b = adaptive("all:0.9", 24, 42, &cfg);
        assert_eq!(a.to_json(), b.to_json());
        let c = adaptive("all:0.9", 24, 43, &cfg);
        assert_ne!(a.to_json(), c.to_json());
        obs::json::validate(&a.to_json()).unwrap();
        assert!(a.to_json().starts_with("{\"schema\":\"capcheri.adapt.v1\""));
    }

    #[test]
    fn adaptive_cache_corruption_survives_and_latches() {
        // Every task corrupts the cache. Inline degradation is off, so the
        // corrupt line is dropped, the retry completes, and the controller
        // degrades at the epoch boundary; after each clean probation the
        // cache returns, gets corrupted again, and the fail latch finally
        // closes.
        let cfg = AdaptConfig {
            epoch_tasks: 2,
            probation_epochs: 1,
            cache_fail_latch: 2,
            // A cold per-task cache has a genuinely high stall share;
            // park the up-threshold out of reach so this test sees only
            // the cache lattice.
            stall_up_pct: 1000,
            ..AdaptConfig::default()
        };
        let r = adaptive("cache-corrupt:1", 16, 7, &cfg);
        assert_eq!(r.campaign.completed_tasks(), 16, "every task survived");
        assert!(r.campaign.degraded);
        assert_eq!(r.cache_health, CacheHealth::LatchedDegraded);
        let rules: Vec<AdaptRule> = r.decisions.iter().map(|d| d.rule).collect();
        assert_eq!(
            rules,
            vec![
                AdaptRule::CacheDegrade,
                AdaptRule::CacheRepromote,
                AdaptRule::CacheDegrade,
                AdaptRule::CacheLatch,
            ],
            "degrade → repromote → flap → latch"
        );
        // The trace explains each decision with its inputs.
        assert!(r.decisions[0].corruption >= 1);
        assert_eq!(r.decisions[1].corruption, 0);
    }

    #[test]
    fn adaptive_quarantine_releases_on_probation() {
        // Engine hangs on every task: FUs quarantine, serve probation,
        // are released (budget 1), hang again, and latch.
        let cfg = AdaptConfig {
            epoch_tasks: 2,
            probation_epochs: 1,
            fu_release_budget: 1,
            ..AdaptConfig::default()
        };
        let r = adaptive("engine-hang:1", 12, 7, &cfg);
        assert!(r.released_fus >= 1, "at least one FU paroled");
        assert!(r
            .campaign
            .records
            .iter()
            .any(|t| t.resolution == Resolution::QuarantinedProbation));
        assert!(r.to_json().contains("quarantined-probation"));
        // Releases show up as decisions with their epoch and rule.
        assert!(r.decisions.iter().any(|d| d.rule == AdaptRule::FuRelease));
    }

    #[test]
    fn clean_campaign_decisions_are_mode_only() {
        // Every campaign task cold-misses its two cache lines, so the
        // stall share is genuinely above the default up-threshold: the
        // controller's only move on a fault-free campaign is a single
        // Fine → Coarse switch — the constant-input guarantee, in vivo.
        let r = adaptive("none", 8, 1, &AdaptConfig::default());
        assert_eq!(r.campaign.completed_tasks(), 8);
        assert_eq!(r.cache_health.label(), "cached");
        assert_eq!(r.epochs, 2, "8 tasks / epoch_tasks=4");
        let rules: Vec<AdaptRule> = r.decisions.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec![AdaptRule::StallUp], "one switch, then dwell");
        assert_eq!(r.final_mode, CheckerMode::Coarse);
    }
}
