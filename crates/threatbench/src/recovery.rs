//! Fault-survival scenarios: the recovery harness exercised as a threat.
//!
//! The scripted attacks and the fuzz campaigns probe the *protection*
//! mechanisms; this module probes the *driver* behind them. A compromised
//! or failing accelerator is modeled by arming one fault kind at a time at
//! rate 1.0 — every task is hit — and the recovering driver
//! ([`capchecker::run_campaign`]) must uphold the availability guarantee
//! the robustness work claims:
//!
//! 1. **Nothing is silently lost** — every submitted task ends in exactly
//!    one resolution (completed, retried-completed, denied, quarantined,
//!    or starved).
//! 2. **No fault completes unnoticed** — a task that had a fault injected
//!    never resolves as plain `completed`.
//! 3. **The campaign itself survives** — no panic, no wedged driver, and
//!    the report is byte-deterministic for a fixed seed.
//!
//! [`survival_table`] produces one row per fault kind, the shape the
//! security write-up tabulates next to Table 3.

use capchecker::{
    run_adaptive_campaign, run_campaign, AdaptConfig, AdaptiveCampaignReport, CachedCheckerConfig,
    CampaignConfig, CheckerConfig, CheckerMode, ProtectionChoice, Resolution,
};
use hetsim::{FaultKind, FaultSpec};
use std::collections::BTreeMap;

/// The driver's observed behaviour under one fault kind armed at rate 1.0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SurvivalRow {
    /// The fault kind the campaign armed.
    pub kind: FaultKind,
    /// Tasks that actually had the fault injected (post-degrade
    /// cache-corrupt draws have no target and are dropped).
    pub injected: u64,
    /// Resolution counts by label, in stable order.
    pub resolutions: BTreeMap<&'static str, u64>,
    /// Faulted tasks that resolved as plain `completed` — the driver
    /// noticed nothing. Must be zero for a sound recovery path.
    pub unnoticed: u64,
}

impl SurvivalRow {
    /// Whether the driver survived this kind: every task resolved and no
    /// injected fault slipped through as a clean completion.
    #[must_use]
    pub fn survived(&self, tasks: u64) -> bool {
        self.unnoticed == 0 && self.resolutions.values().sum::<u64>() == tasks
    }
}

/// Runs one single-kind campaign and distills the row.
///
/// # Panics
///
/// Panics if the campaign itself fails to run — for the survival table
/// that *is* the finding, so it surfaces loudly rather than as a row.
#[must_use]
pub fn survival_row(kind: FaultKind, tasks: u32, seed: u64) -> SurvivalRow {
    let mut spec = FaultSpec::none();
    spec.set(kind, 1.0);
    let config = CampaignConfig {
        tasks,
        seed,
        spec,
        ..CampaignConfig::default()
    };
    let report = run_campaign(&config).expect("campaign must not wedge the driver");
    let injected = report
        .records
        .iter()
        .filter(|r| r.injected.is_some())
        .count() as u64;
    let unnoticed = report
        .records
        .iter()
        .filter(|r| r.injected.is_some() && r.resolution == Resolution::Completed)
        .count() as u64;
    SurvivalRow {
        kind,
        injected,
        resolutions: report.resolution_counts(),
        unnoticed,
    }
}

/// One survival row per fault kind, in [`FaultKind::ALL`] order, its
/// per-kind campaigns fanned out over `threads` workers — each campaign
/// owns its whole system, so any thread count yields the identical table.
#[must_use]
pub fn survival_table(tasks: u32, seed: u64, threads: usize) -> Vec<SurvivalRow> {
    perf::parallel_map(threads, FaultKind::ALL.len(), |i| {
        survival_row(FaultKind::ALL[i], tasks, seed)
    })
    .unwrap_or_else(|p| p.resume())
}

/// One fixed protection configuration raced in the adaptive-vs-static
/// comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticArm {
    /// Which configuration this arm held for the whole campaign.
    pub label: &'static str,
    /// Tasks that ended in a clean completion (first try or retried).
    pub completed: u64,
}

/// The adaptive controller raced against every static protection
/// configuration on one seeded fault campaign. The survival metric is
/// completed tasks: a static configuration quarantines a faulting engine
/// forever and starves the rest of the queue, while the controller's
/// probationary release wins those tasks back.
#[derive(Clone, Debug)]
pub struct AdaptiveSurvival {
    /// The armed fault spec.
    pub spec: FaultSpec,
    /// Submitted tasks per arm.
    pub tasks: u32,
    /// The shared campaign seed (every arm sees the same fault draws).
    pub seed: u64,
    /// Every static arm, in declaration order.
    pub static_arms: Vec<StaticArm>,
    /// The adaptive arm's full report, decision trace included.
    pub adaptive: AdaptiveCampaignReport,
}

impl AdaptiveSurvival {
    /// Completions of the best static configuration.
    ///
    /// # Panics
    ///
    /// Panics if there are no static arms (the constructor always adds
    /// three).
    #[must_use]
    pub fn best_static(&self) -> u64 {
        self.static_arms
            .iter()
            .map(|a| a.completed)
            .max()
            .expect("comparison has static arms")
    }

    /// Completions under the adaptive controller.
    #[must_use]
    pub fn adaptive_completed(&self) -> u64 {
        self.adaptive.campaign.completed_tasks()
    }

    /// The availability claim: the controller never does worse than the
    /// best statically chosen configuration.
    #[must_use]
    pub fn adaptive_wins(&self) -> bool {
        self.adaptive_completed() >= self.best_static()
    }
}

/// Runs one seeded campaign under three static protection configurations
/// and once under the adaptive controller, and tabulates completions.
///
/// # Panics
///
/// Panics if any campaign wedges the driver — as with
/// [`survival_row`], that *is* the finding.
#[must_use]
pub fn adaptive_vs_static(spec: &FaultSpec, tasks: u32, seed: u64) -> AdaptiveSurvival {
    let arms = [
        (
            "cached-fine",
            ProtectionChoice::CachedCapChecker(CachedCheckerConfig::default()),
        ),
        (
            "cached-coarse",
            ProtectionChoice::CachedCapChecker(
                CachedCheckerConfig::default().with_mode(CheckerMode::Coarse),
            ),
        ),
        (
            "uncached-fine",
            ProtectionChoice::CapChecker(CheckerConfig::fine()),
        ),
    ];
    let static_arms = arms
        .into_iter()
        .map(|(label, protection)| {
            let config = CampaignConfig {
                tasks,
                seed,
                spec: spec.clone(),
                protection,
                ..CampaignConfig::default()
            };
            let report = run_campaign(&config).expect("campaign must not wedge the driver");
            StaticArm {
                label,
                completed: report.completed_tasks(),
            }
        })
        .collect();
    let config = CampaignConfig {
        tasks,
        seed,
        spec: spec.clone(),
        ..CampaignConfig::default()
    };
    let adaptive = run_adaptive_campaign(&config, &AdaptConfig::default())
        .expect("campaign must not wedge the driver");
    AdaptiveSurvival {
        spec: spec.clone(),
        tasks,
        seed,
        static_arms,
        adaptive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_kind_is_survived() {
        let tasks = 12;
        for row in survival_table(tasks, 0x5EED, 1) {
            assert!(
                row.survived(u64::from(tasks)),
                "{:?}: unnoticed={} resolutions={:?}",
                row.kind,
                row.unnoticed,
                row.resolutions
            );
            assert!(
                row.injected > 0,
                "{:?} never injected at rate 1.0",
                row.kind
            );
        }
    }

    #[test]
    fn hang_storms_quarantine_but_never_lose_tasks() {
        let row = survival_row(FaultKind::EngineHang, 16, 1);
        let quarantined = row.resolutions.get("quarantined").copied().unwrap_or(0);
        assert!(quarantined > 0, "a hang storm must quarantine engines");
        assert!(row.survived(16));
    }

    #[test]
    fn adaptive_beats_every_static_arm_on_a_hang_storm() {
        // At a 40% hang rate a static configuration quarantines all four
        // engines and starves the queue tail; the controller's
        // probationary releases win tasks back.
        let mut spec = FaultSpec::none();
        spec.set(FaultKind::EngineHang, 0.4);
        let cmp = adaptive_vs_static(&spec, 32, 0xC0DE);
        assert!(
            cmp.adaptive_completed() > cmp.best_static(),
            "adaptive {} vs static arms {:?}",
            cmp.adaptive_completed(),
            cmp.static_arms
        );
        // The decision trace explains the wins: at least one probationary
        // release fired, and every decision carries its epoch, rule, and
        // raw inputs.
        assert!(cmp.adaptive.released_fus > 0);
        assert!(!cmp.adaptive.decisions.is_empty());
        for d in &cmp.adaptive.decisions {
            assert!(d.epoch < cmp.adaptive.epochs, "{d:?}");
            assert!(!d.rule.label().is_empty());
        }
    }

    #[test]
    fn adaptive_never_loses_to_static_across_kinds() {
        for kind in [
            FaultKind::TagFlip,
            FaultKind::CacheCorrupt,
            FaultKind::EngineHang,
        ] {
            let mut spec = FaultSpec::none();
            spec.set(kind, 0.5);
            let cmp = adaptive_vs_static(&spec, 24, 7);
            assert!(
                cmp.adaptive_wins(),
                "{kind:?}: adaptive {} < best static {} ({:?})",
                cmp.adaptive_completed(),
                cmp.best_static(),
                cmp.static_arms
            );
        }
    }

    #[test]
    fn adaptive_comparison_is_deterministic() {
        let mut spec = FaultSpec::none();
        spec.set(FaultKind::EngineHang, 0.4);
        let a = adaptive_vs_static(&spec, 16, 3);
        let b = adaptive_vs_static(&spec, 16, 3);
        assert_eq!(a.static_arms, b.static_arms);
        assert_eq!(a.adaptive.to_json(), b.adaptive.to_json());
    }

    #[test]
    fn survival_rows_are_deterministic() {
        assert_eq!(
            survival_row(FaultKind::RogueDma, 10, 42),
            survival_row(FaultKind::RogueDma, 10, 42)
        );
    }
}
