//! The `checker_stream` workload: one `conformance::generate` stream
//! replayed through the oracle and the three checker subjects.

use conformance::{default_subjects, run_ops, run_stream, Op, RunOutcome, Subject};
use std::time::Instant;

/// Ops in the replayed stream: long enough that grants, revocations,
/// sweeps, cache misses and fail-stops all recur, short enough that a
/// run holds a few hundred replays for the percentiles.
pub const STREAM_OPS: usize = 25_000;

/// One replay through `run_ops`: host ns and the outcome.
pub fn replay(ops: &[Op]) -> (f64, RunOutcome) {
    let start = Instant::now();
    let out = run_ops(ops);
    (start.elapsed().as_nanos() as f64, out)
}

/// The subject a single-subject replay runs beside the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Solo {
    Oracle,
    Uncached,
    Cached,
    Degrading,
}

impl Solo {
    pub const ALL: [Solo; 4] = [Solo::Oracle, Solo::Uncached, Solo::Cached, Solo::Degrading];

    /// The one subject, if any, kept from the set `run_ops` replays
    /// through (uncached, cached, degrading, in that order).
    fn subjects(self, ops_len: usize) -> Vec<Box<dyn Subject>> {
        let keep = match self {
            Solo::Oracle => return vec![],
            Solo::Uncached => 0,
            Solo::Cached => 1,
            Solo::Degrading => 2,
        };
        default_subjects(ops_len)
            .into_iter()
            .skip(keep)
            .take(1)
            .collect()
    }
}

/// `run_stream` with one subject (or none): host ns and the outcome.
pub fn replay_solo(ops: &[Op], solo: Solo) -> (f64, RunOutcome) {
    let subjects = solo.subjects(ops.len());
    let start = Instant::now();
    let out = run_stream(ops, subjects);
    (start.elapsed().as_nanos() as f64, out)
}

/// The oracle-side digest of a replay; every replay of one stream must
/// reproduce it exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub granted: u64,
    pub denied: u64,
    pub fail_stops: u64,
    pub accesses: u64,
    pub grants: u64,
    pub sweeps: u64,
}

impl Digest {
    pub fn of(out: &RunOutcome) -> Digest {
        Digest {
            granted: out.granted,
            denied: out.denied,
            fail_stops: out.fail_stops,
            accesses: out.counts.accesses,
            grants: out.counts.grants,
            sweeps: out.counts.sweeps,
        }
    }
}

/// The correctness gate of one replay: clean, and the same oracle
/// verdicts as the first replay of the stream.
pub fn check(out: &RunOutcome, first: &Digest) -> Result<(), String> {
    if !out.is_clean() {
        return Err(format!(
            "replay diverged from the oracle: {:?}",
            out.divergences.first()
        ));
    }
    let got = Digest::of(out);
    if got != *first {
        return Err(format!("replay digest {got:?} differs from {first:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_replays_agree_with_the_full_replay() {
        let ops = conformance::generate(9, 2_000);
        let (_, full) = replay(&ops);
        let digest = Digest::of(&full);
        check(&full, &digest).unwrap();
        for solo in Solo::ALL {
            let (_, out) = replay_solo(&ops, solo);
            assert!(out.is_clean(), "{solo:?}");
            assert_eq!((out.granted, out.denied), (digest.granted, digest.denied));
        }
    }

    #[test]
    fn each_solo_replay_keeps_its_own_subject() {
        let names: Vec<Vec<&str>> = Solo::ALL
            .iter()
            .map(|solo| solo.subjects(100).iter().map(|s| s.name()).collect())
            .collect();
        assert_eq!(
            names,
            [
                vec![],
                vec!["CapChecker"],
                vec!["CachedCapChecker"],
                vec!["DegradedPath"]
            ]
        );
    }

    #[test]
    fn a_planted_wrong_digest_is_a_failure() {
        let ops = conformance::generate(9, 2_000);
        let (_, out) = replay(&ops);
        let mut wrong = Digest::of(&out);
        wrong.denied += 1;
        assert!(check(&out, &wrong).is_err());
    }
}
