//! Hot-path check attribution: who is paying for capability checks.
//!
//! The checker's [`CheckerStats`](obs::stats::CheckerStats) counters answer
//! *how many* checks happened; this module answers *where* — per bus
//! master (functional unit) and per `(task, object)` capability pair.
//! The maps are `BTreeMap`s, so iteration order — and therefore every
//! byte a profile report serializes from them — is deterministic.
//!
//! Attribution is opt-in: the checkers carry an `Option` of this state
//! and the fast path pays one `None` test when profiling is off, keeping
//! the instrumented and uninstrumented data paths one code path (the
//! same discipline as [`obs::NullTracer`] / [`obs::NullProfiler`]).

use hetsim::{MasterId, ObjectId, TaskId};
use std::collections::BTreeMap;

/// Per-key check counters.
///
/// `hits`/`misses`/`stall_cycles` only move on a checker over the cache
/// store ([`crate::CapChecker::cached`]), whose capability cache can
/// miss; over the fixed table they always stay zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckCounters {
    /// Requests granted.
    pub granted: u64,
    /// Requests denied.
    pub denied: u64,
    /// Requests skipped under a static-analysis verdict.
    pub elided: u64,
    /// Capability-cache hits.
    pub hits: u64,
    /// Capability-cache misses.
    pub misses: u64,
    /// Cycles stalled refilling the capability cache.
    pub stall_cycles: u64,
}

impl CheckCounters {
    /// Every request that reached the checker, however it was resolved.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.granted + self.denied + self.elided
    }

    fn absorb(&mut self, other: &CheckCounters) {
        self.granted += other.granted;
        self.denied += other.denied;
        self.elided += other.elided;
        self.hits += other.hits;
        self.misses += other.misses;
        self.stall_cycles += other.stall_cycles;
    }
}

/// The attribution state: one counter set per bus master and one per
/// `(task, object)` pair, keyed by the raw IDs so the maps order (and
/// serialize) identically on every run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckAttribution {
    /// Counters per `(task, object)` capability pair.
    pub pairs: BTreeMap<(u32, u16), CheckCounters>,
    /// Counters per issuing bus master (functional unit).
    pub masters: BTreeMap<u16, CheckCounters>,
}

impl CheckAttribution {
    /// Empty attribution.
    #[must_use]
    pub fn new() -> CheckAttribution {
        CheckAttribution::default()
    }

    fn bump(
        &mut self,
        master: MasterId,
        pair: Option<(TaskId, ObjectId)>,
        apply: impl Fn(&mut CheckCounters),
    ) {
        apply(self.masters.entry(master.0).or_default());
        if let Some((task, object)) = pair {
            apply(self.pairs.entry((task.0, object.0)).or_default());
        }
    }

    /// Records one granted request.
    pub fn granted(&mut self, master: MasterId, task: TaskId, object: ObjectId) {
        self.bump(master, Some((task, object)), |c| c.granted += 1);
    }

    /// Records one denied request (the pair is unknown when provenance
    /// never resolved).
    pub fn denied(&mut self, master: MasterId, pair: Option<(TaskId, ObjectId)>) {
        self.bump(master, pair, |c| c.denied += 1);
    }

    /// Records one check elided under a static verdict.
    pub fn elided(&mut self, master: MasterId, task: TaskId, object: ObjectId) {
        self.bump(master, Some((task, object)), |c| c.elided += 1);
    }

    /// Records one capability-cache lookup: hit or miss, plus the stall
    /// cycles a miss cost.
    pub fn lookup(
        &mut self,
        master: MasterId,
        task: TaskId,
        object: ObjectId,
        hit: bool,
        stall_cycles: u64,
    ) {
        self.bump(master, Some((task, object)), |c| {
            if hit {
                c.hits += 1;
            } else {
                c.misses += 1;
                c.stall_cycles += stall_cycles;
            }
        });
    }

    /// The grand total over all masters (pairs are a reclassification of
    /// the same requests, so masters are the authoritative sum).
    #[must_use]
    pub fn total(&self) -> CheckCounters {
        let mut out = CheckCounters::default();
        for c in self.masters.values() {
            out.absorb(c);
        }
        out
    }

    /// The `n` busiest `(task, object)` pairs by check count, busiest
    /// first; ties break on the key, so the ranking is deterministic.
    #[must_use]
    pub fn hot_pairs(&self, n: usize) -> Vec<((u32, u16), CheckCounters)> {
        let mut all: Vec<_> = self.pairs.iter().map(|(k, v)| (*k, *v)).collect();
        all.sort_by(|a, b| b.1.checks().cmp(&a.1.checks()).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(id: u16) -> MasterId {
        MasterId(id)
    }

    #[test]
    fn counters_split_by_master_and_pair() {
        let mut a = CheckAttribution::new();
        a.granted(m(1), TaskId(7), ObjectId(0));
        a.granted(m(1), TaskId(7), ObjectId(0));
        a.granted(m(2), TaskId(7), ObjectId(1));
        a.denied(m(2), None);
        a.elided(m(1), TaskId(7), ObjectId(0));
        assert_eq!(a.masters[&1].granted, 2);
        assert_eq!(a.masters[&1].elided, 1);
        assert_eq!(a.masters[&2].denied, 1);
        assert_eq!(a.pairs[&(7, 0)].checks(), 3);
        // The provenance-free denial lands on the master only.
        assert_eq!(a.pairs.get(&(7, 1)).unwrap().denied, 0);
        let t = a.total();
        assert_eq!((t.granted, t.denied, t.elided), (3, 1, 1));
    }

    #[test]
    fn lookups_track_misses_and_stalls() {
        let mut a = CheckAttribution::new();
        a.lookup(m(0), TaskId(1), ObjectId(2), true, 0);
        a.lookup(m(0), TaskId(1), ObjectId(2), false, 9);
        let c = a.pairs[&(1, 2)];
        assert_eq!((c.hits, c.misses, c.stall_cycles), (1, 1, 9));
    }

    #[test]
    fn hot_pairs_rank_deterministically() {
        let mut a = CheckAttribution::new();
        for _ in 0..3 {
            a.granted(m(0), TaskId(2), ObjectId(0));
        }
        for _ in 0..3 {
            a.granted(m(0), TaskId(1), ObjectId(5));
        }
        a.granted(m(0), TaskId(9), ObjectId(9));
        let hot = a.hot_pairs(2);
        // Equal counts fall back to key order: (1,5) before (2,0).
        assert_eq!(hot[0].0, (1, 5));
        assert_eq!(hot[1].0, (2, 0));
        assert_eq!(a.hot_pairs(10).len(), 3);
    }
}
