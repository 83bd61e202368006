//! Codec conformance: pins `cheri::compressed` against the exact
//! uncompressed `cheri::Capability` representation.
//!
//! Two obligations:
//!
//! 1. **Round trip** — any capability a well-behaved system can hold
//!    (derived monotonically from the root, with its address inside
//!    bounds) must survive `compress` → `decode` *exactly*: the derive
//!    operations already rounded the bounds to representable ones, so
//!    the codec has nothing left to round.
//! 2. **Idempotence** — for any bit pattern whose decode lands in the
//!    maintained invariant (bounds already rounded to the encoding
//!    granule, address inside the representable region),
//!    `compress` → `decode` must be the identity:
//!    `decode(compress(decode(bits))) == decode(bits)`. Patterns outside
//!    the invariant (a non-canonical exponent, an address that escaped
//!    the representable region) decode to *something*, but no API path
//!    ever re-encodes them — they are counted and skipped. Without the
//!    in-invariant fixed point, sweeping memory (which decodes raw
//!    bytes) and the checker's cached images could drift apart.
//!
//! The differential harness leans on obligation 1: its oracle records
//! uncompressed bounds while a cache-backed `CapChecker` enforces the
//! decoded cached image, and the two only coincide because this module holds.

use cheri::{compressed, Capability, CompressedCapability, Perms};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Outcome of one codec-conformance sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecReport {
    /// Derived-capability round-trip cases checked.
    pub cases: u64,
    /// Cases where `compress` → `decode` did not reproduce the
    /// capability exactly.
    pub round_trip_failures: u64,
    /// Random bit patterns whose decode → compress → decode was not a
    /// fixed point (or whose raw bits did not round-trip).
    pub idempotence_failures: u64,
    /// Random bit patterns outside the maintained invariant (unrounded
    /// bounds or unrepresentable address) — decoded but not held to the
    /// fixed-point obligation.
    pub non_canonical: u64,
}

impl CodecReport {
    /// `true` when every case agreed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.round_trip_failures == 0 && self.idempotence_failures == 0
    }
}

/// Runs `cases` seeded codec cases of each obligation.
#[must_use]
pub fn check(seed: u64, cases: u64) -> CodecReport {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0DE_C0DE_5EED);
    let mut report = CodecReport {
        cases,
        ..CodecReport::default()
    };

    for _ in 0..cases {
        // Obligation 1: a realistically derived capability.
        let base: u64 = rng.gen_range(0..1u64 << 40);
        // Lengths spread across magnitudes so both exact (small) and
        // rounded (large) encodings are produced by set_bounds.
        let len: u64 = 1 << rng.gen_range(0..30u32);
        let len = len + rng.gen_range(0..len);
        let mut cap = Capability::root()
            .set_bounds(base, len)
            .expect("region is far below the root top")
            .and_perms(Perms::from_bits(rng.gen_range(0..0x1000u16)))
            .expect("derived capability is valid and unsealed");
        // Move the address somewhere inside bounds (always representable).
        let span = cap.length().min(u128::from(u64::MAX)) as u64;
        let offset = rng.gen_range(0..span.max(1));
        cap = cap
            .set_address(cap.base().wrapping_add(offset))
            .expect("in-bounds addresses are representable");
        if rng.gen_bool(0.2) {
            cap = cap.seal(rng.gen_range(4..64u32)).expect("otype in range");
        }
        if rng.gen_bool(0.1) {
            cap = cap.clear_tag();
        }
        let decoded = cap.compress().decode(cap.is_valid());
        if decoded != cap {
            report.round_trip_failures += 1;
        }

        // Obligation 2: arbitrary bits.
        let bits = u128::from(rng.gen::<u64>()) << 64 | u128::from(rng.gen::<u64>());
        if CompressedCapability::from_bits(bits).bits() != bits {
            report.idempotence_failures += 1;
            continue;
        }
        let once = CompressedCapability::from_bits(bits).decode(false);
        let canonical = compressed::round_bounds(once.base(), once.top())
            == (once.base(), once.top())
            && compressed::address_is_representable(once.base(), once.top(), once.address());
        if !canonical {
            report.non_canonical += 1;
            continue;
        }
        let twice = once.compress().decode(false);
        if twice != once {
            report.idempotence_failures += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_agrees_on_many_seeds() {
        for seed in [0, 1, 2, 0xDEAD] {
            let report = check(seed, 2000);
            assert!(report.is_clean(), "seed {seed}: {report:?}");
            assert_eq!(report.cases, 2000);
            // The fixed-point obligation must not be vacuous: a healthy
            // share of random patterns decode into the invariant.
            assert!(
                report.non_canonical < report.cases / 2,
                "seed {seed}: only {} of {} patterns were canonical",
                report.cases - report.non_canonical,
                report.cases
            );
        }
    }

    #[test]
    fn reports_are_deterministic() {
        assert_eq!(check(9, 500), check(9, 500));
    }
}
