//! CapChecker configuration.

use hetsim::Cycles;

/// How the CapChecker recovers *which object* a request refers to —
/// the two implementations of Figure 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckerMode {
    /// **Fine**: the accelerator's memory interface (or the port mux)
    /// carries an object identifier with every request, so each access is
    /// checked against exactly the capability it was intended to use.
    /// Object-level protection — the paper's headline mode.
    Fine,
    /// **Coarse**: the accelerator exposes one opaque interface, so the
    /// driver retrofits provenance into the top address bits (8 bits here,
    /// leaving a 56-bit address space). Cross-task protection is hardware
    /// (interconnect source); intra-task object separation can be defeated
    /// by address forging — Table 3's worst case.
    Coarse,
}

impl CheckerMode {
    /// Short label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CheckerMode::Fine => "Fine",
            CheckerMode::Coarse => "Coarse",
        }
    }

    /// The other mode — what the adaptive controller switches to.
    #[must_use]
    pub fn toggled(self) -> CheckerMode {
        match self {
            CheckerMode::Fine => CheckerMode::Coarse,
            CheckerMode::Coarse => CheckerMode::Fine,
        }
    }
}

/// Hardware parameters of a CapChecker instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckerConfig {
    /// Capability-table entries. 256 in the paper's prototype — enough
    /// for every evaluated benchmark (Table 2).
    pub entries: usize,
    /// Provenance mode.
    pub mode: CheckerMode,
    /// Address bits reserved for the object ID in Coarse mode.
    pub coarse_object_bits: u32,
    /// Pipeline stages the checker adds to each request (latency only —
    /// the checker sustains one request per cycle).
    pub pipeline_latency: Cycles,
    /// Latency of one MMIO write on the capability interconnect.
    pub mmio_write_cycles: Cycles,
}

impl CheckerConfig {
    /// MMIO writes needed to install one capability: CAP_LO, CAP_HI, TAG,
    /// TASK+OBJECT, COMMIT.
    pub const WRITES_PER_INSTALL: u64 = 5;

    /// The paper's prototype configuration in Fine mode.
    #[must_use]
    pub fn fine() -> CheckerConfig {
        CheckerConfig {
            entries: 256,
            mode: CheckerMode::Fine,
            coarse_object_bits: 8,
            pipeline_latency: 1,
            mmio_write_cycles: 30,
        }
    }

    /// The paper's prototype configuration in Coarse mode.
    #[must_use]
    pub fn coarse() -> CheckerConfig {
        CheckerConfig {
            mode: CheckerMode::Coarse,
            ..CheckerConfig::fine()
        }
    }

    /// Cycles the driver spends installing one capability over MMIO.
    #[must_use]
    pub fn install_cycles(&self) -> Cycles {
        Self::WRITES_PER_INSTALL * self.mmio_write_cycles
    }

    /// The address mask below the Coarse object-ID bits.
    #[must_use]
    pub fn coarse_addr_mask(&self) -> u64 {
        u64::MAX >> self.coarse_object_bits
    }

    /// Packs an object ID into the top bits of an address (what the
    /// trusted driver does when loading accelerator base pointers).
    #[must_use]
    pub fn coarse_tag_address(&self, object: u16, addr: u64) -> u64 {
        let shift = 64 - self.coarse_object_bits;
        (u64::from(object) << shift) | (addr & self.coarse_addr_mask())
    }

    /// Splits a Coarse address into `(object, physical address)`.
    #[must_use]
    pub fn coarse_split_address(&self, addr: u64) -> (u16, u64) {
        let shift = 64 - self.coarse_object_bits;
        ((addr >> shift) as u16, addr & self.coarse_addr_mask())
    }
}

impl Default for CheckerConfig {
    fn default() -> CheckerConfig {
        CheckerConfig::fine()
    }
}

/// Hardware parameters of a cache-backed CapChecker
/// ([`CapChecker::cached`](crate::CapChecker::cached)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CachedCheckerConfig {
    /// Hardware cache entries (fully associative, LRU).
    pub cache_entries: usize,
    /// Cycles a miss adds (fetch + decode of the in-memory entry).
    pub miss_penalty: Cycles,
    /// Provenance/addressing parameters shared with the fixed design.
    pub base: CheckerConfig,
}

impl CachedCheckerConfig {
    /// This configuration with the provenance mode replaced — what the
    /// adaptive controller rebuilds the checker with on a Fine ⇄ Coarse
    /// switch (cache geometry is a hardware property and carries over).
    #[must_use]
    pub fn with_mode(mut self, mode: CheckerMode) -> CachedCheckerConfig {
        self.base.mode = mode;
        self
    }
}

impl Default for CachedCheckerConfig {
    fn default() -> CachedCheckerConfig {
        CachedCheckerConfig {
            cache_entries: 16,
            miss_penalty: 35,
            base: CheckerConfig::fine(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_defaults_match_the_paper() {
        let c = CheckerConfig::fine();
        assert_eq!(c.entries, 256);
        assert_eq!(c.mode, CheckerMode::Fine);
        assert_eq!(c.coarse_object_bits, 8);
        assert_eq!(CheckerConfig::coarse().mode, CheckerMode::Coarse);
        assert_eq!(CheckerMode::Fine.toggled(), CheckerMode::Coarse);
        assert_eq!(CheckerMode::Coarse.toggled(), CheckerMode::Fine);
    }

    #[test]
    fn coarse_address_round_trip() {
        let c = CheckerConfig::coarse();
        let tagged = c.coarse_tag_address(0xab, 0x1234_5678);
        assert_eq!(c.coarse_split_address(tagged), (0xab, 0x1234_5678));
        // The tag really lives in the top 8 bits.
        assert_eq!(tagged >> 56, 0xab);
    }

    #[test]
    fn coarse_mask_leaves_56_bits() {
        let c = CheckerConfig::coarse();
        assert_eq!(c.coarse_addr_mask(), (1u64 << 56) - 1);
    }

    #[test]
    fn install_cost_is_five_mmio_writes() {
        let c = CheckerConfig::fine();
        assert_eq!(c.install_cycles(), 150);
    }
}
