//! Hardware configuration for the simulated frontend, with presets matching
//! the paper's Table I (AMD Zen3-like) and the Zen4-like sensitivity setup.

use crate::json_struct;

/// Largest micro-op cache `entries` a configuration may ask for: 16x the
/// largest geometry any experiment uses (4 096). A geometry from untrusted
/// input (a served spec, a CLI flag) above it is refused by
/// [`UopCacheConfig::validate`] before anything is allocated for it.
pub const MAX_UOP_CACHE_ENTRIES: u32 = 65_536;

/// Micro-op cache geometry and behaviour.
///
/// Defaults mirror Table I: 512 entries, 8-way, 8 micro-ops per entry,
/// inclusive with L1i, 1-cycle switch delay between the micro-op cache path
/// and the legacy decode path.
///
/// # Examples
///
/// ```
/// use uopcache_model::UopCacheConfig;
///
/// let cfg = UopCacheConfig::zen3();
/// assert_eq!(cfg.sets(), 64);
/// assert_eq!(cfg.capacity_uops(), 4096);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct UopCacheConfig {
    /// Total number of entries (entries = sets × ways).
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
    /// Micro-op slots per entry.
    pub uops_per_entry: u32,
    /// Cycles lost when switching between the micro-op cache path and the
    /// legacy decode path.
    pub switch_penalty: u32,
    /// Whether the micro-op cache contents are strictly included in L1i
    /// (an L1i eviction invalidates the corresponding PWs).
    pub inclusive_with_l1i: bool,
    /// Maximum number of entries a single PW may occupy within one set.
    /// PWs larger than this are never cached (they stream from the decoder).
    pub max_entries_per_pw: u32,
}

impl UopCacheConfig {
    /// Table I / AMD Zen3-like preset: 512-entry, 8-way, 8 uops/entry.
    pub const fn zen3() -> Self {
        UopCacheConfig {
            entries: 512,
            ways: 8,
            uops_per_entry: 8,
            switch_penalty: 1,
            inclusive_with_l1i: true,
            max_entries_per_pw: 4,
        }
    }

    /// AMD Zen4-like preset: a larger (864-entry, 12-way) op cache holding
    /// roughly 6.75K micro-ops, per public microarchitecture documentation.
    pub const fn zen4() -> Self {
        UopCacheConfig {
            entries: 864,
            ways: 12,
            uops_per_entry: 8,
            switch_penalty: 1,
            inclusive_with_l1i: true,
            max_entries_per_pw: 6,
        }
    }

    /// Returns a copy with a different total entry count (ways preserved).
    pub fn with_entries(mut self, entries: u32) -> Self {
        self.entries = entries;
        self
    }

    /// Returns a copy with a different associativity.
    pub fn with_ways(mut self, ways: u32) -> Self {
        self.ways = ways;
        self
    }

    /// Checks that the geometry can be built: `ways` in `1..=64` (a set
    /// tracks its slots in one 64-bit mask), `entries` a non-zero multiple
    /// of `ways` and at most [`MAX_UOP_CACHE_ENTRIES`], and
    /// `max_entries_per_pw` no larger than `ways`. Callers
    /// that take a geometry from untrusted input run this before building a
    /// cache, whose constructors panic on these cases.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let Self {
            entries,
            ways,
            max_entries_per_pw,
            ..
        } = *self;
        if !(1..=64).contains(&ways) {
            return Err(ConfigError(format!("ways must be in 1..=64, got {ways}")));
        }
        if entries == 0 || !entries.is_multiple_of(ways) {
            return Err(ConfigError(format!(
                "entries must be a non-zero multiple of ways ({ways}), got {entries}"
            )));
        }
        if entries > MAX_UOP_CACHE_ENTRIES {
            return Err(ConfigError(format!(
                "entries ({entries}) exceeds the maximum of {MAX_UOP_CACHE_ENTRIES}"
            )));
        }
        if max_entries_per_pw > ways {
            return Err(ConfigError(format!(
                "max entries per PW ({max_entries_per_pw}) exceeds ways ({ways})"
            )));
        }
        Ok(())
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways`.
    pub fn sets(&self) -> u32 {
        assert!(
            self.ways > 0 && self.entries.is_multiple_of(self.ways),
            "entries must divide into ways"
        );
        self.entries / self.ways
    }

    /// Total micro-op capacity.
    pub const fn capacity_uops(&self) -> u32 {
        self.entries * self.uops_per_entry
    }

    /// The set index a PW with the given start address maps to.
    ///
    /// The micro-op cache is indexed by the PW start address at i-cache line
    /// granularity, matching the industry organisation in which all entries of
    /// a PW live in one set.
    pub fn set_index_for(&self, start: crate::Addr, line_bytes: u64) -> usize {
        let sets = u64::from(self.sets());
        if sets.is_power_of_two() {
            start.line(line_bytes).set_index(sets, line_bytes)
        } else {
            // Reduced modulo `sets`, so the value always fits in usize.
            #[allow(clippy::cast_possible_truncation)]
            let idx = ((start.get() / line_bytes) % sets) as usize;
            idx
        }
    }
}

/// An inconsistent [`UopCacheConfig`] geometry, with a human-readable
/// message (see [`UopCacheConfig::validate`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid micro-op cache geometry: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl Default for UopCacheConfig {
    fn default() -> Self {
        Self::zen3()
    }
}

/// L1 instruction cache geometry (Table I: 32 KiB, 8-way, 64 B lines, LRU).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct IcacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access latency in cycles.
    pub latency: u32,
}

impl IcacheConfig {
    /// Table I preset: 32 KiB, 8-way, 64 B lines, 1-cycle.
    pub const fn zen3() -> Self {
        IcacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 1,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn sets(&self) -> u32 {
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            self.ways > 0 && lines.is_multiple_of(self.ways),
            "lines must divide into ways"
        );
        lines / self.ways
    }
}

impl Default for IcacheConfig {
    fn default() -> Self {
        Self::zen3()
    }
}

/// Legacy decode pipeline (Table I: 4-wide, 5-cycle latency).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct DecoderConfig {
    /// Instructions decoded per cycle.
    pub width: u32,
    /// Pipeline depth in cycles; this latency is what makes micro-op cache
    /// insertion *asynchronous* with respect to lookups.
    pub latency: u32,
}

impl DecoderConfig {
    /// Table I preset: 4-wide, 5-cycle.
    pub const fn zen3() -> Self {
        DecoderConfig {
            width: 4,
            latency: 5,
        }
    }
}

impl Default for DecoderConfig {
    fn default() -> Self {
        Self::zen3()
    }
}

/// Branch prediction unit (Table I: 8192-entry 4-way BTB, 32-entry RAS,
/// TAGE-SC-L-class conditional predictor, 4096-entry IBTB).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct BpuConfig {
    /// Branch target buffer entries.
    pub btb_entries: u32,
    /// BTB associativity.
    pub btb_ways: u32,
    /// Return address stack depth.
    pub ras_entries: u32,
    /// Indirect-branch target buffer entries.
    pub ibtb_entries: u32,
    /// Conditional predictor history-table entries (abstraction of
    /// TAGE-SC-L storage).
    pub cond_entries: u32,
    /// Branch misprediction pipeline-flush penalty in cycles.
    pub mispredict_penalty: u32,
}

impl BpuConfig {
    /// Table I preset.
    pub const fn zen3() -> Self {
        BpuConfig {
            btb_entries: 8192,
            btb_ways: 4,
            ras_entries: 32,
            ibtb_entries: 4096,
            cond_entries: 65536,
            mispredict_penalty: 14,
        }
    }
}

impl Default for BpuConfig {
    fn default() -> Self {
        Self::zen3()
    }
}

/// Out-of-order backend abstraction (Table I: 3.2 GHz, 6-wide, 256-entry ROB).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct BackendConfig {
    /// Core frequency in GHz (for energy/PPW reporting).
    pub freq_ghz: f64,
    /// Issue/retire width in micro-ops per cycle.
    pub width: u32,
    /// Reorder buffer entries.
    pub rob_entries: u32,
    /// Reservation station entries.
    pub rs_entries: u32,
    /// Average backend IPC ceiling imposed by data dependencies and memory
    /// (micro-ops per cycle the backend can absorb on these workloads).
    pub uop_ipc_ceiling: f64,
}

impl BackendConfig {
    /// Table I preset.
    pub const fn zen3() -> Self {
        BackendConfig {
            freq_ghz: 3.2,
            width: 6,
            rob_entries: 256,
            rs_entries: 96,
            uop_ipc_ceiling: 3.0,
        }
    }
}

impl Default for BackendConfig {
    fn default() -> Self {
        Self::zen3()
    }
}

/// Which structures are modelled as *perfect* (always hit / always correct),
/// for the Figure 2 limit study.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub struct PerfectStructures {
    /// Micro-op cache always hits (after first touch).
    pub uop_cache: bool,
    /// Instruction cache always hits.
    pub icache: bool,
    /// BTB always holds the target.
    pub btb: bool,
    /// Conditional/indirect predictor never mispredicts.
    pub branch_predictor: bool,
}

impl PerfectStructures {
    /// Nothing perfect: the realistic baseline.
    pub const fn none() -> Self {
        PerfectStructures {
            uop_cache: false,
            icache: false,
            btb: false,
            branch_predictor: false,
        }
    }
}

/// Complete frontend configuration: the argument to the simulator.
///
/// # Examples
///
/// ```
/// use uopcache_model::FrontendConfig;
///
/// let zen3 = FrontendConfig::zen3();
/// assert_eq!(zen3.uop_cache.entries, 512);
/// let zen4 = FrontendConfig::zen4();
/// assert!(zen4.uop_cache.entries > zen3.uop_cache.entries);
/// ```
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct FrontendConfig {
    /// Micro-op cache.
    pub uop_cache: UopCacheConfig,
    /// L1 instruction cache.
    pub icache: IcacheConfig,
    /// Legacy decode pipeline.
    pub decoder: DecoderConfig,
    /// Branch prediction unit.
    pub bpu: BpuConfig,
    /// Backend abstraction.
    pub backend: BackendConfig,
    /// Perfect-structure switches for limit studies.
    pub perfect: PerfectStructures,
}

impl FrontendConfig {
    /// Table I / AMD Zen3-like preset.
    pub fn zen3() -> Self {
        FrontendConfig {
            uop_cache: UopCacheConfig::zen3(),
            icache: IcacheConfig::zen3(),
            decoder: DecoderConfig::zen3(),
            bpu: BpuConfig::zen3(),
            backend: BackendConfig::zen3(),
            perfect: PerfectStructures::none(),
        }
    }

    /// AMD Zen4-like preset used by the paper's frontend-configuration
    /// sensitivity study (Fig. 17): larger op cache, wider frontend.
    pub fn zen4() -> Self {
        let mut cfg = Self::zen3();
        cfg.uop_cache = UopCacheConfig::zen4();
        cfg.bpu.btb_entries = 16384;
        cfg.icache.size_bytes = 32 * 1024;
        cfg.decoder = DecoderConfig {
            width: 4,
            latency: 4,
        };
        cfg.backend.width = 8;
        cfg.backend.uop_ipc_ceiling = 3.3;
        cfg
    }
}

json_struct!(UopCacheConfig {
    entries,
    ways,
    uops_per_entry,
    switch_penalty,
    inclusive_with_l1i,
    max_entries_per_pw,
});
json_struct!(IcacheConfig {
    size_bytes,
    ways,
    line_bytes,
    latency
});
json_struct!(DecoderConfig { width, latency });
json_struct!(BpuConfig {
    btb_entries,
    btb_ways,
    ras_entries,
    ibtb_entries,
    cond_entries,
    mispredict_penalty,
});
json_struct!(BackendConfig {
    freq_ghz,
    width,
    rob_entries,
    rs_entries,
    uop_ipc_ceiling
});
json_struct!(PerfectStructures {
    uop_cache,
    icache,
    btb,
    branch_predictor
});
json_struct!(FrontendConfig {
    uop_cache,
    icache,
    decoder,
    bpu,
    backend,
    perfect
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;

    #[test]
    fn zen3_matches_table_i() {
        let c = FrontendConfig::zen3();
        assert_eq!(c.uop_cache.entries, 512);
        assert_eq!(c.uop_cache.ways, 8);
        assert_eq!(c.uop_cache.uops_per_entry, 8);
        assert_eq!(c.uop_cache.sets(), 64);
        assert_eq!(c.icache.size_bytes, 32 * 1024);
        assert_eq!(c.icache.sets(), 64);
        assert_eq!(c.decoder.width, 4);
        assert_eq!(c.decoder.latency, 5);
        assert_eq!(c.bpu.btb_entries, 8192);
        assert_eq!(c.backend.rob_entries, 256);
    }

    #[test]
    fn capacity_in_uops() {
        assert_eq!(UopCacheConfig::zen3().capacity_uops(), 4096);
    }

    #[test]
    fn set_index_is_stable_and_bounded() {
        let c = UopCacheConfig::zen3();
        for raw in [0u64, 64, 4096, 0xdead_beef] {
            let idx = c.set_index_for(Addr::new(raw), 64);
            assert!(idx < c.sets() as usize);
            assert_eq!(idx, c.set_index_for(Addr::new(raw), 64));
        }
    }

    #[test]
    fn set_index_handles_non_power_of_two_sets() {
        let c = UopCacheConfig::zen4(); // 864 / 12 = 72 sets
        assert_eq!(c.sets(), 72);
        for raw in (0..10_000u64).step_by(37) {
            assert!(c.set_index_for(Addr::new(raw), 64) < 72);
        }
    }

    #[test]
    fn with_builders_change_geometry() {
        let c = UopCacheConfig::zen3().with_entries(1024).with_ways(16);
        assert_eq!(c.sets(), 64);
        assert_eq!(c.entries, 1024);
    }

    #[test]
    #[should_panic(expected = "divide into ways")]
    fn bad_geometry_panics() {
        let _ = UopCacheConfig::zen3().with_entries(100).sets();
    }

    #[test]
    fn validate_accepts_presets_and_rejects_unbuildable_geometry() {
        assert_eq!(UopCacheConfig::zen3().validate(), Ok(()));
        assert_eq!(UopCacheConfig::zen4().validate(), Ok(()));
        assert_eq!(UopCacheConfig::zen3().with_ways(64).validate(), Ok(()));
        let largest = UopCacheConfig::zen3().with_entries(MAX_UOP_CACHE_ENTRIES);
        assert_eq!(largest.validate(), Ok(()));
        for bad in [
            UopCacheConfig::zen3().with_entries(MAX_UOP_CACHE_ENTRIES + 8),
            UopCacheConfig::zen3().with_entries(u32::MAX - 7),
            UopCacheConfig::zen3().with_entries(7).with_ways(3),
            UopCacheConfig::zen3().with_ways(0),
            UopCacheConfig::zen3().with_entries(130).with_ways(65),
            UopCacheConfig::zen3().with_entries(0),
            UopCacheConfig::zen3().with_entries(6).with_ways(2),
        ] {
            assert!(bad.validate().is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn zen4_differs() {
        assert_ne!(FrontendConfig::zen4(), FrontendConfig::zen3());
    }
}
