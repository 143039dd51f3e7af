//! A conventional set-associative LRU line cache (L1 instruction cache, BTB).

use uopcache_model::{CacheStats, LineAddr};

/// Result of a line-cache access.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum LineOutcome {
    /// The line was present.
    Hit,
    /// The line was filled; `evicted` is the line displaced, if any.
    Miss {
        /// Line evicted to make room (None if a way was free).
        evicted: Option<LineAddr>,
    },
}

/// Set-associative LRU cache of lines, used for the 32 KiB L1i (Table I) and
/// as a generic tagged structure for the BTB.
///
/// Storage is two flat arrays allocated once at construction, indexed
/// `set * ways + way`: the resident line of each way and its last-use stamp.
/// A stamp of 0 marks a free way (every fill or touch stamps with the clock,
/// which starts at 1), so the least-recent way is a free one whenever the set
/// has one, and free ways fill in way order. Accesses never allocate.
///
/// # Examples
///
/// ```
/// use uopcache_cache::{LineCache, LineOutcome};
/// use uopcache_model::Addr;
///
/// let mut l1i = LineCache::new(32 * 1024, 8, 64);
/// let line = Addr::new(0x1234).line(64);
/// assert!(matches!(l1i.access(line), LineOutcome::Miss { .. }));
/// assert_eq!(l1i.access(line), LineOutcome::Hit);
/// ```
#[derive(Clone, Debug)]
pub struct LineCache {
    /// Resident line per way.
    tags: Vec<LineAddr>,
    /// Last-use stamp per way; 0 for a free way.
    stamps: Vec<u64>,
    ways: usize,
    /// `sets - 1` (the set count is a power of two).
    set_mask: u64,
    /// `log2(line_bytes)`.
    line_shift: u32,
    stats: CacheStats,
    now: u64,
}

impl LineCache {
    /// Creates a cache with `size_bytes` capacity, `ways` associativity and
    /// the given line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly, or the set count or
    /// the line size is not a power of two.
    pub fn new(size_bytes: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = size_bytes / line_bytes;
        assert!(
            ways > 0 && lines.is_multiple_of(ways),
            "lines must divide into ways"
        );
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        LineCache {
            tags: vec![LineAddr::default(); lines as usize],
            stamps: vec![0; lines as usize],
            ways: ways as usize,
            set_mask: u64::from(sets - 1),
            line_shift: line_bytes.trailing_zeros(),
            stats: CacheStats::default(),
            now: 0,
        }
    }

    /// Creates a cache by entry count instead of byte size (for BTB-like
    /// structures where "line" is an entry tag).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`LineCache::new`]).
    pub fn with_entries(entries: u32, ways: u32, line_bytes: u32) -> Self {
        Self::new(entries * line_bytes, ways, line_bytes)
    }

    /// The flat index range of `line`'s set.
    #[inline]
    fn set_ways(&self, line: LineAddr) -> std::ops::Range<usize> {
        // Masked by `sets - 1`, so the set index always fits in usize.
        #[allow(clippy::cast_possible_truncation)]
        let set = ((line.base().get() >> self.line_shift) & self.set_mask) as usize;
        let first = set * self.ways;
        first..first + self.ways
    }

    /// The flat index of the way holding `line`, if it is resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let ways = self.set_ways(line);
        let first = ways.start;
        // A branch-free scan (a set's hit way is unpredictable); walking
        // backwards leaves the first match. Free ways follow the resident
        // ones and read as line 0, so only the first match can be resident.
        let tags = &self.tags[ways];
        let mut found = None;
        for w in (0..tags.len()).rev() {
            found = if tags[w] == line { Some(w) } else { found };
        }
        let i = first + found?;
        (self.stamps[i] != 0).then_some(i)
    }

    /// Accesses `line`, filling it on a miss. Returns what happened.
    // audit:hot-path — per-fetch L1i / per-branch BTB access; must never allocate
    pub fn access(&mut self, line: LineAddr) -> LineOutcome {
        self.now += 1;
        self.stats.accesses += 1;
        if let Some(i) = self.find(line) {
            self.stamps[i] = self.now;
            self.stats.hits += 1;
            return LineOutcome::Hit;
        }
        self.stats.misses += 1;
        self.stats.fills += 1;
        let ways = self.set_ways(line);
        let stamps = &self.stamps[ways.clone()];
        // The least-recent way, the first free one if any (stamp 0),
        // found branch-free like the hit way.
        let (mut lru, mut oldest) = (0, stamps[0]);
        for (w, &stamp) in stamps.iter().enumerate().skip(1) {
            let older = stamp < oldest;
            lru = if older { w } else { lru };
            oldest = if older { stamp } else { oldest };
        }
        let victim = ways.start + lru;
        let evicted = (self.stamps[victim] != 0).then(|| self.tags[victim]);
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        self.tags[victim] = line;
        self.stamps[victim] = self.now;
        LineOutcome::Miss { evicted }
    }

    /// Refreshes `line`'s recency without counting an access (used to keep
    /// the L1i's LRU state coupled to micro-op cache hits under inclusion).
    /// Returns whether the line was present.
    // audit:hot-path — per-uop-cache-hit L1i recency update; must never allocate
    pub fn touch(&mut self, line: LineAddr) -> bool {
        self.now += 1;
        match self.find(line) {
            Some(i) => {
                self.stamps[i] = self.now;
                true
            }
            None => false,
        }
    }

    /// Whether `line` is present (does not update recency).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::rng::{Prng, Rng};
    use uopcache_model::Addr;

    fn line(addr: u64) -> LineAddr {
        Addr::new(addr).line(64)
    }

    #[test]
    fn fill_then_hit() {
        let mut c = LineCache::new(4 * 64, 2, 64); // 2 sets x 2 ways
        assert!(matches!(
            c.access(line(0)),
            LineOutcome::Miss { evicted: None }
        ));
        assert_eq!(c.access(line(0)), LineOutcome::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = LineCache::new(4 * 64, 2, 64); // sets 0,1
                                                   // Lines 0, 128, 256 all map to set 0.
        c.access(line(0));
        c.access(line(128));
        c.access(line(0)); // refresh 0; 128 is now LRU
        match c.access(line(256)) {
            LineOutcome::Miss { evicted: Some(e) } => assert_eq!(e, line(128)),
            other => panic!("{other:?}"),
        }
        assert!(c.contains(line(0)));
        assert!(!c.contains(line(128)));
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = LineCache::new(4 * 64, 2, 64);
        c.access(line(0)); // set 0
        c.access(line(64)); // set 1
        assert!(c.contains(line(0)));
        assert!(c.contains(line(64)));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn line_zero_is_not_resident_in_an_empty_cache() {
        // A free way's tag reads as line 0; it must not look resident.
        let mut c = LineCache::new(4 * 64, 2, 64);
        assert!(!c.contains(line(0)));
        assert!(!c.touch(line(0)));
        assert!(matches!(
            c.access(line(0)),
            LineOutcome::Miss { evicted: None }
        ));
    }

    #[test]
    fn entries_constructor() {
        let c = LineCache::with_entries(8192, 4, 64);
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.line_bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = LineCache::new(3 * 64, 1, 64);
    }

    /// The previous implementation, kept as the differential oracle: one
    /// growable `Vec` per set, filled by `push`, with a global timestamp per
    /// way and a minimum-timestamp scan for the victim.
    struct OracleLineCache {
        sets: Vec<Vec<(LineAddr, u64)>>,
        ways: usize,
        line_bytes: u64,
        stats: CacheStats,
        now: u64,
    }

    impl OracleLineCache {
        fn new(size_bytes: u32, ways: u32, line_bytes: u32) -> Self {
            let sets = size_bytes / line_bytes / ways;
            OracleLineCache {
                sets: vec![Vec::new(); sets as usize],
                ways: ways as usize,
                line_bytes: u64::from(line_bytes),
                stats: CacheStats::default(),
                now: 0,
            }
        }

        fn set(&self, line: LineAddr) -> usize {
            let set = (line.base().get() / self.line_bytes) % self.sets.len() as u64;
            usize::try_from(set).expect("reduced modulo the set count")
        }

        fn access(&mut self, line: LineAddr) -> LineOutcome {
            self.now += 1;
            self.stats.accesses += 1;
            let idx = self.set(line);
            let set = &mut self.sets[idx];
            if let Some(way) = set.iter_mut().find(|w| w.0 == line) {
                way.1 = self.now;
                self.stats.hits += 1;
                return LineOutcome::Hit;
            }
            self.stats.misses += 1;
            self.stats.fills += 1;
            let evicted = if set.len() < self.ways {
                set.push((line, self.now));
                None
            } else {
                let lru = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.1)
                    .map(|(i, _)| i)
                    .expect("non-empty set");
                let old = set[lru].0;
                set[lru] = (line, self.now);
                self.stats.evictions += 1;
                Some(old)
            };
            LineOutcome::Miss { evicted }
        }

        fn touch(&mut self, line: LineAddr) -> bool {
            self.now += 1;
            let idx = self.set(line);
            match self.sets[idx].iter_mut().find(|w| w.0 == line) {
                Some(way) => {
                    way.1 = self.now;
                    true
                }
                None => false,
            }
        }

        fn contains(&self, line: LineAddr) -> bool {
            self.sets[self.set(line)].iter().any(|w| w.0 == line)
        }
    }

    /// Drives both caches with the same seeded mix of accesses, touches and
    /// presence checks over a footprint about twice the capacity, so every
    /// set fills, thrashes and re-hits; every outcome must agree.
    fn differential(size_bytes: u32, ways: u32, line_bytes: u32, seed: u64) {
        let mut flat = LineCache::new(size_bytes, ways, line_bytes);
        let mut oracle = OracleLineCache::new(size_bytes, ways, line_bytes);
        let mut rng = Prng::seed_from_u64(seed);
        let footprint = u64::from(size_bytes) * 2;
        for step in 0..40_000 {
            // Line 0 is in the footprint, so the empty-tag case is exercised.
            let l = Addr::new(rng.gen_range(0..footprint)).line(u64::from(line_bytes));
            match rng.gen_range(0..10u32) {
                0..=5 => assert_eq!(flat.access(l), oracle.access(l), "access #{step}"),
                6..=8 => assert_eq!(flat.touch(l), oracle.touch(l), "touch #{step}"),
                _ => assert_eq!(flat.contains(l), oracle.contains(l), "contains #{step}"),
            }
        }
        assert_eq!(*flat.stats(), oracle.stats);
        assert!(oracle.stats.evictions > 0, "the run must evict");
    }

    #[test]
    fn flat_arrays_match_the_per_set_vec_oracle() {
        for seed in [1, 2, 3] {
            differential(32 * 1024, 8, 64, seed); // L1i: 64 sets x 8 ways
            differential(8192 * 4, 4, 4, seed); // BTB: 2048 sets x 4 ways
            differential(4 * 64, 2, 64, seed); // 2 sets x 2 ways
        }
    }
}
