//! The micro-op cache storage structure.

use crate::classify::{MissClass, MissClassifier};
use crate::meta::PwMeta;
use crate::policy::PwReplacementPolicy;
use crate::pwset::PwSet;
use uopcache_model::{Addr, LineAddr, PwDesc, UopCacheConfig, UopCacheStats};
#[cfg(feature = "obs")]
use uopcache_obs::{Event, EventKind, Recorder, Verdict};

/// Outcome of a micro-op cache lookup, at micro-op granularity.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum LookupResult {
    /// All requested micro-ops were served from the cache (the stored PW
    /// covers the request, possibly via an intermediate exit point).
    Hit {
        /// Micro-ops served.
        uops: u32,
    },
    /// A shorter PW with the same start address served the front of the
    /// request; the remainder must come from the legacy decode path, which
    /// will then form and insert the larger window (§II-D).
    PartialHit {
        /// Micro-ops served from the cache.
        hit_uops: u32,
        /// Micro-ops that missed.
        miss_uops: u32,
    },
    /// Nothing with this start address is resident.
    Miss,
}

impl LookupResult {
    /// Micro-ops served from the cache.
    pub fn hit_uops(&self) -> u32 {
        match *self {
            LookupResult::Hit { uops } => uops,
            LookupResult::PartialHit { hit_uops, .. } => hit_uops,
            LookupResult::Miss => 0,
        }
    }

    /// Micro-ops that must come from the legacy decode path.
    pub fn miss_uops(&self, requested: u32) -> u32 {
        requested - self.hit_uops()
    }

    /// Whether the lookup fully hit.
    pub fn is_full_hit(&self) -> bool {
        matches!(self, LookupResult::Hit { .. })
    }
}

/// Outcome of a micro-op cache insertion attempt.
///
/// Kept `Copy` so the hot insertion path allocates nothing; the descriptors
/// of the windows an insertion displaced are readable until the next
/// insertion via [`UopCache::last_evicted`].
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum InsertOutcome {
    /// The PW was written into the cache.
    Inserted {
        /// Number of whole PWs evicted by the replacement policy to make
        /// room (their descriptors are in [`UopCache::last_evicted`]).
        evicted: u32,
    },
    /// The policy chose to bypass the insertion.
    Bypassed,
    /// A window with the same start address and at least this many micro-ops
    /// was already resident — nothing to do (its recency is refreshed by the
    /// lookup path, not by insertion).
    AlreadyPresent,
    /// The PW needs more entries than the configuration allows a single PW to
    /// occupy (`max_entries_per_pw`) — it streams from the decoder instead.
    TooLarge,
}

/// The micro-op cache: `sets × ways` entries, each holding up to
/// `uops_per_entry` micro-ops, managed at PW granularity by a pluggable
/// replacement policy.
///
/// This structure models *placement* semantics only (who is resident, partial
/// hits, inclusion). Timing — the asynchronous insertion delay, the switch
/// penalty — is layered on by `uopcache-sim`.
///
/// # Examples
///
/// ```
/// use uopcache_cache::{LookupResult, LruPolicy, UopCache};
/// use uopcache_model::{Addr, PwDesc, PwTermination, UopCacheConfig};
///
/// let mut c = UopCache::new(UopCacheConfig::zen3(), Box::new(LruPolicy::new()));
/// // A long window serves a shorter overlapping one (partial-hit coverage).
/// let long = PwDesc::new(Addr::new(0x40), 10, 30, PwTermination::TakenBranch);
/// let short = PwDesc::new(Addr::new(0x40), 4, 12, PwTermination::TakenBranch);
/// c.insert(&long);
/// assert_eq!(c.lookup(&short), LookupResult::Hit { uops: 4 });
/// ```
pub struct UopCache {
    cfg: UopCacheConfig,
    line_bytes: u64,
    sets: Vec<PwSet>,
    policy: Box<dyn PwReplacementPolicy>,
    stats: UopCacheStats,
    classifier: Option<MissClassifier>,
    /// Global access counter (advances on every lookup).
    now: u64,
    /// `log2(line_bytes)` — set indexing is a shift, not a division.
    set_shift: u32,
    /// `sets - 1` when the set count is a power of two (the common
    /// geometries); `None` falls back to a modulo.
    set_mask: Option<u64>,
    /// High-water mark of `PwDesc::bytes` over every PW made resident —
    /// bounds how many lines a resident PW can span (see
    /// [`UopCache::invalidate_line`]). Never decreases.
    max_pw_bytes: u64,
    /// Scratch buffer for the slot-ordered resident slice handed to the
    /// policy (capacity `ways`, reused across insertions — never grows).
    resident_scratch: Vec<PwMeta>,
    /// Descriptors evicted by the most recent insertion (capacity `ways`,
    /// reused across insertions — never grows).
    evicted_scratch: Vec<PwDesc>,
    /// Optional event sink (`None` — the default — skips all emission work).
    #[cfg(feature = "obs")]
    recorder: Option<Box<dyn Recorder>>,
    /// Externally supplied event timestamp (the frontend's cycle counter);
    /// falls back to the access counter when the cache is driven standalone.
    #[cfg(feature = "obs")]
    obs_cycle: Option<u64>,
}

impl UopCache {
    /// Creates a micro-op cache with the given geometry and replacement
    /// policy. Uses 64-byte i-cache lines for set indexing.
    pub fn new(cfg: UopCacheConfig, policy: Box<dyn PwReplacementPolicy>) -> Self {
        Self::with_line_bytes(cfg, policy, 64)
    }

    /// As [`UopCache::new`] with an explicit i-cache line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`UopCacheConfig::sets`]) or `line_bytes` is not a power of two.
    pub fn with_line_bytes(
        cfg: UopCacheConfig,
        mut policy: Box<dyn PwReplacementPolicy>,
        line_bytes: u64,
    ) -> Self {
        let set_count = cfg.sets();
        let sets = (0..set_count).map(|_| PwSet::new(cfg.ways)).collect();
        policy.prepare(set_count as usize, cfg.ways);
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        UopCache {
            cfg,
            line_bytes,
            sets,
            policy,
            stats: UopCacheStats::default(),
            classifier: None,
            now: 0,
            set_shift: line_bytes.trailing_zeros(),
            set_mask: u64::from(set_count)
                .is_power_of_two()
                .then(|| u64::from(set_count) - 1),
            max_pw_bytes: 0,
            resident_scratch: Vec::with_capacity(cfg.ways as usize),
            evicted_scratch: Vec::with_capacity(cfg.ways as usize),
            #[cfg(feature = "obs")]
            recorder: None,
            #[cfg(feature = "obs")]
            obs_cycle: None,
        }
    }

    /// Installs an event sink; every subsequent lookup/insert/evict/bypass/
    /// invalidate emits one [`Event`] into it.
    #[cfg(feature = "obs")]
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// The installed event sink, if any.
    #[cfg(feature = "obs")]
    pub fn recorder(&self) -> Option<&dyn Recorder> {
        self.recorder.as_deref()
    }

    /// Removes and returns the installed event sink.
    #[cfg(feature = "obs")]
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

    /// Sets the timestamp stamped onto subsequent events (the frontend
    /// forwards its cycle counter here once per access). Without it, events
    /// carry the cache's own access counter.
    #[cfg(feature = "obs")]
    pub fn set_cycle(&mut self, cycle: u64) {
        self.obs_cycle = Some(cycle);
    }

    /// Builds and emits one event, if a recorder is installed.
    #[cfg(feature = "obs")]
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        kind: EventKind,
        set_idx: usize,
        slot: Option<u8>,
        start: Addr,
        uops: u32,
        entries: u32,
        verdict: Verdict,
    ) {
        if let Some(rec) = &mut self.recorder {
            rec.record(&Event {
                cycle: self.obs_cycle.unwrap_or(self.now),
                kind,
                set: u32::try_from(set_idx).expect("set index fits in u32"),
                slot,
                start: start.get(),
                uops,
                entries,
                verdict,
            });
        }
    }

    /// Enables cold/capacity/conflict miss classification (adds a
    /// fully-associative LRU shadow of equal entry capacity).
    pub fn enable_classification(&mut self) {
        self.classifier = Some(MissClassifier::new(
            self.cfg.entries,
            self.cfg.uops_per_entry,
        ));
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &UopCacheConfig {
        &self.cfg
    }

    /// The replacement policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The installed replacement policy (for post-run introspection —
    /// diagnostics surfaces read [`PwReplacementPolicy::introspect`] through
    /// this).
    pub fn policy(&self) -> &dyn PwReplacementPolicy {
        self.policy.as_ref()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &UopCacheStats {
        &self.stats
    }

    /// Total entries currently occupied.
    pub fn occupied_entries(&self) -> u32 {
        self.sets.iter().map(PwSet::used_entries).sum()
    }

    /// Whether a window starting at `start` is resident, and with how many
    /// micro-ops.
    pub fn resident_uops(&self, start: Addr) -> Option<u32> {
        let set = self.set_index(start);
        self.sets[set].find(start).map(|m| m.desc.uops)
    }

    /// Looks up a prediction window and updates statistics and policy
    /// recency state.
    // audit:hot-path — per-access entry point; must stay allocation-free warmed
    pub fn lookup(&mut self, pw: &PwDesc) -> LookupResult {
        self.now += 1;
        self.stats.lookups += 1;
        self.stats.uops_requested += u64::from(pw.uops);
        self.policy.on_lookup(pw);
        let set_idx = self.set_index(pw.start);
        let found = self.sets[set_idx]
            .find(pw.start)
            .map(|m| (m.slot, m.desc.uops));
        let result = match found {
            Some((slot, stored_uops)) => {
                let meta = self.sets[set_idx].touch(slot, self.now);
                self.policy.on_hit(set_idx, &meta);
                if stored_uops >= pw.uops {
                    LookupResult::Hit { uops: pw.uops }
                } else {
                    LookupResult::PartialHit {
                        hit_uops: stored_uops,
                        miss_uops: pw.uops - stored_uops,
                    }
                }
            }
            None => LookupResult::Miss,
        };
        match result {
            LookupResult::Hit { uops } => {
                self.stats.pw_hits += 1;
                self.stats.uops_hit += u64::from(uops);
            }
            LookupResult::PartialHit {
                hit_uops,
                miss_uops,
            } => {
                self.stats.pw_partial_hits += 1;
                self.stats.uops_hit += u64::from(hit_uops);
                self.stats.uops_missed += u64::from(miss_uops);
            }
            LookupResult::Miss => {
                self.stats.pw_misses += 1;
                self.stats.uops_missed += u64::from(pw.uops);
            }
        }
        #[cfg(feature = "obs")]
        {
            let kind = match result {
                LookupResult::Hit { .. } => EventKind::Hit,
                LookupResult::PartialHit { .. } => EventKind::PartialHit,
                LookupResult::Miss => EventKind::Miss,
            };
            self.emit(
                kind,
                set_idx,
                found.map(|(slot, _)| slot),
                pw.start,
                pw.uops,
                pw.entries(self.cfg.uops_per_entry),
                Verdict::None,
            );
        }
        if let Some(cls) = &mut self.classifier {
            let missed = result.miss_uops(pw.uops);
            if missed > 0 {
                match cls.classify(pw) {
                    MissClass::Cold => self.stats.cold_miss_uops += u64::from(missed),
                    MissClass::Capacity => self.stats.capacity_miss_uops += u64::from(missed),
                    MissClass::Conflict => self.stats.conflict_miss_uops += u64::from(missed),
                }
            }
            cls.record_access(pw);
        }
        result
    }

    /// Inserts a decoded prediction window, consulting the replacement policy
    /// for bypass and victim decisions.
    ///
    /// If a *shorter* window with the same start address is resident, it is
    /// upgraded in place to the larger window (the paper keeps the larger
    /// window, §IV). If an equal-or-longer window is resident the insertion
    /// is a no-op.
    // audit:hot-path — per-miss fill path; must stay allocation-free warmed
    pub fn insert(&mut self, pw: &PwDesc) -> InsertOutcome {
        self.evicted_scratch.clear();
        let entries = pw.entries(self.cfg.uops_per_entry);
        let set_idx = self.set_index(pw.start);
        if entries > self.cfg.max_entries_per_pw || entries > self.cfg.ways {
            self.stats.bypasses += 1;
            #[cfg(feature = "obs")]
            self.emit(
                EventKind::Bypass,
                set_idx,
                None,
                pw.start,
                pw.uops,
                entries,
                Verdict::TooLarge,
            );
            return InsertOutcome::TooLarge;
        }

        // Overlapping-window upgrade path.
        if let Some(existing) = self.sets[set_idx].find(pw.start).copied() {
            if existing.desc.uops >= pw.uops {
                return InsertOutcome::AlreadyPresent;
            }
            // Upgrade: remove the shorter window, then fall through to a
            // regular insertion of the larger one (which may need to evict).
            let old = self.sets[set_idx].remove_slot(existing.slot);
            self.policy.on_evict(set_idx, &old);
            #[cfg(feature = "obs")]
            self.emit(
                EventKind::Evict,
                set_idx,
                Some(old.slot),
                old.desc.start,
                old.desc.uops,
                u32::from(old.entries),
                Verdict::Upgrade,
            );
        }

        self.sets[set_idx].fill_residents(&mut self.resident_scratch);
        let free = self.sets[set_idx].free_entries();
        if self
            .policy
            .should_bypass(set_idx, pw, entries, free, &self.resident_scratch)
        {
            self.stats.bypasses += 1;
            #[cfg(feature = "obs")]
            self.emit(
                EventKind::Bypass,
                set_idx,
                None,
                pw.start,
                pw.uops,
                entries,
                Verdict::PolicyBypass,
            );
            return InsertOutcome::Bypassed;
        }

        while self.sets[set_idx].free_entries() < entries {
            self.sets[set_idx].fill_residents(&mut self.resident_scratch);
            debug_assert!(
                !self.resident_scratch.is_empty(),
                "no residents but set is full"
            );
            let victim_idx = self
                .policy
                .choose_victim(set_idx, pw, &self.resident_scratch);
            let fallback = self.policy.last_selection_was_fallback();
            if fallback {
                self.stats.fallback_victim_selections += 1;
            } else {
                self.stats.primary_victim_selections += 1;
            }
            let victim = self.resident_scratch[victim_idx];
            let removed = self.sets[set_idx].remove_slot(victim.slot);
            self.policy.on_evict(set_idx, &removed);
            self.stats.evicted_pws += 1;
            self.stats.evicted_entries += u64::from(removed.entries);
            #[cfg(feature = "obs")]
            self.emit(
                EventKind::Evict,
                set_idx,
                Some(removed.slot),
                removed.desc.start,
                removed.desc.uops,
                u32::from(removed.entries),
                if fallback {
                    Verdict::Fallback
                } else {
                    Verdict::Primary
                },
            );
            self.evicted_scratch.push(removed.desc); // audit:allow(hot-path-alloc) — scratch is cleared, never shrunk: warmed capacity absorbs every push
        }
        let meta = self.sets[set_idx].insert(*pw, entries, self.now);
        self.max_pw_bytes = self.max_pw_bytes.max(u64::from(pw.bytes));
        self.policy.on_insert(set_idx, &meta);
        self.stats.insertions += 1;
        self.stats.entries_written += u64::from(entries);
        #[cfg(feature = "obs")]
        self.emit(
            EventKind::Insert,
            set_idx,
            Some(meta.slot),
            pw.start,
            pw.uops,
            entries,
            Verdict::None,
        );
        #[allow(clippy::cast_possible_truncation)]
        InsertOutcome::Inserted {
            evicted: self.evicted_scratch.len() as u32,
        }
    }

    /// Descriptors of the PWs displaced by the most recent [`insert`]
    /// call (replacement evictions only — upgrades and invalidations are
    /// not listed; an insertion that evicted nothing leaves this empty).
    ///
    /// [`insert`]: UopCache::insert
    pub fn last_evicted(&self) -> &[PwDesc] {
        &self.evicted_scratch
    }

    /// Invalidates every resident PW that touches the given i-cache line
    /// (called on L1i evictions when the micro-op cache is inclusive).
    /// Returns the number of PWs invalidated.
    ///
    /// Only the sets that can hold such a PW are scanned. A PW lives in the
    /// set of its start line, and one of `b` bytes starting on the last byte
    /// of a line reaches `k = (b + line_bytes - 2) / line_bytes` lines
    /// further. With `b` the high-water mark of the bytes of every PW ever
    /// made resident, a PW touching line `L` therefore starts in one of the
    /// lines `L-k ..= L` (clipped at line 0), and only their sets are
    /// candidates. When those `k + 1` lines cover every set (or exceed the
    /// stack buffer), the candidates are simply all sets. Generated traces
    /// cut PWs at line ends, so `k` is 1 and two sets are scanned.
    ///
    /// Candidates are visited in ascending set index — the order of a scan
    /// over all sets — even when the candidate lines wrap past set 0. The
    /// policy's `on_invalidate` callbacks and the recorded `Invalidate`
    /// events therefore come out in exactly the order a full scan produces,
    /// which keeps stateful policies and the decision-stream digests
    /// unchanged.
    // audit:hot-path — per-L1i-eviction inclusion path; must stay allocation-free warmed
    pub fn invalidate_line(&mut self, line: LineAddr) -> u32 {
        /// Most candidate sets kept on the stack; a wider span scans all.
        const MAX_CANDIDATES: usize = 16;
        let set_count = self.sets.len();
        let span = (self.max_pw_bytes + self.line_bytes).saturating_sub(2) >> self.set_shift;
        let last = line.base().get() >> self.set_shift;
        let first = last.saturating_sub(span);
        let mut candidates = [0usize; MAX_CANDIDATES];
        let n = match usize::try_from(last - first + 1) {
            Ok(n) if n < set_count && n <= MAX_CANDIDATES => {
                for (c, l) in candidates.iter_mut().zip(first..=last) {
                    *c = self.set_of_line(l);
                }
                // Ascending already, unless the lines wrap past set 0.
                if candidates[0] > candidates[n - 1] {
                    candidates[..n].sort_unstable();
                }
                n
            }
            _ => set_count,
        };
        let scan_all = n == set_count;
        // A window covers `line` iff its byte range overlaps the line's.
        // Comparing against the line's last byte, not its exclusive end,
        // cannot overflow for the top line of the address space.
        let line_start = line.base().get();
        let line_last = line_start + (self.line_bytes - 1);
        let mut invalidated = 0;
        for set_idx in (0..n).map(|i| if scan_all { i } else { candidates[i] }) {
            // At most `ways` (≤ 64) victims per set: a stack buffer keeps
            // the inclusion path allocation-free.
            let mut victims = [0u8; 64];
            let mut hits = 0;
            for m in self.sets[set_idx]
                .residents()
                .filter(|m| m.desc.start.get() <= line_last && m.desc.end().get() > line_start)
            {
                victims[hits] = m.slot;
                hits += 1;
            }
            for &slot in &victims[..hits] {
                let removed = self.sets[set_idx].remove_slot(slot);
                self.policy.on_invalidate(set_idx, &removed);
                self.stats.inclusion_invalidations += 1;
                invalidated += 1;
                #[cfg(feature = "obs")]
                self.emit(
                    EventKind::Invalidate,
                    set_idx,
                    Some(removed.slot),
                    removed.desc.start,
                    removed.desc.uops,
                    u32::from(removed.entries),
                    Verdict::None,
                );
            }
        }
        invalidated
    }

    /// Removes a specific resident window (used by offline decision replay
    /// for late/lazy evictions). Returns `true` if it was resident.
    pub fn evict_start(&mut self, start: Addr) -> bool {
        let set_idx = self.set_index(start);
        match self.sets[set_idx].remove_start(start) {
            Some(meta) => {
                self.policy.on_evict(set_idx, &meta);
                self.stats.evicted_pws += 1;
                self.stats.evicted_entries += u64::from(meta.entries);
                #[cfg(feature = "obs")]
                self.emit(
                    EventKind::Evict,
                    set_idx,
                    Some(meta.slot),
                    meta.desc.start,
                    meta.desc.uops,
                    u32::from(meta.entries),
                    Verdict::None,
                );
                true
            }
            None => false,
        }
    }

    /// Free entries in the set that `start` maps to.
    pub fn free_entries_for(&self, start: Addr) -> u32 {
        self.sets[self.set_index(start)].free_entries()
    }

    /// Set index for `start`, via the shift/mask precomputed at
    /// construction (the per-lookup division in
    /// [`UopCacheConfig::set_index_for`] is measurable on the hot path).
    /// Produces identical indices to that method.
    #[inline]
    fn set_index(&self, start: Addr) -> usize {
        self.set_of_line(start.get() >> self.set_shift)
    }

    /// Set index for the line with index `line` (a byte address shifted
    /// right by `log2(line_bytes)`).
    #[inline]
    fn set_of_line(&self, line: u64) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % u64::from(self.cfg.sets())) as usize,
        }
    }
}

impl std::fmt::Debug for UopCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UopCache")
            .field("cfg", &self.cfg)
            .field("policy", &self.policy.name())
            .field("occupied_entries", &self.occupied_entries())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruPolicy;
    use std::cell::RefCell;
    use std::rc::Rc;
    use uopcache_model::rng::{Prng, Rng};
    use uopcache_model::PwTermination;

    fn pw(start: u64, uops: u32) -> PwDesc {
        PwDesc::new(
            Addr::new(start),
            uops,
            (uops * 3).max(1),
            PwTermination::TakenBranch,
        )
    }

    fn small_cache() -> UopCache {
        // 2 sets x 4 ways = 8 entries, 8 uops/entry, up to 4 entries per PW.
        let cfg = UopCacheConfig {
            entries: 8,
            ways: 4,
            uops_per_entry: 8,
            switch_penalty: 1,
            inclusive_with_l1i: true,
            max_entries_per_pw: 4,
        };
        UopCache::new(cfg, Box::new(LruPolicy::new()))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        let w = pw(0x40, 6);
        assert_eq!(c.lookup(&w), LookupResult::Miss);
        assert!(matches!(c.insert(&w), InsertOutcome::Inserted { .. }));
        assert_eq!(c.lookup(&w), LookupResult::Hit { uops: 6 });
        let s = c.stats();
        assert_eq!(s.pw_misses, 1);
        assert_eq!(s.pw_hits, 1);
        assert_eq!(s.uops_missed, 6);
        assert_eq!(s.uops_hit, 6);
    }

    #[test]
    fn partial_hit_when_stored_window_is_shorter() {
        let mut c = small_cache();
        let short = pw(0x40, 4);
        let long = pw(0x40, 10);
        c.insert(&short);
        assert_eq!(
            c.lookup(&long),
            LookupResult::PartialHit {
                hit_uops: 4,
                miss_uops: 6
            }
        );
        assert_eq!(c.stats().pw_partial_hits, 1);
    }

    #[test]
    fn larger_window_serves_shorter_lookup() {
        let mut c = small_cache();
        c.insert(&pw(0x40, 10));
        assert_eq!(c.lookup(&pw(0x40, 4)), LookupResult::Hit { uops: 4 });
    }

    #[test]
    fn upgrade_keeps_larger_window() {
        let mut c = small_cache();
        c.insert(&pw(0x40, 4));
        assert_eq!(c.resident_uops(Addr::new(0x40)), Some(4));
        assert!(matches!(
            c.insert(&pw(0x40, 12)),
            InsertOutcome::Inserted { .. }
        ));
        assert_eq!(c.resident_uops(Addr::new(0x40)), Some(12));
        // Re-inserting the short window does nothing.
        assert_eq!(c.insert(&pw(0x40, 4)), InsertOutcome::AlreadyPresent);
        assert_eq!(c.resident_uops(Addr::new(0x40)), Some(12));
    }

    #[test]
    fn eviction_frees_enough_entries_for_multi_entry_pw() {
        let mut c = small_cache();
        // Fill one set (addresses in the same set: stride = sets*line = 2*64).
        for i in 0..4 {
            c.insert(&pw(0x40 + i * 128, 8)); // 1 entry each, set 1
        }
        assert_eq!(c.free_entries_for(Addr::new(0x40)), 0);
        // Inserting a 3-entry PW must evict 3 LRU PWs.
        let out = c.insert(&pw(0x40 + 4 * 128, 24));
        match out {
            InsertOutcome::Inserted { evicted } => assert_eq!(evicted, 3),
            other => panic!("expected insertion, got {other:?}"),
        }
        assert_eq!(c.last_evicted().len(), 3);
        // 4 ways: one surviving 1-entry PW + the new 3-entry PW.
        assert_eq!(c.free_entries_for(Addr::new(0x40)), 0);
    }

    #[test]
    fn too_large_pw_is_not_cached() {
        let mut c = small_cache();
        assert_eq!(c.insert(&pw(0x40, 33)), InsertOutcome::TooLarge); // 5 entries > max 4
        assert_eq!(c.stats().bypasses, 1);
    }

    #[test]
    fn invalidate_line_honours_inclusion() {
        let mut c = small_cache();
        let w = pw(0x40, 6); // line 0x40
        c.insert(&w);
        assert_eq!(c.invalidate_line(Addr::new(0x47).line(64)), 1);
        assert_eq!(c.lookup(&w), LookupResult::Miss);
        assert_eq!(c.stats().inclusion_invalidations, 1);
        // Invalidating again is a no-op.
        assert_eq!(c.invalidate_line(Addr::new(0x47).line(64)), 0);
    }

    #[test]
    fn invalidate_hits_multi_line_pws() {
        let mut c = small_cache();
        // Window spanning lines 0x40 and 0x80.
        let w = PwDesc::new(Addr::new(0x70), 6, 0x20, PwTermination::TakenBranch);
        c.insert(&w);
        assert_eq!(c.invalidate_line(Addr::new(0x80).line(64)), 1);
    }

    #[test]
    fn evict_start_supports_offline_replay() {
        let mut c = small_cache();
        c.insert(&pw(0x40, 6));
        assert!(c.evict_start(Addr::new(0x40)));
        assert!(!c.evict_start(Addr::new(0x40)));
    }

    #[test]
    fn classification_splits_cold_capacity_conflict() {
        // 2 sets x 2 ways: tiny cache to force conflicts.
        let cfg = UopCacheConfig {
            entries: 4,
            ways: 2,
            uops_per_entry: 8,
            switch_penalty: 1,
            inclusive_with_l1i: true,
            max_entries_per_pw: 2,
        };
        let mut c = UopCache::new(cfg, Box::new(LruPolicy::new()));
        c.enable_classification();
        // First touches are cold.
        for i in 0..2 {
            let w = pw(0x40 + i * 128, 4);
            c.lookup(&w);
            c.insert(&w);
        }
        assert_eq!(c.stats().cold_miss_uops, 8);
        // Re-access: hits, no new misses.
        for i in 0..2 {
            c.lookup(&pw(0x40 + i * 128, 4));
        }
        assert_eq!(c.stats().uops_missed, 8);
        // Conflict: hammer 3 PWs mapping to one set while the other set is
        // idle — a fully-associative cache of the same size would hold them.
        for round in 0..3 {
            for i in 0..3 {
                let w = pw(0x40 + i * 128, 4);
                c.lookup(&w);
                c.insert(&w);
            }
            let _ = round;
        }
        let s = c.stats();
        assert!(s.conflict_miss_uops > 0, "expected conflict misses: {s:?}");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        let a = pw(0x40, 8);
        let b = pw(0x40 + 128, 8);
        let d = pw(0x40 + 256, 8);
        let e = pw(0x40 + 384, 8);
        for w in [&a, &b, &d, &e] {
            c.lookup(w);
            c.insert(w);
        }
        // Touch `a` so `b` becomes LRU.
        c.lookup(&a);
        let out = c.insert(&pw(0x40 + 512, 8));
        match out {
            InsertOutcome::Inserted { evicted } => assert_eq!(evicted, 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.last_evicted(), &[b]);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn recorder_sees_the_full_decision_stream() {
        use uopcache_obs::{EventKind, RingRecorder, Verdict};
        let mut c = small_cache();
        c.set_recorder(Box::new(RingRecorder::new(64)));
        let w = pw(0x40, 6);
        c.lookup(&w); // miss
        c.insert(&w); // insert
        c.lookup(&w); // hit
        c.insert(&pw(0x40, 33)); // too large -> bypass
        c.invalidate_line(Addr::new(0x40).line(64)); // invalidate
        let events = c.recorder().expect("installed").events();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Miss,
                EventKind::Insert,
                EventKind::Hit,
                EventKind::Bypass,
                EventKind::Invalidate,
            ]
        );
        assert_eq!(events[3].verdict, Verdict::TooLarge);
        assert_eq!(events[1].slot, events[4].slot, "same resident window");
        let taken = c.take_recorder().expect("still installed");
        assert_eq!(taken.offered(), 5);
        assert!(c.recorder().is_none());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn recorder_tags_upgrade_and_replacement_evictions() {
        use uopcache_obs::{EventKind, RingRecorder, Verdict};
        let mut c = small_cache();
        c.set_recorder(Box::new(RingRecorder::new(64)));
        c.insert(&pw(0x40, 4));
        c.insert(&pw(0x40, 12)); // upgrade: evict(upgrade) + insert
        for i in 1..4 {
            c.insert(&pw(0x40 + i * 128, 8)); // fill the set
        }
        c.insert(&pw(0x40 + 4 * 128, 8)); // forces a replacement eviction
        let events = c.recorder().expect("installed").events();
        let upgrades: Vec<_> = events
            .iter()
            .filter(|e| e.verdict == Verdict::Upgrade)
            .collect();
        assert_eq!(upgrades.len(), 1);
        assert_eq!(upgrades[0].kind, EventKind::Evict);
        assert_eq!(upgrades[0].uops, 4, "the shorter window was upgraded away");
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::Evict && e.verdict == Verdict::Primary),
            "LRU victim selection is a primary verdict: {events:?}"
        );
    }

    /// Policy hooks in arrival order: `(hook, set, slot, start)`.
    type CallLog = Rc<RefCell<Vec<(&'static str, usize, u8, u64)>>>;

    /// LRU that logs every hook the cache calls, so two caches can be
    /// compared callback for callback.
    struct LoggingLru {
        inner: LruPolicy,
        log: CallLog,
    }

    impl LoggingLru {
        fn note(&self, hook: &'static str, set: usize, meta: &PwMeta) {
            self.log
                .borrow_mut()
                .push((hook, set, meta.slot, meta.desc.start.get()));
        }
    }

    impl PwReplacementPolicy for LoggingLru {
        fn name(&self) -> &'static str {
            "LoggingLRU"
        }

        fn on_hit(&mut self, set: usize, meta: &PwMeta) {
            self.note("hit", set, meta);
        }

        fn on_insert(&mut self, set: usize, meta: &PwMeta) {
            self.note("insert", set, meta);
        }

        fn on_evict(&mut self, set: usize, meta: &PwMeta) {
            self.note("evict", set, meta);
        }

        fn on_invalidate(&mut self, set: usize, meta: &PwMeta) {
            self.note("invalidate", set, meta);
        }

        fn choose_victim(&mut self, set: usize, incoming: &PwDesc, resident: &[PwMeta]) -> usize {
            self.inner.choose_victim(set, incoming, resident)
        }
    }

    /// The brute-force oracle: scan every set, in set order, for residents
    /// touching `line` — what `invalidate_line` must stay equivalent to.
    fn invalidate_all_sets(c: &mut UopCache, line: LineAddr) -> u32 {
        let mut invalidated = 0;
        for set_idx in 0..c.sets.len() {
            let victims: Vec<u8> = c.sets[set_idx]
                .residents()
                .filter(|m| m.desc.lines(c.line_bytes).any(|l| l == line))
                .map(|m| m.slot)
                .collect();
            for slot in victims {
                let removed = c.sets[set_idx].remove_slot(slot);
                c.policy.on_invalidate(set_idx, &removed);
                c.stats.inclusion_invalidations += 1;
                invalidated += 1;
                #[cfg(feature = "obs")]
                c.emit(
                    EventKind::Invalidate,
                    set_idx,
                    Some(removed.slot),
                    removed.desc.start,
                    removed.desc.uops,
                    u32::from(removed.entries),
                    Verdict::None,
                );
            }
        }
        invalidated
    }

    /// A cache with a logging LRU (and, under `obs`, a ring recorder).
    fn logged_cache(cfg: UopCacheConfig) -> (UopCache, CallLog) {
        let log = CallLog::default();
        let policy = LoggingLru {
            inner: LruPolicy::new(),
            log: Rc::clone(&log),
        };
        #[allow(unused_mut)]
        let mut c = UopCache::new(cfg, Box::new(policy));
        #[cfg(feature = "obs")]
        c.set_recorder(Box::new(uopcache_obs::RingRecorder::new(usize::MAX)));
        (c, log)
    }

    fn residents(c: &UopCache) -> Vec<Vec<PwMeta>> {
        c.sets.iter().map(PwSet::resident_metas).collect()
    }

    /// Drives the candidate-set `invalidate_line` and the all-sets oracle
    /// with one seeded stream of lookups, insertions and invalidations over
    /// lines `0..4*sets` (so low lines, where the candidate range clips at
    /// zero, and lines whose index is a multiple of `sets`, where it wraps,
    /// both recur). PWs start at any byte of a line and span `1..=max_bytes`
    /// bytes, so the widest of them reach the span bound exactly. Asserts
    /// equal return values and stats after every step, equal residents
    /// after every invalidation, and equal policy-callback and event
    /// sequences overall. Returns the PWs invalidated and the most line
    /// boundaries any PW crossed.
    fn differential(cfg: UopCacheConfig, seed: u64, max_bytes: u32) -> (u64, usize) {
        let (mut fast, fast_log) = logged_cache(cfg);
        let (mut oracle, oracle_log) = logged_cache(cfg);
        let mut rng = Prng::seed_from_u64(seed);
        let lines = 4 * u64::from(cfg.sets());
        // Up to two entries past the cap, so `TooLarge` bypasses occur too.
        let max_uops = cfg.uops_per_entry * (cfg.max_entries_per_pw + 2);
        let (mut invalidated, mut crossings) = (0, 0);
        for step in 0..2_000 {
            if rng.gen_bool(0.7) {
                let start = rng.gen_range(0..lines) * 64 + rng.gen_range(0..64u64);
                let pw = PwDesc::new(
                    Addr::new(start),
                    rng.gen_range(1..=max_uops),
                    rng.gen_range(1..=max_bytes),
                    PwTermination::TakenBranch,
                );
                crossings = crossings.max(pw.lines(64).count() - 1);
                assert_eq!(fast.lookup(&pw), oracle.lookup(&pw), "step {step}");
                assert_eq!(fast.insert(&pw), oracle.insert(&pw), "step {step}");
            } else {
                let line = Addr::new(rng.gen_range(0..lines) * 64).line(64);
                let n = fast.invalidate_line(line);
                assert_eq!(n, invalidate_all_sets(&mut oracle, line), "step {step}");
                // Lookups and insertions are deterministic given equal
                // contents, so residents can only diverge here.
                assert_eq!(residents(&fast), residents(&oracle), "step {step}");
                invalidated += u64::from(n);
            }
            assert_eq!(fast.stats(), oracle.stats(), "step {step}");
        }
        assert_eq!(*fast_log.borrow(), *oracle_log.borrow());
        #[cfg(feature = "obs")]
        {
            let events = |c: &UopCache| c.recorder().expect("installed").events();
            assert_eq!(events(&fast), events(&oracle));
        }
        (invalidated, crossings)
    }

    #[test]
    fn candidate_sets_match_all_sets_oracle() {
        let two_sets = UopCacheConfig {
            entries: 8,
            ways: 4,
            uops_per_entry: 8,
            switch_penalty: 1,
            inclusive_with_l1i: true,
            max_entries_per_pw: 4,
        };
        // zen3: 64 sets, mask indexing; zen4: 72 sets, modulo indexing;
        // two sets: any multi-line PW makes `k + 1 >= sets`.
        for cfg in [UopCacheConfig::zen3(), UopCacheConfig::zen4(), two_sets] {
            // Span bounds k = 0, 1, 1, 2 and 3 extra lines.
            for max_bytes in [1, 8, 64, 100, 190] {
                for seed in 0..3 {
                    let (n, crossings) = differential(cfg, seed, max_bytes);
                    assert!(n > 0, "{cfg:?} seed {seed}: no invalidation exercised");
                    assert_eq!(
                        crossings,
                        (max_bytes as usize + 62) / 64,
                        "{cfg:?} seed {seed}: widest span not exercised"
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_scan_wraps_to_set_zero_in_set_order() {
        // zen3: line 63 maps to set 63, line 64 to set 0. A PW starting in
        // line 63 that spills into line 64 and one starting in line 64 both
        // touch line 64; the candidates are sets {63, 0}, visited 0 first.
        let (mut fast, fast_log) = logged_cache(UopCacheConfig::zen3());
        let (mut oracle, oracle_log) = logged_cache(UopCacheConfig::zen3());
        let spill = PwDesc::new(Addr::new(63 * 64 + 60), 4, 8, PwTermination::TakenBranch);
        let own = PwDesc::new(Addr::new(64 * 64), 4, 8, PwTermination::TakenBranch);
        for c in [&mut fast, &mut oracle] {
            c.insert(&spill);
            c.insert(&own);
        }
        let line = Addr::new(64 * 64).line(64);
        assert_eq!(fast.invalidate_line(line), 2);
        assert_eq!(invalidate_all_sets(&mut oracle, line), 2);
        let invalidations = |log: &CallLog| -> Vec<(usize, u64)> {
            log.borrow()
                .iter()
                .filter(|e| e.0 == "invalidate")
                .map(|e| (e.1, e.3))
                .collect()
        };
        assert_eq!(
            invalidations(&fast_log),
            vec![(0, own.start.get()), (63, spill.start.get())]
        );
        assert_eq!(invalidations(&fast_log), invalidations(&oracle_log));
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = small_cache();
        for i in 0..100u64 {
            let w = pw(i * 64, u32::try_from(i % 20 + 1).expect("small"));
            c.lookup(&w);
            c.insert(&w);
            assert!(c.occupied_entries() <= 8);
        }
    }
}
