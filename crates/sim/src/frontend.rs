//! The frontend simulation loop.

use std::collections::VecDeque;
use uopcache_cache::{LineCache, LineOutcome, LookupResult, PwReplacementPolicy, UopCache};
use uopcache_model::{Addr, FrontendConfig, PwAccess, PwDesc, SimResult};
#[cfg(feature = "obs")]
use uopcache_obs::Recorder;

/// Exposed L2 latency charged on an L1i miss. Table I's L2 is 16 cycles, but
/// decoupled frontends hide roughly half of it with fetch-ahead (the paper
/// leaves FDIP unmodelled, §VII); we charge the exposed portion.
const L2_LATENCY: u64 = 8;
/// Re-steer penalty on a BTB miss for a taken branch.
const BTB_MISS_PENALTY: u64 = 2;
/// Micro-ops the micro-op cache path can deliver per cycle (8 per entry, one
/// entry per cycle — the paper notes only one PW is released per cycle).
const UOPC_DELIVERY_PER_CYCLE: u64 = 8;
/// Assumed micro-ops per x86 instruction for instruction-count reporting.
const UOPS_PER_INST: f64 = 1.12;
/// Initial capacity of the asynchronous-insertion queue. In-flight
/// insertions are bounded by the insertion latency (a few tens of cycles)
/// times one insertion per access, so this comfortably covers steady state;
/// pathological bursts merely grow the queue once.
const INSERT_QUEUE_CAPACITY: usize = 256;

/// Non-architectural simulation switches.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub struct SimOptions {
    /// Classify micro-op cache misses into cold/capacity/conflict
    /// (adds a fully-associative shadow; slows simulation slightly).
    pub classify_misses: bool,
}

/// Configures and constructs a [`Frontend`].
///
/// Obtained from [`Frontend::builder`]; every knob is optional except the
/// configuration:
///
/// ```
/// use uopcache_cache::LruPolicy;
/// use uopcache_model::FrontendConfig;
/// use uopcache_sim::Frontend;
///
/// let fe = Frontend::builder(FrontendConfig::zen3())
///     .policy(LruPolicy::new())
///     .classify_misses(true)
///     .build();
/// assert_eq!(fe.uop_cache().policy_name(), "LRU");
/// ```
pub struct FrontendBuilder {
    cfg: FrontendConfig,
    policy: Option<Box<dyn PwReplacementPolicy>>,
    opts: SimOptions,
    #[cfg(feature = "obs")]
    recorder: Option<Box<dyn Recorder>>,
}

impl FrontendBuilder {
    fn new(cfg: FrontendConfig) -> Self {
        FrontendBuilder {
            cfg,
            policy: None,
            opts: SimOptions::default(),
            #[cfg(feature = "obs")]
            recorder: None,
        }
    }

    /// Sets the micro-op cache replacement policy (default: LRU). Accepts
    /// both unboxed policies and `Box<dyn PwReplacementPolicy>`.
    #[must_use]
    pub fn policy(mut self, policy: impl PwReplacementPolicy + 'static) -> Self {
        self.policy = Some(Box::new(policy));
        self
    }

    /// Replaces the whole option block.
    #[must_use]
    pub fn options(mut self, opts: SimOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Toggles cold/capacity/conflict miss classification.
    #[must_use]
    pub fn classify_misses(mut self, classify: bool) -> Self {
        self.opts.classify_misses = classify;
        self
    }

    /// Installs an event sink on the micro-op cache; the run loop stamps
    /// each event with the frontend cycle it occurred on.
    #[cfg(feature = "obs")]
    #[must_use]
    pub fn recorder(mut self, recorder: impl Recorder + 'static) -> Self {
        self.recorder = Some(Box::new(recorder));
        self
    }

    /// Constructs the frontend.
    ///
    /// # Panics
    ///
    /// Panics if the cache geometries are inconsistent.
    pub fn build(self) -> Frontend {
        let cfg = self.cfg;
        let policy = self
            .policy
            .unwrap_or_else(|| Box::new(uopcache_cache::LruPolicy::new()));
        let mut uopc =
            UopCache::with_line_bytes(cfg.uop_cache, policy, u64::from(cfg.icache.line_bytes));
        if self.opts.classify_misses {
            uopc.enable_classification();
        }
        #[cfg(feature = "obs")]
        if let Some(recorder) = self.recorder {
            uopc.set_recorder(recorder);
        }
        let l1i = LineCache::new(
            cfg.icache.size_bytes,
            cfg.icache.ways,
            cfg.icache.line_bytes,
        );
        // BTB: tagged at 4-byte granularity.
        let btb = LineCache::with_entries(cfg.bpu.btb_entries, cfg.bpu.btb_ways, 4);
        Frontend {
            cfg,
            uopc,
            l1i,
            btb,
            insert_queue: VecDeque::with_capacity(INSERT_QUEUE_CAPACITY),
            uopc_mode: false,
            cycle: 0,
            backend_debt: 0.0,
        }
    }
}

impl std::fmt::Debug for FrontendBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendBuilder")
            .field("cfg", &self.cfg)
            .field("policy", &self.policy.as_ref().map(|p| p.name()))
            .field("opts", &self.opts)
            .finish()
    }
}

/// The trace-driven frontend simulator.
///
/// Construct via [`Frontend::builder`], then [`run`] a lookup trace. The
/// simulator may be run repeatedly; statistics accumulate on the underlying
/// structures while [`run`] returns per-run deltas.
///
/// [`run`]: Frontend::run
pub struct Frontend {
    cfg: FrontendConfig,
    uopc: UopCache,
    l1i: LineCache,
    btb: LineCache,
    /// Pending asynchronous insertions: (ready_cycle, window), in ready
    /// order (preallocated, so the per-access drain never allocates).
    insert_queue: VecDeque<(u64, PwDesc)>,
    /// Whether the previous window was served by the micro-op cache.
    uopc_mode: bool,
    /// Frontend cycle counter.
    cycle: u64,
    /// Fractional backend-absorption accumulator.
    backend_debt: f64,
}

impl Frontend {
    /// Starts building a frontend for the given configuration.
    pub fn builder(cfg: FrontendConfig) -> FrontendBuilder {
        FrontendBuilder::new(cfg)
    }

    /// The configuration in use.
    pub fn config(&self) -> &FrontendConfig {
        &self.cfg
    }

    /// The micro-op cache (for inspection in tests and experiments).
    pub fn uop_cache(&self) -> &UopCache {
        &self.uopc
    }

    /// The event sink installed via [`FrontendBuilder::recorder`], if any.
    #[cfg(feature = "obs")]
    pub fn recorder(&self) -> Option<&dyn Recorder> {
        self.uopc.recorder()
    }

    /// Removes and returns the installed event sink (to read out events and
    /// metrics after a run).
    #[cfg(feature = "obs")]
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.uopc.take_recorder()
    }

    /// Drives a lookup trace — a [`LookupTrace`] or any slice of accesses,
    /// such as one interval of a longer trace — through the frontend and
    /// returns the statistics of this run. Once built, a frontend runs
    /// without allocating (barring a burst of in-flight insertions beyond
    /// the queue's initial capacity).
    ///
    /// [`LookupTrace`]: uopcache_model::LookupTrace
    pub fn run<T: AsRef<[PwAccess]> + ?Sized>(&mut self, trace: &T) -> SimResult {
        let trace = trace.as_ref();
        let line_bytes = u64::from(self.cfg.icache.line_bytes);
        let line_shift = line_bytes.trailing_zeros();
        let uopc_before = *self.uopc.stats();
        let l1i_before = *self.l1i.stats();
        let btb_before = *self.btb.stats();
        let cycle_before = self.cycle;
        let mut result = SimResult::default();

        for access in trace {
            let pw = access.pw;
            // The window's L1i lines: `line_count` bases from `first_line`,
            // one line apart (the line size is a power of two, so masking
            // the first and last byte addresses gives their line bases).
            let first_line = pw.start.get() & !(line_bytes - 1);
            let last_line = (pw.end().get() - 1) & !(line_bytes - 1);
            let line_count = ((last_line - first_line) >> line_shift) + 1;
            let line_at = |k: u64| Addr::new(first_line + (k << line_shift)).line(line_bytes);
            let mut add: u64 = 0;

            // Stamp this access's events with the frontend cycle.
            #[cfg(feature = "obs")]
            self.uopc.set_cycle(self.cycle);

            // Retire pending asynchronous insertions that are now ready.
            self.drain_insertions();

            // Branch prediction for the branch that produced this window.
            result.events.bp_accesses += 1;
            result.events.btb_accesses += 1;
            if !self.cfg.perfect.btb {
                if let LineOutcome::Miss { .. } = self.btb.access(pw.start.line(4)) {
                    add += BTB_MISS_PENALTY;
                }
            }
            if access.mispredicted && !self.cfg.perfect.branch_predictor {
                result.mispredictions += 1;
                add += u64::from(self.cfg.bpu.mispredict_penalty);
            }

            // Micro-op cache lookup.
            result.events.uopc_lookups += 1;
            let lookup = if self.cfg.perfect.uop_cache {
                LookupResult::Hit { uops: pw.uops }
            } else {
                self.uopc.lookup(&pw)
            };
            let hit_uops = u64::from(lookup.hit_uops());
            let miss_uops = u64::from(lookup.miss_uops(pw.uops));
            result.events.uopc_entry_reads +=
                hit_uops.div_ceil(u64::from(self.cfg.uop_cache.uops_per_entry));

            if miss_uops == 0 {
                // Served entirely by the micro-op cache.
                if !self.uopc_mode {
                    add += u64::from(self.cfg.uop_cache.switch_penalty);
                    self.uopc_mode = true;
                }
                add += hit_uops.div_ceil(UOPC_DELIVERY_PER_CYCLE).max(1);
                // Inclusion keeps the window's lines in L1i; their recency
                // tracks micro-op cache hits (no energy is spent — the L1i
                // array is clock-gated on this path).
                if !self.cfg.perfect.icache && self.cfg.uop_cache.inclusive_with_l1i {
                    for k in 0..line_count {
                        self.l1i.touch(line_at(k));
                    }
                }
            } else {
                // Deliver any partial-hit prefix from the micro-op cache.
                if hit_uops > 0 {
                    add += hit_uops.div_ceil(UOPC_DELIVERY_PER_CYCLE);
                }
                // Switch to the legacy path and refill the decode pipeline.
                if self.uopc_mode {
                    add += u64::from(self.cfg.uop_cache.switch_penalty);
                    self.uopc_mode = false;
                    add += u64::from(self.cfg.decoder.latency);
                }
                // Fetch the window's lines through L1i (a perfect L1i is
                // read but never misses).
                result.events.icache_reads += line_count;
                let fetched = if self.cfg.perfect.icache {
                    0
                } else {
                    line_count
                };
                for k in 0..fetched {
                    match self.l1i.access(line_at(k)) {
                        LineOutcome::Hit => {}
                        LineOutcome::Miss { evicted } => {
                            add += L2_LATENCY;
                            result.events.icache_fills += 1;
                            if let Some(victim) = evicted {
                                if self.cfg.uop_cache.inclusive_with_l1i
                                    && !self.cfg.perfect.uop_cache
                                {
                                    self.uopc.invalidate_line(victim);
                                }
                            }
                        }
                    }
                }
                // Decode the missed micro-ops.
                let decode_cycles = miss_uops.div_ceil(u64::from(self.cfg.decoder.width)).max(1);
                add += decode_cycles;
                result.events.decoded_uops += miss_uops;
                result.events.decoder_active_cycles += decode_cycles;
                // Schedule the asynchronous insertion of the full window.
                if !self.cfg.perfect.uop_cache {
                    let ready = self.cycle + add + u64::from(self.cfg.decoder.latency);
                    self.insert_queue.push_back((ready, pw));
                }
            }

            // The backend absorbs micro-ops at its IPC ceiling; the frontend
            // only dents IPC when it under-supplies.
            self.backend_debt += f64::from(pw.uops) / self.cfg.backend.uop_ipc_ceiling;
            // Debt is non-negative and bounded by one window's worth of
            // micro-ops, so the floored value fits in u64.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let backend_cycles = self.backend_debt.floor() as u64;
            self.backend_debt -= backend_cycles as f64;
            self.cycle += add.max(backend_cycles);

            result.events.retired_uops += u64::from(pw.uops);
        }
        // Flush remaining insertions so repeated runs start clean.
        self.flush_insertions();

        result.uopc = *self.uopc.stats() - uopc_before;
        if self.cfg.perfect.uop_cache {
            // The perfect micro-op cache bypasses the real structure: credit
            // its hits directly.
            let total_uops = trace.iter().map(|a| u64::from(a.pw.uops)).sum();
            result.uopc.lookups = trace.len() as u64;
            result.uopc.pw_hits = trace.len() as u64;
            result.uopc.uops_requested = total_uops;
            result.uopc.uops_hit = total_uops;
        }
        let mut l1i_stats = *self.l1i.stats();
        l1i_stats.accesses -= l1i_before.accesses;
        l1i_stats.hits -= l1i_before.hits;
        l1i_stats.misses -= l1i_before.misses;
        l1i_stats.evictions -= l1i_before.evictions;
        l1i_stats.fills -= l1i_before.fills;
        result.icache = l1i_stats;
        let mut btb_stats = *self.btb.stats();
        btb_stats.accesses -= btb_before.accesses;
        btb_stats.hits -= btb_before.hits;
        btb_stats.misses -= btb_before.misses;
        btb_stats.evictions -= btb_before.evictions;
        btb_stats.fills -= btb_before.fills;
        result.btb = btb_stats;
        result.events.cycles = self.cycle - cycle_before;
        result.events.uopc_entry_writes = result.uopc.entries_written;
        // Retired-uop counts are far below 2^53, so the f64 round-trip and
        // the cast back to u64 are exact.
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        {
            result.events.retired_instructions =
                (result.events.retired_uops as f64 / UOPS_PER_INST).round() as u64;
        }
        result
    }

    fn drain_insertions(&mut self) {
        while let Some(&(ready, pw)) = self.insert_queue.front() {
            if ready > self.cycle {
                break;
            }
            self.insert_queue.pop_front();
            self.uopc.insert(&pw);
        }
    }

    fn flush_insertions(&mut self) {
        while let Some((_, pw)) = self.insert_queue.pop_front() {
            self.uopc.insert(&pw);
        }
    }
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("cfg", &self.cfg)
            .field("cycle", &self.cycle)
            .field("uopc_mode", &self.uopc_mode)
            .field("pending_insertions", &self.insert_queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_cache::LruPolicy;
    use uopcache_model::{LookupTrace, PwTermination};
    use uopcache_trace::{build_trace, AppId, InputVariant};

    fn frontend(cfg: FrontendConfig) -> Frontend {
        Frontend::builder(cfg).policy(LruPolicy::new()).build()
    }

    #[test]
    fn runs_and_accounts() {
        let trace = build_trace(AppId::Kafka, InputVariant(0), 10_000);
        let mut fe = frontend(FrontendConfig::zen3());
        let r = fe.run(&trace);
        assert_eq!(r.uopc.lookups, 10_000);
        assert_eq!(r.uopc.uops_hit + r.uopc.uops_missed, r.uopc.uops_requested);
        assert!(r.events.cycles > 0);
        assert!(r.ipc() > 0.1 && r.ipc() < 6.0, "ipc = {}", r.ipc());
    }

    #[test]
    fn a_slice_runs_like_the_trace_it_was_cut_from() {
        let trace = build_trace(AppId::Kafka, InputVariant(0), 6_000);
        let copied = frontend(FrontendConfig::zen3()).run(&trace.slice(1_000..6_000));
        let in_place = frontend(FrontendConfig::zen3()).run(&trace.accesses()[1_000..6_000]);
        assert_eq!(in_place, copied);
        assert_eq!(in_place.uopc.lookups, 5_000);
    }

    #[test]
    fn perfect_uop_cache_never_misses() {
        let trace = build_trace(AppId::Python, InputVariant(0), 5_000);
        let mut cfg = FrontendConfig::zen3();
        cfg.perfect.uop_cache = true;
        let mut fe = frontend(cfg);
        let r = fe.run(&trace);
        assert_eq!(r.uopc.uops_missed, 0);
        assert_eq!(r.events.decoded_uops, 0);
        assert_eq!(r.events.icache_reads, 0);
    }

    #[test]
    fn perfect_structures_improve_ipc() {
        let trace = build_trace(AppId::Wordpress, InputVariant(0), 20_000);
        let base = frontend(FrontendConfig::zen3()).run(&trace);
        for which in ["uopc", "icache", "btb", "bp"] {
            let mut cfg = FrontendConfig::zen3();
            match which {
                "uopc" => cfg.perfect.uop_cache = true,
                "icache" => cfg.perfect.icache = true,
                "btb" => cfg.perfect.btb = true,
                _ => cfg.perfect.branch_predictor = true,
            }
            let r = frontend(cfg).run(&trace);
            assert!(
                r.ipc() >= base.ipc(),
                "{which}: perfect {} < base {}",
                r.ipc(),
                base.ipc()
            );
        }
    }

    #[test]
    fn asynchronous_insertion_is_delayed() {
        // Two back-to-back lookups of the same window: the second arrives
        // before the insertion from the first miss completes, so it also
        // misses (the asynchrony of §II-B).
        let pw = PwDesc::new(Addr::new(0x1000), 4, 12, PwTermination::TakenBranch);
        let t: LookupTrace = [PwAccess::new(pw), PwAccess::new(pw)].into_iter().collect();
        let mut fe = frontend(FrontendConfig::zen3());
        let r = fe.run(&t);
        assert_eq!(
            r.uopc.pw_misses, 2,
            "second lookup races the in-flight insertion"
        );
    }

    #[test]
    fn spaced_reaccess_hits_after_insertion_completes() {
        let pw = PwDesc::new(Addr::new(0x1000), 4, 12, PwTermination::TakenBranch);
        let filler = PwDesc::new(Addr::new(0x8000), 8, 24, PwTermination::TakenBranch);
        let mut accs = vec![PwAccess::new(pw)];
        for _ in 0..6 {
            accs.push(PwAccess::new(filler));
        }
        accs.push(PwAccess::new(pw));
        let t: LookupTrace = accs.into_iter().collect();
        let mut fe = frontend(FrontendConfig::zen3());
        let r = fe.run(&t);
        assert!(
            r.uopc.pw_hits >= 1,
            "spaced re-access should hit: {:?}",
            r.uopc
        );
    }

    #[test]
    fn inclusion_invalidations_occur_under_icache_pressure() {
        let trace = build_trace(AppId::Clang, InputVariant(0), 60_000);
        let mut fe = frontend(FrontendConfig::zen3());
        let r = fe.run(&trace);
        assert!(
            r.uopc.inclusion_invalidations > 0,
            "L1i evictions must invalidate PWs: {:?}",
            r.uopc
        );
    }

    #[test]
    fn better_policy_means_better_or_equal_ipc() {
        let trace = build_trace(AppId::Postgres, InputVariant(0), 30_000);
        let lru_r = frontend(FrontendConfig::zen3()).run(&trace);
        let mut big = FrontendConfig::zen3();
        big.uop_cache = big.uop_cache.with_entries(4096);
        let big_r = frontend(big).run(&trace);
        assert!(big_r.uopc.uops_missed <= lru_r.uopc.uops_missed);
        assert!(big_r.ipc() >= lru_r.ipc());
    }

    #[test]
    fn misprediction_penalty_costs_cycles() {
        let trace = build_trace(AppId::Wordpress, InputVariant(0), 10_000);
        let base = frontend(FrontendConfig::zen3()).run(&trace);
        let mut cfg = FrontendConfig::zen3();
        cfg.perfect.branch_predictor = true;
        let perfect = frontend(cfg).run(&trace);
        assert!(perfect.events.cycles < base.events.cycles);
        assert_eq!(perfect.mispredictions, 0);
    }

    #[test]
    fn classification_option_populates_3c_breakdown() {
        let trace = build_trace(AppId::Kafka, InputVariant(0), 20_000);
        let mut fe = Frontend::builder(FrontendConfig::zen3())
            .policy(LruPolicy::new())
            .classify_misses(true)
            .build();
        let r = fe.run(&trace);
        let classified =
            r.uopc.cold_miss_uops + r.uopc.capacity_miss_uops + r.uopc.conflict_miss_uops;
        assert_eq!(classified, r.uopc.uops_missed);
        // Data-center shape: capacity misses dominate, cold misses are rare.
        assert!(r.uopc.capacity_miss_uops > r.uopc.cold_miss_uops);
    }
}
