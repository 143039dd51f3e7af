//! The 7-step FURBYS deployment pipeline (paper Fig. 6).
//!
//! 1. collect the execution trace (Intel PT in the paper; the synthetic
//!    generator in `uopcache-trace` here);
//! 2. record the PW lookup sequence (replacement-independent — our
//!    [`uopcache_model::LookupTrace`] *is* that sequence);
//! 3. compute FLACK's near-optimal decisions;
//! 4. replay them through the micro-op cache model at micro-op granularity;
//! 5. collect per-PW hit/miss observations;
//! 6. group hit rates into weight classes with Jenks natural breaks and
//!    inject them as binary hints;
//! 7. deploy: run the online FURBYS policy in the timed frontend simulator.

use crate::flack::Flack;
use crate::furbys::FurbysPolicy;
use crate::hints::HintMap;
use crate::weights::{compute_weights, WeightConfig};
use uopcache_cache::UopCache;
use uopcache_model::hash::FastHashMap;
use uopcache_model::{Addr, FrontendConfig, LookupTrace, SimResult};
use uopcache_offline::BeladyPolicy;
use uopcache_policies::profile::hit_rates_from_observations;
use uopcache_sim::Frontend;

/// Which offline oracle produces the profile (the Fig. 15 study).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum OracleKind {
    /// FLACK (the paper's choice — ~3 % better than the alternatives).
    #[default]
    Flack,
    /// Belady's algorithm.
    Belady,
    /// Raw FOO.
    Foo,
}

impl OracleKind {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            OracleKind::Flack => "FLACK",
            OracleKind::Belady => "Belady",
            OracleKind::Foo => "FOO",
        }
    }
}

/// A computed profile: hit rates and the hints derived from them.
/// `Default` is the empty profile (no hit rates, no hints).
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Per-start micro-op-weighted hit rates under the oracle's decisions.
    pub hit_rates: FastHashMap<Addr, f64>,
    /// The weight groups injected into the binary.
    pub hints: HintMap,
}

/// End-to-end FURBYS pipeline configuration.
///
/// # Examples
///
/// ```
/// use uopcache_core::FurbysPipeline;
/// use uopcache_model::FrontendConfig;
/// use uopcache_trace::{build_trace, AppId, InputVariant};
///
/// let pipeline = FurbysPipeline::new(FrontendConfig::zen3());
/// let train = build_trace(AppId::Kafka, InputVariant::new(0), 6_000);
/// let test = build_trace(AppId::Kafka, InputVariant::new(1), 6_000);
/// let profile = pipeline.profile(&train);
/// // Cross-input deployment (the Fig. 18 scenario).
/// let result = pipeline.deploy_and_run(&profile, &test);
/// assert!(result.uopc.lookups == 6_000);
/// ```
#[derive(Clone, Debug)]
pub struct FurbysPipeline {
    /// Frontend configuration for both profiling geometry and deployment.
    pub frontend_cfg: FrontendConfig,
    /// Weight grouping (bits, per-set).
    pub weight_cfg: WeightConfig,
    /// Bypass margin K.
    pub bypass_k: u8,
    /// Pitfall detector depth.
    pub detector_depth: usize,
    /// Profile source.
    pub oracle: OracleKind,
}

impl FurbysPipeline {
    /// The paper's configuration: FLACK oracle, 3-bit per-set Jenks weights,
    /// K = 1, detector depth 2.
    pub fn new(frontend_cfg: FrontendConfig) -> Self {
        FurbysPipeline {
            frontend_cfg,
            weight_cfg: WeightConfig::default(),
            bypass_k: 1,
            detector_depth: 2,
            oracle: OracleKind::Flack,
        }
    }

    /// Steps 2-6: profiles a training trace into hit rates and hints.
    pub fn profile(&self, trace: &LookupTrace) -> Profile {
        self.profile_merged(std::slice::from_ref(trace))
    }

    /// As [`FurbysPipeline::profile`] over several training traces, merging
    /// the observations (the cross-validation setup of Fig. 18 profiles a
    /// training set of inputs and deploys on held-out ones).
    pub fn profile_merged(&self, traces: &[LookupTrace]) -> Profile {
        let mut all_obs: Vec<(Addr, u32, u32)> = Vec::new();
        for trace in traces {
            all_obs.extend(self.observations(trace));
        }
        let hit_rates = hit_rates_from_observations(all_obs);
        let hints = compute_weights(&hit_rates, &self.frontend_cfg.uop_cache, &self.weight_cfg);
        Profile { hit_rates, hints }
    }

    /// The raw per-access oracle observations (`(start, hit_uops,
    /// total_uops)` in trace order) — the input to both the standard and the
    /// phase-aware ([`crate::PhasedProfile`]) weight computations.
    pub fn oracle_observations(&self, trace: &LookupTrace) -> Vec<(Addr, u32, u32)> {
        self.observations(trace)
    }

    fn observations(&self, trace: &LookupTrace) -> Vec<(Addr, u32, u32)> {
        let cfg = &self.frontend_cfg.uop_cache;
        match self.oracle {
            OracleKind::Flack => {
                let flack = Flack::new();
                let sol = uopcache_offline::foo::solve(trace, cfg, &flack.foo_config());
                uopcache_offline::replay::replay_observed(trace, cfg, &sol, flack.timing()).1
            }
            OracleKind::Foo => {
                let raw_foo = Flack::ablation(false, false, false);
                let sol = uopcache_offline::foo::solve(trace, cfg, &raw_foo.foo_config());
                uopcache_offline::replay::replay_observed(trace, cfg, &sol, raw_foo.timing()).1
            }
            OracleKind::Belady => {
                let mut cache = UopCache::new(*cfg, Box::new(BeladyPolicy::from_trace(trace)));
                uopcache_policies::run_trace_observed(&mut cache, trace).1
            }
        }
    }

    /// Step 7: builds the online policy from a profile.
    pub fn policy(&self, profile: &Profile) -> FurbysPolicy {
        FurbysPolicy::with_params(profile.hints.clone(), self.bypass_k, self.detector_depth)
    }

    /// Step 7, end to end: deploys the profile and runs `trace` through the
    /// timed frontend simulator.
    pub fn deploy_and_run(&self, profile: &Profile, trace: &LookupTrace) -> SimResult {
        let mut frontend = Frontend::builder(self.frontend_cfg)
            .policy(self.policy(profile))
            .build();
        frontend.run(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_cache::LruPolicy;
    use uopcache_trace::{build_trace, AppId, InputVariant};

    fn lru_run(cfg: FrontendConfig, trace: &LookupTrace) -> SimResult {
        Frontend::builder(cfg)
            .policy(LruPolicy::new())
            .build()
            .run(trace)
    }

    #[test]
    fn furbys_beats_lru_on_same_input() {
        let cfg = FrontendConfig::zen3();
        let trace = build_trace(AppId::Kafka, InputVariant(0), 25_000);
        let pipeline = FurbysPipeline::new(cfg);
        let profile = pipeline.profile(&trace);
        let furbys = pipeline.deploy_and_run(&profile, &trace);
        let lru = lru_run(cfg, &trace);
        let reduction = furbys.uopc.miss_reduction_vs(&lru.uopc);
        assert!(
            reduction > 3.0,
            "FURBYS miss reduction only {reduction:.2}%"
        );
    }

    #[test]
    fn cross_input_profile_retains_most_of_the_benefit() {
        let cfg = FrontendConfig::zen3();
        let train = build_trace(AppId::Python, InputVariant(0), 25_000);
        let test = build_trace(AppId::Python, InputVariant(1), 25_000);
        let pipeline = FurbysPipeline::new(cfg);
        let profile = pipeline.profile(&train);
        let cross = pipeline.deploy_and_run(&profile, &test);
        let lru = lru_run(cfg, &test);
        let reduction = cross.uopc.miss_reduction_vs(&lru.uopc);
        assert!(reduction > 0.0, "cross-input reduction {reduction:.2}%");
    }

    #[test]
    fn oracle_choices_all_work() {
        let cfg = FrontendConfig::zen3();
        let trace = build_trace(AppId::Postgres, InputVariant(0), 8_000);
        for oracle in [OracleKind::Flack, OracleKind::Belady, OracleKind::Foo] {
            let mut p = FurbysPipeline::new(cfg);
            p.oracle = oracle;
            let profile = p.profile(&trace);
            assert!(!profile.hints.is_empty(), "{}", oracle.label());
            let r = p.deploy_and_run(&profile, &trace);
            assert_eq!(r.uopc.lookups, 8_000);
        }
    }

    #[test]
    fn merged_profiles_cover_more_code() {
        let cfg = FrontendConfig::zen3();
        let t0 = build_trace(AppId::Tomcat, InputVariant(0), 6_000);
        let t1 = build_trace(AppId::Tomcat, InputVariant(1), 6_000);
        let pipeline = FurbysPipeline::new(cfg);
        let single = pipeline.profile(&t0);
        let merged = pipeline.profile_merged(&[t0.clone(), t1]);
        assert!(merged.hints.len() >= single.hints.len());
    }

    #[test]
    fn coverage_stat_reports_fallback_share() {
        let cfg = FrontendConfig::zen3();
        let trace = build_trace(AppId::Finagle, InputVariant(0), 20_000);
        let pipeline = FurbysPipeline::new(cfg);
        let profile = pipeline.profile(&trace);
        let r = pipeline.deploy_and_run(&profile, &trace);
        let coverage = r.uopc.replacement_coverage();
        // FURBYS should make the large majority of victim selections itself.
        assert!(coverage > 0.5, "coverage {coverage}");
    }
}
