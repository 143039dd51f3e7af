//! Memoised simulation runs shared by the experiment drivers.

use crate::apps::trace_for;
use crate::policies::{PolicyId, ProfileInputs};
use crate::sweep::{self, config_label};
use std::sync::Arc;
use uopcache_exec::TaskKey;
use uopcache_model::hash::FastHashMap;
use uopcache_model::{FrontendConfig, LookupTrace, SimResult};
use uopcache_sim::{Frontend, SimOptions};
use uopcache_trace::AppId;

/// A lab session: one frontend configuration, cached traces, profiles and
/// runs. Experiment drivers create one `Lab` and query it.
///
/// Methodology note: **online** policies run through the timed frontend
/// simulator (asynchronous insertion, L1i inclusion, switch penalties);
/// **offline** oracles (Belady, FOO, FLACK) are idealized bounds and run
/// through the synchronous placement replay, with a synchronous LRU baseline
/// for their miss-reduction figures — mirroring the paper's use of perfect
/// setups for the offline bound studies.
pub struct Lab {
    /// The frontend configuration under test.
    pub cfg: FrontendConfig,
    /// Trace length per app.
    pub len: usize,
    traces: FastHashMap<(AppId, u32), LookupTrace>,
    profiles: FastHashMap<(AppId, u32), ProfileInputs>,
    online: FastHashMap<(AppId, u32, PolicyId), SimResult>,
    sim_opts: SimOptions,
}

impl Lab {
    /// Creates a lab with an explicit trace length (sensitivity sweeps use
    /// shorter traces to bound runtime).
    pub fn with_len(cfg: FrontendConfig, len: usize) -> Self {
        Lab {
            cfg,
            len,
            traces: FastHashMap::default(),
            profiles: FastHashMap::default(),
            online: FastHashMap::default(),
            sim_opts: SimOptions::default(),
        }
    }

    /// Enables 3C miss classification on subsequent online runs.
    pub fn classify_misses(&mut self, on: bool) {
        self.sim_opts.classify_misses = on;
    }

    /// The (cached) trace for an app and input variant.
    pub fn trace(&mut self, app: AppId, variant: u32) -> &LookupTrace {
        let len = self.len;
        self.traces
            .entry((app, variant))
            .or_insert_with(|| trace_for(app, variant, len))
    }

    /// The (cached) profile inputs for an app/variant (profiled on that same
    /// variant's trace).
    pub fn profiles(&mut self, app: AppId, variant: u32) -> &ProfileInputs {
        if !self.profiles.contains_key(&(app, variant)) {
            let trace = self.trace(app, variant).clone();
            let inputs = ProfileInputs::build(&self.cfg, &trace, &PolicyId::ALL);
            self.profiles.insert((app, variant), inputs);
        }
        &self.profiles[&(app, variant)]
    }

    /// Pre-computes every missing `(app, policy)` online run for input
    /// variant 0 in parallel, through the experiment engine, so subsequent
    /// serial queries hit the memo. Results are bit-identical to the serial
    /// path: each task is a pure function of `(cfg, len, app, policy)`, and
    /// the memo is filled in submission order.
    ///
    /// # Panics
    ///
    /// Panics with the full list of structured task failures if any task
    /// panicked (the experiment cannot render from partial results).
    pub fn prewarm_online(&mut self, policies: &[PolicyId], apps: &[AppId]) {
        let engine = sweep::engine();
        let variant = 0u32;
        let cfg = self.cfg;
        let len = self.len;
        let label = config_label(&cfg);
        let key_for = |app: AppId, stage: &str| {
            TaskKey::new([
                label.as_str(),
                &format!("v{variant}"),
                &format!("len{len}"),
                app.name(),
                stage,
            ])
        };

        // Stage 1: prepare missing traces + profiles, one task per app.
        let missing: Vec<(TaskKey, AppId)> = apps
            .iter()
            .copied()
            .filter(|&a| !self.profiles.contains_key(&(a, variant)))
            .map(|a| (key_for(a, "prepare"), a))
            .collect();
        let prepared = engine
            .run(missing, move |_key, _seed, app| {
                let trace = trace_for(app, variant, len);
                let profiles = ProfileInputs::build(&cfg, &trace, &PolicyId::ALL);
                (app, trace, profiles)
            })
            .expect_all("prewarm preparation");
        for (app, trace, profiles) in prepared {
            self.traces.entry((app, variant)).or_insert(trace);
            self.profiles.insert((app, variant), profiles);
        }

        // Stage 2: one task per missing (app, policy) simulation.
        let mut tasks = Vec::new();
        for &app in apps {
            let shared = Arc::new((
                self.traces[&(app, variant)].clone(),
                self.profiles[&(app, variant)].clone(),
            ));
            for &policy in policies {
                if self.online.contains_key(&(app, variant, policy)) {
                    continue;
                }
                tasks.push((
                    key_for(app, policy.name()),
                    (app, policy, Arc::clone(&shared)),
                ));
            }
        }
        let opts = self.sim_opts;
        let results = engine
            .run(tasks, move |_key, seed, (app, policy, shared)| {
                let (trace, profiles): &(LookupTrace, ProfileInputs) = &shared;
                let policy_box = policy.build(&cfg, profiles, seed);
                let result = Frontend::builder(cfg)
                    .policy(policy_box)
                    .options(opts)
                    .build()
                    .run(trace);
                (app, policy, result)
            })
            .expect_all("prewarm simulation");
        for (app, policy, result) in results {
            self.online.insert((app, variant, policy), result);
        }
    }

    /// Runs (and caches) an online policy through the timed frontend. A
    /// randomized policy ([`PolicyId::Random`]) is seeded from the same task
    /// key the parallel prewarm uses, so cold and prewarmed queries agree
    /// exactly.
    pub fn run_online(&mut self, policy: PolicyId, app: AppId, variant: u32) -> SimResult {
        let key = (app, variant, policy);
        if let Some(r) = self.online.get(&key) {
            return *r;
        }
        self.profiles(app, variant);
        let trace = self.traces[&(app, variant)].clone();
        let profiles = &self.profiles[&(app, variant)];
        let seed = TaskKey::new([
            config_label(&self.cfg).as_str(),
            &format!("v{variant}"),
            &format!("len{}", self.len),
            app.name(),
            policy.name(),
        ])
        .seed();
        let policy_box = policy.build(&self.cfg, profiles, seed);
        let mut frontend = Frontend::builder(self.cfg)
            .policy(policy_box)
            .options(self.sim_opts)
            .build();
        let result = frontend.run(&trace);
        self.online.insert(key, result);
        result
    }

    /// Miss reduction of an online policy vs. the online LRU baseline, in
    /// percent.
    pub fn online_miss_reduction(&mut self, policy: PolicyId, app: AppId) -> f64 {
        let lru = self.run_online(PolicyId::Lru, app, 0);
        let r = self.run_online(policy, app, 0);
        r.uopc.miss_reduction_vs(&lru.uopc)
    }
}

/// Arithmetic mean helper for per-app series.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_are_reused() {
        let mut lab = Lab::with_len(FrontendConfig::zen3(), 2_000);
        let a = lab.run_online(PolicyId::Lru, AppId::Kafka, 0);
        let b = lab.run_online(PolicyId::Lru, AppId::Kafka, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
