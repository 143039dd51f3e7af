//! The sweep workloads: one untraced repetition through the public
//! `run_sweep`, and the traced repetition that recomposes the same sweep
//! from each crate's public functions with a span around every call.
//!
//! The traced composition mirrors `run_sweep` step for step (same task
//! keys, same seeds, same merge order), so its canonical JSON must equal
//! the untraced run's byte for byte; the caller checks that.

use crate::digest::Structural;
use crate::spans::{adopt_parent, current_span, now, open_span, timed};
use std::sync::Arc;
use uopcache_bench::apps::trace_for_scaled;
use uopcache_bench::policies::{PolicyId, ProfileInputs};
use uopcache_bench::sweep::{run_sweep, SampledCell, SweepCell, SweepReport, SweepSpec};
use uopcache_cache::UopCache;
use uopcache_core::{compute_weights, Flack, FurbysPipeline, Profile};
use uopcache_exec::{Engine, SweepOutcome, TaskFailure, TaskKey, TaskProfile, WallClock};
use uopcache_model::{FrontendConfig, LookupTrace, SimResult, UopCacheStats};
use uopcache_offline::{foo, replay};
use uopcache_policies::profile::{hit_rates_from_observations, lru_pw_hit_rates};
use uopcache_policies::run_trace;
use uopcache_sample::{simulate_interval, SampleConfig, SamplePlan};
use uopcache_sim::{Frontend, SimOptions};
use uopcache_trace::AppId;

/// Worker count of every sweep workload.
pub const SWEEP_JOBS: usize = 2;

/// One untraced repetition of a sweep workload.
pub struct SweepRep {
    /// The canonical report (`SweepReport::to_json`).
    pub json: String,
    /// `run_sweep` + `to_json` wall time, ns.
    pub wall: u64,
    /// Preparation time: `run_sweep` wall minus the simulation stage, ns.
    pub setup: u64,
    /// Run time of every simulation-stage task (cell or segment), ns.
    pub task_run: Vec<u64>,
    /// Cells or segments attempted, and how many failed.
    pub units: u64,
    /// Structured failures in the report.
    pub failed: u64,
    /// FURBYS micro-op miss reduction vs LRU, mean over apps (0 if the
    /// sweep lacks either policy).
    pub furbys_miss_red_pct: f64,
    /// Largest reported sampling error bound (0 for full sweeps).
    pub est_error_max: f64,
}

/// Runs `spec` once through the public `run_sweep`, with engine task
/// profiles stamped by a wall clock.
pub fn untraced_rep(spec: &SweepSpec) -> SweepRep {
    let engine = Engine::new(SWEEP_JOBS).with_clock(WallClock::new());
    let t0 = now();
    let report = run_sweep(spec, &engine);
    let t_report = now();
    let json = report.to_json();
    let t1 = now();
    let sim = u64::try_from(report.elapsed.as_nanos()).unwrap_or(u64::MAX);
    let (furbys_miss_red_pct, est_error_max) = simulated_metrics(&report);
    SweepRep {
        json,
        wall: t1 - t0,
        setup: (t_report - t0).saturating_sub(sim),
        task_run: report.profiles.iter().map(TaskProfile::run_ticks).collect(),
        units: report.profiles.len() as u64,
        failed: report.failures.len() as u64,
        furbys_miss_red_pct,
        est_error_max,
    }
}

/// The two simulated end results of a report: FURBYS miss reduction vs LRU
/// (mean over apps with both cells) and the largest `est_error`.
fn simulated_metrics(report: &SweepReport) -> (f64, f64) {
    let find = |app: AppId, policy: &str| {
        report
            .cells
            .iter()
            .find(|c| c.app == app && c.policy == policy)
            .map(|c| c.result.uopc)
    };
    let reductions: Vec<f64> = report
        .spec
        .apps
        .iter()
        .filter_map(|&app| {
            let furbys = find(app, PolicyId::Furbys.name())?;
            let lru = find(app, PolicyId::Lru.name())?;
            Some(furbys.miss_reduction_vs(&lru))
        })
        .collect();
    let mean = if reductions.is_empty() {
        0.0
    } else {
        reductions.iter().sum::<f64>() / reductions.len() as f64
    };
    let est = report
        .cells
        .iter()
        .filter_map(|c| c.sampled.as_ref().map(|s| s.est_error))
        .fold(0.0, f64::max);
    (mean, est)
}

/// Counts and engine timings gathered by one traced sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Frontend runs (cells or interval segments) simulated.
    pub segments: u64,
    /// L1i evictions summed over every simulated frontend run.
    pub l1i_evictions: u64,
    /// Micro-op cache inclusion invalidations, summed likewise.
    pub inclusion_invalidations: u64,
    /// Functional-warmup micro-ops simulated ahead of sampled intervals.
    pub warmup_uops: u64,
    /// Micro-ops simulated in total (warmup + measured).
    pub simulated_uops: u64,
    /// Σ task queue wait over both engine stages, ns.
    pub queue_wait: u64,
    /// Σ task run time over both engine stages, ns.
    pub task_run: u64,
    /// Σ over stages of (workers × stage wall), ns.
    pub worker_wall: u64,
}

impl Counters {
    /// The counts that are pure functions of the inputs.
    pub fn structural(&self) -> Structural {
        let mut s = Structural::default();
        s.push("segments", self.segments);
        s.push("l1i_evictions", self.l1i_evictions);
        s.push("inclusion_invalidations", self.inclusion_invalidations);
        s.push("warmup_uops", self.warmup_uops);
        s.push("simulated_uops", self.simulated_uops);
        s
    }

    fn add_sim(&mut self, r: &SimResult, warmup_uops: u64) {
        self.segments += 1;
        self.l1i_evictions += r.icache.evictions;
        self.inclusion_invalidations += r.uopc.inclusion_invalidations;
        self.warmup_uops += warmup_uops;
        self.simulated_uops += warmup_uops + r.uopc.uops_requested;
    }

    fn add_stage<R>(&mut self, outcome: &SweepOutcome<R>, workers: usize) {
        for p in &outcome.profiles {
            self.queue_wait += p.queue_wait();
            self.task_run += p.run_ticks();
        }
        let wall = u64::try_from(outcome.elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.worker_wall += wall * workers.min(outcome.profiles.len()).max(1) as u64;
    }

    /// Sums another traced sweep's counters into this one.
    pub fn merge(&mut self, o: &Counters) {
        self.segments += o.segments;
        self.l1i_evictions += o.l1i_evictions;
        self.inclusion_invalidations += o.inclusion_invalidations;
        self.warmup_uops += o.warmup_uops;
        self.simulated_uops += o.simulated_uops;
        self.queue_wait += o.queue_wait;
        self.task_run += o.task_run;
        self.worker_wall += o.worker_wall;
    }
}

/// Profiles `train` exactly as `ProfileInputs::build` does, one span per
/// public call: LRU PW hit rates, the FOO solve, the FLACK replay, and the
/// weight grouping.
fn traced_profile_inputs(cfg: &FrontendConfig, train: &LookupTrace) -> ProfileInputs {
    let ucfg = &cfg.uop_cache;
    let lru_rates = timed("policies.lru_rates", || lru_pw_hit_rates(train, *ucfg));
    let flack = Flack::new();
    let solution = timed("offline.foo_solve", || {
        foo::solve(train, ucfg, &flack.foo_config())
    });
    let observed = timed("offline.replay", || {
        replay::replay_observed(train, ucfg, &solution, flack.timing()).1
    });
    let hit_rates = timed("policies.hit_rates", || {
        hit_rates_from_observations(observed)
    });
    let weight_cfg = FurbysPipeline::new(*cfg).weight_cfg;
    let hints = timed("core.weights", || {
        compute_weights(&hit_rates, ucfg, &weight_cfg)
    });
    ProfileInputs {
        lru_rates,
        furbys: Profile { hit_rates, hints },
    }
}

/// The key segment naming the trace length (as the sweep layer spells it).
fn len_segment(spec: &SweepSpec) -> String {
    if spec.scale > 1 {
        format!("len{}x{}", spec.len, spec.scale)
    } else {
        format!("len{}", spec.len)
    }
}

/// The key of one app's preparation task (as the sweep layer spells it).
fn prep_key(spec: &SweepSpec, app: AppId) -> TaskKey {
    TaskKey::new([
        spec.config_name.as_str(),
        &format!("v{}", spec.variant),
        &len_segment(spec),
        app.name(),
        "prepare",
    ])
}

fn parse_policy(name: &str) -> PolicyId {
    name.parse::<PolicyId>().unwrap_or_else(|e| panic!("{e}"))
}

/// Runs `spec` as the traced composition of public calls on a `jobs`-wide
/// engine, returning the canonical report JSON and the gathered counters.
/// `kernel_contrast` additionally runs every full cell through the bare
/// cache kernel (`run_trace`) for the frontend-vs-kernel ratio; its result
/// is discarded. `cells` collects each task's (key seed, key) pair.
pub fn traced_sweep(
    spec: &SweepSpec,
    jobs: usize,
    kernel_contrast: bool,
    cells: &mut Vec<(u64, String)>,
) -> (String, Counters) {
    let engine = Engine::new(jobs).with_clock(WallClock::new());
    let mut counters = Counters::default();
    let report = if let Some(interval) = spec.sample {
        traced_sampled(spec, &engine, interval, &mut counters, cells)
    } else {
        traced_full(spec, &engine, kernel_contrast, &mut counters, cells)
    };
    let json = timed("bench.report_encode", || report.to_json());
    (json, counters)
}

fn register(cells: &mut Vec<(u64, String)>, key: &TaskKey) {
    cells.push((key.seed(), key.to_string()));
}

fn traced_full(
    spec: &SweepSpec,
    engine: &Engine,
    kernel_contrast: bool,
    counters: &mut Counters,
    cells: &mut Vec<(u64, String)>,
) -> SweepReport {
    let cfg = spec.cfg;
    let (variant, len, scale) = (spec.variant, spec.len, spec.scale);
    let prep_tasks: Vec<(TaskKey, AppId)> = spec
        .apps
        .iter()
        .map(|&app| (prep_key(spec, app), app))
        .collect();
    prep_tasks.iter().for_each(|(k, _)| register(cells, k));
    let prepared: Vec<(AppId, Arc<(LookupTrace, ProfileInputs)>)> = {
        let _stage = open_span("exec.prepare_stage");
        let parent = current_span();
        let outcome = engine.run(prep_tasks, move |key, _seed, app| {
            let _adopted = adopt_parent(parent, key.seed());
            let _task = open_span("exec.task");
            let trace = timed("trace.gen", || trace_for_scaled(app, variant, len, scale));
            let profiles = traced_profile_inputs(&cfg, &trace);
            (app, Arc::new((trace, profiles)))
        });
        counters.add_stage(&outcome, engine.jobs());
        outcome.expect_all("sweep preparation")
    };

    let mut sim_tasks = Vec::new();
    for (app, shared) in &prepared {
        for policy in &spec.policies {
            let key = spec.task_key(*app, policy);
            register(cells, &key);
            sim_tasks.push((key, (*app, policy.clone(), Arc::clone(shared))));
        }
    }
    let outcome = {
        let _stage = open_span("exec.simulate_stage");
        let parent = current_span();
        let outcome = engine.run(sim_tasks, move |key, seed, (app, policy, shared)| {
            let _adopted = adopt_parent(parent, key.seed());
            let _task = open_span("exec.task");
            let (trace, profiles): &(LookupTrace, ProfileInputs) = &shared;
            let id = parse_policy(&policy);
            let result = timed("sim.frontend", || {
                Frontend::builder(cfg)
                    .policy(id.build(&cfg, profiles, seed))
                    .options(SimOptions::default())
                    .build()
                    .run(trace)
            });
            if kernel_contrast {
                timed("policies.kernel", || {
                    let mut cache = UopCache::new(cfg.uop_cache, id.build(&cfg, profiles, seed));
                    run_trace(&mut cache, trace)
                });
            }
            (app, policy, result, trace.total_uops())
        });
        counters.add_stage(&outcome, engine.jobs());
        outcome
    };

    let _merge = open_span("bench.merge");
    let elapsed = outcome.elapsed;
    let mut cells_out = Vec::new();
    let mut failures = Vec::new();
    for o in outcome.outcomes {
        match o.result {
            Ok((app, policy, result, trace_uops)) => {
                counters.add_sim(&result, 0);
                cells_out.push(SweepCell {
                    key: o.key,
                    seed: o.seed,
                    app,
                    policy,
                    result,
                    trace_uops,
                    obs: None,
                    sampled: None,
                });
            }
            Err(message) => failures.push(TaskFailure {
                key: o.key,
                seed: o.seed,
                message,
            }),
        }
    }
    finish_report(spec, cells_out, failures, outcome.profiles, elapsed)
}

fn finish_report(
    spec: &SweepSpec,
    mut cells: Vec<SweepCell>,
    mut failures: Vec<TaskFailure>,
    mut profiles: Vec<TaskProfile>,
    elapsed: std::time::Duration,
) -> SweepReport {
    cells.sort_by(|a, b| a.key.cmp(&b.key));
    failures.sort_by(|a, b| a.key.cmp(&b.key));
    profiles.sort_by(|a, b| a.key.cmp(&b.key));
    SweepReport {
        spec: spec.clone(),
        cells,
        failures,
        profiles,
        elapsed,
    }
}

/// One prepared app of a sampled sweep.
struct SampledPrep {
    trace: LookupTrace,
    plan: SamplePlan,
    profiles: ProfileInputs,
}

/// Which cluster member a segment simulates: sample point `Some(j)` or the
/// dispersion probe (`None`).
type Member = Option<usize>;

fn traced_sampled(
    spec: &SweepSpec,
    engine: &Engine,
    interval_uops: u64,
    counters: &mut Counters,
    cells: &mut Vec<(u64, String)>,
) -> SweepReport {
    let cfg = spec.cfg;
    let (variant, len, scale) = (spec.variant, spec.len, spec.scale);
    let prep_tasks: Vec<(TaskKey, AppId)> = spec
        .apps
        .iter()
        .map(|&app| (prep_key(spec, app), app))
        .collect();
    prep_tasks.iter().for_each(|(k, _)| register(cells, k));
    let prepared: Vec<(AppId, Arc<SampledPrep>)> = {
        let _stage = open_span("exec.prepare_stage");
        let parent = current_span();
        let outcome = engine.run(prep_tasks, move |key, seed, app| {
            let _adopted = adopt_parent(parent, key.seed());
            let _task = open_span("exec.task");
            let trace = timed("trace.gen", || trace_for_scaled(app, variant, len, scale));
            let plan = timed("sample.plan", || {
                SamplePlan::build(&trace, &SampleConfig::new(interval_uops, seed))
            });
            let train = timed("sample.train_trace", || plan.representative_trace(&trace));
            let profiles = traced_profile_inputs(&cfg, &train);
            (
                app,
                Arc::new(SampledPrep {
                    trace,
                    plan,
                    profiles,
                }),
            )
        });
        counters.add_stage(&outcome, engine.jobs());
        outcome.expect_all("sampled sweep preparation")
    };

    type SegInput = (String, Arc<SampledPrep>, usize, Member, u64);
    let mut seg_tasks: Vec<(TaskKey, SegInput)> = Vec::new();
    for (app, shared) in &prepared {
        for policy in &spec.policies {
            let cell_key = spec.task_key(*app, policy);
            register(cells, &cell_key);
            let cell_seed = cell_key.seed();
            for (c, cluster) in shared.plan.clusters.iter().enumerate() {
                for j in 0..cluster.points.len() {
                    let input = (policy.clone(), Arc::clone(shared), c, Some(j), cell_seed);
                    seg_tasks.push((cell_key.child(format!("pt{c}.{j}")), input));
                }
                if cluster.probe.is_some() {
                    let input = (policy.clone(), Arc::clone(shared), c, None, cell_seed);
                    seg_tasks.push((cell_key.child(format!("probe{c}")), input));
                }
            }
        }
    }
    let outcome = {
        let _stage = open_span("exec.simulate_stage");
        let parent = current_span();
        let outcome = engine.run(
            seg_tasks,
            move |_key, _seed, (policy, shared, cluster, member, cell_seed): SegInput| {
                let _adopted = adopt_parent(parent, cell_seed);
                let _task = open_span("exec.task");
                let id = parse_policy(&policy);
                let plan = &shared.plan;
                let c = &plan.clusters[cluster];
                let index = match member {
                    Some(j) => c.points[j],
                    None => c.probe.unwrap_or(c.representative),
                };
                let warmup = plan.warmup_range(index);
                let warmup_uops: u64 = shared.trace.accesses()[warmup.clone()]
                    .iter()
                    .map(|a| u64::from(a.pw.uops))
                    .sum();
                let result = timed("sample.interval_sim", || {
                    simulate_interval(
                        &cfg,
                        id.build(&cfg, &shared.profiles, cell_seed),
                        &shared.trace,
                        warmup,
                        plan.intervals[index].range(),
                    )
                });
                (cluster, member, result, warmup_uops)
            },
        );
        counters.add_stage(&outcome, engine.jobs());
        outcome
    };

    let _merge = open_span("bench.reconstruct");
    let elapsed = outcome.elapsed;
    let mut cells_out = Vec::new();
    let mut failures = Vec::new();
    let mut outcomes = outcome.outcomes.into_iter();
    for (app, shared) in &prepared {
        let plan = &shared.plan;
        let per_cell: usize = plan
            .clusters
            .iter()
            .map(|c| c.points.len() + usize::from(c.probe.is_some()))
            .sum();
        for policy in &spec.policies {
            let cell_key = spec.task_key(*app, policy);
            let cell_seed = cell_key.seed();
            let mut points: Vec<Vec<Option<SimResult>>> = plan
                .clusters
                .iter()
                .map(|c| vec![None; c.points.len()])
                .collect();
            let mut probes: Vec<Option<SimResult>> = vec![None; plan.clusters.len()];
            let mut first_error = None;
            for o in outcomes.by_ref().take(per_cell) {
                match o.result {
                    Ok((cluster, member, result, warmup_uops)) => {
                        counters.add_sim(&result, warmup_uops);
                        match member {
                            Some(j) => points[cluster][j] = Some(result),
                            None => probes[cluster] = Some(result),
                        }
                    }
                    Err(message) => {
                        first_error.get_or_insert(message);
                    }
                }
            }
            if let Some(message) = first_error {
                failures.push(TaskFailure {
                    key: cell_key,
                    seed: cell_seed,
                    message,
                });
                continue;
            }
            let points: Vec<Vec<SimResult>> = points
                .into_iter()
                .map(|pts| pts.into_iter().flatten().collect())
                .collect();
            let (result, sampled) = reconstruct(plan, &points, &probes);
            cells_out.push(SweepCell {
                key: cell_key,
                seed: cell_seed,
                app: *app,
                policy: policy.clone(),
                result,
                trace_uops: plan.total_uops,
                obs: None,
                sampled: Some(sampled),
            });
        }
    }
    finish_report(spec, cells_out, failures, outcome.profiles, elapsed)
}

/// Reconstructs the counters a canonical report renders (micro-op split,
/// insertions, bypasses, evictions, cycles, retired instructions) the way
/// the sweep layer does: per-uop extrapolation over each cluster's sample
/// points, summed by cluster micro-ops, with exact micro-op totals.
fn reconstruct(
    plan: &SamplePlan,
    points: &[Vec<SimResult>],
    probes: &[Option<SimResult>],
) -> (SimResult, SampledCell) {
    let est = |get: &dyn Fn(&SimResult) -> u64| -> u64 {
        let mut acc = 0.0f64;
        for (c, pts) in plan.clusters.iter().zip(points) {
            let count: u64 = pts.iter().map(get).sum();
            let denom: u64 = pts.iter().map(|r| r.uopc.uops_requested).sum();
            acc += count as f64 / denom.max(1) as f64 * c.uops as f64;
        }
        acc.max(0.0).round() as u64
    };
    let total = plan.total_uops;
    let uops_hit = est(&|r| r.uopc.uops_hit).min(total);
    let mut result = SimResult {
        uopc: UopCacheStats {
            uops_requested: total,
            uops_hit,
            uops_missed: total - uops_hit,
            insertions: est(&|r| r.uopc.insertions),
            bypasses: est(&|r| r.uopc.bypasses),
            evicted_pws: est(&|r| r.uopc.evicted_pws),
            ..UopCacheStats::default()
        },
        ..SimResult::default()
    };
    result.events.cycles = est(&|r| r.events.cycles);
    result.events.retired_instructions = est(&|r| r.events.retired_instructions);

    let point_rates: Vec<Vec<f64>> = points
        .iter()
        .map(|pts| pts.iter().map(|r| r.uopc.uop_hit_rate()).collect())
        .collect();
    let probe_rates: Vec<Option<f64>> = probes
        .iter()
        .map(|p| p.as_ref().map(|r| r.uopc.uop_hit_rate()))
        .collect();
    let sampled = SampledCell {
        k: plan.k,
        intervals: plan.intervals.len(),
        weights: plan.weights(),
        est_error: plan.error_bound(&point_rates, &probe_rates),
    };
    (result, sampled)
}
