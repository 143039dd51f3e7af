//! The parallel sweep layer: a process-wide worker-count knob, canonical
//! task keying, and a deterministic `(app × policy)` sweep whose merged
//! report renders to canonical JSON.
//!
//! Determinism contract (inherited from `uopcache-exec` and extended here):
//! every task is a pure function of its [`TaskKey`] — config label, input
//! variant, trace length, app and policy — and any randomness comes from the
//! key-derived seed. Reports merge cells in **key order**, never completion
//! order, and [`SweepReport::to_json`] renders fields in a fixed order with
//! derived metrics rounded to six decimals. The JSON is therefore
//! byte-identical for every `--jobs` value.

use crate::apps::trace_for_scaled;
use crate::policies::{PolicyId, ProfileInputs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use uopcache_exec::{Engine, TaskFailure, TaskKey, TaskProfile};
use uopcache_model::json::Json;
use uopcache_model::{
    CacheStats, EventCounts, FrontendConfig, LookupTrace, SimResult, UopCacheStats,
};
use uopcache_obs::{Event, MetricsRecorder, MetricsRegistry, SamplingRecorder};
use uopcache_sample::{simulate_interval, SampleConfig, SamplePlan};
use uopcache_sim::{Frontend, SimOptions};
use uopcache_trace::AppId;

/// The canonical-JSON schema version stamped on every report this crate
/// renders ([`SweepReport::to_json`], the CLI's `inspect`). Bump it whenever
/// a field is added, removed or re-ordered so downstream tooling can detect
/// incompatible output.
pub const SCHEMA_VERSION: u64 = 1;

/// The sampling period of `--metrics` sweeps: each cell retains roughly one
/// event in this many, chosen by the task-key-derived seed (see
/// [`uopcache_obs::SamplingRecorder`]), so the retained subset is a pure
/// function of the task.
pub const SAMPLE_EVERY: u64 = 64;

/// The most lookups one app's trace may hold (`len × scale`): 2^24, about
/// 16.8 M, where the largest in-repo use is 12 000 × 100 = 1.2 M. Larger
/// requests are refused up front ([`SweepSpec::validate`]): allocating such
/// a trace aborts the process, which no `catch_unwind` can recover from.
pub const MAX_TRACE_ACCESSES: u64 = 1 << 24;

/// Checks that a trace of `len × scale` lookups may be built: `scale` is at
/// least 1 and the product, computed without overflow, stays within
/// [`MAX_TRACE_ACCESSES`].
///
/// # Errors
///
/// Returns a message naming the violated bound.
pub fn check_trace_size(len: usize, scale: u64) -> Result<(), String> {
    if scale == 0 {
        return Err("scale must be at least 1".to_string());
    }
    match (len as u64).checked_mul(scale) {
        Some(n) if n <= MAX_TRACE_ACCESSES => Ok(()),
        _ => Err(format!(
            "len {len} x scale {scale} exceeds {MAX_TRACE_ACCESSES} accesses per app"
        )),
    }
}

/// The process-wide worker count. `0` means "not set": fall back to the
/// `UOPCACHE_JOBS` environment variable, then to the machine's available
/// parallelism.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count (the `--jobs N` flag). `1` reproduces
/// the serial path exactly; `0` resets to the default resolution order.
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, Ordering::SeqCst);
}

/// The effective worker count: the value of [`set_jobs`] if set, else
/// `UOPCACHE_JOBS` if set to a positive integer, else the machine's
/// available parallelism.
pub fn current_jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => std::env::var("UOPCACHE_JOBS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(Engine::default_parallelism),
        n => n,
    }
}

/// An engine sized by [`current_jobs`].
pub fn engine() -> Engine {
    Engine::new(current_jobs())
}

/// A short label identifying a frontend configuration in task keys,
/// e.g. `uopc4096x8`.
pub fn config_label(cfg: &FrontendConfig) -> String {
    format!("uopc{}x{}", cfg.uop_cache.entries, cfg.uop_cache.ways)
}

/// Runs keyed tasks through the process-wide engine and unwraps every value
/// in submission order — the drop-in replacement for an experiment driver's
/// serial `for` loop.
///
/// # Panics
///
/// Panics with the full list of structured failures if any task panicked
/// (experiment tables cannot be rendered from partial results).
pub fn par_map<I, R, F>(context: &str, tasks: Vec<(TaskKey, I)>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(&TaskKey, u64, I) -> R + Sync,
{
    engine().run(tasks, f).expect_all(context)
}

/// A task key for one per-app stage of an experiment, e.g.
/// `fig10-offline/kafka`.
pub fn app_key(stage: &str, app: AppId) -> TaskKey {
    TaskKey::new([stage, app.name()])
}

/// One `(app × policy)` sweep request.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// The frontend configuration under test.
    pub cfg: FrontendConfig,
    /// Human name for the configuration (used in task keys), e.g. `zen3`.
    pub config_name: String,
    /// Applications to sweep.
    pub apps: Vec<AppId>,
    /// Policy names to sweep; each must parse as a [`PolicyId`] (an unknown
    /// name becomes a structured per-cell failure, not a sweep abort).
    pub policies: Vec<String>,
    /// Input variant for trace generation.
    pub variant: u32,
    /// Trace length per app.
    pub len: usize,
    /// When set, every cell carries sampled events and a metrics registry
    /// (and the report gains merged totals and per-task profiles). Still
    /// byte-identical for every worker count.
    pub metrics: bool,
    /// Representative-interval sampling: when set, cut each trace into
    /// intervals of this many micro-ops, simulate only cluster
    /// representatives (plus dispersion probes) and reconstruct whole-trace
    /// metrics by cluster weight. Cells gain a `sampled` JSON object with
    /// the cluster count, interval count, weights and the reported error
    /// bound. `--metrics` recorders are not attached in sampled mode.
    pub sample: Option<u64>,
    /// Trace-length multiplier (epochs of phase-structured repetition with
    /// drift). `1` — the default — generates exactly the unscaled trace.
    pub scale: u64,
}

impl SweepSpec {
    /// Checks the spec against the resource ceilings a job is admitted
    /// under: see [`check_trace_size`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated bound.
    pub fn validate(&self) -> Result<(), String> {
        check_trace_size(self.len, self.scale)
    }

    /// The resolved [`PolicyId`] of every policy name that parses, in spec
    /// order. A name that does not parse is skipped here; its cells fail on
    /// their own.
    fn policy_ids(&self) -> Vec<PolicyId> {
        self.policies
            .iter()
            .filter_map(|p| p.parse().ok())
            .collect()
    }

    /// Renders the spec as canonical JSON — the wire form of a serving job.
    ///
    /// Only the fields that name simulation *work* are included (never the
    /// worker count), so the rendering doubles as the spec's identity: two
    /// specs with equal JSON produce byte-identical [`SweepReport`]s.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            vec![
                ("config".to_string(), Json::Str(self.config_name.clone())),
                (
                    "entries".to_string(),
                    Json::U64(u64::from(self.cfg.uop_cache.entries)),
                ),
                (
                    "ways".to_string(),
                    Json::U64(u64::from(self.cfg.uop_cache.ways)),
                ),
                (
                    "apps".to_string(),
                    Json::Arr(
                        self.apps
                            .iter()
                            .map(|a| Json::Str(a.name().to_string()))
                            .collect(),
                    ),
                ),
                (
                    "policies".to_string(),
                    Json::Arr(self.policies.iter().map(|p| Json::Str(p.clone())).collect()),
                ),
                ("variant".to_string(), Json::U64(u64::from(self.variant))),
                ("len".to_string(), Json::U64(self.len as u64)),
                ("metrics".to_string(), Json::Bool(self.metrics)),
            ]
            .into_iter()
            // Default-valued sampling fields are omitted so pre-sampling wire
            // forms (and their job ids) are byte-identical to before.
            .chain((self.scale > 1).then(|| ("scale".to_string(), Json::U64(self.scale))))
            .chain(self.sample.map(|s| ("sample".to_string(), Json::U64(s))))
            .collect(),
        )
    }

    /// Reconstructs a spec from the wire form produced by
    /// [`to_json`](Self::to_json) — the job → sweep-cell mapping the serving
    /// layer uses. `config` must name a known base configuration (`zen3` or
    /// `zen4`); `entries`/`ways` default to that base when absent; `apps`
    /// must name Table II applications; `policies` are resolved against the
    /// full roster (case-insensitively) to their canonical names, so a
    /// served job keys its tasks exactly like the offline `sweep` CLI. The
    /// result must pass [`validate`](Self::validate).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or unresolvable field.
    pub fn from_json(j: &Json) -> Result<SweepSpec, String> {
        let text = |field: &str| -> Result<String, String> {
            j.field(field)
                .map_err(|e| e.to_string())?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field {field:?} must be a string"))
        };
        let config_name = text("config")?;
        let mut cfg = match config_name.as_str() {
            "zen3" => FrontendConfig::zen3(),
            "zen4" => FrontendConfig::zen4(),
            other => return Err(format!("unknown config {other:?} (zen3 or zen4)")),
        };
        let geometry = |field: &str, default: u32| -> Result<u32, String> {
            match j.field(field) {
                Err(_) => Ok(default),
                Ok(v) => u32::try_from(
                    v.as_u64()
                        .ok_or_else(|| format!("field {field:?} must be an unsigned integer"))?,
                )
                .map_err(|_| format!("field {field:?} out of range")),
            }
        };
        cfg.uop_cache = cfg
            .uop_cache
            .with_entries(geometry("entries", cfg.uop_cache.entries)?)
            .with_ways(geometry("ways", cfg.uop_cache.ways)?);
        cfg.uop_cache.validate().map_err(|e| e.to_string())?;
        let names = |field: &str| -> Result<Vec<String>, String> {
            j.field(field)
                .map_err(|e| e.to_string())?
                .as_arr()
                .ok_or_else(|| format!("field {field:?} must be an array"))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("field {field:?} must hold strings"))
                })
                .collect()
        };
        let apps = names("apps")?
            .iter()
            .map(|name| {
                AppId::ALL
                    .into_iter()
                    .find(|a| a.name() == name)
                    .ok_or_else(|| format!("unknown app {name:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if apps.is_empty() {
            return Err("field \"apps\" must not be empty".to_string());
        }
        let registry = crate::policies::PolicyRegistry::all();
        let policies = names("policies")?
            .iter()
            .map(|p| registry.resolve(p).map(|id| id.name().to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        if policies.is_empty() {
            return Err("field \"policies\" must not be empty".to_string());
        }
        let uint = |field: &str, default: u64| -> Result<u64, String> {
            match j.field(field) {
                Err(_) => Ok(default),
                Ok(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("field {field:?} must be an unsigned integer")),
            }
        };
        let variant = u32::try_from(uint("variant", 0)?)
            .map_err(|_| "field \"variant\" out of range".to_string())?;
        let len = usize::try_from(uint("len", 100_000)?)
            .map_err(|_| "field \"len\" out of range".to_string())?;
        let metrics = match j.field("metrics") {
            Err(_) => false,
            Ok(v) => v
                .as_bool()
                .ok_or_else(|| "field \"metrics\" must be a bool".to_string())?,
        };
        let scale = uint("scale", 1)?;
        let sample = match j.field("sample") {
            Err(_) => None,
            Ok(v) => {
                let s = v
                    .as_u64()
                    .ok_or_else(|| "field \"sample\" must be an unsigned integer".to_string())?;
                if s == 0 {
                    return Err("field \"sample\" must be a positive interval size".to_string());
                }
                Some(s)
            }
        };
        let spec = SweepSpec {
            cfg,
            config_name,
            apps,
            policies,
            variant,
            len,
            metrics,
            sample,
            scale,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The key segment naming the trace length, e.g. `len100000` — or
    /// `len100000x100` for a scaled trace, so scaled sweeps never collide
    /// with (or perturb the seeds of) existing unscaled ones.
    fn len_segment(&self) -> String {
        if self.scale > 1 {
            format!("len{}x{}", self.len, self.scale)
        } else {
            format!("len{}", self.len)
        }
    }

    /// The key naming one `(app, policy)` simulation task of this sweep.
    pub fn task_key(&self, app: AppId, policy: &str) -> TaskKey {
        TaskKey::new([
            self.config_name.as_str(),
            &format!("v{}", self.variant),
            &self.len_segment(),
            app.name(),
            policy,
        ])
    }

    /// The key naming the trace + profile preparation task for one app.
    fn prep_key(&self, app: AppId) -> TaskKey {
        TaskKey::new([
            self.config_name.as_str(),
            &format!("v{}", self.variant),
            &self.len_segment(),
            app.name(),
            "prepare",
        ])
    }
}

/// Sampled observability captured for one cell when [`SweepSpec::metrics`]
/// is on.
#[derive(Clone, Debug)]
pub struct CellObs {
    /// The retained (1-in-[`SAMPLE_EVERY`]) event subset, oldest first.
    pub events: Vec<Event>,
    /// The metrics the cell's [`MetricsRecorder`] derived from the *full*
    /// event stream (sampling only thins the retained events).
    pub metrics: MetricsRegistry,
}

/// How a sampled cell was reconstructed: the clustering shape, the
/// reconstruction weights, and the reported error bound on the hit rate.
#[derive(Clone, Debug)]
pub struct SampledCell {
    /// Number of clusters (and therefore simulated representatives).
    pub k: usize,
    /// Number of fixed-uop intervals the trace was cut into.
    pub intervals: usize,
    /// Per-cluster reconstruction weights (micro-op shares; sum to 1).
    pub weights: Vec<f64>,
    /// Reported bound on `|sampled hit rate − full-simulation hit rate|`,
    /// from representative↔probe dispersion plus a fixed floor.
    pub est_error: f64,
}

/// One merged sweep cell: the stats of one `(app, policy)` run.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// The task key (`config/variant/len/app/policy`).
    pub key: TaskKey,
    /// The seed the task ran with (derived from the key).
    pub seed: u64,
    /// The application.
    pub app: AppId,
    /// The policy name.
    pub policy: String,
    /// The full simulation result (in sampled mode: the weighted
    /// reconstruction).
    pub result: SimResult,
    /// Micro-ops in the cell's input trace (the denominator reconstruction
    /// weights are validated against).
    pub trace_uops: u64,
    /// Sampled events and metrics, present only on `--metrics` sweeps.
    pub obs: Option<CellObs>,
    /// Reconstruction metadata, present only on `--sample` sweeps.
    pub sampled: Option<SampledCell>,
}

impl SweepCell {
    /// Micro-op hit rate, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        self.result.uopc.uop_hit_rate()
    }

    /// Micro-op cache misses per thousand retired instructions.
    pub fn mpki(&self) -> f64 {
        let kilo_insns = self.result.events.retired_instructions as f64 / 1000.0;
        if kilo_insns > 0.0 {
            self.result.uopc.uops_missed as f64 / kilo_insns
        } else {
            0.0
        }
    }
}

/// The merged outcome of [`run_sweep`]: cells sorted by task key, failures
/// sorted by task key, and the batch wall-clock time.
#[derive(Debug)]
pub struct SweepReport {
    /// The sweep request.
    pub spec: SweepSpec,
    /// One cell per completed `(app, policy)` task, in key order.
    pub cells: Vec<SweepCell>,
    /// Structured failures of panicked tasks, in key order.
    pub failures: Vec<TaskFailure>,
    /// Per-task execution profiles of the simulation stage, in key order.
    /// Rendered to JSON only on `--metrics` sweeps, and only through the
    /// scheduling-independent fields (queue wait and run ticks — all zero
    /// under the engine's default null clock).
    pub profiles: Vec<TaskProfile>,
    /// Wall-clock time of the simulation stage.
    pub elapsed: Duration,
}

impl SweepReport {
    /// Renders the report as canonical JSON: fixed field order, cells and
    /// failures sorted by task key, derived metrics rounded to six decimals.
    /// Byte-identical for every worker count — this string is what the
    /// differential and golden tests compare.
    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut fields = vec![
                    ("key".to_string(), Json::Str(c.key.to_string())),
                    ("seed".to_string(), Json::U64(c.seed)),
                    ("app".to_string(), Json::Str(c.app.name().to_string())),
                    ("policy".to_string(), Json::Str(c.policy.clone())),
                    (
                        "uops_requested".to_string(),
                        Json::U64(c.result.uopc.uops_requested),
                    ),
                    ("uops_hit".to_string(), Json::U64(c.result.uopc.uops_hit)),
                    (
                        "uops_missed".to_string(),
                        Json::U64(c.result.uopc.uops_missed),
                    ),
                    (
                        "insertions".to_string(),
                        Json::U64(c.result.uopc.insertions),
                    ),
                    ("bypasses".to_string(), Json::U64(c.result.uopc.bypasses)),
                    (
                        "evictions".to_string(),
                        Json::U64(c.result.uopc.evicted_pws),
                    ),
                    ("cycles".to_string(), Json::U64(c.result.events.cycles)),
                    (
                        "retired_instructions".to_string(),
                        Json::U64(c.result.events.retired_instructions),
                    ),
                    ("trace_uops".to_string(), Json::U64(c.trace_uops)),
                    ("hit_rate".to_string(), Json::F64(round6(c.hit_rate()))),
                    ("mpki".to_string(), Json::F64(round6(c.mpki()))),
                    ("ipc".to_string(), Json::F64(round6(c.result.ipc()))),
                ];
                if let Some(s) = &c.sampled {
                    fields.push((
                        "sampled".to_string(),
                        Json::Obj(vec![
                            ("k".to_string(), Json::U64(s.k as u64)),
                            ("intervals".to_string(), Json::U64(s.intervals as u64)),
                            (
                                "weights".to_string(),
                                Json::Arr(
                                    s.weights.iter().map(|&w| Json::F64(round6(w))).collect(),
                                ),
                            ),
                            ("est_error".to_string(), Json::F64(round6(s.est_error))),
                        ]),
                    ));
                }
                if let Some(obs) = &c.obs {
                    fields.push((
                        "events".to_string(),
                        Json::Arr(obs.events.iter().map(Event::to_json).collect()),
                    ));
                    fields.push(("metrics".to_string(), obs.metrics.to_json()));
                }
                Json::Obj(fields)
            })
            .collect();
        let failures = self
            .failures
            .iter()
            .map(|f| {
                Json::Obj(vec![
                    ("key".to_string(), Json::Str(f.key.to_string())),
                    ("seed".to_string(), Json::U64(f.seed)),
                    ("message".to_string(), Json::Str(f.message.clone())),
                ])
            })
            .collect();
        let mut fields = vec![
            ("schema_version".to_string(), Json::U64(SCHEMA_VERSION)),
            (
                "config".to_string(),
                Json::Str(self.spec.config_name.clone()),
            ),
            (
                "entries".to_string(),
                Json::U64(u64::from(self.spec.cfg.uop_cache.entries)),
            ),
            (
                "ways".to_string(),
                Json::U64(u64::from(self.spec.cfg.uop_cache.ways)),
            ),
            (
                "variant".to_string(),
                Json::U64(u64::from(self.spec.variant)),
            ),
            ("len".to_string(), Json::U64(self.spec.len as u64)),
        ];
        if self.spec.scale > 1 {
            fields.push(("scale".to_string(), Json::U64(self.spec.scale)));
        }
        if let Some(s) = self.spec.sample {
            fields.push(("sample".to_string(), Json::U64(s)));
        }
        fields.push(("cells".to_string(), Json::Arr(cells)));
        fields.push(("failures".to_string(), Json::Arr(failures)));
        if self.spec.metrics {
            let mut totals = MetricsRegistry::new();
            for c in &self.cells {
                if let Some(obs) = &c.obs {
                    totals.merge(&obs.metrics);
                }
            }
            fields.push(("totals".to_string(), totals.to_json()));
            let profiles = self
                .profiles
                .iter()
                .map(|p| {
                    Json::Obj(vec![
                        ("key".to_string(), Json::Str(p.key.to_string())),
                        ("seed".to_string(), Json::U64(p.seed)),
                        ("queue_wait".to_string(), Json::U64(p.queue_wait())),
                        ("run".to_string(), Json::U64(p.run_ticks())),
                    ])
                })
                .collect();
            fields.push(("profiles".to_string(), Json::Arr(profiles)));
        }
        Json::Obj(fields).to_string()
    }
}

/// Rounds to six decimals so canonical JSON stays readable while remaining a
/// pure function of the (deterministic) metric value.
fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Runs an `(app × policy)` sweep through `engine`, in two stages:
///
/// 1. one task per app prepares the trace and the profile inputs the
///    spec's policies read (pure functions of `(app, variant, len, scale,
///    cfg)` and the policy list), walking the app's shared static program;
/// 2. one task per `(app, policy)` runs the timed frontend, seeding any
///    randomized policy from the task key.
///
/// Panics in stage 2 become structured [`SweepReport::failures`]; sibling
/// cells are unaffected.
///
/// # Panics
///
/// Panics only if a *preparation* task fails (no cell of that app could be
/// simulated).
pub fn run_sweep(spec: &SweepSpec, engine: &Engine) -> SweepReport {
    if let Some(interval_uops) = spec.sample {
        return run_sampled_sweep(spec, engine, interval_uops);
    }
    let cfg = spec.cfg;
    let variant = spec.variant;
    let len = spec.len;
    let scale = spec.scale;
    let ids = spec.policy_ids();

    let prep_tasks: Vec<(TaskKey, AppId)> = spec
        .apps
        .iter()
        .map(|&app| (spec.prep_key(app), app))
        .collect();
    let prepared: Vec<(AppId, Arc<(LookupTrace, ProfileInputs)>)> = engine
        .run(prep_tasks, |_key, _seed, app| {
            let trace = trace_for_scaled(app, variant, len, scale);
            let profiles = ProfileInputs::build(&cfg, &trace, &ids);
            (app, Arc::new((trace, profiles)))
        })
        .expect_all("sweep preparation");

    let mut sim_tasks = Vec::new();
    for (app, shared) in &prepared {
        for policy in &spec.policies {
            sim_tasks.push((
                spec.task_key(*app, policy),
                (*app, policy.clone(), Arc::clone(shared)),
            ));
        }
    }
    let metrics = spec.metrics;
    let outcome = engine.run(sim_tasks, move |_key, seed, (app, policy, shared)| {
        let (trace, profiles): &(LookupTrace, ProfileInputs) = &shared;
        let id = policy.parse::<PolicyId>().unwrap_or_else(|e| panic!("{e}"));
        let mut builder = Frontend::builder(cfg)
            .policy(id.build(&cfg, profiles, seed))
            .options(SimOptions::default());
        if metrics {
            builder = builder.recorder(MetricsRecorder::new(Box::new(SamplingRecorder::new(
                seed,
                SAMPLE_EVERY,
            ))));
        }
        let mut frontend = builder.build();
        let result = frontend.run(trace);
        let obs = frontend.take_recorder().map(|r| CellObs {
            events: r.events(),
            metrics: r.metrics().cloned().unwrap_or_default(),
        });
        (app, policy, result, trace.total_uops(), obs)
    });
    let elapsed = outcome.elapsed;

    let mut cells = Vec::new();
    let mut failures = Vec::new();
    for o in outcome.outcomes {
        match o.result {
            Ok((app, policy, result, trace_uops, obs)) => cells.push(SweepCell {
                key: o.key,
                seed: o.seed,
                app,
                policy,
                result,
                trace_uops,
                obs,
                sampled: None,
            }),
            Err(_) => {
                if let Some(f) = o.failure() {
                    failures.push(f);
                }
            }
        }
    }
    // Merge by key, never by completion or submission order.
    cells.sort_by(|a, b| a.key.cmp(&b.key));
    failures.sort_by(|a, b| a.key.cmp(&b.key));
    let mut profiles = outcome.profiles;
    profiles.sort_by(|a, b| a.key.cmp(&b.key));

    SweepReport {
        spec: spec.clone(),
        cells,
        failures,
        profiles,
        elapsed,
    }
}

/// One prepared app of a sampled sweep: the (possibly scaled) trace, its
/// sampling plan, and profile inputs trained on the representative subset.
struct SampledPrep {
    trace: LookupTrace,
    plan: SamplePlan,
    profiles: ProfileInputs,
}

/// Which cluster member a sampled segment task simulates.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Segment {
    /// The j-th stratified sample point; its result feeds the cluster's
    /// reconstructed average.
    Point(usize),
    /// The farthest member of a single-point cluster; its disagreement with
    /// the point feeds the reported error bound.
    Probe,
}

/// The sampled variant of [`run_sweep`]: per app, slice + fingerprint +
/// cluster the trace once (stage 1), then simulate one task per
/// `(app, policy, cluster segment)` (stage 2) and reconstruct each cell
/// from its representatives by cluster weight.
///
/// Keys: segment tasks are children of the cell key (`…/LRU/rep0`,
/// `…/LRU/probe0`), and any randomized policy is seeded from the **cell**
/// key — so the cell is a pure function of the sweep request, and the
/// merged report is byte-identical at any worker count.
fn run_sampled_sweep(spec: &SweepSpec, engine: &Engine, interval_uops: u64) -> SweepReport {
    let cfg = spec.cfg;
    let variant = spec.variant;
    let len = spec.len;
    let scale = spec.scale;
    let ids = spec.policy_ids();

    let prep_tasks: Vec<(TaskKey, AppId)> = spec
        .apps
        .iter()
        .map(|&app| (spec.prep_key(app), app))
        .collect();
    let prepared: Vec<(AppId, Arc<SampledPrep>)> = engine
        .run(prep_tasks, |_key, seed, app| {
            let trace = trace_for_scaled(app, variant, len, scale);
            let plan = SamplePlan::build(&trace, &SampleConfig::new(interval_uops, seed));
            // Profile-guided policies train on the representative subset,
            // keeping sampled preparation O(k · interval) instead of
            // O(trace) — the whole point at scale 100.
            let train = plan.representative_trace(&trace);
            let profiles = ProfileInputs::build(&cfg, &train, &ids);
            (
                app,
                Arc::new(SampledPrep {
                    trace,
                    plan,
                    profiles,
                }),
            )
        })
        .expect_all("sampled sweep preparation");

    type SegInput = (String, Arc<SampledPrep>, usize, Segment, u64);
    let mut seg_tasks: Vec<(TaskKey, SegInput)> = Vec::new();
    for (app, shared) in &prepared {
        for policy in &spec.policies {
            let cell_key = spec.task_key(*app, policy);
            let cell_seed = cell_key.seed();
            for (c, cluster) in shared.plan.clusters.iter().enumerate() {
                for j in 0..cluster.points.len() {
                    seg_tasks.push((
                        cell_key.child(format!("pt{c}.{j}")),
                        (
                            policy.clone(),
                            Arc::clone(shared),
                            c,
                            Segment::Point(j),
                            cell_seed,
                        ),
                    ));
                }
                if cluster.probe.is_some() {
                    seg_tasks.push((
                        cell_key.child(format!("probe{c}")),
                        (
                            policy.clone(),
                            Arc::clone(shared),
                            c,
                            Segment::Probe,
                            cell_seed,
                        ),
                    ));
                }
            }
        }
    }

    let outcome = engine.run(
        seg_tasks,
        move |_key, _seed, (policy, shared, cluster, segment, cell_seed): SegInput| {
            let id = policy.parse::<PolicyId>().unwrap_or_else(|e| panic!("{e}"));
            let plan = &shared.plan;
            let member = match segment {
                Segment::Point(j) => plan.clusters[cluster].points[j],
                Segment::Probe => plan.clusters[cluster]
                    .probe
                    .unwrap_or(plan.clusters[cluster].representative),
            };
            let result = simulate_interval(
                &cfg,
                id.build(&cfg, &shared.profiles, cell_seed),
                &shared.trace,
                plan.warmup_range(member),
                plan.intervals[member].range(),
            );
            (cluster, segment, result)
        },
    );
    let elapsed = outcome.elapsed;

    // Merge: drain segment outcomes cell by cell, in the same nested order
    // they were submitted (the engine returns outcomes in submission order).
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    let mut outcomes = outcome.outcomes.into_iter();
    for (app, shared) in &prepared {
        let plan = &shared.plan;
        let segments_per_cell: usize = plan
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
            let mut first_error: Option<String> = None;
            for _ in 0..segments_per_cell {
                let o = outcomes.next().expect("one outcome per submitted segment");
                match o.result {
                    Ok((cluster, Segment::Point(j), result)) => {
                        points[cluster][j] = Some(result);
                    }
                    Ok((cluster, Segment::Probe, result)) => probes[cluster] = Some(result),
                    Err(message) => {
                        if first_error.is_none() {
                            first_error = Some(message);
                        }
                    }
                }
            }
            if let Some(message) = first_error {
                // One structured failure per *cell* (not per segment), keyed
                // like a full-sweep cell so downstream tooling needs no
                // special casing.
                failures.push(TaskFailure {
                    key: cell_key,
                    seed: cell_seed,
                    message,
                });
                continue;
            }
            let points: Vec<Vec<SimResult>> = points
                .into_iter()
                .map(|pts| {
                    pts.into_iter()
                        .map(|r| r.expect("every sample point was submitted"))
                        .collect()
                })
                .collect();
            let (result, sampled) = reconstruct_cell(plan, &points, &probes);
            cells.push(SweepCell {
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
    cells.sort_by(|a, b| a.key.cmp(&b.key));
    failures.sort_by(|a, b| a.key.cmp(&b.key));
    let mut profiles = outcome.profiles;
    profiles.sort_by(|a, b| a.key.cmp(&b.key));

    SweepReport {
        spec: spec.clone(),
        cells,
        failures,
        profiles,
        elapsed,
    }
}

/// Reconstructs a whole-trace [`SimResult`] from per-point results: every
/// counter extrapolates per-uop (`Σ count / Σ uops_measured` over the
/// cluster's sample points, `× cluster uops`, summed over clusters),
/// micro-op totals are forced consistent with the exactly-known trace size,
/// and the error bound comes from weighted within-cluster hit-rate
/// dispersion.
fn reconstruct_cell(
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
        round_count(acc)
    };

    let total = plan.total_uops;
    let uops_hit = est(&|r| r.uopc.uops_hit).min(total);
    let result = SimResult {
        uopc: UopCacheStats {
            lookups: est(&|r| r.uopc.lookups),
            pw_hits: est(&|r| r.uopc.pw_hits),
            pw_partial_hits: est(&|r| r.uopc.pw_partial_hits),
            pw_misses: est(&|r| r.uopc.pw_misses),
            uops_requested: total,
            uops_hit,
            uops_missed: total - uops_hit,
            insertions: est(&|r| r.uopc.insertions),
            entries_written: est(&|r| r.uopc.entries_written),
            bypasses: est(&|r| r.uopc.bypasses),
            evicted_pws: est(&|r| r.uopc.evicted_pws),
            evicted_entries: est(&|r| r.uopc.evicted_entries),
            inclusion_invalidations: est(&|r| r.uopc.inclusion_invalidations),
            cold_miss_uops: est(&|r| r.uopc.cold_miss_uops),
            capacity_miss_uops: est(&|r| r.uopc.capacity_miss_uops),
            conflict_miss_uops: est(&|r| r.uopc.conflict_miss_uops),
            primary_victim_selections: est(&|r| r.uopc.primary_victim_selections),
            fallback_victim_selections: est(&|r| r.uopc.fallback_victim_selections),
        },
        icache: CacheStats {
            accesses: est(&|r| r.icache.accesses),
            hits: est(&|r| r.icache.hits),
            misses: est(&|r| r.icache.misses),
            evictions: est(&|r| r.icache.evictions),
            fills: est(&|r| r.icache.fills),
        },
        btb: CacheStats {
            accesses: est(&|r| r.btb.accesses),
            hits: est(&|r| r.btb.hits),
            misses: est(&|r| r.btb.misses),
            evictions: est(&|r| r.btb.evictions),
            fills: est(&|r| r.btb.fills),
        },
        events: EventCounts {
            cycles: est(&|r| r.events.cycles),
            retired_uops: est(&|r| r.events.retired_uops),
            retired_instructions: est(&|r| r.events.retired_instructions),
            icache_reads: est(&|r| r.events.icache_reads),
            icache_fills: est(&|r| r.events.icache_fills),
            uopc_lookups: est(&|r| r.events.uopc_lookups),
            uopc_entry_reads: est(&|r| r.events.uopc_entry_reads),
            uopc_entry_writes: est(&|r| r.events.uopc_entry_writes),
            decoded_uops: est(&|r| r.events.decoded_uops),
            decoder_active_cycles: est(&|r| r.events.decoder_active_cycles),
            bp_accesses: est(&|r| r.events.bp_accesses),
            btb_accesses: est(&|r| r.events.btb_accesses),
        },
        mispredictions: est(&|r| r.mispredictions),
    };

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

/// Rounds a reconstructed (non-negative) counter back to an integer.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn round_count(x: f64) -> u64 {
    x.max(0.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            cfg: FrontendConfig::zen3(),
            config_name: "zen3".to_string(),
            apps: vec![AppId::Kafka, AppId::Postgres],
            policies: vec!["LRU".to_string(), "Random".to_string()],
            variant: 0,
            len: 1_500,
            metrics: false,
            sample: None,
            scale: 1,
        }
    }

    #[test]
    fn sweep_is_jobs_invariant() {
        let spec = tiny_spec();
        let serial = run_sweep(&spec, &Engine::new(1)).to_json();
        let parallel = run_sweep(&spec, &Engine::new(4)).to_json();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn unknown_policy_becomes_a_structured_failure() {
        let mut spec = tiny_spec();
        spec.policies.push("NoSuchPolicy".to_string());
        let report = run_sweep(&spec, &Engine::new(2));
        assert_eq!(report.failures.len(), 2, "one per app");
        assert!(report.failures[0].message.contains("NoSuchPolicy"));
        // Sibling cells are unaffected.
        assert_eq!(report.cells.len(), 4);
    }

    #[test]
    fn cells_are_sorted_by_key_and_json_parses() {
        let report = run_sweep(&tiny_spec(), &Engine::new(2));
        let keys: Vec<String> = report.cells.iter().map(|c| c.key.to_string()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let parsed = Json::parse(&report.to_json()).expect("canonical JSON parses");
        assert_eq!(
            parsed
                .field("cells")
                .expect("cells")
                .as_arr()
                .expect("arr")
                .len(),
            4
        );
    }

    #[test]
    fn metrics_sweep_is_jobs_invariant_and_carries_obs() {
        let mut spec = tiny_spec();
        spec.metrics = true;
        let serial = run_sweep(&spec, &Engine::new(1));
        let parallel = run_sweep(&spec, &Engine::new(4));
        assert_eq!(serial.to_json(), parallel.to_json());
        let parsed = Json::parse(&serial.to_json()).expect("metrics JSON parses");
        assert!(parsed.field("totals").is_ok());
        assert!(parsed.field("profiles").is_ok());
        let cell = &parsed.field("cells").expect("cells").as_arr().expect("arr")[0];
        assert!(cell.field("events").is_ok());
        assert!(cell.field("metrics").is_ok());
        for c in &serial.cells {
            let obs = c.obs.as_ref().expect("metrics mode captures obs");
            assert!(obs.metrics.counter("misses") > 0, "cells saw traffic");
        }
    }

    #[test]
    fn metrics_do_not_change_simulation_results() {
        let plain = run_sweep(&tiny_spec(), &Engine::new(2));
        let mut spec = tiny_spec();
        spec.metrics = true;
        let instrumented = run_sweep(&spec, &Engine::new(2));
        for (a, b) in plain.cells.iter().zip(&instrumented.cells) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.result, b.result, "recorder must not perturb {}", a.key);
        }
    }

    #[test]
    fn schema_version_is_stamped_first() {
        let json = run_sweep(&tiny_spec(), &Engine::new(1)).to_json();
        assert!(
            json.starts_with("{\"schema_version\":1,"),
            "schema_version leads the report: {}",
            &json[..40.min(json.len())]
        );
    }

    #[test]
    fn spec_json_round_trips_and_resolves_canonical_names() {
        let spec = tiny_spec();
        let j = spec.to_json();
        let back = SweepSpec::from_json(&j).expect("wire form round-trips");
        assert_eq!(back.to_json().to_string(), j.to_string());
        assert_eq!(back.cfg, spec.cfg);
        // Lower-case policy names resolve to the canonical figure labels.
        let loose = Json::parse(
            r#"{"config":"zen4","apps":["kafka"],"policies":["lru","ship++"],"len":500}"#,
        )
        .expect("valid JSON");
        let spec = SweepSpec::from_json(&loose).expect("defaults fill in");
        assert_eq!(spec.policies, vec!["LRU", "SHiP++"]);
        assert_eq!(spec.variant, 0);
        assert!(!spec.metrics);
        assert_eq!(spec.cfg, FrontendConfig::zen4());
    }

    #[test]
    fn spec_json_rejects_bad_fields() {
        for bad in [
            r#"{"apps":["kafka"],"policies":["lru"]}"#,
            r#"{"config":"zen9","apps":["kafka"],"policies":["lru"]}"#,
            r#"{"config":"zen3","apps":["nope"],"policies":["lru"]}"#,
            r#"{"config":"zen3","apps":["kafka"],"policies":["belaay"]}"#,
            r#"{"config":"zen3","apps":[],"policies":["lru"]}"#,
            r#"{"config":"zen3","apps":["kafka"],"policies":[]}"#,
            r#"{"config":"zen3","apps":["kafka"],"policies":["lru"],"len":"x"}"#,
            // Geometries a cache cannot be built from: an error, not a panic.
            r#"{"config":"zen3","apps":["kafka"],"policies":["lru"],"entries":7,"ways":3}"#,
            r#"{"config":"zen3","apps":["kafka"],"policies":["lru"],"ways":0}"#,
            r#"{"config":"zen3","apps":["kafka"],"policies":["lru"],"entries":130,"ways":65}"#,
            // A buildable shape over MAX_UOP_CACHE_ENTRIES.
            r#"{"config":"zen3","apps":["kafka"],"policies":["lru"],"entries":4294967288}"#,
        ] {
            let j = Json::parse(bad).expect("valid JSON");
            assert!(
                SweepSpec::from_json(&j).is_err(),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn oversized_traces_are_refused() {
        for bad in [
            r#"{"config":"zen3","apps":["kafka"],"policies":["LRU"],"len":1099511627776}"#,
            r#"{"config":"zen3","apps":["kafka"],"policies":["LRU"],"len":1000,"scale":1099511627776}"#,
            // len × scale overflows u64: refused, not wrapped.
            r#"{"config":"zen3","apps":["kafka"],"policies":["LRU"],"len":4294967296,"scale":4294967296}"#,
        ] {
            let j = Json::parse(bad).expect("valid JSON");
            let err = SweepSpec::from_json(&j).expect_err("oversized");
            assert!(err.contains("exceeds"), "{bad}: {err}");
        }
        let mut spec = tiny_spec();
        spec.len = 1 << 40;
        assert!(spec.validate().is_err());
        spec.len = 1_000;
        spec.scale = 1 << 40;
        assert!(spec.validate().is_err());
        // The ceiling itself is admitted, in either factor.
        spec.scale = 1;
        spec.len = MAX_TRACE_ACCESSES as usize;
        assert_eq!(spec.validate(), Ok(()));
        spec.len = 1 << 12;
        spec.scale = 1 << 12;
        assert_eq!(spec.validate(), Ok(()));
        spec.scale = (1 << 12) + 1;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn every_policy_swept_alone_matches_its_cell_in_the_full_registry_sweep() {
        // A one-policy sweep prepares only the profiles that policy reads;
        // a policy reading a profile it did not request would see an empty
        // one and drift from its cell in the all-policy sweep.
        let cells = |spec: &SweepSpec| -> Vec<(String, String)> {
            let report = run_sweep(spec, &Engine::new(2));
            assert!(report.failures.is_empty(), "{:?}", report.failures);
            let parsed = Json::parse(&report.to_json()).expect("canonical JSON parses");
            parsed
                .field("cells")
                .expect("cells")
                .as_arr()
                .expect("array")
                .iter()
                .map(|c| {
                    let key = c.field("key").expect("key").as_str().expect("str");
                    (key.to_string(), c.to_string())
                })
                .collect()
        };
        let mut spec = tiny_spec();
        spec.len = 2_000;
        spec.policies = PolicyId::ALL
            .iter()
            .map(|id| id.name().to_string())
            .collect();
        let all = cells(&spec);
        assert_eq!(all.len(), 2 * PolicyId::ALL.len());
        for id in PolicyId::ALL {
            spec.policies = vec![id.name().to_string()];
            for (key, json) in cells(&spec) {
                let (_, want) = all
                    .iter()
                    .find(|(k, _)| *k == key)
                    .expect("same keys in both sweeps");
                assert_eq!(&json, want, "{id} alone drifted from the full sweep");
            }
        }
    }

    #[test]
    fn jobs_knob_resolution_order() {
        set_jobs(3);
        assert_eq!(current_jobs(), 3);
        set_jobs(0);
        assert!(current_jobs() >= 1);
    }

    fn sampled_spec() -> SweepSpec {
        let mut spec = tiny_spec();
        spec.len = 6_000;
        spec.sample = Some(2_000);
        spec
    }

    #[test]
    fn sampled_sweep_is_jobs_invariant() {
        let spec = sampled_spec();
        let serial = run_sweep(&spec, &Engine::new(1)).to_json();
        let two = run_sweep(&spec, &Engine::new(2)).to_json();
        let eight = run_sweep(&spec, &Engine::new(8)).to_json();
        assert_eq!(serial, two);
        assert_eq!(serial, eight);
    }

    #[test]
    fn sampled_cells_carry_plan_and_exact_uop_totals() {
        let spec = sampled_spec();
        let report = run_sweep(&spec, &Engine::new(2));
        assert_eq!(report.cells.len(), 4);
        for c in &report.cells {
            let s = c.sampled.as_ref().expect("sampled mode fills sampled");
            assert!(s.k >= 1 && s.k <= s.intervals);
            assert_eq!(s.weights.len(), s.k);
            let sum: f64 = s.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
            assert!(s.est_error >= uopcache_sample::EST_ERROR_FLOOR);
            // Micro-op totals are exact (known from the plan), and the
            // reconstructed split is consistent.
            assert_eq!(c.trace_uops, c.result.uopc.uops_requested);
            assert_eq!(
                c.result.uopc.uops_hit + c.result.uopc.uops_missed,
                c.result.uopc.uops_requested
            );
        }
        let parsed = Json::parse(&report.to_json()).expect("sampled JSON parses");
        let cell = &parsed.field("cells").expect("cells").as_arr().expect("arr")[0];
        assert!(cell.field("trace_uops").is_ok());
        assert!(cell.field("sampled").is_ok());
        let sampled = cell.field("sampled").expect("sampled");
        assert!(sampled.field("k").is_ok());
        assert!(sampled.field("est_error").is_ok());
    }

    #[test]
    fn sampled_hit_rate_tracks_the_full_simulation() {
        let spec = sampled_spec();
        let sampled = run_sweep(&spec, &Engine::new(2));
        let mut full_spec = spec.clone();
        full_spec.sample = None;
        let full = run_sweep(&full_spec, &Engine::new(2));
        for c in &sampled.cells {
            let f = full
                .cells
                .iter()
                .find(|f| f.key == c.key)
                .expect("same keys in both modes");
            let err = (c.hit_rate() - f.hit_rate()).abs();
            assert!(
                err <= 0.02,
                "{}: sampled {:.4} vs full {:.4}",
                c.key,
                c.hit_rate(),
                f.hit_rate()
            );
            let bound = c.sampled.as_ref().expect("sampled").est_error;
            assert!(
                err <= bound,
                "{}: true error {err:.4} exceeds reported bound {bound:.4}",
                c.key
            );
        }
    }

    #[test]
    fn sampled_failures_dedup_to_one_per_cell() {
        let mut spec = sampled_spec();
        spec.policies.push("NoSuchPolicy".to_string());
        let report = run_sweep(&spec, &Engine::new(2));
        assert_eq!(report.failures.len(), 2, "one per app, not per segment");
        assert!(report.failures[0].message.contains("NoSuchPolicy"));
        assert_eq!(report.cells.len(), 4, "sibling cells are unaffected");
    }

    #[test]
    fn scale_widens_the_key_segment_and_round_trips() {
        let mut spec = tiny_spec();
        spec.scale = 3;
        spec.sample = Some(2_000);
        let key = spec.task_key(AppId::Kafka, "LRU").to_string();
        assert!(key.contains("len1500x3"), "{key}");
        let back = SweepSpec::from_json(&spec.to_json()).expect("round-trips");
        assert_eq!(back.scale, 3);
        assert_eq!(back.sample, Some(2_000));
        assert_eq!(back.to_json().to_string(), spec.to_json().to_string());
        // Plain specs never serialise the new fields (wire back-compat).
        let plain = tiny_spec().to_json().to_string();
        assert!(!plain.contains("\"scale\""), "{plain}");
        assert!(!plain.contains("\"sample\""), "{plain}");
        for bad in [
            r#"{"config":"zen3","apps":["kafka"],"policies":["lru"],"scale":0}"#,
            r#"{"config":"zen3","apps":["kafka"],"policies":["lru"],"sample":0}"#,
        ] {
            let j = Json::parse(bad).expect("valid JSON");
            assert!(
                SweepSpec::from_json(&j).is_err(),
                "{bad} should be rejected"
            );
        }
    }
}
