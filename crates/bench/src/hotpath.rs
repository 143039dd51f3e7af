//! Hot-path benchmark harness: lookups/sec and allocations-per-lookup for
//! the simulation kernel, per `(app, policy)` cell.
//!
//! Every experiment in the paper reduces to replaying a PW lookup stream
//! through [`UopCache`] — the sweep engine and the serve daemon only
//! parallelize that loop, they don't make a single lookup cheaper. This
//! module measures the loop itself ([`run_trace`]) so the repo carries a
//! committed throughput baseline (`BENCH_hotpath.json`) and CI can catch
//! kernel regressions.
//!
//! Measurement discipline:
//!
//! * **warmup passes** fill the cache and let adaptive policies leave their
//!   cold-start regime before any timing starts — steady-state throughput is
//!   what the sweeps actually pay for;
//! * **repeated measured passes** report mean/stddev/min/max lookups/sec, so
//!   a noisy machine shows up as variance instead of a silently wrong point
//!   estimate;
//! * **allocation counting** works through [`CountingAllocator`], a
//!   `System`-wrapping allocator the CLI binary installs as its
//!   `#[global_allocator]`; steady-state allocations per lookup is the
//!   headline zero-allocation property. When the harness runs in a process
//!   that did *not* install the allocator (e.g. a library consumer), the
//!   counters never move and the report says so (`alloc_counting: false`)
//!   rather than claiming a spurious zero.
//!
//! The report renders to canonical JSON with `schema_version` first, same as
//! every other artifact in the repo; [`gate_against_baseline`] compares two
//! reports cell-by-cell under a generous regression factor (timing is
//! machine-dependent — the gate catches order-of-magnitude breakage, not
//! percent-level drift).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::apps::trace_for;
use crate::experiments::{len_for, quick_apps};
use crate::policies::{PolicyId, ProfileInputs};
use crate::table::Table;
use uopcache_cache::UopCache;
use uopcache_model::json::Json;
use uopcache_model::FrontendConfig;
use uopcache_policies::run_trace;
use uopcache_trace::AppId;

/// Schema version stamped on every hotpath report.
pub const SCHEMA_VERSION: u64 = 1;

/// Seed for the one randomized policy (Random), so two runs of the harness
/// replay identical decision streams and differ only in timing.
pub const BENCH_SEED: u64 = 0xbe9c_5eed;

/// Allocation calls observed by [`CountingAllocator`] since process start.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested through [`CountingAllocator`] since process start.
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A `System`-wrapping global allocator that counts allocation calls.
///
/// Install it in a *binary* (the `uopcache` CLI does, as does the
/// `alloc_budget` integration test):
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: uopcache_bench::hotpath::CountingAllocator =
///     uopcache_bench::hotpath::CountingAllocator::new();
/// ```
///
/// The counters are process-wide atomics with `Relaxed` ordering — cheap
/// enough to leave on permanently, precise enough to assert "zero
/// allocations between these two snapshots" on a single thread.
pub struct CountingAllocator;

impl CountingAllocator {
    /// A new counting allocator (const so it can be a `static`).
    #[must_use]
    pub const fn new() -> Self {
        CountingAllocator
    }

    /// Total allocation calls (alloc + realloc) since process start.
    #[must_use]
    pub fn allocations() -> u64 {
        ALLOC_CALLS.load(Ordering::Relaxed)
    }

    /// Total bytes requested since process start.
    #[must_use]
    pub fn bytes_allocated() -> u64 {
        ALLOC_BYTES.load(Ordering::Relaxed)
    }

    /// Whether the counting allocator is actually installed in this process.
    ///
    /// Performs a probe allocation and checks the counter moved; a library
    /// consumer that never registered the `#[global_allocator]` sees frozen
    /// counters, and reports must not claim a spurious zero.
    #[must_use]
    pub fn is_active() -> bool {
        let before = Self::allocations();
        std::hint::black_box(Box::new(0u64));
        Self::allocations() > before
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What to benchmark: a config × apps × policies grid with pass counts.
#[derive(Clone, Debug)]
pub struct HotpathSpec {
    /// Frontend configuration under test.
    pub cfg: FrontendConfig,
    /// Human name for the configuration, e.g. `zen3`.
    pub config_name: String,
    /// Applications to replay.
    pub apps: Vec<AppId>,
    /// Policies to drive; must parse as [`PolicyId`] names.
    pub policies: Vec<String>,
    /// Input variant for trace generation.
    pub variant: u32,
    /// Trace length (lookups per pass).
    pub len: usize,
    /// Untimed passes before measurement starts.
    pub warmup_passes: u32,
    /// Timed passes; throughput statistics aggregate over these.
    pub measured_passes: u32,
}

impl HotpathSpec {
    /// The quick grid: the sweep quick config (Kafka + Postgres, short
    /// traces) over the full policy roster. This is the cell set behind the
    /// committed `BENCH_hotpath.json` baseline and the CI smoke job.
    #[must_use]
    pub fn quick() -> HotpathSpec {
        HotpathSpec {
            cfg: FrontendConfig::zen3(),
            config_name: "zen3".to_string(),
            apps: quick_apps(),
            policies: PolicyId::ALL
                .iter()
                .map(|id| id.name().to_string())
                .collect(),
            variant: 0,
            len: len_for(true),
            warmup_passes: 1,
            measured_passes: 3,
        }
    }

    /// The full grid: every Table II application at a longer trace length,
    /// with more measured passes for tighter variance.
    #[must_use]
    pub fn full() -> HotpathSpec {
        HotpathSpec {
            apps: crate::apps::standard_apps().to_vec(),
            len: 30_000,
            measured_passes: 5,
            ..HotpathSpec::quick()
        }
    }
}

/// One measured `(app, policy)` cell.
#[derive(Clone, Debug)]
pub struct HotpathCell {
    /// Application replayed.
    pub app: AppId,
    /// Policy name.
    pub policy: String,
    /// Lookups per measured pass.
    pub lookups: u64,
    /// Per-pass lookups/sec samples, in pass order.
    pub pass_lps: Vec<f64>,
    /// Allocation calls per lookup across all measured passes (meaningful
    /// only when [`CountingAllocator`] is installed).
    pub allocs_per_lookup: f64,
    /// Micro-ops served from the cache during the measured passes — a
    /// workload anchor proving the cell simulated real traffic.
    pub uops_hit: u64,
}

impl HotpathCell {
    /// Mean lookups/sec over the measured passes.
    #[must_use]
    pub fn mean_lps(&self) -> f64 {
        self.pass_lps.iter().sum::<f64>() / self.pass_lps.len() as f64
    }

    /// Population standard deviation of the per-pass lookups/sec.
    #[must_use]
    pub fn stddev_lps(&self) -> f64 {
        let mean = self.mean_lps();
        let var = self
            .pass_lps
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / self.pass_lps.len() as f64;
        var.sqrt()
    }

    /// Slowest pass.
    #[must_use]
    pub fn min_lps(&self) -> f64 {
        self.pass_lps.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Fastest pass.
    #[must_use]
    pub fn max_lps(&self) -> f64 {
        self.pass_lps.iter().copied().fold(0.0, f64::max)
    }

    /// Mean nanoseconds per lookup.
    #[must_use]
    pub fn ns_per_lookup(&self) -> f64 {
        1e9 / self.mean_lps()
    }
}

/// A complete harness run: the spec echo plus one cell per `(app, policy)`.
#[derive(Clone, Debug)]
pub struct HotpathReport {
    /// The spec that produced this report.
    pub spec: HotpathSpec,
    /// Whether [`CountingAllocator`] was live, i.e. whether
    /// `allocs_per_lookup` is meaningful.
    pub alloc_counting: bool,
    /// Measured cells, in `apps × policies` order.
    pub cells: Vec<HotpathCell>,
}

/// Rounds to one decimal: throughput numbers are noisy past that, and the
/// baseline file stays readable.
fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

/// Rounds to six decimals (allocations per lookup are tiny fractions).
fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

impl HotpathReport {
    /// Renders the report as canonical JSON, `schema_version` first.
    #[must_use]
    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("app".to_string(), Json::Str(c.app.name().to_string())),
                    ("policy".to_string(), Json::Str(c.policy.clone())),
                    ("lookups".to_string(), Json::U64(c.lookups)),
                    (
                        "lookups_per_sec".to_string(),
                        Json::Obj(vec![
                            ("mean".to_string(), Json::F64(round1(c.mean_lps()))),
                            ("stddev".to_string(), Json::F64(round1(c.stddev_lps()))),
                            ("min".to_string(), Json::F64(round1(c.min_lps()))),
                            ("max".to_string(), Json::F64(round1(c.max_lps()))),
                        ]),
                    ),
                    (
                        "ns_per_lookup".to_string(),
                        Json::F64(round1(c.ns_per_lookup())),
                    ),
                    (
                        "allocs_per_lookup".to_string(),
                        Json::F64(round6(c.allocs_per_lookup)),
                    ),
                    ("uops_hit".to_string(), Json::U64(c.uops_hit)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema_version".to_string(), Json::U64(SCHEMA_VERSION)),
            ("bench".to_string(), Json::Str("hotpath".to_string())),
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
            (
                "warmup_passes".to_string(),
                Json::U64(u64::from(self.spec.warmup_passes)),
            ),
            (
                "measured_passes".to_string(),
                Json::U64(u64::from(self.spec.measured_passes)),
            ),
            (
                "alloc_counting".to_string(),
                Json::Bool(self.alloc_counting),
            ),
            ("cells".to_string(), Json::Arr(cells)),
        ])
        .to_string()
    }

    /// Renders the report as an aligned text table for terminal output.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "hotpath: {} x {} lookups, {} warmup + {} measured passes",
                self.spec.config_name,
                self.spec.len,
                self.spec.warmup_passes,
                self.spec.measured_passes
            ),
            &[
                "app",
                "policy",
                "Mlookups/s",
                "stddev",
                "ns/lookup",
                "allocs/lookup",
            ],
        );
        for c in &self.cells {
            t.row(&[
                c.app.name().to_string(),
                c.policy.clone(),
                format!("{:.2}", c.mean_lps() / 1e6),
                format!("{:.2}", c.stddev_lps() / 1e6),
                format!("{:.1}", c.ns_per_lookup()),
                if self.alloc_counting {
                    format!("{:.4}", c.allocs_per_lookup)
                } else {
                    "n/a".to_string()
                },
            ]);
        }
        t
    }
}

/// Measures one `(app, policy)` cell: builds the policy fresh, runs the
/// warmup passes, then times the measured passes around [`run_trace`].
///
/// Trace generation and policy construction happen *outside* the timed
/// region; only the lookup/insert replay loop is measured.
fn run_cell(
    spec: &HotpathSpec,
    app: AppId,
    policy_name: &str,
    profiles: &ProfileInputs,
) -> HotpathCell {
    let id: PolicyId = policy_name.parse().unwrap_or_else(|e| {
        panic!("bench-hotpath: unknown policy {policy_name:?}: {e}");
    });
    let trace = trace_for(app, spec.variant, spec.len);
    let policy = id.build(&spec.cfg, profiles, BENCH_SEED);
    let mut cache = UopCache::new(spec.cfg.uop_cache, policy);

    for _ in 0..spec.warmup_passes {
        run_trace(&mut cache, &trace);
    }

    let mut pass_lps = Vec::with_capacity(spec.measured_passes as usize);
    let mut uops_hit = 0u64;
    let mut allocs = 0u64;
    for _ in 0..spec.measured_passes {
        let alloc_before = CountingAllocator::allocations();
        let t0 = Instant::now();
        let stats = run_trace(&mut cache, &trace);
        let dt = t0.elapsed();
        allocs += CountingAllocator::allocations() - alloc_before;
        uops_hit += stats.uops_hit;
        pass_lps.push(trace.len() as f64 / dt.as_secs_f64());
    }

    let total_lookups = u64::from(spec.measured_passes) * trace.len() as u64;
    HotpathCell {
        app,
        policy: id.name().to_string(),
        lookups: trace.len() as u64,
        pass_lps,
        allocs_per_lookup: allocs as f64 / total_lookups as f64,
        uops_hit,
    }
}

/// Runs the full harness: one cell per `(app, policy)`, apps outermost so
/// each app's trace and profile inputs are prepared once.
#[must_use]
pub fn run_hotpath(spec: &HotpathSpec) -> HotpathReport {
    let alloc_counting = CountingAllocator::is_active();
    let mut cells = Vec::with_capacity(spec.apps.len() * spec.policies.len());
    // Unknown names are skipped here and panic in their own cell.
    let ids: Vec<PolicyId> = spec
        .policies
        .iter()
        .filter_map(|p| p.parse().ok())
        .collect();
    for &app in &spec.apps {
        let train = trace_for(app, spec.variant, spec.len);
        let profiles = ProfileInputs::build(&spec.cfg, &train, &ids);
        for policy in &spec.policies {
            cells.push(run_cell(spec, app, policy, &profiles));
        }
    }
    HotpathReport {
        spec: spec.clone(),
        alloc_counting,
        cells,
    }
}

/// Compares a current hotpath report against a committed baseline.
///
/// Both arguments are the canonical JSON renderings ([`HotpathReport::
/// to_json`]). Both must hold the same `(app, policy)` cells, and for each
/// the current mean lookups/sec must be at least `baseline / factor` — a
/// generous gate (CI uses 3×) that catches kernel-level breakage while
/// tolerating machine and load variance. A cell present on only one side is
/// a failure too: an ungated cell would go unnoticed, so a grown grid needs
/// a regenerated baseline.
///
/// Returns the list of failure descriptions (empty = gate passed).
///
/// # Errors
///
/// Returns a message if either report fails to parse or has an unexpected
/// schema version.
pub fn gate_against_baseline(
    current: &str,
    baseline: &str,
    factor: f64,
) -> Result<Vec<String>, String> {
    let parse = |label: &str, text: &str| -> Result<Vec<(String, String, f64)>, String> {
        let j = Json::parse(text).map_err(|e| format!("{label}: {e}"))?;
        let version = j
            .field("schema_version")
            .map_err(|e| format!("{label}: {e}"))?
            .as_u64()
            .ok_or_else(|| format!("{label}: schema_version must be an integer"))?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "{label}: schema_version {version} (expected {SCHEMA_VERSION})"
            ));
        }
        let cells = j
            .field("cells")
            .map_err(|e| format!("{label}: {e}"))?
            .as_arr()
            .ok_or_else(|| format!("{label}: cells must be an array"))?;
        cells
            .iter()
            .map(|c| {
                let text_field = |f: &str| -> Result<String, String> {
                    c.field(f)
                        .map_err(|e| format!("{label}: {e}"))?
                        .as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{label}: cell field {f:?} must be a string"))
                };
                let mean = c
                    .field("lookups_per_sec")
                    .and_then(|l| l.field("mean"))
                    .map_err(|e| format!("{label}: {e}"))?
                    .as_f64()
                    .ok_or_else(|| format!("{label}: lookups_per_sec.mean must be a number"))?;
                Ok((text_field("app")?, text_field("policy")?, mean))
            })
            .collect()
    };
    let current_cells = parse("current", current)?;
    let baseline_cells = parse("baseline", baseline)?;

    let mut regressions = Vec::new();
    for (app, policy, _) in &current_cells {
        if !baseline_cells
            .iter()
            .any(|(a, p, _)| a == app && p == policy)
        {
            regressions.push(format!(
                "{app}/{policy}: not in the baseline (regenerate it with UPDATE_BENCH=1)"
            ));
        }
    }
    for (app, policy, base_mean) in &baseline_cells {
        let Some((_, _, cur_mean)) = current_cells
            .iter()
            .find(|(a, p, _)| a == app && p == policy)
        else {
            regressions.push(format!("{app}/{policy}: in the baseline but not measured"));
            continue;
        };
        if *cur_mean < base_mean / factor {
            regressions.push(format!(
                "{app}/{policy}: {:.2} Mlookups/s is below the {factor}x gate \
                 (baseline {:.2} Mlookups/s)",
                cur_mean / 1e6,
                base_mean / 1e6,
            ));
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> HotpathSpec {
        HotpathSpec {
            apps: vec![AppId::Kafka],
            policies: vec!["LRU".to_string(), "SRRIP".to_string()],
            len: 500,
            warmup_passes: 1,
            measured_passes: 2,
            ..HotpathSpec::quick()
        }
    }

    #[test]
    fn report_renders_canonical_json() {
        let report = run_hotpath(&tiny_spec());
        let json = report.to_json();
        assert!(json.starts_with("{\"schema_version\":1,"));
        let parsed = Json::parse(&json).expect("report JSON parses");
        let cells = parsed
            .field("cells")
            .expect("cells present")
            .as_arr()
            .expect("cells is an array")
            .len();
        assert_eq!(cells, 2);
        for cell in &report.cells {
            assert!(cell.mean_lps() > 0.0);
            assert!(cell.min_lps() <= cell.mean_lps());
            assert!(cell.mean_lps() <= cell.max_lps());
            assert!(cell.uops_hit > 0, "cell must simulate real traffic");
        }
    }

    #[test]
    fn gate_passes_against_itself_and_catches_collapse() {
        let report = run_hotpath(&tiny_spec());
        let json = report.to_json();
        let ok = gate_against_baseline(&json, &json, 3.0).expect("gate parses");
        assert!(ok.is_empty(), "a report never regresses against itself");

        // Synthesize a baseline 10x faster than reality: every cell must
        // trip the 3x gate.
        let mut fast = report.clone();
        for cell in &mut fast.cells {
            for lps in &mut cell.pass_lps {
                *lps *= 10.0;
            }
        }
        let trip = gate_against_baseline(&json, &fast.to_json(), 3.0).expect("gate parses");
        assert_eq!(trip.len(), report.cells.len());
    }

    #[test]
    fn gate_fails_a_cell_present_on_only_one_side() {
        let spec = tiny_spec();
        let both = run_hotpath(&spec);
        let lru_only = run_hotpath(&HotpathSpec {
            policies: vec!["LRU".to_string()],
            ..spec
        });
        let missing =
            gate_against_baseline(&lru_only.to_json(), &both.to_json(), 3.0).expect("gate parses");
        assert_eq!(missing.len(), 1, "{missing:?}");
        assert!(missing[0].starts_with("kafka/SRRIP: in the baseline but not measured"));
        let extra =
            gate_against_baseline(&both.to_json(), &lru_only.to_json(), 3.0).expect("gate parses");
        assert_eq!(extra.len(), 1, "{extra:?}");
        assert!(extra[0].starts_with("kafka/SRRIP: not in the baseline"));
    }

    #[test]
    fn gate_rejects_schema_drift() {
        let report = run_hotpath(&tiny_spec()).to_json();
        let drifted = report.replace("\"schema_version\":1", "\"schema_version\":2");
        assert!(gate_against_baseline(&drifted, &report, 3.0).is_err());
    }
}
