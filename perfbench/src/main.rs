//! Layered end-to-end benchmark of the uopcache workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record
//! ```
//!
//! `--trace 0` repeats the workload through the public API for `--seconds`
//! and reports the end-to-end metrics; `--trace 1` adds one untraced
//! repetition, then repeats the traced composition (spans around every
//! public call) and reports the per-layer metrics. Every repetition's
//! output is digest-checked against `expected.json`. Human-readable lines
//! come first; the last stdout line is one JSON object.

mod digest;
mod serve;
mod spans;
mod stats;
mod sweep;

use digest::{Entry, Expected, Structural, VARIANTS};
use spans::{chrome_trace, coverage, is_work, now, self_totals, Span};
use stats::{median, percentile, Percentile, Tally};
use sweep::{traced_sweep, untraced_rep, Counters, SWEEP_JOBS};
use uopcache_bench::policies::PolicyId;
use uopcache_bench::sweep::SweepSpec;
use uopcache_model::json::Json;
use uopcache_model::FrontendConfig;
use uopcache_trace::AppId;

#[global_allocator]
static ALLOC: spans::CountingAlloc = spans::CountingAlloc;

/// The workloads, in reporting order.
const WORKLOADS: [&str; 4] = [
    "full-registry",
    "all-apps-furbys",
    "sampled-x100",
    "serve-mixed",
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 33] = [
    ("trace.gen_ms", "ms"),
    ("trace.gen_allocs", "count"),
    ("offline.foo_solve_ms", "ms"),
    ("offline.foo_solve_allocs", "count"),
    ("offline.replay_ms", "ms"),
    ("core.weights_ms", "ms"),
    ("policies.lru_rates_ms", "ms"),
    ("policies.kernel_ms", "ms"),
    ("sim.frontend_ms", "ms"),
    ("sim.frontend_allocs", "count"),
    ("sim.frontend_over_kernel", "ratio"),
    ("cache.l1i_evictions", "count"),
    ("cache.inclusion_invalidations", "count"),
    ("cache.invalidation_yield", "ratio"),
    ("sample.plan_ms", "ms"),
    ("sample.plan_allocs", "count"),
    ("sample.interval_sim_ms", "ms"),
    ("sample.segments", "count"),
    ("sample.warmup_share", "ratio"),
    ("exec.queue_wait_ms", "ms"),
    ("exec.busy_frac", "ratio"),
    ("bench.report_encode_ms", "ms"),
    ("model.json_parse_ms", "ms"),
    ("serve.dedup_rtt_ms", "ms"),
    ("serve.frame_encode_us", "us"),
    ("serve.frame_decode_us", "us"),
    ("serve.dedup_frac", "ratio"),
    ("serve.busy_frac", "ratio"),
    ("bench.span_coverage", "ratio"),
    ("bench.trace_overhead_ms", "ms"),
    ("furbys_miss_red_pct", "%"),
    ("est_error_max", "ratio"),
    ("job_p99_ms", "ms"),
];

/// The least share of the traced wall top-level spans must cover.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.record && args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The sweep request of a sweep workload on input class `class`.
fn sweep_spec(workload: &str, class: u64) -> Option<SweepSpec> {
    let all: Vec<String> = PolicyId::ALL.iter().map(|p| p.name().to_string()).collect();
    let two = vec![AppId::Kafka, AppId::Postgres];
    let (apps, policies, len, sample, scale) = match workload {
        "full-registry" => (two, all, 100_000, None, 1),
        "all-apps-furbys" => (
            AppId::ALL.to_vec(),
            vec![PolicyId::Furbys.name().to_string()],
            100_000,
            None,
            1,
        ),
        "sampled-x100" => (two, all, 12_000, Some(20_000), 100),
        _ => return None,
    };
    Some(SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps,
        policies,
        variant: u32::try_from(class).unwrap_or(0),
        len,
        metrics: false,
        sample,
        scale,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Sample count or how the value was formed.
    note: String,
}

/// What one workload run reports.
struct Outcome {
    correct: bool,
    tally: Tally,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Runs until `deadline` (clock ns), at least `min` times (and at least
/// once).
fn repeat_until<T>(
    deadline: u64,
    min: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = vec![f()?];
    while out.len() < min || now() < deadline {
        out.push(f()?);
    }
    Ok(out)
}

/// Repetitions of a sweep workload pooled into one job-latency percentile
/// block, and so the fewest a `--trace 0` sweep run makes.
const SWEEP_BLOCK: usize = 8;

/// What the end-to-end metrics need of one repetition.
struct Measured {
    /// Wall time, ns.
    wall: u64,
    /// Most heap bytes the repetition held at once on top of what was live
    /// when it started.
    heap: usize,
    /// Run time of every cell, segment or job, ns.
    latencies: Vec<u64>,
    /// Cells, segments or jobs completed.
    units: u64,
}

/// Runs `f` as one repetition, measuring the heap it adds.
fn heap_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = spans::reset_peak();
    let out = f();
    (out, spans::peak_heap_bytes().saturating_sub(base))
}

/// A job-latency percentile: pooled over each block of `block` consecutive
/// repetitions, then the median over blocks (repetitions past the last full
/// block are left out). Every block has the same number of samples however
/// many repetitions fit in the run, so the percentile the rule reports does
/// not move with speed, and one disturbed block cannot set the value.
fn job_percentile(reps: &[Measured], block: usize, q: f64, unit_name: &str) -> (f64, String) {
    let each: Vec<Percentile> = reps
        .chunks_exact(block)
        .filter_map(|b| {
            let pooled: Vec<f64> = b
                .iter()
                .flat_map(|r| r.latencies.iter())
                .map(|&l| ms(l))
                .collect();
            percentile(&pooled, q)
        })
        .collect();
    let Some(p) = each.first() else {
        return (0.0, "no samples".to_string());
    };
    let values: Vec<f64> = each.iter().map(|p| p.value).collect();
    (
        median(&values),
        format!(
            "p{:.1} of n={} {unit_name} per block of {block} repetitions, median of {} blocks",
            p.pct,
            p.n,
            each.len()
        ),
    )
}

/// The end-to-end metrics of `--trace 0`. The job p99 goes to `notes`
/// only: it is a per-layer metric (see `finish_traced`), because a few
/// host preemptions per run set it.
fn end_to_end(
    setups: &[u64],
    reps: &[Measured],
    block: usize,
    unit_name: &str,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let (p50, p50_note) = job_percentile(reps, block, 0.50, unit_name);
    let (p99, p99_note) = job_percentile(reps, block, 0.99, unit_name);
    notes.push(format!(
        "job_p99_ms={p99:.6} ms ({p99_note}); reported as a per-layer metric by --trace 1"
    ));
    let setups_s: Vec<f64> = setups.iter().map(|&s| secs(s)).collect();
    let walls_s: Vec<f64> = reps.iter().map(|r| secs(r.wall)).collect();
    let heaps_mb: Vec<f64> = reps
        .iter()
        .map(|r| r.heap as f64 / (1024.0 * 1024.0))
        .collect();
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.units as f64 / secs(r.wall.max(1)))
        .collect();
    vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&setups_s),
            note: format!("median of {}", setups.len()),
        },
        Metric {
            name: "wall_s",
            unit: "s",
            value: median(&walls_s),
            note: format!(
                "median of {}, range {:.4}–{:.4}",
                reps.len(),
                walls_s.iter().copied().fold(f64::INFINITY, f64::min),
                walls_s.iter().copied().fold(0.0, f64::max)
            ),
        },
        Metric {
            name: "peak_heap_mb",
            unit: "MB",
            value: median(&heaps_mb),
            note: format!(
                "most heap a repetition adds at once, median of {}",
                reps.len()
            ),
        },
        Metric {
            name: "job_p50_ms",
            unit: "ms",
            value: p50,
            note: p50_note,
        },
        Metric {
            name: "jobs_per_s",
            unit: "1/s",
            value: median(&rates),
            note: format!("completed {unit_name} / wall, median of {}", reps.len()),
        },
    ]
}

/// One traced repetition, reduced to per-layer values.
struct TracedRep {
    values: Vec<(&'static str, f64)>,
    structural: Structural,
    spans: Vec<Span>,
    cells: Vec<(u64, String)>,
    wall: u64,
}

/// Per-layer values of one traced repetition from its spans and counters.
fn layer_values(
    spans: &[Span],
    counters: &Counters,
    sampled: bool,
    window: (u64, u64),
    extra: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    let totals = self_totals(spans);
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| ms(t.0));
    let self_allocs = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let kernel = self_ms("policies.kernel");
    let mut v = vec![
        ("trace.gen_ms", self_ms("trace.gen")),
        ("trace.gen_allocs", self_allocs("trace.gen")),
        ("offline.foo_solve_ms", self_ms("offline.foo_solve")),
        ("offline.foo_solve_allocs", self_allocs("offline.foo_solve")),
        ("offline.replay_ms", self_ms("offline.replay")),
        ("core.weights_ms", self_ms("core.weights")),
        ("policies.lru_rates_ms", self_ms("policies.lru_rates")),
        ("policies.kernel_ms", kernel),
        ("sim.frontend_ms", self_ms("sim.frontend")),
        ("sim.frontend_allocs", self_allocs("sim.frontend")),
        (
            "sim.frontend_over_kernel",
            ratio(self_ms("sim.frontend"), kernel),
        ),
        ("cache.l1i_evictions", counters.l1i_evictions as f64),
        (
            "cache.inclusion_invalidations",
            counters.inclusion_invalidations as f64,
        ),
        (
            "cache.invalidation_yield",
            ratio(
                counters.inclusion_invalidations as f64,
                counters.l1i_evictions as f64,
            ),
        ),
        ("sample.plan_ms", self_ms("sample.plan")),
        ("sample.plan_allocs", self_allocs("sample.plan")),
        ("sample.interval_sim_ms", self_ms("sample.interval_sim")),
        (
            "sample.segments",
            if sampled {
                counters.segments as f64
            } else {
                0.0
            },
        ),
        (
            "sample.warmup_share",
            ratio(counters.warmup_uops as f64, counters.simulated_uops as f64),
        ),
        ("exec.queue_wait_ms", ms(counters.queue_wait)),
        (
            "exec.busy_frac",
            ratio(counters.task_run as f64, counters.worker_wall as f64),
        ),
        ("bench.report_encode_ms", self_ms("bench.report_encode")),
        ("model.json_parse_ms", self_ms("model.json_parse")),
        // The window was taken on this (the main) thread.
        (
            "bench.span_coverage",
            coverage(spans, spans::thread_index(), window.0, window.1),
        ),
    ];
    v.extend_from_slice(extra);
    v
}

/// Layer self-time totals (ms), largest first, over the work-layer spans
/// (waits and frames are left out).
fn layer_table(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
    for (name, (self_ns, _)) in self_totals(spans) {
        if !is_work(name) {
            continue;
        }
        let layer = name.split('.').next().unwrap_or(name);
        match by_layer.iter_mut().find(|(l, _)| *l == layer) {
            Some(e) => e.1 += ms(self_ns),
            None => by_layer.push((layer, ms(self_ns))),
        }
    }
    by_layer.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    by_layer
}

/// Reduces traced repetitions to the reported per-layer metrics (medians
/// over repetitions), checking coverage and that structural counts repeat
/// exactly — against each other and against the committed expectation.
fn finish_traced(
    workload: &str,
    class: u64,
    seed: u64,
    reps: &[TracedRep],
    untraced: &[Measured],
    outside: &[(&'static str, f64, String)],
    notes: &mut Vec<String>,
) -> Result<(Vec<Metric>, bool), String> {
    let first = &reps[0].structural;
    for r in reps {
        let drift = first.diff(&r.structural);
        if !drift.is_empty() {
            return Err(format!(
                "structural counts drifted between traced repetitions: {}",
                drift.join(", ")
            ));
        }
    }
    if let Some(e) = Expected::committed().get(workload, class) {
        let drift = e.structural.diff(first);
        if !drift.is_empty() {
            return Err(format!(
                "structural counts drifted from expected.json (expected≠measured): {}",
                drift.join(", ")
            ));
        }
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall as f64).collect();
    let untraced_walls: Vec<f64> = untraced.iter().map(|r| r.wall as f64).collect();
    let overhead_ms = (median(&walls) - median(&untraced_walls)) / 1e6;
    let mut metrics = Vec::new();
    let mut ok = true;
    for (name, unit) in PER_LAYER {
        let samples: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.values.iter().find(|(n, _)| *n == name).map(|v| v.1))
            .collect();
        let (value, note) = if let Some((_, v, n)) = outside.iter().find(|o| o.0 == name) {
            (*v, n.clone())
        } else if name == "bench.trace_overhead_ms" {
            (
                overhead_ms,
                format!("median traced − median untraced wall, {} pairs", reps.len()),
            )
        } else {
            (median(&samples), format!("median of {}", samples.len()))
        };
        if name == "bench.span_coverage" && value < MIN_COVERAGE {
            notes.push(format!("span coverage {value:.4} is below {MIN_COVERAGE}"));
            ok = false;
        }
        metrics.push(Metric {
            name,
            unit,
            value,
            note,
        });
    }
    let last = &reps[reps.len() - 1];
    let table = layer_table(&last.spans);
    notes.push(format!(
        "layer self time (ms, last traced rep): {}",
        table
            .iter()
            .map(|(l, t)| format!("{l}={t:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()),
    )
    .join("perfbench");
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, chrome_trace(&last.spans, &last.cells)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    notes.push(format!("chrome trace: {}", path.display()));
    Ok((metrics, ok))
}

fn run_sweep_workload(workload: &str, args: &Args) -> Result<Outcome, String> {
    let class = args.seed % VARIANTS;
    let spec = sweep_spec(workload, class).ok_or("not a sweep workload")?;
    let expected = Expected::committed();
    let want = expected.get(workload, class).map(|e| e.digest.clone());
    let mut notes = vec![format!(
        "{workload}: seed {} -> input class {class}, {SWEEP_JOBS} workers",
        args.seed
    )];
    let deadline = now() + args.seconds * 1_000_000_000;
    let mut tally = Tally::default();
    let mut correct = true;
    let check = |json: &str, units: u64, failed: u64, tally: &mut Tally| {
        let ok = want.as_deref() == Some(digest::digest(json.as_bytes()).as_str());
        tally.add(units, failed, ok);
        ok
    };
    let unit_name = if spec.sample.is_some() {
        "segments"
    } else {
        "cells"
    };

    if !args.trace {
        let mut simulated = (0.0, 0.0);
        let mut setups = Vec::new();
        let reps = repeat_until(deadline, SWEEP_BLOCK, || {
            let (r, heap) = heap_of(|| untraced_rep(&spec));
            correct &= check(&r.json, r.units, r.failed, &mut tally);
            simulated = (r.furbys_miss_red_pct, r.est_error_max);
            setups.push(r.setup);
            Ok(Measured {
                wall: r.wall,
                heap,
                latencies: r.task_run,
                units: r.units - r.failed,
            })
        })?;
        notes.push(format!(
            "simulated: furbys_miss_red_pct={:.4} est_error_max={:.6}; failed_frac={:.4}",
            simulated.0,
            simulated.1,
            tally.failed_frac()
        ));
        return Ok(Outcome {
            correct: correct && tally.failed == 0,
            tally,
            metrics: end_to_end(&setups, &reps, SWEEP_BLOCK, unit_name, &mut notes),
            notes,
        });
    }

    // Untraced and traced repetitions alternate, so the tracing overhead
    // compares medians taken over the same stretch of time.
    let mut simulated = None;
    let mut untraced = Vec::new();
    let traced = repeat_until(deadline, SWEEP_BLOCK, || {
        let base = untraced_rep(&spec);
        spans::start_recording();
        let t0 = now();
        let mut cells = Vec::new();
        let (json, counters) = traced_sweep(&spec, SWEEP_JOBS, true, &mut cells);
        let t1 = now();
        let spans = spans::stop_recording();
        simulated.get_or_insert((base.furbys_miss_red_pct, base.est_error_max));
        correct &= check(&base.json, base.units, base.failed, &mut tally);
        untraced.push(Measured {
            wall: base.wall,
            heap: 0,
            latencies: base.task_run.clone(),
            units: base.units - base.failed,
        });
        // The traced composition must reproduce the untraced bytes.
        let same = json == base.json;
        if !same {
            notes.push("traced report differs from the untraced report".to_string());
        }
        correct &= same && check(&json, base.units, 0, &mut tally);
        Ok(TracedRep {
            values: layer_values(&spans, &counters, spec.sample.is_some(), (t0, t1), &[]),
            structural: counters.structural(),
            spans,
            cells,
            wall: t1 - t0,
        })
    })?;
    let (furbys, est_error) = simulated.unwrap_or_default();
    let (p99, p99_note) = job_percentile(&untraced, SWEEP_BLOCK, 0.99, unit_name);
    let outside = [
        ("furbys_miss_red_pct", furbys, "simulated".to_string()),
        ("est_error_max", est_error, "simulated".to_string()),
        ("job_p99_ms", p99, format!("{p99_note}, untraced")),
    ];
    let (metrics, ok) = finish_traced(
        workload, class, args.seed, &traced, &untraced, &outside, &mut notes,
    )?;
    Ok(Outcome {
        correct: correct && ok && tally.failed == 0,
        tally,
        metrics,
        notes,
    })
}

/// Setup-only server starts measured ahead of the rounds.
const SERVE_SETUPS: usize = 32;

fn run_serve_workload(args: &Args) -> Result<Outcome, String> {
    let class = args.seed % VARIANTS;
    let want = Expected::committed()
        .get("serve-mixed", class)
        .map(|e| e.digest.clone());
    let mut notes = vec![format!(
        "serve-mixed: seed {} -> input class {class}, {} clients x {} submissions",
        args.seed,
        serve::CLIENTS,
        serve::SUBMISSIONS / serve::CLIENTS
    )];
    let mut tally = Tally::default();
    let mut correct = true;
    let check = |r: &serve::Round, tally: &mut Tally| {
        let ok = r.replies_agree && want.as_deref() == Some(r.digest.as_str());
        tally.add(r.attempted, r.failed, ok);
        ok
    };
    let mut setups = Vec::new();
    for _ in 0..SERVE_SETUPS {
        setups.push(serve::setup_only()?);
    }
    let deadline = now() + args.seconds * 1_000_000_000;

    if !args.trace {
        let rounds = repeat_until(deadline, 1, || {
            let (r, heap) = heap_of(|| serve::run_round(class, args.seed, false));
            let r = r?;
            correct &= check(&r, &mut tally);
            setups.push(r.setup);
            Ok(Measured {
                wall: r.wall,
                heap,
                latencies: r.latencies,
                units: r.attempted - r.failed,
            })
        })?;
        notes.push(format!("failed_frac={:.4}", tally.failed_frac()));
        return Ok(Outcome {
            correct: correct && tally.failed == 0,
            tally,
            metrics: end_to_end(&setups, &rounds, 1, "jobs", &mut notes),
            notes,
        });
    }

    // Untraced and traced rounds alternate, as for the sweeps.
    let mut untraced = Vec::new();
    let traced = repeat_until(deadline, 1, || {
        let base = serve::run_round(class, args.seed, false)?;
        spans::start_recording();
        let t0 = now();
        let round = serve::run_round(class, args.seed, true);
        let t1 = now();
        let spans = spans::stop_recording();
        let round = round?;
        correct &= check(&base, &mut tally);
        let same = round.digest == base.digest;
        if !same {
            notes.push("traced served reports differ from the untraced round".to_string());
        }
        correct &= same && check(&round, &mut tally);
        untraced.push(Measured {
            wall: base.wall,
            heap: 0,
            latencies: base.latencies,
            units: base.attempted - base.failed,
        });
        let totals = self_totals(&spans);
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
        let total_us = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e3);
        let per = |name: &str| {
            let n = count(name);
            if n > 0.0 {
                total_us(name) / n
            } else {
                0.0
            }
        };
        let run_job: u64 = spans
            .iter()
            .filter(|s| s.name == "serve.run_job")
            .map(Span::dur)
            .sum();
        let dedup_ms: Vec<f64> = round.dedup_rtts.iter().map(|&l| ms(l)).collect();
        let extra = [
            ("serve.dedup_rtt_ms", median(&dedup_ms)),
            ("serve.frame_encode_us", per("serve.frame_encode")),
            ("serve.frame_decode_us", per("serve.frame_decode")),
            (
                "serve.dedup_frac",
                round.dedup_hits as f64 / round.attempted as f64,
            ),
            ("serve.busy_frac", run_job as f64 / round.wall.max(1) as f64),
        ];
        Ok(TracedRep {
            values: layer_values(&spans, &round.counters, false, (t0, t1), &extra),
            structural: round.structural(),
            spans,
            cells: Vec::new(),
            wall: round.wall,
        })
    })?;
    let (p99, p99_note) = job_percentile(&untraced, 1, 0.99, "jobs");
    let outside = [
        ("furbys_miss_red_pct", 0.0, "simulated".to_string()),
        ("est_error_max", 0.0, "simulated".to_string()),
        ("job_p99_ms", p99, format!("{p99_note}, untraced")),
    ];
    let (metrics, ok) = finish_traced(
        "serve-mixed",
        class,
        args.seed,
        &traced,
        &untraced,
        &outside,
        &mut notes,
    )?;
    Ok(Outcome {
        correct: correct && ok && tally.failed == 0,
        tally,
        metrics,
        notes,
    })
}

fn run_workload(workload: &str, args: &Args) -> Result<Outcome, String> {
    if workload == "serve-mixed" {
        run_serve_workload(args)
    } else {
        run_sweep_workload(workload, args)
    }
}

/// Regenerates `expected.json`: for every workload and input class, the
/// digest of one untraced run and the structural counts of one traced run.
fn record() -> Result<(), String> {
    let mut entries = Vec::new();
    for workload in WORKLOADS {
        for class in 0..VARIANTS {
            let (d, structural) = if let Some(spec) = sweep_spec(workload, class) {
                let rep = untraced_rep(&spec);
                let (json, counters) = traced_sweep(&spec, SWEEP_JOBS, false, &mut Vec::new());
                if json != rep.json {
                    return Err(format!("{workload}/{class}: traced report differs"));
                }
                (digest::digest(rep.json.as_bytes()), counters.structural())
            } else {
                let round = serve::run_round(class, class, true)?;
                if !round.replies_agree || round.failed > 0 {
                    return Err(format!("{workload}/{class}: served replies disagree"));
                }
                (round.digest.clone(), round.structural())
            };
            println!("{workload} class {class}: {d} {structural:?}");
            entries.push(Entry {
                workload: workload.to_string(),
                class,
                digest: d,
                structural,
            });
        }
    }
    std::fs::write(digest::EXPECTED_PATH, Expected::render(&entries))
        .map_err(|e| format!("writing {}: {e}", digest::EXPECTED_PATH))?;
    println!("wrote {}", digest::EXPECTED_PATH);
    Ok(())
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".to_string(), Json::F64(value)),
        ("unit".to_string(), Json::Str(unit.to_string())),
    ])
}

fn print_outcome(workload: &str, o: &Outcome) {
    for n in &o.notes {
        println!("# {n}");
    }
    for m in &o.metrics {
        println!(
            "{workload:<16} {:<30} {:>14.6} {:<6} ({})",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "{workload:<16} correct={} attempted={} failed={} failed_frac={:.4}",
        o.correct,
        o.tally.attempted,
        o.tally.failed,
        o.tally.failed_frac()
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.record {
        if let Err(e) = record() {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    let mut tally = Tally::default();
    let mut fields = Vec::new();
    for name in &names {
        let outcome = match run_workload(name, &args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                std::process::exit(1);
            }
        };
        print_outcome(name, &outcome);
        correct &= outcome.correct;
        tally.attempted += outcome.tally.attempted;
        tally.failed += outcome.tally.failed;
        for m in &outcome.metrics {
            let key = if names.len() == 1 {
                m.name.to_string()
            } else {
                format!("{name}/{}", m.name)
            };
            fields.push((key, metric_json(m.value, m.unit)));
        }
    }
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::U64(tally.attempted)),
        ("failed".to_string(), Json::U64(tally.failed)),
        ("metrics".to_string(), Json::Obj(fields)),
    ]);
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reps(count: usize, per_rep: u64) -> Vec<Measured> {
        (0..count)
            .map(|r| Measured {
                wall: 1,
                heap: 1,
                latencies: (0..per_rep)
                    .map(|i| (i * 7 + r as u64) % per_rep * 1_000_000)
                    .collect(),
                units: per_rep,
            })
            .collect()
    }

    #[test]
    fn job_percentiles_do_not_move_with_the_number_of_repetitions() {
        // 34 cells a repetition: ten or twenty repetitions report the same
        // percentile of the same sample size, set per block of 8.
        let (few, few_note) = job_percentile(&reps(10, 34), 8, 0.99, "cells");
        let (many, many_note) = job_percentile(&reps(21, 34), 8, 0.99, "cells");
        assert!(
            few_note.starts_with("p96.3 of n=272 cells per block of 8"),
            "{few_note}"
        );
        assert!(
            many_note.starts_with("p96.3 of n=272 cells per block of 8"),
            "{many_note}"
        );
        assert!(few_note.ends_with("median of 1 blocks"));
        assert!(many_note.ends_with("median of 2 blocks"));
        assert!((few - many).abs() < 1e-12);
        // Fewer repetitions than one block give no percentile.
        assert_eq!(
            job_percentile(&reps(3, 34), 8, 0.5, "cells").1,
            "no samples"
        );
    }
}
