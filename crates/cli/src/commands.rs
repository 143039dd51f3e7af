//! Subcommand implementations.

use crate::args::{ArgError, Args, CheckFailed};
use std::error::Error;
use std::path::Path;
use uopcache_bench::policies::{PolicyId, PolicyRegistry, ProfileInputs};
use uopcache_bench::sweep::{self, run_sweep, SweepSpec, SAMPLE_EVERY, SCHEMA_VERSION};
use uopcache_bench::Table;
use uopcache_core::{Flack, FurbysPipeline, OracleKind};
use uopcache_exec::TaskKey;
use uopcache_model::json::Json;
use uopcache_model::{FrontendConfig, LookupTrace};
use uopcache_obs::{Event, MetricsRecorder, SamplingRecorder, StreamDigest};
use uopcache_power::EnergyModel;
use uopcache_serve::{Client, Router, RouterConfig, Server, ServerConfig};
use uopcache_sim::Frontend;
use uopcache_trace::{
    build_trace, build_trace_scaled, io as trace_io, AppId, InputVariant, TraceStats,
};

/// Top-level usage text.
pub const USAGE: &str = "\
usage: uopcache <command> [options]

commands:
  apps                              list the Table II applications
  gen        --app A [--variant N] [--len N] [--scale N] -o FILE
                                    generate a trace (--scale stretches it
                                    by phase-structured repetition + drift)
  stats      -i FILE                trace statistics
  simulate   -i FILE [--policy P] [--config zen3|zen4] [--entries N] [--ways N]
                                    run one policy through the timed frontend
  profile    -i FILE [--oracle flack|belady|foo] -o HINTS.json
                                    produce FURBYS weight hints (steps 2-6)
  compare    -i FILE [--config ...] compare every policy (incl. offline bounds)
  sweep      [--apps A,B] [--policies P,Q] [--config zen3|zen4] [--entries N]
             [--ways N] [--variant N] [--len N] [--scale N] [--sample N]
             [--jobs N] [--json FILE] [--metrics]
                                    run an (app x policy) sweep through the
                                    parallel engine; deterministic for any
                                    --jobs value, canonical JSON via --json;
                                    --metrics adds sampled events, histograms
                                    and merged totals to every cell;
                                    --sample N switches every cell to
                                    representative-interval sampling with
                                    N-uop intervals (see `sample`)
  sample     [sweep flags] [--interval N] [--scale N] [--check] [--gate X]
             [--jobs N] [--json FILE]
                                    run a representative-interval (SimPoint
                                    style) sampled sweep: slice the trace
                                    into N-uop intervals, cluster their BBV
                                    fingerprints, simulate one interval per
                                    cluster and reconstruct every cell with
                                    a reported error bound; --check reruns
                                    the full simulation and gates the true
                                    error against the bound and --gate
                                    (default 0.02); --scale stretches the
                                    trace by phase-structured repetition
  inspect    --app A [--policy P] [--config zen3|zen4] [--entries N] [--ways N]
             [--variant N] [--len N] [--sample K] [--events N] [--json FILE]
                                    replay one sweep cell with full
                                    observability: decision events, counters
                                    and histograms (ASCII tables or JSON)
  identify   --app A [--variant N] [--len N] [--config zen3|zen4] [--entries N]
             [--ways N] [--digest HEX] [--json FILE]
                                    replay one probe trace through every
                                    registered policy and print each
                                    decision-stream digest; with --digest,
                                    name the policy that produced the
                                    captured stream (ambiguity is reported,
                                    never guessed away)
  bench-hotpath [--quick] [--config zen3|zen4] [--entries N] [--ways N]
             [--apps A,B] [--policies P,Q] [--variant N] [--len N]
             [--warmup N] [--passes N] [--json FILE] [--baseline FILE]
             [--gate X]
                                    measure kernel throughput (lookups/sec)
                                    and allocations-per-lookup per app x
                                    policy; --baseline gates against a
                                    committed BENCH_hotpath.json (default
                                    gate 3x); UPDATE_BENCH=1 rewrites the
                                    baseline instead of gating
  experiment ID|all [--quick] [--jobs N]
                                    regenerate one paper table/figure; `all`
                                    writes the whole EXPERIMENTS.md document
                                    to stdout (progress on stderr) and exits
                                    nonzero if any experiment failed
  list-experiments                  show all experiment ids
  audit      [--root DIR] [--allowlist FILE] [--lint-only] [--json] [--graph]
                                    run the workspace lint pass (token rules
                                    plus call-graph alloc-reachability,
                                    determinism, and concurrency analyses)
                                    and the policy-conformance checks;
                                    --json emits canonical diagnostics,
                                    --graph dumps the call graph
  serve      [--addr H:P] [--queue N] [--shards N] [--jobs N]
             [--job-timeout-ms N] [--retention N]
                                    run the simulation daemon: a nonblocking
                                    event loop in front of N worker shards
                                    (bounded queues, 429-style backpressure,
                                    panic isolation, graceful drain);
                                    results are byte-identical to `sweep`
  route      --backends H:P,H:P[,..] [--addr H:P] [--queue N] [--replicas N]
             [--health-interval-ms N] [--retry-rounds N] [--retention N]
                                    run a consistent-hash router in front of
                                    several daemons: same client protocol,
                                    health-checked backends, busy-aware
                                    spillover and drain-aware failover
  submit     --addr H:P [sweep flags] [--id ID] [--timeout-ms N] [--no-wait]
             [--json FILE]          submit a sweep job to a daemon; waits and
                                    writes the canonical report by default
  status     --addr H:P --job ID    query one job's state on a daemon
  stats      --addr H:P             fetch a daemon's stats frame (counters,
                                    queue gauges, latency histograms)
  shutdown   --addr H:P             ask a daemon to drain and exit

policies: lru srrip ship++ mockingjay ghrp thermometer furbys  (online roster)
          fifo mru lfu clock slru 2q arc car set-dueling random (zoo + controls,
                                    sweep/inspect/identify only)";

/// Runs the command line. Returns an error message for the user on failure.
///
/// # Errors
///
/// Any argument, I/O or lookup failure, formatted for display.
pub fn dispatch(argv: &[String]) -> Result<(), Box<dyn Error>> {
    let args = Args::parse(argv);
    match args.positional(0) {
        Some("apps") => cmd_apps(),
        Some("gen") => cmd_gen(&args),
        Some("stats") => {
            if args.get("addr").is_some() {
                cmd_server_stats(&args)
            } else {
                cmd_stats(&args)
            }
        }
        Some("simulate") => cmd_simulate(&args),
        Some("profile") => cmd_profile(&args),
        Some("compare") => cmd_compare(&args),
        Some("sweep") => cmd_sweep(&args),
        Some("sample") => cmd_sample(&args),
        Some("inspect") => cmd_inspect(&args),
        Some("identify") => cmd_identify(&args),
        Some("bench-hotpath") => cmd_bench_hotpath(&args),
        Some("experiment") => cmd_experiment(&args),
        Some("list-experiments") => cmd_list_experiments(),
        Some("audit") => cmd_audit(&args),
        Some("serve") => cmd_serve(&args),
        Some("route") => cmd_route(&args),
        Some("submit") => cmd_submit(&args),
        Some("status") => cmd_status(&args),
        Some("shutdown") => cmd_shutdown(&args),
        Some(other) => Err(Box::new(ArgError(format!("unknown command {other:?}")))),
        None => Err(Box::new(ArgError("no command given".into()))),
    }
}

fn parse_app(name: &str) -> Result<AppId, ArgError> {
    AppId::ALL
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| ArgError(format!("unknown app {name:?} (try `uopcache apps`)")))
}

fn parse_config(args: &Args) -> Result<FrontendConfig, ArgError> {
    let mut cfg = match args.get("config").unwrap_or("zen3") {
        "zen3" => FrontendConfig::zen3(),
        "zen4" => FrontendConfig::zen4(),
        other => return Err(ArgError(format!("unknown config {other:?}"))),
    };
    cfg.uop_cache = cfg
        .uop_cache
        .with_entries(args.get_parse("entries", cfg.uop_cache.entries)?)
        .with_ways(args.get_parse("ways", cfg.uop_cache.ways)?);
    cfg.uop_cache
        .validate()
        .map_err(|e| ArgError(e.to_string()))?;
    Ok(cfg)
}

fn load_trace(args: &Args) -> Result<LookupTrace, Box<dyn Error>> {
    let path = args.require("input")?;
    Ok(trace_io::load(Path::new(path))?)
}

fn cmd_apps() -> Result<(), Box<dyn Error>> {
    let mut t = Table::new(
        "Table II applications",
        &["app", "branch MPKI", "description"],
    );
    for app in AppId::ALL {
        t.row(&[
            app.name().to_string(),
            format!("{:.2}", app.branch_mpki()),
            app.description().to_string(),
        ]);
    }
    t.print();
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), Box<dyn Error>> {
    let app = parse_app(args.require("app")?)?;
    let variant = InputVariant::new(args.get_parse("variant", 0u32)?);
    let len = args.get_parse("len", 100_000usize)?;
    let scale = args.get_parse("scale", 1u64)?;
    sweep::check_trace_size(len, scale).map_err(ArgError)?;
    let out = args.require("output")?;
    let trace = build_trace_scaled(app, variant, len, scale);
    trace_io::save(Path::new(out), &trace)?;
    println!(
        "wrote {} accesses ({} uops) for {app} {variant} to {out}",
        trace.len(),
        trace.total_uops()
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), Box<dyn Error>> {
    let trace = load_trace(args)?;
    let s = TraceStats::from_trace(&trace, 8);
    let mut t = Table::new("trace statistics", &["metric", "value"]);
    t.row(&["accesses".into(), format!("{}", s.accesses)]);
    t.row(&["micro-ops".into(), format!("{}", s.total_uops)]);
    t.row(&["mean uops per PW".into(), format!("{:.2}", s.mean_pw_uops)]);
    t.row(&[
        "distinct start addresses".into(),
        format!("{}", s.unique_starts),
    ]);
    t.row(&[
        "footprint (entries)".into(),
        format!("{}", s.footprint_entries),
    ]);
    t.row(&[
        "reuse distance > 30".into(),
        format!("{:.1}%", s.reuse_gt_30 * 100.0),
    ]);
    t.row(&[
        "implied branch MPKI".into(),
        format!("{:.2}", s.implied_mpki),
    ]);
    for (i, count) in s.entry_histogram.iter().enumerate() {
        if *count > 0 {
            t.row(&[
                format!("PWs of {} entr{}", i + 1, if i == 0 { "y" } else { "ies" }),
                format!("{count}"),
            ]);
        }
    }
    t.print();
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), Box<dyn Error>> {
    let trace = load_trace(args)?;
    let cfg = parse_config(args)?;
    let id = PolicyRegistry::online()
        .resolve(args.get("policy").unwrap_or("lru"))
        .map_err(ArgError)?;
    let profiles = ProfileInputs::build(&cfg, &trace, &[id]);
    let result = Frontend::builder(cfg)
        .policy(id.build(&cfg, &profiles, 0))
        .build()
        .run(&trace);
    let model = EnergyModel::zen3_22nm(&cfg);
    let b = model.evaluate(&result);

    let mut t = Table::new(
        &format!("{} on {} accesses", id.name(), trace.len()),
        &["metric", "value"],
    );
    t.row(&[
        "uop miss rate".into(),
        format!("{:.2}%", result.uopc.uop_miss_rate() * 100.0),
    ]);
    t.row(&[
        "PW hits / partial / misses".into(),
        format!(
            "{} / {} / {}",
            result.uopc.pw_hits, result.uopc.pw_partial_hits, result.uopc.pw_misses
        ),
    ]);
    t.row(&[
        "insertions (bypassed)".into(),
        format!(
            "{} ({:.1}%)",
            result.uopc.insertions,
            result.uopc.bypass_rate() * 100.0
        ),
    ]);
    t.row(&["IPC".into(), format!("{:.3}", result.ipc())]);
    t.row(&["cycles".into(), format!("{}", result.events.cycles)]);
    t.row(&["energy (arb.)".into(), format!("{:.1}", b.total())]);
    t.row(&["PPW (insts/energy)".into(), format!("{:.3}", b.ppw())]);
    t.print();
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), Box<dyn Error>> {
    let trace = load_trace(args)?;
    let out = args.require("output")?;
    let mut pipeline = FurbysPipeline::new(parse_config(args)?);
    pipeline.oracle = match args.get("oracle").unwrap_or("flack") {
        "flack" => OracleKind::Flack,
        "belady" => OracleKind::Belady,
        "foo" => OracleKind::Foo,
        other => return Err(Box::new(ArgError(format!("unknown oracle {other:?}")))),
    };
    let profile = pipeline.profile(&trace);
    std::fs::write(out, profile.hints.to_json()?)?;
    println!(
        "profiled {} start addresses with the {} oracle into {} weight groups -> {out}",
        profile.hints.len(),
        pipeline.oracle.label(),
        profile.hints.groups()
    );
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), Box<dyn Error>> {
    let trace = load_trace(args)?;
    let cfg = parse_config(args)?;
    let profiles = ProfileInputs::build(&cfg, &trace, &PolicyId::ONLINE);
    let mut t = Table::new(
        "policy comparison",
        &["policy", "miss rate", "vs LRU", "IPC", "bypassed"],
    );
    let lru = Frontend::builder(cfg)
        .policy(PolicyId::Lru.build(&cfg, &profiles, 0))
        .build()
        .run(&trace);
    for id in PolicyId::ONLINE {
        let r = Frontend::builder(cfg)
            .policy(id.build(&cfg, &profiles, 0))
            .build()
            .run(&trace);
        t.row(&[
            id.to_string(),
            format!("{:.2}%", r.uopc.uop_miss_rate() * 100.0),
            format!("{:+.2}%", r.uopc.miss_reduction_vs(&lru.uopc)),
            format!("{:.3}", r.ipc()),
            format!("{:.1}%", r.uopc.bypass_rate() * 100.0),
        ]);
    }
    // Offline bounds.
    let mut sync_lru =
        uopcache_cache::UopCache::new(cfg.uop_cache, Box::new(uopcache_cache::LruPolicy::new()));
    let sync_stats = uopcache_policies::run_trace(&mut sync_lru, &trace);
    for variant in [Flack::ablation(false, false, false), Flack::new()] {
        let s = variant.run(&trace, &cfg.uop_cache).stats;
        t.row(&[
            format!("{} (offline)", variant.label()),
            format!("{:.2}%", s.uop_miss_rate() * 100.0),
            format!("{:+.2}%", s.miss_reduction_vs(&sync_stats)),
            "-".into(),
            format!("{:.1}%", s.bypass_rate() * 100.0),
        ]);
    }
    t.print();
    Ok(())
}

/// Builds a [`SweepSpec`] from the shared sweep flags (`--apps`,
/// `--policies`, `--config`, `--entries`, `--ways`, `--variant`, `--len`,
/// `--metrics`, `--sample`, `--scale`) — the same parsing for `sweep`
/// (offline) and `submit` (served), so both paths describe identical work
/// and pass the same [`SweepSpec::validate`] ceilings.
fn spec_from_args(args: &Args) -> Result<SweepSpec, Box<dyn Error>> {
    let cfg = parse_config(args)?;
    let config_name = args.get("config").unwrap_or("zen3").to_string();
    let apps = match args.get("apps") {
        None => AppId::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(parse_app)
            .collect::<Result<Vec<_>, _>>()?,
    };
    let registry = PolicyRegistry::all();
    let policies = match args.get("policies") {
        None => PolicyId::ONLINE
            .iter()
            .map(|p| p.name().to_string())
            .collect(),
        Some(list) => list
            .split(',')
            .map(|p| {
                registry
                    .resolve(p)
                    .map(|id| id.name().to_string())
                    .map_err(ArgError)
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let sample = match args.get("sample") {
        None => None,
        Some(_) => {
            let v = args.get_parse("sample", 0u64)?;
            if v == 0 {
                return Err(Box::new(ArgError(
                    "--sample must be at least 1 micro-op".into(),
                )));
            }
            Some(v)
        }
    };
    let spec = SweepSpec {
        cfg,
        config_name,
        apps,
        policies,
        variant: args.get_parse("variant", 0u32)?,
        len: args.get_parse("len", 100_000usize)?,
        metrics: args.has("metrics"),
        sample,
        scale: args.get_parse("scale", 1u64)?,
    };
    spec.validate().map_err(ArgError)?;
    Ok(spec)
}

/// Applies `--jobs N`, when given, as the process-wide worker count.
fn apply_jobs(args: &Args) -> Result<(), ArgError> {
    if args.get("jobs").is_some() {
        sweep::set_jobs(args.get_parse("jobs", 0)?);
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), Box<dyn Error>> {
    let spec = spec_from_args(args)?;
    apply_jobs(args)?;
    let report = run_sweep(&spec, &sweep::engine());

    let mut t = Table::new(
        &format!(
            "sweep: {} apps x {} policies on {} ({} jobs, {:.1?})",
            spec.apps.len(),
            spec.policies.len(),
            spec.config_name,
            sweep::current_jobs(),
            report.elapsed,
        ),
        &["app", "policy", "hit rate", "MPKI", "IPC", "evictions"],
    );
    for c in &report.cells {
        t.row(&[
            c.app.name().to_string(),
            c.policy.clone(),
            format!("{:.2}%", c.hit_rate() * 100.0),
            format!("{:.3}", c.mpki()),
            format!("{:.3}", c.result.ipc()),
            format!("{}", c.result.uopc.evicted_pws),
        ]);
    }
    t.print();

    // When the set-dueling meta-policy is in the roster, summarise where it
    // lands per app: against the worst and best static policy in this sweep
    // and against the FLACK offline bound. FLACK replays synchronously
    // (insert-on-miss), so its bound is indicative rather than cycle-exact
    // against the timed cells. Plaintext only — the canonical JSON report is
    // unchanged.
    let duel_name = PolicyId::SetDueling.name();
    if spec.policies.iter().any(|p| p == duel_name) {
        let mut d = Table::new(
            "set-dueling placement (uop hit rate; FLACK is the offline bound)",
            &[
                "app",
                "set-dueling",
                "worst static",
                "best static",
                "FLACK",
                "gap to FLACK",
            ],
        );
        for app in &spec.apps {
            let Some(duel) = report
                .cells
                .iter()
                .find(|c| c.app == *app && c.policy == duel_name)
            else {
                continue;
            };
            let statics: Vec<f64> = report
                .cells
                .iter()
                .filter(|c| c.app == *app && c.policy != duel_name)
                .map(|c| c.hit_rate())
                .collect();
            let worst = statics.iter().copied().fold(f64::INFINITY, f64::min);
            let best = statics.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let trace = build_trace(*app, InputVariant::new(spec.variant), spec.len);
            let flack = Flack::new().run(&trace, &spec.cfg.uop_cache).stats;
            let flack_hit = 1.0 - flack.uop_miss_rate();
            let duel_hit = duel.hit_rate();
            let pct = |r: f64| format!("{:.2}%", r * 100.0);
            d.row(&[
                app.name().to_string(),
                pct(duel_hit),
                if statics.is_empty() {
                    "-".into()
                } else {
                    pct(worst)
                },
                if statics.is_empty() {
                    "-".into()
                } else {
                    pct(best)
                },
                pct(flack_hit),
                format!("{:+.2}pp", (flack_hit - duel_hit) * 100.0),
            ]);
        }
        d.print();
    }

    for f in &report.failures {
        eprintln!("{f}");
    }
    if let Some(path) = args.get("json") {
        std::fs::write(path, report.to_json())?;
        println!("wrote canonical JSON to {path}");
    }
    if report.failures.is_empty() {
        Ok(())
    } else {
        Err(Box::new(ArgError(format!(
            "{} sweep task(s) failed",
            report.failures.len()
        ))))
    }
}

/// Runs a representative-interval sampled sweep and renders the plan and
/// the reconstructed cells. With `--check`, also runs the *full* simulation
/// of the same spec and gates the true per-cell hit-rate error against both
/// the cell's reported `est_error` bound and `--gate` (default 0.02
/// absolute), reporting the wall-clock speedup alongside.
fn cmd_sample(args: &Args) -> Result<(), Box<dyn Error>> {
    let mut spec = spec_from_args(args)?;
    let interval = match args.get("interval") {
        Some(_) => args.get_parse("interval", 0u64)?,
        None => spec.sample.unwrap_or(20_000),
    };
    if interval == 0 {
        return Err(Box::new(ArgError(
            "--interval must be at least 1 micro-op".into(),
        )));
    }
    spec.sample = Some(interval);
    apply_jobs(args)?;
    let report = run_sweep(&spec, &sweep::engine());

    let mut t = Table::new(
        &format!(
            "sampled sweep: {} apps x {} policies, {interval}-uop intervals ({:.1?})",
            spec.apps.len(),
            spec.policies.len(),
            report.elapsed,
        ),
        &[
            "app",
            "policy",
            "intervals",
            "k",
            "hit rate",
            "MPKI",
            "est error",
        ],
    );
    for c in &report.cells {
        let s = c.sampled.as_ref().expect("sampled sweep fills sampled");
        t.row(&[
            c.app.name().to_string(),
            c.policy.clone(),
            format!("{}", s.intervals),
            format!("{}", s.k),
            format!("{:.2}%", c.hit_rate() * 100.0),
            format!("{:.3}", c.mpki()),
            format!("{:.2}pp", s.est_error * 100.0),
        ]);
    }
    t.print();
    for f in &report.failures {
        eprintln!("{f}");
    }

    if let Some(path) = args.get("json") {
        std::fs::write(path, report.to_json())?;
        println!("wrote canonical JSON to {path}");
    }

    if args.has("check") {
        let gate: f64 = args.get_parse("gate", 0.02f64)?;
        let mut full_spec = spec.clone();
        full_spec.sample = None;
        let full = run_sweep(&full_spec, &sweep::engine());
        let mut violations = 0usize;
        let mut t = Table::new(
            "sampled vs full simulation (uop hit rate)",
            &[
                "app", "policy", "full", "sampled", "true err", "bound", "ok",
            ],
        );
        for c in &report.cells {
            // Cell keys do not encode the sampling mode, so the full run's
            // cell for the same (app, policy) carries the identical key.
            let Some(f) = full.cells.iter().find(|f| f.key == c.key) else {
                violations += 1;
                continue;
            };
            let err = (c.hit_rate() - f.hit_rate()).abs();
            let bound = c.sampled.as_ref().map_or(0.0, |s| s.est_error);
            let ok = err <= bound && err <= gate;
            if !ok {
                violations += 1;
            }
            t.row(&[
                c.app.name().to_string(),
                c.policy.clone(),
                format!("{:.2}%", f.hit_rate() * 100.0),
                format!("{:.2}%", c.hit_rate() * 100.0),
                format!("{:.2}pp", err * 100.0),
                format!("{:.2}pp", bound * 100.0),
                if ok { "yes" } else { "NO" }.to_string(),
            ]);
        }
        t.print();
        let speedup = full.elapsed.as_secs_f64() / report.elapsed.as_secs_f64().max(1e-9);
        println!(
            "full {:.1?} vs sampled {:.1?}: {speedup:.1}x speedup",
            full.elapsed, report.elapsed
        );
        if violations > 0 {
            return Err(Box::new(CheckFailed(format!(
                "{violations} cell(s) exceeded the error bound or the {gate} gate"
            ))));
        }
        println!("check passed: every cell within its bound and the {gate} gate");
    }

    if report.failures.is_empty() {
        Ok(())
    } else {
        Err(Box::new(ArgError(format!(
            "{} sampled task(s) failed",
            report.failures.len()
        ))))
    }
}

/// Runs the hot-path benchmark harness: kernel throughput (lookups/sec) and
/// allocations-per-lookup per `(app, policy)` cell, with warmup and variance
/// reporting. With `--baseline FILE` the run gates against a committed
/// baseline (generously — default 3x — since timing is machine-dependent);
/// with `UPDATE_BENCH=1` in the environment it rewrites that baseline
/// instead.
fn cmd_bench_hotpath(args: &Args) -> Result<(), Box<dyn Error>> {
    use uopcache_bench::hotpath::{self, HotpathSpec};

    let mut spec = if args.has("quick") {
        HotpathSpec::quick()
    } else {
        HotpathSpec::full()
    };
    spec.cfg = parse_config(args)?;
    spec.config_name = args.get("config").unwrap_or("zen3").to_string();
    if let Some(list) = args.get("apps") {
        spec.apps = list
            .split(',')
            .map(parse_app)
            .collect::<Result<Vec<_>, _>>()?;
    }
    if let Some(list) = args.get("policies") {
        let registry = PolicyRegistry::all();
        spec.policies = list
            .split(',')
            .map(|p| {
                registry
                    .resolve(p)
                    .map(|id| id.name().to_string())
                    .map_err(ArgError)
            })
            .collect::<Result<Vec<_>, _>>()?;
    }
    spec.variant = args.get_parse("variant", spec.variant)?;
    spec.len = args.get_parse("len", spec.len)?;
    spec.warmup_passes = args.get_parse("warmup", spec.warmup_passes)?;
    spec.measured_passes = args.get_parse("passes", spec.measured_passes)?;
    if spec.measured_passes == 0 {
        return Err(Box::new(ArgError("--passes must be at least 1".into())));
    }

    let report = hotpath::run_hotpath(&spec);
    report.table().print();
    if !report.alloc_counting {
        eprintln!("note: counting allocator not installed; allocs/lookup unavailable");
    }
    let json = report.to_json();
    if let Some(path) = args.get("json") {
        std::fs::write(path, &json)?;
        println!("wrote canonical JSON to {path}");
    }

    if let Some(path) = args.get("baseline") {
        if std::env::var("UPDATE_BENCH").is_ok() {
            std::fs::write(path, &json)?;
            println!("updated baseline {path}");
            return Ok(());
        }
        let gate: f64 = args.get_parse("gate", 3.0f64)?;
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read baseline {path}: {e}")))?;
        let regressions =
            hotpath::gate_against_baseline(&json, &baseline, gate).map_err(ArgError)?;
        if regressions.is_empty() {
            println!("baseline gate passed ({gate}x, {path})");
        } else {
            for r in &regressions {
                eprintln!("gate failure: {r}");
            }
            return Err(Box::new(ArgError(format!(
                "{} cell(s) failed the {gate}x baseline gate",
                regressions.len()
            ))));
        }
    }
    Ok(())
}

/// Replays exactly one sweep cell — same task key, same seed — with a
/// metrics recorder attached, and renders the decision stream and derived
/// metrics as ASCII tables or canonical JSON. Output is a pure function of
/// the flags (the worker count plays no part), so two invocations always
/// produce byte-identical JSON.
fn cmd_inspect(args: &Args) -> Result<(), Box<dyn Error>> {
    let app = parse_app(args.require("app")?)?;
    let cfg = parse_config(args)?;
    let config_name = args.get("config").unwrap_or("zen3").to_string();
    let id = PolicyRegistry::all()
        .resolve(args.get("policy").unwrap_or("lru"))
        .map_err(ArgError)?;
    let variant = args.get_parse("variant", 0u32)?;
    let len = args.get_parse("len", 20_000usize)?;
    let sample = args.get_parse("sample", SAMPLE_EVERY)?;
    let max_events = args.get_parse("events", 32usize)?;

    // The exact key `sweep` would give this cell, so the seed (and with it a
    // seeded policy and the sampled event subset) matches the sweep's.
    let key = TaskKey::new([
        config_name.as_str(),
        &format!("v{variant}"),
        &format!("len{len}"),
        app.name(),
        id.name(),
    ]);
    let seed = key.seed();
    let trace = build_trace(app, InputVariant::new(variant), len);
    let profiles = ProfileInputs::build(&cfg, &trace, &[id]);
    let mut frontend = Frontend::builder(cfg)
        .policy(id.build(&cfg, &profiles, seed))
        .recorder(MetricsRecorder::new(Box::new(SamplingRecorder::new(
            seed, sample,
        ))))
        .build();
    let result = frontend.run(&trace);
    let policy_state = frontend.uop_cache().policy().introspect();
    let recorder = frontend
        .take_recorder()
        .expect("inspect installs a recorder");
    let metrics = recorder.metrics().cloned().unwrap_or_default();
    let offered = recorder.offered();
    let mut events = recorder.events();
    events.truncate(max_events);

    if let Some(path) = args.get("json") {
        let json = Json::Obj(vec![
            ("schema_version".to_string(), Json::U64(SCHEMA_VERSION)),
            ("kind".to_string(), Json::Str("inspect".to_string())),
            ("key".to_string(), Json::Str(key.to_string())),
            ("seed".to_string(), Json::U64(seed)),
            ("app".to_string(), Json::Str(app.name().to_string())),
            ("policy".to_string(), Json::Str(id.name().to_string())),
            ("sample_every".to_string(), Json::U64(sample)),
            ("events_offered".to_string(), Json::U64(offered)),
            (
                "summary".to_string(),
                Json::Obj(vec![
                    (
                        "uops_requested".to_string(),
                        Json::U64(result.uopc.uops_requested),
                    ),
                    ("uops_hit".to_string(), Json::U64(result.uopc.uops_hit)),
                    (
                        "uops_missed".to_string(),
                        Json::U64(result.uopc.uops_missed),
                    ),
                    ("insertions".to_string(), Json::U64(result.uopc.insertions)),
                    ("bypasses".to_string(), Json::U64(result.uopc.bypasses)),
                    ("evictions".to_string(), Json::U64(result.uopc.evicted_pws)),
                    ("cycles".to_string(), Json::U64(result.events.cycles)),
                    (
                        "retired_instructions".to_string(),
                        Json::U64(result.events.retired_instructions),
                    ),
                ]),
            ),
            (
                "events".to_string(),
                Json::Arr(events.iter().map(Event::to_json).collect()),
            ),
            ("metrics".to_string(), metrics.to_json()),
            (
                "policy_state".to_string(),
                policy_state.clone().unwrap_or(Json::Null),
            ),
        ]);
        std::fs::write(path, json.to_string())?;
        println!("wrote inspect JSON to {path}");
        return Ok(());
    }

    let mut t = Table::new(
        &format!("inspect: {} under {} ({key})", app.name(), id.name()),
        &["metric", "value"],
    );
    t.row(&["seed".into(), format!("{seed:#018x}")]);
    t.row(&[
        "uop miss rate".into(),
        format!("{:.2}%", result.uopc.uop_miss_rate() * 100.0),
    ]);
    t.row(&["insertions".into(), format!("{}", result.uopc.insertions)]);
    t.row(&["evictions".into(), format!("{}", result.uopc.evicted_pws)]);
    t.row(&["events offered".into(), format!("{offered}")]);
    t.row(&[
        format!("events sampled (1 in {sample})"),
        format!("{}", recorder.events().len()),
    ]);
    t.print();

    let mut c = Table::new("derived counters", &["counter", "value"]);
    for (name, v) in metrics.counters() {
        c.row(&[name.to_string(), format!("{v}")]);
    }
    c.print();

    let mut h = Table::new(
        "derived histograms",
        &["histogram", "samples", "sum", "mean"],
    );
    for (name, hist) in metrics.histograms() {
        h.row(&[
            name.to_string(),
            format!("{}", hist.total()),
            format!("{}", hist.sum()),
            format!("{:.2}", hist.mean()),
        ]);
    }
    h.print();

    let mut e = Table::new(
        &format!("first {} sampled events", events.len()),
        &[
            "cycle", "kind", "set", "slot", "start", "uops", "entries", "verdict",
        ],
    );
    for ev in &events {
        e.row(&[
            format!("{}", ev.cycle),
            ev.kind.as_str().to_string(),
            format!("{}", ev.set),
            ev.slot.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
            format!("{:#x}", ev.start),
            format!("{}", ev.uops),
            format!("{}", ev.entries),
            ev.verdict.as_str().to_string(),
        ]);
    }
    e.print();

    if let Some(state) = policy_state {
        println!("policy state ({}):", id.name());
        println!("{state}");
    }
    Ok(())
}

/// Replays one probe trace through every registered policy, digesting each
/// full decision stream (victim sequence included), and — when `--digest`
/// supplies a captured fingerprint — names the policy that produced it.
/// Collisions are reported as ambiguous rather than resolved by guesswork;
/// streams matching no registered policy come back unknown. Seeded policies
/// (Random) are digested under seed 0, so only runs captured under that
/// convention can match them.
fn cmd_identify(args: &Args) -> Result<(), Box<dyn Error>> {
    use uopcache_offline::identify::{digest_table, identify};

    let app = parse_app(args.require("app")?)?;
    let cfg = parse_config(args)?;
    let variant = args.get_parse("variant", 0u32)?;
    let len = args.get_parse("len", 4_000usize)?;
    let trace = build_trace(app, InputVariant::new(variant), len);
    let registry = PolicyRegistry::all();
    let profiles = ProfileInputs::build(&cfg, &trace, registry.ids());
    let candidates: Vec<(String, Box<dyn uopcache_cache::PwReplacementPolicy>)> = registry
        .ids()
        .iter()
        .map(|id| (id.name().to_string(), id.build(&cfg, &profiles, 0)))
        .collect();
    let table = digest_table(cfg.uop_cache, candidates, &trace);

    if let Some(hex) = args.get("digest") {
        let target: StreamDigest = hex.parse().map_err(ArgError)?;
        let verdict = identify(target, &table);
        println!("{verdict}");
        return Ok(());
    }

    if let Some(path) = args.get("json") {
        let json = Json::Obj(vec![
            ("schema_version".to_string(), Json::U64(SCHEMA_VERSION)),
            ("kind".to_string(), Json::Str("identify".to_string())),
            ("app".to_string(), Json::Str(app.name().to_string())),
            ("variant".to_string(), Json::U64(u64::from(variant))),
            ("len".to_string(), Json::U64(len as u64)),
            (
                "digests".to_string(),
                Json::Arr(
                    table
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("policy".to_string(), Json::Str(c.name.clone())),
                                ("digest".to_string(), Json::Str(c.digest.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, json.to_string())?;
        println!("wrote identify JSON to {path}");
        return Ok(());
    }

    let mut t = Table::new(
        &format!(
            "decision-stream digests: {} variant {variant}, {len} accesses",
            app.name()
        ),
        &["policy", "digest"],
    );
    for c in &table {
        t.row(&[c.name.clone(), c.digest.to_string()]);
    }
    t.print();
    Ok(())
}

fn cmd_experiment(args: &Args) -> Result<(), Box<dyn Error>> {
    let mut out = String::new();
    let result = experiment_output(args, &mut out);
    print!("{out}");
    result
}

/// Renders `experiment ID` (one experiment's tables) or `experiment all`
/// (the whole `EXPERIMENTS.md` document) into `out`. On a failed
/// experiment `out` still holds the full document, failure rows included.
fn experiment_output(args: &Args, out: &mut String) -> Result<(), Box<dyn Error>> {
    use uopcache_bench::experiments;

    apply_jobs(args)?;
    let id = args
        .positional(1)
        .ok_or_else(|| ArgError("experiment needs an id or `all` (see list-experiments)".into()))?;
    let quick = args.has("quick");
    if id == "all" {
        return experiments::render_report(&experiments::all(), quick, out).map_err(|failed| {
            let ids: Vec<&str> = failed.iter().map(|(id, _)| *id).collect();
            CheckFailed(format!("experiment(s) failed: {}", ids.join(", "))).into()
        });
    }
    let exp =
        experiments::by_id(id).ok_or_else(|| ArgError(format!("unknown experiment {id:?}")))?;
    out.push_str(&format!("{} — {}\n\n", exp.id, exp.caption));
    for table in (exp.run)(quick) {
        out.push_str(&table.render());
        out.push('\n');
    }
    Ok(())
}

fn cmd_audit(args: &Args) -> Result<(), Box<dyn Error>> {
    let root = args.get("root").unwrap_or(".").to_string();

    // `--graph`: dump the workspace call graph as canonical JSON and exit.
    if args.has("graph") {
        let graph = uopcache_audit::callgraph_json(Path::new(&root)).map_err(ArgError)?;
        print!("{graph}");
        return Ok(());
    }

    let allowlist_path = args
        .get("allowlist")
        .unwrap_or("audit.allowlist")
        .to_string();
    let allowlist =
        uopcache_audit::Allowlist::load(Path::new(&allowlist_path)).map_err(ArgError)?;
    let today = uopcache_audit::today_utc();
    let report =
        uopcache_audit::run_lint(Path::new(&root), &allowlist, &today).map_err(ArgError)?;
    let diags = report.diagnostics;

    // `--json`: canonical machine output (lint only), byte-stable for CI
    // diffing; the exit code still reflects the findings.
    if args.has("json") {
        print!("{}", uopcache_audit::diagnostics_json(&diags));
        if diags.is_empty() {
            return Ok(());
        }
        return Err(Box::new(CheckFailed(format!(
            "audit failed with {} problem(s)",
            diags.len()
        ))));
    }

    for d in &diags {
        eprintln!("{d}");
        // GitHub annotation format: surfaces findings on the PR diff.
        eprintln!(
            "::error file={},line={}::[{}] {}",
            d.file.display(),
            d.line,
            d.rule,
            d.message
        );
    }
    let mut failures = diags.len();
    if failures == 0 {
        println!(
            "lint: clean ({} files, {} fns, {} call edges)",
            report.files, report.functions, report.edges
        );
    } else {
        eprintln!("lint: {failures} violation(s)");
    }

    if !args.has("lint-only") {
        let mut t = Table::new("policy conformance", &["policy", "result"]);
        for r in uopcache_audit::run_conformance(8, 1_000) {
            match r.outcome {
                Ok(hooks) => t.row(&[
                    r.policy.to_string(),
                    format!("ok ({hooks} lookups checked)"),
                ]),
                Err(e) => {
                    failures += 1;
                    t.row(&[r.policy.to_string(), format!("VIOLATION: {e}")]);
                }
            }
        }
        t.print();
    }

    if failures > 0 {
        Err(Box::new(CheckFailed(format!(
            "audit failed with {failures} problem(s)"
        ))))
    } else {
        Ok(())
    }
}

/// Resolves one `host:port` flag value to a socket address.
fn resolve_addr(flag: &str, value: &str) -> Result<std::net::SocketAddr, ArgError> {
    use std::net::ToSocketAddrs;
    value
        .to_socket_addrs()
        .map_err(|e| ArgError(format!("--{flag} {value:?} does not resolve: {e}")))?
        .next()
        .ok_or_else(|| ArgError(format!("--{flag} {value:?} resolves to no address")))
}

/// Runs the simulation daemon until a client sends `shutdown` and the drain
/// completes. Prints the bound address first (an ephemeral `--addr :0` bind
/// is resolved), so scripts can read the port from the first stdout line.
fn cmd_serve(args: &Args) -> Result<(), Box<dyn Error>> {
    let job_timeout = match args.get("job-timeout-ms") {
        None => None,
        Some(_) => Some(std::time::Duration::from_millis(
            args.get_parse("job-timeout-ms", 0u64)?,
        )),
    };
    let cfg = ServerConfig::builder()
        .addr(resolve_addr(
            "addr",
            args.get("addr").unwrap_or("127.0.0.1:7743"),
        )?)
        .queue_capacity(args.get_parse("queue", 16usize)?)
        .shards(args.get_parse("shards", 1usize)?)
        .jobs(args.get_parse("jobs", 0usize)?)
        .job_timeout(job_timeout)
        .job_retention(args.get_parse("retention", uopcache_serve::DEFAULT_JOB_RETENTION)?)
        .build();
    let server = Server::bind(cfg)?;
    println!("serving on {}", server.local_addr()?);
    server.run()?;
    println!("drained; exiting");
    Ok(())
}

/// Runs a consistent-hash router across several daemons until a client sends
/// `shutdown` and the drain completes. Speaks the same protocol as `serve`,
/// so `submit`/`status`/`stats`/`shutdown` all work against it unchanged.
fn cmd_route(args: &Args) -> Result<(), Box<dyn Error>> {
    let backends = args
        .require("backends")?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| resolve_addr("backends", s))
        .collect::<Result<Vec<_>, _>>()?;
    let cfg = RouterConfig::builder()
        .addr(resolve_addr(
            "addr",
            args.get("addr").unwrap_or("127.0.0.1:7744"),
        )?)
        .backends(backends)
        .queue_capacity(args.get_parse("queue", 16usize)?)
        .replicas(args.get_parse("replicas", 64usize)?)
        .health_interval(std::time::Duration::from_millis(
            args.get_parse("health-interval-ms", 2_000u64)?,
        ))
        .retry_rounds(args.get_parse("retry-rounds", 3usize)?)
        .job_retention(args.get_parse("retention", uopcache_serve::DEFAULT_JOB_RETENTION)?)
        .build();
    let router = Router::bind(cfg)?;
    let n = router.backend_count();
    println!("routing on {} across {n} backend(s)", router.local_addr()?);
    router.run()?;
    println!("drained; exiting");
    Ok(())
}

fn client_for(args: &Args) -> Result<Client, Box<dyn Error>> {
    let addr = args.require("addr")?;
    Ok(Client::connect(addr, std::time::Duration::from_secs(5))?)
}

/// Submits one sweep job to a daemon. By default waits for the result and
/// (with `--json FILE`) writes the canonical report — byte-identical to
/// `uopcache sweep --json` for the same flags, whatever the server's worker
/// count. `--no-wait` enqueues and returns the job id immediately.
fn cmd_submit(args: &Args) -> Result<(), Box<dyn Error>> {
    let spec = spec_from_args(args)?;
    let mut client = client_for(args)?;
    let id = args.get("id");
    if args.has("no-wait") {
        let (job_id, deduped) = client.submit(&spec, id, std::time::Duration::from_secs(30))?;
        println!(
            "job {job_id} {}",
            if deduped { "already known" } else { "accepted" }
        );
        return Ok(());
    }
    let timeout = std::time::Duration::from_millis(args.get_parse("timeout-ms", 600_000u64)?);
    let outcome = client.submit_and_wait(&spec, id, timeout)?;
    println!(
        "job {} {}done",
        outcome.job_id,
        if outcome.deduped { "(deduped) " } else { "" }
    );
    if let Some(path) = args.get("json") {
        std::fs::write(path, outcome.report.to_string())?;
        println!("wrote canonical JSON to {path}");
    } else {
        println!("{}", outcome.report);
    }
    Ok(())
}

fn cmd_status(args: &Args) -> Result<(), Box<dyn Error>> {
    let job_id = args.require("job")?;
    let mut client = client_for(args)?;
    let state = client.status(job_id, std::time::Duration::from_secs(30))?;
    println!("job {job_id}: {state}");
    Ok(())
}

/// `stats --addr H:P` — the served counterpart of the trace `stats` command.
fn cmd_server_stats(args: &Args) -> Result<(), Box<dyn Error>> {
    let mut client = client_for(args)?;
    let stats = client.stats(std::time::Duration::from_secs(30))?;
    println!("{stats}");
    Ok(())
}

fn cmd_shutdown(args: &Args) -> Result<(), Box<dyn Error>> {
    let mut client = client_for(args)?;
    let queued = client.shutdown(std::time::Duration::from_secs(30))?;
    println!("draining ({queued} job(s) still queued)");
    Ok(())
}

fn cmd_list_experiments() -> Result<(), Box<dyn Error>> {
    let mut t = Table::new("experiments", &["id", "caption"]);
    for exp in uopcache_bench::experiments::all() {
        t.row(&[exp.id.to_string(), exp.caption.to_string()]);
    }
    t.print();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> Result<(), Box<dyn Error>> {
        dispatch(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn apps_and_listing_work() {
        run("apps").unwrap();
        run("list-experiments").unwrap();
    }

    #[test]
    fn unknown_commands_error() {
        assert!(run("frobnicate").is_err());
        assert!(run("").is_err());
        assert!(run("experiment nope").is_err());
    }

    #[test]
    fn experiment_all_renders_every_registered_experiment() {
        let mut md = String::new();
        experiment_output(
            &Args::parse(&["experiment".into(), "all".into(), "--quick".into()]),
            &mut md,
        )
        .unwrap();
        let sections: Vec<&str> = md
            .lines()
            .filter(|l| l.starts_with("## ") && l.contains(" — "))
            .collect();
        assert_eq!(sections.len(), 24, "{sections:?}");
        for exp in uopcache_bench::experiments::all() {
            assert!(
                sections
                    .iter()
                    .any(|s| s.starts_with(&format!("## {} — ", exp.id))),
                "{} missing",
                exp.id
            );
        }
        assert!(!md.contains("FAILED"), "{md}");
    }

    #[test]
    fn gen_stats_simulate_profile_compare_round_trip() {
        let dir = std::env::temp_dir();
        let trc = dir.join("uopcache_cli_test.trc");
        let hints = dir.join("uopcache_cli_test_hints.json");
        run(&format!(
            "gen --app postgres --variant 1 --len 3000 -o {}",
            trc.display()
        ))
        .unwrap();
        run(&format!("stats -i {}", trc.display())).unwrap();
        run(&format!("simulate -i {} --policy furbys", trc.display())).unwrap();
        run(&format!(
            "simulate -i {} --policy lru --entries 1024",
            trc.display()
        ))
        .unwrap();
        run(&format!(
            "profile -i {} --oracle belady -o {}",
            trc.display(),
            hints.display()
        ))
        .unwrap();
        run(&format!("compare -i {}", trc.display())).unwrap();
        assert!(hints.exists());
        let _ = std::fs::remove_file(trc);
        let _ = std::fs::remove_file(hints);
    }

    #[test]
    fn sweep_runs_and_writes_canonical_json() {
        let json = std::env::temp_dir().join("uopcache_cli_sweep.json");
        run(&format!(
            "sweep --apps kafka --policies lru,random --len 1500 --jobs 2 --json {}",
            json.display()
        ))
        .unwrap();
        let body = std::fs::read_to_string(&json).unwrap();
        assert!(body.contains("\"policy\":\"Random\""), "{body}");
        let _ = std::fs::remove_file(json);
    }

    #[test]
    fn sweep_rejects_unknown_inputs() {
        assert!(run("sweep --apps nope --len 1000").is_err());
        assert!(run("sweep --apps kafka --policies belady --len 1000").is_err());
        assert!(run("sweep --apps kafka --jobs zero --len 1000").is_err());
    }

    #[test]
    fn sweep_rejects_unbuildable_geometry_without_panicking() {
        for geometry in [
            "--entries 7 --ways 3",
            "--ways 0",
            "--ways 65 --entries 130",
            // Buildable in shape, but over MAX_UOP_CACHE_ENTRIES.
            "--entries 4294967288",
        ] {
            let err = run(&format!(
                "sweep --apps kafka --policies lru --len 1000 {geometry}"
            ))
            .expect_err(geometry);
            assert!(err.to_string().contains("geometry"), "{geometry}: {err}");
        }
    }

    #[test]
    fn oversized_trace_flags_are_refused_without_aborting() {
        for cmd in [
            "sweep --apps kafka --policies lru --len 1099511627776",
            "sweep --apps kafka --policies lru --len 1000 --scale 1099511627776",
            "sweep --apps kafka --policies lru --len 1000 --scale 0",
            "gen --app kafka --len 1099511627776 -o unused.json",
        ] {
            let err = run(cmd).expect_err(cmd);
            let msg = err.to_string();
            assert!(
                msg.contains("exceeds") || msg.contains("at least 1"),
                "{cmd}: {msg}"
            );
        }
    }

    #[test]
    fn policy_rosters_resolve_any_case() {
        let online = PolicyRegistry::online();
        assert_eq!(online.resolve("FURBYS").unwrap().name(), "FURBYS");
        assert_eq!(online.resolve("ship++").unwrap().name(), "SHiP++");
        assert!(
            online.resolve("belady").is_err(),
            "offline policies are not online options"
        );
        assert!(
            online.resolve("random").is_err(),
            "the seeded control is sweep/inspect-only"
        );
    }

    #[test]
    fn identify_digests_every_registered_policy() {
        let json = std::env::temp_dir().join("uopcache_cli_identify.json");
        run(&format!(
            "identify --app kafka --len 1200 --json {}",
            json.display()
        ))
        .unwrap();
        let body = std::fs::read_to_string(&json).unwrap();
        assert!(body.contains("\"kind\":\"identify\""), "{body}");
        for id in PolicyId::ALL {
            assert!(
                body.contains(&format!("\"policy\":\"{}\"", id.name())),
                "missing {} in {body}",
                id.name()
            );
        }
        let _ = std::fs::remove_file(json);
        // A digest that matches nothing comes back unknown (still success —
        // the question was answered); malformed digests are rejected.
        run(&format!(
            "identify --app kafka --len 1200 --digest {}",
            "0".repeat(32)
        ))
        .unwrap();
        assert!(run("identify --app kafka --len 1200 --digest nothex").is_err());
        assert!(run("identify --len 1000").is_err(), "--app required");
    }

    #[test]
    fn sweep_with_set_dueling_prints_placement_summary() {
        run("sweep --apps kafka --policies lru,srrip,set-dueling --len 1500 --jobs 2").unwrap();
    }

    #[test]
    fn inspect_writes_schema_versioned_json_and_renders_tables() {
        let json = std::env::temp_dir().join("uopcache_cli_inspect.json");
        run(&format!(
            "inspect --app kafka --policy lru --len 1500 --json {}",
            json.display()
        ))
        .unwrap();
        let body = std::fs::read_to_string(&json).unwrap();
        assert!(body.starts_with("{\"schema_version\":1,"), "{body}");
        assert!(body.contains("\"kind\":\"inspect\""), "{body}");
        assert!(body.contains("\"events\":["), "{body}");
        assert!(body.contains("\"histograms\""), "{body}");
        let _ = std::fs::remove_file(json);
        run("inspect --app kafka --len 1500 --events 5").unwrap();
        assert!(
            run("inspect --policy lru --len 1000").is_err(),
            "--app required"
        );
        assert!(run("inspect --app kafka --policy belady --len 1000").is_err());
    }
}
