//! Micro-benchmarks of the library's components: simulator throughput,
//! per-policy decision cost, the min-cost-flow solver, Jenks natural breaks
//! and trace generation.
//!
//! Uses a small self-contained timing harness (`std::time`) so the workspace
//! carries no external benchmark dependency. Each benchmark runs a warm-up
//! pass, then reports the median wall-clock time over a handful of
//! measurement passes together with element throughput where meaningful.

use std::time::{Duration, Instant};
use uopcache_bench::policies::{PolicyId, ProfileInputs};
use uopcache_cache::{LruPolicy, UopCache};
use uopcache_core::jenks::jenks_breaks;
use uopcache_core::Flack;
use uopcache_flow::FlowGraph;
use uopcache_model::{FrontendConfig, UopCacheConfig};
use uopcache_offline::foo;
use uopcache_policies::run_trace;
use uopcache_sim::Frontend;
use uopcache_trace::{build_trace, AppId, InputVariant};

/// Times `f` over `iters` measured passes (after one warm-up) and returns the
/// median per-pass duration.
fn measure<T>(iters: usize, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f()); // warm-up
    let mut samples: Vec<Duration> = (0..iters.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn report(group: &str, name: &str, elapsed: Duration, elements: Option<u64>) {
    let per_elem = elements
        .filter(|&n| n > 0)
        .map(|n| format!("  ({:.0} elems/s)", n as f64 / elapsed.as_secs_f64()))
        .unwrap_or_default();
    println!("{group}/{name:<24} {elapsed:>12.3?}{per_elem}");
}

fn bench_simulator() {
    let trace = build_trace(AppId::Kafka, InputVariant::DEFAULT, 20_000);
    let n = trace.len() as u64;
    let d = measure(5, || {
        let mut fe = Frontend::builder(FrontendConfig::zen3())
            .policy(LruPolicy::new())
            .build();
        fe.run(&trace)
    });
    report("simulator", "frontend_lru_20k", d, Some(n));
}

fn bench_policies() {
    let cfg = FrontendConfig::zen3();
    let trace = build_trace(AppId::Postgres, InputVariant::DEFAULT, 10_000);
    let profiles = ProfileInputs::build(&cfg, &trace, &PolicyId::ONLINE);
    let n = trace.len() as u64;
    for id in PolicyId::ONLINE {
        let d = measure(5, || {
            let mut cache = UopCache::new(cfg.uop_cache, id.build(&cfg, &profiles, 0));
            run_trace(&mut cache, &trace)
        });
        report("policy_decisions", id.name(), d, Some(n));
    }
}

fn bench_flow_solver() {
    for &n in &[1_000usize, 4_000, 16_000] {
        let trace = build_trace(AppId::Kafka, InputVariant::DEFAULT, n);
        let d = measure(3, || {
            foo::solve(&trace, &UopCacheConfig::zen3(), &Flack::new().foo_config())
        });
        report("mcmf", &format!("foo_solve_{n}"), d, Some(n as u64));
    }
    let d = measure(3, || {
        let n = 5_000;
        let mut graph = FlowGraph::new(n);
        for i in 0..n - 1 {
            graph.add_edge(i, i + 1, 8, 0);
        }
        for i in (0..n - 10).step_by(3) {
            graph.add_edge(i, i + 7, 2, -5);
        }
        graph.min_cost_flow(0, n - 1, 8)
    });
    report("mcmf", "raw_chain_5k", d, None);
}

fn bench_jenks() {
    for &n in &[64usize, 256, 1024] {
        let values: Vec<f64> = (0..n)
            .map(|i| ((i * 7919) % 1000) as f64 / 1000.0)
            .collect();
        let d = measure(5, || jenks_breaks(&values, 8));
        report("jenks", &format!("breaks_{n}"), d, Some(n as u64));
    }
}

fn bench_trace_generation() {
    let d = measure(3, || {
        build_trace(AppId::Kafka, InputVariant::DEFAULT, 50_000)
    });
    report("trace_generation", "kafka_50k", d, Some(50_000));
}

fn main() {
    bench_simulator();
    bench_policies();
    bench_flow_solver();
    bench_jenks();
    bench_trace_generation();
}
