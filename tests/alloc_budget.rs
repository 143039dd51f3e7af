//! Allocation budget for the simulation hot path.
//!
//! The kernel is designed so that once a cache has been constructed and
//! warmed, driving a trace through it performs **zero heap allocations**:
//! set storage is a preallocated structure-of-arrays arena, victim and
//! resident scratch live in reusable buffers, and every registered policy
//! reserves its side tables at [`prepare`] time — the figure roster, the
//! classic zoo (ghost rings included) and the set-dueling meta-policy all
//! stay off the allocator on the lookup/insert path.
//!
//! This test wires the bench harness's [`CountingAllocator`] in as the
//! test binary's global allocator and pins the budget at exactly zero for
//! a steady-state pass over **every policy in [`PolicyId::ALL`]**, and
//! again for a warmed pass of L1i-inclusion invalidations
//! ([`UopCache::invalidate_line`], whose candidate-set scan works out of
//! stack buffers), and for a warmed FOO min-cost-flow solve
//! ([`FlowGraph`] keeps its CSR, distance, potential and queue buffers
//! across [`FlowGraph::reset`]).
//! One level up, a freshly built [`Frontend`] runs a whole trace with zero
//! allocations for every policy (its L1i and BTB are flat arrays sized at
//! build time), and [`simulate_interval`], which runs two ranges of a
//! trace in place, allocates no more than building its frontend does.
//! Finally, a whole LRU-only sweep job (the served-job shape) stays under
//! a fixed allocation budget once its app's shared program is warm, so
//! preparation builds only what the job's policies read.
//! Everything is measured inside one `#[test]` so no concurrently running
//! test can pollute the global counters.
//!
//! [`prepare`]: uopcache::cache::PwReplacementPolicy::prepare
//! [`CountingAllocator`]: uopcache_bench::hotpath::CountingAllocator

use uopcache::cache::{LruPolicy, PwReplacementPolicy, UopCache};
use uopcache::flow::{FlowGraph, McmfResult};
use uopcache::model::{Addr, FrontendConfig};
use uopcache::policies::run_trace;
use uopcache::sample::simulate_interval;
use uopcache::sim::Frontend;
use uopcache::trace::{build_trace, AppId, InputVariant, Program};
use uopcache_bench::hotpath::CountingAllocator;
use uopcache_bench::policies::{PolicyId, ProfileInputs};
use uopcache_bench::sweep::{run_sweep, SweepSpec};
use uopcache_exec::Engine;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const LEN: usize = 8_000;

/// Seed for the one seeded policy (Random); any fixed value works, the
/// budget is about allocations, not decisions.
const SEED: u64 = 7;

/// Heap allocations allowed to an LRU-only, one-app, len-2000 sweep on a
/// warm program (191 when pinned; 688 before the frontend's L1i and BTB
/// became flat arrays). Building the profiles it does not read would add
/// about 1 970 more, resynthesizing the program about 1 300, and per-set
/// L1i/BTB storage about 500, so any of these overshoots the headroom.
const LRU_JOB_ALLOC_BUDGET: u64 = 250;

/// Runs `f` and returns its result with the heap allocations (calls and
/// bytes) it performed.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before_calls = CountingAllocator::allocations();
    let before_bytes = CountingAllocator::bytes_allocated();
    let result = f();
    let calls = CountingAllocator::allocations() - before_calls;
    let bytes = CountingAllocator::bytes_allocated() - before_bytes;
    (result, calls, bytes)
}

/// Runs `trace` once more over a warmed cache and returns how many heap
/// allocations the pass performed.
fn steady_state_allocs(cache: &mut UopCache, trace: &uopcache::model::LookupTrace) -> (u64, u64) {
    let (stats, calls, bytes) = counted(|| run_trace(cache, trace));
    assert_eq!(stats.lookups, LEN as u64, "the pass must cover the trace");
    (calls, bytes)
}

/// One pass of inclusion traffic: before each access, the L1i evicts the
/// line holding the window's last byte (invalidating every PW touching
/// it), then the access refills the cache as [`run_trace`] does. Returns
/// the pass's heap allocations and the PWs it invalidated.
fn inclusion_pass(cache: &mut UopCache, trace: &uopcache::model::LookupTrace) -> (u64, u64, u64) {
    let before_invalidations = cache.stats().inclusion_invalidations;
    let ((), calls, bytes) = counted(|| {
        for access in trace.iter() {
            let last_byte = Addr::new(access.pw.end().get() - 1);
            cache.invalidate_line(last_byte.line(64));
            if !cache.lookup(&access.pw).is_full_hit() {
                cache.insert(&access.pw);
            }
        }
    });
    let invalidations = cache.stats().inclusion_invalidations - before_invalidations;
    (calls, bytes, invalidations)
}

/// Builds a FOO-shaped interval network on `graph` (chain of capacity 8,
/// negative-cost forward intervals of a few sizes and spans) and routes 8
/// units through it. Returns the solve's result and heap allocations.
fn foo_network_solve(graph: &mut FlowGraph) -> (McmfResult, u64, u64) {
    const NODES: usize = 1_500;
    counted(|| {
        graph.reset(NODES);
        for k in 0..NODES - 1 {
            graph.add_edge(k, k + 1, 8, 0);
        }
        for to in 1..NODES {
            let span = [1, 3, 7, 40][to % 4].min(to);
            let size = 1 + (to % 3) as i64;
            graph.add_edge(to - span, to, size, -840 / size);
        }
        graph.min_cost_flow(0, NODES - 1, 8)
    })
}

/// Runs an LRU-only sweep of one app (the shape of a small served job) on
/// one worker and returns its heap allocations.
fn lru_job_allocs(app: AppId) -> u64 {
    let spec = SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps: vec![app],
        policies: vec![PolicyId::Lru.name().to_string()],
        variant: 0,
        len: 2_000,
        metrics: false,
        sample: None,
        scale: 1,
    };
    let engine = Engine::new(1);
    let (report, calls, _) = counted(|| run_sweep(&spec, &engine));
    assert_eq!(report.cells.len(), 1, "the job must produce its cell");
    calls
}

#[test]
fn steady_state_lookup_path_does_not_allocate_for_any_registered_policy() {
    // The counter must actually be live in this binary, or the zero
    // assertions below would be vacuous.
    assert!(
        CountingAllocator::is_active(),
        "CountingAllocator is not installed as the global allocator"
    );

    let cfg = FrontendConfig::zen3();
    for app in [AppId::Kafka, AppId::Postgres] {
        let trace = build_trace(app, InputVariant(0), LEN);
        // Profile construction allocates freely; it happens once per app,
        // outside the measured window, like any offline training pass.
        let profiles = ProfileInputs::build(&cfg, &trace, &PolicyId::ALL);
        for id in PolicyId::ALL {
            let mut cache = UopCache::new(cfg.uop_cache, id.build(&cfg, &profiles, SEED));
            // Warmup: fill the sets, let ghost rings and side tables reach
            // their steady shape, and cross at least one duel phase.
            run_trace(&mut cache, &trace);

            let (calls, bytes) = steady_state_allocs(&mut cache, &trace);
            assert_eq!(
                (calls, bytes),
                (0, 0),
                "{}/{}: steady-state pass allocated {calls} times ({bytes} bytes)",
                id.name(),
                app.name(),
            );

            // Warm the inclusion path the same way, then measure it.
            inclusion_pass(&mut cache, &trace);
            let (calls, bytes, invalidations) = inclusion_pass(&mut cache, &trace);
            assert!(
                invalidations > 0,
                "{}/{}: the inclusion pass invalidated nothing",
                id.name(),
                app.name(),
            );
            assert_eq!(
                (calls, bytes),
                (0, 0),
                "{}/{}: warmed inclusion pass allocated {calls} times ({bytes} bytes)",
                id.name(),
                app.name(),
            );
        }
    }

    // A warmed flow graph re-solves a same-sized network off the allocator:
    // reset, rebuild, solve.
    let mut graph = FlowGraph::new(0);
    let (warm, _, _) = foo_network_solve(&mut graph);
    let (result, calls, bytes) = foo_network_solve(&mut graph);
    assert_eq!(
        result, warm,
        "re-solving the same network changed its result"
    );
    assert_eq!(result.flow, 8, "the network must carry the full flow");
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "warmed FlowGraph reset+rebuild+solve allocated {calls} times ({bytes} bytes)"
    );

    // A freshly built frontend runs a whole trace off the allocator: the
    // L1i and BTB arrays and the insertion queue are sized at build time.
    // Policy construction and `build` itself are outside the window.
    for app in [AppId::Kafka, AppId::Postgres] {
        let trace = build_trace(app, InputVariant(0), LEN);
        let profiles = ProfileInputs::build(&cfg, &trace, &PolicyId::ALL);
        for id in PolicyId::ALL {
            let mut fe = Frontend::builder(cfg)
                .policy(id.build(&cfg, &profiles, SEED))
                .build();
            let (result, calls, bytes) = counted(|| fe.run(&trace));
            assert_eq!(
                result.uopc.lookups, LEN as u64,
                "the run must cover the trace"
            );
            assert_eq!(
                (calls, bytes),
                (0, 0),
                "{}/{}: a fresh frontend's run allocated {calls} times ({bytes} bytes)",
                id.name(),
                app.name(),
            );
        }

        // An interval simulation builds one frontend and runs two ranges
        // of the trace in place: it may allocate what `build` does, and
        // nothing for the trace.
        let lru = || -> Box<dyn PwReplacementPolicy> { Box::new(LruPolicy::new()) };
        let policy = lru();
        let (_, build_calls, build_bytes) =
            counted(|| Frontend::builder(cfg).policy(policy).build());
        let policy = lru();
        let (result, calls, bytes) =
            counted(|| simulate_interval(&cfg, policy, &trace, 0..LEN / 2, LEN / 2..LEN));
        assert_eq!(result.uopc.lookups, (LEN - LEN / 2) as u64);
        assert!(
            calls <= build_calls && bytes <= build_bytes,
            "{}: simulate_interval allocated {calls} times ({bytes} bytes), more \
             than Frontend::build's {build_calls} ({build_bytes} bytes): is it \
             copying the trace?",
            app.name(),
        );
    }

    // A small LRU job, once its app's program is warm, prepares only its
    // trace: no profile a policy it runs does not read, no second program.
    let _ = Program::shared(AppId::Kafka);
    let calls = lru_job_allocs(AppId::Kafka);
    assert!(
        calls <= LRU_JOB_ALLOC_BUDGET,
        "an LRU-only kafka job (len 2000) allocated {calls} times, over the \
         budget of {LRU_JOB_ALLOC_BUDGET}: is it building profiles LRU does not \
         read, or synthesizing its program again?"
    );
}
