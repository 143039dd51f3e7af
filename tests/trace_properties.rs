//! Property tests for the synthetic workload generator — the inputs every
//! benchmark baseline and golden output depends on.
//!
//! Three families of properties:
//!
//! * **seeded reproducibility** — a trace is a pure function of
//!   (app, variant, length); different variants and apps genuinely differ;
//! * **Zipf shape** — the region popularity distribution is monotone in
//!   rank, normalised, and its sampler matches its own pmf empirically;
//! * **PW length distribution** — per application, window lengths stay
//!   within the tolerances implied by the `WorkloadSpec` calibration
//!   (basic-block size, uops per instruction, termination mix).

use uopcache::model::rng::Prng;
use uopcache::model::PwTermination;
use uopcache::trace::{build_trace, AppId, InputVariant, WorkloadSpec, Zipf};

#[test]
fn traces_are_pure_functions_of_their_seeds() {
    for app in [AppId::Kafka, AppId::Postgres, AppId::Python] {
        for variant in [0u32, 1, 7] {
            let a = build_trace(app, InputVariant(variant), 5_000);
            let b = build_trace(app, InputVariant(variant), 5_000);
            assert_eq!(a, b, "{}/{variant}: trace is not reproducible", app.name());
        }
        let v0 = build_trace(app, InputVariant(0), 5_000);
        let v1 = build_trace(app, InputVariant(1), 5_000);
        assert_ne!(v0, v1, "{}: variants must differ", app.name());
    }
    let kafka = build_trace(AppId::Kafka, InputVariant(0), 5_000);
    let postgres = build_trace(AppId::Postgres, InputVariant(0), 5_000);
    assert_ne!(kafka, postgres, "different apps must differ");
}

#[test]
fn zipf_pmf_is_monotone_in_rank_and_normalised() {
    for alpha in [0.5, 0.98, 1.5] {
        let z = Zipf::new(512, alpha);
        let mut sum = 0.0;
        let mut prev = f64::INFINITY;
        for k in 0..z.len() {
            let p = z.pmf(k);
            assert!(
                p <= prev + 1e-12,
                "alpha {alpha}: pmf not monotone at rank {k} ({p} > {prev})"
            );
            assert!(p > 0.0, "alpha {alpha}: pmf must be positive at rank {k}");
            sum += p;
            prev = p;
        }
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "alpha {alpha}: pmf sums to {sum}, not 1"
        );
    }
}

#[test]
fn zipf_sampler_matches_its_pmf_empirically() {
    const N: usize = 64;
    const DRAWS: usize = 200_000;
    let z = Zipf::new(N, 0.98);
    let mut rng = Prng::seed_from_u64(0x21bf_0001);
    let mut counts = [0u32; N];
    for _ in 0..DRAWS {
        counts[z.sample(&mut rng)] += 1;
    }
    // Rank-frequency monotonicity, coarsened: each octave of ranks is more
    // popular than the next (single adjacent ranks may swap by noise).
    let per_rank =
        |lo: usize, hi: usize| f64::from(counts[lo..hi].iter().sum::<u32>()) / (hi - lo) as f64;
    let o0 = per_rank(0, 8);
    let o1 = per_rank(8, 16);
    let o2 = per_rank(16, 32);
    let o3 = per_rank(32, 64);
    assert!(
        o0 > o1 && o1 > o2 && o2 > o3,
        "empirical rank-frequency must fall by octave: {o0} {o1} {o2} {o3}"
    );
    // The head matches the analytic pmf within 5% relative error.
    for (k, &count) in counts.iter().enumerate().take(4) {
        let expected = z.pmf(k) * DRAWS as f64;
        let got = f64::from(count);
        assert!(
            (got - expected).abs() / expected < 0.05,
            "rank {k}: {got} draws vs expected {expected:.0}"
        );
    }
    // The sampler is itself seed-deterministic.
    let mut rng2 = Prng::seed_from_u64(0x21bf_0001);
    let replay: Vec<usize> = (0..1_000).map(|_| z.sample(&mut rng2)).collect();
    let mut rng3 = Prng::seed_from_u64(0x21bf_0001);
    let replay2: Vec<usize> = (0..1_000).map(|_| z.sample(&mut rng3)).collect();
    assert_eq!(replay, replay2);
}

#[test]
fn pw_lengths_stay_within_spec_tolerances() {
    for app in AppId::ALL {
        let spec = WorkloadSpec::for_app(app);
        let t = build_trace(app, InputVariant(0), 20_000);
        let n = t.len() as f64;
        let mean = t.iter().map(|a| f64::from(a.pw.uops)).sum::<f64>() / n;
        let max = t.iter().map(|a| a.pw.uops).max().expect("non-empty");

        // A PW spans at least one basic block (it ends at a *taken* branch
        // or a line boundary, and not-taken branches run through), so its
        // mean length sits a little above one block's worth of micro-ops —
        // and nowhere near two blocks' worth for these taken biases.
        let bb_uops = spec.insts_per_bb * spec.uops_per_inst;
        let ratio = mean / bb_uops;
        assert!(
            (0.9..=1.8).contains(&ratio),
            "{}: mean PW length {mean:.2} uops is {ratio:.2}x the calibrated \
             block size {bb_uops:.2}",
            app.name()
        );
        // Windows terminate at the latest on a 64-byte line boundary.
        assert!(
            max <= 64,
            "{}: max PW length {max} exceeds any line-bounded window",
            app.name()
        );

        // Termination mix: both mechanisms must occur, with taken branches
        // dominating (the walker's taken bias plus loop back-edges).
        let taken = t
            .iter()
            .filter(|a| a.pw.term == PwTermination::TakenBranch)
            .count() as f64
            / n;
        assert!(
            (0.55..=0.95).contains(&taken),
            "{}: taken-branch termination fraction {taken:.2} out of tolerance",
            app.name()
        );
    }
}

/// Apps calibrated with larger basic blocks generate longer windows — the
/// cross-app ordering the paper's Table II relies on.
#[test]
fn pw_lengths_order_by_calibrated_block_size() {
    let mean_uops = |app: AppId| {
        let t = build_trace(app, InputVariant(0), 20_000);
        t.iter().map(|a| f64::from(a.pw.uops)).sum::<f64>() / t.len() as f64
    };
    // Postgres (6.5 insts/bb) vs Python (3.8 insts/bb): a wide calibration
    // gap must survive into the generated streams.
    assert!(
        mean_uops(AppId::Postgres) > mean_uops(AppId::Python),
        "calibrated block-size ordering lost in generation"
    );
}

/// `--scale` must produce *phase-structured repetition with drift*, not a
/// tiled copy of the base trace: epoch 0 is exactly the unscaled trace, every
/// later epoch walks the same program (heavily overlapping code footprint)
/// under a deterministically drifted spec, so no two epochs are identical.
#[test]
fn scaled_traces_repeat_phase_structure_without_tiling() {
    use std::collections::HashSet;
    use uopcache::trace::{build_trace_scaled, Program};

    for app in [AppId::Kafka, AppId::Postgres] {
        let program = Program::synthesize(&app.spec());
        let blocks: Vec<_> = program.regions.iter().flat_map(|r| r.bbs.iter()).collect();
        let image_lo = blocks.iter().map(|bb| bb.addr.get()).min().unwrap();
        let image_hi = blocks
            .iter()
            .map(|bb| bb.addr.get() + u64::from(bb.bytes))
            .max()
            .unwrap();
        let base = build_trace(app, InputVariant(0), 3_000);
        let scaled = build_trace_scaled(app, InputVariant(0), 3_000, 4);

        // Scaling is a pure function and yields exactly `scale` base-length
        // epochs; scale 1 degenerates to the unscaled trace.
        assert_eq!(scaled.len(), 4 * base.len(), "{}", app.name());
        assert_eq!(scaled, build_trace_scaled(app, InputVariant(0), 3_000, 4));
        assert_eq!(build_trace_scaled(app, InputVariant(0), 3_000, 1), base);
        assert_eq!(scaled.slice(0..base.len()), base, "{}", app.name());

        let starts: HashSet<_> = base.iter().map(|a| a.pw.start).collect();
        for e in 1..4 {
            let epoch = scaled.slice(e * base.len()..(e + 1) * base.len());
            assert_ne!(
                epoch,
                base,
                "{}: epoch {e} is a verbatim tile of epoch 0",
                app.name()
            );
            // Same program, different walk: every epoch stays inside the one
            // synthesized program image...
            assert!(
                epoch.iter().all(|a| {
                    let s = a.pw.start.get();
                    (image_lo..image_hi).contains(&s)
                }),
                "{}: epoch {e} fetches outside the program image",
                app.name()
            );
            // ...and still spends a solid share of its accesses in epoch-0
            // code (the drifted Zipf skew may shift the cold tail, but the
            // hot blocks persist across epochs).
            let shared_accesses = epoch
                .iter()
                .filter(|a| starts.contains(&a.pw.start))
                .count();
            assert!(
                shared_accesses * 3 >= epoch.len(),
                "{}: epoch {e} spends only {shared_accesses}/{} accesses in epoch-0 code",
                app.name(),
                epoch.len()
            );
        }
    }
}

/// Regression inputs for hostile trace records. Each once panicked the
/// simulator in a debug build: an empty window (`uops = bytes = 0` in a JSON
/// trace) underflowed the frontend's line arithmetic, and a window starting
/// at 2^64 − 8 overflowed `Addr::offset`. Both must now be typed errors.
#[test]
fn hostile_trace_records_are_rejected_as_invalid() {
    use uopcache::trace::io::{load, TraceIoError};
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/inputs");
    for name in ["empty_window.json", "window_past_address_space.trc"] {
        match load(&dir.join(name)) {
            Err(TraceIoError::InvalidRecord(why)) => assert!(why.contains("window at"), "{why}"),
            other => panic!("{name}: expected InvalidRecord, got {other:?}"),
        }
    }
}

/// A window in the top i-cache line of the address space is valid, and its
/// line must survive inclusion invalidation: the line's exclusive end is
/// 2^64, which once overflowed `UopCache::invalidate_line` in a debug build
/// and silently skipped the invalidation in a release build. The trace puts
/// such a window in zen3 L1i set 63, then touches eight more lines of that
/// set so the ninth evicts the top line, then revisits it.
#[test]
fn a_window_in_the_top_line_is_invalidated_when_its_line_is_evicted() {
    use uopcache::cache::LruPolicy;
    use uopcache::model::FrontendConfig;
    use uopcache::sim::Frontend;
    use uopcache::trace::io::load;
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/inputs/window_in_top_line.json");
    let trace = load(&path).expect("every window in the reproducer is valid");
    assert_eq!(trace.as_ref()[0].pw.start.get(), u64::MAX - 63);
    let r = Frontend::builder(FrontendConfig::zen3())
        .policy(LruPolicy::new())
        .build()
        .run(&trace);
    assert!(
        r.uopc.inclusion_invalidations >= 1,
        "evicting the top line must invalidate its window: {:?}",
        r.uopc
    );
    assert_eq!(
        r.uopc.pw_hits, 0,
        "the revisit follows the invalidation: {:?}",
        r.uopc
    );
}
