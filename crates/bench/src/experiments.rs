//! One function per paper table/figure.
//!
//! Every experiment takes a `quick` flag (shorter traces, fewer apps — used
//! by tests and smoke runs) and returns the tables it produces.
//! `uopcache experiment ID` prints one experiment's tables;
//! `uopcache experiment all` renders every experiment through
//! [`render_report`] into the `EXPERIMENTS.md` document.

pub mod discussion;
pub mod misses;
pub mod power;
pub mod sensitivity;
pub mod tables;
pub mod timing;

use crate::sweep;
use crate::table::Table;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// An experiment entry: id, paper caption, and the function that runs it.
pub struct Experiment {
    /// Identifier passed to `uopcache experiment` (e.g. `fig08`).
    pub id: &'static str,
    /// What the paper's table/figure shows.
    pub caption: &'static str,
    /// Runs the experiment.
    pub run: fn(quick: bool) -> Vec<Table>,
}

/// Every experiment, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "tab1",
            caption: "Table I: simulation parameters (Zen3-like preset)",
            run: tables::tab1_parameters,
        },
        Experiment {
            id: "tab2",
            caption: "Table II: the 11 data center applications",
            run: tables::tab2_applications,
        },
        Experiment {
            id: "sec3b",
            caption: "SIII-B: cold/capacity/conflict miss classification",
            run: misses::sec3b_miss_classes,
        },
        Experiment {
            id: "fig02",
            caption: "Fig. 2: per-core PPW gain of perfect structures",
            run: power::fig02_perfect_structures,
        },
        Experiment {
            id: "fig05",
            caption: "Fig. 5: miss reduction of existing policies vs FLACK",
            run: misses::fig05_existing_policies,
        },
        Experiment {
            id: "fig08",
            caption: "Fig. 8: FURBYS miss reduction vs existing policies",
            run: misses::fig08_furbys_miss_reduction,
        },
        Experiment {
            id: "fig09",
            caption: "Fig. 9: performance-per-watt gain of FURBYS",
            run: power::fig09_ppw_gain,
        },
        Experiment {
            id: "fig10",
            caption: "Fig. 10: FLACK ablation (FOO, A, A+VC, A+VC+SB) vs Belady",
            run: misses::fig10_flack_ablation,
        },
        Experiment {
            id: "fig11",
            caption: "Fig. 11: IPC speedup over LRU",
            run: timing::fig11_ipc_speedup,
        },
        Experiment {
            id: "fig12",
            caption: "Fig. 12: ISO-performance (LRU capacity to match FURBYS)",
            run: timing::fig12_iso_performance,
        },
        Experiment {
            id: "fig13",
            caption: "Fig. 13: per-core energy breakdown on Clang",
            run: power::fig13_energy_breakdown,
        },
        Experiment {
            id: "fig14",
            caption: "Fig. 14: energy-reduction breakdown of FURBYS",
            run: power::fig14_energy_reduction,
        },
        Experiment {
            id: "fig15",
            caption: "Fig. 15: FURBYS with Belady/FOO/FLACK profile sources",
            run: misses::fig15_profile_sources,
        },
        Experiment {
            id: "fig16",
            caption: "Fig. 16: sensitivity to micro-op cache size and associativity",
            run: sensitivity::fig16_size_assoc,
        },
        Experiment {
            id: "fig17",
            caption: "Fig. 17: PPW gain with the Zen4-like configuration",
            run: power::fig17_zen4_ppw,
        },
        Experiment {
            id: "fig18",
            caption: "Fig. 18: cross-validation across input variants",
            run: misses::fig18_cross_validation,
        },
        Experiment {
            id: "fig19",
            caption: "Fig. 19: weight-group bits sweep",
            run: sensitivity::fig19_weight_groups,
        },
        Experiment {
            id: "fig20",
            caption: "Fig. 20: local pitfall detector depth sweep",
            run: sensitivity::fig20_pitfall_depth,
        },
        Experiment {
            id: "fig21",
            caption: "Fig. 21: FURBYS bypass mechanism on/off",
            run: misses::fig21_bypass,
        },
        Experiment {
            id: "fig22",
            caption: "Fig. 22: hit rate by PW hotness class (Kafka)",
            run: misses::fig22_hotness,
        },
        Experiment {
            id: "sec6c",
            caption: "SVI-C: FURBYS replacement coverage",
            run: misses::sec6c_coverage,
        },
        Experiment {
            id: "sec6hw",
            caption: "SVI: FURBYS hardware overhead",
            run: discussion::sec6_hw_overhead,
        },
        Experiment {
            id: "sec7",
            caption: "SVII: non-inclusive micro-op cache IPC study",
            run: discussion::sec7_noninclusive,
        },
        Experiment {
            id: "ext1",
            caption: "EXT-1 (SVII future work): phase-aware FURBYS",
            run: discussion::ext1_phased_furbys,
        },
    ]
}

/// Looks up one experiment by id.
pub fn by_id(id: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.id == id)
}

/// Runs `experiments` in order and appends the whole `EXPERIMENTS.md`
/// document — preamble, known deviations and one section per experiment —
/// to `md`.
///
/// Experiments run one after another (their tables are ordered); each fans
/// its simulation tasks out over the process-wide `--jobs` pool, so the
/// document is byte-identical for every worker count. Progress and
/// per-experiment wall time go to stderr only: timing never enters the
/// document. A panicking experiment becomes a `**FAILED**` row and the rest
/// still run.
///
/// # Errors
///
/// Returns every failed experiment's id and panic message once all of them
/// have run; `md` then holds the complete document, failure rows included.
pub fn render_report(
    experiments: &[Experiment],
    quick: bool,
    md: &mut String,
) -> Result<(), Vec<(&'static str, String)>> {
    let _ = writeln!(md, "# EXPERIMENTS — paper vs. measured\n");
    let _ = writeln!(
        md,
        "Reproduction of every table and figure of *From Optimal to Practical: \
         Efficient Micro-op Cache Replacement Policies for Data Center Applications* \
         (HPCA 2025) on the synthetic workload substrate described in `DESIGN.md`. \
         Absolute numbers differ from the paper (different traces, simplified \
         simulator); the *shapes* — orderings, ratios, crossovers — are the \
         reproduction target. Regenerate with \
         `uopcache experiment all > EXPERIMENTS.md`{}.\n",
        if quick {
            " (this file was produced in QUICK mode)"
        } else {
            ""
        }
    );
    md.push_str(KNOWN_DEVIATIONS);

    let total = Instant::now();
    let mut failures = Vec::new();
    for (done, exp) in experiments.iter().enumerate() {
        let t0 = Instant::now();
        eprintln!(
            "running {} — {} [{} jobs]",
            exp.id,
            exp.caption,
            sweep::current_jobs()
        );
        let _ = writeln!(md, "## {} — {}\n", exp.id, exp.caption);
        match catch_unwind(AssertUnwindSafe(|| (exp.run)(quick))) {
            Ok(tables) => {
                for table in tables {
                    md.push_str(&table.render_markdown());
                    md.push('\n');
                }
            }
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                eprintln!("FAILED {}: {message}", exp.id);
                let _ = writeln!(md, "**FAILED**: `{message}`\n");
                failures.push((exp.id, message));
            }
        }
        eprintln!(
            "finished {} in {:.1?} ({}/{} run)",
            exp.id,
            t0.elapsed(),
            done + 1,
            experiments.len()
        );
    }
    eprintln!(
        "rendered {} experiment(s) in {:.1?}, {} failed",
        experiments.len(),
        total.elapsed(),
        failures.len()
    );
    if failures.is_empty() {
        // The last section's blank separator line is not needed at the end.
        md.pop();
        return Ok(());
    }
    let _ = writeln!(md, "## Failed experiments\n");
    for (id, message) in &failures {
        let _ = writeln!(md, "- `{id}`: {message}");
    }
    Err(failures)
}

/// Where and why the reproduction departs from the paper.
const KNOWN_DEVIATIONS: &str = "\
## Known deviations

1. **GHRP does not replicate as the strongest prior policy.** On the \
synthetic traces its history-indexed dead-block predictor lands between \
SRRIP and SHiP++ rather than at the paper's 7.81 %; the strongest prior \
policy here is Thermometer. The headline ratio \"FURBYS vs. best \
existing\" is therefore computed against Thermometer and comes out \
smaller than the paper's 1.84x while preserving the claim that FURBYS \
clearly beats every prior policy. Likely cause: the path-history \
correlation GHRP exploits is weaker in our call-chain workload model \
than in real server binaries.
2. **Mockingjay is slightly negative** (the paper shows it small but \
positive); its sampled reuse-distance prediction degenerates when every \
PC maps to a single PW, which the paper itself observes in SIII-E.
3. **Fig. 2's perfect-uop-cache bound is larger than the paper's 7.41 %** \
because the synthetic traces run at a higher baseline miss rate \
(calibrated to reproduce the replacement-policy headroom of Figs. 8/10); \
the qualitative claim — the micro-op cache is the largest PPW lever — \
holds.
4. **Offline-policy miss reductions are measured against a synchronous \
LRU baseline** (no asynchronous-insertion races), mirroring the paper's \
perfect-setup methodology for bound studies; online policies run \
through the full timed frontend.
5. **The pitfall detector is roughly neutral here** (Fig. 20: depth 0 \
and depth 2 within ~0.1 %), while the paper finds depth 2 best. Its \
replacement coverage at depth 2 (~95 %) is close to the paper's \
88.68 %, but the synthetic phase structure produces less of the \
`{A, I}^n` thrash the detector exists to break.

";

/// The apps used in quick mode.
pub(crate) fn quick_apps() -> Vec<uopcache_trace::AppId> {
    vec![
        uopcache_trace::AppId::Kafka,
        uopcache_trace::AppId::Postgres,
    ]
}

/// The app set for a mode.
pub(crate) fn apps_for(quick: bool) -> Vec<uopcache_trace::AppId> {
    if quick {
        quick_apps()
    } else {
        crate::apps::standard_apps().to_vec()
    }
}

/// The trace length for a mode.
pub(crate) fn len_for(quick: bool) -> usize {
    if quick {
        8_000
    } else {
        crate::apps::TRACE_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_complete() {
        let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        assert_eq!(
            ids.len(),
            24,
            "tables + figures + section studies + extension"
        );
        assert!(by_id("fig08").is_some());
        assert!(by_id("nope").is_none());
    }

    fn explodes(_quick: bool) -> Vec<Table> {
        panic!("deliberate failure")
    }

    #[test]
    fn a_panicking_experiment_becomes_a_failure_row_and_the_rest_still_render() {
        let fake = Experiment {
            id: "boom",
            caption: "an experiment that always panics",
            run: explodes,
        };
        let real = by_id("tab1").expect("tab1 is registered");
        let mut md = String::new();
        let err = render_report(&[fake, real], true, &mut md).expect_err("boom must fail");
        assert_eq!(err, vec![("boom", "deliberate failure".to_string())]);
        assert!(md.contains(
            "## boom — an experiment that always panics\n\n**FAILED**: `deliberate failure`"
        ));
        assert!(md.contains("## tab1 — "), "{md}");
        assert!(md.contains("### Table I: simulation parameters"), "{md}");
        assert!(md.ends_with("## Failed experiments\n\n- `boom`: deliberate failure\n"));
    }

    #[test]
    fn report_holds_no_timing_and_ends_with_one_newline() {
        let mut md = String::new();
        let tab1 = by_id("tab1").expect("tab1 is registered");
        render_report(&[tab1], true, &mut md).expect("tab1 renders");
        assert!(md.starts_with("# EXPERIMENTS — paper vs. measured\n\n"));
        assert!(md.contains("## Known deviations\n\n1. **GHRP"));
        assert!(!md.contains("runtime"), "{md}");
        assert!(md.ends_with("|\n") && !md.ends_with("\n\n"), "{md:?}");
    }
}
