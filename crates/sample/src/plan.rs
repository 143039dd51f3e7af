//! Representative selection and weighted reconstruction.
//!
//! The output of the pipeline's analysis half: a [`SamplePlan`] names, for
//! each cluster of similar intervals, the *representative* interval to
//! simulate (closest to the centroid), an optional *probe* interval (the
//! farthest member — simulated alongside the representative, its
//! disagreement with the representative feeds the reported error bound),
//! and the cluster's weight (its share of the trace's micro-ops). Whole-
//! trace metrics are then reconstructed as the weight-averaged metrics of
//! the representatives.

use crate::interval::{fingerprint_intervals, Interval};
use crate::kmeans::choose_k;
use std::ops::Range;
use uopcache_model::LookupTrace;

/// Error-bound floor: reconstruction error never reports below this, since
/// finite sampling always carries residual risk even when the probes agree
/// perfectly with their representatives.
pub const EST_ERROR_FLOOR: f64 = 0.01;
/// Error-bound margin over the observed representative↔probe dispersion.
pub const EST_ERROR_MARGIN: f64 = 1.5;

/// Tuning knobs for plan construction.
#[derive(Copy, Clone, Debug)]
pub struct SampleConfig {
    /// Interval size in micro-ops.
    pub interval_uops: u64,
    /// Projected BBV dimensionality.
    pub dim: usize,
    /// Largest cluster count tried by the BIC-style k sweep.
    pub max_k: usize,
    /// k-means iteration cap.
    pub kmeans_iters: usize,
    /// Functional-warmup length, in micro-ops simulated (unmeasured) before
    /// each sample point — converted to whole intervals at plan build. Too
    /// short and every point re-pays misses the continuously-simulated
    /// cache would have hit (front-end structures hold history far beyond
    /// the micro-op cache itself), biasing hit rates down; the cost of a
    /// point grows linearly with it. Specified in uops, not intervals, so
    /// the warm state is equally deep whatever the interval size.
    pub warmup_uops: u64,
    /// Target number of measured sample points across all clusters,
    /// distributed proportionally to cluster weight (at least one per
    /// cluster). One point per cluster is the textbook SimPoint setting; it
    /// is only accurate when clusters are internally homogeneous. Multiple
    /// stratified points per cluster average residual within-cluster
    /// variance away at a cost linear in the point count.
    pub target_points: usize,
    /// Seed for projection and centroid initialisation.
    pub seed: u64,
}

impl SampleConfig {
    /// Defaults (dim 32, k ≤ 8, 40 iterations, 20K-uop warmup, 16 sample
    /// points) for a given interval size and seed.
    pub fn new(interval_uops: u64, seed: u64) -> Self {
        SampleConfig {
            interval_uops,
            dim: 32,
            max_k: 8,
            kmeans_iters: 40,
            warmup_uops: 20_000,
            target_points: 24,
            seed,
        }
    }
}

/// One cluster's simulation plan.
#[derive(Clone, Debug)]
pub struct ClusterPlan {
    /// Interval index of the representative (closest to the centroid;
    /// distance ties break toward the lowest interval index).
    pub representative: usize,
    /// Interval indices of the measured sample points, ascending: a
    /// stratified (evenly spaced in stream order) subset of the cluster's
    /// members, sized proportionally to the cluster's weight. The cluster's
    /// metrics are the uop-weighted average over these points.
    pub points: Vec<usize>,
    /// Interval index of the probe (farthest member), when the cluster
    /// measures only a single point and has a second member to probe with —
    /// the probe's disagreement with that point stands in for the
    /// within-cluster dispersion that multiple points would measure.
    pub probe: Option<usize>,
    /// Number of member intervals.
    pub members: usize,
    /// Total micro-ops across member intervals.
    pub uops: u64,
    /// `uops / total_uops` — the reconstruction weight.
    pub weight: f64,
}

/// A complete sampling plan for one trace.
#[derive(Clone, Debug)]
pub struct SamplePlan {
    /// Interval size the trace was sliced at.
    pub interval_uops: u64,
    /// Chosen cluster count.
    pub k: usize,
    /// The interval table, in stream order.
    pub intervals: Vec<Interval>,
    /// Cluster index of each interval (indexes into [`SamplePlan::clusters`]).
    pub assignments: Vec<usize>,
    /// Per-cluster plans, ordered by representative interval index.
    pub clusters: Vec<ClusterPlan>,
    /// Micro-ops in the whole trace (the weight denominator).
    pub total_uops: u64,
    /// Functional-warmup length in intervals: [`SampleConfig::warmup_uops`]
    /// rounded up to whole intervals (at least one).
    pub warmup_intervals: usize,
}

impl SamplePlan {
    /// Builds a plan: slice → fingerprint → cluster → select. Pure function
    /// of `(trace, cfg)`.
    pub fn build(trace: &LookupTrace, cfg: &SampleConfig) -> SamplePlan {
        let (intervals, vectors) =
            fingerprint_intervals(trace, cfg.interval_uops, cfg.dim, cfg.seed);
        let clustering = choose_k(&vectors, cfg.max_k, cfg.seed, cfg.kmeans_iters);
        let total_uops: u64 = intervals.iter().map(|iv| iv.uops).sum();

        // Representative (closest) and probe (farthest) per raw cluster.
        // Strict comparisons tie-break toward the lowest interval index,
        // because intervals are visited in stream order.
        let dist2 =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        let mut raw: Vec<Option<ClusterPlan>> = vec![None; clustering.k];
        let mut member_lists: Vec<Vec<usize>> = vec![Vec::new(); clustering.k];
        let mut best: Vec<f64> = vec![f64::INFINITY; clustering.k];
        let mut worst: Vec<f64> = vec![f64::NEG_INFINITY; clustering.k];
        for (i, iv) in intervals.iter().enumerate() {
            let c = clustering.assignments[i];
            let d = dist2(&vectors[i], &clustering.centroids[c]);
            let entry = raw[c].get_or_insert(ClusterPlan {
                representative: i,
                points: Vec::new(),
                probe: None,
                members: 0,
                uops: 0,
                weight: 0.0,
            });
            member_lists[c].push(i);
            entry.members += 1;
            entry.uops += iv.uops;
            if d < best[c] {
                best[c] = d;
                entry.representative = i;
            }
            if d > worst[c] {
                worst[c] = d;
                entry.probe = Some(i);
            }
        }

        // Canonical cluster order: by representative interval index.
        let mut clusters: Vec<(usize, ClusterPlan)> = raw
            .into_iter()
            .enumerate()
            .filter_map(|(c, p)| p.map(|p| (c, p)))
            .collect();
        clusters.sort_by_key(|(_, p)| p.representative);
        let mut remap = vec![usize::MAX; clustering.k];
        for (new_idx, (old_idx, _)) in clusters.iter().enumerate() {
            remap[*old_idx] = new_idx;
        }
        let assignments: Vec<usize> = clustering.assignments.iter().map(|&c| remap[c]).collect();
        for (old_idx, p) in &mut clusters {
            // Stratified sample points: the cluster's proportional share of
            // the target (at least 1, at most every member), spread evenly
            // over the members in stream order. `(2j+1)·m / 2p` is
            // `floor((j + ½)·m/p)` in integers — strictly increasing for
            // p ≤ m, so the points are distinct and ascending.
            let members = &member_lists[*old_idx];
            let m = members.len();
            let share = if total_uops == 0 {
                1
            } else {
                let rounded =
                    (cfg.target_points as u64 * p.uops * 2 + total_uops) / (2 * total_uops);
                usize::try_from(rounded).unwrap_or(usize::MAX)
            };
            let count = share.clamp(1, m);
            p.points = (0..count)
                .map(|j| members[(2 * j + 1) * m / (2 * count)])
                .collect();
            // With several measured points the within-cluster dispersion is
            // observed directly; the probe only earns its simulation when a
            // single point would otherwise go unchecked (and is a genuinely
            // different interval).
            if p.points.len() > 1 || p.probe == Some(p.points[0]) {
                p.probe = None;
            }
            p.weight = if total_uops == 0 {
                0.0
            } else {
                p.uops as f64 / total_uops as f64
            };
        }
        let clusters: Vec<ClusterPlan> = clusters.into_iter().map(|(_, p)| p).collect();

        SamplePlan {
            interval_uops: cfg.interval_uops.max(1),
            k: clusters.len(),
            intervals,
            assignments,
            clusters,
            total_uops,
            warmup_intervals: usize::try_from(cfg.warmup_uops.div_ceil(cfg.interval_uops.max(1)))
                .unwrap_or(usize::MAX)
                .max(1),
        }
    }

    /// Per-cluster reconstruction weights (sum to 1 for a non-empty trace).
    pub fn weights(&self) -> Vec<f64> {
        self.clusters.iter().map(|c| c.weight).collect()
    }

    /// Weighted reconstruction of a per-uop metric: `Σ weight_c · value_c`,
    /// where `value_c` was measured on cluster `c`'s representative. Exact
    /// for any metric that is constant within each cluster.
    ///
    /// # Panics
    ///
    /// Panics if `per_cluster` does not have one value per cluster.
    pub fn estimate(&self, per_cluster: &[f64]) -> f64 {
        assert_eq!(
            per_cluster.len(),
            self.clusters.len(),
            "one value per cluster"
        );
        self.clusters
            .iter()
            .zip(per_cluster)
            .map(|(c, v)| c.weight * v)
            .sum()
    }

    /// The reported error bound for a rate metric: the floor plus a margin
    /// over the weighted within-cluster dispersion. A cluster with several
    /// measured points contributes the standard error of its point values
    /// (`std/√p` — the uncertainty of the mean the reconstruction actually
    /// uses); a single-point cluster contributes its point↔probe
    /// disagreement instead; a singleton with no probe contributes nothing
    /// — its point *is* the cluster.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not have one entry per cluster (with, per
    /// cluster, one value per sample point).
    pub fn error_bound(&self, point_metric: &[Vec<f64>], probe_metric: &[Option<f64>]) -> f64 {
        assert_eq!(
            point_metric.len(),
            self.clusters.len(),
            "one entry per cluster"
        );
        assert_eq!(
            probe_metric.len(),
            self.clusters.len(),
            "one entry per cluster"
        );
        let dispersion: f64 = self
            .clusters
            .iter()
            .zip(point_metric.iter().zip(probe_metric))
            .map(|(c, (pts, probe))| {
                assert_eq!(pts.len(), c.points.len(), "one value per sample point");
                let d = if pts.len() >= 2 {
                    let n = pts.len() as f64;
                    let mean = pts.iter().sum::<f64>() / n;
                    let var = pts.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
                    (var / n).sqrt()
                } else {
                    probe.map_or(0.0, |p| (pts[0] - p).abs())
                };
                c.weight * d
            })
            .sum();
        EST_ERROR_FLOOR + EST_ERROR_MARGIN * dispersion
    }

    /// The functional-warmup range for an interval: the accesses of (up to)
    /// the `warmup_intervals` preceding intervals. Intervals at the trace
    /// start get whatever prefix exists; interval 0 gets none, so the
    /// genuine cold-start region stays represented. Simulating the warmup
    /// range before measuring gives the cache a realistically warm state
    /// without charging its misses to the sample.
    pub fn warmup_range(&self, interval_index: usize) -> Range<usize> {
        if interval_index == 0 || self.intervals.is_empty() {
            return 0..0;
        }
        let first = interval_index.saturating_sub(self.warmup_intervals);
        self.intervals[first].start_access..self.intervals[interval_index].start_access
    }

    /// The concatenated accesses of every simulation point, in trace order —
    /// the sampled stand-in for the full trace wherever a *training* trace is
    /// needed (e.g. profile-guided policy preparation). Using every point
    /// rather than just the cluster representatives keeps profile-guided
    /// policies faithful: when the points cover all intervals the training
    /// trace degenerates to the full trace.
    pub fn representative_trace(&self, trace: &LookupTrace) -> LookupTrace {
        let mut members: Vec<usize> = self
            .clusters
            .iter()
            .flat_map(|c| c.points.iter().copied())
            .collect();
        members.sort_unstable();
        let len = members.iter().map(|&m| self.intervals[m].len()).sum();
        let mut out = LookupTrace::with_capacity(len);
        for m in members {
            out.extend_from_slice(&trace.accesses()[self.intervals[m].range()]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_trace::{build_trace, AppId, InputVariant};

    fn plan_for(app: AppId, len: usize, interval: u64) -> (LookupTrace, SamplePlan) {
        let trace = build_trace(app, InputVariant(0), len);
        let plan = SamplePlan::build(&trace, &SampleConfig::new(interval, 0xfeed));
        (trace, plan)
    }

    #[test]
    fn weights_sum_to_one_and_cover_the_trace() {
        let (trace, plan) = plan_for(AppId::Kafka, 8_000, 4_000);
        assert!(plan.k >= 1);
        assert_eq!(plan.total_uops, trace.total_uops());
        let sum: f64 = plan.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
        let member_total: usize = plan.clusters.iter().map(|c| c.members).sum();
        assert_eq!(member_total, plan.intervals.len());
    }

    #[test]
    fn representatives_and_points_belong_to_their_clusters() {
        let (_, plan) = plan_for(AppId::Wordpress, 12_000, 2_000);
        for (c, cl) in plan.clusters.iter().enumerate() {
            assert_eq!(plan.assignments[cl.representative], c);
            assert!(!cl.points.is_empty());
            assert!(cl.points.len() <= cl.members);
            for w in cl.points.windows(2) {
                assert!(w[0] < w[1], "points ascend and are distinct");
            }
            for &p in &cl.points {
                assert_eq!(plan.assignments[p], c);
            }
            if let Some(p) = cl.probe {
                assert_eq!(plan.assignments[p], c);
                assert_eq!(cl.points.len(), 1, "probes only back single points");
                assert_ne!(p, cl.points[0]);
            }
        }
        // Stratification spends about the configured budget across clusters.
        let total_points: usize = plan.clusters.iter().map(|c| c.points.len()).sum();
        assert!(total_points >= plan.k);
        assert!(total_points <= plan.intervals.len());
        // Canonical order: representatives ascend.
        for w in plan.clusters.windows(2) {
            assert!(w[0].representative < w[1].representative);
        }
    }

    #[test]
    fn piecewise_constant_metrics_reconstruct_exactly() {
        let (_, plan) = plan_for(AppId::Clang, 10_000, 2_500);
        // Invent a metric constant within each cluster: its cluster index.
        let per_cluster: Vec<f64> = (0..plan.clusters.len()).map(|c| c as f64).collect();
        let est = plan.estimate(&per_cluster);
        // Ground truth: uop-weighted mean over intervals of their cluster's
        // value — identical by construction.
        let truth: f64 = plan
            .intervals
            .iter()
            .enumerate()
            .map(|(i, iv)| plan.assignments[i] as f64 * iv.uops as f64)
            .sum::<f64>()
            / plan.total_uops as f64;
        assert!((est - truth).abs() < 1e-9, "est {est} vs truth {truth}");
    }

    #[test]
    fn error_bound_floors_and_grows_with_dispersion() {
        let (_, plan) = plan_for(AppId::Python, 9_000, 3_000);
        let flat: Vec<Vec<f64>> = plan
            .clusters
            .iter()
            .map(|c| vec![0.9; c.points.len()])
            .collect();
        let noisy: Vec<Vec<f64>> = plan
            .clusters
            .iter()
            .map(|c| {
                (0..c.points.len())
                    .map(|j| if j % 2 == 0 { 0.95 } else { 0.45 })
                    .collect()
            })
            .collect();
        let probes: Vec<Option<f64>> = plan.clusters.iter().map(|c| c.probe.map(|_| 0.9)).collect();
        let tight = plan.error_bound(&flat, &probes);
        assert!(tight >= EST_ERROR_FLOOR);
        if plan.clusters.iter().any(|c| c.points.len() >= 2) {
            assert!(plan.error_bound(&noisy, &probes) > tight);
        }
        // Single-point clusters fall back to probe disagreement.
        if plan.clusters.iter().any(|c| c.probe.is_some()) {
            let far: Vec<Option<f64>> =
                plan.clusters.iter().map(|c| c.probe.map(|_| 0.1)).collect();
            assert!(plan.error_bound(&flat, &far) > tight);
        }
    }

    #[test]
    fn warmup_covers_the_preceding_intervals() {
        let (_, plan) = plan_for(AppId::Mysql, 6_000, 1_500);
        assert_eq!(plan.warmup_range(0), 0..0);
        if plan.intervals.len() > 1 {
            assert_eq!(plan.warmup_range(1), plan.intervals[0].range());
        }
        let last = plan.intervals.len() - 1;
        let w = plan.warmup_range(last);
        // Warmup ends exactly where the measured interval begins and spans
        // at most `warmup_intervals` intervals.
        assert_eq!(w.end, plan.intervals[last].start_access);
        assert_eq!(
            w.start,
            plan.intervals[last.saturating_sub(plan.warmup_intervals)].start_access
        );
    }

    #[test]
    fn representative_trace_concatenates_point_slices() {
        let (trace, plan) = plan_for(AppId::Tomcat, 8_000, 2_000);
        let rep = plan.representative_trace(&trace);
        let expected: usize = plan
            .clusters
            .iter()
            .flat_map(|c| c.points.iter())
            .map(|&m| plan.intervals[m].len())
            .sum();
        assert_eq!(rep.len(), expected);
        let total_points: usize = plan.clusters.iter().map(|c| c.points.len()).sum();
        if total_points == plan.intervals.len() {
            assert_eq!(rep.len(), trace.len());
        } else {
            assert!(rep.len() < trace.len());
        }
    }
}
