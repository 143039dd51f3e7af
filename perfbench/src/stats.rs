//! The benchmark's own math: medians, the tail-percentile rule, and
//! failure accounting.

/// The median of `xs` (mean of the middle pair for an even count); 0 for
/// an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fewest samples a reported percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// A reported percentile: its value, the percentile actually reported and
/// the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the reported rank.
    pub value: f64,
    /// The percentile reported (0–100); below the requested one when the
    /// sample is too small.
    pub pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// The nearest-rank `q`-quantile of `xs` (`q` in (0, 1]), capped by the
/// percentile rule: the rank may leave no fewer than [`TAIL_SAMPLES`]
/// samples beyond it, so a p99 needs at least 1 000 samples and smaller
/// samples report the highest percentile that still has 10 samples beyond
/// it. With 10 samples or fewer the rule cannot hold and the minimum is
/// reported. `None` for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> Option<Percentile> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let wanted = (q * n as f64).ceil().max(1.0) as usize;
    let rank = wanted.min(n.saturating_sub(TAIL_SAMPLES)).max(1);
    Some(Percentile {
        value: v[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        n,
    })
}

/// Attempted and failed units (sweep cells, interval segments or served
/// jobs) over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Units attempted.
    pub attempted: u64,
    /// Units that failed: structured failures, rejections and timeouts, or
    /// every unit of a repetition whose output digest mismatched.
    pub failed: u64,
}

impl Tally {
    /// Accounts one repetition of `units` units, `failed` of which failed
    /// on their own. A digest mismatch fails every unit of the repetition:
    /// its outputs cannot be trusted, whichever unit is wrong.
    pub fn add(&mut self, units: u64, failed: u64, digest_ok: bool) {
        self.attempted += units;
        self.failed += if digest_ok { failed.min(units) } else { units };
    }

    /// Failed units ÷ attempted units (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so sorting is exercised.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 3.0, 2.0]) - 2.5).abs() < 1e-12);
        assert!(median(&[]).abs() < 1e-12);
    }

    #[test]
    fn p99_is_reported_as_is_with_a_thousand_samples() {
        let p = percentile(&ramp(1000), 0.99).expect("non-empty");
        assert!((p.value - 990.0).abs() < 1e-12);
        assert!((p.pct - 99.0).abs() < 1e-12);
        assert_eq!(p.n, 1000);
    }

    #[test]
    fn small_samples_report_the_highest_percentile_with_ten_beyond_it() {
        let p = percentile(&ramp(200), 0.99).expect("non-empty");
        // Rank 190 of 200 leaves exactly 10 samples beyond it.
        assert!((p.value - 190.0).abs() < 1e-12);
        assert!((p.pct - 95.0).abs() < 1e-12);
        // The median is far from the cap and unaffected.
        let m = percentile(&ramp(200), 0.5).expect("non-empty");
        assert!((m.value - 100.0).abs() < 1e-12);
        // Ten samples or fewer cannot leave ten beyond any rank.
        let tiny = percentile(&ramp(5), 0.99).expect("non-empty");
        assert!((tiny.value - 1.0).abs() < 1e-12);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn failed_frac_counts_failures_and_rejections() {
        let mut t = Tally::default();
        t.add(34, 0, true);
        t.add(34, 2, true);
        assert_eq!(
            t,
            Tally {
                attempted: 68,
                failed: 2
            }
        );
        assert!((t.failed_frac() - 2.0 / 68.0).abs() < 1e-12);
        assert!(Tally::default().failed_frac().abs() < 1e-12);
    }

    #[test]
    fn a_digest_mismatch_fails_every_unit_of_its_repetition() {
        let mut t = Tally::default();
        t.add(34, 0, true);
        t.add(34, 1, false);
        assert_eq!(
            t,
            Tally {
                attempted: 68,
                failed: 34
            }
        );
        assert!((t.failed_frac() - 0.5).abs() < 1e-12);
    }
}
