//! Confidence intervals for campaign rates: Wilson score intervals for
//! per-stratum binomial rates and a seeded bootstrap for weighted
//! combinations of strata (the propagated two-level estimate).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use relia::Confidence;

/// A closed interval `[lo, hi] ⊆ [0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
}

impl Interval {
    /// The degenerate no-information interval.
    pub const FULL: Interval = Interval { lo: 0.0, hi: 1.0 };

    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }

    pub fn contains(&self, p: f64) -> bool {
        self.lo <= p && p <= self.hi
    }
}

/// Wilson score interval for a binomial rate: `successes` out of `n`
/// trials at confidence `conf`. Unlike the Wald interval it never leaves
/// `[0, 1]` and stays honest at the extremes (`p̂ = 0` or `1`), which is
/// exactly where injection strata live (most faults are masked). With
/// `n = 0` there is no information and the interval collapses to
/// `[0, 1]` — NaN-free by construction, so empty adaptive strata cannot
/// poison a merge fold.
pub fn wilson(successes: u64, n: u64, conf: Confidence) -> Interval {
    debug_assert!(successes <= n, "successes {successes} > n {n}");
    if n == 0 {
        return Interval::FULL;
    }
    let n = n as f64;
    let p = successes as f64 / n;
    let z = conf.z();
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let hw = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    Interval {
        lo: (center - hw).max(0.0),
        hi: (center + hw).min(1.0),
    }
}

/// One stratum of a weighted rate estimate: `failures` out of `n` trials,
/// contributing `weight × rate` to the combined estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedStratum {
    pub failures: u64,
    pub n: u64,
    pub weight: f64,
}

impl WeightedStratum {
    /// This stratum's contribution to the point estimate (`0` when it
    /// holds no trials — an empty stratum carries no evidence, not NaN).
    pub fn contribution(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.weight * self.failures as f64 / self.n as f64
        }
    }
}

/// Point estimate of a weighted combination of strata: `Σ wᵢ · p̂ᵢ`.
pub fn weighted_rate(strata: &[WeightedStratum]) -> f64 {
    strata.iter().map(WeightedStratum::contribution).sum()
}

/// Percentile-bootstrap confidence interval for [`weighted_rate`]: each
/// replicate resamples every stratum's failure count from
/// `Binomial(nᵢ, p̂ᵢ)` and recomputes the weighted sum; the interval is
/// the centred `conf` percentile span of the replicates. Deterministic
/// under a fixed `seed` (the replicate RNG is a seeded [`SmallRng`] and
/// strata are resampled in order), so the propagated CI is as
/// reproducible as the campaign itself.
pub fn bootstrap_weighted_ci(
    strata: &[WeightedStratum],
    reps: usize,
    seed: u64,
    conf: Confidence,
) -> Interval {
    if reps == 0 || strata.iter().all(|s| s.n == 0) {
        return Interval::FULL;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut total = 0.0;
        for s in strata {
            if s.n == 0 {
                continue;
            }
            let p = s.failures as f64 / s.n as f64;
            // Binomial(n, p) as n Bernoulli draws: campaign strata are
            // small (tens to hundreds of trials), so this stays cheap and
            // avoids approximation error near p = 0, where strata live.
            let mut k = 0u64;
            for _ in 0..s.n {
                if rng.gen::<f64>() < p {
                    k += 1;
                }
            }
            total += s.weight * k as f64 / s.n as f64;
        }
        samples.push(total);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("bootstrap samples are finite"));
    let tail = match conf {
        Confidence::C90 => 0.05,
        Confidence::C95 => 0.025,
        Confidence::C99 => 0.005,
    };
    let at = |q: f64| -> f64 {
        let i = ((reps - 1) as f64 * q).round() as usize;
        samples[i.min(reps - 1)]
    };
    // clamp (not one-sided max/min) so the interval stays ordered even
    // for weight vectors that push replicates outside [0, 1].
    Interval {
        lo: at(tail).clamp(0.0, 1.0),
        hi: at(1.0 - tail).clamp(0.0, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::Outcome;
    use relia::ClassCounts;

    #[test]
    fn wilson_degenerate_and_extremes() {
        assert_eq!(wilson(0, 0, Confidence::C95), Interval::FULL);
        let z = wilson(0, 50, Confidence::C95);
        assert_eq!(z.lo, 0.0);
        assert!(z.hi > 0.0 && z.hi < 0.2, "p=0 upper bound {z:?}");
        let o = wilson(50, 50, Confidence::C95);
        assert_eq!(o.hi, 1.0);
        assert!(o.lo > 0.8, "p=1 lower bound {o:?}");
        // Single-trial strata stay finite and in [0, 1].
        for k in [0, 1] {
            let i = wilson(k, 1, Confidence::C99);
            assert!(i.lo.is_finite() && i.hi.is_finite());
            assert!(i.lo >= 0.0 && i.hi <= 1.0 && i.lo <= i.hi);
        }
    }

    #[test]
    fn wilson_matches_textbook_value() {
        // 15/100 at 95%: the standard worked example lands near
        // [0.093, 0.233].
        let i = wilson(15, 100, Confidence::C95);
        assert!((i.lo - 0.0932).abs() < 2e-3, "{i:?}");
        assert!((i.hi - 0.2327).abs() < 2e-3, "{i:?}");
    }

    #[test]
    fn bootstrap_is_seed_deterministic_and_covers_point() {
        let strata = [
            WeightedStratum {
                failures: 5,
                n: 40,
                weight: 0.6,
            },
            WeightedStratum {
                failures: 1,
                n: 25,
                weight: 0.4,
            },
        ];
        let a = bootstrap_weighted_ci(&strata, 500, 42, Confidence::C95);
        let b = bootstrap_weighted_ci(&strata, 500, 42, Confidence::C95);
        assert_eq!(a, b, "same seed, same interval");
        let p = weighted_rate(&strata);
        assert!(a.contains(p), "CI {a:?} covers the point estimate {p}");
    }

    #[test]
    fn bootstrap_of_empty_strata_is_full() {
        let empty = [WeightedStratum {
            failures: 0,
            n: 0,
            weight: 1.0,
        }];
        assert_eq!(
            bootstrap_weighted_ci(&empty, 100, 1, Confidence::C95),
            Interval::FULL
        );
        assert_eq!(weighted_rate(&empty), 0.0);
    }

    fn counts(outcomes: &[Outcome]) -> ClassCounts {
        let mut c = ClassCounts::default();
        outcomes.iter().for_each(|&o| c.record(o));
        c
    }

    #[test]
    fn empty_stratum_is_nan_free_and_degenerate() {
        let c = ClassCounts::default();
        assert_eq!((c.total(), c.failures()), (0, 0));
        assert_eq!(c.failure_rate(), 0.0);
        let (failures, sdc, n) = (c.failures() as u64, c.sdc as u64, c.total() as u64);
        assert_eq!(wilson(failures, n, Confidence::C95), Interval::FULL);
        assert_eq!(wilson(sdc, n, Confidence::C99), Interval::FULL);
    }

    #[test]
    fn single_trial_stratum_is_finite() {
        for o in [Outcome::Masked, Outcome::Sdc] {
            let c = counts(&[o]);
            assert_eq!(c.total(), 1);
            assert!(c.failure_rate().is_finite());
            let ci = wilson(c.failures() as u64, 1, Confidence::C95);
            assert!(ci.lo.is_finite() && ci.hi.is_finite());
            assert!(ci.half_width() < 0.5, "one trial is evidence: {ci:?}");
        }
    }

    #[test]
    fn merging_empty_strata_never_poisons_the_fold() {
        let live = counts(&[[Outcome::Masked; 7].as_slice(), &[Outcome::Sdc; 3]].concat());
        let mut acc = ClassCounts::default();
        acc.add(&ClassCounts::default());
        acc.add(&live);
        acc.add(&ClassCounts::default());
        assert_eq!((acc.total(), acc.failures()), (10, 3));
        assert!((acc.failure_rate() - 0.3).abs() < 1e-12);
        assert!((acc.rates().sdc - 0.3).abs() < 1e-12);
        // The fold is commutative on counts: its order cannot matter.
        let mut rev = live;
        rev.add(&ClassCounts::default());
        assert_eq!(acc, rev);
    }
}
