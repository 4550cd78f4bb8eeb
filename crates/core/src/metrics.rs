//! Fault-effect bookkeeping and statistical-FI confidence machinery
//! (Section II-A of the paper).

use kernels::Outcome;

/// Outcome counts of one injection campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    pub masked: u32,
    pub sdc: u32,
    pub timeout: u32,
    pub due: u32,
}

impl ClassCounts {
    pub fn record(&mut self, o: Outcome) {
        match o {
            Outcome::Masked => self.masked += 1,
            Outcome::Sdc => self.sdc += 1,
            Outcome::Timeout => self.timeout += 1,
            Outcome::Due => self.due += 1,
        }
    }

    pub fn total(&self) -> u32 {
        self.masked + self.sdc + self.timeout + self.due
    }

    /// Failure rate: the probability of any non-masked outcome —
    /// `FR = Pct(SDC) + Pct(Timeout) + Pct(DUE)`.
    pub fn failure_rate(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.sdc + self.timeout + self.due) as f64 / t as f64
        }
    }

    /// Per-class fractions of all injections.
    pub fn rates(&self) -> ClassRates {
        let t = self.total().max(1) as f64;
        ClassRates {
            sdc: self.sdc as f64 / t,
            timeout: self.timeout as f64 / t,
            due: self.due as f64 / t,
        }
    }

    pub fn add(&mut self, o: &ClassCounts) {
        self.masked += o.masked;
        self.sdc += o.sdc;
        self.timeout += o.timeout;
        self.due += o.due;
    }
}

/// Non-masked class fractions (the stacked bars of the paper's figures).
/// Values may be derated/weighted and therefore do not need to sum to a
/// per-campaign fraction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassRates {
    pub sdc: f64,
    pub timeout: f64,
    pub due: f64,
}

impl ClassRates {
    /// The scalar vulnerability factor (SDC + Timeout + DUE).
    pub fn total(&self) -> f64 {
        self.sdc + self.timeout + self.due
    }

    pub fn scale(&self, f: f64) -> ClassRates {
        ClassRates {
            sdc: self.sdc * f,
            timeout: self.timeout * f,
            due: self.due * f,
        }
    }

    pub fn add(&mut self, o: &ClassRates) {
        self.sdc += o.sdc;
        self.timeout += o.timeout;
        self.due += o.due;
    }

    /// Weighted mean `Σ wᵢ·rᵢ / Σ wᵢ` of `(rates, weight)` parts — the
    /// multi-kernel rule of Sections II-B/II-C (kernel AVF by cycles,
    /// kernel SVF/PVF by instructions). Zero when the weights sum to zero.
    pub fn weighted(parts: impl IntoIterator<Item = (ClassRates, u64)>) -> ClassRates {
        let parts: Vec<(ClassRates, u64)> = parts.into_iter().collect();
        let total: u64 = parts.iter().map(|&(_, w)| w).sum();
        let mut acc = ClassRates::default();
        for (r, w) in parts {
            acc.add(&r.scale(w as f64 / total.max(1) as f64));
        }
        acc
    }
}

/// Confidence level for the statistical-FI error margin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Confidence {
    C90,
    C95,
    C99,
}

impl Confidence {
    /// Two-sided normal quantile of this confidence level (used by the
    /// worst-case margin below and by the Wilson/bootstrap intervals of
    /// the `stat` crate).
    pub fn z(&self) -> f64 {
        match self {
            Confidence::C90 => 1.6449,
            Confidence::C95 => 1.9600,
            Confidence::C99 => 2.5758,
        }
    }
}

/// Worst-case (p = 0.5) error margin of a statistical fault-injection
/// campaign with `n` samples (Leveugle et al., the paper's sizing rule:
/// 3,000 injections → 99% confidence, ±2.35%).
pub fn error_margin(n: usize, conf: Confidence) -> f64 {
    if n == 0 {
        return 1.0;
    }
    conf.z() * 0.5 / (n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_record_and_rates() {
        let mut c = ClassCounts::default();
        for _ in 0..70 {
            c.record(Outcome::Masked);
        }
        for _ in 0..20 {
            c.record(Outcome::Sdc);
        }
        for _ in 0..6 {
            c.record(Outcome::Timeout);
        }
        for _ in 0..4 {
            c.record(Outcome::Due);
        }
        assert_eq!(c.total(), 100);
        assert!((c.failure_rate() - 0.30).abs() < 1e-12);
        let r = c.rates();
        assert!((r.sdc - 0.20).abs() < 1e-12);
        assert!((r.timeout - 0.06).abs() < 1e-12);
        assert!((r.due - 0.04).abs() < 1e-12);
        assert!((r.total() - 0.30).abs() < 1e-12);
    }

    #[test]
    fn empty_counts_are_safe() {
        let c = ClassCounts::default();
        assert_eq!(c.failure_rate(), 0.0);
        assert_eq!(c.rates().total(), 0.0);
    }

    #[test]
    fn paper_margin_reproduced() {
        // 3,000 injections at 99% confidence → ±2.35% (Section II-A).
        let m = error_margin(3000, Confidence::C99);
        assert!((m - 0.0235).abs() < 2e-4, "margin {m}");
        assert!(error_margin(0, Confidence::C99) >= 1.0);
        assert!(error_margin(100, Confidence::C90) < error_margin(100, Confidence::C99));
    }

    #[test]
    fn rates_scale_and_add() {
        let r = ClassRates {
            sdc: 0.2,
            timeout: 0.1,
            due: 0.1,
        };
        let s = r.scale(0.5);
        assert!((s.total() - 0.2).abs() < 1e-12);
        let mut acc = ClassRates::default();
        acc.add(&s);
        acc.add(&s);
        assert!((acc.sdc - 0.2).abs() < 1e-12);
    }
}
