//! Order statistics for repeated timings.
//!
//! Every timing the harness reports is a median over repetitions; the
//! result files carry the quartiles, the median absolute deviation and the
//! sample count beside it so a reader can judge the spread without the raw
//! samples.

use cv_common::json::{json, Json};

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
/// Returns 0.0 for an empty slice so an unused layer reads as zero.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn quantile(samples: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(samples), q)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First and third quartile by the "exclusive" method (positions `(n+1)/4`
/// and `3(n+1)/4`), the default of Python's `statistics.quantiles(v, n=4)`,
/// so a spread computed here equals the one the acceptance driver computes.
fn quartiles_sorted(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Median with the spread a reader needs to trust it.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub mad: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        let median = quantile_sorted(&s, 0.5);
        let deviations: Vec<f64> = s.iter().map(|x| (x - median).abs()).collect();
        let (q1, q3) = quartiles_sorted(&s);
        Summary { n: s.len(), median, q1, q3, mad: self::median(&deviations) }
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self) -> Json {
        json!({
            "n": self.n as u64,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "mad": self.mad,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn summary_reports_spread() {
        let s = Summary::of(&[10.0, 12.0, 11.0, 13.0, 9.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 11.0);
        // statistics.quantiles([9, 10, 11, 12, 13], n=4) == [9.5, 11.0, 12.5]
        assert_eq!((s.q1, s.q3), (9.5, 12.5));
        assert_eq!(s.mad, 1.0);
        assert!((s.spread() - 3.0 / 11.0).abs() < 1e-12);
        let one = Summary::of(&[5.0]);
        assert_eq!((one.q1, one.median, one.q3), (5.0, 5.0, 5.0));
    }
}
