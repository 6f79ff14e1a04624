//! Order statistics for repeated timings.

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Fewest samples for which [`tail`] uses the ten-beyond rank: from 22 on,
/// that rank lies above the median.
pub const TAIL_MIN_SAMPLES: usize = 22;

/// A tail statistic: the value, the percentile it sits at and the sample
/// count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// Its percentile, in percent.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// The highest percentile with at least ten samples beyond it: the sample
/// at rank `n − 11` of the sorted list, which has exactly ten larger ranks
/// after it. Below [`TAIL_MIN_SAMPLES`] samples that rank would sit at or
/// below the median, so the tail is the maximum instead (percentile 100).
/// The maximum of a run's passes is whichever pass a host stall hit, so a
/// tail with ten samples beyond it is preferred wherever there is one.
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    if n < TAIL_MIN_SAMPLES {
        return Tail {
            value: s[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    Tail {
        value: s[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    }
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` gives them (the
/// default "exclusive" method); `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(xs)?;
    Some((q3 - q1) / q2.abs())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
