//! Order statistics shared by the workloads and `--compare`, and the
//! verdict `--compare` gives a change against its parent.

/// Median of `values` (mean of the two middle values for an even
/// count); `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method), so spreads computed here match
/// the ones an outside check computes from the same values. A single
/// value is its own quartiles; an empty slice gives `NaN`s.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return [v; 3];
    }
    // Python's integer arithmetic: `delta` goes negative (or above n)
    // when the clamp moves `j`, which extrapolates for two samples.
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Quartile distance as a share of the median (the run-to-run spread
/// the bounds in `BENCHMARK.json` are checked against).
pub fn spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    (q[2] - q[0]) / median(values).abs()
}

/// Nearest-rank percentile (`ceil(q·n)`-th smallest), the definition
/// the job server's own latency statistics use; `NaN` when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Samples strictly above the nearest-rank `q` percentile of `n`
/// samples: a tail percentile is reported only with at least ten.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Outcome of comparing a change's runs with its parent's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is no worse than the bound allows.
    Ok,
    /// The change's median is worse than the parent's by more than the
    /// bound, with both sets' spreads inside it.
    Regressed,
    /// A set's spread is wider than the bound, so no-change cannot be
    /// told apart from a regression.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The no-regression rule: with both spreads inside `bound`, the change
/// regresses when its median is worse than the parent's by more than
/// `bound` (a share of the parent's median). With a wider spread the
/// result is unresolved, unless every change run beats every parent
/// run.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    if spread(parent) > bound || spread(change) > bound {
        let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let (p, c) = (median(parent), median(change));
    let worse = if higher_is_better {
        (p - c) / p.abs()
    } else {
        (c - p) / p.abs()
    };
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_nearest_rank_with_a_ten_sample_tail_rule() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(40, 0.75), 10);
        assert_eq!(samples_beyond(0, 0.5), 0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn verdicts_follow_the_bound_and_spread_rules() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: 3% slower passes a 5% bound, 8% slower fails.
        let slower3: Vec<f64> = parent.iter().map(|x| x * 1.03).collect();
        let slower8: Vec<f64> = parent.iter().map(|x| x * 1.08).collect();
        assert_eq!(verdict(&parent, &slower3, false, 0.05), Verdict::Ok);
        assert_eq!(verdict(&parent, &slower8, false, 0.05), Verdict::Regressed);
        // Higher is better flips the direction.
        assert_eq!(verdict(&parent, &slower8, true, 0.05), Verdict::Ok);
        // A spread wider than the bound is unresolved ...
        let noisy = [50.0, 100.0, 150.0, 100.0, 120.0];
        assert_eq!(verdict(&parent, &noisy, false, 0.05), Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let faster = [10.0, 20.0, 30.0, 15.0, 25.0];
        assert_eq!(verdict(&parent, &faster, false, 0.05), Verdict::Ok);
    }
}
