//! Order statistics over host-time samples.
//!
//! A repetition's wall time is split into steps; each step's timing is
//! its fastest repetition ([`best_of`]), the estimate least disturbed by
//! a host whose speed drifts. Set-up times are medians, a spread is the
//! interquartile range as a share of the median, and a tail percentile
//! is reported only while enough samples lie beyond it to make it more
//! than a single outlier.

/// A percentile is withheld unless at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `xs` (the mean of the two middle samples for an even
/// count), or `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The first and third quartiles of `xs`, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` does (its default "exclusive"
/// method), so the spread reported here is the one an outside check
/// of the runs computes. `None` with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative after clamping at the ends: Python extrapolates there.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The interquartile range of `xs` as a share of its median, or `None`
/// when it is undefined (fewer than two samples, or a zero median).
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The nearest-rank `pct`-th percentile of `xs` (`0 < pct < 100`), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(xs: &[f64], pct: f64) -> Option<f64> {
    if !(pct > 0.0 && pct < 100.0) || xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    (n - 1 - idx >= MIN_BEYOND).then(|| v[idx])
}

/// The step-wise minimum of repetitions that each time the same steps
/// in the same order, or `None` for no repetitions or ones of unequal
/// length.
pub fn best_of(reps: &[Vec<f64>]) -> Option<Vec<f64>> {
    let (first, rest) = reps.split_first()?;
    let mut best = first.clone();
    for rep in rest {
        if rep.len() != best.len() {
            return None;
        }
        for (b, &x) in best.iter_mut().zip(rep) {
            *b = b.min(x);
        }
    }
    Some(best)
}

/// The geometric mean of positive `xs`, or `None` for no samples or a
/// non-positive one.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from Python 3.11:
        //   statistics.quantiles([1..10], n=4)  == [2.75, 5.5, 8.25]
        //   statistics.quantiles([1, 2], n=4)   == [0.75, 1.5, 2.25]
        //   statistics.quantiles([7, 1, 4, 9, 3], n=4) == [2.0, 4.0, 8.0]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0, 1.0, 4.0, 9.0, 3.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&ten), Some(5.5 / 5.5));
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(iqr_share(&[0.0, 0.0]), None);
    }

    #[test]
    fn percentile_is_withheld_until_ten_samples_lie_beyond_it() {
        // p90 of 100 samples is the 90th value; 10 lie beyond it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        // With 99 samples only 9 lie beyond the p90 rank: withheld.
        assert_eq!(percentile(&hundred[..99], 90.0), None);
        // The median needs only 20 samples.
        let small: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&small, 50.0), Some(10.0));
        assert_eq!(percentile(&small[..19], 50.0), None);
        assert_eq!(percentile(&hundred, 0.0), None);
        assert_eq!(percentile(&hundred, 100.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=128).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 90.0), Some(116.0));
    }

    #[test]
    fn best_of_takes_each_steps_fastest_repetition() {
        let reps = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 6.0], vec![4.0, 2.0, 0.5]];
        assert_eq!(best_of(&reps), Some(vec![2.0, 1.0, 0.5]));
        assert_eq!(best_of(&reps[..1]), Some(vec![3.0, 1.0, 5.0]));
        assert_eq!(best_of(&[]), None);
        assert_eq!(best_of(&[vec![1.0], vec![1.0, 2.0]]), None);
    }

    #[test]
    fn geomean_of_ratios() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, -1.0]), None);
        let g = geomean(&[2.0, 8.0]).expect("positive samples");
        assert!((g - 4.0).abs() < 1e-12);
    }
}
