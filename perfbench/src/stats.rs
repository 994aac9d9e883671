//! Order statistics: quantiles, the tail-percentile rule, and the
//! geometric mean.

/// Fewest samples that must lie beyond the reported tail quantile.
pub const MIN_BEYOND: usize = 10;

/// `values` sorted ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` of ascending `sorted`, interpolating linearly between the
/// two order statistics around position `q * (n - 1)`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The quantile reported as the tail of `samples` request times drawn in
/// equal shares from `inputs` inputs.
///
/// It starts from the highest quantile with at least [`MIN_BEYOND`]
/// samples beyond it. Sorted times fall into one band per input (input
/// `j` of `k` fills quantiles `j/k .. (j+1)/k` when inputs differ in
/// cost), and a quantile near a band edge flips between two inputs' times
/// from run to run. So the result is kept in the middle half of one band:
/// lowered to the band's upper safe edge, or to the upper safe edge of the
/// band below when it sits in the lower quarter of its own.
pub fn tail_quantile(samples: usize, inputs: usize) -> f64 {
    assert!(
        samples > 2 * MIN_BEYOND && inputs > 0,
        "too few samples ({samples}) for a tail"
    );
    let k = inputs as f64;
    let highest = 1.0 - MIN_BEYOND as f64 / samples as f64;
    let band = (highest * k).floor();
    let margin = 1.0 / (4.0 * k);
    let (low, high) = (band / k + margin, (band + 1.0) / k - margin);
    if highest >= high {
        high
    } else if highest >= low {
        highest
    } else {
        band / k - margin
    }
}

/// Geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `part / base`, and 0 when the base is empty.
pub fn ratio(part: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        part as f64 / base as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(values: &[f64], q: f64) -> usize {
        let s = sorted(values);
        let cut = quantile(&s, q);
        s.iter().filter(|&&v| v > cut).count()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for (inputs, passes) in [(5, 14), (5, 20), (5, 400), (3, 14), (3, 20), (3, 90)] {
            let n = inputs * passes;
            let values: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            let q = tail_quantile(n, inputs);
            assert!(beyond(&values, q) >= MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn tail_stays_inside_one_band() {
        assert!((tail_quantile(100, 5) - 0.9).abs() < 1e-12);
        // Plenty of samples: capped at the top band's upper safe edge.
        assert!((tail_quantile(5000, 5) - 0.95).abs() < 1e-12);
        // 14 passes is the fewest that keep the tail in the top band.
        for inputs in [2, 3, 5, 8] {
            let q = tail_quantile(14 * inputs, inputs);
            let k = inputs as f64;
            assert!(q >= 1.0 - 3.0 / (4.0 * k) - 1e-12, "inputs={inputs} q={q}");
        }
        // Too few samples for the top band: the band below, away from its edge.
        let q = tail_quantile(30, 3);
        assert!((q - (2.0 / 3.0 - 1.0 / 12.0)).abs() < 1e-12, "q={q}");
        for n in 21..2000 {
            for inputs in [3, 5] {
                let k = inputs as f64;
                let pos = tail_quantile(n, inputs) * k;
                let into_band = pos - pos.floor();
                assert!(
                    (0.25 - 1e-9..=0.75 + 1e-9).contains(&into_band),
                    "n={n} k={k} pos={pos}"
                );
            }
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(min(&[5.0, 1.0, 3.0]), 1.0);
    }

    #[test]
    fn geometric_mean_weighs_every_input_alike() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-9);
        // Scaling one input by 8 scales the mean by the cube root of 8.
        let base = geomean(&[10.0, 20.0, 30.0]);
        assert!((geomean(&[80.0, 20.0, 30.0]) / base - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_of_an_empty_base_is_zero() {
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(ratio(0, 0), 0.0);
    }
}
