//! Order statistics over wall and virtual-time samples.

/// Linearly interpolated quantile `q` in `[0, 1]` of an ascending slice
/// (the "type 7" estimator); `0.0` for an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * frac
        }
    }
}

/// The highest percentile (of 50, 90, 95, 99, 99.9) that leaves at least
/// ten samples beyond it, so a reader knows how far a tail reaches.
pub fn supported_percentile(n: usize) -> f64 {
    [999u64, 990, 950, 900, 500]
        .into_iter()
        .find(|per_mille| n as u64 * (1000 - per_mille) >= 10_000)
        .map_or(50.0, |per_mille| per_mille as f64 / 10.0)
}

/// Median of `values` (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [10, 20, 30, 40];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 40.0);
        assert_eq!(quantile(&v, 0.5), 25.0);
    }

    #[test]
    fn supported_percentile_needs_ten_beyond() {
        assert_eq!(supported_percentile(10_000), 99.9);
        assert_eq!(supported_percentile(1_000), 99.0);
        assert_eq!(supported_percentile(999), 95.0);
        assert_eq!(supported_percentile(5), 50.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
