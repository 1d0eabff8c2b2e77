//! Slice arithmetic: percentiles of raw samples, and the median and
//! inter-quartile range of per-slice values.

/// The `q`-quantile (0..=1) of ascending `sorted` by nearest rank:
/// the smallest sample with at least `q` of the data at or below it.
/// Raw samples, no buckets — a 10% bound cannot be resolved through
/// log2 buckets that quantise by 2x.
pub fn percentile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the "exclusive" method), so a spread computed here means the
/// same as one computed by the driver. One value has no spread.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Median and inter-quartile range of per-slice values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub iqr: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        let [q1, q2, q3] = quartiles(values);
        Spread {
            median: q2,
            iqr: q3 - q1,
        }
    }

    /// A single measurement: no spread to report.
    pub fn point(value: f64) -> Spread {
        Spread {
            median: value,
            iqr: 0.0,
        }
    }

    /// The IQR as a share of the median (0 when the median is 0).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.iqr / self.median).abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_by_nearest_rank() {
        let data: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&data, 0.50), 50.0);
        assert_eq!(percentile(&data, 0.99), 99.0);
        assert_eq!(percentile(&data, 1.0), 100.0);
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 1000 samples leave exactly ten beyond p99.
        let big: Vec<u32> = (0..1000).collect();
        assert_eq!(percentile(&big, 0.99), 989.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            [15.0, 30.0, 45.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_is_median_and_iqr() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&ten);
        assert_eq!(s.median, 5.5);
        assert_eq!(s.iqr, 5.5);
        assert_eq!(s.iqr_share(), 1.0);
        assert_eq!(Spread::point(3.0).iqr, 0.0);
        assert_eq!(Spread::point(0.0).iqr_share(), 0.0);
    }
}
