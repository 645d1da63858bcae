//! Order statistics for timing samples: a median, and the highest
//! percentile the sample supports.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest of `values`; `0.0` for an empty sample.
///
/// This is what `setup_s` reports of a run's repeated set-ups. Noise on a
/// shared box only ever adds time, and here it is bimodal — one and the
/// same set-up takes either ~21 ms or ~35 ms depending on what the sibling
/// hardware thread is doing, and which mode holds the majority changes
/// from minute to minute — so the fastest repetition repeats between runs
/// where the median of the repetitions does not.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Arithmetic mean; `0.0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A timing sample's summary: the median, and the highest percentile with
/// at least [`TAIL_SUPPORT`] samples beyond it, capped at `cap` (e.g. 95).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    pub median: f64,
    /// The percentile `tail` is taken at (`0` when the sample is too small
    /// to support any tail, in which case `tail` is the maximum).
    pub tail_pct: u32,
    pub tail: f64,
}

/// Summarises `values`; see [`Summary`].
pub fn summarize(values: &[f64], cap: u32) -> Summary {
    let n = values.len();
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if n <= TAIL_SUPPORT {
        return Summary {
            n,
            median: median(values),
            tail_pct: 0,
            tail: v.last().copied().unwrap_or(0.0),
        };
    }
    // The value at sorted index `n - 1 - TAIL_SUPPORT` has exactly
    // TAIL_SUPPORT samples beyond it; as a percentile that is
    // floor(100 * (n - TAIL_SUPPORT) / n).
    let supported = (100 * (n - TAIL_SUPPORT) / n) as u32;
    let pct = supported.min(cap);
    let idx = ((pct as usize * n).div_ceil(100)).clamp(1, n) - 1;
    Summary {
        n,
        median: median(values),
        tail_pct: pct,
        tail: v[idx],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 150 samples 1..=150: ten beyond ⇒ p93 (the issue's example).
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        let s = summarize(&v, 99);
        assert_eq!((s.n, s.tail_pct), (150, 93));
        assert_eq!(s.tail, 140.0);
        assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), TAIL_SUPPORT);
        // The cap wins when the sample supports more.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&big, 95);
        assert_eq!(s.tail_pct, 95);
        assert_eq!(s.tail, 950.0);
        // Too small for any tail: report the maximum, percentile 0.
        let s = summarize(&[5.0, 9.0, 7.0], 95);
        assert_eq!((s.n, s.tail_pct, s.tail), (3, 0, 9.0));
    }
}
