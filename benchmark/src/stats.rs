//! Order statistics for timing samples: medians, quartiles and the tail
//! percentile a sample set can actually support.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; the mean of the two middle samples for an even count. `None`
/// for an empty set.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method), so the spread printed here is
/// the spread the acceptance check computes. `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median — the "spread" every
/// bound in `BENCHMARK.json` is judged against.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(samples)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// A tail percentile together with what backs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the chosen rank.
    pub value: f64,
    /// The rank as a percentile of the set (90.0 for p90).
    pub percentile: f64,
    /// Size of the sample set.
    pub samples: usize,
}

/// The tail is never a higher percentile than this, however many samples
/// there are: runs of different length stay comparable.
pub const TAIL_CAP_PERCENTILE: f64 = 90.0;

/// The highest percentile, at most [`TAIL_CAP_PERCENTILE`], that still has
/// [`TAIL_SAMPLES_BEYOND`] samples above it. `None` when the set is too
/// small to have any such rank.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    if n <= TAIL_SAMPLES_BEYOND {
        return None;
    }
    // 1-based nearest rank of the cap, lowered until enough samples lie
    // beyond it.
    let cap_rank = ((TAIL_CAP_PERCENTILE / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let rank = cap_rank.min(n - TAIL_SAMPLES_BEYOND);
    Some(Tail {
        value: s[rank - 1],
        percentile: rank as f64 * 100.0 / n as f64,
        samples: n,
    })
}

/// Split `samples` into at most `max_blocks` consecutive blocks of
/// near-equal size (none empty). A rate computed per block and reported as
/// the median over blocks ignores a burst of host noise that a rate over
/// the whole run would absorb.
pub fn blocks<T>(samples: &[T], max_blocks: usize) -> impl Iterator<Item = &[T]> {
    let n = samples.len();
    let count = max_blocks.min(n).max(1);
    (0..count)
        .map(move |b| &samples[b * n / count..(b + 1) * n / count])
        .filter(|block| !block.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn tail_picks_the_highest_rank_with_ten_samples_beyond() {
        // 100 samples 1..=100: p90 is the 90th value and has 10 beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).expect("enough samples");
        assert_eq!((t.value, t.percentile, t.samples), (90.0, 90.0, 100));
        // 1000 samples: the cap holds the rank at p90 although p99 would
        // also have ten beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).expect("enough").value, 900.0);
        // 40 samples cannot support p90: the rank drops to the 30th value
        // (p75), and the count says so.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v).expect("enough samples");
        assert_eq!((t.value, t.percentile, t.samples), (30.0, 75.0, 40));
        // Ten samples or fewer have no rank with ten beyond it.
        assert_eq!(tail(&v[..10]), None);
        assert_eq!(tail(&v[..11]).expect("one rank").value, 1.0);
    }

    #[test]
    fn blocks_partition_in_order_without_empties() {
        let v: Vec<u32> = (0..23).collect();
        let got: Vec<&[u32]> = blocks(&v, 10).collect();
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|b| b.len() == 2 || b.len() == 3));
        assert_eq!(got.concat(), v, "consecutive, nothing lost or repeated");
        // Fewer samples than blocks: one sample per block.
        assert_eq!(blocks(&v[..4], 10).count(), 4);
        assert_eq!(blocks(&v[..0], 10).count(), 0);
    }
}
