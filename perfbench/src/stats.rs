//! Order statistics for timings.

/// Median of `v` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let s = sorted(v);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p < 1) of `v`, or `None` when fewer
/// than ten samples lie beyond its rank: a tail percentile resting on a
/// handful of samples is noise, so it is omitted rather than reported.
/// Ties need no special case: the value at the rank is returned whatever
/// its neighbours hold.
pub fn tail_percentile(v: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "tail_percentile: p must be in (0, 1)");
    let n = v.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + 10 {
        return None;
    }
    Some(sorted(v)[rank - 1])
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_tied_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[5.0, 5.0, 5.0, 1.0]), Some(5.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p90 of 99 samples: rank 90, nine beyond → omitted.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), None);
        // p90 of 100 samples: rank 90, ten beyond → reported.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        // p99 of 1000 samples: rank 990, ten beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
    }

    #[test]
    fn tail_percentile_handles_ties() {
        let mut v = vec![7.0; 95];
        v.extend([1.0; 5]);
        assert_eq!(tail_percentile(&v, 0.9), Some(7.0));
        // Ties straddling the rank: ranks 1..=90 hold 2.0, the rest 3.0.
        let mut v = vec![3.0; 10];
        v.extend([2.0; 90]);
        assert_eq!(tail_percentile(&v, 0.9), Some(2.0));
        assert_eq!(tail_percentile(&[1.0; 20], 0.5), Some(1.0));
    }
}
