//! Sample summaries: the median, and the highest percentile that still has
//! at least ten samples beyond it.

/// Samples beyond the reported high percentile.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    })
}

/// The highest whole percentile `p` whose nearest-rank value still has
/// at least [`TAIL_SAMPLES`] samples above it, with that value. `None`
/// when there are too few samples for any percentile to qualify.
pub fn high_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let n = samples.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let s = sorted(samples);
    // Nearest rank k = ceil(p·n/100) must satisfy n − k ≥ TAIL_SAMPLES.
    let p = (100 * (n - TAIL_SAMPLES) / n) as u32;
    let rank = (p as usize * n).div_ceil(100).max(1);
    Some((p, s[rank - 1]))
}

#[derive(Debug, Clone)]
pub struct Summary {
    pub median: f64,
    pub high: Option<(u32, f64)>,
    pub count: usize,
}

pub fn summarize(samples: &[f64]) -> Option<Summary> {
    Some(Summary {
        median: median(samples)?,
        high: high_percentile(samples),
        count: samples.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond() {
        assert_eq!(high_percentile(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        // p = 9: rank 1, ten samples above it.
        assert_eq!(high_percentile(&xs), Some((9, 1.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(high_percentile(&xs), Some((90, 90.0)));
        for n in 11..300usize {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (p, v) = high_percentile(&xs).unwrap();
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_SAMPLES, "n={} p={} beyond={}", n, p, beyond);
            // One percentile higher would leave fewer than ten beyond.
            let rank = ((p as usize + 1) * n).div_ceil(100);
            assert!(p == 99 || n - rank < TAIL_SAMPLES, "n={} p={}", n, p);
        }
    }
}
