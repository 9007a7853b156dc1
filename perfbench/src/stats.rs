//! Order statistics over measured samples.

/// Nearest-rank percentile (`q` in `[0, 1]`); 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// One window of consecutive completions.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub p50: f64,
    pub p99: f64,
}

/// Split latencies, in completion order, into windows of `size`
/// consecutive completions; a trailing partial window is dropped.
pub fn windows(latencies: &[f64], size: usize) -> Vec<Window> {
    latencies
        .chunks_exact(size)
        .map(|chunk| Window {
            p50: percentile(chunk, 0.5),
            p99: percentile(chunk, 0.99),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn windows_drop_only_the_trailing_partial_window() {
        let lat = [1.0, 3.0, 2.0, 4.0, 9.0];
        let w = windows(&lat, 2);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].p50, w[0].p99), (1.0, 3.0));
        assert_eq!((w[1].p50, w[1].p99), (2.0, 4.0));
    }
}
