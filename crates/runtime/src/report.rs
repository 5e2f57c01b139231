//! Small statistics helpers shared by the bench harnesses: nearest-rank
//! percentiles and hit rates.

/// Nearest-rank percentile of an ascending-sorted slice. `pct` in
/// [0, 100]. Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Hit rate in [0, 1]; 0 when there was no traffic at all.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        return 0.0;
    }
    hits as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[42], 50.0), 42);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn hit_rate_handles_empty_traffic() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(3, 1), 0.75);
        assert_eq!(hit_rate(5, 0), 1.0);
    }
}
