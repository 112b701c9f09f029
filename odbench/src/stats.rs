//! Order statistics over exact sample vectors.

use std::time::Duration;

/// Nearest-rank quantile of an ascending slice; 0 for an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `samples` (sorted in place).
pub fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    quantile(samples, 0.5)
}

/// Nanoseconds of a duration, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Mean of `total` over `count`, 0 when nothing was counted.
pub fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}
