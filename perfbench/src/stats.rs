//! Order statistics over timing samples, and the seed mixer every
//! workload derives its inputs from.

use evo::stats::Summary;
use std::time::Instant;

/// Nearest-rank percentile (`q` in `0.0..=1.0`) of `values`; `NaN`
/// when empty. Infinite samples (failed operations) sort last, so they
/// miss every latency limit without poisoning the lower percentiles.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    Summary::percentile(values, q * 100.0).unwrap_or(f64::NAN)
}

/// The median (nearest-rank 50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The highest of p99.9/p99/p90/p75/p50 that leaves at least ten
/// samples above it, as `(q, value)`; `None` below twenty samples.
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    [999, 990, 900, 750, 500]
        .into_iter()
        .find(|&permille| n - (n * permille).div_ceil(1000) >= 10)
        .map(|permille| {
            let q = permille as f64 / 1000.0;
            (q, percentile(values, q))
        })
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// SplitMix64 finaliser: a bijective mix, so distinct
/// `(seed, stream, index)` inputs give distinct, well-spread outputs.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th pseudo-random word of input stream `stream` under the
/// workload seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(mix(seed) ^ stream) ^ index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_sort_last() {
        let v = [1.0, f64::INFINITY, 2.0, 3.0];
        assert_eq!(median(&v), 2.0);
        assert_eq!(percentile(&v, 1.0), f64::INFINITY);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v).map(|t| t.0), Some(0.99));
        assert_eq!(supported_tail(&v[..100]).map(|t| t.0), Some(0.9));
        assert_eq!(supported_tail(&v[..19]), None);
    }

    #[test]
    fn derived_streams_differ() {
        assert_ne!(derive(1, 0, 0), derive(1, 1, 0));
        assert_ne!(derive(1, 0, 0), derive(2, 0, 0));
        assert_eq!(derive(7, 3, 9), derive(7, 3, 9));
    }
}
