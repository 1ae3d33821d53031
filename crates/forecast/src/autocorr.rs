//! Autocorrelation — Eq. (2) of the paper.
//!
//! PP uses the autocorrelation of a node's utilization series to decide
//! whether there is a *trend strong enough* to forecast: if the lag-k
//! autocorrelation is zero or negative, either the input series is too
//! limited or there is no periodic peak structure, and PP falls back to the
//! next candidate node (§IV-D, Algorithm 1).

/// Lag-`k` autocorrelation `r_k` per Eq. (2):
///
/// `r_k = Σ_{i=1}^{n−k} (Y_i − Ȳ)(Y_{i+k} − Ȳ) / Σ_{i=1}^{n} (Y_i − Ȳ)²`
///
/// Returns 0 for constant or too-short series (`n ≤ k`).
pub fn autocorrelation(ys: &[f64], k: usize) -> f64 {
    let n = ys.len();
    if n <= k || n < 2 {
        return 0.0;
    }
    let mean = ys.iter().sum::<f64>() / n as f64;
    let denom: f64 = ys.iter().map(|y| (y - mean) * (y - mean)).sum();
    if denom < 1e-18 {
        return 0.0;
    }
    let num: f64 = (0..n - k).map(|i| (ys[i] - mean) * (ys[i + k] - mean)).sum();
    num / denom
}

/// Shared mean/denominator of Eq. (2), computed once for all lags.
///
/// Summation order matches [`autocorrelation`] exactly, so per-lag values
/// derived from these are bit-identical to the naive per-lag recompute.
fn acf_prefix(ys: &[f64]) -> Option<(f64, f64)> {
    let n = ys.len();
    if n < 2 {
        return None;
    }
    let mean = ys.iter().sum::<f64>() / n as f64;
    let denom: f64 = ys.iter().map(|y| (y - mean) * (y - mean)).sum();
    if denom < 1e-18 {
        None
    } else {
        Some((mean, denom))
    }
}

/// The lag-`k` numerator of Eq. (2) given the precomputed mean.
fn acf_lag_num(ys: &[f64], mean: f64, k: usize) -> f64 {
    (0..ys.len() - k).map(|i| (ys[i] - mean) * (ys[i + k] - mean)).sum()
}

/// The dominant period of a series: the lag `k ≥ min_lag` with the highest
/// autocorrelation, when that correlation is positive. PP interprets this as
/// the interval between consecutive resource-consumption peaks (§IV-D: "the
/// interval between two consecutive peak resource consumption ... could be
/// determined by the auto-correlation factor").
///
/// Returns `None` when no positive-correlation lag exists.
pub fn dominant_period(ys: &[f64], min_lag: usize, max_lag: usize) -> Option<usize> {
    if min_lag == 0 || max_lag < min_lag {
        return None;
    }
    let (mean, denom) = acf_prefix(ys)?;
    let mut best: Option<(usize, f64)> = None;
    for k in min_lag..=max_lag.min(ys.len().saturating_sub(1)) {
        let r = acf_lag_num(ys, mean, k) / denom;
        if r > 0.0 {
            match best {
                Some((_, br)) if br >= r => {}
                _ => best = Some((k, r)),
            }
        }
    }
    best.map(|(k, _)| k)
}

/// Whether the series exhibits a positive short-horizon trend — the
/// Algorithm 1 `AutoCorrelation(node.memory)` admission check. `true` when
/// the lag-1 autocorrelation is strictly positive.
pub fn has_forecastable_trend(ys: &[f64]) -> bool {
    autocorrelation(ys, 1) > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smooth_series_has_high_lag1() {
        let ys: Vec<f64> = (0..100).map(|i| (i as f64 * 0.1).sin()).collect();
        assert!(autocorrelation(&ys, 1) > 0.9);
        assert!(has_forecastable_trend(&ys));
    }

    #[test]
    fn alternating_series_has_negative_lag1() {
        let ys: Vec<f64> = (0..50).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        assert!(autocorrelation(&ys, 1) < -0.9);
        assert!(!has_forecastable_trend(&ys));
        // ... but a strong positive lag-2 correlation.
        assert!(autocorrelation(&ys, 2) > 0.9);
    }

    #[test]
    fn degenerate_inputs_are_zero() {
        assert_eq!(autocorrelation(&[], 1), 0.0);
        assert_eq!(autocorrelation(&[1.0], 1), 0.0);
        assert_eq!(autocorrelation(&[3.0; 20], 1), 0.0);
        assert_eq!(autocorrelation(&[1.0, 2.0], 5), 0.0);
    }

    #[test]
    fn one_pass_acf_is_bit_identical_to_naive_per_lag() {
        // Seeded-LCG fuzz: the hoisted mean/denominator that
        // `dominant_period` runs on must reproduce the naive per-lag
        // recompute exactly (same summation order → same bits), including
        // lags past the series length, where both forms read zero.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut lcg = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let one_pass = |ys: &[f64], k: usize| match acf_prefix(ys) {
            Some((mean, denom)) if k < ys.len() => acf_lag_num(ys, mean, k) / denom,
            _ => 0.0,
        };
        for len in [0usize, 1, 2, 7, 33, 200] {
            let ys: Vec<f64> = (0..len).map(|_| lcg() * 500.0 - 100.0).collect();
            for k in 1..=len + 5 {
                let naive = autocorrelation(&ys, k);
                assert_eq!(one_pass(&ys, k).to_bits(), naive.to_bits(), "len {len} lag {k}");
            }
        }
        // Constant series: both forms short-circuit to zero.
        let flat = [3.0; 20];
        assert_eq!(acf_prefix(&flat), None);
        for k in 1..=4 {
            assert_eq!(one_pass(&flat, k).to_bits(), 0.0f64.to_bits());
            assert_eq!(autocorrelation(&flat, k).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn dominant_period_matches_naive_selection() {
        let mut state = 7u64;
        let mut lcg = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for len in [10usize, 50, 120] {
            let ys: Vec<f64> = (0..len).map(|i| (i % 12) as f64 + lcg()).collect();
            let fast = dominant_period(&ys, 2, 40);
            // Naive reference selection over per-lag autocorrelation.
            let mut best: Option<(usize, f64)> = None;
            for k in 2..=40usize.min(len.saturating_sub(1)) {
                let r = autocorrelation(&ys, k);
                if r > 0.0 {
                    match best {
                        Some((_, br)) if br >= r => {}
                        _ => best = Some((k, r)),
                    }
                }
            }
            assert_eq!(fast, best.map(|(k, _)| k), "len {len}");
        }
    }

    #[test]
    fn dominant_period_finds_the_cycle() {
        // Period-10 sawtooth.
        let ys: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let p = dominant_period(&ys, 2, 40).unwrap();
        assert_eq!(p % 10, 0, "dominant lag {p} should be a multiple of the period");
    }

    #[test]
    fn dominant_period_absent_for_white_noiseish_data() {
        // A short strictly-alternating series has no positive lag in range 1..=1.
        let ys: Vec<f64> = (0..20).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        assert_eq!(dominant_period(&ys, 1, 1), None);
        assert_eq!(dominant_period(&ys, 0, 5), None);
        assert_eq!(dominant_period(&ys, 5, 2), None);
    }
}
