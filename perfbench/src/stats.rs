//! Order statistics for reporting.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of integer nanosecond latencies, in microseconds,
/// by nearest rank (the latency vectors hold millions of entries, so
/// they are selected in place rather than sorted as floats).
pub fn latency_quantile_us(ns: &mut [u32], q: f64) -> f64 {
    if ns.is_empty() {
        return f64::NAN;
    }
    let rank = ((q.clamp(0.0, 1.0) * ns.len() as f64).ceil() as usize).clamp(1, ns.len()) - 1;
    let (_, v, _) = ns.select_nth_unstable(rank);
    f64::from(*v) / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn latency_quantiles_use_nearest_rank() {
        let mut ns: Vec<u32> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(latency_quantile_us(&mut ns, 0.5), 50.0);
        assert_eq!(latency_quantile_us(&mut ns, 0.95), 95.0);
        assert_eq!(latency_quantile_us(&mut ns, 1.0), 100.0);
    }
}
