//! Order statistics shared by every workload.
//!
//! Operation times are grouped by *class* (program × scheme × waterline,
//! or request class) because the programs span more than three orders of
//! magnitude: a quantile over the mix would mostly report which programs
//! happened to run, not how fast any of them ran.

use std::collections::BTreeMap;

/// Operation times in milliseconds, keyed by operation class.
pub type Classes = BTreeMap<String, Vec<f64>>;

/// Fewest samples per class for which a per-class tail is reported; below
/// it the highest percentile with ten samples beyond would be no tail.
const MIN_TAIL_SAMPLES: usize = 40;

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The geometric mean over classes of each class's median.
pub fn latency(classes: &Classes) -> f64 {
    let medians: Vec<f64> = classes.values().map(|v| median(v)).collect();
    geomean(&medians)
}

/// Tail latency over `classes`.
///
/// When every class has at least forty samples this is the geometric mean
/// over classes of each class's highest percentile with ten samples
/// beyond it. With fewer samples a class has no tail of its own: each
/// sample is divided by its class median, the ratios are pooled, and the
/// pooled 90th percentile (nearest rank) scales [`latency`] — the tail of
/// the jitter, in units of the typical operation.
pub fn tail(classes: &Classes) -> f64 {
    if classes.values().all(|v| v.len() >= MIN_TAIL_SAMPLES) {
        let tails: Vec<f64> = classes
            .values()
            .map(|v| {
                let mut s = v.clone();
                s.sort_by(f64::total_cmp);
                s[s.len() - 11]
            })
            .collect();
        return geomean(&tails);
    }
    let mut ratios: Vec<f64> = classes
        .values()
        .flat_map(|v| {
            let m = median(v);
            v.iter().map(move |x| x / m)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let rank = (ratios.len() * 9).div_ceil(10);
    latency(classes) * ratios[rank - 1]
}

/// A 64-bit mix of `seed` and `salt` (SplitMix64), so every program,
/// tenant and key set gets its own stream from one workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn per_class_tail_needs_forty_samples() {
        let mut classes = Classes::new();
        classes.insert("a".into(), (1..=50).map(f64::from).collect());
        // 50 samples: the 40th has exactly ten above it.
        assert_eq!(tail(&classes), 40.0);
        classes.insert("b".into(), vec![10.0, 10.0, 20.0]);
        // Pooled: 53 ratios, the 48th smallest is the 90th percentile.
        assert!(tail(&classes) >= latency(&classes));
    }
}
