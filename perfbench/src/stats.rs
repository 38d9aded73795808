//! Order statistics over timing samples.

/// Median of `xs` (mean of the middle pair for even lengths); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `p`-th percentile (0–100) by the nearest-rank rule.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// A tail latency: the highest percentile of the ladder that leaves at
/// least ten samples beyond it, with the sample count it came from.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub n: usize,
}

const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// The tail of `xs`: the highest ladder percentile up to `top` with at
/// least ten samples beyond it, or `None` when fewer than 20 samples
/// exist (the median itself would then have under ten beyond it).
pub fn tail(xs: &[f64], top: f64) -> Option<Tail> {
    let n = xs.len();
    let p = TAIL_LADDER
        .into_iter()
        .filter(|p| *p <= top)
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)?;
    Some(Tail {
        percentile: p,
        value: percentile(xs, p)?,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 99.0).unwrap();
        assert_eq!((t.percentile, t.n), (99.0, 1000));
        assert_eq!(tail(&xs, 95.0).unwrap().percentile, 95.0);
        let t = tail(&xs[..400], 99.0).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert!(tail(&xs[..19], 99.0).is_none());
        assert_eq!(tail(&xs[..20], 99.0).unwrap().percentile, 50.0);
    }
}
