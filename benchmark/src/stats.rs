//! Order statistics: percentiles, medians, quartiles and fixed-length
//! latency windows.

/// Latency recorded for a request that failed: it sorts after every real
/// latency, so a failure misses any limit a percentile is held to.
pub const FAILED_NS: u64 = u64::MAX;

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the samples at or below it.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

/// One window of an open-loop phase: how many requests were due in it
/// and their latencies in ascending order.
pub struct Window {
    pub sorted_ns: Vec<u64>,
}

/// Split `(due_ns, latency_ns)` samples into consecutive windows of
/// `window_ns` by due time, starting at `start_ns`. A request belongs to
/// the window it was due in, whenever it was answered. The trailing
/// partial window is dropped: it holds fewer samples than the others.
pub fn windows(samples: &[(u64, u64)], start_ns: u64, window_ns: u64, count: usize) -> Vec<Window> {
    let mut out: Vec<Window> = (0..count).map(|_| Window { sorted_ns: Vec::new() }).collect();
    for &(due, lat) in samples {
        let w = (due.saturating_sub(start_ns) / window_ns) as usize;
        if due >= start_ns && w < count {
            out[w].sorted_ns.push(lat);
        }
    }
    for w in &mut out {
        w.sorted_ns.sort_unstable();
    }
    out
}

/// Median over windows of each window's `p`-th percentile, in
/// microseconds, with the smallest window's sample count.
pub fn window_median_us(windows: &[Window], p: f64) -> (f64, usize) {
    let per: Vec<f64> = windows
        .iter()
        .filter_map(|w| percentile(&w.sorted_ns, p))
        .map(|ns| if ns == FAILED_NS { f64::INFINITY } else { ns as f64 / 1e3 })
        .collect();
    let fewest = windows.iter().map(|w| w.sorted_ns.len()).min().unwrap_or(0);
    (median(&per), fewest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 90.0), Some(90));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7u64], 99.0), Some(7));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
        // Ten samples: p90 is the ninth, leaving one beyond it.
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&ten, 90.0), Some(9));
    }

    #[test]
    fn a_failed_request_pushes_the_percentile_past_every_limit() {
        let mut v: Vec<u64> = (1..=9).collect();
        v.push(FAILED_NS);
        assert_eq!(percentile(&v, 100.0), Some(FAILED_NS));
        assert_eq!(percentile(&v, 90.0), Some(9));
        let w = [Window { sorted_ns: v }];
        assert!(window_median_us(&w, 100.0).0.is_infinite());
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn windows_bin_by_due_time_and_drop_the_tail() {
        // Due every 100 ns from 1000; windows of 300 ns; two full windows.
        let samples: Vec<(u64, u64)> = (0..8).map(|i| (1000 + i * 100, 10 + i)).collect();
        let w = windows(&samples, 1000, 300, 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].sorted_ns, vec![10, 11, 12]);
        assert_eq!(w[1].sorted_ns, vec![13, 14, 15]);
        // A sample due before the phase started is not in any window.
        assert!(windows(&[(5, 1)], 1000, 300, 2).iter().all(|w| w.sorted_ns.is_empty()));
        let (med, fewest) = window_median_us(&w, 50.0);
        assert_eq!(fewest, 3);
        assert!((med - (11.0 + 14.0) / 2.0 / 1e3).abs() < 1e-12);
    }
}
