//! Order statistics over measured samples.

/// `q`-quantile (0..=1) of an ascending slice, nearest rank. Empty → 0.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy and take its `q`-quantile.
pub fn quantile(values: &[u64], q: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    quantile_sorted(&v, q)
}

/// Messages per latency window. A window's p99 has ten messages beyond it.
pub const WINDOW: usize = 1000;

/// The median over windows of [`WINDOW`] consecutive messages of each
/// window's p99 (one window when there are fewer messages). A burst of
/// slow messages raises the windows it falls in, not the median; a
/// backlog that keeps growing raises them all.
pub fn median_window_p99(latency_ns: &[u64]) -> u64 {
    let size = latency_ns.len().clamp(1, WINDOW);
    let p99: Vec<u64> = latency_ns
        .chunks_exact(size)
        .map(|w| quantile(w, 0.99))
        .collect();
    median_u64(&p99)
}

/// Median of whole numbers (0 when empty).
pub fn median_u64(values: &[u64]) -> u64 {
    quantile(values, 0.5)
}

/// Each message's fastest latency over passes that send the same
/// messages on the same schedule: `passes[p][k]` is message `k`'s
/// latency in pass `p`.
///
/// A host pause only ever adds latency, and it strikes different
/// messages in different passes, so it drops out; a slow decision of
/// the program strikes the same messages in every pass and stays.
pub fn per_message_min(passes: &[Vec<u64>]) -> Vec<u64> {
    let n = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|k| passes.iter().map(|p| p[k]).min().unwrap_or(0))
        .collect()
}

/// Median, first and third quartile of repeated measurements, with the
/// raw values in the order they were taken.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub raw: Vec<f64>,
}

/// Summarize repeated values. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spread reported here is the spread the acceptance check computes.
pub fn summarize(raw: &[f64]) -> Summary {
    let mut v = raw.to_vec();
    v.sort_by(f64::total_cmp);
    let median = match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    };
    let (q1, q3) = if v.len() < 2 {
        (median, median)
    } else {
        (exclusive_quartile(&v, 1), exclusive_quartile(&v, 3))
    };
    Summary {
        median,
        q1,
        q3,
        raw: raw.to_vec(),
    }
}

fn exclusive_quartile(sorted: &[f64], i: usize) -> f64 {
    let m = (sorted.len() + 1) as i64;
    let i = i as i64;
    let j = (i * m / 4).clamp(1, sorted.len() as i64 - 1);
    let delta = (i * m - j * 4) as f64;
    let j = j as usize;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn per_message_minima_drop_a_pause_and_keep_a_slow_message() {
        // Message 2 is slow in every pass; a pause hits messages 0 and 1
        // of the second pass only.
        let passes = vec![
            vec![100, 100, 900, 100],
            vec![5_000, 4_000, 900, 100],
            vec![110, 90, 950, 120],
        ];
        assert_eq!(per_message_min(&passes), vec![100, 90, 900, 100]);
        assert!(per_message_min(&[]).is_empty());
    }

    #[test]
    fn a_burst_moves_only_its_own_windows() {
        let mut v = vec![100u64; 10 * WINDOW];
        for x in &mut v[3 * WINDOW..4 * WINDOW] {
            *x = 50_000;
        }
        assert_eq!(median_window_p99(&v), 100);
        let growing: Vec<u64> = (0..10 * WINDOW as u64).collect();
        assert!(median_window_p99(&growing) > 4 * WINDOW as u64);
        assert_eq!(median_window_p99(&v[..10]), 100);
        assert_eq!(median_window_p99(&[]), 0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }
}
