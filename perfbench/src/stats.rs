//! Summary statistics and process measurements.

/// The `p`-quantile (0..=1) of `values` by nearest rank; `NaN` when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The `p`-quantile (0..=1) of `values`, interpolated linearly between
/// neighbouring ranks; `NaN` when empty.
pub fn quantile_interpolated(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Events per second in each of `windows` equal windows of `[0, span)`
/// (event times in seconds from the start), and their median: one slow
/// moment then moves the rate less than a whole-run average would.
pub fn median_rate(times: &[f64], span: f64, windows: usize) -> f64 {
    let width = span / windows as f64;
    let mut counts = vec![0usize; windows];
    for &t in times {
        if let Some(c) = counts.get_mut((t / width) as usize) {
            *c += 1;
        }
    }
    median(&counts.iter().map(|&c| c as f64 / width).collect::<Vec<_>>())
}

/// The `p`-quantile of each of up to `max_chunks` consecutive chunks of
/// `values` (in time order) holding at least `min_chunk` values each, and
/// their median: a slow moment then moves one chunk, not the whole tail.
pub fn chunked_quantile(values: &[f64], p: f64, min_chunk: usize, max_chunks: usize) -> f64 {
    let chunks = (values.len() / min_chunk.max(1)).clamp(1, max_chunks);
    let size = values.len().div_ceil(chunks).max(1);
    median(
        &values
            .chunks(size)
            .map(|chunk| quantile(chunk, p))
            .collect::<Vec<_>>(),
    )
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `part / whole`, 0 when nothing happened.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Peak resident set size of this process so far, in MiB (Linux
/// `VmHWM`); `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(quantile_interpolated(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile_interpolated(&[4.0, 1.0], 1.0), 4.0);
    }

    #[test]
    fn chunked_quantile_ignores_one_slow_chunk() {
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
        v[..1000].iter_mut().for_each(|x| *x *= 10.0);
        assert_eq!(chunked_quantile(&v, 0.99, 1000, 10), 98.0);
        assert_eq!(
            chunked_quantile(&v[..50], 0.5, 1000, 10),
            quantile(&v[..50], 0.5)
        );
    }

    #[test]
    fn windowed_rate_ignores_one_slow_window() {
        // 10 windows of 0.1 s holding 10 events each, but the first empty.
        let times: Vec<f64> = (10..100).map(|i| (i as f64 + 0.5) / 100.0).collect();
        assert_eq!(median_rate(&times, 1.0, 10), 100.0);
    }
}
