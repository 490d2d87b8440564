//! Quantiles. One method everywhere — the "exclusive" rule of
//! Python's `statistics.quantiles` — so the spreads `bench compare`
//! prints are the spreads the acceptance driver computes.

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0 < q < 1) of an ascending, non-empty slice:
/// position `q·(n+1)` (1-based), interpolated linearly between its
/// neighbours and clamped to the ends.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = (pos - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] * (1.0 - frac) + sorted[j] * frac
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// (first quartile, median, third quartile) of an unsorted sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    (q3 - q1) / med
}

/// Samples per chunk of [`steady_quantile`].
pub const CHUNK: usize = 8;
/// Time segments of [`steady_quantile`].
pub const SEGMENTS: usize = 16;

/// Per consecutive segment of a run (up to [`SEGMENTS`]), the lowest
/// `q`-quantile any of its chunks of [`CHUNK`] consecutive samples
/// shows: the latency of that stretch of the run at its quietest.
/// Fewer samples than one chunk make one segment, their plain quantile.
pub fn segment_floors(samples: &[f64], q: f64) -> Vec<f64> {
    let chunks: Vec<f64> = samples
        .chunks_exact(CHUNK)
        .map(|c| quantile(&sorted(c), q))
        .collect();
    if chunks.is_empty() {
        return vec![quantile(&sorted(samples), q)];
    }
    let segments = (chunks.len() / 4).clamp(1, SEGMENTS);
    chunks
        .chunks(chunks.len().div_ceil(segments))
        .map(|segment| segment.iter().copied().fold(f64::INFINITY, f64::min))
        .collect()
}

/// The `q`-quantile of a latency over a run, with the host's other
/// tenants filtered out — the estimator behind every gated latency
/// (README.md, "Noise", has the measurements that chose it).
///
/// On this host a neighbour switches, every few tens of milliseconds
/// to minutes, between a quiet state and busy ones in which everything
/// runs 10 % or more slower; a plain quantile over a run moves with the
/// neighbour's duty cycle. So the quantile is taken inside chunks (a
/// chunk is short enough to be all-quiet or all-busy), each segment of
/// the run contributes its quietest chunk ([`segment_floors`]), and the
/// result is the *median segment*: a cost that grows over the run moves
/// it, and a neighbour busy for whole segments moves it only once more
/// than half the run is lost.
pub fn steady_quantile(samples: &[f64], q: f64) -> f64 {
    median(&segment_floors(samples, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    /// Hand-computed, and equal to what
    /// `statistics.quantiles(v, n=4)` returns for the same vectors.
    #[test]
    fn quartiles_match_hand_computed_vectors() {
        // n = 10: positions 2.75, 5.5, 8.25.
        let v = [9.0, 1.0, 3.0, 7.0, 5.0, 2.0, 8.0, 4.0, 10.0, 6.0];
        let (q1, med, q3) = quartiles(&v);
        close(q1, 2.75);
        close(med, 5.5);
        close(q3, 8.25);
        // n = 5: positions 1.5, 3, 4.5.
        let (q1, med, q3) = quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]);
        close(q1, 15.0);
        close(med, 40.0);
        close(q3, 120.0);
        // Even n: the median is the mean of the middle pair.
        close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        close(median(&[7.0]), 7.0);
    }

    #[test]
    fn high_quantiles_clamp_to_the_last_interval() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        close(quantile(&v, 0.99), 99.99);
        close(quantile(&v, 0.75), 75.75);
        // Past the end: clamped, never extrapolated.
        close(quantile(&[1.0, 2.0], 0.99), 2.0);
        close(quantile(&[1.0, 2.0], 0.01), 1.0);
    }

    /// 128 chunks of 8 equal samples in 16 segments of 8 chunks.
    /// `busy` says which chunks (segment, chunk in segment) run 10 %
    /// slow, `quiet_ns` what each segment costs when quiet.
    fn run(busy: impl Fn(usize, usize) -> bool, quiet_ns: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..128)
            .flat_map(|chunk| {
                let slow = if busy(chunk / 8, chunk % 8) { 1.1 } else { 1.0 };
                [quiet_ns(chunk / 8) * slow; CHUNK]
            })
            .collect()
    }

    #[test]
    fn steady_quantile_reads_the_quiet_mode_where_the_plain_median_flips() {
        // Neighbour busy a quarter of every segment: both read 100.
        let mostly_quiet = run(|_, chunk| chunk < 2, |_| 100.0);
        close(median(&mostly_quiet), 100.0);
        close(steady_quantile(&mostly_quiet, 0.5), 100.0);
        // Busy seven eighths of every segment: the plain median is in
        // the busy mode, the steady one still reads 100.
        let mostly_busy = run(|_, chunk| chunk < 7, |_| 100.0);
        close(median(&mostly_busy), 110.0);
        close(steady_quantile(&mostly_busy, 0.5), 100.0);
        // Busy for 7 whole segments of 16: still 100. For 9: 110 — it
        // is a median over the run, not its best moment.
        let seven_lost = run(|segment, _| segment < 7, |_| 100.0);
        close(steady_quantile(&seven_lost, 0.5), 100.0);
        let nine_lost = run(|segment, _| segment < 9, |_| 100.0);
        close(steady_quantile(&nine_lost, 0.5), 110.0);
    }

    #[test]
    fn steady_quantile_shows_a_cost_that_grows_over_the_run() {
        // Each segment 10 ns dearer than the one before: 100 … 250.
        let growing = run(|_, _| false, |segment| 100.0 + 10.0 * segment as f64);
        let floors = segment_floors(&growing, 0.5);
        close(floors[0], 100.0);
        close(floors[15], 250.0);
        // The mid-run cost, not the first segment's.
        close(steady_quantile(&growing, 0.5), 175.0);
    }

    #[test]
    fn steady_quantile_takes_the_quantile_inside_each_chunk() {
        // Every chunk is 100..=107: p50 at position 4.5, p75 at 6.75.
        let ramp: Vec<f64> = (0..512).map(|i| 100.0 + (i % CHUNK) as f64).collect();
        close(steady_quantile(&ramp, 0.5), 103.5);
        close(steady_quantile(&ramp, 0.75), 105.75);
        // 96 samples: 12 chunks in 3 segments. Fewer than one chunk:
        // the plain quantile.
        assert_eq!(segment_floors(&ramp[..96], 0.5).len(), 3);
        close(steady_quantile(&ramp[..96], 0.5), 103.5);
        close(steady_quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        close(spread(&[10.0, 20.0, 40.0, 80.0, 160.0]), 105.0 / 40.0);
    }
}
