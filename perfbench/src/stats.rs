//! Order statistics: the quartiles the acceptance check uses, and the
//! per-segment estimators every timed figure is built from.

/// Sorted copy (NaN-free input).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    v
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the check's own
/// arithmetic). Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median (mean of the middle two for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let data = sorted(values);
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// Inter-quartile range as a share of the median: the check's spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile of `values`: the smallest value with at
/// least `p` percent of the sample at or below it. 0 for none.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    let data = sorted(values);
    if data.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// What one one-second segment measured, as the clock read it.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    pub ops: usize,
    /// Sum over generators of `ops / wall`, operations per second.
    pub rate: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub cpu_ms_per_op: f64,
    pub granted: f64,
}

/// The four timed figures of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub cpu_ms_per_op: f64,
}

/// Median over segments of each figure, corrected for what the host
/// took away (`granted`) and for how fast the host was (`index`).
/// Never a pooled mean: one disturbed second moves a median by nothing.
pub fn scaled(segments: &[Segment], index: f64) -> Timed {
    let over = |f: &dyn Fn(&Segment) -> f64| median(&segments.iter().map(f).collect::<Vec<_>>());
    Timed {
        ops_per_s: over(&|s| s.rate / s.granted) * index,
        p50_ms: over(&|s| s.p50_ms * s.granted) / index,
        p90_ms: over(&|s| s.p90_ms * s.granted) / index,
        cpu_ms_per_op: over(&|s| s.cpu_ms_per_op) / index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 91.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn a_disturbed_segment_does_not_move_the_median_of_segments() {
        let calm = Segment {
            ops: 100,
            rate: 100.0,
            p50_ms: 10.0,
            p90_ms: 20.0,
            cpu_ms_per_op: 18.0,
            granted: 1.0,
        };
        let mut segments = vec![calm.clone(); 9];
        segments[4] = Segment { rate: 20.0, p50_ms: 80.0, p90_ms: 300.0, ..calm.clone() };
        let t = scaled(&segments, 1.0);
        assert_eq!(t, Timed { ops_per_s: 100.0, p50_ms: 10.0, p90_ms: 20.0, cpu_ms_per_op: 18.0 });
    }

    #[test]
    fn scaling_undoes_steal_and_a_slow_host() {
        // Half the CPU stolen and a host 1.25x slow: the clock read 40
        // ops/s at 50 ms; a calm nominal host would have shown 100 at 20.
        let seg = Segment {
            ops: 40,
            rate: 40.0,
            p50_ms: 50.0,
            p90_ms: 100.0,
            cpu_ms_per_op: 25.0,
            granted: 0.5,
        };
        let t = scaled(&[seg], 1.25);
        assert!((t.ops_per_s - 100.0).abs() < 1e-9);
        assert!((t.p50_ms - 20.0).abs() < 1e-9);
        assert!((t.p90_ms - 40.0).abs() < 1e-9);
        assert!((t.cpu_ms_per_op - 20.0).abs() < 1e-9);
    }
}
