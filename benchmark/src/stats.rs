//! The estimators: nearest-rank percentiles, the median, and the windows
//! a phase is cut into. A timing is computed per window and reported as
//! the median over the windows, so a host stall moves the windows it
//! lands in and not the metric, while anything that slows most of a run
//! moves it.

/// Nearest-rank percentile (`pct` in 0..=100) of an ascending slice; 0
/// for an empty one.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples (sorts a copy).
pub fn percentile_of(samples: &[f64], pct: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, pct)
}

/// The median: the middle value, or the mean of the middle two; 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// How many equal segments an open phase of `samples` loads is cut into:
/// as many as ten, while each keeps `at_least` samples, and never fewer
/// than one. At 1 000 samples each, every segment's p99 has ten samples
/// beyond it.
pub fn segments_for(samples: usize, at_least: usize) -> usize {
    (samples / at_least).clamp(1, 10)
}

/// Cut an open phase into [`segments_for`] segments. Each slice is one
/// client thread's samples in schedule order; all threads run the same
/// schedule, so segment `k` is the `k`-th part of every thread's.
pub fn segments(per_thread: &[&[f64]], at_least: usize) -> Vec<Vec<f64>> {
    let total: usize = per_thread.iter().map(|v| v.len()).sum();
    let n = segments_for(total, at_least);
    (0..n)
        .map(|k| {
            per_thread
                .iter()
                .flat_map(|v| &v[k * v.len() / n..(k + 1) * v.len() / n])
                .copied()
                .collect()
        })
        .collect()
}

/// The share of `samples` within `limit`.
pub fn share_within(samples: &[f64], limit: f64) -> f64 {
    samples.iter().filter(|&&x| x <= limit).count() as f64 / samples.len().max(1) as f64
}

/// One window of a closed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedWindow {
    /// Loads that ended in the window per second of it, threads summed.
    pub loads_per_s: f64,
    /// Median time of those loads, nanoseconds.
    pub service_p50_ns: f64,
    /// Process CPU milliseconds spent in the window per load.
    pub cpu_ms_per_load: f64,
}

/// Cut one closed phase into the windows its CPU samples bound. Each
/// slice of `per_thread_ns` is one thread's back-to-back load times in
/// nanoseconds from the start of the phase; `cpu` is ascending `(seconds
/// since the phase started, process CPU seconds)`. A load counts in the
/// window it ends in; a window in which none ended is left out.
pub fn closed_windows(per_thread_ns: &[&[f64]], cpu: &[(f64, f64)]) -> Vec<ClosedWindow> {
    let mut loads: Vec<Vec<f64>> = vec![Vec::new(); cpu.len().saturating_sub(1)];
    for thread in per_thread_ns {
        let mut ended_s = 0.0;
        let mut window = 0;
        for &ns in *thread {
            ended_s += ns / 1e9;
            while window < loads.len() && ended_s >= cpu[window + 1].0 {
                window += 1;
            }
            match loads.get_mut(window) {
                Some(w) => w.push(ns),
                None => break,
            }
        }
    }
    loads
        .iter()
        .zip(cpu.windows(2))
        .filter(|(loads, _)| !loads.is_empty())
        .map(|(loads, bounds)| {
            let (seconds, cpu_s) = (bounds[1].0 - bounds[0].0, bounds[1].1 - bounds[0].1);
            ClosedWindow {
                loads_per_s: loads.len() as f64 / seconds,
                service_p50_ns: percentile_of(loads, 50.0),
                cpu_ms_per_load: cpu_s * 1e3 / loads.len() as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_windows_on_a_known_phase() {
        // Two threads, 1 ms loads, a 2 s phase sampled every 0.5 s (half a
        // load off the grid, so no load ends on a boundary); both cores
        // busy. Thread 0 stalls for 0.5 s at 0.5 s.
        let steady = vec![1e6; 2_000];
        let mut stalled = vec![1e6; 500];
        stalled.push(500e6);
        stalled.extend(vec![1e6; 1_000]);
        let at = |k: usize| if k == 0 { 0.0 } else { k as f64 * 0.5 + 0.0005 };
        let cpu: Vec<(f64, f64)> = (0..=4).map(|k| (at(k), 2.0 * at(k))).collect();
        let windows = closed_windows(&[&stalled, &steady], &cpu);
        let rates: Vec<f64> = windows.iter().map(|w| w.loads_per_s.round()).collect();
        assert_eq!(rates, vec![1_998.0, 1_002.0, 2_000.0, 2_000.0]);
        assert!(windows.iter().all(|w| w.service_p50_ns == 1e6));
        assert!((windows[2].cpu_ms_per_load - 1.0).abs() < 1e-9);
        assert!((windows[1].cpu_ms_per_load - 1_000.0 / 501.0).abs() < 1e-9);
        // The stalled window cannot move the median.
        assert_eq!(median(&rates), 1_999.0);
        // A window in which no load ended is left out.
        let idle = closed_windows(&[&[1e6, 1.2e9, 1e6][..]], &cpu);
        assert_eq!(idle.len(), 2);
        assert_eq!(idle[1].loads_per_s.round(), 4.0);
    }

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Five samples: p50 is the 3rd, p99 the 5th.
        assert_eq!(percentile_of(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile_of(&[5.0, 1.0, 4.0, 2.0, 3.0], 99.0), 5.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn segment_count_keeps_a_thousand_samples_each() {
        assert_eq!(segments_for(0, 1_000), 1);
        assert_eq!(segments_for(999, 1_000), 1);
        assert_eq!(segments_for(5_400, 1_000), 5);
        assert_eq!(segments_for(10_000, 1_000), 10);
        assert_eq!(segments_for(1_000_000, 1_000), 10);
        assert_eq!(segments_for(1_275, 200), 6);
    }

    #[test]
    fn median_of_segments_ignores_a_few_stalls_and_sees_many() {
        // Two threads, 5 000 samples each, all 1.0 — except stalls that
        // put 300 samples of 50.0 inside the fourth and the ninth segment.
        let stall = |a: &mut [f64], segment: usize| a[segment * 500 + 100..][..300].fill(50.0);
        let mut a = vec![1.0; 5_000];
        let b = vec![1.0; 5_000];
        stall(&mut a, 3);
        stall(&mut a, 8);
        let p99s = |a: &[f64]| -> Vec<f64> {
            let cut = segments(&[a, &b], 1_000);
            assert_eq!(cut.len(), 10);
            assert!(cut.iter().all(|s| s.len() == 1_000));
            cut.iter().map(|s| percentile_of(s, 99.0)).collect()
        };
        assert_eq!(p99s(&a).iter().filter(|&&p| p == 50.0).count(), 2);
        assert_eq!(median(&p99s(&a)), 1.0, "two stalls stay in their segments");
        let cut = segments(&[&a, &b], 1_000);
        let shares: Vec<f64> = cut.iter().map(|s| share_within(s, 2.0)).collect();
        assert_eq!(median(&shares), 1.0);
        assert_eq!(share_within(&cut[3], 2.0), 0.7);
        // The plain p99 over all samples does see them.
        let mut all = a.clone();
        all.extend(&b);
        assert_eq!(percentile_of(&all, 99.0), 50.0);
        // A stall that recurs in most segments is the program's, and the
        // median of the segments reports it.
        for segment in [0, 1, 5, 6] {
            stall(&mut a, segment);
        }
        assert_eq!(median(&p99s(&a)), 50.0);
    }
}
