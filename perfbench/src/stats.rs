//! The benchmark's own arithmetic: order statistics, per-query
//! normalisation and the layer-cost ledger.

/// Linear-interpolation quantile of `samples` at `q` in `[0, 1]`, the
/// same rule as NumPy's default and Python's
/// `statistics.quantiles(method="inclusive")`. Returns `None` for no
/// samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `samples` (`None` for no samples).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// A counter spread over the queries that produced it. Zero queries
/// give zero, so an idle pass reads as no work rather than NaN.
pub fn per_query(total: f64, queries: u64) -> f64 {
    if queries == 0 {
        0.0
    } else {
        total / queries as f64
    }
}

/// Steal share at or below which a window counts as quiet.
pub const QUIET_STEAL: f64 = 0.05;

/// The less disturbed windows of a run: every quiet window, or, when
/// fewer than half the windows are quiet, the quietest half.
/// Other tenants of the host take CPU from this machine in bursts of
/// seconds to minutes, and a window they hit runs slower for reasons
/// outside the program, so the end-to-end figures pool the windows they
/// hit least. On a quiet host every window is kept. Half, not fewer:
/// a quarter of a `lossy-d16` run holds about a hundred answers, too few
/// for its rates and quantiles to repeat.
pub fn least_disturbed<T>(windows: &[T], steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut shares: Vec<f64> = windows.iter().map(&steal).collect();
    shares.sort_by(f64::total_cmp);
    let half = shares.len().div_ceil(2).max(1);
    let limit = shares
        .get(half - 1)
        .copied()
        .unwrap_or(0.0)
        .max(QUIET_STEAL);
    windows.iter().filter(|w| steal(w) <= limit).collect()
}

/// Whether a run's kept windows were quiet enough to compare against the
/// bounds: their median steal share is at most [`QUIET_STEAL`]. Under
/// steal that lasts the whole run the quietest half is disturbed too.
pub fn steady(kept_steal: &[f64]) -> bool {
    median(kept_steal).unwrap_or(0.0) <= QUIET_STEAL
}

/// Per-query cost of the layers a query's critical path runs through,
/// each counted as calls per query times time per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ledger {
    /// Kernel steps per query (`n × rounds` for a lone query; divided by
    /// the batch width for a batch).
    pub steps_per_query: f64,
    /// Physical frames per query.
    pub frames_per_query: f64,
    /// One `topk_step_scratch` call.
    pub step_ns: f64,
    /// Encoding one frame.
    pub encode_ns: f64,
    /// Decoding one frame.
    pub decode_ns: f64,
    /// Moving one frame from sender to receiver.
    pub hop_us: f64,
}

impl Ledger {
    /// Microseconds per query the layers account for.
    pub fn explained_us(&self) -> f64 {
        (self.steps_per_query * self.step_ns
            + self.frames_per_query * (self.encode_ns + self.decode_ns))
            / 1e3
            + self.frames_per_query * self.hop_us
    }

    /// The part of `latency_us` per query the layers do not cover.
    pub fn unexplained_us(&self, latency_us: f64) -> f64 {
        latency_us - self.explained_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.25), Some(2.0));
        assert_eq!(quantile(&xs, 0.9), Some(4.6));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn per_query_divides_and_guards_zero() {
        assert_eq!(per_query(470.0, 10), 47.0);
        assert_eq!(per_query(47.0, 1024), 47.0 / 1024.0);
        assert_eq!(per_query(5.0, 0), 0.0);
    }

    #[test]
    fn least_disturbed_keeps_quiet_windows_or_the_quietest_half() {
        let quiet = [(1, 0.04), (2, 0.0), (3, 0.30), (4, 0.05), (5, 0.2)];
        let kept: Vec<i32> = least_disturbed(&quiet, |w| w.1)
            .iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(kept, vec![1, 2, 4]);
        // Only one of eight windows is quiet: the quietest four are kept.
        let noisy = [
            (1, 0.30),
            (2, 0.01),
            (3, 0.20),
            (4, 0.12),
            (5, 0.25),
            (6, 0.09),
            (7, 0.31),
            (8, 0.15),
        ];
        let kept: Vec<i32> = least_disturbed(&noisy, |w| w.1)
            .iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(kept, vec![2, 4, 6, 8]);
        assert!(least_disturbed(&[] as &[(i32, f64)], |w| w.1).is_empty());
    }

    #[test]
    fn a_run_is_steady_while_its_kept_windows_are_quiet() {
        assert!(steady(&[0.0, 0.02, 0.05]));
        assert!(steady(&[0.0, 0.01, 0.3]));
        assert!(!steady(&[0.06, 0.09, 0.12]));
        assert!(steady(&[]));
    }

    #[test]
    fn ledger_sums_calls_times_cost() {
        let ledger = Ledger {
            steps_per_query: 42.0,
            frames_per_query: 47.0,
            step_ns: 100.0,
            encode_ns: 20.0,
            decode_ns: 30.0,
            hop_us: 10.0,
        };
        // 42 × 0.1 + 47 × 0.05 + 47 × 10 = 4.2 + 2.35 + 470
        let explained = ledger.explained_us();
        assert!((explained - 476.55).abs() < 1e-9, "{explained}");
        assert!((ledger.unexplained_us(600.0) - 123.45).abs() < 1e-9);
    }
}
