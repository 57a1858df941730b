//! Host-side measurement: process counters, repetition timing, small
//! statistics.

use std::time::Instant;

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User + system CPU time of this process (all threads), seconds.
/// `/proc/self/stat` counts in clock ticks, 100 per second on Linux.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields restart after its ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line: 11 and 12
    // counted from the first field after the command name.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Worker threads the schedulers may fan out to, as the runner set it.
pub fn rayon_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Wall-clock and CPU seconds of every timed repetition.
pub struct RepTimes {
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
}

/// Runs `rep` on fresh state at least `min_reps` times and until
/// `budget_s` of wall clock is spent (a repetition is started only while
/// budget remains), handing each result to `sink`.
pub fn timed_reps<T>(
    budget_s: f64,
    min_reps: usize,
    mut rep: impl FnMut(usize) -> T,
    mut sink: impl FnMut(usize, T),
) -> RepTimes {
    let started = Instant::now();
    let mut times = RepTimes {
        wall_s: Vec::new(),
        cpu_s: Vec::new(),
    };
    loop {
        let i = times.wall_s.len();
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let out = std::hint::black_box(rep(i));
        times.wall_s.push(t0.elapsed().as_secs_f64());
        times.cpu_s.push(cpu_seconds() - cpu0);
        sink(i, out);
        // Start another repetition only if, at the pace of the fastest
        // so far, it would end inside the budget.
        let spent = started.elapsed().as_secs_f64();
        if times.wall_s.len() >= min_reps && spent + fastest(&times.wall_s) > budget_s {
            return times;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn reps_respect_the_minimum_and_the_budget() {
        let mut seen = Vec::new();
        let t = timed_reps(0.0, 3, |i| i * 2, |i, out| seen.push((i, out)));
        assert_eq!(t.wall_s.len(), 3);
        assert_eq!(seen, vec![(0, 0), (1, 2), (2, 4)]);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(rayon_threads() >= 1);
    }
}
