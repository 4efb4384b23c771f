//! Small self-contained helpers: the harness's own seeded generator
//! (so benchmark inputs never depend on the repository's RNG code),
//! FNV-1a digests, order statistics, and `/proc` readers.

/// SplitMix64: the workload seed expands into every generated input
/// through this generator alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A rank in `0..n` drawn with probability proportional to
    /// `1 / (rank + 1)^s` (inverse-CDF over precomputed weights).
    pub fn zipf(&mut self, cdf: &[f64]) -> usize {
        let u = self.unit() * cdf[cdf.len() - 1];
        cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
    }
}

/// Cumulative Zipf weights for ranks `0..n` with exponent `s`.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (0..n)
        .map(|r| {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            acc
        })
        .collect()
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Nearest-rank quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The sustained rate of repeated fixed work: the 10th percentile of
/// the per-repetition rates, the rate nine in ten repetitions reach.
/// On a shared host the bursts of fast repetitions vary from run to run
/// more than the slow end does: in ten-run sets on a 2-core VM the
/// median of the rates spread up to 0.25 (quartile distance over
/// median), this percentile up to about 0.1.
pub fn sustained(rates: &[f64]) -> f64 {
    quantile(rates, 0.1)
}

/// The time counterpart of [`sustained`]: the 90th percentile of
/// per-repetition times.
pub fn sustained_time(times: &[f64]) -> f64 {
    quantile(times, 0.9)
}

/// The highest percentile (in whole percent, at most 99) that leaves
/// at least ten samples beyond it, or `None` below 11 samples.
pub fn tail_percentile(samples: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| samples as f64 * (100 - p) as f64 / 100.0 >= 10.0)
}

/// `VmHWM` (peak resident set) of a process in KiB, read from
/// `/proc/<pid>/status`; `None` once the process is gone.
pub fn vm_hwm_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Pids of this process's live children, from every thread's
/// `/proc/self/task/<tid>/children` list.
pub fn child_pids() -> Vec<u32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
    let mut pids = Vec::new();
    for task in tasks.flatten() {
        if let Ok(list) = std::fs::read_to_string(task.path().join("children")) {
            pids.extend(list.split_whitespace().filter_map(|p| p.parse::<u32>().ok()));
        }
    }
    pids
}
