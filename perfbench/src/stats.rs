//! Small statistics and timing helpers.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank quantile `q` in `[0, 1]` of unsorted `values` (0 when
/// empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Run `f` and return its result with its duration in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (value, start.elapsed().as_secs_f64())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measured work between two yardstick samples.
const YARDSTICK_EVERY_S: f64 = 0.02;
/// The yardstick's time at the reference host speed: its median on the
/// machine the benchmark was defined on (2-vCPU Intel Xeon VM).
pub const YARDSTICK_REFERENCE_MS: f64 = 0.4;

/// Host speed, sampled by a yardstick interleaved with the measured work.
///
/// The host's speed drifts by ±20 % within and between identical runs
/// (neighbours on shared cores), for the library and the yardstick alike,
/// while their ratio stays within a few percent.  Timings are therefore
/// scaled to the reference host speed by the most recent yardstick
/// samples before they enter any metric.
#[derive(Debug)]
pub struct HostSpeed {
    /// The yardstick's own data, built once: a tree to search and keys to
    /// sort, so that it allocates nothing and does not depend on the state
    /// the measured program leaves in the heap.
    tree: BTreeMap<u64, u64>,
    keys: Vec<u64>,
    scratch: Vec<u64>,
    samples: Vec<f64>,
    since_sample: f64,
}

impl Default for HostSpeed {
    fn default() -> Self {
        let keys: Vec<u64> = (0..4_000u64)
            .map(|i| i.wrapping_mul(2_654_435_761) % 1_000_003)
            .collect();
        HostSpeed {
            tree: keys.iter().map(|&k| (k, k ^ 0x5555)).collect(),
            scratch: keys.clone(),
            keys,
            samples: Vec::new(),
            since_sample: 0.0,
        }
    }
}

impl HostSpeed {
    /// One pass of the yardstick: branchy tree searches and a sort, like
    /// the library's own hot paths, on data the yardstick owns.
    fn yardstick_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for key in &self.keys {
            acc ^= self.tree.get(&(key + (acc & 1))).copied().unwrap_or(1);
        }
        self.scratch.copy_from_slice(&self.keys);
        self.scratch.sort_unstable();
        std::hint::black_box((acc, &self.scratch));
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Take one yardstick sample.  The first pass warms the caches with
    /// the yardstick's own data, so the sample does not depend on what the
    /// measured call left in them.
    pub fn sample(&mut self) {
        self.yardstick_ms();
        let ms = self.yardstick_ms();
        self.samples.push(ms);
    }

    /// Scale a measured duration to the reference host speed by the median
    /// of the last three samples; sample again every 20 ms of measured work.
    pub fn scale(&mut self, secs: f64) -> f64 {
        if self.samples.is_empty() {
            self.sample();
        }
        let recent = &self.samples[self.samples.len().saturating_sub(3)..];
        let scaled = secs * YARDSTICK_REFERENCE_MS / median(recent);
        self.since_sample += secs;
        if self.since_sample >= YARDSTICK_EVERY_S {
            self.since_sample = 0.0;
            self.sample();
        }
        scaled
    }

    /// Median yardstick time of the run, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// The run's median speed relative to the reference host.
    pub fn factor(&self) -> f64 {
        YARDSTICK_REFERENCE_MS / self.median_ms()
    }
}
