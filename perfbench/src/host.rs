//! The host record printed with every run: cores, decoder backend, build
//! profile, source revision and an FP calibration kernel.

use std::hint::black_box;
use std::time::Instant;

/// What a result depends on besides the code under test.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The `h264` backend `best_available()` picks on this build.
    pub backend: &'static str,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub rev: String,
}

impl Host {
    /// Probes the running process and its working directory.
    pub fn probe() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            backend: h264::backend::best_available().name(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rev: git_rev().unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Resolves `.git/HEAD` of the working directory without running git
/// (which would search parent directories too).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|line| line.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}

/// Median wall time, in milliseconds, of a fixed FP autocorrelation
/// kernel. It is diagnostic only and never scales a metric: the feature
/// extractor's service time drifts with the host's FP throughput, which
/// this kernel follows and integer loops do not.
pub fn fp_calib_ms() -> f64 {
    let signal: Vec<f32> = (0..4096)
        .map(|i| ((i as f32) * 0.013).sin() + ((i * 7919 % 101) as f32) * 1e-3)
        .collect();
    let mut times = Vec::with_capacity(9);
    for _ in 0..9 {
        let start = Instant::now();
        let x = black_box(&signal);
        let mut acc = 0.0f32;
        for lag in 0..256 {
            let mut sum = 0.0f32;
            for i in 0..x.len() - lag {
                sum += x[i] * x[i + lag];
            }
            acc += sum;
        }
        black_box(acc);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&times).expect("nine samples")
}

/// The process's peak resident set (`VmHWM`) in MiB, if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
