//! What the numbers were measured on.
//!
//! Every result carries a `host` block so two result files are only
//! compared when they came from comparable machines, and so a reader knows
//! whether a second worker thread had a second core to run on.

use cv_common::json::{json, Json};
use std::hint::black_box;
use std::time::Instant;

/// Worker threads the harness gives the program: one. The sandbox's second
/// vCPU comes and goes for minutes at a time (`parallel_efficiency` reads 2.0
/// in one run and 1.0 in the next), and with two workers every job-path
/// metric flipped between two levels 40 % apart with it. One runnable thread
/// at a time measures the program, not the hypervisor's mood.
pub const WORKERS: usize = 1;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x = black_box(x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31);
    }
    x
}

/// Throughput of two threads spinning side by side relative to one thread
/// alone (2.0 = a second full core, 1.0 = none). Recorded, never gated: it
/// says whether more than [`WORKERS`] could have been used.
pub fn parallel_efficiency() -> f64 {
    const ITERS: u64 = 30_000_000;
    black_box(spin(ITERS / 10)); // reach steady clocks before timing
    let t = Instant::now();
    black_box(spin(ITERS));
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        let other = s.spawn(|| black_box(spin(ITERS)));
        black_box(spin(ITERS));
        other.join().expect("spin thread panicked");
    });
    let two = t.elapsed().as_secs_f64();
    2.0 * one / two
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The `host` block of a result file.
pub fn describe(seed: u64, parallel_efficiency: f64) -> Json {
    json!({
        "nproc": nproc() as u64,
        "workers": WORKERS as u64,
        "host_parallel_efficiency": parallel_efficiency,
        "rustc": command_line("rustc", &["--version"]),
        // Only inside a git checkout: elsewhere git would search upwards,
        // outside the directory the benchmark is confined to.
        "commit": std::path::Path::new(".git")
            .exists()
            .then(|| command_line("git", &["rev-parse", "--short", "HEAD"]))
            .flatten(),
        "seed": seed,
    })
}
