//! Host and process readings: CPU time, peak memory, a CPU-speed probe,
//! and the run facts printed with every result.

use std::hint::black_box;
use std::time::Instant;

/// Linux reports `/proc` CPU times in USER_HZ ticks, fixed at 100 per
/// second on every architecture the kernel ABI exposes.
const TICKS_PER_SEC: f64 = 100.0;

/// Process CPU time (user + system, all threads, live and exited) in
/// milliseconds, from `/proc/self/stat`. `None` off Linux.
pub fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; the fields after it do not.
    let after = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state), so utime (14) and stime (15) sit
    // at offsets 11 and 12.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / TICKS_PER_SEC)
}

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Time one fixed CPU-only calibration loop (a dependent multiply-xorshift
/// chain: no memory traffic, no allocation, no syscalls), in
/// microseconds. Run between requests, its drift separates a slow host
/// phase from a slower program.
pub fn probe_us() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..20_000 {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        x ^= x >> 29;
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e6
}

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit checked out in the working directory, read from `.git`
/// there (no parent directory is consulted); `"unknown"` for a plain
/// source export.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(".git/HEAD");
    let hash = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(r) => read(&format!(".git/{r}")),
        None => head,
    };
    match hash {
        Some(h) if h.len() >= 12 && h.chars().all(|c| c.is_ascii_hexdigit()) => h[..12].to_string(),
        _ => "unknown".to_string(),
    }
}
