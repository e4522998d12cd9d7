//! The closed loop with one caller: set-up, the timed request loop, the
//! correctness pass, and the metrics computed from them.

use crate::host;
use crate::trace::{LayerTable, Tracer};
use dx_relation::{ConstId, Instance};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The result of one request, reduced to what the loop keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    /// Hash of every answer the request produced.
    pub digest: u64,
    /// Every answer set came back with `Completeness::Exact`.
    pub exact: bool,
    /// Answer tuples produced (the base of the per-answer ratios).
    pub answers: u64,
}

/// A workload: a fixed cycle of distinct requests, served one at a time.
pub trait Workload {
    /// Request class names; requests interleave the classes round-robin.
    fn classes(&self) -> &[&'static str];
    /// Distinct requests; request `i` is request `i % keys()` again, so a
    /// reply can be checked against the first reply with the same key.
    fn keys(&self) -> usize;
    /// The class of key `key`.
    fn class_of(&self, key: usize) -> usize;
    /// Serve request `i` (key `i % keys()`), recording spans into `tr`.
    fn serve(&mut self, i: usize, tr: &mut Tracer) -> Reply;
    /// Work after request `i`, outside its timed interval but still
    /// inside its trace (the stream's maintenance-timing twin).
    fn after(&mut self, _i: usize, _tr: &mut Tracer) {}
    /// Requests `0..warm_keys()` make up the warm-up pass after a set-up,
    /// which fills the lazily built state (plans compiled on first use)
    /// before the first timed request.
    fn warm_keys(&self) -> usize {
        self.keys()
    }
    /// The correct digest for every key, computed by an independent
    /// route after the timed loop (never inside it).
    fn expected(&mut self) -> Vec<u64>;
}

/// Run facts and measurements of one run.
pub struct RunResult {
    /// Pool width the requests ran at.
    pub width: usize,
    /// Median of the repeated set-ups, seconds.
    pub setup_s: f64,
    /// Every set-up, seconds.
    pub setups_s: Vec<f64>,
    /// Latency per request in milliseconds, in issue order, untraced only.
    pub latencies_ms: Vec<f64>,
    /// Class of each entry of `latencies_ms`.
    pub lat_class: Vec<usize>,
    /// Latencies of traced requests (traced runs only).
    pub traced_ms: Vec<f64>,
    /// Requests attempted (traced and untraced).
    pub attempted: u64,
    /// Requests that failed their check.
    pub failed: u64,
    /// Requests answered with exact completeness.
    pub exact: u64,
    /// Requests per class.
    pub per_class: Vec<u64>,
    /// Requests per wall second of the timed loop.
    pub throughput_rps: f64,
    /// Process CPU per untraced request, ms.
    pub cpu_ms_per_req: f64,
    /// Peak RSS before the first in-loop set-up, MiB.
    pub peak_rss_mb: f64,
    /// Host probe readings, µs.
    pub probes_us: Vec<f64>,
    /// The layer table of the traced requests.
    pub layers: LayerTable,
    /// Process CPU per wall over traced requests.
    pub traced_cpu_per_wall: f64,
    /// Class names.
    pub classes: Vec<&'static str>,
    /// Distinct requests.
    pub keys: usize,
}

/// Loop parameters.
pub struct LoopConfig {
    /// Measured seconds.
    pub seconds: f64,
    /// Alternate untraced and traced rounds (a round = one request per
    /// key).
    pub trace: bool,
    /// Number of set-ups to time.
    pub setups: usize,
}

/// Set up with `make`, run the closed loop for `cfg.seconds` at pool
/// width `width` with `cfg.setups - 1` further timed set-ups spread over
/// it, then check every reply.
pub fn run<W: Workload>(width: usize, cfg: &LoopConfig, mut make: impl FnMut() -> W) -> RunResult {
    rayon::set_threads(width);
    dx_obs::set_enabled(false);
    let mut setups_s = Vec::new();
    let mut w = set_up(&mut make, &mut setups_s);
    let classes = w.classes().to_vec();
    let keys = w.keys();
    let mut first: Vec<Option<Reply>> = vec![None; keys];
    let mut matches_first: Vec<bool> = Vec::new();
    let mut keys_seen: Vec<usize> = Vec::new();
    let mut per_class = vec![0u64; classes.len()];
    let mut latencies_ms = Vec::new();
    let mut lat_class = Vec::new();
    let mut traced_ms = Vec::new();
    let mut probes_us = Vec::new();
    let mut exact = 0u64;
    let mut tracer = Tracer::new();
    let mut layers = LayerTable::default();
    let mut untraced_n = 0u64;
    let (mut traced_wall, mut traced_cpu) = (Duration::ZERO, 0.0);

    let cpu_start = host::process_cpu_ms().unwrap_or(0.0);
    let t_start = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let mut i = 0usize;
    // The remaining set-ups are spread over the run, so that their median
    // sees the same mix of host speed phases as the requests. Their wall
    // and CPU time, warm-up passes included, are taken out of the loop's.
    // Peak memory is read before the first of them, which briefly holds a
    // second copy of the inputs.
    let (mut setup_wall, mut setup_cpu) = (Duration::ZERO, 0.0);
    let mut peak_rss_mb = None;
    let spread = cfg.setups.max(1) as u32;
    // Whole rounds only, so every class is served equally often.
    while !i.is_multiple_of(keys) || t_start.elapsed() < budget + setup_wall {
        if i.is_multiple_of(keys) {
            let due = budget.mul_f64(f64::from(setups_s.len() as u32) / f64::from(spread));
            if setups_s.len() < cfg.setups && t_start.elapsed() >= due + setup_wall {
                peak_rss_mb = peak_rss_mb.or_else(host::peak_rss_mb);
                let (t0, c0) = (Instant::now(), host::process_cpu_ms().unwrap_or(0.0));
                drop(set_up(&mut make, &mut setups_s));
                setup_cpu += host::process_cpu_ms().unwrap_or(0.0) - c0;
                setup_wall += t0.elapsed();
            }
            probes_us.push(host::probe_us());
        }
        let round = i / keys;
        let traced = cfg.trace && round % 2 == 1;
        if i.is_multiple_of(keys) {
            dx_obs::set_enabled(traced);
        }
        let snap0 = traced.then(dx_obs::snapshot);
        let cpu0 = if traced {
            host::process_cpu_ms().unwrap_or(0.0)
        } else {
            0.0
        };
        tracer.begin_request(traced);
        let t0 = Instant::now();
        let reply = w.serve(i, &mut tracer);
        let lat = t0.elapsed();
        w.after(i, &mut tracer);
        if let Some(snap0) = snap0 {
            traced_cpu += host::process_cpu_ms().unwrap_or(0.0) - cpu0;
            traced_wall += lat;
            let diff = dx_obs::snapshot().diff_since(&snap0);
            tracer.note("answers", reply.answers as f64);
            tracer.finish_request(lat.as_nanos() as u64, &diff, &mut layers);
            traced_ms.push(lat.as_secs_f64() * 1e3);
        } else {
            latencies_ms.push(lat.as_secs_f64() * 1e3);
            lat_class.push(w.class_of(i % keys));
            untraced_n += 1;
        }
        let key = i % keys;
        per_class[w.class_of(key)] += 1;
        exact += u64::from(reply.exact);
        match first[key] {
            None => {
                first[key] = Some(reply);
                matches_first.push(true);
            }
            Some(f) => matches_first.push(f.digest == reply.digest),
        }
        keys_seen.push(key);
        i += 1;
    }
    let loop_wall = t_start.elapsed().saturating_sub(setup_wall);
    let loop_cpu = host::process_cpu_ms().unwrap_or(0.0) - cpu_start - setup_cpu;
    let peak_rss_mb = peak_rss_mb.or_else(host::peak_rss_mb).unwrap_or(0.0);
    dx_obs::set_enabled(false);
    while setups_s.len() < cfg.setups {
        drop(set_up(&mut make, &mut setups_s));
    }

    // Correctness, outside the timed loop: every first reply against an
    // independent computation, every later reply against the first.
    let want = w.expected();
    let first_ok: Vec<bool> = (0..keys)
        .map(|k| first[k].is_none_or(|f| f.digest == want[k]))
        .collect();
    let failed = keys_seen
        .iter()
        .zip(&matches_first)
        .filter(|(k, same)| !(**same && first_ok[**k]))
        .count() as u64;
    rayon::set_threads(0);

    // Requests per wall second of the loop (probes and reply checks
    // included); meaningful in untraced runs, where every request counts.
    let throughput_rps = i as f64 / loop_wall.as_secs_f64().max(1e-9);
    RunResult {
        width,
        setup_s: median(&setups_s),
        setups_s,
        latencies_ms,
        lat_class,
        traced_ms,
        attempted: i as u64,
        failed,
        exact,
        per_class,
        throughput_rps,
        // The loop's CPU time, less what traced requests used, per
        // untraced request (probes and reply checks included: both
        // are small against a request).
        cpu_ms_per_req: (loop_cpu - traced_cpu).max(0.0) / untraced_n.max(1) as f64,
        peak_rss_mb,
        probes_us,
        layers,
        traced_cpu_per_wall: traced_cpu / (traced_wall.as_secs_f64() * 1e3).max(1e-9),
        classes,
        keys,
    }
}

/// One set-up: an empty plan catalog, then `make`, which alone is timed
/// (inputs, parsing, session construction and the catalog warm-up it
/// does). The warm-up pass over the first `warm_keys()` requests follows,
/// untimed, so the lazy state is warm before the first timed request.
fn set_up<W: Workload>(make: &mut impl FnMut() -> W, times: &mut Vec<f64>) -> W {
    dx_query::PlanCatalog::shared().clear();
    let t0 = Instant::now();
    let mut w = make();
    times.push(t0.elapsed().as_secs_f64());
    let mut quiet = Tracer::new();
    for i in 0..w.warm_keys() {
        w.serve(i, &mut quiet);
        w.after(i, &mut quiet);
    }
    w
}

/// An isomorphic copy of `source` whose constants are permuted by `rng`:
/// the same work under seed-drawn names.
pub fn relabel(source: &Instance, rng: &mut StdRng) -> Instance {
    let mut names: Vec<String> = source
        .adom_consts()
        .into_iter()
        .map(ConstId::name)
        .collect();
    names.sort();
    let mut image = names.clone();
    image.shuffle(rng);
    let rename: BTreeMap<String, String> = names.into_iter().zip(image).collect();
    let mut out = Instance::new();
    for (rel, r) in source.relations() {
        out.declare(rel, r.arity());
        for t in r.iter() {
            let t: Vec<&str> = t.consts().map(|c| rename[&c.name()].as_str()).collect();
            out.insert_names(&rel.name(), &t);
        }
    }
    out
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of a sample (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of the standard percentiles with at least ten samples
/// beyond it, as `(percentile, value)`; `None` below 20 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    // Levels in tenths of a percent, so the count beyond is exact.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&p| xs.len() * (1000 - p) / 1000 >= 10)
        .map(|p| (p as f64 / 10.0, quantile(xs, p as f64 / 1000.0)))
}

/// Interquartile range over the median.
pub fn iqr_frac(xs: &[f64]) -> f64 {
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(99.0));
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(90.0));
        assert!(tail(&xs[..10]).is_none());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }
}
