//! `perfbench` — end-to-end and per-layer benchmark of the workspace.
//!
//! ```text
//! perfbench --workload <exchange|regimes|stream> --seed <n> --seconds <s>
//!           --trace <0|1> [--tiny]
//! ```
//!
//! Each workload is a closed loop with one caller: requests are issued one
//! at a time, each waiting for its answers, at a fixed pool width. The
//! inputs come from `--seed` alone. Set-up is timed several times and its
//! median reported. Every reply is checked after the timed loop against an
//! independent computation. With `--trace 0` the last line of standard
//! output is a JSON object carrying the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a run whose rounds
//! alternate between untraced and traced (`DX_OBS` counters on), preceded
//! by the layer self-time table; such a run is correct only if the table's
//! rows leave at most [`LAYER_TOLERANCE`] of the traced wall time
//! unattributed. `--tiny` runs seconds-scale sizes.

mod exchange;
mod harness;
mod host;
mod regimes;
mod stream;
mod trace;

use harness::{iqr_frac, median, tail, LoopConfig, RunResult};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 21;
/// Largest share of the traced wall time the layer rows may leave
/// unattributed.
const LAYER_TOLERANCE: f64 = 0.05;

/// The pool width each workload runs at.
fn width(workload: &str) -> usize {
    match workload {
        "regimes" => 2,
        _ => 1,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let workload = value("--workload").ok_or("missing --workload")?;
    if !["exchange", "regimes", "stream"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        tiny: argv.iter().any(|a| a == "--tiny"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = LoopConfig {
        seconds: args.seconds,
        trace: args.trace,
        setups: SETUPS,
    };
    let (seed, tiny, w) = (args.seed, args.tiny, width(&args.workload));
    let (res, sizes) = match args.workload.as_str() {
        "exchange" => {
            let s = if tiny {
                exchange::Sizes::TINY
            } else {
                exchange::Sizes::FULL
            };
            let r = harness::run(w, &cfg, || exchange::Exchange::setup(seed, s));
            (r, format!("{s:?}"))
        }
        "regimes" => {
            let s = if tiny {
                regimes::Sizes::TINY
            } else {
                regimes::Sizes::FULL
            };
            let r = harness::run(w, &cfg, || regimes::Regimes::setup(seed, s));
            (r, format!("{s:?}"))
        }
        _ => {
            let s = if tiny {
                stream::Sizes::TINY
            } else {
                stream::Sizes::FULL
            };
            let r = harness::run(w, &cfg, || stream::Stream::setup(seed, s, args.trace));
            (r, format!("{s:?}"))
        }
    };
    println!("{}", facts(&args, &res, &sizes));
    let metrics = if args.trace {
        print!("{}", res.layers.render(LAYER_TOLERANCE));
        layer_metrics(&res)
    } else {
        end_to_end_metrics(&res)
    };
    let correct = res.failed == 0 && (!args.trace || res.layers.within(LAYER_TOLERANCE));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        res.attempted,
        res.failed,
        metrics
            .iter()
            .map(|(name, value, unit)| format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::SUCCESS
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end_metrics(r: &RunResult) -> Vec<Metric> {
    let lat = &r.latencies_ms;
    let answered = r.attempted.max(1) as f64;
    vec![
        ("setup_s", r.setup_s, "s"),
        ("latency_ms.p50", median(lat), "ms"),
        ("latency_ms.tail", tail(lat).map_or(0.0, |t| t.1), "ms"),
        ("throughput_rps", r.throughput_rps, "1/s"),
        ("cpu_ms_per_req", r.cpu_ms_per_req, "ms"),
        ("peak_rss_mb", r.peak_rss_mb, "MiB"),
        (
            "ok_frac",
            (r.attempted - r.failed) as f64 / answered,
            "ratio",
        ),
        ("exact_frac", r.exact as f64 / answered, "ratio"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(r: &RunResult) -> Vec<Metric> {
    let l = &r.layers;
    let answers = l.total("answers");
    let overhead = ratio(median(&r.traced_ms), median(&r.latencies_ms)) - 1.0;
    vec![
        ("text.parse_ms", l.row_ms("text.parse"), "ms"),
        ("chase.ms", l.row_ms("chase"), "ms"),
        (
            "chase.tuples_inserted",
            l.per_req("chase.tuples_inserted"),
            "count",
        ),
        (
            "chase.triggers_fired",
            l.per_req("chase.triggers_fired"),
            "count",
        ),
        ("index.build_ms", l.row_ms("index.build"), "ms"),
        ("catalog.lookup_ms", l.row_ms("catalog.lookup"), "ms"),
        (
            "catalog.hit_ratio",
            ratio(
                l.total("catalog.hits"),
                l.total("catalog.hits") + l.total("catalog.misses"),
            ),
            "ratio",
        ),
        ("exec.ms", l.row_ms("exec"), "ms"),
        ("exec.rows_scanned", l.per_req("exec.rows_scanned"), "count"),
        (
            "exec.rows_per_answer",
            ratio(l.total("exec.rows_scanned"), answers),
            "ratio",
        ),
        ("certain.loop_ms", l.row_ms("certain.loop"), "ms"),
        (
            "certain.candidates",
            l.per_req("certain.candidates"),
            "count",
        ),
        (
            "certain.candidates_per_answer",
            ratio(l.total("certain.candidates"), l.total("certain.answers")),
            "ratio",
        ),
        ("solver.ms", l.row_ms("solver"), "ms"),
        ("solver.dfs.leaves", l.per_req("solver.dfs.leaves"), "count"),
        (
            "solver.union.unions_visited",
            l.per_req("solver.union.unions_visited"),
            "count",
        ),
        (
            "solver.minimal_members",
            l.per_req("solver.minimal_members"),
            "count",
        ),
        (
            "solver.leaves_per_answer",
            ratio(l.total("solver.dfs.leaves"), answers),
            "ratio",
        ),
        (
            "delta.applies",
            l.per_req("relation.delta.applies"),
            "count",
        ),
        (
            "delta.postings_touched",
            l.per_req("relation.delta.postings_touched"),
            "count",
        ),
        (
            "pool.tasks_spawned",
            l.per_req("pool.tasks_spawned"),
            "count",
        ),
        ("pool.steals", l.per_req("pool.steals"), "count"),
        ("pool.cpu_per_wall", r.traced_cpu_per_wall, "ratio"),
        ("stream.maintain_ms", l.row_ms("stream.maintain"), "ms"),
        ("stream.refresh_ms", l.row_ms("stream.refresh"), "ms"),
        ("stream.read_ms", l.row_ms("stream.read"), "ms"),
        ("stream.csol_added", l.per_req("stream.csol_added"), "count"),
        (
            "stream.csol_removed",
            l.per_req("stream.csol_removed"),
            "count",
        ),
        (
            "stream.witnesses_died",
            l.per_req("stream.witnesses_died"),
            "count",
        ),
        ("stream.rebuilds", l.per_req("stream.rebuilds"), "count"),
        (
            "stream.path.skipped",
            l.per_req("stream.path.skipped"),
            "count",
        ),
        ("stream.path.delta", l.per_req("stream.path.delta"), "count"),
        (
            "stream.path.recomputed",
            l.per_req("stream.path.recomputed"),
            "count",
        ),
        ("stream.delta_rows", l.per_req("stream.delta_rows"), "count"),
        ("obs.trace_overhead_frac", overhead, "ratio"),
        ("host.probe_us", median(&r.probes_us), "us"),
        ("host.probe_iqr_frac", iqr_frac(&r.probes_us), "ratio"),
        (
            "trace.wall_ms",
            ratio(l.wall_ns as f64 / 1e6, l.requests as f64),
            "ms",
        ),
        ("trace.unattributed_frac", l.unattributed_frac(), "ratio"),
        ("trace.requests", l.requests as f64, "count"),
    ]
}

/// The run facts: host, build, widths, sizes, request counts per class,
/// per-class medians, the tail percentile used and the host probe.
fn facts(args: &Args, r: &RunResult, sizes: &str) -> String {
    let mut classes = String::new();
    for (c, name) in r.classes.iter().enumerate() {
        let lat: Vec<f64> = r
            .latencies_ms
            .iter()
            .zip(&r.lat_class)
            .filter(|(_, k)| **k == c)
            .map(|(l, _)| *l)
            .collect();
        let _ = write!(
            classes,
            "{}\"{name}\": {{\"requests\": {}, \"p50_ms\": {}}}",
            if c == 0 { "" } else { ", " },
            r.per_class[c],
            num(median(&lat))
        );
    }
    let (tail_pct, _) = tail(&r.latencies_ms).unwrap_or((0.0, 0.0));
    let setups: Vec<String> = r.setups_s.iter().map(|s| num(*s)).collect();
    format!(
        "{{\"facts\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"commit\": \"{}\", \
         \"pool_width\": {}, \"closed_loop_callers\": 1, \"sizes\": \"{}\", \"distinct_requests\": {}, \
         \"classes\": {{{classes}}}, \"latency_samples\": {}, \"tail_percentile\": {tail_pct}, \
         \"setups_s\": [{}], \"host_probe_us\": {{\"median\": {}, \"iqr_frac\": {}, \"samples\": {}}}}}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        host::commit(),
        r.width,
        sizes.replace('"', "'"),
        r.keys,
        r.latencies_ms.len(),
        setups.join(", "),
        num(median(&r.probes_us)),
        num(iqr_frac(&r.probes_us)),
        r.probes_us.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Every workload's tiny mode sets up, runs a traced loop and passes
    /// its checks within seconds.
    #[test]
    fn tiny_runs_finish_in_seconds() {
        let t0 = Instant::now();
        let cfg = LoopConfig {
            seconds: 0.3,
            trace: true,
            setups: 2,
        };
        let runs = [
            harness::run(1, &cfg, || {
                exchange::Exchange::setup(1, exchange::Sizes::TINY)
            }),
            harness::run(2, &cfg, || regimes::Regimes::setup(1, regimes::Sizes::TINY)),
            harness::run(1, &cfg, || {
                stream::Stream::setup(1, stream::Sizes::TINY, true)
            }),
        ];
        for r in &runs {
            assert!(
                r.attempted > 0 && r.failed == 0,
                "{:?}: every reply checks out",
                r.classes
            );
            assert!(r.layers.requests > 0, "{:?}: traced rounds ran", r.classes);
            assert!(!end_to_end_metrics(r).is_empty() && !layer_metrics(r).is_empty());
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "tiny mode took {:?}",
            t0.elapsed()
        );
    }
}
