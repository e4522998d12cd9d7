//! Spans recorded by the benchmark around its calls into each crate, and
//! the per-layer self-time table built from them.
//!
//! A span has a name, a duration and its parent span; the tracer holds the
//! spans of the request in flight only (one request is in flight at a
//! time) and folds them into the table when the request ends. A layer's
//! self time is its span's duration minus what its child spans cover. Two
//! kinds of child come from inside the library rather than from the
//! benchmark: [`Tracer::span_obs`] diffs the `dx-obs` span aggregates over
//! one call (exact, because one request is in flight) and carves
//! `query.exec` and `solver.search_rep_a` time out of it, and
//! [`Tracer::carve`] moves a separately measured share of a span into
//! another row. With tracing off every method runs its closure and
//! nothing else: no clock reads, no allocation.

use dx_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `dx-obs` counters that [`Tracer::span_obs`] charges to the call it
/// wraps, as `(counter, note)`: counted over those calls only, so they
/// cover the same work as the times carved out of them.
const CALL_COUNTERS: [(&str, &str); 3] = [
    ("query.exec.rows_scanned", "exec.rows_scanned"),
    ("query.catalog.hits", "catalog.hits"),
    ("query.catalog.misses", "catalog.misses"),
];

/// One recorded span.
#[derive(Clone, Debug)]
struct SpanRec {
    /// Span id, unique within the request.
    id: usize,
    /// The enclosing benchmark span, if any.
    parent: Option<usize>,
    /// Layer row the span's self time is charged to.
    name: &'static str,
    /// Inclusive duration in nanoseconds.
    dur_ns: u64,
    /// Parts of the span charged to other rows: `(row, ns)`.
    carved: Vec<(&'static str, u64)>,
}

/// Span recorder for one run. Spans of the request in flight accumulate in
/// `current`; [`Tracer::finish_request`] hands them to the layer table.
#[derive(Default)]
pub struct Tracer {
    on: bool,
    stack: Vec<usize>,
    current: Vec<SpanRec>,
    notes: BTreeMap<&'static str, f64>,
    snapshot_ns: u64,
}

impl Tracer {
    /// A tracer with no request in flight.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Is the request in flight traced?
    pub fn on(&self) -> bool {
        self.on
    }

    /// Start a request, traced or not.
    pub fn begin_request(&mut self, on: bool) {
        self.on = on;
        self.stack.clear();
        self.current.clear();
        self.notes.clear();
        self.snapshot_ns = 0;
    }

    /// Run `f` inside a span charged to row `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        // The number of spans opened before this one in the request.
        let id = self.current.len() + self.stack.len();
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let t0 = Instant::now();
        let out = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.current.push(SpanRec {
            id,
            parent,
            name,
            dur_ns,
            carved: Vec::new(),
        });
        out
    }

    /// [`Tracer::span`] around a call into the query layer: the `dx-obs`
    /// span aggregates diffed over the call move `query.exec` time into
    /// row `exec` and the rest of `solver.search_rep_a` into row `solver`
    /// (executor probes run inside the search's leaf checks when there is
    /// one), and the [`CALL_COUNTERS`] diffed over it become notes. The
    /// two snapshots fall outside the span and are charged to their own
    /// row.
    pub fn span_obs<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let before = self.snapshot();
        let out = self.span(name, f);
        let diff = self.snapshot().diff_since(&before);
        let ns = |k: &str| diff.spans.get(k).map_or(0, |s| s.total_ns);
        let (exec, solver) = (ns("query.exec"), ns("solver.search_rep_a"));
        let mut carved = vec![("exec", exec)];
        if solver > 0 {
            carved.push(("solver", solver.saturating_sub(exec)));
        }
        if let Some(last) = self.current.last_mut() {
            last.carved.extend(carved);
        }
        for (counter, note) in CALL_COUNTERS {
            let n = diff.counters.get(counter).copied().unwrap_or(0);
            self.note(note, n as f64);
        }
        out
    }
    fn snapshot(&mut self) -> MetricsSnapshot {
        let t0 = Instant::now();
        let snap = dx_obs::snapshot();
        self.snapshot_ns += t0.elapsed().as_nanos() as u64;
        snap
    }

    /// Charge `ns` of the latest span named `from` to row `row` instead of
    /// the span's own row (capped at what the span has left).
    pub fn carve(&mut self, from: &'static str, row: &'static str, ns: u64) {
        if !self.on {
            return;
        }
        if let Some(span) = self.current.iter_mut().rev().find(|s| s.name == from) {
            let taken: u64 = span.carved.iter().map(|(_, n)| n).sum();
            span.carved
                .push((row, ns.min(span.dur_ns.saturating_sub(taken))));
        }
    }

    /// Add `v` to the request's note `name` (a count the workload knows,
    /// such as candidate tuples or the maintenance path taken).
    pub fn note(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.notes.entry(name).or_insert(0.0) += v;
        }
    }

    /// Close the traced request whose wall time was `wall_ns` and whose
    /// `dx-obs` counters moved by `obs`, folding it into `table`.
    pub fn finish_request(&mut self, wall_ns: u64, obs: &MetricsSnapshot, table: &mut LayerTable) {
        if !self.on {
            return;
        }
        table.fold(&self.current, wall_ns, self.snapshot_ns, obs, &self.notes);
    }
}

/// Per-layer aggregate over all traced requests.
#[derive(Default)]
pub struct LayerTable {
    /// Traced requests folded in.
    pub requests: u64,
    /// Sum of their wall times.
    pub wall_ns: u64,
    /// Self time per row.
    pub rows: BTreeMap<&'static str, u64>,
    /// Counter sums: `dx-obs` counters by their own names plus workload
    /// notes.
    pub counts: BTreeMap<String, f64>,
}

/// Row for time inside a request that no span covers (loop glue, result
/// hand-off).
pub const UNATTRIBUTED: &str = "(unattributed)";
/// Row for the tracer's own `dx-obs` snapshots inside traced requests.
pub const SNAPSHOTS: &str = "(trace snapshots)";

impl LayerTable {
    fn fold(
        &mut self,
        spans: &[SpanRec],
        wall_ns: u64,
        snapshot_ns: u64,
        obs: &MetricsSnapshot,
        notes: &BTreeMap<&'static str, f64>,
    ) {
        self.requests += 1;
        self.wall_ns += wall_ns;
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_insert(0) += s.dur_ns;
            }
        }
        let mut covered = snapshot_ns;
        for s in spans {
            let carved: u64 = s.carved.iter().map(|(_, n)| n).sum();
            let kids = child_ns.get(&s.id).copied().unwrap_or(0);
            *self.rows.entry(s.name).or_insert(0) += s.dur_ns.saturating_sub(kids + carved);
            for (row, n) in &s.carved {
                *self.rows.entry(row).or_insert(0) += n;
            }
            if s.parent.is_none() {
                covered += s.dur_ns;
            }
        }
        *self.rows.entry(SNAPSHOTS).or_insert(0) += snapshot_ns;
        *self.rows.entry(UNATTRIBUTED).or_insert(0) += wall_ns.saturating_sub(covered);
        for (k, v) in &obs.counters {
            *self.counts.entry(k.clone()).or_insert(0.0) += *v as f64;
        }
        for (k, v) in notes {
            *self.counts.entry((*k).to_string()).or_insert(0.0) += v;
        }
    }

    /// Mean self milliseconds per traced request charged to `row`.
    pub fn row_ms(&self, row: &str) -> f64 {
        let ns = self.rows.get(row).copied().unwrap_or(0);
        ns as f64 / 1e6 / self.requests.max(1) as f64
    }

    /// Mean per traced request of counter or note `name`.
    pub fn per_req(&self, name: &str) -> f64 {
        self.total(name) / self.requests.max(1) as f64
    }

    /// Sum over traced requests of counter or note `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Share of traced wall time no span covers.
    pub fn unattributed_frac(&self) -> f64 {
        let ns = self.rows.get(UNATTRIBUTED).copied().unwrap_or(0);
        ns as f64 / self.wall_ns.max(1) as f64
    }

    /// Do the rows account for the traced wall time, with at most
    /// `tolerance` of it left unattributed?
    pub fn within(&self, tolerance: f64) -> bool {
        self.requests > 0 && self.unattributed_frac() <= tolerance
    }

    /// The self-time table as text: one row per layer, then the
    /// unattributed share against `tolerance`.
    pub fn render(&self, tolerance: f64) -> String {
        let mut out = String::new();
        let wall_ms = self.wall_ns as f64 / 1e6;
        let _ = writeln!(
            out,
            "# layer self time over {} traced requests ({:.1} ms wall)",
            self.requests, wall_ms
        );
        let _ = writeln!(
            out,
            "# {:<22} {:>12} {:>12} {:>7}",
            "row", "total_ms", "ms/request", "share"
        );
        let mut rows: Vec<(&&str, &u64)> = self.rows.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1));
        for (name, ns) in rows {
            let _ = writeln!(
                out,
                "# {:<22} {:>12.3} {:>12.4} {:>6.1}%",
                name,
                *ns as f64 / 1e6,
                self.row_ms(name),
                100.0 * *ns as f64 / self.wall_ns.max(1) as f64
            );
        }
        let _ = writeln!(
            out,
            "# unattributed {:.2}% of traced wall (tolerance {:.0}%): {}",
            100.0 * self.unattributed_frac(),
            100.0 * tolerance,
            if self.within(tolerance) {
                "within"
            } else {
                "OUTSIDE"
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_add_up_to_wall() {
        let mut tr = Tracer::new();
        let mut table = LayerTable::default();
        tr.begin_request(true);
        let t0 = Instant::now();
        tr.span("outer", tr_inner_work);
        tr.span("outer2", || {});
        tr.carve("outer", "carved", 0);
        let wall = t0.elapsed().as_nanos() as u64;
        tr.finish_request(wall, &MetricsSnapshot::default(), &mut table);
        let sum: u64 = table.rows.values().sum();
        assert_eq!(
            sum, wall,
            "self times plus unattributed equal the wall time"
        );
    }

    fn tr_inner_work() {
        std::hint::black_box((0..10_000u64).sum::<u64>());
    }

    /// Wall time no span covers fails the tolerance check.
    #[test]
    fn uncovered_time_fails_the_check() {
        let mut tr = Tracer::new();
        let mut table = LayerTable::default();
        assert!(!table.within(0.05), "no traced request: nothing checked");
        tr.begin_request(true);
        tr.span("covered", tr_inner_work);
        let covered: u64 = tr.current.iter().map(|s| s.dur_ns).sum();
        tr.finish_request(covered, &MetricsSnapshot::default(), &mut table);
        assert!(table.within(0.05));
        tr.begin_request(true);
        tr.span("covered", || {});
        tr.finish_request(10 * covered.max(1), &MetricsSnapshot::default(), &mut table);
        assert!(table.unattributed_frac() > 0.05);
        assert!(!table.within(0.05));
        assert!(table.render(0.05).contains("OUTSIDE"));
    }

    #[test]
    fn untraced_requests_record_nothing() {
        let mut tr = Tracer::new();
        let mut table = LayerTable::default();
        tr.begin_request(false);
        assert_eq!(tr.span("x", || 7), 7);
        tr.note("n", 1.0);
        tr.finish_request(5, &MetricsSnapshot::default(), &mut table);
        assert_eq!(table.requests, 0);
        assert!(tr.current.is_empty());
    }
}
