//! The `stream` workload: one `StreamSession` over a graph source, with
//! three registered `Certain` queries — two positive ones (delta plans)
//! and a unary one with negation (recomputed on the maintained solution
//! whenever the source moves). One request is one batch: `update()`, then
//! `answers()` for every query.
//!
//! Batches come in cycles of [`CYCLE`]: six batches insert fresh edges,
//! one inserts labels only (the edge query skips it), and the last
//! retracts everything the cycle inserted — DRed overdelete/rederive plus
//! the recompute fallback for every query. After a cycle the source is
//! back at its initial state, so request `i` sees the same source as
//! request `i mod keys` and its answers can be checked against one
//! from-scratch computation per key.

use crate::harness::{Reply, Workload};
use crate::trace::Tracer;
use dx_chase::Mapping;
use dx_core::certain::certain_answers;
use dx_core::streaming::{QueryPath, StreamRegime, StreamSession};
use dx_engine::{IncrementalExchange, TargetPath};
use dx_logic::Query;
use dx_relation::{Instance, Relation, Update};
use dx_solver::Completeness;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Batches per cycle: six edge inserts, one label insert, one retract.
pub const CYCLE: usize = 8;
const CLASSES: [&str; 3] = ["insert", "label", "retract"];
/// Batch size of cycle `c` in percent of the nominal size (cycled).
const CYCLE_SCALE_PCT: [usize; 6] = [50, 75, 100, 125, 150, 175];

/// Sizes of one stream run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Vertices of the initial graph.
    pub vertices: usize,
    /// Edges of the initial graph.
    pub edges: usize,
    /// Labelled vertices of the initial source.
    pub labels: usize,
    /// Edges per insert batch at nominal size.
    pub batch: usize,
    /// Distinct cycles (each with its own fresh vertices and batch size).
    pub cycles: usize,
}

impl Sizes {
    /// Full-size runs.
    pub const FULL: Sizes = Sizes {
        vertices: 60,
        edges: 180,
        labels: 30,
        batch: 8,
        cycles: 6,
    };
    /// Seconds-scale smoke and test runs.
    pub const TINY: Sizes = Sizes {
        vertices: 16,
        edges: 32,
        labels: 8,
        batch: 4,
        cycles: 2,
    };
}

fn mapping() -> Mapping {
    Mapping::parse("StE(x:cl, y:cl) <- StSrc(x, y); StL(x:cl) <- StLab(x)").expect("mapping parses")
}

fn queries() -> Vec<(&'static str, Query)> {
    vec![
        (
            "two_hop",
            Query::parse(&["x", "z"], "exists y. StE(x, y) & StE(y, z)").expect("query parses"),
        ),
        (
            "labelled_out",
            Query::parse(&["x"], "exists y. StL(x) & StE(x, y)").expect("query parses"),
        ),
        (
            "sinks",
            Query::parse(&["x"], "StL(x) & !(exists y. StE(x, y))").expect("query parses"),
        ),
    ]
}

/// The initial source and every batch of a run, key-ordered.
pub fn generate(seed: u64, sizes: Sizes) -> (Instance, Vec<Update>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7374_7265_616d);
    let v = |i: usize| format!("u{i}");
    let mut source = Instance::new();
    let mut edges = BTreeSet::new();
    while edges.len() < sizes.edges {
        edges.insert((
            rng.gen_range(0..sizes.vertices),
            rng.gen_range(0..sizes.vertices),
        ));
    }
    for (a, b) in &edges {
        source.insert_names("StSrc", &[&v(*a), &v(*b)]);
    }
    let mut labelled = BTreeSet::new();
    while labelled.len() < sizes.labels {
        labelled.insert(rng.gen_range(0..sizes.vertices));
    }
    for a in &labelled {
        source.insert_names("StLab", &[&v(*a)]);
    }
    let mut batches = Vec::new();
    for c in 0..sizes.cycles {
        // Cycles differ in batch size, so batch costs cover a continuous
        // range and the median moves smoothly with host speed.
        let batch = (sizes.batch * CYCLE_SCALE_PCT[c % CYCLE_SCALE_PCT.len()] / 100).max(2);
        let mut inserted: Vec<(&str, Vec<String>)> = Vec::new();
        for b in 0..CYCLE - 2 {
            let mut up = Update::new();
            for j in 0..batch {
                // A fresh vertex hooked into the graph, each edge new.
                let fresh = format!("f{c}_{b}_{}", j / 2);
                let old = v(rng.gen_range(0..sizes.vertices));
                let (x, y) = if j % 2 == 0 {
                    (fresh, old)
                } else {
                    (old, fresh)
                };
                up = up.insert_names("StSrc", &[&x, &y]);
                inserted.push(("StSrc", vec![x, y]));
            }
            batches.push(up);
        }
        let mut up = Update::new();
        for j in 0..batch / 4 {
            let x = format!(
                "f{c}_{}_{}",
                rng.gen_range(0..CYCLE - 2),
                j % (batch / 2).max(1)
            );
            up = up.insert_names("StLab", &[&x]);
            inserted.push(("StLab", vec![x]));
        }
        batches.push(up);
        let mut up = Update::new();
        for (rel, t) in &inserted {
            let t: Vec<&str> = t.iter().map(String::as_str).collect();
            up = up.retract_names(rel, &t);
        }
        batches.push(up);
    }
    (source, batches)
}

/// The stream workload state.
pub struct Stream {
    source: Instance,
    batches: Vec<Update>,
    session: StreamSession,
    /// A second, bare incremental exchange fed the same batches outside
    /// the timed requests: its update time is the session's maintenance
    /// share, the rest of `update()` is answer refresh.
    twin: Option<IncrementalExchange>,
    names: Vec<&'static str>,
}

impl Stream {
    /// Build the source and batches from `seed`, open the session and
    /// register the queries (computing their first answers). `twin` adds
    /// the maintenance-timing twin of traced runs.
    pub fn setup(seed: u64, sizes: Sizes, twin: bool) -> Stream {
        let (source, batches) = generate(seed, sizes);
        let mut session = StreamSession::new(mapping(), Vec::new(), source.clone());
        let mut names = Vec::new();
        for (name, q) in queries() {
            session.register(name, q, StreamRegime::Certain);
            names.push(name);
        }
        let twin = twin.then(|| IncrementalExchange::new(mapping(), Vec::new(), source.clone()));
        Stream {
            source,
            batches,
            session,
            twin,
            names,
        }
    }

    #[cfg(test)]
    /// A text rendering of the source and batches (for determinism checks).
    pub fn fingerprint(&self) -> String {
        format!("{}\n{:?}", self.source, self.batches)
    }
}

fn class_at(pos: usize) -> usize {
    match pos {
        p if p == CYCLE - 1 => 2,
        p if p == CYCLE - 2 => 1,
        _ => 0,
    }
}

fn digest(answers: &[(Relation, Completeness)]) -> (u64, bool, u64) {
    let mut h = DefaultHasher::new();
    let mut n = 0;
    for (qi, (rel, _)) in answers.iter().enumerate() {
        qi.hash(&mut h);
        rel.len().hash(&mut h);
        n += rel.len() as u64;
        for t in rel.iter() {
            t.hash(&mut h);
        }
    }
    let exact = answers.iter().all(|(_, c)| *c == Completeness::Exact);
    (h.finish(), exact, n)
}

impl Workload for Stream {
    fn classes(&self) -> &[&'static str] {
        &CLASSES
    }

    fn keys(&self) -> usize {
        self.batches.len()
    }

    fn class_of(&self, key: usize) -> usize {
        class_at(key % CYCLE)
    }

    fn serve(&mut self, i: usize, tr: &mut Tracer) -> Reply {
        let batch = &self.batches[i % self.batches.len()];
        let session = &mut self.session;
        let report = tr.span("stream.refresh", || session.update(batch));
        let mut answers = Vec::with_capacity(self.names.len());
        for name in &self.names {
            let a = tr.span("stream.read", || self.session.answers(name));
            answers.push(a.expect("query is registered"));
        }
        if tr.on() {
            let u = &report.update;
            tr.note("chase.tuples_inserted", u.csol_added as f64);
            tr.note("chase.triggers_fired", u.witnesses_born as f64);
            tr.note("stream.csol_added", u.csol_added as f64);
            tr.note("stream.csol_removed", u.csol_removed as f64);
            tr.note("stream.witnesses_died", u.witnesses_died as f64);
            tr.note(
                "stream.rebuilds",
                f64::from(u8::from(matches!(u.target, TargetPath::Rebuilt { .. }))),
            );
            for (_, path) in &report.queries {
                match path {
                    QueryPath::Skipped => tr.note("stream.path.skipped", 1.0),
                    QueryPath::DeltaPlan { delta_answers } => {
                        tr.note("stream.path.delta", 1.0);
                        tr.note("stream.delta_rows", *delta_answers as f64);
                    }
                    QueryPath::Recomputed => tr.note("stream.path.recomputed", 1.0),
                }
            }
        }
        let (digest, exact, answers) = digest(&answers);
        Reply {
            digest,
            exact,
            answers,
        }
    }

    /// One cycle (every batch class, the source restored at its end)
    /// compiles every delta plan the requests use.
    fn warm_keys(&self) -> usize {
        CYCLE.min(self.keys())
    }

    /// Feed the batch to the twin and charge its time, as the
    /// maintenance share, to the request's `update()` span.
    fn after(&mut self, i: usize, tr: &mut Tracer) {
        if let Some(twin) = self.twin.as_mut() {
            let t0 = Instant::now();
            twin.update(&self.batches[i % self.batches.len()]);
            tr.carve(
                "stream.refresh",
                "stream.maintain",
                t0.elapsed().as_nanos() as u64,
            );
        }
    }

    /// `certain_answers` from scratch (chase included) on the rolling
    /// source after every batch of one full pass.
    fn expected(&mut self) -> Vec<u64> {
        let mut rolling = self.source.clone();
        let qs = queries();
        self.batches
            .iter()
            .map(|up| {
                up.apply(&mut rolling);
                let answers: Vec<(Relation, Completeness)> = qs
                    .iter()
                    .map(|(_, q)| certain_answers(&mapping(), &rolling, q, None))
                    .collect();
                digest(&answers).0
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_byte_deterministic() {
        let a = Stream::setup(2, Sizes::TINY, false).fingerprint();
        assert_eq!(a, Stream::setup(2, Sizes::TINY, false).fingerprint());
        assert_ne!(a, Stream::setup(3, Sizes::TINY, false).fingerprint());
    }

    /// A traced pass produces skip, delta and recompute paths and at least
    /// one retraction batch, and every reply matches the scratch answers,
    /// also on the second pass over the keys.
    #[test]
    fn trace_covers_every_path_and_matches_scratch() {
        let mut w = Stream::setup(9, Sizes::TINY, true);
        let mut tr = Tracer::new();
        let mut table = crate::trace::LayerTable::default();
        let mut got = Vec::new();
        for i in 0..2 * w.keys() {
            tr.begin_request(true);
            got.push(w.serve(i, &mut tr));
            w.after(i, &mut tr);
            tr.finish_request(1, &dx_obs::MetricsSnapshot::default(), &mut table);
        }
        let want = w.expected();
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.digest, want[i % want.len()], "batch {i}");
            assert!(r.exact);
        }
        for path in [
            "stream.path.skipped",
            "stream.path.delta",
            "stream.path.recomputed",
        ] {
            assert!(table.total(path) > 0.0, "{path} taken");
        }
        assert!(
            table.total("stream.csol_removed") > 0.0,
            "a retraction batch ran"
        );
    }
}
