//! The `exchange` workload: one request is one scenario as `.dx` text,
//! taken through parse → `IndexedChase` `CSol_A(S)` (constraints
//! included) → `certain_answers_with` for each of its queries.
//!
//! Four request classes, interleaved round-robin:
//! * `conference` — the §1 mapping (a negated body); positive queries
//!   (Proposition 3, one set-at-once plan run).
//! * `copying` — a random graph copied, symmetrized and given keyed
//!   witnesses by target constraints; positive queries.
//! * `closed_neg` — the query benchmark's correlated one-author query (not
//!   positive) over an all-closed ground solution: `dx-core`'s
//!   per-candidate loop over the palette.
//! * `generated` — `dx-text` generator shapes (fixed generator seeds) with
//!   their source widened by the run seed; their positive queries.

use crate::harness::{relabel, Reply, Workload};
use crate::trace::Tracer;
use dx_bench::query_workloads::seeded_case;
use dx_chase::chase_engine::{ChaseOutcome, DEFAULT_CHASE_LIMIT};
use dx_chase::strategy::{canonical_solution_with_deps_via, ChaseStrategy, NaiveChase};
use dx_chase::{canonical_solution_via, CanonicalSolution, Mapping, TargetDep};
use dx_core::certain::certain_answers_with;
use dx_engine::IndexedChase;
use dx_logic::{classify, Query};
use dx_query::PlanCatalog;
use dx_relation::{AnnInstance, ConstId, Instance, NullGen, RelSym, Relation};
use dx_solver::Completeness;
use dx_text::{Grade, NamedQuery, Scenario};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

const CLASSES: [&str; 4] = ["conference", "copying", "closed_neg", "generated"];

/// Generator seeds and grades of the `generated` shapes, one per variant
/// (cycled). Fixed, so the shape mix, and with it the cost, does not move
/// with the run seed; the widened sources do.
const SHAPES: [(u64, u8); 4] = [(3, 1), (11, 2), (5, 0), (8, 2)];

/// Size of variant `v` in percent of the nominal size (cycled).
const VARIANT_SCALE_PCT: [usize; 6] = [60, 72, 85, 100, 117, 135];
/// The same for the costliest class, `closed_neg`, whose cost grows
/// fastest with its size.
const CLOSED_SCALE_PCT: [usize; 6] = [90, 94, 98, 102, 106, 110];

/// Sizes of one exchange run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Papers in a `conference` source.
    pub conference: usize,
    /// Edges in a `copying` source.
    pub copying: usize,
    /// Papers in a `closed_neg` source.
    pub closed: usize,
    /// Facts per source relation of a `generated` scenario.
    pub generated: usize,
    /// Distinct scenarios per class, of graded sizes.
    pub variants: usize,
}

impl Sizes {
    /// Full-size runs.
    pub const FULL: Sizes = Sizes {
        conference: 320,
        copying: 160,
        closed: 28,
        generated: 200,
        variants: 6,
    };
    /// Seconds-scale smoke and test runs.
    pub const TINY: Sizes = Sizes {
        conference: 12,
        copying: 12,
        closed: 10,
        generated: 8,
        variants: 2,
    };
}

/// The generated request texts of one run, key-indexed
/// (`key = variant * classes + class`).
pub struct Exchange {
    texts: Vec<String>,
}

impl Exchange {
    /// Build every request text from `seed` and warm the plan catalog by
    /// parsing each and compiling its queries.
    pub fn setup(seed: u64, sizes: Sizes) -> Exchange {
        let texts = generate(seed, sizes);
        for t in &texts {
            let sc = Scenario::parse(t).expect("generated scenarios parse");
            for nq in &sc.queries {
                PlanCatalog::shared().eval_in(&nq.query, &sc.mapping.target);
            }
        }
        Exchange { texts }
    }
}

/// Every request text of a run, key-ordered.
pub fn generate(seed: u64, sizes: Sizes) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6578_6368_616e_6765);
    let mut texts = Vec::new();
    for v in 0..sizes.variants {
        // Variants spread the cheaper classes' sizes around the nominal
        // ones, so request costs cover a continuous range rather than a
        // few clusters: the median then moves smoothly with host speed
        // instead of jumping between clusters.
        let scale = |n: usize| (n * VARIANT_SCALE_PCT[v % VARIANT_SCALE_PCT.len()] / 100).max(2);
        for class in 0..CLASSES.len() {
            let sc = match class {
                0 => conference(&mut rng, scale(sizes.conference), v),
                1 => copying(&mut rng, scale(sizes.copying), v),
                // The costliest class keeps a narrow range of sizes: as a
                // quarter of all requests it holds the tail percentile
                // inside one class.
                2 => {
                    let pct = CLOSED_SCALE_PCT[v % CLOSED_SCALE_PCT.len()];
                    closed_neg(&mut rng, (sizes.closed * pct / 100).max(2), v)
                }
                _ => generated(&mut rng, scale(sizes.generated), v),
            };
            texts.push(sc.to_text());
        }
    }
    texts
}

fn named(name: &str, query: Query) -> NamedQuery {
    NamedQuery {
        name: name.to_string(),
        query,
    }
}

fn scenario(
    name: String,
    mapping: Mapping,
    constraints: Vec<TargetDep>,
    source: Instance,
    queries: Vec<NamedQuery>,
) -> Scenario {
    Scenario {
        name,
        mapping,
        constraints,
        source,
        queries,
        updates: Vec::new(),
    }
}

/// `n` papers, a seeded half of them assigned to one of three reviewers.
fn conference(rng: &mut StdRng, n: usize, v: usize) -> Scenario {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut source = Instance::new();
    for (rank, &i) in order.iter().enumerate() {
        source.insert_names(
            "Papers",
            &[&format!("p{i}"), &format!("title{}", rng.gen_range(0..n))],
        );
        if rank < n / 2 {
            source.insert_names(
                "Assignments",
                &[&format!("p{i}"), &format!("r{}", rng.gen_range(0..3usize))],
            );
        }
    }
    scenario(
        format!("conference-{v}"),
        dx_workloads::conference::mapping(),
        Vec::new(),
        source,
        vec![
            named("reviewed", dx_workloads::conference::reviewed_query()),
            named(
                "sub_and_rev",
                dx_workloads::conference::submitted_and_reviewed(),
            ),
            named(
                "submitted",
                Query::parse(&["p"], "exists a. Submissions(p, a)").expect("query parses"),
            ),
        ],
    )
}

/// A random graph of `n` distinct edges over `n / 2` vertices, copied,
/// symmetrized and given one keyed witness per vertex.
fn copying(rng: &mut StdRng, n: usize, v: usize) -> Scenario {
    let verts = (n / 2).max(2);
    let mut edges = BTreeSet::new();
    while edges.len() < n {
        edges.insert((rng.gen_range(0..verts), rng.gen_range(0..verts)));
    }
    let mut source = Instance::new();
    for (a, b) in edges {
        source.insert_names("CpE", &[&format!("v{a}"), &format!("v{b}")]);
    }
    let mapping = Mapping::parse("CpE_p(x:cl, y:cl) <- CpE(x, y)").expect("mapping parses");
    let mut mapping = mapping;
    mapping.target.add(RelSym::new("CpT"), 2);
    let constraints = TargetDep::parse_many(
        "CpE_p(y:cl, x:cl) <- CpE_p(x, y); \
         CpT(x:cl, z:op) <- CpE_p(x, y); \
         z1 = z2 <- CpT(x, z1) & CpT(x, z2)",
    )
    .expect("constraints parse");
    scenario(
        format!("copying-{v}"),
        mapping,
        constraints,
        source,
        vec![
            named(
                "two_hop",
                Query::parse(&["x", "z"], "exists y. CpE_p(x, y) & CpE_p(y, z)")
                    .expect("query parses"),
            ),
            named(
                "witnessed",
                Query::parse(&["x"], "exists z y. CpT(x, z) & CpE_p(x, y)").expect("query parses"),
            ),
        ],
    )
}

/// The query benchmark's correlated one-author case at `n` papers
/// ([`seeded_case`]), its constants permuted by the seed.
fn closed_neg(rng: &mut StdRng, n: usize, v: usize) -> Scenario {
    let c = seeded_case(n);
    scenario(
        format!("closed-neg-{v}"),
        c.mapping,
        Vec::new(),
        relabel(&c.source, rng),
        vec![named("one_author", c.query)],
    )
}

/// A generator shape with its source replaced by `n` seeded facts per
/// relation over a pool of `n` constants; positive queries only.
fn generated(rng: &mut StdRng, n: usize, v: usize) -> Scenario {
    let (gseed, grade) = SHAPES[v % SHAPES.len()];
    let mut sc = dx_text::gen(gseed, Grade::new(grade));
    let mut source = Instance::new();
    for (rel, arity) in sc.mapping.source.iter() {
        source.declare(rel, arity);
        for _ in 0..n {
            let t: Vec<String> = (0..arity)
                .map(|_| format!("c{}", rng.gen_range(0..n)))
                .collect();
            let t: Vec<&str> = t.iter().map(String::as_str).collect();
            source.insert_names(&rel.name(), &t);
        }
    }
    sc.name = format!("generated-{v}");
    sc.source = source;
    sc.constraints.clear();
    sc.updates.clear();
    sc.queries
        .retain(|nq| classify::is_positive(&nq.query.formula));
    assert!(
        !sc.queries.is_empty(),
        "generator shape {gseed}/{grade} has a positive query"
    );
    sc
}

/// `CSol_A(S)` on the indexed engine, then the target constraints; with
/// the triggers fired (STD body matches plus constraint chase steps).
fn chase(sc: &Scenario) -> (CanonicalSolution, usize) {
    let mut csol = canonical_solution_via(IndexedChase.body_eval(), &sc.mapping, &sc.source);
    let mut fired: usize = csol.witnesses.iter().map(Vec::len).sum();
    if !sc.constraints.is_empty() {
        let inst = std::mem::replace(&mut csol.instance, AnnInstance::new());
        let mut gen = NullGen::after(inst.nulls());
        let res = IndexedChase.chase(inst, &sc.constraints, &mut gen, DEFAULT_CHASE_LIMIT);
        assert!(
            matches!(res.outcome, ChaseOutcome::Satisfied),
            "{}: chase satisfied",
            sc.name
        );
        csol.instance = res.instance;
        fired += res.steps;
    }
    (csol, fired)
}

/// Candidate tuples the per-candidate loop visits for `q`.
fn candidates(source: &Instance, q: &Query) -> f64 {
    let mut palette: BTreeSet<ConstId> = source.adom_consts();
    palette.extend(q.formula.constants());
    (palette.len() as f64).powi(q.arity() as i32)
}

fn hash_rel(h: &mut DefaultHasher, qi: usize, rel: &Relation) {
    qi.hash(h);
    rel.len().hash(h);
    for t in rel.iter() {
        t.hash(h);
    }
}

impl Workload for Exchange {
    fn classes(&self) -> &[&'static str] {
        &CLASSES
    }

    fn keys(&self) -> usize {
        self.texts.len()
    }

    fn class_of(&self, key: usize) -> usize {
        key % CLASSES.len()
    }

    fn serve(&mut self, i: usize, tr: &mut Tracer) -> Reply {
        let text = &self.texts[i % self.texts.len()];
        let sc = tr
            .span("text.parse", || Scenario::parse(text))
            .expect("generated scenarios parse");
        let (csol, fired) = tr.span("chase", || chase(&sc));
        tr.note("chase.tuples_inserted", csol.instance.tuple_count() as f64);
        tr.note("chase.triggers_fired", fired as f64);
        let mut h = DefaultHasher::new();
        let (mut exact, mut answers) = (true, 0u64);
        for (qi, nq) in sc.queries.iter().enumerate() {
            let ev = tr.span_obs("catalog.lookup", || {
                PlanCatalog::shared().eval_in(&nq.query, &sc.mapping.target)
            });
            // The Proposition 3 set-at-once path: its self time beyond the
            // plan run is the snapshot `InstanceIndex` build (plus the
            // null and palette filter).
            let positive = ev.is_compiled() && classify::is_positive(&nq.query.formula);
            let row = if positive {
                "index.build"
            } else {
                "certain.loop"
            };
            if !positive {
                tr.note("certain.candidates", candidates(&sc.source, &nq.query));
            }
            let (rel, comp) = tr.span_obs(row, || {
                certain_answers_with(&sc.mapping, &csol, &sc.source, &nq.query, None)
            });
            exact &= comp == Completeness::Exact;
            answers += rel.len() as u64;
            if !positive {
                tr.note("certain.answers", rel.len() as f64);
            }
            hash_rel(&mut h, qi, &rel);
        }
        Reply {
            digest: h.finish(),
            exact,
            answers,
        }
    }

    /// The reference route: `NaiveChase` (constraints included) and the
    /// tree-walking evaluator. Positive queries: naive evaluation on the
    /// solution (Proposition 3). The others run only on all-closed ground
    /// solutions, whose one represented instance is the solution itself.
    fn expected(&mut self) -> Vec<u64> {
        self.texts
            .iter()
            .map(|text| {
                let sc = Scenario::parse(text).expect("generated scenarios parse");
                let res = canonical_solution_with_deps_via(
                    &NaiveChase,
                    &sc.mapping,
                    &sc.constraints,
                    &sc.source,
                    DEFAULT_CHASE_LIMIT,
                );
                let target = res.instance.rel_part();
                let mut h = DefaultHasher::new();
                for (qi, nq) in sc.queries.iter().enumerate() {
                    let mut palette: BTreeSet<ConstId> = sc.source.adom_consts();
                    palette.extend(nq.query.formula.constants());
                    let all = if classify::is_positive(&nq.query.formula) {
                        nq.query.naive_certain_answers(&target)
                    } else {
                        assert!(
                            sc.mapping.is_all_closed() && target.is_ground(),
                            "{}",
                            sc.name
                        );
                        nq.query.answers(&target)
                    };
                    let rel = Relation::from_tuples(
                        nq.query.arity(),
                        all.iter()
                            .filter(|t| t.consts().all(|c| palette.contains(&c)))
                            .cloned(),
                    );
                    hash_rel(&mut h, qi, &rel);
                }
                h.finish()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_byte_deterministic() {
        assert_eq!(generate(7, Sizes::TINY), generate(7, Sizes::TINY));
        assert_ne!(generate(7, Sizes::TINY), generate(8, Sizes::TINY));
    }

    /// Positive requests take the set-at-once Proposition 3 path (a
    /// compiled positive query; no `Rep_A` leaves), the `closed_neg` ones
    /// the per-candidate loop (one search leaf per candidate at least).
    #[test]
    fn requests_take_the_advertised_paths() {
        for text in generate(3, Sizes::TINY) {
            let sc = Scenario::parse(&text).expect("parses");
            let (csol, _) = chase(&sc);
            for nq in &sc.queries {
                let ev = PlanCatalog::shared().eval_in(&nq.query, &sc.mapping.target);
                assert!(ev.is_compiled(), "{}/{}: runs on a plan", sc.name, nq.name);
                let positive = classify::is_positive(&nq.query.formula);
                assert_eq!(
                    positive,
                    !sc.name.starts_with("closed-neg"),
                    "{}/{}",
                    sc.name,
                    nq.name
                );
                if !positive {
                    assert!(sc.mapping.is_all_closed() && csol.instance.rel_part().is_ground());
                    let t = dx_relation::Tuple::from_names(&["sp0"]);
                    let out = dx_core::certain::certain_contains_with(
                        &sc.mapping,
                        &csol,
                        &nq.query,
                        &t,
                        None,
                    );
                    assert!(out.leaves >= 1, "the candidate loop searches Rep_A");
                    assert_eq!(out.completeness, Completeness::Exact);
                }
            }
        }
    }

    #[test]
    fn replies_match_the_reference_route() {
        let mut w = Exchange::setup(5, Sizes::TINY);
        let mut tr = Tracer::new();
        let got: Vec<u64> = (0..w.keys()).map(|i| w.serve(i, &mut tr).digest).collect();
        assert_eq!(got, w.expected());
        for i in 0..w.keys() {
            assert!(w.serve(i, &mut tr).exact);
        }
    }
}
