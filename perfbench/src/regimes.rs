//! The `regimes` workload: answers under the regimes that need a search
//! rather than one plan run. One request chases a small exchange on the
//! indexed engine and answers one query. The cases are the query
//! benchmark's families (`dx_bench::query_workloads`), sources relabelled
//! by the run seed:
//! * `gcwa` — GCWA\* answers (Hernich) over every union of minimal
//!   solutions ([`gcwa_case`]);
//! * `approx` — the under/over approximation bracket (Calautti et al.)
//!   with a one-valuation, one-extra sample ([`approx_case`]);
//! * `repa` — an all-closed exchange whose full-FO query is certainly
//!   true, so the `Rep_A` refutation exhausts every valuation
//!   ([`repa_case`]);
//! * `one_author` — the §1 conference one-author query under GCWA\*.
//!
//! The chase is small next to the search; the work is in the `dx-solver`
//! DFS and union sweeps, `DeltaIndex` apply/undo and per-leaf plan probes,
//! which is where the pool's parallel sweeps run.

use crate::harness::{relabel, Reply, Workload};
use crate::trace::Tracer;
use dx_bench::query_workloads::{approx_case, gcwa_case, repa_case, QueryCase};
use dx_chase::strategy::ChaseStrategy;
use dx_chase::{canonical_solution_via, Mapping};
use dx_core::certain::certain_answers_with;
use dx_core::regimes::{approx_certain_answers_with, gcwa_star_answers_with, RegimeBudget};
use dx_engine::IndexedChase;
use dx_logic::Query;
use dx_query::PlanCatalog;
use dx_relation::{Instance, Relation};
use dx_solver::{Completeness, SearchBudget};
use dx_workloads::conference;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const CLASSES: [&str; 4] = ["gcwa", "approx", "repa", "one_author"];

/// Sizes of one regimes run: one entry per variant in each class, all
/// four lists of the same length.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Path length of each `gcwa` source.
    pub gcwa: &'static [usize],
    /// Path length of each `approx` source.
    pub approx: &'static [usize],
    /// Path length of each `repa` source.
    pub repa: &'static [usize],
    /// Papers in each `one_author` source, and every how many papers one
    /// is assigned a reviewer (`0`: none).
    pub one_author: &'static [(usize, usize)],
}

impl Sizes {
    /// Full-size runs.
    pub const FULL: Sizes = Sizes {
        gcwa: &[6, 7, 8],
        approx: &[28, 32, 36],
        repa: &[320, 384, 448],
        one_author: &[(2, 0), (2, 2), (2, 1)],
    };
    /// Seconds-scale smoke and test runs.
    pub const TINY: Sizes = Sizes {
        gcwa: &[3, 4],
        approx: &[5, 6],
        repa: &[10, 12],
        one_author: &[(2, 2), (1, 0)],
    };
}

/// One regime request's inputs.
pub struct Case {
    class: usize,
    mapping: Mapping,
    source: Instance,
    query: Query,
}

/// The regimes workload state: its cases, key-indexed.
pub struct Regimes {
    cases: Vec<Case>,
}

/// The results a regime request is checked by.
#[derive(Debug, PartialEq)]
enum Outcome {
    Answers(Relation, Completeness),
    Bracket {
        lower: Relation,
        upper: Relation,
        tight: bool,
        completeness: Completeness,
    },
}

/// Every union of every minimal solution: the GCWA* answers exactly.
fn all_unions() -> RegimeBudget {
    RegimeBudget {
        max_union_size: usize::MAX,
        max_minimal_solutions: usize::MAX,
        max_leaves: None,
    }
}

fn sample_budget() -> SearchBudget {
    SearchBudget {
        max_leaves: None,
        ..SearchBudget::bounded(1, 1)
    }
}

/// Every case of a run, key-ordered (`key = variant * classes + class`).
/// Each source is an isomorphic copy of its family's, its constants
/// permuted by the seed.
pub fn generate(seed: u64, sizes: Sizes) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0072_6567_696d_6573);
    let mut cases = Vec::new();
    for v in 0..sizes.gcwa.len() {
        let (papers, assign_every) = sizes.one_author[v];
        let one_author = QueryCase {
            workload: "one_author",
            n: papers,
            mapping: conference::mapping(),
            source: conference::source(papers, assign_every),
            query: conference::one_author_query(),
        };
        let family = [
            gcwa_case(sizes.gcwa[v]),
            approx_case(sizes.approx[v]),
            repa_case(sizes.repa[v]),
            one_author,
        ];
        for (class, c) in family.into_iter().enumerate() {
            cases.push(Case {
                class,
                source: relabel(&c.source, &mut rng),
                mapping: c.mapping,
                query: c.query,
            });
        }
    }
    cases
}

impl Regimes {
    /// Build every case from `seed` and compile its query.
    pub fn setup(seed: u64, sizes: Sizes) -> Regimes {
        let cases = generate(seed, sizes);
        for c in &cases {
            PlanCatalog::shared().eval_in(&c.query, &c.mapping.target);
        }
        Regimes { cases }
    }

    #[cfg(test)]
    /// A text rendering of every case (for determinism checks).
    pub fn fingerprint(&self) -> String {
        self.cases
            .iter()
            .map(|c| format!("{}\n{}\n{:?}\n", CLASSES[c.class], c.source, c.query))
            .collect()
    }

    fn answer(&self, key: usize, tr: &mut Tracer) -> Outcome {
        let c = &self.cases[key];
        let csol = tr.span("chase", || {
            canonical_solution_via(IndexedChase.body_eval(), &c.mapping, &c.source)
        });
        if tr.on() {
            let fired: usize = csol.witnesses.iter().map(Vec::len).sum();
            tr.note("chase.tuples_inserted", csol.instance.tuple_count() as f64);
            tr.note("chase.triggers_fired", fired as f64);
        }
        match c.class {
            0 | 3 => {
                // The one-author query is refuted by a union of two minimal
                // solutions, so two-member unions suffice there.
                let budget = if c.class == 0 {
                    all_unions()
                } else {
                    RegimeBudget::unions_of(2)
                };
                let out = tr.span("solver", || {
                    gcwa_star_answers_with(&c.mapping, &csol, &c.source, &c.query, &budget)
                });
                tr.note("solver.minimal_members", out.minimal_solutions as f64);
                Outcome::Answers(out.answers, out.completeness)
            }
            1 => {
                let out = tr.span("solver", || {
                    approx_certain_answers_with(
                        &c.mapping,
                        &csol,
                        &c.source,
                        &c.query,
                        Some(&sample_budget()),
                    )
                });
                Outcome::Bracket {
                    lower: out.lower,
                    upper: out.upper,
                    tight: out.tight,
                    completeness: out.completeness,
                }
            }
            _ => {
                let (rel, comp) = tr.span("solver", || {
                    certain_answers_with(&c.mapping, &csol, &c.source, &c.query, None)
                });
                Outcome::Answers(rel, comp)
            }
        }
    }
}

fn digest(o: &Outcome) -> (u64, bool, u64) {
    let mut h = DefaultHasher::new();
    let hash_rel = |h: &mut DefaultHasher, r: &Relation| {
        r.len().hash(h);
        for t in r.iter() {
            t.hash(h);
        }
    };
    match o {
        Outcome::Answers(r, c) => {
            hash_rel(&mut h, r);
            format!("{c:?}").hash(&mut h);
            // A smaller budget only drops falsifying unions or leaves, so
            // answers only grow under it: an empty answer set is exact.
            (
                h.finish(),
                *c == Completeness::Exact || r.is_empty(),
                r.len() as u64,
            )
        }
        Outcome::Bracket {
            lower,
            upper,
            tight,
            completeness,
        } => {
            hash_rel(&mut h, lower);
            hash_rel(&mut h, upper);
            tight.hash(&mut h);
            format!("{completeness:?}").hash(&mut h);
            // A closed bracket is the exact answer set, whatever the
            // sample covered.
            (
                h.finish(),
                *completeness == Completeness::Exact || *tight,
                upper.len() as u64,
            )
        }
    }
}

/// The family invariant each class must meet.
fn invariant_holds(class: usize, o: &Outcome) -> bool {
    match (class, o) {
        // GCWA*-certain: the Boolean query holds (one empty answer tuple).
        (0, Outcome::Answers(r, c)) => r.len() == 1 && *c == Completeness::Exact,
        // The bracket closes and is non-empty.
        (
            1,
            Outcome::Bracket {
                lower,
                upper,
                tight,
                ..
            },
        ) => *tight && !lower.is_empty() && lower == upper,
        // Certainly true under the closed world.
        (2, Outcome::Answers(r, c)) => r.len() == 1 && *c == Completeness::Exact,
        // A union of two minimal solutions gives some paper two authors.
        (3, Outcome::Answers(r, _)) => r.is_empty(),
        _ => false,
    }
}

impl Workload for Regimes {
    fn classes(&self) -> &[&'static str] {
        &CLASSES
    }

    fn keys(&self) -> usize {
        self.cases.len()
    }

    fn class_of(&self, key: usize) -> usize {
        self.cases[key].class
    }

    fn serve(&mut self, i: usize, tr: &mut Tracer) -> Reply {
        let out = self.answer(i % self.cases.len(), tr);
        let (digest, exact, answers) = digest(&out);
        Reply {
            digest,
            exact,
            answers,
        }
    }

    /// The same requests at pool width 1, which must be bit-identical to
    /// the run's width, each also meeting its family invariant (a broken
    /// invariant yields a digest no reply can match).
    fn expected(&mut self) -> Vec<u64> {
        let width = rayon::current_num_threads();
        rayon::set_threads(1);
        let mut tr = Tracer::new();
        let want = (0..self.cases.len())
            .map(|k| {
                let out = self.answer(k, &mut tr);
                let (d, _, _) = digest(&out);
                if invariant_holds(self.cases[k].class, &out) {
                    d
                } else {
                    !d
                }
            })
            .collect();
        rayon::set_threads(width);
        want
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_byte_deterministic() {
        let a = Regimes::setup(4, Sizes::TINY).fingerprint();
        assert_eq!(a, Regimes::setup(4, Sizes::TINY).fingerprint());
        assert_ne!(a, Regimes::setup(5, Sizes::TINY).fingerprint());
    }

    /// Every class meets its invariant with an exact outcome, and width 2
    /// agrees with width 1.
    #[test]
    fn outcomes_are_exact_and_width_independent() {
        let mut w = Regimes::setup(1, Sizes::TINY);
        let mut tr = Tracer::new();
        rayon::set_threads(2);
        let got: Vec<Reply> = (0..w.keys()).map(|i| w.serve(i, &mut tr)).collect();
        let want = w.expected();
        for (k, r) in got.iter().enumerate() {
            assert!(r.exact, "{}: exact", CLASSES[w.class_of(k)]);
            assert_eq!(
                r.digest,
                want[k],
                "{}: invariant and width 1 agree",
                CLASSES[w.class_of(k)]
            );
        }
        rayon::set_threads(0);
    }
}
