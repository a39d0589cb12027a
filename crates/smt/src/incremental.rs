//! Persistent incremental solving context: assumption probes over a
//! shared CNF encoding.
//!
//! A crosscheck test asks hundreds of closely-related questions — "can
//! group *i* of agent A and group *j* of agent B fire on the same input
//! that makes their replies differ?" — and every pair shares almost its
//! entire assertion set with every other pair of the same test. The
//! fresh-solver flow re-bitblasts and re-searches that shared structure
//! from scratch per pair. [`IncrementalSolver`] instead keeps **one**
//! CDCL instance alive per test:
//!
//! - Each distinct assertion term is bit-blasted **once** (the
//!   [`BitBlaster`] CNF cache is keyed by hash-consed DAG node id, so
//!   shared subterms encode once even across distinct assertions) and
//!   guarded behind a fresh *activation literal* `a_t` via the clause
//!   `¬a_t ∨ enc(t)`. With `a_t` unset the encoding is inert; assuming
//!   `a_t` turns the assertion on for one query.
//! - A query over assertions `{t₁..tₙ}` becomes
//!   [`SatSolver::solve_under_assumptions`]`(&[a_t1..a_tn])`. Learned
//!   clauses, variable activities, and saved phases survive between
//!   queries — sound because activation guards make every added clause a
//!   logical consequence of the *union* of all encoded assertions, never
//!   of any particular query's subset.
//!
//! Probes are **advisory accelerators**, not a replacement verdict path:
//! only Unsat — a value-deterministic answer — is published by the
//! facade ([`crate::Solver`]); Sat and Unknown probes fall through to
//! the canonical fresh solve so models and budget-limited Unknowns stay
//! byte-identical to the non-incremental flow.

use crate::bitblast::BitBlaster;
use crate::sat::{Lit, SatOutcome};
use crate::solver::SolverBudget;
use crate::Term;
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

#[cfg(doc)]
use crate::sat::SatSolver;

/// A long-lived SAT context answering assertion-set queries as
/// assumption probes over activation literals (see the module docs).
///
/// One instance per (test, worker): all queries routed through it must
/// draw from the same test's assertion universe so the shared encoding
/// stays relevant (and small).
pub struct IncrementalSolver {
    /// The persistent encoding + CDCL instance.
    bb: BitBlaster,
    /// Activation literal per encoded assertion, keyed by the term's
    /// hash-consed DAG node id (ids are unique for the process lifetime).
    acts: HashMap<u64, Lit>,
    /// Bound on `acts` (encoded assertions — and with them the CNF,
    /// learned clauses, and variable store). Crossing it resets the
    /// whole context (see [`Self::set_limits`]).
    max_encoded: usize,
    /// Encoded assertions dropped by the bound above.
    evictions: u64,
    /// SAT counters retired by context resets, folded into
    /// [`Self::sat_counters`] so callers' around-probe deltas never go
    /// backwards.
    retired: (u64, u64, u64),
    /// CNF cache hits retired by context resets.
    retired_cnf_hits: u64,
    probes: u64,
    probe_unsat: u64,
    bitblast_ns: u64,
    search_ns: u64,
}

/// Default bound on encoded assertions per context. A single test's
/// assertion universe is far smaller; the bound exists so a context
/// reused across many jobs in a long-lived process cannot grow without
/// limit.
pub const DEFAULT_MAX_ENCODED: usize = 1 << 16;

impl Default for IncrementalSolver {
    fn default() -> Self {
        IncrementalSolver::new()
    }
}

impl fmt::Debug for IncrementalSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IncrementalSolver")
            .field("probes", &self.probes)
            .field("probe_unsat", &self.probe_unsat)
            .field("encoded_terms", &self.acts.len())
            .field("learned_retained", &self.bb.sat.num_learned())
            .finish_non_exhaustive()
    }
}

impl IncrementalSolver {
    /// Fresh, empty context with the default size bounds.
    pub fn new() -> Self {
        IncrementalSolver {
            bb: BitBlaster::new(),
            acts: HashMap::new(),
            max_encoded: DEFAULT_MAX_ENCODED,
            evictions: 0,
            retired: (0, 0, 0),
            retired_cnf_hits: 0,
            probes: 0,
            probe_unsat: 0,
            bitblast_ns: 0,
            search_ns: 0,
        }
    }

    /// Override the context's size bound (clamped to at least 1).
    ///
    /// Crossing `max_encoded` drops the whole context — encoding and
    /// learned clauses — at the next probe; everything it held is
    /// advisory, so verdicts are unaffected, only re-derived.
    pub fn set_max_encoded(&mut self, max_encoded: usize) {
        self.max_encoded = max_encoded.max(1);
    }

    /// Retire the current encoding wholesale: counters the facade reads
    /// as cumulative move into `retired`, everything else is rebuilt
    /// from scratch on demand.
    fn reset_context(&mut self) {
        self.evictions += self.acts.len() as u64;
        self.retired.0 += self.bb.sat.conflicts;
        self.retired.1 += self.bb.sat.decisions;
        self.retired.2 += self.bb.sat.propagations;
        self.retired_cnf_hits += self.bb.cache_hits;
        self.bb = BitBlaster::new();
        self.acts.clear();
    }

    /// The activation literal guarding `t`'s encoding, encoding the term
    /// on first sight (`¬a_t ∨ enc(t)`).
    fn activation(&mut self, t: &Term) -> Lit {
        if let Some(&a) = self.acts.get(&t.id()) {
            return a;
        }
        let enc = self.bb.blast_bool(t);
        let act = Lit::pos(self.bb.sat.new_var());
        self.bb.sat.add_clause(&[act.negate(), enc]);
        self.acts.insert(t.id(), act);
        act
    }

    /// Probe the conjunction of `key` under `budget` (per-probe deltas;
    /// the persistent instance's cumulative counters never starve a
    /// later probe).
    ///
    /// Unsat answers are definitive under any budget. Sat answers mean
    /// "satisfiable, model available from this context's history-
    /// dependent state" — callers wanting a canonical model must
    /// re-derive it. Unknown means the budget ran out *in this context*;
    /// a fresh solve may still decide.
    pub fn probe(&mut self, key: &[Term], budget: &SolverBudget) -> SatOutcome {
        self.probes += 1;
        if self.acts.len() >= self.max_encoded {
            self.reset_context();
        }
        let t0 = Instant::now();
        let mut assumptions = Vec::with_capacity(key.len());
        for t in key {
            assumptions.push(self.activation(t));
        }
        self.bitblast_ns += t0.elapsed().as_nanos() as u64;
        assumptions.sort_unstable_by_key(|l| l.0);
        assumptions.dedup();
        self.bb.sat.max_conflicts = budget.max_conflicts;
        self.bb.sat.max_propagations = budget.max_propagations;
        self.bb.sat.deadline = budget.time_limit.map(|d| Instant::now() + d);
        let t1 = Instant::now();
        let out = self.bb.sat.solve_under_assumptions(&assumptions);
        self.search_ns += t1.elapsed().as_nanos() as u64;
        if matches!(out, SatOutcome::Unsat) {
            self.probe_unsat += 1;
        }
        out
    }

    /// Assumption probes issued.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Probes answered Unsat.
    pub fn probe_unsat(&self) -> u64 {
        self.probe_unsat
    }

    /// Learned clauses currently retained across queries.
    pub fn learned_retained(&self) -> u64 {
        self.bb.sat.num_learned() as u64
    }

    /// CNF cache hits in the persistent bit-blaster (shared subterms
    /// served without re-encoding), including hits retired by resets.
    pub fn cnf_cache_hits(&self) -> u64 {
        self.retired_cnf_hits + self.bb.cache_hits
    }

    /// Encoded assertions dropped by the context's size bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Assertions currently encoded behind activation literals.
    pub fn encoded_terms(&self) -> usize {
        self.acts.len()
    }

    /// Cumulative `(conflicts, decisions, propagations)` of the
    /// underlying SAT instance, including effort retired by context
    /// resets — callers snapshot around [`Self::probe`] to attribute
    /// per-probe search effort, and the counter never goes backwards.
    pub fn sat_counters(&self) -> (u64, u64, u64) {
        (
            self.retired.0 + self.bb.sat.conflicts,
            self.retired.1 + self.bb.sat.decisions,
            self.retired.2 + self.bb.sat.propagations,
        )
    }

    /// Cumulative `(bitblast_ns, search_ns)` spent in this context.
    pub fn timing_ns(&self) -> (u64, u64) {
        (self.bitblast_ns, self.search_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port() -> Term {
        Term::var("inc.port", 16)
    }

    #[test]
    fn probe_answers_match_semantics_across_queries() {
        let p = port();
        let low = p.clone().ult(Term::bv_const(16, 10));
        let high = p.clone().ugt(Term::bv_const(16, 20));
        let mid = p.clone().eq(Term::bv_const(16, 15));
        let mut inc = IncrementalSolver::new();
        let b = SolverBudget::unlimited();
        assert!(matches!(
            inc.probe(&[low.clone(), high.clone()], &b),
            SatOutcome::Unsat
        ));
        assert!(matches!(
            inc.probe(std::slice::from_ref(&low), &b),
            SatOutcome::Sat
        ));
        assert!(matches!(
            inc.probe(std::slice::from_ref(&high), &b),
            SatOutcome::Sat
        ));
        assert!(matches!(
            inc.probe(&[mid.clone(), low], &b),
            SatOutcome::Unsat
        ));
        assert!(matches!(inc.probe(&[mid, high], &b), SatOutcome::Unsat));
        assert_eq!(inc.probes(), 5);
        assert_eq!(inc.probe_unsat(), 3);
    }

    #[test]
    fn shared_subterms_hit_the_cnf_cache() {
        let p = port();
        // Both conditions share the subterm `p + 1`.
        let bump = p.clone().bvadd(Term::bv_const(16, 1));
        let c1 = bump.clone().ugt(Term::bv_const(16, 5));
        let c2 = bump.ult(Term::bv_const(16, 100));
        let mut inc = IncrementalSolver::new();
        let b = SolverBudget::unlimited();
        assert!(matches!(inc.probe(&[c1], &b), SatOutcome::Sat));
        let after_first = inc.cnf_cache_hits();
        assert!(matches!(inc.probe(&[c2], &b), SatOutcome::Sat));
        assert!(
            inc.cnf_cache_hits() > after_first,
            "second condition must reuse the shared subterm's CNF"
        );
    }

    #[test]
    fn budget_limits_one_probe_not_the_context() {
        // A hard query under a starved budget returns Unknown — but the
        // budget is a per-probe delta, so a retry under the same tiny
        // budget gets a fresh allowance and does real work (cumulative
        // accounting would return Unknown immediately with zero new
        // conflicts), and the context still decides once unstarved.
        let xs: Vec<Term> = (0..12).map(|i| Term::var(format!("inc.h{i}"), 8)).collect();
        let mut sum = Term::bv_const(8, 0);
        for x in &xs {
            sum = sum.bvadd(x.clone().bvmul(x.clone()));
        }
        let hard = sum.eq(Term::bv_const(8, 0x5a));
        let mut inc = IncrementalSolver::new();
        let starved = SolverBudget::conflicts(2);
        let r = inc.probe(std::slice::from_ref(&hard), &starved);
        assert!(matches!(r, SatOutcome::Unknown));
        let (c0, _, _) = inc.sat_counters();
        let r = inc.probe(std::slice::from_ref(&hard), &starved);
        assert!(!matches!(r, SatOutcome::Unsat));
        let (c1, _, _) = inc.sat_counters();
        assert!(c1 > c0, "retry must get a fresh per-probe allowance");
        assert!(matches!(
            inc.probe(&[hard], &SolverBudget::unlimited()),
            SatOutcome::Sat
        ));
    }

    #[test]
    fn bounded_context_resets_and_stays_correct() {
        let p = port();
        let low = p.clone().ult(Term::bv_const(16, 10));
        let high = p.clone().ugt(Term::bv_const(16, 20));
        let mut inc = IncrementalSolver::new();
        inc.set_max_encoded(8);
        let b = SolverBudget::unlimited();
        // Sustained distinct-term traffic far past the bound: the
        // encoding store stays capped and evictions are counted.
        for i in 0..64u64 {
            let t = Term::var(format!("inc.bnd{i}"), 8).eq(Term::bv_const(8, i & 0x7f));
            assert!(matches!(inc.probe(&[t], &b), SatOutcome::Sat));
            assert!(
                inc.encoded_terms() <= 8,
                "encoded-term store exceeded its bound"
            );
        }
        assert!(inc.evictions() > 0, "bound crossings must be counted");
        // Verdicts survive the resets: a contradiction still refutes.
        assert!(matches!(inc.probe(&[low, high], &b), SatOutcome::Unsat));
        // Around-probe counter deltas never go backwards across resets.
        let before = inc.sat_counters();
        let t = Term::var("inc.bnd_post", 8).eq(Term::bv_const(8, 1));
        assert!(matches!(inc.probe(&[t], &b), SatOutcome::Sat));
        let after = inc.sat_counters();
        assert!(after.0 >= before.0 && after.1 >= before.1 && after.2 >= before.2);
    }
}
