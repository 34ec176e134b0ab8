//! Property tests for the CDCL core: random small CNFs checked against a
//! brute-force truth-table reference, under a deliberately tiny reduce/GC schedule so clause deletion, arena
//! compaction, and watch-list rebuilding all run on ordinary inputs — not
//! just the pigeonhole fixtures in the unit tests.
//!
//! Also pins the arena-memory contract for incremental enumeration: a
//! long add-clause/solve/block-model loop must not grow the clause
//! database monotonically, because garbage collection compacts away the
//! learnt clauses each reduction deletes.

use gshe_sat::{Lit, SearchConfig, SolveResult, Solver, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reduce/GC schedule small enough that 12-variable formulas exercise
/// DB reduction and arena compaction.
fn tiny_schedule() -> SearchConfig {
    SearchConfig {
        reduce_base: 4,
        reduce_growth_pct: 0,
        gc_wasted_pct: 1,
    }
}

/// Generates a random CNF over `vars` variables: `clauses` clauses of
/// 1–4 distinct-variable literals each.
fn random_cnf(rng: &mut StdRng, vars: u32, clauses: usize) -> Vec<Vec<Lit>> {
    (0..clauses)
        .map(|_| {
            let len = rng.gen_range(1usize..=4.min(vars as usize));
            let mut picked: Vec<u32> = Vec::with_capacity(len);
            while picked.len() < len {
                let v = rng.gen_range(0..vars);
                if !picked.contains(&v) {
                    picked.push(v);
                }
            }
            picked
                .into_iter()
                .map(|v| Lit::with_polarity(Var(v), rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

/// Brute-force reference: does any of the `2^vars` assignments satisfy
/// every clause?
fn truth_table_sat(cnf: &[Vec<Lit>], vars: u32) -> bool {
    (0u32..1 << vars).any(|bits| satisfies(cnf, bits))
}

fn satisfies(cnf: &[Vec<Lit>], bits: u32) -> bool {
    cnf.iter().all(|clause| {
        clause
            .iter()
            .any(|l| (bits >> l.var().0 & 1 == 1) == l.is_positive())
    })
}

fn solve_under(cnf: &[Vec<Lit>], vars: u32) -> (SolveResult, Option<u32>) {
    let mut s = Solver::new();
    s.set_search_config(tiny_schedule());
    for _ in 0..vars {
        s.new_var();
    }
    for clause in cnf {
        if !s.add_clause(clause) {
            return (SolveResult::Unsat, None);
        }
    }
    match s.solve() {
        SolveResult::Sat => {
            let mut bits = 0u32;
            for v in 0..vars {
                if s.model_value(Var(v)) {
                    bits |= 1 << v;
                }
            }
            (SolveResult::Sat, Some(bits))
        }
        other => (other, None),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The solver agrees with the truth table on satisfiability, and any
    /// model it returns actually satisfies the formula.
    #[test]
    fn agrees_with_truth_table(
        vars in 2u32..=12,
        clauses in 1usize..=48,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cnf = random_cnf(&mut rng, vars, clauses);
        let expected = truth_table_sat(&cnf, vars);
        let (result, model) = solve_under(&cnf, vars);
        prop_assert!(result != SolveResult::Unknown, "budget exhausted on a tiny CNF");
        let got = result == SolveResult::Sat;
        prop_assert_eq!(got, expected, "solver disagrees with brute force");
        if let Some(bits) = model {
            prop_assert!(satisfies(&cnf, bits), "returned a non-model: {:#b}", bits);
        }
    }

    /// Model enumeration via `block_model` finds exactly the satisfying
    /// assignments the truth table does — blocking clauses interleave
    /// with learnt-clause reduction and GC without losing models.
    #[test]
    fn enumeration_matches_truth_table(
        vars in 2u32..=8,
        clauses in 1usize..=24,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let cnf = random_cnf(&mut rng, vars, clauses);
        let expected: Vec<u32> =
            (0u32..1 << vars).filter(|&bits| satisfies(&cnf, bits)).collect();

        let mut s = Solver::new();
        s.set_search_config(tiny_schedule());
        for _ in 0..vars {
            s.new_var();
        }
        let mut consistent = true;
        for clause in &cnf {
            consistent &= s.add_clause(clause);
        }
        let mut found = Vec::new();
        while consistent && s.solve() == SolveResult::Sat {
            let mut bits = 0u32;
            let model: Vec<Lit> = (0..vars)
                .map(|v| {
                    let positive = s.model_value(Var(v));
                    if positive {
                        bits |= 1 << v;
                    }
                    Lit::with_polarity(Var(v), positive)
                })
                .collect();
            found.push(bits);
            prop_assert!(found.len() <= expected.len(), "enumerated a duplicate model");
            consistent = s.block_model(&model);
        }
        found.sort_unstable();
        prop_assert_eq!(found, expected);
    }
}

/// The incremental-enumeration memory contract: over 1k rounds of
/// solve/block-model against one incrementally growing formula, GC keeps
/// arena growth non-monotonic (the learnt clauses each reduction deletes
/// are compacted away) and bounded overall. Without compaction the arena
/// would only ever grow as learnt clauses accumulate and die.
#[test]
fn incremental_enumeration_keeps_arena_bounded() {
    const VARS: u32 = 14;
    const ROUNDS: usize = 1000;
    let mut rng = StdRng::seed_from_u64(0xA11A);
    let mut s = Solver::new();
    s.set_search_config(tiny_schedule());
    let vars: Vec<Var> = (0..VARS).map(|_| s.new_var()).collect();
    // A lightly constrained base formula: length-3/4 clauses leave a
    // model space far larger than the rounds we enumerate, so the loop
    // never runs dry.
    for _ in 0..12 {
        let len = rng.gen_range(3usize..=4);
        let mut clause = Vec::with_capacity(len);
        while clause.len() < len {
            let v = vars[rng.gen_range(0..VARS as usize)];
            if !clause.iter().any(|l: &Lit| l.var() == v) {
                clause.push(Lit::with_polarity(v, rng.gen_bool(0.5)));
            }
        }
        s.add_clause(&clause);
    }

    let mut shrank = false;
    let mut peak = 0usize;
    let mut last = 0usize;
    for round in 0..ROUNDS {
        assert_eq!(
            s.solve(),
            SolveResult::Sat,
            "model space ran dry at round {round}"
        );
        let model: Vec<Lit> = vars
            .iter()
            .map(|&v| Lit::with_polarity(v, s.model_value(v)))
            .collect();
        s.block_model(&model);
        let bytes = s.db_bytes();
        if bytes < last {
            shrank = true;
        }
        last = bytes;
        peak = peak.max(bytes);
        // Live clauses are one blocking clause per round plus a reduced
        // learnt set, so the arena stays small in absolute terms; a leak
        // of deleted clauses would push it far past this.
        assert!(
            bytes < 4 << 20,
            "arena grew to {} bytes by round {round}",
            bytes
        );
        assert!(
            s.db_wasted_bytes() <= bytes,
            "wasted bytes exceed arena size"
        );
    }
    let stats = s.stats();
    assert!(stats.db_gcs > 0, "the tiny GC schedule never collected");
    assert!(stats.deleted > 0, "DB reduction never deleted a learnt");
    assert!(
        shrank,
        "arena never shrank across {ROUNDS} rounds (peak {peak} bytes) — GC is not compacting"
    );
}
