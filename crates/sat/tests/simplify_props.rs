//! Property tests for the simplification pipeline: on random small CNFs,
//! solving with preprocessing forced on must agree verdict-for-verdict
//! with the plain solver and with a brute-force truth table, and any
//! model it returns — *after* elimination-stack reconstruction — must
//! satisfy the original formula. A second battery drives the incremental
//! interface across preprocessing: frozen variables keep their meaning
//! through clause additions and repeated solves, and adding a clause on
//! an eliminated variable transparently reintroduces it.

use gshe_sat::{Lit, SimplifyMode, SolveResult, Solver, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn satisfies(cnf: &[Vec<Lit>], bits: u32) -> bool {
    cnf.iter().all(|clause| {
        clause
            .iter()
            .any(|l| (bits >> l.var().0 & 1 == 1) == l.is_positive())
    })
}

fn truth_table_sat(cnf: &[Vec<Lit>], vars: u32) -> bool {
    (0u32..1 << vars).any(|bits| satisfies(cnf, bits))
}

fn solver_with(cnf: &[Vec<Lit>], vars: u32, mode: SimplifyMode) -> (Solver, bool) {
    let mut s = Solver::new();
    s.set_simplify(mode);
    for _ in 0..vars {
        s.new_var();
    }
    let mut consistent = true;
    for clause in cnf {
        consistent &= s.add_clause(clause);
    }
    (s, consistent)
}

fn model_bits(s: &Solver, vars: u32) -> u32 {
    let mut bits = 0u32;
    for v in 0..vars {
        if s.model_value(Var(v)) {
            bits |= 1 << v;
        }
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Forced preprocessing (subsumption, strengthening, BVE, model
    /// reconstruction) never changes a verdict, and the reconstructed
    /// model satisfies the *original* clauses — including ones BVE
    /// distributed away.
    #[test]
    fn simplified_verdicts_match_brute_force(
        vars in 2u32..=12,
        clauses in 1usize..=48,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51D5);
        let cnf = random_cnf(&mut rng, vars, clauses);
        let expected = truth_table_sat(&cnf, vars);

        let (mut plain, p_ok) = solver_with(&cnf, vars, SimplifyMode::Off);
        let (mut simp, s_ok) = solver_with(&cnf, vars, SimplifyMode::On);
        let plain_sat = p_ok && plain.solve() == SolveResult::Sat;
        let simp_sat = s_ok && simp.solve() == SolveResult::Sat;

        prop_assert_eq!(plain_sat, expected, "plain solver disagrees with brute force");
        prop_assert_eq!(simp_sat, expected, "simplified solver disagrees with brute force");
        if simp_sat {
            let bits = model_bits(&simp, vars);
            prop_assert!(
                satisfies(&cnf, bits),
                "reconstructed model is not a model: {:#b}",
                bits
            );
        }
    }

    /// Incremental use across preprocessing: the first solve runs the
    /// preprocessor, then follow-up clauses over *frozen* variables (and
    /// over eliminated ones, which must be transparently reintroduced)
    /// keep agreeing with the plain solver on the accumulated formula.
    #[test]
    fn incremental_rounds_survive_preprocessing(
        vars in 3u32..=10,
        clauses in 2usize..=32,
        rounds in 1usize..=4,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x14C0);
        let mut cnf = random_cnf(&mut rng, vars, clauses);

        let (mut plain, mut p_ok) = solver_with(&cnf, vars, SimplifyMode::Off);
        let (mut simp, mut s_ok) = solver_with(&cnf, vars, SimplifyMode::On);
        // Freeze a prefix of the variables — those are the formula's
        // "interface"; the rest are fair game for elimination.
        let frozen = vars / 2;
        for v in 0..frozen {
            simp.freeze(Var(v));
        }

        for _ in 0..=rounds {
            let expected = truth_table_sat(&cnf, vars);
            let plain_sat = p_ok && plain.solve() == SolveResult::Sat;
            let simp_sat = s_ok && simp.solve() == SolveResult::Sat;
            prop_assert_eq!(plain_sat, expected);
            prop_assert_eq!(simp_sat, expected);
            if simp_sat {
                let bits = model_bits(&simp, vars);
                prop_assert!(satisfies(&cnf, bits));
                // Frozen interface variables are never eliminated, so
                // their values are read directly, not reconstructed.
                for v in 0..frozen {
                    prop_assert!(!simp.is_eliminated(Var(v)));
                }
            }
            // Grow the formula: new clauses may name *any* variable,
            // including eliminated ones (exercising reintroduction).
            let extra_clauses = rng.gen_range(1usize..4);
            let extra = random_cnf(&mut rng, vars, extra_clauses);
            for clause in &extra {
                p_ok &= plain.add_clause(clause);
                s_ok &= simp.add_clause(clause);
            }
            cnf.extend(extra);
        }
    }
}

/// Deterministic sweep over unit-free CNFs (4–10 variables, 4–40 clauses
/// of 2–3 literals). Unit clauses are fixed by `add_clause` before
/// preprocessing ever runs, so the random generator above rarely hands
/// the preprocessor a formula whose units it must *discover* itself —
/// the path where local units meet resolvents and strengthened clauses.
/// Every verdict is checked against brute force and every extended model
/// against every input clause.
#[test]
fn unit_free_sweep_matches_brute_force() {
    let mut wrong_verdicts = Vec::new();
    let mut bad_models = Vec::new();
    for seed in 0..5_000u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E_55ED);
        let vars = rng.gen_range(4u32..=10);
        let clauses = rng.gen_range(4usize..=40);
        let cnf: Vec<Vec<Lit>> = (0..clauses)
            .map(|_| {
                let len = rng.gen_range(2usize..=3);
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
            .collect();
        let expected = truth_table_sat(&cnf, vars);
        let (mut s, ok) = solver_with(&cnf, vars, SimplifyMode::On);
        let sat = ok && s.solve() == SolveResult::Sat;
        if sat != expected {
            wrong_verdicts.push(seed);
        } else if sat && !satisfies(&cnf, model_bits(&s, vars)) {
            bad_models.push(seed);
        }
    }
    assert!(
        wrong_verdicts.is_empty() && bad_models.is_empty(),
        "wrong verdicts at seeds {wrong_verdicts:?}; models violating the input at seeds {bad_models:?}"
    );
}

/// A unit the preprocessor discovers must not delete a clause that was
/// strengthened off the unit's literal. `(¬a∨c∨¬b)` strengthens
/// `(¬a∨¬c∨¬b)` to `(¬a∨¬b)`, which then subsumes its parent, while the
/// lazy occurrence list of `¬c` still names the strengthened clause.
/// `(¬c∨d)` and `(¬c∨¬d)` then yield the unit `¬c`. `(¬a∨¬b)` must
/// survive: once `a` and `b` are asserted the formula is unsatisfiable.
#[test]
fn discovered_unit_spares_clauses_strengthened_off_its_literal() {
    let mut s = Solver::new();
    s.set_simplify(SimplifyMode::On);
    let [a, b, c, d] = [(); 4].map(|_| s.new_var());
    s.freeze(a);
    s.freeze(b);
    // Order matters: the subsumption queue pops the last clause first.
    s.add_clause(&[Lit::neg(c), Lit::pos(d)]);
    s.add_clause(&[Lit::neg(c), Lit::neg(d)]);
    s.add_clause(&[Lit::neg(a), Lit::neg(c), Lit::neg(b)]);
    s.add_clause(&[Lit::neg(a), Lit::pos(c), Lit::neg(b)]);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(!(s.model_value(a) && s.model_value(b)));
    s.add_clause(&[Lit::pos(a)]);
    s.add_clause(&[Lit::pos(b)]);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

/// Pure-literal / unconstrained-variable edge: eliminating a variable
/// with an empty occurrence side must leave a reconstructable model.
#[test]
fn eliminated_pure_literal_reconstructs() {
    let mut s = Solver::new();
    s.set_simplify(SimplifyMode::On);
    let a = s.new_var();
    let b = s.new_var();
    let c = s.new_var();
    // `c` appears only positively; BVE resolves it away with zero
    // resolvents. `a`/`b` form a satisfiable core.
    s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
    s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
    s.add_clause(&[Lit::pos(c), Lit::pos(a)]);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(s.model_value(b));
    // The original third clause must hold under the extended model.
    assert!(s.model_value(c) || s.model_value(a));
}

/// Assumption literals of the engaging solve are protected for that pass:
/// solving under assumptions right as preprocessing runs must respect
/// them.
#[test]
fn assumptions_survive_the_engaging_solve() {
    let mut s = Solver::new();
    s.set_simplify(SimplifyMode::On);
    let vars: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
    // A chain a0 -> a1 -> ... -> a7.
    for w in vars.windows(2) {
        s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
    }
    assert_eq!(
        s.solve_with(&[Lit::pos(vars[0])]),
        SolveResult::Sat,
        "chain under a0 is satisfiable"
    );
    assert!(s.model_value(vars[7]), "implication chain must propagate");
    assert_eq!(
        s.solve_with(&[Lit::pos(vars[0]), Lit::neg(vars[7])]),
        SolveResult::Unsat,
        "a0 and !a7 contradict the chain"
    );
}
