//! The **DIP-refinement engine** behind
//! [`AttackRunner::run`](crate::AttackRunner::run).
//!
//! The oracle-guided SAT attack \[8\], Double DIP \[12\] and AppSAT \[11\]
//! are one algorithm with three policies ([`AttackKind`](crate::AttackKind)):
//! encode key-copy miters, repeatedly solve for a discriminating input
//! pattern (DIP) — an input on which two key copies disagree — resolve it
//! through the oracle, and constrain every key copy to reproduce the
//! observation until the miter goes UNSAT. Any key consistent with the accumulated I/O
//! constraints is then functionally correct (for a deterministic oracle).
//! This module hosts that loop exactly once; the policy decides the miter
//! shape (two copies vs. Double DIP's four-copy double miter with a
//! single-DIP mop-up phase) and the per-round extras (AppSAT's random
//! reinforcement and approximate early exit).
//!
//! Every round is one incremental solve, one scalar [`Oracle::query`] on
//! the discovered input, and one pin per key copy: the copy's outputs on
//! that input, encoded constant-folded ([`encode_keyed_fixed`]), are
//! asserted equal to the observation. When the cloaked cells reach only
//! some of the outputs, the loop runs on their cone of influence
//! ([`crate::coi`]) instead of the full design.
//!
//! One DIP per solve is deliberate: discovering several DIPs per solve
//! and answering them with one bit-parallel block query measured slower
//! end to end on every benchmark workload.

use crate::coi::{CoiMode, CoiOracle, CoiProjection};
use crate::encode::{
    assert_outputs_equal, assert_valid_key_codes, encode_keyed, encode_keyed_fixed,
};
use crate::oracle::Oracle;
use crate::runner::{AttackConfig, AttackOutcome, AttackStatus};
use gshe_camo::KeyedNetlist;
use gshe_logic::{PatternBlock, Simulator};
use gshe_sat::solver::Budget;
use gshe_sat::{CircuitEncoder, Lit, Polarity, SolveResult, Solver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// How the shared refinement loop specializes into a concrete attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RefinePolicy {
    /// The plain SAT attack (Subramanyan et al.): one miter over two key
    /// copies, every DIP rules out at least one wrong key class.
    Single,
    /// Double DIP (Shen & Zhou): a double miter over four key copies with
    /// pairwise key distinctness rules out at least two wrong keys per
    /// query, then a single-DIP mop-up phase finishes the key classes the
    /// double miter can no longer distinguish.
    DoubleDip,
    /// AppSAT (Shamsi et al.): the single-DIP loop interleaved with
    /// random-query error estimation, early-exiting with a
    /// probably-approximately-correct key.
    AppSat {
        /// Run a reinforcement round every this many DIPs (0 = never).
        reinforce_every: u64,
        /// Random patterns per reinforcement round.
        samples_per_round: usize,
        /// Exit early once the sampled error of the candidate key drops to
        /// or below this threshold.
        error_threshold: f64,
        /// RNG seed for the random reinforcement queries.
        seed: u64,
    },
}

/// Solves with the wall clock checked between conflict-budget slices.
/// Returns `None` on deadline/budget exhaustion.
pub(crate) fn solve_sliced(
    solver: &mut Solver,
    assumptions: &[Lit],
    deadline: Instant,
    slice: u64,
) -> Option<SolveResult> {
    let _span = gshe_obs::span("attack.solve");
    let before = solver.stats();
    loop {
        solver.set_budget(Budget {
            max_conflicts: Some(slice),
            max_vars: None,
        });
        match solver.solve_with(assumptions) {
            SolveResult::Unknown => {
                if Instant::now() >= deadline {
                    return None;
                }
            }
            done => {
                // Per-solve effort distributions (log2-bucket histograms)
                // for the sb_drill diagnostics harness; pure reads, so
                // enabling instrumentation cannot perturb the search.
                if gshe_obs::enabled() {
                    let after = solver.stats();
                    gshe_obs::record("sat.solve.conflicts", after.conflicts - before.conflicts);
                    gshe_obs::record("sat.solve.decisions", after.decisions - before.decisions);
                    gshe_obs::record(
                        "sat.solve.propagations",
                        after.propagations - before.propagations,
                    );
                }
                return Some(done);
            }
        }
    }
}

/// Mutable AppSAT bookkeeping across rounds.
struct AppSatState {
    rng: StdRng,
    reinforce_every: u64,
    samples_per_round: usize,
    error_threshold: f64,
}

/// A terminal decision reached inside the loop: status plus extracted key.
type Terminal = (AttackStatus, Option<Vec<bool>>);

/// Runs the DIP-refinement loop for `policy` against `keyed`, resolving
/// discriminating inputs through `oracle`, under `config`'s budgets.
pub(crate) fn refine(
    keyed: &KeyedNetlist,
    oracle: &mut dyn Oracle,
    config: &AttackConfig,
    policy: &RefinePolicy,
) -> AttackOutcome {
    // Cone-of-influence reduction: when the cloaked cells reach only a
    // strict subset of the outputs (and the config opts in), run the
    // identical loop on the compact cone instance against a projected
    // oracle, then expand the recovered cone key to the full design.
    if let Some(proj) = CoiProjection::build(keyed, config.coi) {
        gshe_obs::count("attack.coi_reductions", 1);
        gshe_obs::record("attack.coi_cone_nodes", proj.cone_len() as u64);
        let cleanup = proj.opt_report();
        gshe_obs::count("attack.coi_folded", cleanup.folded_constants as u64);
        gshe_obs::count("attack.coi_collapsed", cleanup.collapsed as u64);
        gshe_obs::count("attack.coi_swept", cleanup.swept_dead as u64);
        let mut cone_oracle = CoiOracle::new(oracle, &proj);
        let inner = AttackConfig {
            coi: CoiMode::Off,
            ..*config
        };
        let mut out = refine(proj.keyed(), &mut cone_oracle, &inner, policy);
        if let Some(cone_key) = out.key.take() {
            out.key = Some(proj.expand_key(&cone_key));
        }
        return out;
    }
    let start = Instant::now();
    let deadline = start + config.timeout;
    let mut appsat = match *policy {
        RefinePolicy::AppSat {
            reinforce_every,
            samples_per_round,
            error_threshold,
            seed,
        } => Some(AppSatState {
            rng: StdRng::seed_from_u64(seed),
            reinforce_every,
            samples_per_round,
            error_threshold,
        }),
        _ => None,
    };
    let mut solver = Solver::new();
    solver.set_budget(Budget {
        max_conflicts: None,
        max_vars: config.max_vars,
    });
    solver.set_simplify(config.simplify);

    // Key copies first (their variable indices anchor the search), then the
    // circuit copies sharing one set of primary inputs, then the miter(s).
    let n_copies = if *policy == RefinePolicy::DoubleDip {
        4
    } else {
        2
    };
    let keys: Vec<Vec<Lit>> = (0..n_copies)
        .map(|_| {
            (0..keyed.key_len())
                .map(|_| Lit::pos(solver.new_var()))
                .collect()
        })
        .collect();
    let copies: Vec<_> = {
        let mut enc = CircuitEncoder::new(&mut solver);
        for k in &keys {
            assert_valid_key_codes(&mut enc, keyed, k);
        }
        let copies: Vec<_> = keys
            .iter()
            .map(|k| encode_keyed(&mut enc, keyed, k))
            .collect();
        for c in &copies[1..] {
            for (a, b) in copies[0].inputs.iter().zip(&c.inputs) {
                enc.equal(*a, *b);
            }
        }
        copies
    };
    // The miter structure is encoded Plaisted–Greenbaum single-sided when
    // the simplify knob engages on the copy-encoding clause count: the
    // difference literals are only ever *assumed true*, never fixed false
    // or read from a model, so the `d → outputs differ` direction alone is
    // sound. Gated on the same threshold as preprocessing so small seeded
    // traces (goldens) keep the historical two-sided clause set
    // bit-for-bit. The circuit copies themselves stay two-sided: their
    // output literals are later pinned to oracle observations in either
    // polarity.
    let pol = if config.simplify.engages(solver.num_problem_clauses()) {
        Polarity::Pos
    } else {
        Polarity::Both
    };
    let (phases, input_lits) = {
        let mut enc = CircuitEncoder::new(&mut solver);
        let d01 = enc.miter_pol(&copies[0].outputs, &copies[1].outputs, pol);
        let phases: Vec<Vec<Lit>> = if n_copies == 4 {
            let d23 = enc.miter_pol(&copies[2].outputs, &copies[3].outputs, pol);
            // Pairwise key distinctness across the pairs: K1≠K3, K1≠K4,
            // K2≠K3, K2≠K4 — guarantees ≥ 2 distinct wrong keys eliminated
            // per double DIP. Gated on an activation literal so the
            // single-DIP mop-up and the final extraction are not
            // over-constrained. Under `act`, only the `ne → some diff` and
            // `diff → keys differ` directions are needed, so the xor/or
            // definitions inherit the single-sided polarity.
            let act = enc.fresh();
            if keyed.key_len() > 0 {
                for (i, j) in [(0usize, 2usize), (0, 3), (1, 2), (1, 3)] {
                    let diffs: Vec<Lit> = keys[i]
                        .iter()
                        .zip(&keys[j])
                        .map(|(&a, &b)| enc.gate_tt_pol(0b0110, a, b, pol))
                        .collect();
                    let ne = enc.or_many_pol(&diffs, pol);
                    enc.clause(&[!act, ne]);
                }
            }
            let both = match pol {
                // Historical emission (4 truth-table row clauses).
                Polarity::Both => enc.and(d01, d23),
                _ => enc.and_many_pol(&[d01, d23], pol),
            };
            vec![vec![both, act], vec![d01]]
        } else {
            vec![vec![d01]]
        };
        (phases, copies[0].inputs.clone())
    };
    // Freezing contract (see `Solver::freeze`): preprocessing may run on
    // the first solve, so every literal this loop later reads from a model
    // (key bits, primary inputs) or reuses across solves (the phase
    // assumption literals) must be protected from variable elimination.
    // Variables created after preprocessing (fixed-copy encodings and
    // AppSAT reinforcement) are automatically safe.
    for k in &keys {
        for &l in k {
            solver.freeze(l.var());
        }
    }
    for &l in &input_lits {
        solver.freeze(l.var());
    }
    for phase in &phases {
        for &l in phase {
            solver.freeze(l.var());
        }
    }

    let mut iterations = 0u64;
    let queries_before = oracle.queries();

    let finish = |status: AttackStatus,
                  key: Option<Vec<bool>>,
                  iterations: u64,
                  solver: &Solver,
                  oracle: &dyn Oracle| {
        let stats = solver.stats();
        gshe_obs::count("sat.decisions", stats.decisions);
        gshe_obs::count("sat.propagations", stats.propagations);
        gshe_obs::count("sat.conflicts", stats.conflicts);
        gshe_obs::count("sat.learnts", stats.learnts);
        gshe_obs::count("sat.restarts", stats.restarts);
        gshe_obs::count("sat.db_gc", stats.db_gcs);
        if stats.db_gcs > 0 {
            gshe_obs::record("attack.solver_gc_ns", stats.gc_ns);
        }
        gshe_obs::count("sat.elim_vars", stats.elim_vars);
        gshe_obs::count("sat.subsumed", stats.subsumed);
        gshe_obs::count("sat.strengthened", stats.strengthened);
        if stats.simplify_ns > 0 {
            gshe_obs::record("sat.simplify_ns", stats.simplify_ns);
        }
        if gshe_obs::enabled() {
            // Final learnt-DB LBD distribution for sb_drill diagnostics.
            for lbd in solver.learnt_lbds() {
                gshe_obs::record("sat.lbd", u64::from(lbd));
            }
        }
        AttackOutcome {
            status,
            key,
            iterations,
            queries: oracle.queries() - queries_before,
            elapsed: start.elapsed(),
            solver_stats: stats,
        }
    };

    for assumptions in &phases {
        loop {
            if Instant::now() >= deadline {
                return finish(AttackStatus::Timeout, None, iterations, &solver, oracle);
            }
            if let Some(max) = config.max_iterations {
                if iterations >= max {
                    return finish(AttackStatus::Timeout, None, iterations, &solver, oracle);
                }
            }
            match solve_sliced(
                &mut solver,
                assumptions,
                deadline,
                config.conflicts_per_slice,
            ) {
                None => return finish(AttackStatus::Timeout, None, iterations, &solver, oracle),
                Some(SolveResult::Unknown) => {
                    return finish(
                        AttackStatus::ResourceExhausted,
                        None,
                        iterations,
                        &solver,
                        oracle,
                    )
                }
                Some(SolveResult::Unsat) => break, // phase converged
                Some(SolveResult::Sat) => {
                    iterations += 1;
                    gshe_obs::count("attack.rounds", 1);
                    let dip: Vec<bool> = input_lits.iter().map(|&l| solver.model_lit(l)).collect();
                    let y = {
                        let _span = gshe_obs::span("attack.oracle");
                        oracle.query(&dip)
                    };
                    let mut enc = CircuitEncoder::new(&mut solver);
                    for key in &keys {
                        let outs = encode_keyed_fixed(&mut enc, keyed, key, &dip);
                        assert_outputs_equal(&mut enc, &outs, &y);
                    }
                    if let Some(state) = appsat.as_mut() {
                        if let Some((status, key)) = appsat_round(
                            state,
                            &mut solver,
                            keyed,
                            &keys,
                            &input_lits,
                            oracle,
                            deadline,
                            config,
                            iterations,
                        ) {
                            return finish(status, key, iterations, &solver, oracle);
                        }
                    }
                }
            }
        }
    }

    // All phases converged: extract any key consistent with the
    // accumulated I/O constraints (without the miter assumptions).
    match solve_sliced(&mut solver, &[], deadline, config.conflicts_per_slice) {
        None => finish(AttackStatus::Timeout, None, iterations, &solver, oracle),
        Some(SolveResult::Sat) => {
            let key: Vec<bool> = keys[0].iter().map(|&l| solver.model_lit(l)).collect();
            finish(
                AttackStatus::Success,
                Some(key),
                iterations,
                &solver,
                oracle,
            )
        }
        Some(SolveResult::Unsat) => finish(
            AttackStatus::Inconsistent,
            None,
            iterations,
            &solver,
            oracle,
        ),
        Some(SolveResult::Unknown) => finish(
            AttackStatus::ResourceExhausted,
            None,
            iterations,
            &solver,
            oracle,
        ),
    }
}

/// One AppSAT reinforcement round, run whenever the DIP count reaches a
/// `reinforce_every` multiple: extract a candidate key, estimate its error
/// on random block queries, exit early below the threshold, otherwise
/// reinforce the solver with the mismatching observations. Returns a
/// terminal decision ([`AttackStatus::Success`] early exit or
/// [`AttackStatus::Inconsistent`]) or `None` to continue refining.
#[allow(clippy::too_many_arguments)] // borrows of the engine's loop state
fn appsat_round(
    state: &mut AppSatState,
    solver: &mut Solver,
    keyed: &KeyedNetlist,
    keys: &[Vec<Lit>],
    input_lits: &[Lit],
    oracle: &mut dyn Oracle,
    deadline: Instant,
    config: &AttackConfig,
    iterations: u64,
) -> Option<Terminal> {
    if state.reinforce_every == 0 || !iterations.is_multiple_of(state.reinforce_every) {
        return None;
    }

    // Candidate key: any key consistent so far.
    let candidate = match solve_sliced(solver, &[], deadline, config.conflicts_per_slice) {
        Some(SolveResult::Sat) => {
            let k: Vec<bool> = keys[0].iter().map(|&l| solver.model_lit(l)).collect();
            Some(k)
        }
        Some(SolveResult::Unsat) => return Some((AttackStatus::Inconsistent, None)),
        _ => None,
    };
    let cand = candidate?;
    let resolved = keyed
        .resolve(&cand)
        .expect("candidate key has correct width");
    // Block-query reinforcement: the sample patterns are drawn exactly as
    // the scalar loop drew them (sample-major, bit-minor), then answered 64
    // at a time — the chip through `query_block` (still one query per
    // pattern), the candidate through the bit-parallel simulator.
    let n_inputs = input_lits.len();
    let mut cand_sim = Simulator::new(&resolved);
    let mut mismatches = 0usize;
    let mut mismatching: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
    let mut remaining = state.samples_per_round;
    while remaining > 0 {
        let take = remaining.min(64);
        remaining -= take;
        let patterns: Vec<Vec<bool>> = (0..take)
            .map(|_| (0..n_inputs).map(|_| state.rng.gen_bool(0.5)).collect())
            .collect();
        let block = PatternBlock::from_patterns(&patterns);
        let y_chip = {
            let _span = gshe_obs::span("attack.oracle");
            oracle.query_block(&block)
        };
        let y_cand = cand_sim.run_masked(&block).expect("interface matches");
        let mut diff = 0u64;
        for (chip, cand_lane) in y_chip.iter().zip(&y_cand) {
            diff |= chip ^ cand_lane;
        }
        diff &= block.valid_mask();
        mismatches += diff.count_ones() as usize;
        while diff != 0 {
            let k = diff.trailing_zeros() as usize;
            diff &= diff - 1;
            let y_k: Vec<bool> = y_chip.iter().map(|lane| (lane >> k) & 1 == 1).collect();
            mismatching.push((block.pattern(k), y_k));
        }
    }
    let err = mismatches as f64 / state.samples_per_round as f64;
    if err <= state.error_threshold {
        return Some((AttackStatus::Success, Some(cand)));
    }
    // Reinforce with the mismatching observations.
    let mut enc = CircuitEncoder::new(solver);
    for (x, y_chip) in mismatching {
        for key in &keys[..2] {
            let outs = encode_keyed_fixed(&mut enc, keyed, key, &x);
            assert_outputs_equal(&mut enc, &outs, &y_chip);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::verify_key;
    use crate::stack::OracleStack;
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::{GeneratorConfig, Netlist, NetlistGenerator};

    fn keyed_instance(seed: u64) -> (Netlist, gshe_camo::KeyedNetlist) {
        // 12 inputs / moderate key: tractable in well under a second,
        // hard enough that refinement actually loops.
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 12, 6, 120).with_seed(seed))
            .unwrap()
            .generate();
        let picks = select_gates(&nl, 0.12, 55);
        let mut rng = StdRng::seed_from_u64(55);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        (nl, keyed)
    }

    #[test]
    fn zero_input_circuit_is_safe() {
        // A key-only circuit has no primary inputs: the one (empty) DIP
        // pins both key copies, and nothing in the loop may degenerate
        // over zero input literals.
        use gshe_camo::{CamoGate, Candidates, KeyedNetlist};
        use gshe_logic::{Bf2, NetlistBuilder};
        let mut b = NetlistBuilder::new("t");
        let c0 = b.constant(false);
        let c1 = b.constant(true);
        let g = b.gate2("g", Bf2::AND, c0, c1);
        b.output(g);
        let nl = b.finish().unwrap();
        let gate = CamoGate {
            node: g,
            candidates: Candidates::TwoInput(Bf2::ALL.to_vec()),
            key_offset: 0,
            correct_index: Bf2::AND.truth_table() as usize,
        };
        let keyed = KeyedNetlist::new(nl.clone(), vec![gate], 4);
        let config = AttackConfig::with_timeout_secs(10);
        let mut oracle = OracleStack::exact(&nl);
        let out = refine(&keyed, &mut oracle, &config, &RefinePolicy::Single);
        assert_eq!(out.status, AttackStatus::Success);
        let v = verify_key(&nl, &keyed, out.key.as_ref().unwrap()).unwrap();
        assert!(v.functionally_equivalent);
    }

    #[test]
    fn max_iterations_caps_discovery() {
        let (nl, keyed) = keyed_instance(2);
        let config = AttackConfig {
            max_iterations: Some(3),
            ..AttackConfig::with_timeout_secs(30)
        };
        let mut oracle = OracleStack::exact(&nl);
        let out = refine(&keyed, &mut oracle, &config, &RefinePolicy::Single);
        assert_eq!(out.iterations, 3);
        assert_eq!(out.queries, 3);
        assert_eq!(out.status, AttackStatus::Timeout);
    }

    #[test]
    fn appsat_early_exit_with_loose_threshold() {
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 9, 5, 100).with_seed(43))
            .unwrap()
            .generate();
        let picks = select_gates(&nl, 0.4, 23);
        let mut rng = StdRng::seed_from_u64(23);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let mut oracle = OracleStack::exact(&nl);
        let policy = RefinePolicy::AppSat {
            reinforce_every: 1,
            samples_per_round: 48,
            error_threshold: 1.0, // accept anything at the first round
            seed: 0xA115A7,
        };
        let out = refine(&keyed, &mut oracle, &AttackConfig::default(), &policy);
        assert_eq!(out.status, AttackStatus::Success);
        // Early exit: bounded iterations.
        assert!(out.iterations <= 1, "{} iterations", out.iterations);
    }

    #[test]
    fn stochastic_oracle_breaks_appsat_consistency() {
        // fn. 6: probabilistic computation violates AppSAT's consistency
        // assumption. With a noisy oracle, repeated queries on similar
        // patterns contradict each other and the constraint set collapses
        // (Inconsistent), or the returned key is functionally wrong.
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 8, 4, 60).with_seed(47))
            .unwrap()
            .generate();
        let picks = select_gates(&nl, 0.5, 29);
        let mut rng = StdRng::seed_from_u64(29);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let mut broken = 0;
        let trials = 4;
        for seed in 0..trials {
            let mut oracle = OracleStack::noisy(&keyed, keyed.uniform_error_profile(0.25), seed);
            let config = AttackConfig::with_timeout_secs(20);
            let policy = RefinePolicy::AppSat {
                reinforce_every: 2,
                samples_per_round: 32,
                error_threshold: 0.0,
                seed,
            };
            let out = refine(&keyed, &mut oracle, &config, &policy);
            let failed = match out.status {
                AttackStatus::Inconsistent => true,
                AttackStatus::Success => {
                    let v = verify_key(&nl, &keyed, out.key.as_ref().unwrap()).unwrap();
                    !v.functionally_equivalent
                }
                _ => true,
            };
            broken += failed as usize;
        }
        assert!(
            broken >= trials as usize - 1,
            "AppSAT survived noise too often"
        );
    }
}
