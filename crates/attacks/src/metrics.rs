//! Key verification and attack-quality metrics.
//!
//! Equivalence is decided on one structurally hashed miter: the original
//! and the resolved netlist are hashed into a shared signal space, a key
//! that restores the defender's structure is proved correct without
//! building a solver, and any output pairs that still differ are settled
//! by one solve over just their fanin cones.

use crate::coi::CoiMode;
use crate::strash::miter;
use gshe_camo::{CamoError, KeyedNetlist};
use gshe_logic::{Netlist, PatternBlock, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Verdict on a recovered key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyVerification {
    /// The key selects the defender's exact candidate at every cell.
    pub structurally_correct: bool,
    /// The resolved netlist is **provably** equivalent to the original
    /// (structural hashing, then SAT where the hash cannot decide) — the
    /// attacker's actual success criterion.
    pub functionally_equivalent: bool,
    /// Fraction of 4096 random patterns on which the resolved netlist
    /// disagrees with the original (0.0 when equivalent).
    pub sampled_error_rate: f64,
}

/// Verifies a recovered key against the original design: exact
/// equivalence of the resolved netlist plus a sampled error rate.
///
/// # Errors
///
/// Returns [`CamoError::KeyLengthMismatch`] if the key has the wrong width.
pub fn verify_key(
    original: &Netlist,
    keyed: &KeyedNetlist,
    key: &[bool],
) -> Result<KeyVerification, CamoError> {
    verify(original, keyed, key, None).map(|v| v.expect("an unbounded check always settles"))
}

/// [`verify_key`], kept for callers that still pass a COI mode. The
/// strashed miter scopes itself to the outputs a key can change, so
/// `mode` no longer affects the proof.
///
/// # Errors
///
/// Returns [`CamoError::KeyLengthMismatch`] if the key has the wrong width.
pub fn verify_key_scoped(
    original: &Netlist,
    keyed: &KeyedNetlist,
    key: &[bool],
    _mode: CoiMode,
) -> Result<KeyVerification, CamoError> {
    verify_key(original, keyed, key)
}

/// [`verify_key`] bounded by a wall-clock `deadline`: the solver runs in
/// conflict slices and gives up once the deadline has passed. Returns
/// `Ok(None)` on timeout. A key the structural hash already proves
/// correct needs no solver and is verified whatever the deadline.
///
/// # Errors
///
/// Returns [`CamoError::KeyLengthMismatch`] if the key has the wrong width.
pub fn verify_key_until(
    original: &Netlist,
    keyed: &KeyedNetlist,
    key: &[bool],
    deadline: Instant,
) -> Result<Option<KeyVerification>, CamoError> {
    verify(original, keyed, key, Some(deadline))
}

fn verify(
    original: &Netlist,
    keyed: &KeyedNetlist,
    key: &[bool],
    deadline: Option<Instant>,
) -> Result<Option<KeyVerification>, CamoError> {
    let resolved = keyed.resolve(key)?;
    let Some(proof) = miter(original, &resolved, deadline) else {
        return Ok(None);
    };
    let functionally_equivalent = proof.equivalent();
    let sampled_error_rate = if functionally_equivalent {
        0.0
    } else {
        sampled_error(original, &resolved, 64)
    };
    Ok(Some(KeyVerification {
        structurally_correct: keyed.key_is_structurally_correct(key),
        functionally_equivalent,
        sampled_error_rate,
    }))
}

/// Fraction of `blocks`×64 random patterns where the two netlists disagree
/// on at least one output.
pub fn sampled_error(a: &Netlist, b: &Netlist, blocks: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(0xE44);
    let mut sim_a = Simulator::new(a);
    let mut sim_b = Simulator::new(b);
    let mut wrong = 0u64;
    let mut total = 0u64;
    for _ in 0..blocks {
        let block = PatternBlock::random(a.inputs().len(), &mut rng);
        let ya = sim_a.run(&block).expect("interface checked");
        let yb = sim_b.run(&block).expect("interface checked");
        let mut any_diff = 0u64;
        for (p, q) in ya.iter().zip(&yb) {
            any_diff |= p ^ q;
        }
        wrong += (any_diff & block.valid_mask()).count_ones() as u64;
        total += block.count as u64;
    }
    wrong as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_keyed;
    use crate::strash::Proof;
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::bench_format::{parse_bench, C17_BENCH};
    use gshe_logic::{Bf2, GeneratorConfig, NetlistGenerator};
    use gshe_sat::{CircuitEncoder, SolveResult, Solver};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn identical_netlists_are_equivalent() {
        let a = parse_bench(C17_BENCH).unwrap();
        let b = parse_bench(C17_BENCH).unwrap();
        assert_eq!(miter(&a, &b, None), Some(Proof::Hashed));
        assert_eq!(sampled_error(&a, &b, 4), 0.0);
    }

    #[test]
    fn mutated_netlist_is_not_equivalent() {
        let a = parse_bench(C17_BENCH).unwrap();
        let mut b = parse_bench(C17_BENCH).unwrap();
        let g = b.find("22").unwrap();
        b.set_gate2_function(g, Bf2::NOR).unwrap();
        let proof = miter(&a, &b, None).expect("an unbounded check always settles");
        assert!(!proof.equivalent());
        assert!(sampled_error(&a, &b, 4) > 0.0);
    }

    #[test]
    fn correct_key_verifies() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let picks = select_gates(&nl, 1.0, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let v = verify_key(&nl, &keyed, &keyed.correct_key()).unwrap();
        assert!(v.structurally_correct);
        assert!(v.functionally_equivalent);
        assert_eq!(v.sampled_error_rate, 0.0);
    }

    #[test]
    fn wrong_key_fails_verification() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let picks = select_gates(&nl, 1.0, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let key = flipped(&keyed.correct_key());
        let v = verify_key(&nl, &keyed, &key).unwrap();
        assert!(!v.structurally_correct);
        assert!(!v.functionally_equivalent);
        assert!(v.sampled_error_rate > 0.0);
    }

    fn flipped(key: &[bool]) -> Vec<bool> {
        key.iter().map(|b| !b).collect()
    }

    fn generated(seed: u64) -> Netlist {
        NetlistGenerator::new(GeneratorConfig::new("sv", 12, 8, 120).with_seed(seed))
            .unwrap()
            .generate()
    }

    /// Regression: cone-scoped verification once looked up the keyed
    /// netlist's output ids in the original's id space, so any scheme that
    /// inserts gates (INV/BUF cells, complemented cells, the NAND-tree
    /// XOR) reported correct keys as wrong or indexed out of bounds. Each
    /// generator seed cloaks an output gate, the placement that made
    /// scoping engage.
    #[test]
    fn scoped_verification_matches_full() {
        for seed in 0..20 {
            let nl = generated(seed);
            let picks = vec![nl.outputs()[0]];
            for scheme in CamoScheme::ALL {
                let mut rng = StdRng::seed_from_u64(seed);
                let Ok(keyed) = camouflage(&nl, &picks, scheme, &mut rng) else {
                    continue;
                };
                let correct = keyed.correct_key();
                let v = verify_key_scoped(&nl, &keyed, &correct, CoiMode::On).unwrap();
                assert!(v.functionally_equivalent, "{scheme} seed {seed}");
                let mut near = correct.clone();
                near[0] = !near[0];
                for key in [near, flipped(&correct)] {
                    let full = verify_key(&nl, &keyed, &key).unwrap();
                    let scoped = verify_key_scoped(&nl, &keyed, &key, CoiMode::On).unwrap();
                    assert_eq!(full, scoped, "{scheme} seed {seed} key {key:?}");
                }
            }
        }
    }

    /// The textbook two-copy miter, built only from the public encoders:
    /// the keyed circuit under constant key literals against the original
    /// as a keyless circuit, inputs tied, every output mitered.
    fn reference_equivalent(original: &Netlist, keyed: &KeyedNetlist, key: &[bool]) -> bool {
        let mut solver = Solver::new();
        let diff = {
            let mut enc = CircuitEncoder::new(&mut solver);
            let key_lits: Vec<_> = key.iter().map(|&b| enc.constant(b)).collect();
            let locked = encode_keyed(&mut enc, keyed, &key_lits);
            let plain = KeyedNetlist::new(original.clone(), Vec::new(), 0);
            let clear = encode_keyed(&mut enc, &plain, &[]);
            for (&x, &y) in locked.inputs.iter().zip(&clear.inputs) {
                enc.equal(x, y);
            }
            enc.miter(&locked.outputs, &clear.outputs)
        };
        solver.add_clause(&[diff]);
        solver.solve() == SolveResult::Unsat
    }

    /// The strashed verdict equals the reference miter's on the correct
    /// key, near-miss keys and random keys of every scheme; the correct
    /// key never needs a solver.
    #[test]
    fn strashed_miter_matches_reference_miter() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut disagreements = Vec::new();
        for seed in 0..4 {
            let nl = generated(100 + seed);
            let picks = select_gates(&nl, 0.15, seed);
            for scheme in CamoScheme::ALL {
                let keyed = camouflage(&nl, &picks, scheme, &mut rng).unwrap();
                let correct = keyed.correct_key();
                let resolved = keyed.resolve(&correct).unwrap();
                assert_eq!(miter(&nl, &resolved, None), Some(Proof::Hashed), "{scheme}");
                let mut keys = vec![correct.clone()];
                for bit in 0..keyed.key_len().min(4) {
                    let mut near = correct.clone();
                    near[bit] = !near[bit];
                    keys.push(near);
                }
                keys.extend((0..8).map(|_| {
                    (0..keyed.key_len())
                        .map(|_| rng.gen_bool(0.5))
                        .collect::<Vec<_>>()
                }));
                for key in keys {
                    let got = verify_key(&nl, &keyed, &key)
                        .unwrap()
                        .functionally_equivalent;
                    if got != reference_equivalent(&nl, &keyed, &key) {
                        disagreements.push(format!("{scheme} seed {seed} key {key:?}"));
                    }
                }
            }
        }
        assert!(disagreements.is_empty(), "{disagreements:#?}");
    }

    /// A deadline that has already passed stops any key the hash cannot
    /// settle, and never a key it can.
    #[test]
    fn passed_deadline_times_out_only_when_a_solve_is_needed() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let picks = select_gates(&nl, 1.0, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let past = Instant::now();
        let wrong = flipped(&keyed.correct_key());
        assert_eq!(verify_key_until(&nl, &keyed, &wrong, past).unwrap(), None);
        let correct = keyed.correct_key();
        let v = verify_key_until(&nl, &keyed, &correct, past).unwrap();
        assert_eq!(v, Some(verify_key(&nl, &keyed, &correct).unwrap()));
    }

    #[test]
    fn key_width_is_checked() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let picks = select_gates(&nl, 1.0, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        assert!(verify_key(&nl, &keyed, &[true]).is_err());
    }
}
