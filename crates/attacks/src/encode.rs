//! SAT encoding of keyed netlists (the attacker's model).
//!
//! A cloaked cell with candidate set `{f₀ … f_{k−1}}` and key bits `K` is
//! encoded as: for every candidate `i` and every input row, the clause
//! `(K ≠ i) ∨ (inputs ≠ row) ∨ (z = fᵢ(row))`. Unused binary codes are
//! globally forbidden by [`assert_valid_key_codes`] so SAT models always
//! decode to real candidates.
//!
//! [`encode_keyed_fixed`] is the constant-folded variant used for the
//! oracle I/O constraints `C(X_d, K) = Y_d`: with the inputs fixed, all
//! key-independent logic folds away and each cloaked cell costs only one
//! short clause per candidate — the dominant factor in DIP-loop throughput.

use gshe_camo::{CamoGate, Candidates, KeyedNetlist};
use gshe_logic::NodeKind;
use gshe_sat::{CircuitEncoder, ClauseSink, Lit};
use std::collections::HashMap;

/// One encoded copy of the keyed circuit.
#[derive(Debug, Clone)]
pub struct EncodedCopy {
    /// Literals of the primary inputs (shared across copies when the caller
    /// passes them around).
    pub inputs: Vec<Lit>,
    /// Literals of the primary outputs.
    pub outputs: Vec<Lit>,
}

/// A signal during constant-folded encoding: known constant or symbolic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigVal {
    /// Compile-time constant.
    Known(bool),
    /// Symbolic literal.
    Sym(Lit),
}

fn selector_negation(gate: &CamoGate, code: usize, key: &[Lit]) -> Vec<Lit> {
    (0..gate.key_bits())
        .map(|j| {
            let bit = (code >> j) & 1 == 1;
            let k = key[gate.key_offset + j];
            if bit {
                !k
            } else {
                k
            }
        })
        .collect()
}

/// Forbids the unused binary codes of every cloaked cell (emit once per key
/// vector, not per circuit copy).
pub fn assert_valid_key_codes<S: ClauseSink>(
    enc: &mut CircuitEncoder<'_, S>,
    keyed: &KeyedNetlist,
    key: &[Lit],
) {
    for gate in keyed.camo_gates() {
        let n = gate.candidates.len();
        for code in n..(1usize << gate.key_bits()) {
            let clause = selector_negation(gate, code, key);
            enc.clause(&clause);
        }
    }
}

/// Encodes a full symbolic copy of the keyed circuit under key literals
/// `key`, allocating fresh input literals.
///
/// # Panics
///
/// Panics if `key.len() != keyed.key_len()`.
pub fn encode_keyed<S: ClauseSink>(
    enc: &mut CircuitEncoder<'_, S>,
    keyed: &KeyedNetlist,
    key: &[Lit],
) -> EncodedCopy {
    assert_eq!(key.len(), keyed.key_len(), "key literal width mismatch");
    let nl = keyed.netlist();
    let camo: HashMap<usize, &CamoGate> = keyed
        .camo_gates()
        .iter()
        .map(|g| (g.node.index(), g))
        .collect();
    let mut lits: Vec<Lit> = Vec::with_capacity(nl.len());
    let mut inputs = Vec::new();

    for (i, node) in nl.nodes().enumerate() {
        let z = if let Some(gate) = camo.get(&i) {
            encode_camo_cell(enc, gate, key, &lits, &node.kind)
        } else {
            match node.kind {
                NodeKind::Input => {
                    let l = enc.fresh();
                    inputs.push(l);
                    l
                }
                NodeKind::Const(c) => enc.constant(c),
                NodeKind::Gate1 { f, a } => match f {
                    gshe_logic::Bf1::Buf => lits[a.index()],
                    gshe_logic::Bf1::Inv => !lits[a.index()],
                    gshe_logic::Bf1::Const0 => enc.constant(false),
                    gshe_logic::Bf1::Const1 => enc.constant(true),
                },
                NodeKind::Gate2 { f, a, b } => {
                    enc.gate_tt(f.truth_table(), lits[a.index()], lits[b.index()])
                }
            }
        };
        lits.push(z);
    }

    let outputs = nl.outputs().iter().map(|o| lits[o.index()]).collect();
    EncodedCopy { inputs, outputs }
}

fn encode_camo_cell<S: ClauseSink>(
    enc: &mut CircuitEncoder<'_, S>,
    gate: &CamoGate,
    key: &[Lit],
    lits: &[Lit],
    kind: &NodeKind,
) -> Lit {
    let z = enc.fresh();
    match (&gate.candidates, kind) {
        (Candidates::TwoInput(fs), NodeKind::Gate2 { a, b, .. }) => {
            let (la, lb) = (lits[a.index()], lits[b.index()]);
            for (i, f) in fs.iter().enumerate() {
                let sel = selector_negation(gate, i, key);
                for row in 0..4u8 {
                    let va = row & 1 == 1;
                    let vb = row & 2 == 2;
                    let out = f.eval(va, vb);
                    let mut clause = sel.clone();
                    clause.push(if va { !la } else { la });
                    clause.push(if vb { !lb } else { lb });
                    clause.push(if out { z } else { !z });
                    enc.clause(&clause);
                }
            }
        }
        (Candidates::OneInput(fs), NodeKind::Gate1 { a, .. }) => {
            let la = lits[a.index()];
            for (i, f) in fs.iter().enumerate() {
                let sel = selector_negation(gate, i, key);
                for va in [false, true] {
                    let out = f.eval(va);
                    let mut clause = sel.clone();
                    clause.push(if va { !la } else { la });
                    clause.push(if out { z } else { !z });
                    enc.clause(&clause);
                }
            }
        }
        (c, k) => unreachable!("camo cell shape mismatch: {c:?} at {k:?}"),
    }
    z
}

/// Encodes the circuit with *fixed* primary inputs, constant-folding all
/// key-independent logic. Returns the output signals.
///
/// # Panics
///
/// Panics on key or input width mismatch.
pub fn encode_keyed_fixed<S: ClauseSink>(
    enc: &mut CircuitEncoder<'_, S>,
    keyed: &KeyedNetlist,
    key: &[Lit],
    inputs: &[bool],
) -> Vec<SigVal> {
    assert_eq!(key.len(), keyed.key_len(), "key literal width mismatch");
    let nl = keyed.netlist();
    assert_eq!(inputs.len(), nl.inputs().len(), "input width mismatch");
    let camo: HashMap<usize, &CamoGate> = keyed
        .camo_gates()
        .iter()
        .map(|g| (g.node.index(), g))
        .collect();
    let mut vals: Vec<SigVal> = Vec::with_capacity(nl.len());
    let mut next_input = 0usize;

    for (i, node) in nl.nodes().enumerate() {
        let v = if let Some(gate) = camo.get(&i) {
            SigVal::Sym(encode_camo_cell_fixed(enc, gate, key, &vals, &node.kind))
        } else {
            match node.kind {
                NodeKind::Input => {
                    let v = SigVal::Known(inputs[next_input]);
                    next_input += 1;
                    v
                }
                NodeKind::Const(c) => SigVal::Known(c),
                NodeKind::Gate1 { f, a } => match vals[a.index()] {
                    SigVal::Known(v) => SigVal::Known(f.eval(v)),
                    SigVal::Sym(l) => match f {
                        gshe_logic::Bf1::Buf => SigVal::Sym(l),
                        gshe_logic::Bf1::Inv => SigVal::Sym(!l),
                        gshe_logic::Bf1::Const0 => SigVal::Known(false),
                        gshe_logic::Bf1::Const1 => SigVal::Known(true),
                    },
                },
                NodeKind::Gate2 { f, a, b } => fold_gate2(enc, f, vals[a.index()], vals[b.index()]),
            }
        };
        vals.push(v);
    }
    nl.outputs().iter().map(|o| vals[o.index()]).collect()
}

fn fold_gate2<S: ClauseSink>(
    enc: &mut CircuitEncoder<'_, S>,
    f: gshe_logic::Bf2,
    a: SigVal,
    b: SigVal,
) -> SigVal {
    match (a, b) {
        (SigVal::Known(va), SigVal::Known(vb)) => SigVal::Known(f.eval(va, vb)),
        (SigVal::Known(va), SigVal::Sym(lb)) => {
            let f0 = f.eval(va, false);
            let f1 = f.eval(va, true);
            match (f0, f1) {
                (false, false) => SigVal::Known(false),
                (true, true) => SigVal::Known(true),
                (false, true) => SigVal::Sym(lb),
                (true, false) => SigVal::Sym(!lb),
            }
        }
        (SigVal::Sym(la), SigVal::Known(vb)) => {
            let f0 = f.eval(false, vb);
            let f1 = f.eval(true, vb);
            match (f0, f1) {
                (false, false) => SigVal::Known(false),
                (true, true) => SigVal::Known(true),
                (false, true) => SigVal::Sym(la),
                (true, false) => SigVal::Sym(!la),
            }
        }
        (SigVal::Sym(la), SigVal::Sym(lb)) => SigVal::Sym(enc.gate_tt(f.truth_table(), la, lb)),
    }
}

fn encode_camo_cell_fixed<S: ClauseSink>(
    enc: &mut CircuitEncoder<'_, S>,
    gate: &CamoGate,
    key: &[Lit],
    vals: &[SigVal],
    kind: &NodeKind,
) -> Lit {
    let z = enc.fresh();
    match (&gate.candidates, kind) {
        (Candidates::TwoInput(fs), NodeKind::Gate2 { a, b, .. }) => {
            let (va, vb) = (vals[a.index()], vals[b.index()]);
            for (i, f) in fs.iter().enumerate() {
                let sel = selector_negation(gate, i, key);
                match (va, vb) {
                    (SigVal::Known(ka), SigVal::Known(kb)) => {
                        let out = f.eval(ka, kb);
                        let mut clause = sel.clone();
                        clause.push(if out { z } else { !z });
                        enc.clause(&clause);
                    }
                    (SigVal::Known(ka), SigVal::Sym(lb)) => {
                        for wb in [false, true] {
                            let out = f.eval(ka, wb);
                            let mut clause = sel.clone();
                            clause.push(if wb { !lb } else { lb });
                            clause.push(if out { z } else { !z });
                            enc.clause(&clause);
                        }
                    }
                    (SigVal::Sym(la), SigVal::Known(kb)) => {
                        for wa in [false, true] {
                            let out = f.eval(wa, kb);
                            let mut clause = sel.clone();
                            clause.push(if wa { !la } else { la });
                            clause.push(if out { z } else { !z });
                            enc.clause(&clause);
                        }
                    }
                    (SigVal::Sym(la), SigVal::Sym(lb)) => {
                        for row in 0..4u8 {
                            let wa = row & 1 == 1;
                            let wb = row & 2 == 2;
                            let out = f.eval(wa, wb);
                            let mut clause = sel.clone();
                            clause.push(if wa { !la } else { la });
                            clause.push(if wb { !lb } else { lb });
                            clause.push(if out { z } else { !z });
                            enc.clause(&clause);
                        }
                    }
                }
            }
        }
        (Candidates::OneInput(fs), NodeKind::Gate1 { a, .. }) => {
            for (i, f) in fs.iter().enumerate() {
                let sel = selector_negation(gate, i, key);
                match vals[a.index()] {
                    SigVal::Known(ka) => {
                        let out = f.eval(ka);
                        let mut clause = sel.clone();
                        clause.push(if out { z } else { !z });
                        enc.clause(&clause);
                    }
                    SigVal::Sym(la) => {
                        for wa in [false, true] {
                            let out = f.eval(wa);
                            let mut clause = sel.clone();
                            clause.push(if wa { !la } else { la });
                            clause.push(if out { z } else { !z });
                            enc.clause(&clause);
                        }
                    }
                }
            }
        }
        (c, k) => unreachable!("camo cell shape mismatch: {c:?} at {k:?}"),
    }
    z
}

/// Asserts `outputs == expected`; a `Known` mismatch adds the empty clause
/// (the constraint set is contradictory — exactly what happens when a
/// stochastic oracle returns an output no key can explain).
///
/// # Panics
///
/// Panics on width mismatch.
pub fn assert_outputs_equal<S: ClauseSink>(
    enc: &mut CircuitEncoder<'_, S>,
    outputs: &[SigVal],
    expected: &[bool],
) {
    assert_eq!(outputs.len(), expected.len(), "output width mismatch");
    for (&o, &y) in outputs.iter().zip(expected) {
        match o {
            SigVal::Known(v) => {
                if v != y {
                    enc.clause(&[]);
                }
            }
            SigVal::Sym(l) => enc.assert(if y { l } else { !l }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::bench_format::{parse_bench, C17_BENCH};
    use gshe_logic::Netlist;
    use gshe_sat::{SolveResult, Solver};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keyed(scheme: CamoScheme) -> (Netlist, KeyedNetlist) {
        let nl = parse_bench(C17_BENCH).unwrap();
        let picks = select_gates(&nl, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(8);
        let k = camouflage(&nl, &picks, scheme, &mut rng).unwrap();
        (nl, k)
    }

    /// With the key literals forced to the correct key, the encoded circuit
    /// must agree with the original on every input pattern.
    fn check_encoding(scheme: CamoScheme) {
        let (nl, keyed) = keyed(scheme);
        let mut s = Solver::new();
        let key_lits: Vec<Lit> = (0..keyed.key_len())
            .map(|_| Lit::pos(s.new_var()))
            .collect();
        let copy = {
            let mut enc = CircuitEncoder::new(&mut s);
            assert_valid_key_codes(&mut enc, &keyed, &key_lits);
            encode_keyed(&mut enc, &keyed, &key_lits)
        };
        let correct = keyed.correct_key();
        for p in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
            let mut asm: Vec<Lit> = Vec::new();
            for (l, &bit) in key_lits.iter().zip(&correct) {
                asm.push(if bit { *l } else { !*l });
            }
            for (l, &bit) in copy.inputs.iter().zip(&v) {
                asm.push(if bit { *l } else { !*l });
            }
            assert_eq!(s.solve_with(&asm), SolveResult::Sat, "{scheme} p={p}");
            let got: Vec<bool> = copy.outputs.iter().map(|&o| s.model_lit(o)).collect();
            assert_eq!(got, nl.evaluate(&v), "{scheme} p={p}");
        }
    }

    #[test]
    fn symbolic_encoding_matches_original_under_correct_key() {
        for scheme in CamoScheme::ALL {
            check_encoding(scheme);
        }
    }

    #[test]
    fn fixed_encoding_matches_symbolic() {
        let (nl, keyed) = keyed(CamoScheme::GsheAll16);
        let correct = keyed.correct_key();
        for p in [0u32, 7, 21, 31] {
            let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
            let mut s = Solver::new();
            let key_lits: Vec<Lit> = (0..keyed.key_len())
                .map(|_| Lit::pos(s.new_var()))
                .collect();
            let outs = {
                let mut enc = CircuitEncoder::new(&mut s);
                assert_valid_key_codes(&mut enc, &keyed, &key_lits);
                encode_keyed_fixed(&mut enc, &keyed, &key_lits, &v)
            };
            let asm: Vec<Lit> = key_lits
                .iter()
                .zip(&correct)
                .map(|(l, &bit)| if bit { *l } else { !*l })
                .collect();
            assert_eq!(s.solve_with(&asm), SolveResult::Sat);
            let got: Vec<bool> = outs
                .iter()
                .map(|&o| match o {
                    SigVal::Known(v) => v,
                    SigVal::Sym(l) => s.model_lit(l),
                })
                .collect();
            assert_eq!(got, nl.evaluate(&v), "p={p}");
        }
    }

    #[test]
    fn io_constraint_prunes_wrong_keys() {
        let (nl, keyed) = keyed(CamoScheme::GsheAll16);
        let mut s = Solver::new();
        let key_lits: Vec<Lit> = (0..keyed.key_len())
            .map(|_| Lit::pos(s.new_var()))
            .collect();
        {
            let mut enc = CircuitEncoder::new(&mut s);
            assert_valid_key_codes(&mut enc, &keyed, &key_lits);
            // Constrain on the full truth table: only functionally correct
            // keys remain.
            for p in 0..32u32 {
                let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
                let y = nl.evaluate(&v);
                let outs = encode_keyed_fixed(&mut enc, &keyed, &key_lits, &v);
                assert_outputs_equal(&mut enc, &outs, &y);
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let key: Vec<bool> = key_lits.iter().map(|&l| s.model_lit(l)).collect();
        let resolved = keyed.resolve(&key).unwrap();
        for p in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
            assert_eq!(
                resolved.evaluate(&v),
                nl.evaluate(&v),
                "recovered key wrong at {p}"
            );
        }
    }

    #[test]
    fn contradictory_io_makes_unsat() {
        let (nl, keyed) = keyed(CamoScheme::GsheAll16);
        let mut s = Solver::new();
        let key_lits: Vec<Lit> = (0..keyed.key_len())
            .map(|_| Lit::pos(s.new_var()))
            .collect();
        {
            let mut enc = CircuitEncoder::new(&mut s);
            assert_valid_key_codes(&mut enc, &keyed, &key_lits);
            let v = vec![false; 5];
            let y = nl.evaluate(&v);
            let flipped: Vec<bool> = y.iter().map(|&b| !b).collect();
            let outs = encode_keyed_fixed(&mut enc, &keyed, &key_lits, &v);
            assert_outputs_equal(&mut enc, &outs, &y);
            let outs2 = encode_keyed_fixed(&mut enc, &keyed, &key_lits, &v);
            assert_outputs_equal(&mut enc, &outs2, &flipped);
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }
}
