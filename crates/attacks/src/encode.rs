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

use crate::coi::key_dependent;
use gshe_camo::{CamoGate, Candidates, KeyedNetlist};
use gshe_logic::{NodeId, NodeKind};
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

/// Cloaked cells by node index.
fn camo_index(keyed: &KeyedNetlist) -> HashMap<usize, &CamoGate> {
    keyed
        .camo_gates()
        .iter()
        .map(|g| (g.node.index(), g))
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
    let (inputs, mut outputs) = encode_copies(enc, keyed, &[key]);
    EncodedCopy {
        inputs,
        outputs: outputs.pop().expect("one copy per key"),
    }
}

/// Encodes one symbolic copy of the keyed circuit per key in `keys`, all
/// over one set of fresh input literals. Copy 0 is encoded in full; every
/// later copy re-encodes only the key-dependent nodes (the cloaked cells
/// and their transitive fanout) and reuses copy 0's literal everywhere
/// else, so an output no cloaked cell reaches carries the same literal in
/// every copy. Returns the input literals and each copy's output literals.
///
/// # Panics
///
/// Panics if `keys` is empty or a key's width differs from
/// `keyed.key_len()`.
pub(crate) fn encode_copies<S: ClauseSink, K: AsRef<[Lit]>>(
    enc: &mut CircuitEncoder<'_, S>,
    keyed: &KeyedNetlist,
    keys: &[K],
) -> (Vec<Lit>, Vec<Vec<Lit>>) {
    for key in keys {
        assert_eq!(
            key.as_ref().len(),
            keyed.key_len(),
            "key literal width mismatch"
        );
    }
    let nl = keyed.netlist();
    let camo = camo_index(keyed);
    let output_lits =
        |lits: &[Lit]| -> Vec<Lit> { nl.outputs().iter().map(|o| lits[o.index()]).collect() };

    let key0 = keys.first().expect("at least one key copy").as_ref();
    let mut base: Vec<Lit> = Vec::with_capacity(nl.len());
    let mut inputs = Vec::new();
    for (i, node) in nl.nodes().enumerate() {
        let z = match (camo.get(&i), node.kind) {
            (None, NodeKind::Input) => {
                let l = enc.fresh();
                inputs.push(l);
                l
            }
            (gate, kind) => encode_node(enc, gate.copied(), kind, key0, &base),
        };
        base.push(z);
    }
    let mut outputs = vec![output_lits(&base)];

    if keys.len() > 1 {
        let dependent: Vec<usize> = key_dependent(keyed)
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| d.then_some(i))
            .collect();
        for key in &keys[1..] {
            let mut lits = base.clone();
            for &i in &dependent {
                let kind = nl.kind(NodeId(i as u32));
                lits[i] = encode_node(enc, camo.get(&i).copied(), kind, key.as_ref(), &lits);
            }
            outputs.push(output_lits(&lits));
        }
    }
    (inputs, outputs)
}

/// Encodes one non-input node over the fanin literals `lits` (a cloaked
/// cell under `key` when `gate` is set).
fn encode_node<S: ClauseSink>(
    enc: &mut CircuitEncoder<'_, S>,
    gate: Option<&CamoGate>,
    kind: NodeKind,
    key: &[Lit],
    lits: &[Lit],
) -> Lit {
    if let Some(gate) = gate {
        return encode_camo_cell(enc, gate, key, &kind, |n| SigVal::Sym(lits[n.index()]));
    }
    match kind {
        NodeKind::Input => unreachable!("inputs are allocated by the caller"),
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
    let camo = camo_index(keyed);
    let mut vals: Vec<SigVal> = Vec::with_capacity(nl.len());
    let mut next_input = 0usize;

    for (i, node) in nl.nodes().enumerate() {
        let v = if let Some(gate) = camo.get(&i) {
            SigVal::Sym(encode_camo_cell(enc, gate, key, &node.kind, |n| {
                vals[n.index()]
            }))
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
                    SigVal::Sym(l) => fold_unary(f.eval(false), f.eval(true), l),
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
        (SigVal::Known(va), SigVal::Sym(lb)) => fold_unary(f.eval(va, false), f.eval(va, true), lb),
        (SigVal::Sym(la), SigVal::Known(vb)) => fold_unary(f.eval(false, vb), f.eval(true, vb), la),
        (SigVal::Sym(la), SigVal::Sym(lb)) => SigVal::Sym(enc.gate_tt(f.truth_table(), la, lb)),
    }
}

/// `g(x)` for a symbolic `x`, given `g(false)` and `g(true)`.
fn fold_unary(g0: bool, g1: bool, x: Lit) -> SigVal {
    match (g0, g1) {
        (false, true) => SigVal::Sym(x),
        (true, false) => SigVal::Sym(!x),
        (c, _) => SigVal::Known(c),
    }
}

/// Encodes a cloaked cell over its fanin signals: for every candidate
/// `i` and every row of fanin values the signals allow (a constant fanin
/// allows one value, a symbolic one both), the clause
/// `(K ≠ i) ∨ (fanins ≠ row) ∨ (z = fᵢ(row))`.
fn encode_camo_cell<S: ClauseSink>(
    enc: &mut CircuitEncoder<'_, S>,
    gate: &CamoGate,
    key: &[Lit],
    kind: &NodeKind,
    signal: impl Fn(NodeId) -> SigVal,
) -> Lit {
    let fanins: Vec<SigVal> = match (&gate.candidates, kind) {
        (Candidates::TwoInput(_), NodeKind::Gate2 { a, b, .. }) => vec![signal(*a), signal(*b)],
        (Candidates::OneInput(_), NodeKind::Gate1 { a, .. }) => vec![signal(*a)],
        (c, k) => unreachable!("camo cell shape mismatch: {c:?} at {k:?}"),
    };
    let z = enc.fresh();
    let mut clause = Vec::new();
    for i in 0..gate.candidates.len() {
        let sel = selector_negation(gate, i, key);
        // Bit j of `row` is fanin j's value.
        for row in 0..1u8 << fanins.len() {
            let bit = |j: usize| (row >> j) & 1 == 1;
            clause.clear();
            clause.extend_from_slice(&sel);
            let mut allowed = true;
            for (j, &v) in fanins.iter().enumerate() {
                match v {
                    SigVal::Known(k) => allowed &= k == bit(j),
                    SigVal::Sym(l) => clause.push(if bit(j) { !l } else { l }),
                }
            }
            if !allowed {
                continue;
            }
            let out = match &gate.candidates {
                Candidates::TwoInput(fs) => fs[i].eval(bit(0), bit(1)),
                Candidates::OneInput(fs) => fs[i].eval(bit(0)),
            };
            clause.push(if out { z } else { !z });
            enc.clause(&clause);
        }
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

    fn keyed(scheme: CamoScheme, fraction: f64) -> (Netlist, KeyedNetlist) {
        let nl = parse_bench(C17_BENCH).unwrap();
        let picks = select_gates(&nl, fraction, 3);
        let mut rng = StdRng::seed_from_u64(8);
        let k = camouflage(&nl, &picks, scheme, &mut rng).unwrap();
        (nl, k)
    }

    /// With every copy's key literals forced to the correct key, every copy
    /// must agree with the original on every input pattern.
    fn check_encoding(scheme: CamoScheme, copies: usize, fraction: f64) {
        let (nl, keyed) = keyed(scheme, fraction);
        let mut s = Solver::new();
        let keys: Vec<Vec<Lit>> = (0..copies)
            .map(|_| {
                (0..keyed.key_len())
                    .map(|_| Lit::pos(s.new_var()))
                    .collect()
            })
            .collect();
        let (inputs, outputs) = {
            let mut enc = CircuitEncoder::new(&mut s);
            for key in &keys {
                assert_valid_key_codes(&mut enc, &keyed, key);
            }
            encode_copies(&mut enc, &keyed, &keys)
        };
        assert_eq!(outputs.len(), copies);
        let correct = keyed.correct_key();
        for p in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
            let mut asm: Vec<Lit> = Vec::new();
            for key in &keys {
                for (l, &bit) in key.iter().zip(&correct) {
                    asm.push(if bit { *l } else { !*l });
                }
            }
            for (l, &bit) in inputs.iter().zip(&v) {
                asm.push(if bit { *l } else { !*l });
            }
            assert_eq!(s.solve_with(&asm), SolveResult::Sat, "{scheme} p={p}");
            for (c, outs) in outputs.iter().enumerate() {
                let got: Vec<bool> = outs.iter().map(|&o| s.model_lit(o)).collect();
                assert_eq!(got, nl.evaluate(&v), "{scheme} copy {c} p={p}");
            }
        }
    }

    #[test]
    fn symbolic_encoding_matches_original_under_correct_key() {
        for scheme in CamoScheme::ALL {
            // Several copies over a partial selection share the logic
            // outside the cloaked cells' fanout.
            for (copies, fraction) in [(1, 1.0), (4, 0.5)] {
                check_encoding(scheme, copies, fraction);
            }
        }
    }

    /// A later copy allocates one variable per key-dependent cloaked cell
    /// or two-input gate and nothing else, and shares copy 0's literal on
    /// every output no cloaked cell reaches.
    #[test]
    fn later_copies_allocate_only_key_dependent_nodes() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let mut shared_outputs = 0;
        for seed in 0..8 {
            let picks = select_gates(&nl, 0.2, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
            let dependent = key_dependent(&keyed);
            let knl = keyed.netlist();
            let fresh_per_copy = (0..knl.len())
                .filter(|&i| {
                    dependent[i]
                        && (keyed.camo_gates().iter().any(|g| g.node.index() == i)
                            || matches!(knl.kind(NodeId(i as u32)), NodeKind::Gate2 { .. }))
                })
                .count();
            let vars_for = |copies: usize| {
                let mut s = Solver::new();
                let keys: Vec<Vec<Lit>> = (0..copies)
                    .map(|_| {
                        (0..keyed.key_len())
                            .map(|_| Lit::pos(s.new_var()))
                            .collect()
                    })
                    .collect();
                let before = s.num_vars();
                let (_, outputs) = encode_copies(&mut CircuitEncoder::new(&mut s), &keyed, &keys);
                (s.num_vars() - before, outputs)
            };
            let (one, _) = vars_for(1);
            let (three, outputs) = vars_for(3);
            assert_eq!(three, one + 2 * fresh_per_copy, "seed {seed}");
            for (k, o) in knl.outputs().iter().enumerate() {
                let same = outputs.iter().all(|c| c[k] == outputs[0][k]);
                assert_eq!(same, !dependent[o.index()], "seed {seed} output {k}");
                shared_outputs += same as usize;
            }
        }
        assert!(
            shared_outputs > 0,
            "no selection left an output key-independent"
        );
    }

    #[test]
    fn fixed_encoding_matches_symbolic() {
        let (nl, keyed) = keyed(CamoScheme::GsheAll16, 1.0);
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
        let (nl, keyed) = keyed(CamoScheme::GsheAll16, 1.0);
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
        let (nl, keyed) = keyed(CamoScheme::GsheAll16, 1.0);
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
