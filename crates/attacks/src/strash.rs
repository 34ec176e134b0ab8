//! Structural hashing of netlists into one shared signal space, and the
//! equivalence miter built on it.
//!
//! Every gate is rewritten into one of two canonical node kinds — an AND
//! of two possibly-complemented signals, or an XOR of two regular
//! signals — with the complements carried on the edges (Kuehlmann et al.,
//! "Robust Boolean reasoning for equivalence checking", 2002). Constants
//! fold, fanins are put in a fixed order, and a gate whose output is the
//! complement of an existing node reuses that node through a complemented
//! edge. Two netlists hashed into the same [`Strash`] with their primary
//! inputs matched by position therefore share every structurally
//! identical signal: a recovered key that restores the defender's
//! structure makes each output pair collide, and the equivalence proof
//! needs no solver at all.
//!
//! Two local two-level rules (Brummayer & Biere, "Local two-level
//! And-Inverter Graph minimization without blowup", 2006) recognise the
//! 4-NAND XOR tree the camouflaging transform emits for XOR/XNOR gates, so
//! decomposed cells hash onto the XOR node they replaced.
//!
//! When some output pairs still differ, [`miter`] emits Tseitin clauses
//! for exactly the hash nodes in those pairs' fanin cones and settles them
//! with one solve. Shared logic is encoded once, not once per netlist.

use gshe_logic::{Bf1, Bf2, Netlist, NodeId, NodeKind};
use gshe_sat::solver::Budget;
use gshe_sat::{CircuitEncoder, Lit, SolveResult, Solver};
use std::collections::HashMap;
use std::time::Instant;

/// Conflicts per deadline check when a miter solve is bounded.
const SLICE_CONFLICTS: u64 = 20_000;

/// A signal: a hash-node index with a complement bit in the low bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Sig(u32);

impl Sig {
    /// Node 0 is the constant-false node.
    const FALSE: Sig = Sig(0);
    const TRUE: Sig = Sig(1);

    fn new(node: usize, complemented: bool) -> Sig {
        Sig((node as u32) << 1 | complemented as u32)
    }

    fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    fn regular(self) -> Sig {
        Sig(self.0 & !1)
    }

    fn xor_if(self, c: bool) -> Sig {
        Sig(self.0 ^ c as u32)
    }
}

impl std::ops::Not for Sig {
    type Output = Sig;
    fn not(self) -> Sig {
        Sig(self.0 ^ 1)
    }
}

/// A hash node. Node indices are topological: fanins precede fanouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HashNode {
    Const,
    /// Primary input by position.
    Input(usize),
    /// `a ∧ b` with `a < b`.
    And(Sig, Sig),
    /// `a ⊕ b` with regular `a < b`.
    Xor(Sig, Sig),
}

/// A structurally hashed signal space shared by any number of netlists
/// over the same primary inputs.
#[derive(Debug, Default)]
struct Strash {
    nodes: Vec<HashNode>,
    ands: HashMap<(Sig, Sig), u32>,
    xors: HashMap<(Sig, Sig), u32>,
}

impl Strash {
    /// An empty space over `inputs` primary inputs.
    fn new(inputs: usize) -> Strash {
        let mut nodes = Vec::with_capacity(inputs + 1);
        nodes.push(HashNode::Const);
        nodes.extend((0..inputs).map(HashNode::Input));
        Strash {
            nodes,
            ..Strash::default()
        }
    }

    /// Number of hash nodes (constant and inputs included).
    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn input(k: usize) -> Sig {
        Sig::new(k + 1, false)
    }

    fn fanins(&self, node: usize) -> Option<(Sig, Sig)> {
        match self.nodes[node] {
            HashNode::And(a, b) | HashNode::Xor(a, b) => Some((a, b)),
            HashNode::Const | HashNode::Input(_) => None,
        }
    }

    /// The fanins of `s` when it is a *complemented* AND node.
    fn nand_fanins(&self, s: Sig) -> Option<(Sig, Sig)> {
        match self.nodes[s.node()] {
            HashNode::And(p, q) if s.is_complemented() => Some((p, q)),
            _ => None,
        }
    }

    /// `a ∧ b`.
    fn and(&mut self, a: Sig, b: Sig) -> Sig {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if a == Sig::FALSE || a == !b {
            return Sig::FALSE;
        }
        if a == Sig::TRUE || a == b {
            return b;
        }
        // Substitution: x ∧ ¬(x ∧ q) = x ∧ ¬q, and subsumption:
        // x ∧ ¬(¬x ∧ q) = x.
        for (x, y) in [(a, b), (b, a)] {
            if let Some((p, q)) = self.nand_fanins(y) {
                for (p, q) in [(p, q), (q, p)] {
                    if x == p {
                        return self.and(x, !q);
                    }
                    if x == !p {
                        return x;
                    }
                }
            }
        }
        // XOR: ¬(p ∧ q) ∧ ¬(¬p ∧ ¬q) = p ⊕ q.
        if let (Some((p, q)), Some((r, s))) = (self.nand_fanins(a), self.nand_fanins(b)) {
            let (np, nq) = if !p <= !q { (!p, !q) } else { (!q, !p) };
            if (r, s) == (np, nq) {
                return self.xor(p, q);
            }
        }
        let next = self.nodes.len() as u32;
        let node = *self.ands.entry((a, b)).or_insert(next);
        if node == next {
            self.nodes.push(HashNode::And(a, b));
        }
        Sig::new(node as usize, false)
    }

    /// `a ⊕ b`.
    fn xor(&mut self, a: Sig, b: Sig) -> Sig {
        let c = a.is_complemented() != b.is_complemented();
        let (a, b) = (a.regular(), b.regular());
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if a == b {
            return Sig::FALSE.xor_if(c);
        }
        if a == Sig::FALSE {
            return b.xor_if(c);
        }
        let next = self.nodes.len() as u32;
        let node = *self.xors.entry((a, b)).or_insert(next);
        if node == next {
            self.nodes.push(HashNode::Xor(a, b));
        }
        Sig::new(node as usize, c)
    }

    /// A two-input gate of function `f`.
    fn gate2(&mut self, f: Bf2, a: Sig, b: Sig) -> Sig {
        let tt = f.truth_table();
        let on_a = (tt ^ (tt >> 1)) & 0b0101 != 0;
        let on_b = (tt ^ (tt >> 2)) & 0b0011 != 0;
        let at_zero = tt & 1 == 1;
        match (on_a, on_b) {
            (false, false) => Sig::FALSE.xor_if(at_zero),
            (true, false) => a.xor_if(at_zero),
            (false, true) => b.xor_if(at_zero),
            (true, true) => match tt.count_ones() {
                2 => self.xor(a, b).xor_if(at_zero),
                // One minterm (an AND of literals) or one maxterm (its
                // complement): row `r` is that odd-one-out row.
                ones => {
                    let odd = if ones == 1 { tt } else { !tt & 0xF };
                    let r = odd.trailing_zeros();
                    let and = self.and(a.xor_if(r & 1 == 0), b.xor_if(r & 2 == 0));
                    and.xor_if(ones == 3)
                }
            },
        }
    }

    /// Hashes every node of `nl` (inputs matched by position; `nl` has
    /// the space's input count) and returns the signals of its primary
    /// outputs.
    fn add(&mut self, nl: &Netlist) -> Vec<Sig> {
        let mut sig = vec![Sig::FALSE; nl.len()];
        for (k, &i) in nl.inputs().iter().enumerate() {
            sig[i.index()] = Strash::input(k);
        }
        for i in 0..nl.len() {
            sig[i] = match nl.kind(NodeId(i as u32)) {
                NodeKind::Input => sig[i],
                NodeKind::Const(c) => Sig::FALSE.xor_if(c),
                NodeKind::Gate1 { f, a } => {
                    let a = sig[a.index()];
                    match f {
                        Bf1::Buf => a,
                        Bf1::Inv => !a,
                        Bf1::Const0 => Sig::FALSE,
                        Bf1::Const1 => Sig::TRUE,
                    }
                }
                NodeKind::Gate2 { f, a, b } => self.gate2(f, sig[a.index()], sig[b.index()]),
            };
        }
        nl.outputs().iter().map(|o| sig[o.index()]).collect()
    }
}

/// How a miter was settled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Proof {
    /// Every output pair hashed to the same signal; no solver was built.
    Hashed,
    /// The solver proved the differing output pairs equal.
    Unsat,
    /// The solver found primary-input values (by position) on which the
    /// two netlists' outputs differ.
    Counterexample(Vec<bool>),
}

impl Proof {
    /// `true` when the netlists are equivalent.
    pub(crate) fn equivalent(&self) -> bool {
        !matches!(self, Proof::Counterexample(_))
    }
}

/// Decides whether `a` and `b` compute the same outputs from the same
/// inputs (matched by position). Returns `None` when `deadline` passes
/// before the solver settles the question; `None` for `deadline` never
/// times out.
///
/// # Panics
///
/// Panics if the interfaces differ in width.
pub(crate) fn miter(a: &Netlist, b: &Netlist, deadline: Option<Instant>) -> Option<Proof> {
    assert_eq!(a.inputs().len(), b.inputs().len(), "interface mismatch");
    assert_eq!(a.outputs().len(), b.outputs().len(), "interface mismatch");
    let mut strash = Strash::new(a.inputs().len());
    let out_a = strash.add(a);
    let out_b = strash.add(b);
    let pairs: Vec<(Sig, Sig)> = out_a
        .into_iter()
        .zip(out_b)
        .filter(|(x, y)| x != y)
        .collect();
    if pairs.is_empty() {
        return Some(Proof::Hashed);
    }

    // Mark the fanin cones of the differing pairs; node order is
    // topological, so one descending sweep closes them.
    let mut need = vec![false; strash.len()];
    for &(x, y) in &pairs {
        need[x.node()] = true;
        need[y.node()] = true;
    }
    for n in (0..strash.len()).rev() {
        if need[n] {
            if let Some((p, q)) = strash.fanins(n) {
                need[p.node()] = true;
                need[q.node()] = true;
            }
        }
    }

    let mut solver = Solver::new();
    let mut inputs: Vec<(usize, Lit)> = Vec::new();
    let diff = {
        let mut enc = CircuitEncoder::new(&mut solver);
        let mut lits: Vec<Option<Lit>> = vec![None; strash.len()];
        let lit = |lits: &[Option<Lit>], s: Sig| {
            let l = lits[s.node()].expect("fanins are encoded first");
            if s.is_complemented() {
                !l
            } else {
                l
            }
        };
        for n in (0..strash.len()).filter(|&n| need[n]) {
            lits[n] = Some(match strash.nodes[n] {
                HashNode::Const => enc.constant(false),
                HashNode::Input(k) => {
                    let l = enc.fresh();
                    inputs.push((k, l));
                    l
                }
                HashNode::And(p, q) => enc.and(lit(&lits, p), lit(&lits, q)),
                HashNode::Xor(p, q) => enc.xor(lit(&lits, p), lit(&lits, q)),
            });
        }
        let left: Vec<Lit> = pairs.iter().map(|&(x, _)| lit(&lits, x)).collect();
        let right: Vec<Lit> = pairs.iter().map(|&(_, y)| lit(&lits, y)).collect();
        enc.miter(&left, &right)
    };
    solver.add_clause(&[diff]);

    let result = match deadline {
        None => solver.solve(),
        Some(deadline) => loop {
            if Instant::now() >= deadline {
                return None;
            }
            solver.set_budget(Budget {
                max_conflicts: Some(SLICE_CONFLICTS),
                max_vars: None,
            });
            match solver.solve() {
                SolveResult::Unknown => continue,
                done => break done,
            }
        },
    };
    match result {
        SolveResult::Unsat => Some(Proof::Unsat),
        SolveResult::Sat => {
            let mut cex = vec![false; a.inputs().len()];
            for &(k, l) in &inputs {
                cex[k] = solver.model_lit(l);
            }
            debug_assert_ne!(
                a.evaluate(&cex),
                b.evaluate(&cex),
                "miter model is not a counterexample"
            );
            Some(Proof::Counterexample(cex))
        }
        SolveResult::Unknown => unreachable!("an unbounded solve always settles"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every two-input function over two distinct inputs hashes to a
    /// signal that evaluates to the function.
    #[test]
    fn gate_translation_matches_truth_tables() {
        for f in Bf2::ALL {
            let mut s = Strash::new(2);
            let (a, b) = (Strash::input(0), Strash::input(1));
            let z = s.gate2(f, a, b);
            for row in 0..4u8 {
                let (va, vb) = (row & 1 == 1, row & 2 == 2);
                assert_eq!(eval(&s, z, &[va, vb]), f.eval(va, vb), "{f} row {row}");
            }
        }
    }

    /// A complemented gate behind an inverter is the gate itself.
    #[test]
    fn complements_fold_onto_one_node() {
        let mut s = Strash::new(2);
        let (a, b) = (Strash::input(0), Strash::input(1));
        let and = s.gate2(Bf2::AND, a, b);
        let nand = s.gate2(Bf2::NAND, b, a);
        assert_eq!(and, !nand);
        assert_eq!(s.gate2(Bf2::OR, a, b), !s.gate2(Bf2::NOR, a, b));
        assert_eq!(s.len(), 5, "two AND nodes serve all four gates");
    }

    /// The camouflaging transform's 4-NAND XOR tree hashes onto XOR.
    #[test]
    fn nand_tree_is_xor() {
        let mut s = Strash::new(2);
        let (a, b) = (Strash::input(0), Strash::input(1));
        let t1 = s.gate2(Bf2::NAND, a, b);
        let t2 = s.gate2(Bf2::NAND, a, t1);
        let t3 = s.gate2(Bf2::NAND, b, t1);
        let out = s.gate2(Bf2::NAND, t2, t3);
        assert_eq!(out, s.gate2(Bf2::XOR, a, b));
    }

    fn eval(s: &Strash, z: Sig, inputs: &[bool]) -> bool {
        let v = match s.nodes[z.node()] {
            HashNode::Const => false,
            HashNode::Input(k) => inputs[k],
            HashNode::And(p, q) => eval(s, p, inputs) && eval(s, q, inputs),
            HashNode::Xor(p, q) => eval(s, p, inputs) != eval(s, q, inputs),
        };
        v != z.is_complemented()
    }
}
