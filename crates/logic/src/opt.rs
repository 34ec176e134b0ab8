//! Netlist cleanup passes: constant folding, buffer-chain collapsing, and
//! dead-logic sweeping.
//!
//! Camouflaging transforms (complement rule, XOR decomposition) insert
//! visible inverters and helper gates; resolving a keyed design can leave
//! constants and pass-through cells behind. [`optimize`] normalizes such
//! netlists while provably preserving their function (tested by random
//! simulation and, in the integration suite, by SAT equivalence).

use crate::bf2::{Bf1, Bf2};
use crate::builder::NetlistBuilder;
use crate::netlist::{Netlist, NodeId, NodeKind};

/// What a signal is known to be during folding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// Known constant.
    Const(bool),
    /// Equal to another (already emitted) node, possibly inverted.
    Alias { node: NodeId, inverted: bool },
}

/// Statistics of one optimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptReport {
    /// Gates whose output folded to a constant.
    pub folded_constants: usize,
    /// Buffer/inverter (or degenerate two-input) gates collapsed to
    /// aliases of their fanin.
    pub collapsed: usize,
    /// Gates removed because nothing reachable from an output used them.
    pub swept_dead: usize,
}

/// Optimizes `nl`: folds constants through the cone, collapses
/// buffers/inverters and degenerate two-input gates into wire aliases, and
/// sweeps unreachable logic. The primary-input and primary-output
/// interfaces are preserved exactly (an output that folds to a constant is
/// re-materialized as a constant driver).
pub fn optimize(nl: &Netlist) -> (Netlist, OptReport) {
    let mut report = OptReport::default();
    let mut b = NetlistBuilder::new(nl.name().to_string());

    // Reachability: which nodes feed an output.
    let mut live = vec![false; nl.len()];
    let mut stack: Vec<NodeId> = nl.outputs().to_vec();
    while let Some(id) = stack.pop() {
        if live[id.index()] {
            continue;
        }
        live[id.index()] = true;
        stack.extend(nl.node(id).kind.fanins());
    }

    // Forward pass with folding. `folds[i]` describes node i in terms of
    // the *new* netlist; `emitted[i]` is its id when it needed a real node.
    let mut folds: Vec<Option<Fold>> = vec![None; nl.len()];
    let mut emitted: Vec<Option<NodeId>> = vec![None; nl.len()];

    // Resolve an old node to (new node, inverted, const).
    let resolve = |folds: &[Option<Fold>],
                   emitted: &[Option<NodeId>],
                   id: NodeId|
     -> Result<(NodeId, bool), bool> {
        match folds[id.index()] {
            Some(Fold::Const(c)) => Err(c),
            Some(Fold::Alias { node, inverted }) => Ok((node, inverted)),
            None => Ok((emitted[id.index()].expect("live fanin emitted"), false)),
        }
    };

    for (i, node) in nl.nodes().enumerate() {
        if !live[i] {
            report.swept_dead += node.kind.is_gate() as usize;
            continue;
        }
        match node.kind {
            NodeKind::Input => {
                emitted[i] = Some(b.input(node.name));
            }
            NodeKind::Const(c) => {
                folds[i] = Some(Fold::Const(c));
            }
            NodeKind::Gate1 { f, a } => match (f, resolve(&folds, &emitted, a)) {
                (Bf1::Const0, _) => {
                    folds[i] = Some(Fold::Const(false));
                    report.folded_constants += 1;
                }
                (Bf1::Const1, _) => {
                    folds[i] = Some(Fold::Const(true));
                    report.folded_constants += 1;
                }
                (g, Err(c)) => {
                    folds[i] = Some(Fold::Const(g.eval(c)));
                    report.folded_constants += 1;
                }
                (Bf1::Buf, Ok((n, inv))) => {
                    folds[i] = Some(Fold::Alias {
                        node: n,
                        inverted: inv,
                    });
                    report.collapsed += 1;
                }
                (Bf1::Inv, Ok((n, inv))) => {
                    folds[i] = Some(Fold::Alias {
                        node: n,
                        inverted: !inv,
                    });
                    report.collapsed += 1;
                }
            },
            NodeKind::Gate2 { f, a, b: bb } => {
                let ra = resolve(&folds, &emitted, a);
                let rb = resolve(&folds, &emitted, bb);
                // Absorb alias inversions into the function table.
                let (fa, ca) = match ra {
                    Err(c) => (None, Some(c)),
                    Ok((n, inv)) => (Some((n, inv)), None),
                };
                let (fb, cb) = match rb {
                    Err(c) => (None, Some(c)),
                    Ok((n, inv)) => (Some((n, inv)), None),
                };
                let mut g = f;
                if let Some((_, true)) = fa {
                    g = g.negate_a();
                }
                if let Some((_, true)) = fb {
                    g = g.negate_b();
                }
                match (fa, ca, fb, cb) {
                    (None, Some(va), None, Some(vb)) => {
                        folds[i] = Some(Fold::Const(g.eval(va, vb)));
                        report.folded_constants += 1;
                    }
                    (None, Some(va), Some((nb, _)), None) => {
                        let f0 = g.eval(va, false);
                        let f1 = g.eval(va, true);
                        folds[i] = Some(partial(f0, f1, nb, &mut report));
                    }
                    (Some((na, _)), None, None, Some(vb)) => {
                        let f0 = g.eval(false, vb);
                        let f1 = g.eval(true, vb);
                        folds[i] = Some(partial(f0, f1, na, &mut report));
                    }
                    (Some((na, _)), None, Some((nb, _)), None) => {
                        if g.is_constant() {
                            folds[i] = Some(Fold::Const(g == Bf2::TRUE));
                            report.folded_constants += 1;
                        } else if na == nb {
                            // Both operands are the same signal: the gate
                            // degenerates to its diagonal g(v, v).
                            folds[i] = Some(partial(
                                g.eval(false, false),
                                g.eval(true, true),
                                na,
                                &mut report,
                            ));
                        } else if g.ignores_b() {
                            folds[i] = Some(partial(
                                g.eval(false, false),
                                g.eval(true, false),
                                na,
                                &mut report,
                            ));
                        } else if g.ignores_a() {
                            folds[i] = Some(partial(
                                g.eval(false, false),
                                g.eval(false, true),
                                nb,
                                &mut report,
                            ));
                        } else {
                            emitted[i] = Some(b.gate2(node.name, g, na, nb));
                        }
                    }
                    _ => unreachable!("each operand is exactly const or alias"),
                }
            }
        }
    }

    // Re-materialize outputs.
    for &o in nl.outputs() {
        let id = match folds[o.index()] {
            Some(Fold::Const(c)) => b.constant(c),
            Some(Fold::Alias {
                node,
                inverted: false,
            }) => node,
            Some(Fold::Alias {
                node,
                inverted: true,
            }) => b.gate1_auto(Bf1::Inv, node),
            None => emitted[o.index()].expect("live output emitted"),
        };
        b.output(id);
    }
    (b.finish().expect("optimizer preserves invariants"), report)
}

/// [`optimize`] for keyed/camouflaged designs: nodes listed in `protected`
/// are emitted **verbatim** — same kind and arity, same fanin structure —
/// and are never folded, aliased away, or swept. A protected node's
/// *visible* function is not trusted (a camouflaged cell may realize any
/// candidate function at attack time), so the rewrite must preserve the
/// design's function under *every* substitution of the protected nodes'
/// functions, not just the visible one. Concretely:
///
/// - a protected gate's fanins are materialized as real nodes: alias
///   inversions become explicit inverters instead of being absorbed into
///   the gate's function table, and constant fanins become constant
///   drivers;
/// - folding never looks *through* a protected node's output (it is a
///   real emitted node, never a `Fold`);
/// - protected nodes are liveness roots alongside the primary outputs.
///
/// The primary-input and primary-output interfaces are preserved exactly
/// and in order (every input is re-emitted even if unused). Returns the
/// optimized netlist, the run statistics, and an old-id → new-id map
/// (`Some` for every node that survives as a real node; protected nodes
/// always do).
pub fn optimize_protected(
    nl: &Netlist,
    protected: &[NodeId],
) -> (Netlist, OptReport, Vec<Option<NodeId>>) {
    let mut report = OptReport::default();
    let mut b = NetlistBuilder::new(nl.name().to_string());
    let mut is_protected = vec![false; nl.len()];
    for &p in protected {
        is_protected[p.index()] = true;
    }

    // Reachability from the outputs *and* the protected nodes.
    let mut live = vec![false; nl.len()];
    let mut stack: Vec<NodeId> = nl.outputs().to_vec();
    stack.extend_from_slice(protected);
    while let Some(id) = stack.pop() {
        if live[id.index()] {
            continue;
        }
        live[id.index()] = true;
        stack.extend(nl.node(id).kind.fanins());
    }

    let mut folds: Vec<Option<Fold>> = vec![None; nl.len()];
    let mut emitted: Vec<Option<NodeId>> = vec![None; nl.len()];
    // Materialization caches so a shared inverted alias or constant fanin
    // of several protected gates is built once.
    let mut inv_of: Vec<Option<NodeId>> = Vec::new();
    let mut const_of: [Option<NodeId>; 2] = [None, None];

    let resolve = |folds: &[Option<Fold>],
                   emitted: &[Option<NodeId>],
                   id: NodeId|
     -> Result<(NodeId, bool), bool> {
        match folds[id.index()] {
            Some(Fold::Const(c)) => Err(c),
            Some(Fold::Alias { node, inverted }) => Ok((node, inverted)),
            None => Ok((emitted[id.index()].expect("live fanin emitted"), false)),
        }
    };
    // Resolve an old fanin of a *protected* gate to a concrete new node,
    // materializing what plain folding would have absorbed.
    fn concrete(
        b: &mut NetlistBuilder,
        inv_of: &mut Vec<Option<NodeId>>,
        const_of: &mut [Option<NodeId>; 2],
        r: Result<(NodeId, bool), bool>,
    ) -> NodeId {
        match r {
            Err(c) => *const_of[c as usize].get_or_insert_with(|| b.constant(c)),
            Ok((n, false)) => n,
            Ok((n, true)) => {
                if inv_of.len() <= n.index() {
                    inv_of.resize(n.index() + 1, None);
                }
                *inv_of[n.index()].get_or_insert_with(|| b.gate1_auto(Bf1::Inv, n))
            }
        }
    }

    for (i, node) in nl.nodes().enumerate() {
        if let NodeKind::Input = node.kind {
            // Interface invariant: every input survives, in order.
            emitted[i] = Some(b.input(node.name));
            continue;
        }
        if !live[i] {
            report.swept_dead += node.kind.is_gate() as usize;
            continue;
        }
        if is_protected[i] {
            let id = match node.kind {
                NodeKind::Input => unreachable!("inputs handled above"),
                NodeKind::Const(c) => b.constant(c),
                NodeKind::Gate1 { f, a } => {
                    let ra = resolve(&folds, &emitted, a);
                    let na = concrete(&mut b, &mut inv_of, &mut const_of, ra);
                    b.gate1(node.name, f, na)
                }
                NodeKind::Gate2 { f, a, b: bb } => {
                    let ra = resolve(&folds, &emitted, a);
                    let rb = resolve(&folds, &emitted, bb);
                    let na = concrete(&mut b, &mut inv_of, &mut const_of, ra);
                    let nb = concrete(&mut b, &mut inv_of, &mut const_of, rb);
                    b.gate2(node.name, f, na, nb)
                }
            };
            emitted[i] = Some(id);
            continue;
        }
        match node.kind {
            NodeKind::Input => unreachable!("inputs handled above"),
            NodeKind::Const(c) => {
                folds[i] = Some(Fold::Const(c));
            }
            NodeKind::Gate1 { f, a } => match (f, resolve(&folds, &emitted, a)) {
                (Bf1::Const0, _) => {
                    folds[i] = Some(Fold::Const(false));
                    report.folded_constants += 1;
                }
                (Bf1::Const1, _) => {
                    folds[i] = Some(Fold::Const(true));
                    report.folded_constants += 1;
                }
                (g, Err(c)) => {
                    folds[i] = Some(Fold::Const(g.eval(c)));
                    report.folded_constants += 1;
                }
                (Bf1::Buf, Ok((n, inv))) => {
                    folds[i] = Some(Fold::Alias {
                        node: n,
                        inverted: inv,
                    });
                    report.collapsed += 1;
                }
                (Bf1::Inv, Ok((n, inv))) => {
                    folds[i] = Some(Fold::Alias {
                        node: n,
                        inverted: !inv,
                    });
                    report.collapsed += 1;
                }
            },
            NodeKind::Gate2 { f, a, b: bb } => {
                let ra = resolve(&folds, &emitted, a);
                let rb = resolve(&folds, &emitted, bb);
                let (fa, ca) = match ra {
                    Err(c) => (None, Some(c)),
                    Ok((n, inv)) => (Some((n, inv)), None),
                };
                let (fb, cb) = match rb {
                    Err(c) => (None, Some(c)),
                    Ok((n, inv)) => (Some((n, inv)), None),
                };
                let mut g = f;
                if let Some((_, true)) = fa {
                    g = g.negate_a();
                }
                if let Some((_, true)) = fb {
                    g = g.negate_b();
                }
                match (fa, ca, fb, cb) {
                    (None, Some(va), None, Some(vb)) => {
                        folds[i] = Some(Fold::Const(g.eval(va, vb)));
                        report.folded_constants += 1;
                    }
                    (None, Some(va), Some((nb, _)), None) => {
                        let f0 = g.eval(va, false);
                        let f1 = g.eval(va, true);
                        folds[i] = Some(partial(f0, f1, nb, &mut report));
                    }
                    (Some((na, _)), None, None, Some(vb)) => {
                        let f0 = g.eval(false, vb);
                        let f1 = g.eval(true, vb);
                        folds[i] = Some(partial(f0, f1, na, &mut report));
                    }
                    (Some((na, _)), None, Some((nb, _)), None) => {
                        if g.is_constant() {
                            folds[i] = Some(Fold::Const(g == Bf2::TRUE));
                            report.folded_constants += 1;
                        } else if na == nb {
                            folds[i] = Some(partial(
                                g.eval(false, false),
                                g.eval(true, true),
                                na,
                                &mut report,
                            ));
                        } else if g.ignores_b() {
                            folds[i] = Some(partial(
                                g.eval(false, false),
                                g.eval(true, false),
                                na,
                                &mut report,
                            ));
                        } else if g.ignores_a() {
                            folds[i] = Some(partial(
                                g.eval(false, false),
                                g.eval(false, true),
                                nb,
                                &mut report,
                            ));
                        } else {
                            emitted[i] = Some(b.gate2(node.name, g, na, nb));
                        }
                    }
                    _ => unreachable!("each operand is exactly const or alias"),
                }
            }
        }
    }

    for &o in nl.outputs() {
        let id = match folds[o.index()] {
            Some(Fold::Const(c)) => b.constant(c),
            Some(Fold::Alias {
                node,
                inverted: false,
            }) => node,
            Some(Fold::Alias {
                node,
                inverted: true,
            }) => b.gate1_auto(Bf1::Inv, node),
            None => emitted[o.index()].expect("live output emitted"),
        };
        b.output(id);
    }
    let out = b.finish().expect("optimizer preserves invariants");
    (out, report, emitted)
}

fn partial(f0: bool, f1: bool, n: NodeId, report: &mut OptReport) -> Fold {
    match (f0, f1) {
        (false, false) => {
            report.folded_constants += 1;
            Fold::Const(false)
        }
        (true, true) => {
            report.folded_constants += 1;
            Fold::Const(true)
        }
        (false, true) => {
            report.collapsed += 1;
            Fold::Alias {
                node: n,
                inverted: false,
            }
        }
        (true, false) => {
            report.collapsed += 1;
            Fold::Alias {
                node: n,
                inverted: true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, NetlistGenerator};
    use crate::sim::random_equivalence_check;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn collapses_buffer_chains() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate2("g", Bf2::AND, x, y);
        let b1 = b.gate1("b1", Bf1::Buf, g);
        let b2 = b.gate1("b2", Bf1::Buf, b1);
        let n1 = b.gate1("n1", Bf1::Inv, b2);
        let n2 = b.gate1("n2", Bf1::Inv, n1);
        b.output(n2);
        let nl = b.finish().unwrap();
        let (opt, report) = optimize(&nl);
        assert_eq!(opt.gate_count(), 1, "only the AND survives");
        assert_eq!(report.collapsed, 4);
        for va in [false, true] {
            for vb in [false, true] {
                assert_eq!(opt.evaluate(&[va, vb]), nl.evaluate(&[va, vb]));
            }
        }
    }

    #[test]
    fn folds_constants_through_the_cone() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let one = b.constant(true);
        let g1 = b.gate2("g1", Bf2::AND, x, one); // = x
        let g2 = b.gate2("g2", Bf2::XOR, g1, one); // = !x
        let g3 = b.gate2("g3", Bf2::OR, g2, one); // = 1
        b.output(g2);
        b.output(g3);
        let nl = b.finish().unwrap();
        let (opt, _) = optimize(&nl);
        // g3 is constant true; g2 is an inverter alias of x.
        assert!(opt.gate_count() <= 1);
        assert_eq!(opt.evaluate(&[false]), vec![true, true]);
        assert_eq!(opt.evaluate(&[true]), vec![false, true]);
    }

    #[test]
    fn sweeps_dead_logic() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let live = b.gate2("live", Bf2::NAND, x, y);
        let d1 = b.gate2("dead1", Bf2::OR, x, y);
        let _d2 = b.gate2("dead2", Bf2::XOR, d1, y);
        b.output(live);
        let nl = b.finish().unwrap();
        let (opt, report) = optimize(&nl);
        assert_eq!(report.swept_dead, 2);
        assert_eq!(opt.gate_count(), 1);
    }

    #[test]
    fn inversion_is_absorbed_into_downstream_gates() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let nx = b.gate1("nx", Bf1::Inv, x);
        let g = b.gate2("g", Bf2::AND, nx, y); // = !x & y
        b.output(g);
        let nl = b.finish().unwrap();
        let (opt, _) = optimize(&nl);
        // The inverter disappears; g becomes NOT_A_AND_B.
        assert_eq!(opt.gate_count(), 1);
        for va in [false, true] {
            for vb in [false, true] {
                assert_eq!(opt.evaluate(&[va, vb]), vec![!va && vb]);
            }
        }
    }

    #[test]
    fn random_netlists_stay_equivalent() {
        for seed in 0..20 {
            let nl = NetlistGenerator::new(GeneratorConfig::new("t", 8, 4, 80).with_seed(seed))
                .unwrap()
                .generate();
            let (opt, _) = optimize(&nl);
            opt.check().unwrap();
            assert_eq!(opt.inputs().len(), 8);
            assert_eq!(opt.outputs().len(), 4);
            let mut rng = StdRng::seed_from_u64(seed);
            assert_eq!(
                random_equivalence_check(&nl, &opt, 4, &mut rng).unwrap(),
                None,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn optimizing_twice_is_idempotent_in_size() {
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 8, 4, 60).with_seed(5))
            .unwrap()
            .generate();
        let (once, _) = optimize(&nl);
        let (twice, report) = optimize(&once);
        assert_eq!(once.gate_count(), twice.gate_count());
        assert_eq!(report.folded_constants, 0);
    }

    #[test]
    fn protected_nodes_survive_verbatim() {
        // x --inv--> nx --AND(protected)--> g --buf--> out
        // Plain optimize would absorb the inverter into the AND and
        // collapse the buffer; the protected AND must keep an explicit
        // inverter fanin and its own node.
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let nx = b.gate1("nx", Bf1::Inv, x);
        let g = b.gate2("g", Bf2::AND, nx, y);
        let buf = b.gate1("buf", Bf1::Buf, g);
        b.output(buf);
        let nl = b.finish().unwrap();
        let (opt, _, map) = optimize_protected(&nl, &[g]);
        let new_g = map[g.index()].expect("protected node survives");
        // The protected node is still a two-input AND (function untouched).
        match opt.node(new_g).kind {
            NodeKind::Gate2 { f, a, b: bb } => {
                assert_eq!(f, Bf2::AND);
                // Fanin a is an explicit inverter of the input, not an
                // absorbed negation.
                assert!(matches!(
                    opt.node(a).kind,
                    NodeKind::Gate1 { f: Bf1::Inv, .. }
                ));
                assert!(matches!(opt.node(bb).kind, NodeKind::Input));
            }
            ref k => panic!("protected node rewritten to {k:?}"),
        }
        for va in [false, true] {
            for vb in [false, true] {
                assert_eq!(opt.evaluate(&[va, vb]), nl.evaluate(&[va, vb]));
            }
        }
    }

    #[test]
    fn protected_constant_fanin_is_materialized() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let one = b.constant(true);
        let pass = b.gate2("pass", Bf2::AND, x, one); // folds to x unprotected
        let g = b.gate2("g", Bf2::XOR, pass, one); // protected
        b.output(g);
        let nl = b.finish().unwrap();
        let (opt, _, map) = optimize_protected(&nl, &[g]);
        let new_g = map[g.index()].unwrap();
        match opt.node(new_g).kind {
            NodeKind::Gate2 { f, a, b: bb } => {
                assert_eq!(f, Bf2::XOR, "visible function untouched");
                assert!(matches!(opt.node(a).kind, NodeKind::Input));
                assert!(matches!(opt.node(bb).kind, NodeKind::Const(true)));
            }
            ref k => panic!("protected node rewritten to {k:?}"),
        }
        assert_eq!(opt.evaluate(&[false]), nl.evaluate(&[false]));
        assert_eq!(opt.evaluate(&[true]), nl.evaluate(&[true]));
    }

    #[test]
    fn protection_preserves_equivalence_under_every_substitution() {
        // The point of protection: swapping the protected gate's function
        // (as key resolution does for a camouflaged cell) must produce
        // equivalent netlists on both sides. Exercise every Bf2 at a
        // random protected gate of random netlists.
        for seed in 0..10 {
            let nl = NetlistGenerator::new(GeneratorConfig::new("t", 8, 4, 80).with_seed(seed))
                .unwrap()
                .generate();
            let victim = nl
                .nodes()
                .enumerate()
                .filter(|(_, n)| matches!(n.kind, NodeKind::Gate2 { .. }))
                .map(|(i, _)| NodeId(i as u32))
                .nth(seed as usize % 5)
                .expect("generated netlist has gates");
            let (opt, _, map) = optimize_protected(&nl, &[victim]);
            opt.check().unwrap();
            assert_eq!(opt.inputs().len(), 8);
            assert_eq!(opt.outputs().len(), 4);
            let new_victim = map[victim.index()].unwrap();
            for f in Bf2::ALL {
                let orig = substitute(&nl, victim, f);
                let swapped = substitute(&opt, new_victim, f);
                let mut rng = StdRng::seed_from_u64(seed * 31 + f.truth_table() as u64);
                assert_eq!(
                    random_equivalence_check(&orig, &swapped, 4, &mut rng).unwrap(),
                    None,
                    "seed {seed} f {f}"
                );
            }
        }
    }

    /// Rebuilds `nl` with the two-input gate at `at` replaced by `f`.
    fn substitute(nl: &Netlist, at: NodeId, f: Bf2) -> Netlist {
        let mut b = NetlistBuilder::new(nl.name().to_string());
        let mut ids: Vec<NodeId> = Vec::with_capacity(nl.len());
        for (i, node) in nl.nodes().enumerate() {
            let id = match node.kind {
                NodeKind::Input => b.input(node.name),
                NodeKind::Const(c) => b.constant(c),
                NodeKind::Gate1 { f, a } => b.gate1(node.name, f, ids[a.index()]),
                NodeKind::Gate2 { f: g, a, b: bb } => {
                    let g = if NodeId(i as u32) == at { f } else { g };
                    b.gate2(node.name, g, ids[a.index()], ids[bb.index()])
                }
            };
            ids.push(id);
        }
        for &o in nl.outputs() {
            b.output(ids[o.index()]);
        }
        b.finish().unwrap()
    }

    #[test]
    fn constant_output_is_rematerialized() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let nx = b.gate1("nx", Bf1::Inv, x);
        let g = b.gate2("g", Bf2::AND, x, nx); // always 0
        b.output(g);
        let nl = b.finish().unwrap();
        let (opt, _) = optimize(&nl);
        assert_eq!(opt.evaluate(&[false]), vec![false]);
        assert_eq!(opt.evaluate(&[true]), vec![false]);
        assert_eq!(opt.gate_count(), 0);
    }
}
