//! ISCAS `.bench` format parser and writer.
//!
//! The parser accepts the classic ISCAS-85/89 dialect:
//!
//! ```text
//! # c17
//! INPUT(1)
//! OUTPUT(22)
//! 10 = NAND(1, 3)
//! 22 = NAND(10, 16)
//! ```
//!
//! n-ary `AND/OR/XOR` (and their complements) are decomposed into balanced
//! trees of two-input gates; `DFF`s are cut exactly as the paper's Sec. V-A
//! prescribes for SAT attacks: *"the inputs (and outputs) of all flip-flops
//! become primary outputs (and inputs); thereafter, the flip-flops are
//! removed"* — mimicking scan-chain access.

use crate::bf2::{Bf1, Bf2};
use crate::builder::NetlistBuilder;
use crate::error::LogicError;
use crate::netlist::{Netlist, NodeId, NodeKind};
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct RawGate {
    lhs: String,
    op: String,
    args: Vec<String>,
    line: usize,
}

fn parse_line(line: &str) -> Option<(&str, &str)> {
    // Splits "LHS = OP(args)" or returns None for non-assignments.
    let eq = line.find('=')?;
    Some((line[..eq].trim(), line[eq + 1..].trim()))
}

fn parse_call(expr: &str, line: usize) -> Result<(String, Vec<String>), LogicError> {
    let open = expr.find('(').ok_or_else(|| LogicError::Parse {
        line,
        message: format!("expected OP(...) but found `{expr}`"),
    })?;
    let close = expr
        .rfind(')')
        .filter(|&close| close > open)
        .ok_or_else(|| LogicError::Parse {
            line,
            message: "missing closing parenthesis".into(),
        })?;
    let op = expr[..open].trim().to_ascii_uppercase();
    let args: Vec<String> = expr[open + 1..close]
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    if args.is_empty() {
        return Err(LogicError::Parse {
            line,
            message: format!("`{op}` has no operands"),
        });
    }
    Ok((op, args))
}

/// Interface bookkeeping for a parsed `.bench` design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedBench {
    /// The (scan-preprocessed) combinational netlist. Pseudo primary
    /// inputs/outputs from DFF cutting come *after* the real ones, in DFF
    /// declaration order.
    pub netlist: Netlist,
    /// Number of genuine primary inputs (before the pseudo inputs).
    pub real_inputs: usize,
    /// Number of genuine primary outputs (before the pseudo outputs).
    pub real_outputs: usize,
    /// Number of flip-flops that were cut.
    pub dff_count: usize,
}

/// Parses a `.bench` netlist. Sequential designs are scan-preprocessed
/// (DFF boundaries become pseudo-PI/PO).
///
/// # Errors
///
/// See [`parse_bench_detailed`].
pub fn parse_bench(text: &str) -> Result<Netlist, LogicError> {
    parse_bench_detailed(text).map(|p| p.netlist)
}

/// Parses a `.bench` netlist, additionally reporting the real/pseudo
/// interface split (needed to rebuild sequential semantics, see
/// [`crate::seq`]).
///
/// # Errors
///
/// Returns [`LogicError::Parse`] for malformed lines,
/// [`LogicError::UnknownSignal`] / [`LogicError::DuplicateSignal`] for
/// wiring bugs, and [`LogicError::CombinationalLoop`] if the combinational
/// core is cyclic.
pub fn parse_bench_detailed(text: &str) -> Result<ParsedBench, LogicError> {
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut gates: Vec<RawGate> = Vec::new();
    let mut name = "bench".to_string();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let c = comment.trim();
            if name == "bench" && !c.is_empty() {
                name = c.split_whitespace().next().unwrap_or("bench").to_string();
            }
            continue;
        }
        let upper = line.to_ascii_uppercase();
        if upper.starts_with("INPUT") {
            let (_, args) = parse_call(line, line_no)?;
            inputs.extend(args);
        } else if upper.starts_with("OUTPUT") {
            let (_, args) = parse_call(line, line_no)?;
            outputs.extend(args);
        } else if let Some((lhs, rhs)) = parse_line(line) {
            let (op, args) = parse_call(rhs, line_no)?;
            gates.push(RawGate {
                lhs: lhs.to_string(),
                op,
                args,
                line: line_no,
            });
        } else {
            return Err(LogicError::Parse {
                line: line_no,
                message: format!("unrecognized statement `{line}`"),
            });
        }
    }

    // Scan preprocessing: cut DFFs.
    let mut pseudo_inputs: Vec<String> = Vec::new();
    let mut pseudo_outputs: Vec<String> = Vec::new();
    let mut comb_gates: Vec<RawGate> = Vec::new();
    for g in gates {
        if g.op == "DFF" {
            if g.args.len() != 1 {
                return Err(LogicError::Parse {
                    line: g.line,
                    message: "DFF takes exactly one operand".into(),
                });
            }
            pseudo_inputs.push(g.lhs.clone());
            pseudo_outputs.push(g.args[0].clone());
        } else {
            comb_gates.push(g);
        }
    }

    // Definition table and duplicate detection.
    let mut defined: HashMap<&str, usize> = HashMap::new();
    for (i, g) in comb_gates.iter().enumerate() {
        if defined.insert(g.lhs.as_str(), i).is_some() {
            return Err(LogicError::DuplicateSignal(g.lhs.clone()));
        }
    }
    for pin in inputs.iter().chain(&pseudo_inputs) {
        if defined.contains_key(pin.as_str()) {
            return Err(LogicError::DuplicateSignal(pin.clone()));
        }
    }

    // Kahn topological sort of the gate set.
    let mut b = NetlistBuilder::new(name);
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    for pin in inputs.iter().chain(&pseudo_inputs) {
        if ids.contains_key(pin) {
            return Err(LogicError::DuplicateSignal(pin.clone()));
        }
        ids.insert(pin.clone(), b.input(pin.clone()));
    }

    let mut indegree: Vec<usize> = vec![0; comb_gates.len()];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); comb_gates.len()];
    for (i, g) in comb_gates.iter().enumerate() {
        for arg in &g.args {
            if let Some(&j) = defined.get(arg.as_str()) {
                indegree[i] += 1;
                dependents[j].push(i);
            } else if !ids.contains_key(arg) {
                return Err(LogicError::UnknownSignal(arg.clone()));
            }
        }
    }
    let mut queue: Vec<usize> = (0..comb_gates.len())
        .filter(|&i| indegree[i] == 0)
        .collect();
    let mut emitted = 0usize;
    while let Some(i) = queue.pop() {
        emitted += 1;
        let g = &comb_gates[i];
        let arg_ids: Vec<NodeId> = g.args.iter().map(|a| ids[a.as_str()]).collect();
        let id = emit_gate(&mut b, g, &arg_ids)?;
        ids.insert(g.lhs.clone(), id);
        for &d in &dependents[i] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                queue.push(d);
            }
        }
    }
    if emitted != comb_gates.len() {
        let stuck = (0..comb_gates.len())
            .find(|&i| indegree[i] > 0)
            .map(|i| comb_gates[i].lhs.clone())
            .unwrap_or_default();
        return Err(LogicError::CombinationalLoop(stuck));
    }

    for out in outputs.iter().chain(&pseudo_outputs) {
        let id = *ids
            .get(out.as_str())
            .ok_or_else(|| LogicError::UnknownSignal(out.clone()))?;
        b.output(id);
    }
    Ok(ParsedBench {
        netlist: b.finish()?,
        real_inputs: inputs.len(),
        real_outputs: outputs.len(),
        dff_count: pseudo_inputs.len(),
    })
}

fn emit_gate(b: &mut NetlistBuilder, g: &RawGate, args: &[NodeId]) -> Result<NodeId, LogicError> {
    let unary_arity = |n: usize| -> Result<(), LogicError> {
        if n == 1 {
            Ok(())
        } else {
            Err(LogicError::Parse {
                line: g.line,
                message: format!("`{}` takes one operand, got {n}", g.op),
            })
        }
    };
    let id = match g.op.as_str() {
        "NOT" | "INV" => {
            unary_arity(args.len())?;
            b.gate1(g.lhs.clone(), Bf1::Inv, args[0])
        }
        "BUF" | "BUFF" => {
            unary_arity(args.len())?;
            b.gate1(g.lhs.clone(), Bf1::Buf, args[0])
        }
        "AND" | "OR" | "XOR" | "NAND" | "NOR" | "XNOR" => {
            let (base, invert) = match g.op.as_str() {
                "AND" => (Bf2::AND, false),
                "OR" => (Bf2::OR, false),
                "XOR" => (Bf2::XOR, false),
                "NAND" => (Bf2::AND, true),
                "NOR" => (Bf2::OR, true),
                _ => (Bf2::XOR, true),
            };
            if args.len() == 1 {
                // Degenerate single-operand gate: identity or inverter.
                let f = if invert { Bf1::Inv } else { Bf1::Buf };
                b.gate1(g.lhs.clone(), f, args[0])
            } else if args.len() == 2 {
                let f = if invert { base.complement() } else { base };
                b.gate2(g.lhs.clone(), f, args[0], args[1])
            } else {
                // Reduce all but the last operand, then emit the named root
                // gate (complemented if needed) so `lhs` is a real signal.
                let acc = b.reduce_tree(base, &args[..args.len() - 1]);
                let f = if invert { base.complement() } else { base };
                b.gate2(g.lhs.clone(), f, acc, args[args.len() - 1])
            }
        }
        other => {
            return Err(LogicError::Parse {
                line: g.line,
                message: format!("unknown operator `{other}`"),
            })
        }
    };
    Ok(id)
}

/// Serializes a netlist to `.bench` text.
///
/// Functions outside the classic operator set (e.g. `A_AND_NOT_B`) are
/// emitted with an auxiliary `NOT` line, so the output is always valid
/// ISCAS `.bench` and functionally identical (round-trips may therefore add
/// inverter nodes).
pub fn write_bench(nl: &Netlist) -> String {
    let mut s = String::new();
    s.push_str(&format!("# {}\n", nl.name()));
    for &i in nl.inputs() {
        s.push_str(&format!("INPUT({})\n", nl.node(i).name));
    }
    for &o in nl.outputs() {
        s.push_str(&format!("OUTPUT({})\n", nl.node(o).name));
    }
    for node in nl.nodes() {
        let lhs = &node.name;
        match node.kind {
            NodeKind::Input => {}
            NodeKind::Const(c) => {
                // .bench has no constants: synthesize one from any input
                // (x AND NOT x / x OR NOT x); fall back to a comment for
                // netlists with no inputs at all.
                if let Some(&first) = nl.inputs().first() {
                    let x = &nl.node(first).name;
                    let op = if c { "OR" } else { "AND" };
                    s.push_str(&format!("{lhs}_bar = NOT({x})\n"));
                    s.push_str(&format!("{lhs} = {op}({x}, {lhs}_bar)\n"));
                } else {
                    s.push_str(&format!("# {lhs} = CONST{}\n", c as u8));
                }
            }
            NodeKind::Gate1 { f, a } => {
                let an = &nl.node(a).name;
                match f {
                    Bf1::Buf => s.push_str(&format!("{lhs} = BUFF({an})\n")),
                    Bf1::Inv => s.push_str(&format!("{lhs} = NOT({an})\n")),
                    Bf1::Const0 => {
                        s.push_str(&format!("{lhs}_bar = NOT({an})\n"));
                        s.push_str(&format!("{lhs} = AND({an}, {lhs}_bar)\n"));
                    }
                    Bf1::Const1 => {
                        s.push_str(&format!("{lhs}_bar = NOT({an})\n"));
                        s.push_str(&format!("{lhs} = OR({an}, {lhs}_bar)\n"));
                    }
                }
            }
            NodeKind::Gate2 { f, a, b } => {
                let an = nl.node(a).name;
                let bn = nl.node(b).name;
                let direct = match f {
                    Bf2::AND => Some("AND"),
                    Bf2::OR => Some("OR"),
                    Bf2::XOR => Some("XOR"),
                    Bf2::NAND => Some("NAND"),
                    Bf2::NOR => Some("NOR"),
                    Bf2::XNOR => Some("XNOR"),
                    _ => None,
                };
                if let Some(op) = direct {
                    s.push_str(&format!("{lhs} = {op}({an}, {bn})\n"));
                    continue;
                }
                match f {
                    Bf2::BUF_A => s.push_str(&format!("{lhs} = BUFF({an})\n")),
                    Bf2::BUF_B => s.push_str(&format!("{lhs} = BUFF({bn})\n")),
                    Bf2::NOT_A => s.push_str(&format!("{lhs} = NOT({an})\n")),
                    Bf2::NOT_B => s.push_str(&format!("{lhs} = NOT({bn})\n")),
                    Bf2::FALSE => {
                        s.push_str(&format!("{lhs}_bar = NOT({an})\n"));
                        s.push_str(&format!("{lhs} = AND({an}, {lhs}_bar)\n"));
                    }
                    Bf2::TRUE => {
                        s.push_str(&format!("{lhs}_bar = NOT({an})\n"));
                        s.push_str(&format!("{lhs} = OR({an}, {lhs}_bar)\n"));
                    }
                    Bf2::A_AND_NOT_B => {
                        s.push_str(&format!("{lhs}_bar = NOT({bn})\n"));
                        s.push_str(&format!("{lhs} = AND({an}, {lhs}_bar)\n"));
                    }
                    Bf2::NOT_A_AND_B => {
                        s.push_str(&format!("{lhs}_bar = NOT({an})\n"));
                        s.push_str(&format!("{lhs} = AND({lhs}_bar, {bn})\n"));
                    }
                    Bf2::A_OR_NOT_B => {
                        s.push_str(&format!("{lhs}_bar = NOT({bn})\n"));
                        s.push_str(&format!("{lhs} = OR({an}, {lhs}_bar)\n"));
                    }
                    Bf2::NOT_A_OR_B => {
                        s.push_str(&format!("{lhs}_bar = NOT({an})\n"));
                        s.push_str(&format!("{lhs} = OR({lhs}_bar, {bn})\n"));
                    }
                    _ => unreachable!("direct ops handled above"),
                }
            }
        }
    }
    s
}

/// The genuine ISCAS-85 c17 benchmark (6 NAND gates), embedded for parity
/// tests against the published literature.
pub const C17_BENCH: &str = "\
# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn c17_parses_with_correct_shape() {
        let nl = parse_bench(C17_BENCH).unwrap();
        assert_eq!(nl.name(), "c17");
        assert_eq!(nl.inputs().len(), 5);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.gate_count(), 6);
    }

    #[test]
    fn c17_functional_spot_checks() {
        let nl = parse_bench(C17_BENCH).unwrap();
        // Known c17 vector: all-zero inputs → 22 = NAND(1,1) = ... compute
        // by hand: 10 = 1, 11 = 1, 16 = 1, 19 = 1, 22 = NAND(1,1) = 0,
        // 23 = NAND(1,1) = 0.
        assert_eq!(nl.evaluate(&[false; 5]), vec![false, false]);
        // All-ones: 10 = 0, 11 = 0, 16 = 1, 19 = 1, 22 = NAND(0,1) = 1,
        // 23 = NAND(1,1) = 0.
        assert_eq!(nl.evaluate(&[true; 5]), vec![true, false]);
    }

    #[test]
    fn out_of_order_definitions_are_sorted() {
        let text = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(t, b)
t = OR(a, b)
";
        let nl = parse_bench(text).unwrap();
        assert_eq!(nl.evaluate(&[true, false]), vec![false]);
        assert_eq!(nl.evaluate(&[false, true]), vec![true]);
    }

    #[test]
    fn nary_gates_decompose_correctly() {
        let text = "\
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
y = NAND(a, b, c, d)
z = XNOR(a, b, c)
";
        let nl = parse_bench(text).unwrap();
        for p in 0..16u32 {
            let v: Vec<bool> = (0..4).map(|i| (p >> i) & 1 == 1).collect();
            let out = nl.evaluate(&v);
            assert_eq!(out[0], !(v[0] && v[1] && v[2] && v[3]), "NAND p={p}");
            assert_eq!(out[1], !(v[0] ^ v[1] ^ v[2]), "XNOR p={p}");
        }
    }

    #[test]
    fn dff_is_cut_into_pseudo_pi_po() {
        let text = "\
# tiny_seq
INPUT(x)
OUTPUT(y)
q = DFF(d)
d = XOR(x, q)
y = AND(q, x)
";
        let nl = parse_bench(text).unwrap();
        // x plus pseudo-input q; y plus pseudo-output d.
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 2);
        // With q = 1, x = 1: y = 1 and d = 0.
        let map = nl.name_map();
        let xi = nl
            .inputs()
            .iter()
            .position(|i| nl.node(*i).name == "x")
            .unwrap();
        let mut vals = vec![false, false];
        vals[xi] = true;
        let qi = 1 - xi;
        vals[qi] = true;
        let out = nl.evaluate(&vals);
        assert!(map.contains_key("q"));
        assert_eq!(out, vec![true, false]);
    }

    #[test]
    fn unknown_signal_is_reported() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
        assert!(matches!(parse_bench(text), Err(LogicError::UnknownSignal(s)) if s == "ghost"));
    }

    #[test]
    fn combinational_loop_is_detected() {
        let text = "\
INPUT(a)
OUTPUT(y)
p = AND(a, q)
q = OR(p, a)
y = BUFF(p)
";
        assert!(matches!(
            parse_bench(text),
            Err(LogicError::CombinationalLoop(_))
        ));
    }

    #[test]
    fn duplicate_definition_is_rejected() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n";
        assert!(matches!(
            parse_bench(text),
            Err(LogicError::DuplicateSignal(_))
        ));
    }

    #[test]
    fn malformed_line_is_rejected_with_line_number() {
        let text = "INPUT(a)\nthis is not bench\n";
        match parse_bench(text) {
            Err(LogicError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn reversed_parentheses_return_errors_without_panicking() {
        for (text, why) in [
            ("INPUT)1(\n", "input declaration"),
            ("INPUT(1)\nOUTPUT(2)\n2 = )NAND(1,\n", "gate call"),
            ("INPUT(1)\nOUTPUT(2)\n2 = NOT)1(\n", "gate operand"),
        ] {
            match parse_bench(text) {
                Err(LogicError::Parse { .. }) => {}
                other => panic!("{why}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn round_trip_preserves_function() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let text = write_bench(&nl);
        let back = parse_bench(&text).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(
            crate::sim::random_equivalence_check(&nl, &back, 4, &mut rng).unwrap(),
            None
        );
    }

    #[test]
    fn round_trip_handles_exotic_functions() {
        use crate::bf2::Bf2;
        use crate::builder::NetlistBuilder;
        let mut b = NetlistBuilder::new("exotic");
        let x = b.input("x");
        let y = b.input("y");
        let mut outs = Vec::new();
        for (i, f) in Bf2::ALL.iter().enumerate() {
            let g = b.gate2(format!("f{i}"), *f, x, y);
            outs.push(g);
        }
        for o in outs {
            b.output(o);
        }
        let nl = b.finish().unwrap();
        let back = parse_bench(&write_bench(&nl)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            crate::sim::random_equivalence_check(&nl, &back, 4, &mut rng).unwrap(),
            None
        );
    }
}
