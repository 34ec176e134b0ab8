//! Cone-of-influence (COI) miter reduction for oracle-guided attacks.
//!
//! A cloaked cell can only be distinguished through outputs its value
//! reaches. On large designs (superblue-scale, hundreds of thousands of
//! gates) a handful of cloaked cells typically influences a small
//! fraction of the outputs — yet the classic miter encodes *two full
//! copies* of the circuit per phase. This module projects the attack onto
//! the **cone of influence** of the cloaked cells:
//!
//! 1. **Affected outputs** — a single forward sweep marks every node
//!    reached by some cloaked cell; the affected outputs are the primary
//!    outputs so marked. Unaffected outputs are key-independent by
//!    construction and need no miter at all.
//! 2. **Cone extraction** — [`Netlist::cone_of`](gshe_logic::Netlist::cone_of) over the affected
//!    outputs yields a compact netlist containing exactly the transitive
//!    fanin of those outputs, with an [`IdMap`](gshe_logic::IdMap) back to the full design.
//! 3. **Key projection** — cloaked cells inside the cone are remapped to
//!    contiguous key offsets; cells *outside* the cone reach no primary
//!    output at all (otherwise that output would be affected), so any
//!    valid candidate works and the expansion assigns them code 0.
//! 4. **Oracle projection** — [`CoiOracle`] adapts the full working chip
//!    to the cone interface: cone inputs scatter into a full input
//!    vector (false elsewhere — the cone outputs do not depend on those
//!    positions), and full outputs gather down to the affected subset.
//!    Query accounting passes through one-to-one, so rotation periods
//!    and per-pattern query counts are preserved exactly.
//!
//! The DIP loop then runs unchanged on the cone instance and the
//! recovered cone key is [expanded](CoiProjection::expand_key) to a full
//! key. [`CoiMode::On`], the [`AttackConfig`](crate::AttackConfig)
//! default, applies the reduction at every design size: on the benchmark
//! workloads it never lost to the full miter, even on small designs.

use crate::oracle::Oracle;
use gshe_camo::{CamoGate, KeyedNetlist};
use gshe_logic::{NodeId, PatternBlock};

/// Whether the DIP engine reduces the miter to the cone of influence of
/// the cloaked cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoiMode {
    /// Reduce whenever the cone is a strict subset of the design (the
    /// default).
    #[default]
    On,
    /// Never reduce: the full-miter reference.
    Off,
}

impl CoiMode {
    /// Parses `"on"` or `"off"`.
    pub fn parse(s: &str) -> Option<CoiMode> {
        match s {
            "on" => Some(CoiMode::On),
            "off" => Some(CoiMode::Off),
            _ => None,
        }
    }

    /// The spec-file spelling accepted by [`CoiMode::parse`].
    pub fn name(self) -> &'static str {
        match self {
            CoiMode::On => "on",
            CoiMode::Off => "off",
        }
    }
}

/// Full-design **input ordinals** feeding the cone the DIP engine will
/// attack under `mode`, or `None` when the engine stays on the full
/// miter. This mirrors [`CoiProjection::build`]'s engagement decision
/// exactly — same mode, same affected-output preconditions — but
/// costs only two linear sweeps and materializes nothing, so callers
/// (the campaign's cone-keyed oracle cache) can key on the cone inputs
/// *before* the attack runs without risking a key-aliasing mismatch.
pub fn cone_inputs(keyed: &KeyedNetlist, mode: CoiMode) -> Option<Vec<usize>> {
    if mode == CoiMode::Off {
        return None;
    }
    let nl = keyed.netlist();
    let affected = affected_outputs_of(keyed)?;

    // Reverse sweep: transitive fanin of the affected outputs. Node ids
    // are topological, so one descending pass suffices.
    let mut need = vec![false; nl.len()];
    for &o in &affected {
        need[o.index()] = true;
    }
    for i in (0..nl.len()).rev() {
        if need[i] {
            for f in nl.fanins(NodeId(i as u32)) {
                need[f.index()] = true;
            }
        }
    }
    Some(
        nl.inputs()
            .iter()
            .enumerate()
            .filter(|(_, i)| need[i.index()])
            .map(|(k, _)| k)
            .collect(),
    )
}

/// Primary outputs reached by some cloaked cell, or `None` when the
/// projection preconditions fail (no affected output, or every output
/// affected).
fn affected_outputs_of(keyed: &KeyedNetlist) -> Option<Vec<NodeId>> {
    let nl = keyed.netlist();
    // Forward taint sweep: a node is tainted when it is a cloaked cell
    // or any fanin is tainted. Node order is topological, so one
    // ascending pass suffices — no fanout adjacency needed.
    let mut tainted = vec![false; nl.len()];
    for g in keyed.camo_gates() {
        tainted[g.node.index()] = true;
    }
    for i in 0..nl.len() {
        if !tainted[i] && nl.fanins(NodeId(i as u32)).any(|f| tainted[f.index()]) {
            tainted[i] = true;
        }
    }
    let affected: Vec<NodeId> = nl
        .outputs()
        .iter()
        .copied()
        .filter(|o| tainted[o.index()])
        .collect();
    if affected.is_empty() || affected.len() == nl.outputs().len() {
        return None;
    }
    Some(affected)
}

/// A keyed netlist projected onto the cone of influence of its cloaked
/// cells, with the maps needed to run the attack on the cone and expand
/// the result back to the full design.
#[derive(Debug, Clone)]
pub struct CoiProjection {
    keyed: KeyedNetlist,
    /// Cone input ordinal → full input ordinal.
    input_map: Vec<usize>,
    /// Cone output ordinal → full output ordinal.
    output_map: Vec<usize>,
    /// Cone key bit → full key bit.
    key_map: Vec<usize>,
    full_key_len: usize,
    full_num_inputs: usize,
    /// Statistics of the cone cleanup pass
    /// ([`gshe_logic::optimize_protected`]) run before encoding.
    opt_report: gshe_logic::OptReport,
}

impl CoiProjection {
    /// Builds the projection for `keyed` under `mode`, or `None` when the
    /// attack should run on the full design: mode [`CoiMode::Off`], no
    /// affected outputs (the key is unconstrained — the full miter
    /// converges immediately), or every output affected (no reduction to
    /// be had).
    pub fn build(keyed: &KeyedNetlist, mode: CoiMode) -> Option<CoiProjection> {
        if mode == CoiMode::Off {
            return None;
        }
        let nl = keyed.netlist();
        let affected = affected_outputs_of(keyed)?;
        let mut is_affected = vec![false; nl.len()];
        for &o in &affected {
            is_affected[o.index()] = true;
        }
        let output_map: Vec<usize> = nl
            .outputs()
            .iter()
            .enumerate()
            .filter(|(_, o)| is_affected[o.index()])
            .map(|(k, _)| k)
            .collect();

        let (cone, map) = nl.cone_of(&affected);

        // Remap in-cone cloaked cells onto contiguous cone key offsets.
        let mut gates: Vec<CamoGate> = Vec::new();
        let mut key_map = Vec::new();
        let mut offset = 0usize;
        for g in keyed.camo_gates() {
            if let Some(cone_node) = map.to_cone(g.node) {
                key_map.extend((0..g.key_bits()).map(|b| g.key_offset + b));
                gates.push(CamoGate {
                    node: cone_node,
                    candidates: g.candidates.clone(),
                    key_offset: offset,
                    correct_index: g.correct_index,
                });
                offset += g.key_bits();
            }
        }

        // Cone input ordinal → full input ordinal.
        let mut full_input_ord = vec![usize::MAX; nl.len()];
        for (k, i) in nl.inputs().iter().enumerate() {
            full_input_ord[i.index()] = k;
        }
        let input_map: Vec<usize> = cone
            .inputs()
            .iter()
            .map(|&ci| full_input_ord[map.to_full(ci).index()])
            .collect();

        // Cone cleanup before encoding: resolution and camouflaging leave
        // constants and pass-through cells behind, and the extracted cone
        // re-exposes them. The cloaked cells are *protected* — emitted
        // verbatim with explicit (not absorbed) fanin inversions — because
        // their visible function is exactly what the attacker does not
        // trust; the pass preserves the keyed function under every
        // candidate substitution. Input/output positional order is
        // preserved, so `input_map`/`output_map` stay valid.
        let protected: Vec<gshe_logic::NodeId> = gates.iter().map(|g| g.node).collect();
        let (opt_cone, opt_report, opt_map) = gshe_logic::optimize_protected(&cone, &protected);
        for g in &mut gates {
            g.node = opt_map[g.node.index()].expect("protected cloaked cells survive cleanup");
        }

        Some(CoiProjection {
            keyed: KeyedNetlist::new(opt_cone, gates, offset),
            input_map,
            output_map,
            key_map,
            full_key_len: keyed.key_len(),
            full_num_inputs: nl.inputs().len(),
            opt_report,
        })
    }

    /// The cone-projected keyed netlist the attack runs on.
    pub fn keyed(&self) -> &KeyedNetlist {
        &self.keyed
    }

    /// Expands a key recovered on the cone to a full-design key. Bits of
    /// cloaked cells outside the cone are left at `false` (candidate
    /// code 0 — always a valid code, and those cells reach no primary
    /// output, so any candidate preserves functional equivalence).
    ///
    /// # Panics
    ///
    /// Panics if `cone_key` does not match the cone key width.
    pub fn expand_key(&self, cone_key: &[bool]) -> Vec<bool> {
        assert_eq!(cone_key.len(), self.key_map.len(), "cone key width");
        let mut full = vec![false; self.full_key_len];
        for (c, &f) in self.key_map.iter().enumerate() {
            full[f] = cone_key[c];
        }
        full
    }

    /// Primary outputs of the full design the cloaked cells can reach.
    pub fn affected_outputs(&self) -> &[usize] {
        &self.output_map
    }

    /// Nodes in the cone vs. the full design, as a reduction diagnostic.
    pub fn cone_len(&self) -> usize {
        self.keyed.netlist().len()
    }

    /// Statistics of the protected cleanup pass run on the cone before
    /// encoding (folded constants, collapsed pass-through cells, swept
    /// dead gates).
    pub fn opt_report(&self) -> gshe_logic::OptReport {
        self.opt_report
    }

    /// Cone input ordinal → full-design input ordinal.
    pub fn input_map(&self) -> &[usize] {
        &self.input_map
    }
}

/// Adapts a full-design working chip to the cone interface of a
/// [`CoiProjection`]: scatter cone inputs into a full input vector
/// (false-filled elsewhere), gather affected outputs back out. Query
/// accounting delegates one-to-one to the wrapped oracle.
pub struct CoiOracle<'a> {
    inner: &'a mut dyn Oracle,
    proj: &'a CoiProjection,
    scatter: Vec<bool>,
}

impl<'a> CoiOracle<'a> {
    /// Wraps `inner` (the full chip) behind `proj`'s cone interface.
    pub fn new(inner: &'a mut dyn Oracle, proj: &'a CoiProjection) -> Self {
        let scatter = vec![false; proj.full_num_inputs];
        CoiOracle {
            inner,
            proj,
            scatter,
        }
    }
}

impl Oracle for CoiOracle<'_> {
    fn query(&mut self, inputs: &[bool]) -> Vec<bool> {
        self.scatter.fill(false);
        for (k, &full) in self.proj.input_map.iter().enumerate() {
            self.scatter[full] = inputs[k];
        }
        let y = self.inner.query(&self.scatter);
        self.proj.output_map.iter().map(|&o| y[o]).collect()
    }

    fn query_block(&mut self, block: &PatternBlock) -> Vec<u64> {
        let mut lanes = vec![0u64; self.proj.full_num_inputs];
        for (k, &full) in self.proj.input_map.iter().enumerate() {
            lanes[full] = block.lanes[k];
        }
        let full_block = PatternBlock {
            lanes,
            count: block.count,
        };
        let y = self.inner.query_block(&full_block);
        self.proj.output_map.iter().map(|&o| y[o]).collect()
    }

    fn num_inputs(&self) -> usize {
        self.proj.input_map.len()
    }

    fn num_outputs(&self) -> usize {
        self.proj.output_map.len()
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::verify_key;
    use crate::runner::{AttackConfig, AttackKind, AttackRunner, AttackStatus};
    use crate::stack::OracleStack;
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::{Bf2, GeneratorConfig, Netlist, NetlistBuilder, NetlistGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two independent AND cones sharing nothing; camouflage only the
    /// first cone's gate, so exactly one output is affected.
    fn split_design() -> (Netlist, KeyedNetlist) {
        let mut b = NetlistBuilder::new("split");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let e = b.input("d");
        let g1 = b.gate2("g1", Bf2::AND, a, c);
        let g2 = b.gate2("g2", Bf2::OR, d, e);
        b.output(g1);
        b.output(g2);
        let nl = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let keyed = camouflage(&nl, &[g1], CamoScheme::GsheAll16, &mut rng).unwrap();
        (nl, keyed)
    }

    #[test]
    fn projection_drops_unaffected_logic() {
        let (_, keyed) = split_design();
        let proj = CoiProjection::build(&keyed, CoiMode::On).expect("one of two outputs affected");
        assert_eq!(proj.affected_outputs(), &[0]);
        let cone = proj.keyed().netlist();
        assert_eq!(cone.inputs().len(), 2, "only a, b feed the cone");
        assert_eq!(cone.outputs().len(), 1);
        assert!(proj.cone_len() < keyed.netlist().len());
        assert_eq!(proj.keyed().key_len(), keyed.key_len());
    }

    #[test]
    fn fully_affected_designs_skip_the_projection() {
        // Every output in the cloaked cells' cone: nothing to reduce.
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 8, 2, 60).with_seed(1))
            .unwrap()
            .generate();
        let picks = select_gates(&nl, 1.0, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        if CoiProjection::build(&keyed, CoiMode::On).is_some() {
            // Only legitimate when some output genuinely escapes the cone.
            let proj = CoiProjection::build(&keyed, CoiMode::On).unwrap();
            assert!(proj.affected_outputs().len() < nl.outputs().len());
        }
    }

    #[test]
    fn cone_oracle_matches_full_oracle_on_affected_outputs() {
        let (nl, keyed) = split_design();
        let proj = CoiProjection::build(&keyed, CoiMode::On).unwrap();
        let mut full = OracleStack::exact(&nl);
        let mut inner = OracleStack::exact(&nl);
        let mut cone = CoiOracle::new(&mut inner, &proj);
        assert_eq!(cone.num_inputs(), 2);
        assert_eq!(cone.num_outputs(), 1);
        for p in 0..4u32 {
            let cone_in: Vec<bool> = (0..2).map(|k| (p >> k) & 1 == 1).collect();
            let y_cone = cone.query(&cone_in);
            // Reconstruct the equivalent full query by scattering.
            let mut full_in = vec![false; 4];
            for (k, &fi) in proj.input_map.iter().enumerate() {
                full_in[fi] = cone_in[k];
            }
            let y_full = full.query(&full_in);
            assert_eq!(y_cone, vec![y_full[0]], "p={p}");
        }
        assert_eq!(cone.queries(), 4);
    }

    #[test]
    fn expanded_cone_key_is_functionally_correct() {
        let (nl, keyed) = split_design();
        let proj = CoiProjection::build(&keyed, CoiMode::On).unwrap();
        let mut inner = OracleStack::exact(&nl);
        let mut cone_oracle = CoiOracle::new(&mut inner, &proj);
        let runner =
            AttackRunner::with_config(AttackKind::Sat, AttackConfig::with_timeout_secs(10), 0);
        let out = runner.run(proj.keyed(), &mut cone_oracle);
        assert_eq!(out.status, AttackStatus::Success);
        let full_key = proj.expand_key(out.key.as_ref().unwrap());
        assert_eq!(full_key.len(), keyed.key_len());
        let v = verify_key(&nl, &keyed, &full_key).unwrap();
        assert!(v.functionally_equivalent);
    }

    #[test]
    fn engine_auto_threshold_is_transparent_end_to_end() {
        // coi: On through the engine entry point must recover an
        // equivalent key to coi: Off on the same seeded instance.
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 10, 8, 120).with_seed(11))
            .unwrap()
            .generate();
        let picks = select_gates(&nl, 0.05, 13);
        let mut rng = StdRng::seed_from_u64(13);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        let [off, on] = [CoiMode::Off, CoiMode::On].map(|coi| {
            let config = AttackConfig::with_timeout_secs(20).with_coi(coi);
            AttackRunner::with_config(AttackKind::Sat, config, 0)
                .run(&keyed, &mut OracleStack::exact(&nl))
        });
        assert_eq!(off.status, AttackStatus::Success);
        assert_eq!(on.status, AttackStatus::Success);
        for out in [&off, &on] {
            let v = verify_key(&nl, &keyed, out.key.as_ref().unwrap()).unwrap();
            assert!(v.functionally_equivalent);
        }
    }

    #[test]
    fn cone_inputs_matches_projection_engagement_and_map() {
        let (_, keyed) = split_design();
        // The cheap sweep and the full build must agree on engagement for
        // both modes, and on the input set whenever both engage.
        for mode in [CoiMode::On, CoiMode::Off] {
            let inputs = cone_inputs(&keyed, mode);
            let proj = CoiProjection::build(&keyed, mode);
            assert_eq!(inputs.is_some(), proj.is_some(), "{mode:?}");
            if let (Some(inputs), Some(proj)) = (inputs, proj) {
                let mut from_proj = proj.input_map().to_vec();
                from_proj.sort_unstable();
                assert_eq!(inputs, from_proj, "{mode:?}");
            }
        }
        // On engages on this small design; Off never does.
        assert!(cone_inputs(&keyed, CoiMode::On).is_some());
        assert!(cone_inputs(&keyed, CoiMode::Off).is_none());
    }

    #[test]
    fn coi_mode_parse_round_trips() {
        for (text, mode) in [("on", CoiMode::On), ("off", CoiMode::Off)] {
            assert_eq!(CoiMode::parse(text), Some(mode));
            assert_eq!(mode.name(), text);
        }
        for text in ["auto", "auto:5", "auto:", "sometimes"] {
            assert_eq!(CoiMode::parse(text), None, "{text}");
        }
        assert_eq!(CoiMode::default(), CoiMode::On);
    }
}
