//! Bit-parallel netlist simulation.
//!
//! [`Simulator`] evaluates 64 input patterns per pass by packing one pattern
//! per bit of a `u64`. The SAT-attack oracle, the stochastic-defense
//! experiments, and functional-equivalence spot checks all run on top of
//! this engine.

use crate::error::LogicError;
use crate::netlist::Netlist;
use rand::Rng;

/// Obs counter: nodes evaluated by simulation sweeps (gate throughput —
/// divide by wall clock for a gates/sec figure).
pub(crate) const NODES_EVALUATED: &str = "logic.nodes_evaluated";

/// A block of up to 64 input patterns, one per bit lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternBlock {
    /// One `u64` per primary input; bit `k` is the input's value in
    /// pattern `k`.
    pub lanes: Vec<u64>,
    /// Number of valid patterns (1..=64).
    pub count: usize,
}

impl PatternBlock {
    /// Packs explicit patterns (`patterns[k][i]` = input `i` of pattern `k`).
    ///
    /// # Panics
    ///
    /// Panics if more than 64 patterns are supplied, if zero patterns are
    /// supplied, or if rows have inconsistent widths.
    pub fn from_patterns(patterns: &[Vec<bool>]) -> Self {
        assert!(
            !patterns.is_empty() && patterns.len() <= 64,
            "need 1..=64 patterns"
        );
        let width = patterns[0].len();
        let mut lanes = vec![0u64; width];
        for (k, row) in patterns.iter().enumerate() {
            assert_eq!(row.len(), width, "ragged pattern rows");
            for (i, &v) in row.iter().enumerate() {
                if v {
                    lanes[i] |= 1 << k;
                }
            }
        }
        PatternBlock {
            lanes,
            count: patterns.len(),
        }
    }

    /// Draws 64 uniformly random patterns for `num_inputs` inputs.
    pub fn random<R: Rng + ?Sized>(num_inputs: usize, rng: &mut R) -> Self {
        PatternBlock {
            lanes: (0..num_inputs).map(|_| rng.gen()).collect(),
            count: 64,
        }
    }

    /// Draws `count` uniformly random patterns for `num_inputs` inputs
    /// (partial blocks let block-capable oracles answer an arbitrary
    /// sample budget, e.g. AppSAT's reinforcement rounds).
    ///
    /// # Panics
    ///
    /// Panics if `count` is outside `1..=64`.
    pub fn random_n<R: Rng + ?Sized>(num_inputs: usize, count: usize, rng: &mut R) -> Self {
        assert!((1..=64).contains(&count), "need 1..=64 patterns");
        PatternBlock {
            lanes: (0..num_inputs).map(|_| rng.gen()).collect(),
            count,
        }
    }

    /// Extracts pattern `k` as a `Vec<bool>`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.count`.
    pub fn pattern(&self, k: usize) -> Vec<bool> {
        assert!(k < self.count, "pattern index out of range");
        self.lanes
            .iter()
            .map(|&lane| (lane >> k) & 1 == 1)
            .collect()
    }

    /// Mask with one bit set per valid pattern.
    pub fn valid_mask(&self) -> u64 {
        if self.count == 64 {
            !0
        } else {
            (1u64 << self.count) - 1
        }
    }
}

/// Bit-parallel simulator bound to one netlist.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    /// Scratch buffer reused across calls.
    values: Vec<u64>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for `netlist`.
    pub fn new(netlist: &'a Netlist) -> Self {
        Simulator {
            values: vec![0; netlist.len()],
            netlist,
        }
    }

    /// The bound netlist.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Simulates a block of patterns; returns one `u64` per primary output
    /// (bit `k` = output value under pattern `k`).
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InputCountMismatch`] if the block width does
    /// not match the number of primary inputs.
    pub fn run(&mut self, block: &PatternBlock) -> Result<Vec<u64>, LogicError> {
        run_with_scratch(self.netlist, &mut self.values, block)
    }

    /// Like [`Simulator::run`], but clears the bits of invalid lanes
    /// (`k >= block.count`), so results compare bit-for-bit with a
    /// pattern-at-a-time evaluation. Block-capable oracles answer through
    /// this.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InputCountMismatch`] if the block width does
    /// not match the number of primary inputs.
    pub fn run_masked(&mut self, block: &PatternBlock) -> Result<Vec<u64>, LogicError> {
        let mut lanes = self.run(block)?;
        let mask = block.valid_mask();
        for lane in &mut lanes {
            *lane &= mask;
        }
        Ok(lanes)
    }

    /// Values of *all* nodes from the most recent [`Simulator::run`] call.
    pub fn node_values(&self) -> &[u64] {
        &self.values
    }
}

/// One bit-parallel pass of `netlist` over `block` using a caller-owned
/// scratch buffer (resized to fit). This is [`Simulator::run`]'s engine,
/// exposed for owners whose netlist changes *identity* but not size across
/// calls — e.g. a key-rotating oracle that re-resolves per epoch — so every
/// pass reuses one allocation.
///
/// # Errors
///
/// Returns [`LogicError::InputCountMismatch`] if the block width does not
/// match the number of primary inputs.
pub fn run_with_scratch(
    netlist: &Netlist,
    scratch: &mut Vec<u64>,
    block: &PatternBlock,
) -> Result<Vec<u64>, LogicError> {
    let mut out = Vec::with_capacity(netlist.outputs().len());
    run_with_scratch_into(netlist, scratch, block, &mut out)?;
    Ok(out)
}

/// Like [`run_with_scratch`], but writes the output lanes into a
/// caller-owned buffer (cleared and refilled), so a steady-state caller —
/// e.g. a rotating oracle answering epoch segments — performs **zero**
/// allocations per pass.
///
/// # Errors
///
/// Returns [`LogicError::InputCountMismatch`] on arity mismatch (leaving
/// `out` cleared).
pub fn run_with_scratch_into(
    netlist: &Netlist,
    scratch: &mut Vec<u64>,
    block: &PatternBlock,
    out: &mut Vec<u64>,
) -> Result<(), LogicError> {
    out.clear();
    if block.lanes.len() != netlist.inputs().len() {
        return Err(LogicError::InputCountMismatch {
            expected: netlist.inputs().len(),
            got: block.lanes.len(),
        });
    }
    scratch.resize(netlist.len(), 0);
    netlist.sweep_lanes(scratch, &block.lanes);
    gshe_obs::count(NODES_EVALUATED, netlist.len() as u64);
    out.extend(netlist.outputs().iter().map(|o| scratch[o.index()]));
    Ok(())
}

/// Estimates whether two netlists with identical interfaces are functionally
/// equivalent by simulating `blocks` × 64 random patterns. Returns the first
/// differing input pattern, or `None` if none was found.
///
/// This is a *falsifier*, not a prover — the SAT-based miter in
/// `gshe-attacks` provides the complete check.
///
/// # Errors
///
/// Returns [`LogicError::InputCountMismatch`] if the interfaces differ.
pub fn random_equivalence_check<R: Rng + ?Sized>(
    a: &Netlist,
    b: &Netlist,
    blocks: usize,
    rng: &mut R,
) -> Result<Option<Vec<bool>>, LogicError> {
    if a.inputs().len() != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return Err(LogicError::InputCountMismatch {
            expected: a.inputs().len(),
            got: b.inputs().len(),
        });
    }
    let mut sim_a = Simulator::new(a);
    let mut sim_b = Simulator::new(b);
    for _ in 0..blocks {
        let block = PatternBlock::random(a.inputs().len(), rng);
        let out_a = sim_a.run(&block)?;
        let out_b = sim_b.run(&block)?;
        for (ya, yb) in out_a.iter().zip(&out_b) {
            let diff = (ya ^ yb) & block.valid_mask();
            if diff != 0 {
                let k = diff.trailing_zeros() as usize;
                return Ok(Some(block.pattern(k)));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bf2::Bf2;
    use crate::builder::NetlistBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adder() -> Netlist {
        let mut b = NetlistBuilder::new("fa");
        let x = b.input("x");
        let y = b.input("y");
        let s = b.gate2("s", Bf2::XOR, x, y);
        let c = b.gate2("c", Bf2::AND, x, y);
        b.output(s);
        b.output(c);
        b.finish().unwrap()
    }

    #[test]
    fn block_round_trip() {
        let patterns = vec![vec![true, false], vec![false, true], vec![true, true]];
        let block = PatternBlock::from_patterns(&patterns);
        assert_eq!(block.count, 3);
        for (k, p) in patterns.iter().enumerate() {
            assert_eq!(&block.pattern(k), p);
        }
        assert_eq!(block.valid_mask(), 0b111);
    }

    #[test]
    fn parallel_sim_matches_scalar_eval() {
        let nl = adder();
        let mut rng = StdRng::seed_from_u64(5);
        let mut sim = Simulator::new(&nl);
        for _ in 0..10 {
            let block = PatternBlock::random(2, &mut rng);
            let outs = sim.run(&block).unwrap();
            for k in 0..block.count {
                let scalar = nl.evaluate(&block.pattern(k));
                for (o, &packed) in scalar.iter().zip(&outs) {
                    assert_eq!(*o, (packed >> k) & 1 == 1);
                }
            }
        }
        let narrow = PatternBlock::from_patterns(&[vec![true]]);
        assert!(sim.run(&narrow).is_err(), "arity checked");
    }

    #[test]
    fn equivalence_check_accepts_identical() {
        let a = adder();
        let b = adder();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(random_equivalence_check(&a, &b, 8, &mut rng).unwrap(), None);
    }

    #[test]
    fn equivalence_check_finds_counterexample() {
        let a = adder();
        let mut b = adder();
        let s = b.find("s").unwrap();
        b.set_gate2_function(s, Bf2::XNOR).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let cex = random_equivalence_check(&a, &b, 8, &mut rng)
            .unwrap()
            .expect("must differ");
        assert_ne!(a.evaluate(&cex), b.evaluate(&cex));
    }

    #[test]
    fn equivalence_check_rejects_interface_mismatch() {
        let a = adder();
        let mut builder = NetlistBuilder::new("other");
        let x = builder.input("x");
        builder.output(x);
        let b = builder.finish().unwrap();
        assert!(random_equivalence_check(&a, &b, 1, &mut StdRng::seed_from_u64(0)).is_err());
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn from_patterns_rejects_empty() {
        let _ = PatternBlock::from_patterns(&[]);
    }
}
