//! Noise-aware bit-parallel evaluation: the engine behind every stochastic
//! oracle.
//!
//! The paper's headline defense (Sec. V-B) is stochastic switching whose
//! "error rate for any switch can be tuned individually". This module makes
//! that tunability a first-class, *fast* object:
//!
//! * [`ErrorProfile`] — a dense per-node flip-rate table (`Vec<f64>`, one
//!   entry per netlist node). Uniform rates, per-node vectors, and
//!   device-derived per-switch rates (see `gshe_campaign::physical`) all
//!   normalize to this one representation, so interpreters never do a
//!   per-node set-membership probe.
//! * [`FaultSimulator`] — a bit-parallel simulator that evaluates up to 64
//!   input patterns per pass (like [`Simulator`](crate::Simulator)) and
//!   injects faults from one pattern-major noise stream: one `gen_bool`
//!   per noisy node per pattern. A block therefore draws exactly the flips
//!   the same patterns draw one at a time, however it is segmented.
//!
//! With an all-zero profile the engine is bit-identical to
//! [`Simulator`](crate::Simulator) (property-tested in
//! `tests/fault_sim_props.rs`), so deterministic and stochastic
//! evaluation share one gate-eval core:
//! [`NodeKind::eval_lanes`](crate::NodeKind::eval_lanes).

use crate::error::LogicError;
use crate::netlist::{Netlist, NodeId};
use crate::sim::{PatternBlock, NODES_EVALUATED};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// A dense per-node error-rate table: entry `i` is the probability that
/// node `i`'s computed value flips per evaluation.
///
/// This is the normal form every noise description reduces to — a uniform
/// rate over a node subset, an explicit rate vector, or per-switch rates
/// derived from spin current and clock period (Sec. V-B's knob). Dense
/// storage keeps the hot simulation loop to an indexed load, with the
/// noisy-node subset precomputed at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorProfile {
    rates: Vec<f64>,
    /// Indices with a nonzero rate, ascending (precomputed).
    noisy: Vec<u32>,
}

impl ErrorProfile {
    /// A profile of `len` nodes, all perfectly deterministic.
    pub fn zero(len: usize) -> Self {
        ErrorProfile {
            rates: vec![0.0; len],
            noisy: Vec::new(),
        }
    }

    /// A profile with every node flipping at `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn uniform(len: usize, rate: f64) -> Self {
        Self::from_rates(vec![rate; len])
    }

    /// A profile with `rate` at exactly the listed `nodes` and 0 elsewhere
    /// — e.g. a uniform rate on a keyed netlist's cloaked cells.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]` or a node index is out of
    /// range.
    pub fn uniform_at(len: usize, nodes: &[NodeId], rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "error rate must be in [0, 1]");
        let mut rates = vec![0.0; len];
        for node in nodes {
            rates[node.index()] = rate;
        }
        Self::from_rates(rates)
    }

    /// A profile from an explicit per-node rate vector.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]` (NaN included).
    pub fn from_rates(rates: Vec<f64>) -> Self {
        assert!(
            rates.iter().all(|r| (0.0..=1.0).contains(r)),
            "error rate must be in [0, 1]"
        );
        let noisy = rates
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > 0.0)
            .map(|(i, _)| i as u32)
            .collect();
        ErrorProfile { rates, noisy }
    }

    /// Sets one node's rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]` or `node` is out of range.
    pub fn set(&mut self, node: NodeId, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "error rate must be in [0, 1]");
        self.rates[node.index()] = rate;
        // Rebuild the noisy set; `set` is a construction-time operation.
        self.noisy = self
            .rates
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > 0.0)
            .map(|(i, _)| i as u32)
            .collect();
    }

    /// The flip rate of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn rate(&self, node: NodeId) -> f64 {
        self.rates[node.index()]
    }

    /// The dense rate table (one entry per node).
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Number of nodes the profile covers.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// `true` if the profile covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Ids of nodes with a nonzero rate, ascending.
    pub fn noisy_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.noisy.iter().map(|&i| NodeId(i))
    }

    /// Number of nodes with a nonzero rate.
    pub fn noisy_count(&self) -> usize {
        self.noisy.len()
    }

    /// `true` if every rate is zero (the engine is then bit-identical to
    /// [`Simulator`](crate::Simulator)).
    pub fn is_quiet(&self) -> bool {
        self.noisy.is_empty()
    }

    /// The largest per-node rate (0 for a quiet profile).
    pub fn max_rate(&self) -> f64 {
        self.noisy
            .iter()
            .map(|&i| self.rates[i as usize])
            .fold(0.0, f64::max)
    }

    /// A stable identity hash of the profile (folds every rate's bit
    /// pattern). Campaigns mix this into job seeds so distinct profiles
    /// draw distinct noise streams, and report rows can name the profile
    /// they measured.
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix(self.rates.len() as u64 ^ 0x9027_1A5E);
        for &r in &self.rates {
            h = splitmix(h ^ r.to_bits());
        }
        h
    }
}

/// SplitMix64 finalizer (local copy; `gshe-campaign` has the canonical
/// seed-derivation one, but `gshe-logic` sits below it in the crate DAG).
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Bit-parallel, noise-aware netlist simulator: evaluates up to 64
/// patterns per pass and flips each node's computed values according to
/// its [`ErrorProfile`] rate.
///
/// Faults at internal nodes propagate forward through the sweep and
/// superpose — exactly the stochastically correlated output behaviour
/// Sec. V-B relies on to break SAT-style attacks.
///
/// Noise is one stream: one `gen_bool` per noisy node per pattern,
/// pattern-major, noisy nodes in topological (ascending-id) order within
/// a pattern. The flips are pre-drawn into per-node masks (a flip is a
/// Bernoulli draw independent of the computed value, so pre-drawing
/// commutes with evaluation), then one bit-parallel pass applies them.
/// Gate evaluation stays 64-wide, while the answers and the post-call RNG
/// state are those of evaluating the same patterns one at a time. The
/// stream is deterministic per (netlist, profile, seed).
///
/// The netlist is held as a [`Cow`], so the engine normally borrows (the
/// static-oracle case) but an upper layer may swap in an owned netlist of
/// the same shape per key-rotation epoch ([`FaultSimulator::install`]) —
/// the rates, RNG stream, and scratch all survive the swap.
#[derive(Debug, Clone)]
pub struct FaultSimulator<'a> {
    netlist: Cow<'a, Netlist>,
    profile: ErrorProfile,
    /// Scratch buffer reused across calls.
    values: Vec<u64>,
    /// Pre-drawn flip masks (one slot per noisy node), reused across calls
    /// so a pass allocates nothing.
    flips: Vec<u64>,
    rng: StdRng,
}

impl<'a> FaultSimulator<'a> {
    /// Creates an engine for `netlist` with the given `profile` and noise
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not cover exactly the netlist's nodes.
    pub fn new(netlist: &'a Netlist, profile: ErrorProfile, seed: u64) -> Self {
        Self::over(Cow::Borrowed(netlist), profile, seed)
    }

    /// Creates an engine over an *owned* netlist (e.g. one resolved per
    /// rotation epoch) with the given `profile` and noise seed.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not cover exactly the netlist's nodes.
    pub fn owned(netlist: Netlist, profile: ErrorProfile, seed: u64) -> FaultSimulator<'static> {
        FaultSimulator::over(Cow::Owned(netlist), profile, seed)
    }

    fn over(netlist: Cow<'a, Netlist>, profile: ErrorProfile, seed: u64) -> Self {
        assert_eq!(
            profile.len(),
            netlist.len(),
            "error profile must cover every netlist node"
        );
        FaultSimulator {
            values: vec![0; netlist.len()],
            flips: vec![0; profile.noisy.len()],
            netlist,
            profile,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The bound netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Swaps the evaluated netlist for `netlist` (same node count — the
    /// profile must keep covering every node), preserving the noise RNG
    /// stream and scratch. This is the key-rotation hook: a rotating layer
    /// re-resolves the keyed netlist per epoch and installs it here, so the
    /// noise state spans epochs exactly like a scalar query stream would.
    ///
    /// # Panics
    ///
    /// Panics if `netlist` has a different node count than the profile.
    pub fn install(&mut self, netlist: Netlist) {
        assert_eq!(
            self.profile.len(),
            netlist.len(),
            "installed netlist must match the error profile"
        );
        self.netlist = Cow::Owned(netlist);
    }

    /// The installed error profile.
    pub fn profile(&self) -> &ErrorProfile {
        &self.profile
    }

    /// Simulates the `block.count` patterns of `block` with fault
    /// injection; returns one `u64` per primary output (bit `k` = output
    /// value under pattern `k`). Lanes at or beyond `block.count` evaluate
    /// noise-free.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InputCountMismatch`] if the block width does
    /// not match the number of primary inputs.
    pub fn run(&mut self, block: &PatternBlock) -> Result<Vec<u64>, LogicError> {
        let mut out = Vec::with_capacity(self.netlist.outputs().len());
        self.run_into(block, 0, block.count, &mut out)?;
        Ok(out)
    }

    /// Evaluates the segment `start..start + len` of `block`'s patterns,
    /// writing the output lanes into a caller-owned buffer (cleared and
    /// refilled) — zero allocations per segment in the steady state.
    /// Lanes outside the segment evaluate noise-free; callers mask to the
    /// segment. Consecutive segments draw the same flips, and leave the
    /// same RNG state, as one [`FaultSimulator::run`] over their union.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InputCountMismatch`] on arity mismatch
    /// (leaving `out` cleared).
    ///
    /// # Panics
    ///
    /// Panics if `start + len` exceeds `block.count`.
    pub fn run_into(
        &mut self,
        block: &PatternBlock,
        start: usize,
        len: usize,
        out: &mut Vec<u64>,
    ) -> Result<(), LogicError> {
        out.clear();
        let nl: &Netlist = &self.netlist;
        if block.lanes.len() != nl.inputs().len() {
            return Err(LogicError::InputCountMismatch {
                expected: nl.inputs().len(),
                got: block.lanes.len(),
            });
        }
        assert!(start + len <= block.count, "segment exceeds block");
        // Pre-draw the flip masks pattern-major, noisy nodes in ascending
        // id order within each pattern.
        let rates = self.profile.rates();
        let flips = &mut self.flips;
        flips.clear();
        flips.resize(self.profile.noisy.len(), 0);
        for k in start..start + len {
            for (slot, &i) in flips.iter_mut().zip(&self.profile.noisy) {
                if self.rng.gen_bool(rates[i as usize]) {
                    *slot |= 1 << k;
                }
            }
        }
        let values = &mut self.values;
        let mut next_noisy = 0usize;
        for i in 0..nl.len() {
            let mut v = nl.eval_node_lanes(i, values, |k| block.lanes[k]);
            if rates[i] > 0.0 {
                v ^= flips[next_noisy];
                next_noisy += 1;
            }
            values[i] = v;
        }
        gshe_obs::count(NODES_EVALUATED, nl.len() as u64);
        out.extend(nl.outputs().iter().map(|o| values[o.index()]));
        Ok(())
    }

    /// Values of *all* nodes from the most recent run (packed lanes).
    pub fn node_values(&self) -> &[u64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bf2::Bf2;
    use crate::builder::NetlistBuilder;
    use crate::sim::Simulator;

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

    /// One pattern through the engine, as a scalar caller sees it.
    fn run_one(sim: &mut FaultSimulator<'_>, inputs: &[bool]) -> Vec<bool> {
        let block = PatternBlock::from_patterns(&[inputs.to_vec()]);
        let lanes = sim.run(&block).unwrap();
        lanes.iter().map(|lane| lane & 1 == 1).collect()
    }

    #[test]
    fn quiet_profile_matches_plain_simulator() {
        let nl = adder();
        let mut rng = StdRng::seed_from_u64(9);
        let mut plain = Simulator::new(&nl);
        let mut noisy = FaultSimulator::new(&nl, ErrorProfile::zero(nl.len()), 1);
        for _ in 0..8 {
            let block = PatternBlock::random(2, &mut rng);
            assert_eq!(plain.run(&block).unwrap(), noisy.run(&block).unwrap());
        }
    }

    #[test]
    fn scalar_and_block_agree_when_quiet() {
        let nl = adder();
        let mut sim = FaultSimulator::new(&nl, ErrorProfile::zero(nl.len()), 1);
        for p in 0..4u32 {
            let inputs: Vec<bool> = (0..2).map(|k| (p >> k) & 1 == 1).collect();
            assert_eq!(run_one(&mut sim, &inputs), nl.evaluate(&inputs));
        }
        assert!(sim
            .run(&PatternBlock::from_patterns(&[vec![true]]))
            .is_err());
    }

    #[test]
    fn certain_flip_inverts_the_output() {
        let nl = adder();
        let s = nl.find("s").unwrap();
        let profile = ErrorProfile::uniform_at(nl.len(), &[s], 1.0);
        let mut sim = FaultSimulator::new(&nl, profile, 3);
        let block = PatternBlock::from_patterns(&[vec![true, false]]);
        let lanes = sim.run(&block).unwrap();
        // XOR(1,0) = 1, flipped with certainty → 0; AND untouched → 0.
        assert_eq!(lanes[0] & 1, 0);
        assert_eq!(lanes[1] & 1, 0);
        assert_eq!(run_one(&mut sim, &[true, false]), vec![false, false]);
    }

    #[test]
    fn profile_construction_and_identity() {
        let nl = adder();
        let s = nl.find("s").unwrap();
        let quiet = ErrorProfile::zero(nl.len());
        assert!(quiet.is_quiet());
        assert_eq!(quiet.noisy_count(), 0);
        assert_eq!(quiet.max_rate(), 0.0);

        let mut p = ErrorProfile::uniform_at(nl.len(), &[s], 0.1);
        assert!(!p.is_quiet());
        assert_eq!(p.noisy_nodes().collect::<Vec<_>>(), vec![s]);
        assert_eq!(p.rate(s), 0.1);
        assert_eq!(p.max_rate(), 0.1);
        assert_ne!(p.fingerprint(), quiet.fingerprint());

        p.set(s, 0.0);
        assert!(p.is_quiet());
        assert_eq!(p.fingerprint(), quiet.fingerprint());
    }

    #[test]
    #[should_panic(expected = "error rate")]
    fn profile_rejects_out_of_range_rates() {
        let _ = ErrorProfile::from_rates(vec![0.5, 1.5]);
    }

    #[test]
    #[should_panic(expected = "cover every netlist node")]
    fn engine_rejects_mismatched_profile() {
        let nl = adder();
        let _ = FaultSimulator::new(&nl, ErrorProfile::zero(nl.len() + 1), 0);
    }

    #[test]
    fn scalar_stream_block_matches_scalar_calls_bit_for_bit() {
        // Splitting a block into segments changes neither the lanes nor
        // the post-call RNG state: a whole-block run and the same block
        // answered segment by segment (down to one pattern at a time) are
        // twins.
        let nl = adder();
        let s = nl.find("s").unwrap();
        let c = nl.find("c").unwrap();
        let profile = ErrorProfile::uniform_at(nl.len(), &[s, c], 0.3);
        let mut rng = StdRng::seed_from_u64(11);
        let mut whole = FaultSimulator::new(&nl, profile.clone(), 7);
        let mut split = FaultSimulator::new(&nl, profile, 7);
        let mut seg = Vec::new();
        for cuts in [vec![0usize, 64], vec![0, 17, 47, 64], (0..=64).collect()] {
            let block = PatternBlock::random(2, &mut rng);
            let lanes = whole.run(&block).unwrap();
            let mut joined = vec![0u64; lanes.len()];
            for w in cuts.windows(2) {
                let (start, len) = (w[0], w[1] - w[0]);
                split.run_into(&block, start, len, &mut seg).unwrap();
                let mask = if len == 64 {
                    !0
                } else {
                    ((1u64 << len) - 1) << start
                };
                for (j, lane) in joined.iter_mut().zip(&seg) {
                    *j |= lane & mask;
                }
            }
            assert_eq!(joined, lanes, "cuts {cuts:?}");
        }
        // Twins must still agree afterwards: the streams stayed in sync.
        let probe = [true, true];
        assert_eq!(run_one(&mut whole, &probe), run_one(&mut split, &probe));
    }

    #[test]
    fn install_swaps_the_netlist_and_keeps_the_noise_stream() {
        let nl = adder();
        let s = nl.find("s").unwrap();
        let profile = ErrorProfile::uniform_at(nl.len(), &[s], 0.5);
        let mut a = FaultSimulator::new(&nl, profile.clone(), 3);
        let mut b = FaultSimulator::new(&nl, profile, 3);
        let _ = run_one(&mut a, &[true, false]);
        let _ = run_one(&mut b, &[true, false]);
        // Install a structurally different netlist of the same size into
        // `a`: its answers change, but the RNG stream stays the twin's.
        let mut swapped = adder();
        let s2 = swapped.find("s").unwrap();
        swapped.set_gate2_function(s2, Bf2::XNOR).unwrap();
        a.install(swapped.clone());
        for p in 0..4u32 {
            let inputs: Vec<bool> = (0..2).map(|k| (p >> k) & 1 == 1).collect();
            let ya = run_one(&mut a, &inputs);
            let yb = run_one(&mut b, &inputs);
            // Same flip draws, different function: outputs differ exactly
            // where the swapped gate's clean value differs.
            assert_eq!(ya[0], !yb[0], "XNOR vs XOR under identical flips");
            assert_eq!(ya[1], yb[1], "carry gate untouched");
        }
    }

    #[test]
    #[should_panic(expected = "match the error profile")]
    fn install_rejects_mismatched_size() {
        let nl = adder();
        let mut sim = FaultSimulator::new(&nl, ErrorProfile::zero(nl.len()), 0);
        let mut b = NetlistBuilder::new("tiny");
        let x = b.input("x");
        b.output(x);
        sim.install(b.finish().unwrap());
    }
}
