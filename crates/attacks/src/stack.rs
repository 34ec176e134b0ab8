//! The composable **oracle stack**: noise × rotation as layers over one
//! bit-parallel evaluation engine.
//!
//! The paper's two defenses — stochastic switching (Sec. V-B) and
//! polymorphic key rotation (Sec. V-C) — are knobs on one device
//! substrate, not separate chips: a GSHE fabric can rotate its key *and*
//! clock its switches into the stochastic regime at the same time
//! (dynamic camouflaging à la Rangarajan et al., arXiv:1811.06012; the
//! deterministic-to-probabilistic continuum of arXiv:1904.00421). This
//! module models that composability directly:
//!
//! * the **base layer** — a bit-parallel pass over a netlist, either exact
//!   ([`gshe_logic::Simulator`] semantics) or fault-injecting
//!   ([`FaultSimulator`] with an [`ErrorProfile`]);
//! * an optional **rotation layer** — epoch-segmented key resolution: the
//!   chip answers `period` queries per key, then draws a fresh random key
//!   and installs the re-resolved netlist into the base;
//! * an optional **caching layer** — lives in `gshe-campaign` (the cache
//!   is campaign-wide infrastructure) and composes over the bare exact
//!   stack only, the one configuration whose answers are memoizable.
//!
//! Every composition answers through one segment loop, so any stack
//! answers 64 patterns per pass end to end. The constructors name the
//! paper's chips: [`OracleStack::exact`] (the perfect working chip),
//! [`OracleStack::noisy`] (Sec. V-B), [`OracleStack::rotating`]
//! (Sec. V-C) and [`OracleStack::rotating_noisy`] (both defenses at once).
//!
//! ## Seed-salt composition
//!
//! A stack consumes up to two independent RNG streams, each derived from
//! the *same* caller seed with a layer-specific salt, so the layers
//! compose without stealing each other's draws:
//!
//! * noise stream: `seed ^` [`NOISE_SEED_SALT`];
//! * rotation key stream: `seed ^` [`ROTATION_SEED_SALT`].
//!
//! The salts are plain constants, so a seeded chip answers the same way
//! in every run, and the combined stack draws both streams from one seed
//! without perturbing either.
//!
//! ## One evaluation path
//!
//! The chip's semantics are *per query*: rotation counts queries, and the
//! noise stream draws one `gen_bool` per noisy node per query
//! ([`FaultSimulator`]'s pattern-major stream). `query_block` splits the
//! block at epoch boundaries — without rotation the whole block is one
//! segment — and answers each segment with one 64-wide pass over the
//! epoch's netlist. `query` is the same loop over a one-pattern block. A
//! block is therefore answered exactly as the same patterns queried one
//! at a time: epochs, key draws, flips, and post-call RNG state included.

use crate::oracle::Oracle;
use gshe_camo::KeyedNetlist;
use gshe_logic::{sim, ErrorProfile, FaultSimulator, Netlist, PatternBlock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// Salt folded into the caller seed for the noise stream.
pub const NOISE_SEED_SALT: u64 = 0x570C_4A57;

/// Salt folded into the caller seed for the rotation key stream.
pub const ROTATION_SEED_SALT: u64 = 0xD0_7A7E;

/// The stack's base layer: one bit-parallel evaluation pass over a
/// netlist, exact or fault-injecting. The netlist is swappable in place,
/// so a rotation layer can re-resolve per epoch while the scratch buffers
/// and, for the noisy base, the noise RNG stream survive.
#[derive(Debug, Clone)]
enum EvalLayer<'a> {
    /// Deterministic evaluation ([`gshe_logic::Simulator`] semantics).
    Exact {
        /// The evaluated netlist (borrowed for static chips, owned once a
        /// rotation layer has installed a resolved epoch netlist).
        netlist: Cow<'a, Netlist>,
        /// Bit-parallel scratch reused across calls.
        scratch: Vec<u64>,
    },
    /// Fault-injecting evaluation: the noise layer fused onto the base
    /// engine (dense per-node rates, one RNG stream).
    Noisy(FaultSimulator<'a>),
}

impl<'a> EvalLayer<'a> {
    fn exact(netlist: Cow<'a, Netlist>) -> Self {
        EvalLayer::Exact {
            netlist,
            scratch: Vec::new(),
        }
    }

    /// Swaps the evaluated netlist (same node count), keeping scratch and
    /// any noise state.
    fn install(&mut self, netlist: Netlist) {
        match self {
            EvalLayer::Exact { netlist: slot, .. } => *slot = Cow::Owned(netlist),
            EvalLayer::Noisy(engine) => engine.install(netlist),
        }
    }

    fn netlist(&self) -> &Netlist {
        match self {
            EvalLayer::Exact { netlist, .. } => netlist,
            EvalLayer::Noisy(engine) => engine.netlist(),
        }
    }

    fn profile(&self) -> Option<&ErrorProfile> {
        match self {
            EvalLayer::Exact { .. } => None,
            EvalLayer::Noisy(engine) => Some(engine.profile()),
        }
    }

    /// A segment (`start..start + len`) of `block`, unmasked, into a
    /// caller-owned buffer. The noisy base draws the noise stream for
    /// exactly the segment's patterns.
    fn segment_into(&mut self, block: &PatternBlock, start: usize, len: usize, out: &mut Vec<u64>) {
        match self {
            EvalLayer::Exact { netlist, scratch } => {
                sim::run_with_scratch_into(netlist, scratch, block, out)
            }
            EvalLayer::Noisy(engine) => engine.run_into(block, start, len, out),
        }
        .expect("oracle input arity mismatch")
    }
}

/// The rotation layer's state: which keyed netlist to re-resolve, how
/// often, and the key stream.
#[derive(Debug, Clone)]
struct Rotation<'a> {
    keyed: &'a KeyedNetlist,
    period: u64,
    rng: StdRng,
}

impl Rotation<'_> {
    fn fresh_resolution(&mut self) -> Netlist {
        let key: Vec<bool> = (0..self.keyed.key_len())
            .map(|_| self.rng.gen_bool(0.5))
            .collect();
        self.keyed.resolve(&key).expect("key width is correct")
    }
}

/// A layered oracle: base evaluation (exact or noisy), with an optional
/// key-rotation layer on top. See the [module docs](self) for the layer
/// table, composition rules, and seed-salt derivation.
#[derive(Debug, Clone)]
pub struct OracleStack<'a> {
    base: EvalLayer<'a>,
    rotation: Option<Rotation<'a>>,
    count: u64,
    /// Per-segment lanes, hoisted so a block query reuses one buffer
    /// across all its segments (and across calls).
    seg_buf: Vec<u64>,
    /// Input lanes and output lanes of a scalar query's one-pattern
    /// block, hoisted so `query` allocates only its answer.
    one_inputs: Vec<u64>,
    one_outputs: Vec<u64>,
}

impl<'a> OracleStack<'a> {
    fn over(base: EvalLayer<'a>, rotation: Option<Rotation<'a>>) -> Self {
        OracleStack {
            base,
            rotation,
            count: 0,
            seg_buf: Vec::new(),
            one_inputs: Vec::new(),
            one_outputs: Vec::new(),
        }
    }

    /// The bare deterministic chip over the original netlist.
    pub fn exact(netlist: &'a Netlist) -> Self {
        Self::over(EvalLayer::exact(Cow::Borrowed(netlist)), None)
    }

    /// The stochastic chip of Sec. V-B: the defender's keyed netlist with
    /// correct functions installed, every node flipping per `profile`
    /// (noise stream `seed ^` [`NOISE_SEED_SALT`]). Errors at internal
    /// cells propagate and superpose into correlated output errors —
    /// what breaks the consistency assumption of SAT-style attacks.
    /// [`KeyedNetlist::uniform_error_profile`] is the uniform placement
    /// on the cloaked cells.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not cover the keyed netlist's nodes.
    pub fn noisy(keyed: &'a KeyedNetlist, profile: ErrorProfile, seed: u64) -> Self {
        let engine = FaultSimulator::new(keyed.netlist(), profile, seed ^ NOISE_SEED_SALT);
        Self::over(EvalLayer::Noisy(engine), None)
    }

    /// The key-rotating chip of Sec. V-C: correct key for the first epoch,
    /// a fresh random key every `period` queries after that (dynamic
    /// functional obfuscation after Koteshwara et al. \[40\]; key stream
    /// `seed ^` [`ROTATION_SEED_SALT`]). Answers from different epochs are
    /// mutually inconsistent, starving SAT attacks of a consistent
    /// solution space.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn rotating(keyed: &'a KeyedNetlist, period: u64, seed: u64) -> Self {
        let (rotation, resolved) = Self::rotation_over(keyed, period, seed);
        Self::over(EvalLayer::exact(Cow::Owned(resolved)), Some(rotation))
    }

    /// The **combined defense**: a rotating chip whose switches also run
    /// in the stochastic regime — rotation layered over the noisy base.
    /// Key stream and noise stream derive from the same `seed` with their
    /// respective salts, so the key sequence is the one
    /// [`OracleStack::rotating`] draws from that seed.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or the profile does not cover the keyed
    /// netlist's nodes.
    pub fn rotating_noisy(
        keyed: &'a KeyedNetlist,
        profile: ErrorProfile,
        period: u64,
        seed: u64,
    ) -> Self {
        let (rotation, resolved) = Self::rotation_over(keyed, period, seed);
        let engine = FaultSimulator::owned(resolved, profile, seed ^ NOISE_SEED_SALT);
        Self::over(EvalLayer::Noisy(engine), Some(rotation))
    }

    fn rotation_over(keyed: &'a KeyedNetlist, period: u64, seed: u64) -> (Rotation<'a>, Netlist) {
        assert!(period > 0, "rotation period must be positive");
        let resolved = keyed
            .resolve(&keyed.correct_key())
            .expect("correct key resolves");
        (
            Rotation {
                keyed,
                period,
                rng: StdRng::seed_from_u64(seed ^ ROTATION_SEED_SALT),
            },
            resolved,
        )
    }

    /// The rotation layer's period, if one is stacked.
    pub fn rotation_period(&self) -> Option<u64> {
        self.rotation.as_ref().map(|r| r.period)
    }

    /// The noise layer's error profile, if the base is noisy.
    pub fn profile(&self) -> Option<&ErrorProfile> {
        self.base.profile()
    }

    /// Rotates if the query counter sits on an epoch boundary (the
    /// first epoch uses the correct key, so count 0 never rotates).
    fn maybe_rotate(&mut self) {
        if let Some(rot) = &mut self.rotation {
            if self.count > 0 && self.count.is_multiple_of(rot.period) {
                let resolved = rot.fresh_resolution();
                self.base.install(resolved);
            }
        }
    }

    /// The one evaluation path: answers `block` into `lanes` (cleared and
    /// refilled, one entry per output), split at epoch boundaries —
    /// without rotation the whole block is one segment — each segment
    /// answered by one pass over the epoch's netlist.
    fn answer_into(&mut self, block: &PatternBlock, lanes: &mut Vec<u64>) {
        lanes.clear();
        lanes.resize(self.num_outputs(), 0);
        let mut k = 0usize;
        while k < block.count {
            self.maybe_rotate();
            let take = match &self.rotation {
                Some(rot) => (rot.period - self.count % rot.period).min(64) as usize,
                None => 64,
            }
            .min(block.count - k);
            let segment = if take == 64 {
                !0u64
            } else {
                ((1u64 << take) - 1) << k
            };
            self.base.segment_into(block, k, take, &mut self.seg_buf);
            for (lane, out) in lanes.iter_mut().zip(&self.seg_buf) {
                *lane |= out & segment;
            }
            self.count += take as u64;
            k += take;
        }
    }

    /// Latency-histogram name for this stack's layer composition, so the
    /// metrics snapshot separates rotating from static query costs.
    fn latency_histogram(&self, block: bool) -> &'static str {
        match (self.rotation.is_some(), block) {
            (false, false) => "oracle.eval.query_ns",
            (false, true) => "oracle.eval.query_block_ns",
            (true, false) => "oracle.rotating.query_ns",
            (true, true) => "oracle.rotating.query_block_ns",
        }
    }
}

impl Oracle for OracleStack<'_> {
    fn query(&mut self, inputs: &[bool]) -> Vec<bool> {
        let timed = gshe_obs::enabled().then(std::time::Instant::now);
        let mut one = PatternBlock {
            lanes: std::mem::take(&mut self.one_inputs),
            count: 1,
        };
        one.lanes.clear();
        one.lanes.extend(inputs.iter().map(|&bit| u64::from(bit)));
        let mut lanes = std::mem::take(&mut self.one_outputs);
        self.answer_into(&one, &mut lanes);
        let out = lanes.iter().map(|lane| lane & 1 == 1).collect();
        (self.one_inputs, self.one_outputs) = (one.lanes, lanes);
        if let Some(t0) = timed {
            gshe_obs::record(
                self.latency_histogram(false),
                t0.elapsed().as_nanos() as u64,
            );
        }
        out
    }

    fn query_block(&mut self, block: &PatternBlock) -> Vec<u64> {
        let timed = gshe_obs::enabled().then(std::time::Instant::now);
        let mut lanes = Vec::with_capacity(self.num_outputs());
        self.answer_into(block, &mut lanes);
        if let Some(t0) = timed {
            gshe_obs::record(self.latency_histogram(true), t0.elapsed().as_nanos() as u64);
        }
        lanes
    }

    fn num_inputs(&self) -> usize {
        self.base.netlist().inputs().len()
    }

    fn num_outputs(&self) -> usize {
        self.base.netlist().outputs().len()
    }

    fn queries(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::bench_format::{parse_bench, C17_BENCH};

    fn c17_keyed() -> (Netlist, KeyedNetlist) {
        let nl = parse_bench(C17_BENCH).unwrap();
        let picks = select_gates(&nl, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        (nl, keyed)
    }

    #[test]
    fn combined_stack_blocks_match_scalar_queries_bit_for_bit() {
        // The headline contract: rotation × noise composed, `query_block`
        // vs 64 scalar queries, across epoch boundaries (period 1 rotates
        // before every query after the first; 7 ∤ 64 drifts the boundary
        // through consecutive blocks; 20 puts three boundaries inside one
        // block) at a nonzero error rate.
        let (_, keyed) = c17_keyed();
        for period in [1u64, 7, 20] {
            let profile = keyed.uniform_error_profile(0.3);
            let mut fast = OracleStack::rotating_noisy(&keyed, profile.clone(), period, 5);
            let mut slow = OracleStack::rotating_noisy(&keyed, profile, period, 5);
            let mut rng = StdRng::seed_from_u64(4);
            for round in 0..3 {
                let block = PatternBlock::random(5, &mut rng);
                let lanes = fast.query_block(&block);
                for k in 0..block.count {
                    let y = slow.query(&block.pattern(k));
                    for (o, &bit) in y.iter().enumerate() {
                        assert_eq!(
                            bit,
                            (lanes[o] >> k) & 1 == 1,
                            "period {period} round {round} pattern {k} output {o}"
                        );
                    }
                }
                assert_eq!(fast.queries(), slow.queries(), "period {period}");
            }
        }
    }

    #[test]
    fn combined_stack_leaves_count_and_both_rng_streams_in_sync() {
        // After a (partial) block, the stack must sit in exactly the state
        // the scalar loop leaves: query count, rotation key stream, AND
        // noise RNG position. Follow-up scalar queries spanning several
        // further rotations must therefore agree between the twins.
        let (_, keyed) = c17_keyed();
        for period in [1u64, 7, 20] {
            let profile = keyed.uniform_error_profile(0.25);
            let mut fast = OracleStack::rotating_noisy(&keyed, profile.clone(), period, 9);
            let mut slow = OracleStack::rotating_noisy(&keyed, profile, period, 9);
            let mut rng = StdRng::seed_from_u64(6);
            let block = PatternBlock::random_n(5, 50, &mut rng);
            let _ = fast.query_block(&block);
            for k in 0..block.count {
                let _ = slow.query(&block.pattern(k));
            }
            assert_eq!(fast.queries(), slow.queries(), "period {period}");
            for q in 0..(3 * period + 2) {
                let p = block.pattern(q as usize % block.count);
                assert_eq!(
                    fast.query(&p),
                    slow.query(&p),
                    "period {period} post-block query {q} diverged"
                );
            }
        }
    }

    #[test]
    fn combined_stack_actually_rotates_and_flips() {
        // Sanity that both layers are live: at a 50% rate over six cloaked
        // cells plus period-4 rotation, blocks must disagree with the
        // clean chip on many lanes.
        let (nl, keyed) = c17_keyed();
        let profile = keyed.uniform_error_profile(0.5);
        let mut combined = OracleStack::rotating_noisy(&keyed, profile, 4, 11);
        assert_eq!(combined.rotation_period(), Some(4));
        assert!(combined.profile().is_some());
        let mut clean = OracleStack::exact(&nl);
        let mut rng = StdRng::seed_from_u64(2);
        let mut flipped = 0u32;
        for _ in 0..8 {
            let block = PatternBlock::random(5, &mut rng);
            let a = combined.query_block(&block);
            let b = clean.query_block(&block);
            flipped += a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x ^ y).count_ones())
                .sum::<u32>();
        }
        assert!(flipped > 100, "only {flipped} lane flips");
    }

    #[test]
    fn rotation_key_stream_is_independent_of_the_noise_layer() {
        // Stacking noise must not steal rotation key draws: an exact
        // rotating stack and a rate-0 noisy rotating stack resolve the
        // same key sequence, hence answer identically.
        let (_, keyed) = c17_keyed();
        let quiet = ErrorProfile::zero(keyed.netlist().len());
        let mut exact = OracleStack::rotating(&keyed, 3, 17);
        let mut noisy = OracleStack::rotating_noisy(&keyed, quiet, 3, 17);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2 {
            let block = PatternBlock::random(5, &mut rng);
            assert_eq!(exact.query_block(&block), noisy.query_block(&block));
        }
        for p in 0..10u32 {
            let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
            assert_eq!(exact.query(&v), noisy.query(&v));
        }
    }

    #[test]
    #[should_panic(expected = "rotation period")]
    fn zero_period_is_rejected() {
        let (_, keyed) = c17_keyed();
        let profile = ErrorProfile::zero(keyed.netlist().len());
        let _ = OracleStack::rotating_noisy(&keyed, profile, 0, 1);
    }
}
