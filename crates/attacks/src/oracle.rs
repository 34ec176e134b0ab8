//! The [`Oracle`] trait: the working chip the adversary owns.
//!
//! Every chip — exact, stochastic (Sec. V-B), key-rotating (Sec. V-C) or
//! both at once — is an [`OracleStack`](crate::OracleStack) composition;
//! the campaign cache and the cone-of-influence projection
//! ([`crate::CoiOracle`]) wrap another oracle. Block queries answer up to
//! 64 patterns per call while query accounting stays per-pattern.

use gshe_logic::PatternBlock;

/// A black-box working chip: apply inputs, observe outputs.
pub trait Oracle {
    /// Queries the chip once.
    fn query(&mut self, inputs: &[bool]) -> Vec<bool>;
    /// Number of primary inputs.
    fn num_inputs(&self) -> usize;
    /// Number of primary outputs.
    fn num_outputs(&self) -> usize;
    /// Queries issued so far.
    fn queries(&self) -> u64;

    /// Queries the chip on a whole [`PatternBlock`] (up to 64 patterns) in
    /// one call, returning one `u64` per primary output with bit `k` set to
    /// the output's value under pattern `k`.
    ///
    /// The default implementation loops over [`Oracle::query`], so every
    /// pattern still counts as one query. Block-capable oracles (e.g.
    /// any [`OracleStack`](crate::OracleStack) composition over the
    /// bit-parallel engine)
    /// override this to answer all 64 patterns per pass while keeping the
    /// same query accounting.
    fn query_block(&mut self, block: &PatternBlock) -> Vec<u64> {
        let mut lanes = vec![0u64; self.num_outputs()];
        for k in 0..block.count {
            let y = self.query(&block.pattern(k));
            debug_assert_eq!(y.len(), lanes.len(), "oracle output arity drifted");
            for (lane, &bit) in lanes.iter_mut().zip(&y) {
                if bit {
                    *lane |= 1 << k;
                }
            }
        }
        lanes
    }
}

#[cfg(test)]
mod tests {
    //! The oracle contract on every stack base: query accounting, block
    //! answers equal to the scalar loop, and the noise layer's statistics.

    use super::*;
    use crate::stack::OracleStack;
    use gshe_camo::{camouflage, select_gates, CamoScheme, KeyedNetlist};
    use gshe_logic::bench_format::{parse_bench, C17_BENCH};
    use gshe_logic::{ErrorProfile, Netlist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn c17_keyed() -> (Netlist, KeyedNetlist) {
        let nl = parse_bench(C17_BENCH).unwrap();
        let picks = select_gates(&nl, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        (nl, keyed)
    }

    fn noisy(keyed: &KeyedNetlist, rate: f64, seed: u64) -> OracleStack<'_> {
        OracleStack::noisy(keyed, keyed.uniform_error_profile(rate), seed)
    }

    /// All 32 input patterns of c17.
    fn c17_patterns() -> impl Iterator<Item = Vec<bool>> {
        (0..32u32).map(|p| (0..5).map(|k| (p >> k) & 1 == 1).collect())
    }

    /// Scalar queries (over `reps` sweeps of all 32 patterns) on which
    /// `oracle` disagrees with the clean netlist.
    fn mismatches(oracle: &mut dyn Oracle, nl: &Netlist, reps: usize) -> usize {
        (0..reps)
            .flat_map(|_| c17_patterns())
            .filter(|v| oracle.query(v) != nl.evaluate(v))
            .count()
    }

    #[test]
    fn netlist_oracle_counts_queries() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let mut o = OracleStack::exact(&nl);
        assert_eq!(o.queries(), 0);
        let y = o.query(&[false; 5]);
        assert_eq!(y.len(), 2);
        assert_eq!(o.queries(), 1);
        assert_eq!(o.num_inputs(), 5);
        assert_eq!(o.num_outputs(), 2);
    }

    #[test]
    fn zero_error_stochastic_oracle_matches_original() {
        let (nl, keyed) = c17_keyed();
        assert_eq!(mismatches(&mut noisy(&keyed, 0.0, 5), &nl, 1), 0);
    }

    #[test]
    fn high_error_oracle_disagrees_often() {
        let (nl, keyed) = c17_keyed();
        let flips = mismatches(&mut noisy(&keyed, 0.5, 5), &nl, 20);
        assert!(flips > 100, "only {flips} mismatches at 50% error");
    }

    #[test]
    fn small_error_rate_is_mostly_correct() {
        let (nl, keyed) = c17_keyed();
        let flips = mismatches(&mut noisy(&keyed, 0.02, 6), &nl, 20);
        // 6 cells × 2% ≈ 11% worst-case output error; must be well below 30%.
        let rate = flips as f64 / 640.0;
        assert!(rate < 0.3, "output error rate {rate}");
        assert!(flips > 0, "2% per-cell error should show up in 640 queries");
    }

    #[test]
    fn oracle_is_reproducible_per_seed() {
        let (_, keyed) = c17_keyed();
        let inputs = [true, false, true, true, false];
        let mut a = noisy(&keyed, 0.3, 42);
        let mut b = noisy(&keyed, 0.3, 42);
        for _ in 0..10 {
            assert_eq!(a.query(&inputs), b.query(&inputs));
        }
    }

    #[test]
    #[should_panic(expected = "error rate")]
    fn error_rate_is_validated() {
        let (_, keyed) = c17_keyed();
        let _ = noisy(&keyed, 1.5, 0);
    }

    #[test]
    fn block_query_matches_scalar_queries_and_counts() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let patterns: Vec<Vec<bool>> = c17_patterns().take(20).collect();
        let block = PatternBlock::from_patterns(&patterns);

        // Bit-parallel override.
        let mut fast = OracleStack::exact(&nl);
        let lanes = fast.query_block(&block);
        assert_eq!(fast.queries(), 20, "block path must count every pattern");

        // Scalar reference.
        let mut slow = OracleStack::exact(&nl);
        for (k, p) in patterns.iter().enumerate() {
            let y = slow.query(p);
            for (o, &bit) in y.iter().enumerate() {
                assert_eq!(bit, (lanes[o] >> k) & 1 == 1, "pattern {k} output {o}");
            }
        }
        assert_eq!(slow.queries(), 20);
    }

    #[test]
    fn stochastic_block_query_counts_per_pattern() {
        // The noisy base's engine-backed query_block must count one query
        // per pattern, and with zero error it must agree bit-for-bit with
        // the deterministic bit-parallel path.
        let (_, keyed) = c17_keyed();
        let mut o = noisy(&keyed, 0.0, 1);
        let block = PatternBlock::from_patterns(&[vec![false; 5], vec![true; 5]]);
        let lanes = o.query_block(&block);
        assert_eq!(o.queries(), 2);
        assert_eq!(lanes.len(), o.num_outputs());
        assert_eq!(
            OracleStack::exact(keyed.netlist()).query_block(&block),
            lanes
        );
    }

    #[test]
    fn noisy_block_queries_flip_outputs() {
        // At 50% per-cell error over six cloaked cells, a full block must
        // disagree with the clean chip on many lanes.
        let (nl, keyed) = c17_keyed();
        let mut noisy = noisy(&keyed, 0.5, 9);
        let mut clean = OracleStack::exact(&nl);
        let mut rng = StdRng::seed_from_u64(2);
        let mut flipped = 0u32;
        for _ in 0..8 {
            let block = PatternBlock::random(5, &mut rng);
            let a = noisy.query_block(&block);
            let b = clean.query_block(&block);
            flipped += a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x ^ y).count_ones())
                .sum::<u32>();
        }
        assert!(flipped > 100, "only {flipped} lane flips at 50% error");
    }

    #[test]
    fn scalar_path_uses_a_dense_rate_table() {
        // The scalar path must not probe a per-node hash set: the noisy
        // base's engine profile is a dense per-node rate vector covering
        // *every* node, with the cloaked cells (and only those) noisy.
        let (_, keyed) = c17_keyed();
        let o = noisy(&keyed, 0.25, 3);
        let profile = o.profile().expect("noisy base carries a profile");
        assert_eq!(profile.len(), keyed.netlist().len(), "table must be dense");
        let mut expected: Vec<_> = keyed.camo_gates().iter().map(|g| g.node).collect();
        expected.sort_unstable();
        assert_eq!(profile.noisy_nodes().collect::<Vec<_>>(), expected);
        for node in profile.noisy_nodes() {
            assert_eq!(profile.rate(node), 0.25);
        }
    }

    #[test]
    fn rotating_block_edge_periods_match_scalar_bit_for_bit() {
        // Edge cases of the epoch-splitting block path: period 1 (rotate
        // before every query after the first), period 7 (does not divide
        // 64, so the boundary drifts through consecutive blocks), and
        // period 20 (one full block straddles the three epoch boundaries
        // at counts 20, 40, and 60). Each must match 64 scalar queries
        // bit-for-bit.
        let (_, keyed) = c17_keyed();
        for period in [1u64, 7, 20] {
            let mut fast = OracleStack::rotating(&keyed, period, 5);
            let mut slow = OracleStack::rotating(&keyed, period, 5);
            let mut rng = StdRng::seed_from_u64(4);
            for round in 0..2 {
                let block = PatternBlock::random(5, &mut rng);
                assert_eq!(block.count, 64);
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
    fn rotating_block_path_leaves_count_and_key_stream_in_sync() {
        // After a block query, the oracle must sit in *exactly* the state
        // the scalar loop would leave: same query count, same RNG position
        // in the key stream. Follow-up scalar queries spanning several
        // more rotations must therefore agree between the twins.
        let (_, keyed) = c17_keyed();
        for period in [1u64, 7, 20] {
            let mut fast = OracleStack::rotating(&keyed, period, 9);
            let mut slow = OracleStack::rotating(&keyed, period, 9);
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
    fn heterogeneous_profile_targets_single_cell() {
        // Per-switch tunability: only one cloaked cell noisy, at
        // certainty. Scalar queries must flip deterministically whenever
        // that cell's value matters.
        let (nl, keyed) = c17_keyed();
        let target = keyed.camo_gates()[0].node;
        let profile = ErrorProfile::uniform_at(keyed.netlist().len(), &[target], 1.0);
        let mut o = OracleStack::noisy(&keyed, profile, 4);
        assert_eq!(o.profile().map(ErrorProfile::max_rate), Some(1.0));
        assert!(
            mismatches(&mut o, &nl, 1) > 0,
            "a certain flip must reach an output"
        );
    }
}
