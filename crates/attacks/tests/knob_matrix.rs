//! Differential test over the attack engine's remaining knobs: on random
//! small keyed netlists, every combination of cone-of-influence
//! reduction (`CoiMode::{On, Off}`), SAT simplification
//! (`SimplifyMode::{Off, On}`) and attack (`AttackKind::ALL`) must end
//! `Success` against the exact chip. The knobs may change the search
//! trajectory (iterations, queries, which key comes out), never the
//! verdict.
//!
//! Every key from the exact attacks (SAT, Double DIP) must be
//! functionally equivalent to the original design. AppSAT's key is only
//! probably approximately correct: it exits once a candidate matches 48
//! random samples, so on these small designs its key is often wrong on a
//! few patterns whatever the knobs. Its run must still return a key of
//! the full width.
//!
//! The 288 attacks take minutes (about 2.5 min in release on a 2-vCPU
//! VM), so the test is ignored by default; CI runs it in release:
//!
//! ```text
//! cargo test -q --release -p gshe-attacks --test knob_matrix -- --ignored
//! ```

use gshe_attacks::{
    verify_key, AttackConfig, AttackKind, AttackRunner, AttackStatus, CoiMode, OracleStack,
    SimplifyMode,
};
use gshe_camo::{camouflage, select_gates, CamoScheme};
use gshe_logic::{GeneratorConfig, NetlistGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    #[ignore = "takes minutes; CI runs it in release with --ignored"]
    fn every_knob_combination_recovers_a_key(
        inputs in 8usize..13,
        outputs in 2usize..7,
        gates in 40usize..121,
        level in 0.10f64..0.30,
        seed in 0u64..1_000_000,
    ) {
        let nl = NetlistGenerator::new(
            GeneratorConfig::new("knobs", inputs, outputs, gates).with_seed(seed),
        )
        .unwrap()
        .generate();
        let picks = select_gates(&nl, level, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        for coi in [CoiMode::On, CoiMode::Off] {
            for simplify in [SimplifyMode::Off, SimplifyMode::On] {
                for kind in AttackKind::ALL {
                    let config = AttackConfig::with_timeout_secs(120)
                        .with_coi(coi)
                        .with_simplify(simplify);
                    let out = AttackRunner::with_config(kind, config, seed)
                        .run(&keyed, &mut OracleStack::exact(&nl));
                    let cell = format!(
                        "seed {seed}, {kind}, coi {}, simplify {}",
                        coi.name(),
                        simplify.name()
                    );
                    prop_assert_eq!(out.status, AttackStatus::Success, "{}", cell);
                    let key = out.key.as_ref().unwrap();
                    prop_assert_eq!(key.len(), keyed.key_len(), "{}", cell);
                    if kind != AttackKind::AppSat {
                        let v = verify_key(&nl, &keyed, key).unwrap();
                        prop_assert!(v.functionally_equivalent, "{}: wrong key", cell);
                    }
                }
            }
        }
    }
}
