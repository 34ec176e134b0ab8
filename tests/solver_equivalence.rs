//! The CDCL-rewrite equivalence pin on a real benchmark: the seeded SAT
//! attack on s38584 (scaled, 5% protection — the batched-DIP benchmark
//! instance) must recover a functionally correct key under **both**
//! restart pacers. The solver rewrite may change the search trajectory
//! (query and conflict counts), but never the attack's semantic outcome.
//!
//! CI runs this as the solver smoke test alongside the `gshe-sat`
//! property suite.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spin_hall_security::logic::suites::{benchmark_scaled, spec};
use spin_hall_security::prelude::*;

#[test]
fn restart_modes_recover_correct_keys_on_s38584() {
    let suite = spec("s38584").expect("s-suite benchmark present");
    let nl = benchmark_scaled(suite, 40, 1);
    let picks = select_gates(&nl, 0.05, 3);
    let mut rng = StdRng::seed_from_u64(3);
    let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).expect("camouflage");

    let mut outcomes = Vec::new();
    for mode in [RestartMode::LbdEma, RestartMode::Luby] {
        let config = AttackConfig::with_timeout_secs(120)
            .with_dip_batch(16)
            .with_restart_mode(mode);
        let runner = AttackRunner::with_config(AttackKind::Sat, config, 0);
        let out = runner.run(&keyed, &mut OracleStack::exact(&nl));
        assert_eq!(out.status, AttackStatus::Success, "mode {mode:?}");
        let key = out.key.as_ref().expect("successful attack returns a key");
        let check = verify_key(&nl, &keyed, key).expect("verification runs");
        assert!(
            check.functionally_equivalent,
            "mode {mode:?} recovered a wrong key"
        );
        outcomes.push(out.status);
    }
    // Both pacers agree on the attack verdict, not just on succeeding
    // here — the rewrite contract is identical semantic outcomes.
    assert_eq!(outcomes[0], outcomes[1]);
}
