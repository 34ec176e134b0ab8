//! Quick wall-clock harness for the s38584 SAT attack (the
//! `sat_attack_s38584` criterion bench's workload, without criterion's
//! warmup overhead). Used to compare solver revisions during development.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spin_hall_security::prelude::*;
use std::time::Instant;

fn main() {
    let spec = spin_hall_security::logic::suites::spec("s38584").expect("benchmark");
    let nl = spin_hall_security::logic::suites::benchmark_scaled(spec, 40, 1);
    let picks = select_gates(&nl, 0.05, 3);
    let mut rng = StdRng::seed_from_u64(3);
    let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).expect("camouflage");

    let runner =
        AttackRunner::with_config(AttackKind::Sat, AttackConfig::with_timeout_secs(120), 0);
    let reps = 3;
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        let out = runner.run(&keyed, &mut OracleStack::exact(&nl));
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(out.status, AttackStatus::Success);
        best = best.min(dt);
        println!(
            "{dt:.3}s  iters={} decisions={} conflicts={} learnts={} deleted={} restarts={}",
            out.iterations,
            out.solver_stats.decisions,
            out.solver_stats.conflicts,
            out.solver_stats.learnts,
            out.solver_stats.deleted,
            out.solver_stats.restarts,
        );
    }
    println!("best {best:.3}s");
}
