//! The attack entry point: [`AttackRunner::run`].
//!
//! The three oracle-guided attacks — SAT \[8\], Double DIP \[12\] and
//! AppSAT \[11\] — are one DIP-refinement loop ([`crate::dip_engine`])
//! under three policies. An [`AttackRunner`] names the policy
//! ([`AttackKind`]), carries the engine limits ([`AttackConfig`]) and
//! AppSAT's reinforcement seed, and is a plain `Copy + Send` value, so a
//! job description can cross thread boundaries and the attack itself runs
//! wherever the job lands.

use crate::coi::CoiMode;
use crate::dip_engine::{refine, RefinePolicy};
use crate::oracle::Oracle;
use gshe_camo::KeyedNetlist;
use gshe_sat::{SimplifyMode, SolverStats};
use std::time::Duration;

/// Attack configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// Wall-clock budget (the paper's t-o column; 48 h there, seconds to
    /// minutes at our scale).
    pub timeout: Duration,
    /// Hard cap on DIP iterations (`None` = unlimited).
    pub max_iterations: Option<u64>,
    /// Conflict budget per solver call; the attack checks the wall clock
    /// between budget slices.
    pub conflicts_per_slice: u64,
    /// Variable budget (mirrors the paper's lglib 134M-variable failure).
    pub max_vars: Option<usize>,
    /// Cone-of-influence miter reduction ([`CoiMode::On`] by default: a
    /// design whose cloaked cells reach only some outputs is attacked
    /// through their cone; [`CoiMode::Off`] keeps the full miter).
    pub coi: CoiMode,
    /// SAT simplification for the shared incremental solver
    /// ([`SimplifyMode::Auto`] by default: instances with at least
    /// [`gshe_sat::SIMPLIFY_AUTO_THRESHOLD`] problem clauses are
    /// preprocessed — subsumption, self-subsumption strengthening, and
    /// bounded variable elimination — and vivified at restart
    /// boundaries). The miter encoding does not depend on it.
    pub simplify: SimplifyMode,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            timeout: Duration::from_secs(60),
            max_iterations: None,
            conflicts_per_slice: 20_000,
            max_vars: Some(134_217_724),
            coi: CoiMode::default(),
            simplify: SimplifyMode::default(),
        }
    }
}

impl AttackConfig {
    /// Convenience constructor with a wall-clock budget in seconds.
    pub fn with_timeout_secs(secs: u64) -> Self {
        AttackConfig {
            timeout: Duration::from_secs(secs),
            ..Default::default()
        }
    }

    /// Returns the configuration with the cone-of-influence mode set.
    pub fn with_coi(self, coi: CoiMode) -> Self {
        AttackConfig { coi, ..self }
    }

    /// Returns the configuration with the SAT simplification mode set.
    pub fn with_simplify(self, simplify: SimplifyMode) -> Self {
        AttackConfig { simplify, ..self }
    }
}

/// How an attack ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackStatus {
    /// The DIP loop converged and a key was extracted.
    Success,
    /// The wall-clock budget ran out (the paper's "t-o").
    Timeout,
    /// The solver's resource budget was exhausted (the paper's
    /// "computational failure" rows).
    ResourceExhausted,
    /// The accumulated I/O constraints became contradictory — no key can
    /// explain the oracle's answers. The signature failure mode against the
    /// stochastic GSHE oracle (Sec. V-B).
    Inconsistent,
}

/// Attack result.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Terminal status.
    pub status: AttackStatus,
    /// The extracted key (on success).
    pub key: Option<Vec<bool>>,
    /// DIP iterations performed.
    pub iterations: u64,
    /// Oracle queries issued.
    pub queries: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Final solver statistics.
    pub solver_stats: SolverStats,
}

impl AttackOutcome {
    /// `true` when a key was produced.
    pub fn succeeded(&self) -> bool {
        self.status == AttackStatus::Success
    }
}

/// Which attack algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// The oracle-guided SAT attack (Subramanyan et al. \[8\]): a miter over
    /// two key copies; every discriminating input pattern (DIP) rules out
    /// at least one wrong key class.
    Sat,
    /// Double DIP (Shen & Zhou \[12\]): a double miter over four key copies
    /// rules out at least two wrong keys per query, then a single-DIP
    /// mop-up finishes the classes it can no longer split — fewer but
    /// costlier iterations than [`AttackKind::Sat`].
    DoubleDip,
    /// AppSAT (Shamsi et al. \[11\]): the SAT attack with a 48-pattern
    /// random-query reinforcement round every 4 DIPs, exiting early once a
    /// candidate key matches every sample. It needs a consistent
    /// input-output solution space, which a stochastic chip violates
    /// (Sec. V-B, fn. 6).
    AppSat,
}

impl AttackKind {
    /// All attack kinds, in the paper's presentation order.
    pub const ALL: [AttackKind; 3] = [AttackKind::Sat, AttackKind::DoubleDip, AttackKind::AppSat];

    /// Short machine-friendly name (used in spec files and CSV headers).
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Sat => "sat",
            AttackKind::DoubleDip => "double-dip",
            AttackKind::AppSat => "appsat",
        }
    }

    /// Parses [`AttackKind::name`] back into a kind.
    pub fn parse(name: &str) -> Option<AttackKind> {
        AttackKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully-specified, budgeted attack invocation: algorithm + limits.
///
/// `Copy + Send + 'static`, so it can be embedded in job descriptions that
/// move across worker threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackRunner {
    /// The algorithm.
    pub kind: AttackKind,
    /// Budget and solver limits shared by all three algorithms.
    pub config: AttackConfig,
    /// Seed for AppSAT's random reinforcement queries (ignored by the
    /// other attacks).
    pub seed: u64,
}

impl AttackRunner {
    /// A runner for `kind` under `config`; `seed` drives AppSAT's random
    /// reinforcement queries.
    pub fn with_config(kind: AttackKind, config: AttackConfig, seed: u64) -> Self {
        AttackRunner { kind, config, seed }
    }

    /// Runs the configured attack against `keyed` (attacker's view:
    /// structure and candidate sets only) using `oracle` as the working
    /// chip.
    pub fn run(&self, keyed: &KeyedNetlist, oracle: &mut dyn Oracle) -> AttackOutcome {
        let policy = match self.kind {
            AttackKind::Sat => RefinePolicy::Single,
            AttackKind::DoubleDip => RefinePolicy::DoubleDip,
            AttackKind::AppSat => RefinePolicy::AppSat {
                reinforce_every: 4,
                samples_per_round: 48,
                error_threshold: 0.0,
                seed: self.seed,
            },
        };
        refine(keyed, oracle, &self.config, &policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::verify_key;
    use crate::stack::OracleStack;
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::bench_format::{parse_bench, C17_BENCH};
    use gshe_logic::{GeneratorConfig, Netlist, NetlistGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keyed_over(nl: &Netlist, fraction: f64, seed: u64, scheme: CamoScheme) -> KeyedNetlist {
        let picks = select_gates(nl, fraction, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        camouflage(nl, &picks, scheme, &mut rng).unwrap()
    }

    fn generated(inputs: usize, outputs: usize, gates: usize, seed: u64) -> Netlist {
        NetlistGenerator::new(GeneratorConfig::new("t", inputs, outputs, gates).with_seed(seed))
            .unwrap()
            .generate()
    }

    /// Runs `kind` on the exact chip of `nl` and asserts that the recovered
    /// key is functionally correct.
    fn breaks(
        kind: AttackKind,
        nl: &Netlist,
        keyed: &KeyedNetlist,
        config: AttackConfig,
    ) -> AttackOutcome {
        let runner = AttackRunner::with_config(kind, config, 1);
        let out = runner.run(keyed, &mut OracleStack::exact(nl));
        assert_eq!(out.status, AttackStatus::Success, "{kind}");
        let v = verify_key(nl, keyed, out.key.as_ref().unwrap()).unwrap();
        assert!(v.functionally_equivalent, "{kind}: recovered key is wrong");
        out
    }

    fn send_check<T: Send + 'static>(_: &T) {}

    #[test]
    fn runner_is_send_and_breaks_c17_with_every_kind() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let keyed = keyed_over(&nl, 1.0, 5, CamoScheme::GsheAll16);
        for kind in AttackKind::ALL {
            send_check(&AttackRunner::with_config(
                kind,
                AttackConfig::with_timeout_secs(30),
                1,
            ));
            breaks(kind, &nl, &keyed, AttackConfig::with_timeout_secs(30));
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in AttackKind::ALL {
            assert_eq!(AttackKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(AttackKind::parse("nope"), None);
    }

    #[test]
    fn c17_fully_camouflaged_is_broken_for_every_scheme() {
        let nl = parse_bench(C17_BENCH).unwrap();
        for scheme in CamoScheme::ALL {
            let keyed = keyed_over(&nl, 1.0, 55, scheme);
            breaks(
                AttackKind::Sat,
                &nl,
                &keyed,
                AttackConfig::with_timeout_secs(30),
            );
        }
    }

    #[test]
    fn double_dip_breaks_c17_for_every_scheme() {
        let nl = parse_bench(C17_BENCH).unwrap();
        for scheme in CamoScheme::ALL {
            let keyed = keyed_over(&nl, 1.0, 7, scheme);
            breaks(
                AttackKind::DoubleDip,
                &nl,
                &keyed,
                AttackConfig::with_timeout_secs(30),
            );
        }
    }

    #[test]
    fn generated_circuit_20pct_gshe16() {
        let nl = generated(10, 6, 150, 2);
        let keyed = keyed_over(&nl, 0.2, 55, CamoScheme::GsheAll16);
        let out = breaks(
            AttackKind::Sat,
            &nl,
            &keyed,
            AttackConfig::with_timeout_secs(30),
        );
        assert!(out.iterations > 0);
        assert_eq!(out.queries, out.iterations);
    }

    #[test]
    fn more_functions_need_no_fewer_dips() {
        // Sanity on the paper's core observation: richer candidate sets
        // do not make the attack easier (same circuit, same picks).
        let nl = generated(8, 4, 80, 4);
        let [small, big] = [CamoScheme::InvBuf, CamoScheme::GsheAll16].map(|scheme| {
            breaks(
                AttackKind::Sat,
                &nl,
                &keyed_over(&nl, 0.25, 55, scheme),
                AttackConfig::with_timeout_secs(30),
            )
        });
        assert!(big.solver_stats.decisions >= small.solver_stats.decisions);
    }

    #[test]
    fn zero_timeout_reports_timeout() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let keyed = keyed_over(&nl, 1.0, 1, CamoScheme::GsheAll16);
        let config = AttackConfig {
            timeout: Duration::from_millis(0),
            conflicts_per_slice: 1,
            ..Default::default()
        };
        let runner = AttackRunner::with_config(AttackKind::Sat, config, 0);
        let out = runner.run(&keyed, &mut OracleStack::exact(&nl));
        assert_eq!(out.status, AttackStatus::Timeout);
        assert!(out.key.is_none());
    }

    #[test]
    fn stochastic_oracle_defeats_the_attack() {
        // Sec. V-B: with a noisy oracle the attack either derives a wrong
        // key or collapses to inconsistency — it must not recover the
        // correct function reliably.
        let nl = generated(8, 4, 60, 6);
        let keyed = keyed_over(&nl, 0.5, 9, CamoScheme::GsheAll16);
        let profile = keyed.uniform_error_profile(0.25);
        let runner =
            AttackRunner::with_config(AttackKind::Sat, AttackConfig::with_timeout_secs(20), 0);
        let failures = (0..4)
            .filter(|&seed| {
                let out = runner.run(
                    &keyed,
                    &mut OracleStack::noisy(&keyed, profile.clone(), seed),
                );
                out.status != AttackStatus::Success
                    || !verify_key(&nl, &keyed, out.key.as_ref().unwrap())
                        .unwrap()
                        .functionally_equivalent
            })
            .count();
        assert!(failures >= 3, "attack survived noise too often");
    }

    #[test]
    fn double_dip_matches_sat_attack_on_generated_circuit() {
        // Instance seed picked to converge well inside the wall-clock
        // budget under the vendored StdRng stream.
        let nl = generated(9, 5, 90, 34);
        let keyed = keyed_over(&nl, 0.3, 13, CamoScheme::GsheAll16);
        let dd = breaks(
            AttackKind::DoubleDip,
            &nl,
            &keyed,
            AttackConfig::with_timeout_secs(30),
        );
        let sat = breaks(
            AttackKind::Sat,
            &nl,
            &keyed,
            AttackConfig::with_timeout_secs(30),
        );
        // Double DIP's stronger miter kills ≥ 2 keys per query, so its
        // query count stays in the same ballpark as the plain attack's
        // DIP count. The exact counts are trajectories of two different
        // heuristic searches, so allow proportional slack rather than
        // pinning a near-equality that every solver tweak would break.
        assert!(
            dd.queries <= sat.queries + sat.queries / 4 + 2,
            "double dip queries {} vs sat {}",
            dd.queries,
            sat.queries
        );
    }

    #[test]
    fn double_dip_is_costlier_per_run() {
        // The paper's observation: higher runtimes (more solver work),
        // fewer-or-equal oracle queries.
        let nl = generated(9, 5, 70, 37);
        let keyed = keyed_over(&nl, 0.25, 17, CamoScheme::GsheAll16);
        let dd = breaks(
            AttackKind::DoubleDip,
            &nl,
            &keyed,
            AttackConfig::with_timeout_secs(60),
        );
        let sat = breaks(
            AttackKind::Sat,
            &nl,
            &keyed,
            AttackConfig::with_timeout_secs(60),
        );
        // Four circuit copies vs two: the encoded instance is larger, so
        // propagation volume should not be smaller.
        assert!(dd.solver_stats.propagations >= sat.solver_stats.propagations / 2);
    }

    #[test]
    fn appsat_recovers_exact_key_with_deterministic_oracle() {
        // Instance seed picked to converge well inside the wall-clock
        // budget under the vendored StdRng stream.
        let nl = generated(9, 5, 100, 42);
        let keyed = keyed_over(&nl, 0.3, 19, CamoScheme::GsheAll16);
        let runner =
            AttackRunner::with_config(AttackKind::AppSat, AttackConfig::default(), 0xA115A7);
        let out = runner.run(&keyed, &mut OracleStack::exact(&nl));
        assert_eq!(out.status, AttackStatus::Success);
        let v = verify_key(&nl, &keyed, out.key.as_ref().unwrap()).unwrap();
        assert!(v.functionally_equivalent);
    }
}
