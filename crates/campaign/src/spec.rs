//! Campaign specification: the experiment grid and its expansion to jobs.
//!
//! A [`CampaignSpec`] is the cartesian product the paper's evaluation
//! tables iterate by hand: benchmark suite × camouflaging scheme grid ×
//! attack grid × oracle error-rate sweep × trials, plus the shared knobs
//! (netlist scale, per-job wall-clock budget, master seed, worker count).
//! [`CampaignSpec::expand`] unrolls the grid into [`JobSpec`]s with
//! identity-derived seeds; the paper-table harnesses build the job list
//! themselves when they need a historical seed derivation.
//!
//! Specs can be read from a minimal TOML subset (see
//! [`CampaignSpec::parse_toml`] and the crate-level docs).

use crate::job::{
    clock_salt, hash_mix, hash_str, rotation_salt, select_seed, transform_seed, AttackSeeds,
    JobKind, JobSpec, NoiseShape,
};
use crate::physical::{is_valid_clock_period, ClockRateTable};
use gshe_attacks::{AttackKind, CoiMode, SimplifyMode};
use gshe_camo::CamoScheme;
use gshe_logic::Topology;
use std::time::Duration;

/// Machine-friendly scheme names used in spec files and CSV output.
pub fn scheme_name(scheme: CamoScheme) -> &'static str {
    match scheme {
        CamoScheme::LookAlike => "look-alike",
        CamoScheme::ThresholdSttLut => "stt-lut",
        CamoScheme::SiNw => "sinw",
        CamoScheme::InvBuf => "inv-buf",
        CamoScheme::FourFn => "four-fn",
        CamoScheme::DwmPolymorphic => "dwm",
        CamoScheme::GsheAll16 => "gshe16",
    }
}

/// Parses [`scheme_name`] back into a scheme.
pub fn parse_scheme(name: &str) -> Option<CamoScheme> {
    CamoScheme::ALL
        .into_iter()
        .find(|&s| scheme_name(s) == name)
}

/// The valid TOML keys of a campaign spec, in documentation order.
pub const SPEC_KEYS: [&str; 18] = [
    "name",
    "benchmarks",
    "scale",
    "topology",
    "levels",
    "schemes",
    "attacks",
    "coi_mode",
    "sat_simplify",
    "error_rates",
    "clock_periods_ns",
    "profiles",
    "rotation_periods",
    "trials",
    "seed",
    "timeout_secs",
    "threads",
    "memo_budget_mb",
];

fn join_names<I: IntoIterator<Item = &'static str>>(names: I) -> String {
    names.into_iter().collect::<Vec<_>>().join(", ")
}

/// Comma-separated camouflaging-scheme names for error messages
/// (including the `"all"` selector).
pub fn valid_scheme_names() -> String {
    join_names(CamoScheme::ALL.into_iter().map(scheme_name).chain(["all"]))
}

/// Comma-separated attack names for error messages.
pub fn valid_attack_names() -> String {
    join_names(AttackKind::ALL.into_iter().map(AttackKind::name))
}

/// Comma-separated noise-profile names for error messages (including the
/// `"all"` selector).
pub fn valid_profile_names() -> String {
    join_names(
        NoiseShape::ALL
            .into_iter()
            .map(NoiseShape::name)
            .chain(["all"]),
    )
}

/// Checks the numeric grid values every spec path (TOML, flags, struct
/// literals) must respect before any job runs: each protection level
/// (listed under `level_key`) in (0, 1], each error rate in [0, 1] —
/// both finite — and a scale of at least 1. The error names the key and
/// the offending value.
pub(crate) fn check_ranges(
    level_key: &str,
    levels: &[f64],
    error_rates: &[f64],
    scale: usize,
) -> Result<(), String> {
    if let Some(bad) = levels.iter().find(|&&l| !(l > 0.0 && l <= 1.0)) {
        return Err(format!(
            "{level_key}: {bad} is out of range (a level is a fraction in (0, 1])"
        ));
    }
    if let Some(bad) = error_rates.iter().find(|r| !(0.0..=1.0).contains(*r)) {
        return Err(format!(
            "error_rates: {bad} is out of range (an error rate is in [0, 1])"
        ));
    }
    if scale == 0 {
        return Err("scale: 0 is out of range (scale must be at least 1)".to_string());
    }
    Ok(())
}

/// Comma-separated spec-file keys ([`SPEC_KEYS`]) for error messages.
pub fn valid_key_names() -> String {
    join_names(SPEC_KEYS)
}

/// A declarative description of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (report header, output file stem).
    pub name: String,
    /// Benchmark selectors, resolved via
    /// [`gshe_logic::suites::resolve_selector`] (`"all"`, `"suite:itc99"`,
    /// or a single name).
    pub benchmarks: Vec<String>,
    /// Benchmark-scale divisor (1 = paper-scale gate counts).
    pub scale: usize,
    /// Netlist topology profile for generated benchmarks:
    /// [`Topology::Uniform`] is the historical generator (fanins drawn
    /// uniformly over all prior nodes), [`Topology::Local`] the
    /// placement-tile generator whose influence cones stay narrow —
    /// superblue-like locality as a campaign knob. File-backed (`.aag`)
    /// benchmarks ignore it.
    pub topology: Topology,
    /// Protection levels (fraction of gates camouflaged).
    pub levels: Vec<f64>,
    /// Camouflaging schemes under study.
    pub schemes: Vec<CamoScheme>,
    /// Attack algorithms to launch.
    pub attacks: Vec<AttackKind>,
    /// Cone-of-influence policy for every attack job (and the campaign
    /// cache's cone-keyed entries): `on` (the default: attack the cloaked
    /// cells' cone whenever it leaves some outputs out) or `off` (always
    /// the full miter).
    pub coi_mode: CoiMode,
    /// SAT simplification policy for every attack job's incremental
    /// solver: `auto` (preprocess instances with at least the historical
    /// 100k-clause threshold and vivify learnts at restart boundaries),
    /// `auto:<clauses>` (custom threshold), `on`, or `off`. The same
    /// gate selects Plaisted–Greenbaum single-sided miter encoding.
    pub sat_simplify: SimplifyMode,
    /// Oracle per-cell error rates (0.0 = perfect chip).
    pub error_rates: Vec<f64>,
    /// *Physical* clock periods, in nanoseconds, swept as additional
    /// rate sources: each period's per-cell error rate is derived from
    /// the device Monte Carlo at the nominal drive current (uniform
    /// drives, memoized per operating point — see
    /// [`crate::physical::ClockRateTable`]). Empty = abstract rates only.
    pub clock_periods_ns: Vec<f64>,
    /// Error-profile shapes: how each rate spreads over the cloaked cells
    /// (heterogeneous noise placements as a grid dimension).
    pub profiles: Vec<NoiseShape>,
    /// Dynamic-camouflaging rotation periods (`0` = the static oracle the
    /// grid always had; `n > 0` = a rotating oracle stack drawing a fresh
    /// random key every `n` queries). The defense-side dimension of the
    /// attack-collapse-vs-period experiment.
    pub rotation_periods: Vec<u64>,
    /// Trials per grid cell (stochastic cells need repeats).
    pub trials: u64,
    /// Master seed; all job seeds derive from it and the job identity.
    pub seed: u64,
    /// Per-job wall-clock budget.
    pub timeout: Duration,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Memory budget, in MiB (fractional allowed), for memoized benchmark
    /// materializations during a run. `0` = unbounded — the historical
    /// behavior: every benchmark resident at once. A positive budget
    /// switches [`crate::EvalSession::run_jobs`] to streaming chunks:
    /// benchmarks are admitted while their measured
    /// [`gshe_logic::Netlist::arena_bytes`] fit the budget, their jobs
    /// run, and the chunk's materializations are evicted before the next
    /// chunk is admitted.
    pub memo_budget_mb: f64,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            name: "campaign".to_string(),
            benchmarks: vec!["c7552".to_string()],
            scale: 20,
            topology: Topology::Uniform,
            levels: vec![0.2],
            schemes: vec![CamoScheme::GsheAll16],
            attacks: vec![AttackKind::Sat],
            coi_mode: CoiMode::On,
            sat_simplify: SimplifyMode::Auto,
            error_rates: vec![0.0],
            clock_periods_ns: Vec::new(),
            profiles: vec![NoiseShape::Uniform],
            rotation_periods: vec![0],
            trials: 1,
            seed: 1,
            timeout: Duration::from_secs(60),
            threads: 0,
            memo_budget_mb: 0.0,
        }
    }
}

impl CampaignSpec {
    /// Resolves the benchmark selectors to concrete benchmark names,
    /// deduplicated, in selector order.
    ///
    /// # Errors
    ///
    /// Returns the first selector that matches nothing.
    pub fn resolve_benchmarks(&self) -> Result<Vec<String>, String> {
        let mut names: Vec<String> = Vec::new();
        for selector in &self.benchmarks {
            // `.aag` selectors are file-backed benchmarks: the path itself
            // is the benchmark name, loaded through the AIGER frontend at
            // materialization time (latches cut, scan-style).
            if selector.ends_with(".aag") {
                if !names.iter().any(|n| n == selector) {
                    names.push(selector.clone());
                }
                continue;
            }
            let specs = gshe_logic::suites::resolve_selector(selector);
            if specs.is_empty() {
                return Err(format!("benchmark selector `{selector}` matches nothing"));
            }
            for s in specs {
                if !names.iter().any(|n| n == s.name) {
                    names.push(s.name.to_string());
                }
            }
        }
        Ok(names)
    }

    /// Unrolls the grid into jobs, in canonical order (benchmark, level,
    /// scheme, attack, rotation period, rate source, profile, trial —
    /// outermost first). Rate sources are the abstract `error_rates`
    /// followed by the `clock_periods_ns`-derived rates (device Monte
    /// Carlo at the nominal drive, memoized per operating point).
    ///
    /// Seed policy: gate selection depends only on (campaign seed,
    /// benchmark, level) — the paper's fairness protocol, every scheme
    /// sees the same protected gates; the transform seed adds the scheme;
    /// the oracle seed adds attack, rotation period, error rate, clock
    /// period, profile shape, and trial. Dimension salts compose by XOR
    /// and are all zero at their historical defaults (period 0, uniform
    /// shape, abstract rate), so specs that don't sweep those dimensions
    /// derive exactly the seeds they always did — including the combined
    /// rotation × noise cells, whose salts are `rotation_salt ^
    /// profile_salt ^ clock_salt`.
    ///
    /// Dimension collapse: the only remaining collapse is physical — a
    /// rate-0 chip is deterministic, so every shape is the same quiet
    /// profile and rate-0 cells emit the uniform shape only. Rotation no
    /// longer collapses the noise dimensions: `rotation_periods ×
    /// rates × profiles` is a full grid, and its `period > 0, rate > 0`
    /// cells are the combined rotating + stochastic defense.
    ///
    /// # Errors
    ///
    /// Rejects a level outside (0, 1], an error rate outside [0, 1] and a
    /// scale of 0, and propagates benchmark-resolution failures.
    pub fn expand(&self) -> Result<Vec<JobSpec>, String> {
        check_ranges("levels", &self.levels, &self.error_rates, self.scale)?;
        let benchmarks = self.resolve_benchmarks()?;
        let profiles = if self.profiles.is_empty() {
            vec![NoiseShape::Uniform]
        } else {
            self.profiles.clone()
        };
        let periods = if self.rotation_periods.is_empty() {
            vec![0]
        } else {
            self.rotation_periods.clone()
        };
        // Rate sources: (clock_ns, rate) pairs — abstract rates first
        // (clock 0, the historical cells), then the physically derived
        // ones. Each distinct clock period costs one Monte Carlo sweep
        // for the whole expansion.
        let mut rate_cells: Vec<(f64, f64)> =
            self.error_rates.iter().map(|&rate| (0.0, rate)).collect();
        let mut clock_table = ClockRateTable::new();
        for &clock_ns in &self.clock_periods_ns {
            if !is_valid_clock_period(clock_ns) {
                return Err(format!(
                    "clock period must be a positive number of ns, got {clock_ns}"
                ));
            }
            rate_cells.push((clock_ns, clock_table.rate_for(clock_ns)));
        }
        let mut jobs = Vec::new();
        for benchmark in &benchmarks {
            for &level in &self.levels {
                let select = select_seed(self.seed, benchmark, level);
                for &scheme in &self.schemes {
                    let transform = transform_seed(select, scheme);
                    for &attack in &self.attacks {
                        for &rotation_period in &periods {
                            for &(clock_ns, error_rate) in &rate_cells {
                                // A rate-0 chip is deterministic: every
                                // shape collapses to the same (quiet)
                                // profile, so sweep shapes only where they
                                // can matter.
                                let cell_profiles: &[NoiseShape] = if error_rate > 0.0 {
                                    &profiles
                                } else {
                                    &[NoiseShape::Uniform]
                                };
                                for &profile in cell_profiles {
                                    for trial in 0..self.trials.max(1) {
                                        let oracle = hash_mix(
                                            transform
                                                ^ hash_str(attack.name())
                                                ^ ((error_rate * 1e6) as u64)
                                                    .wrapping_mul(0x2545_F491_4F6C_DD1D)
                                                ^ profile.seed_salt()
                                                ^ rotation_salt(rotation_period)
                                                ^ clock_salt(clock_ns)
                                                ^ trial,
                                        );
                                        jobs.push(JobSpec {
                                            kind: JobKind::Attack {
                                                benchmark: benchmark.clone(),
                                                topology: self.topology,
                                                scheme,
                                                level,
                                                attack,
                                                error_rate,
                                                clock_ns,
                                                profile,
                                                rotation_period,
                                                trial,
                                                seeds: AttackSeeds {
                                                    select,
                                                    transform,
                                                    oracle,
                                                },
                                            },
                                            timeout: self.timeout,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }

    /// Parses a campaign spec from the TOML subset documented at the crate
    /// level: `key = value` lines, `#` comments, strings in double quotes,
    /// homogeneous `[ ... ]` arrays of strings/numbers on one line.
    ///
    /// Unknown keys are rejected so typos fail loudly.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line.
    pub fn parse_toml(text: &str) -> Result<CampaignSpec, String> {
        let mut spec = CampaignSpec::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() || line.starts_with('[') {
                // Blank, comment, or a table header like [campaign] —
                // headers are accepted and ignored (single-table format).
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let fail = |what: &str| format!("line {}: {what}", lineno + 1);
            match key {
                "name" => spec.name = parse_string(value).ok_or_else(|| fail("bad string"))?,
                "benchmarks" => {
                    spec.benchmarks =
                        parse_string_array(value).ok_or_else(|| fail("bad string array"))?
                }
                "scale" => {
                    spec.scale = value.parse().map_err(|_| fail("bad integer"))?;
                }
                "topology" => {
                    let name = parse_string(value).ok_or_else(|| fail("bad string"))?;
                    spec.topology = Topology::parse(&name).ok_or_else(|| {
                        fail(&format!(
                            "unknown topology `{name}` (valid: uniform, local)"
                        ))
                    })?;
                }
                "coi_mode" => {
                    let name = parse_string(value).ok_or_else(|| fail("bad string"))?;
                    spec.coi_mode = CoiMode::parse(&name).ok_or_else(|| {
                        fail(&format!("unknown coi_mode `{name}` (valid: on, off)"))
                    })?;
                }
                "sat_simplify" => {
                    let name = parse_string(value).ok_or_else(|| fail("bad string"))?;
                    spec.sat_simplify = SimplifyMode::parse(&name).ok_or_else(|| {
                        fail(&format!(
                            "unknown sat_simplify `{name}` (valid: auto, auto:<clauses>, on, off)"
                        ))
                    })?;
                }
                "memo_budget_mb" => {
                    let mb: f64 = value
                        .parse()
                        .map_err(|_| fail("bad number (MiB; 0 = unbounded)"))?;
                    if !(mb.is_finite() && mb >= 0.0) {
                        return Err(fail("memo_budget_mb must be a non-negative number of MiB"));
                    }
                    spec.memo_budget_mb = mb;
                }
                "levels" => {
                    spec.levels =
                        parse_array::<f64>(value).ok_or_else(|| fail("bad number array"))?
                }
                "schemes" => {
                    let names =
                        parse_string_array(value).ok_or_else(|| fail("bad string array"))?;
                    spec.schemes = names
                        .iter()
                        .map(|n| {
                            if n == "all" {
                                Ok(CamoScheme::ALL.to_vec())
                            } else {
                                parse_scheme(n).map(|s| vec![s]).ok_or_else(|| {
                                    fail(&format!(
                                        "unknown scheme `{n}` (valid: {})",
                                        valid_scheme_names()
                                    ))
                                })
                            }
                        })
                        .collect::<Result<Vec<_>, _>>()?
                        .into_iter()
                        .flatten()
                        .collect();
                }
                "attacks" => {
                    let names =
                        parse_string_array(value).ok_or_else(|| fail("bad string array"))?;
                    spec.attacks = names
                        .iter()
                        .map(|n| {
                            AttackKind::parse(n).ok_or_else(|| {
                                fail(&format!(
                                    "unknown attack `{n}` (valid: {})",
                                    valid_attack_names()
                                ))
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "error_rates" => {
                    spec.error_rates =
                        parse_array::<f64>(value).ok_or_else(|| fail("bad number array"))?
                }
                "clock_periods_ns" => {
                    let periods = parse_array::<f64>(value)
                        .ok_or_else(|| fail("bad number array (clock periods in ns)"))?;
                    if let Some(bad) = periods.iter().find(|p| !is_valid_clock_period(**p)) {
                        return Err(fail(&format!(
                            "clock period must be a positive number of ns, got {bad}"
                        )));
                    }
                    spec.clock_periods_ns = periods;
                }
                "profiles" => {
                    let names =
                        parse_string_array(value).ok_or_else(|| fail("bad string array"))?;
                    spec.profiles = names
                        .iter()
                        .map(|n| {
                            if n == "all" {
                                Ok(NoiseShape::ALL.to_vec())
                            } else {
                                NoiseShape::parse(n).map(|s| vec![s]).ok_or_else(|| {
                                    fail(&format!(
                                        "unknown profile `{n}` (valid: {})",
                                        valid_profile_names()
                                    ))
                                })
                            }
                        })
                        .collect::<Result<Vec<_>, _>>()?
                        .into_iter()
                        .flatten()
                        .collect();
                }
                "rotation_periods" => {
                    spec.rotation_periods = parse_array::<u64>(value)
                        .ok_or_else(|| fail("bad integer array (periods in queries; 0 = static)"))?
                }
                "trials" => spec.trials = value.parse().map_err(|_| fail("bad integer"))?,
                "seed" => spec.seed = value.parse().map_err(|_| fail("bad integer"))?,
                "timeout_secs" => {
                    spec.timeout =
                        Duration::from_secs(value.parse().map_err(|_| fail("bad integer"))?)
                }
                "threads" => spec.threads = value.parse().map_err(|_| fail("bad integer"))?,
                other => {
                    return Err(fail(&format!(
                        "unknown key `{other}` (valid keys: {})",
                        valid_key_names()
                    )))
                }
            }
        }
        Ok(spec)
    }
}

/// Drops a `#` comment, but only when the `#` sits outside a
/// double-quoted string.
pub(crate) fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

pub(crate) fn parse_string(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.to_string())
}

pub(crate) fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let inner = value.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(|item| parse_string(item.trim()))
        .collect()
}

pub(crate) fn parse_array<T: std::str::FromStr>(value: &str) -> Option<Vec<T>> {
    let inner = value.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(|item| item.trim().parse().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_covers_the_grid_in_order() {
        let spec = CampaignSpec {
            benchmarks: vec!["c7552".into(), "ex1010".into()],
            levels: vec![0.1, 0.2],
            schemes: vec![CamoScheme::InvBuf, CamoScheme::GsheAll16],
            attacks: vec![AttackKind::Sat, AttackKind::DoubleDip],
            error_rates: vec![0.0, 0.05],
            trials: 3,
            ..Default::default()
        };
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2 * 2 * 3);
        // Outermost loop is the benchmark.
        let JobKind::Attack { benchmark, .. } = &jobs[0].kind else {
            panic!()
        };
        assert_eq!(benchmark, "c7552");
        let JobKind::Attack { benchmark, .. } = &jobs.last().unwrap().kind else {
            panic!()
        };
        assert_eq!(benchmark, "ex1010");
    }

    #[test]
    fn selection_seed_is_shared_across_schemes_and_attacks() {
        let spec = CampaignSpec {
            schemes: vec![CamoScheme::InvBuf, CamoScheme::GsheAll16],
            attacks: vec![AttackKind::Sat, AttackKind::AppSat],
            ..Default::default()
        };
        let jobs = spec.expand().unwrap();
        let selects: Vec<u64> = jobs
            .iter()
            .map(|j| {
                let JobKind::Attack { seeds, .. } = &j.kind else {
                    panic!()
                };
                seeds.select
            })
            .collect();
        assert!(
            selects.windows(2).all(|w| w[0] == w[1]),
            "fairness protocol broken"
        );

        // But the oracle seed must distinguish attacks.
        let oracles: Vec<u64> = jobs
            .iter()
            .map(|j| {
                let JobKind::Attack { seeds, .. } = &j.kind else {
                    panic!()
                };
                seeds.oracle
            })
            .collect();
        assert_eq!(oracles.len(), 4);
        assert!(oracles.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn profile_sweep_multiplies_the_grid_and_salts_seeds() {
        let base = CampaignSpec {
            error_rates: vec![0.05],
            trials: 2,
            ..Default::default()
        };
        let swept = CampaignSpec {
            profiles: vec![NoiseShape::Uniform, NoiseShape::OutputCone],
            ..base.clone()
        };
        let jobs = swept.expand().unwrap();
        assert_eq!(jobs.len(), base.expand().unwrap().len() * 2);

        // Uniform jobs keep the historical seed derivation; other shapes
        // draw a distinct noise stream.
        let oracle_of = |j: &JobSpec| {
            let JobKind::Attack { seeds, profile, .. } = &j.kind else {
                panic!()
            };
            (*profile, seeds.oracle)
        };
        let base_jobs = base.expand().unwrap();
        let (shape0, seed0) = oracle_of(&jobs[0]);
        assert_eq!(shape0, NoiseShape::Uniform);
        assert_eq!(seed0, oracle_of(&base_jobs[0]).1);
        let (shape1, seed1) = oracle_of(&jobs[2]);
        assert_eq!(shape1, NoiseShape::OutputCone);
        assert_ne!(seed1, seed0);
    }

    #[test]
    fn rate_zero_cells_collapse_the_profile_sweep() {
        // error_rate 0.0 makes every shape identical; only one (uniform)
        // job per deterministic cell, shapes swept for the noisy cells.
        let spec = CampaignSpec {
            error_rates: vec![0.0, 0.05],
            profiles: vec![NoiseShape::Uniform, NoiseShape::OutputCone],
            ..Default::default()
        };
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 1 + 2);
        let shapes: Vec<(f64, NoiseShape)> = jobs
            .iter()
            .map(|j| {
                let JobKind::Attack {
                    error_rate,
                    profile,
                    ..
                } = &j.kind
                else {
                    panic!()
                };
                (*error_rate, *profile)
            })
            .collect();
        assert_eq!(
            shapes,
            [
                (0.0, NoiseShape::Uniform),
                (0.05, NoiseShape::Uniform),
                (0.05, NoiseShape::OutputCone),
            ]
        );
    }

    #[test]
    fn rotation_periods_extend_the_grid_and_salt_seeds() {
        let base = CampaignSpec {
            trials: 2,
            ..Default::default()
        };
        let swept = CampaignSpec {
            rotation_periods: vec![0, 4, 16],
            ..base.clone()
        };
        let jobs = swept.expand().unwrap();
        // One static cell plus one cell per nonzero period.
        assert_eq!(jobs.len(), base.expand().unwrap().len() * 3);

        let cell_of = |j: &JobSpec| {
            let JobKind::Attack {
                rotation_period,
                seeds,
                ..
            } = &j.kind
            else {
                panic!()
            };
            (*rotation_period, seeds.oracle)
        };
        // Period-0 jobs keep the historical seed derivation byte-for-byte.
        let base_jobs = base.expand().unwrap();
        let (p0, seed0) = cell_of(&jobs[0]);
        assert_eq!(p0, 0);
        assert_eq!(seed0, cell_of(&base_jobs[0]).1);
        // Nonzero periods draw distinct oracle seeds.
        let (p4, seed4) = cell_of(&jobs[2]);
        let (p16, seed16) = cell_of(&jobs[4]);
        assert_eq!((p4, p16), (4, 16));
        assert_ne!(seed4, seed0);
        assert_ne!(seed4, seed16);
    }

    #[test]
    fn rotation_crosses_the_noise_dimensions_into_combined_cells() {
        // The stack made the combined defense a real grid: every rotation
        // period sweeps the full rates × profiles cross product (with only
        // the physical rate-0 collapse remaining), and the pre-existing
        // cells keep their exact positions and seed derivations.
        let spec = CampaignSpec {
            error_rates: vec![0.0, 0.05],
            profiles: vec![NoiseShape::Uniform, NoiseShape::OutputCone],
            rotation_periods: vec![0, 8],
            ..Default::default()
        };
        let jobs = spec.expand().unwrap();
        let cells: Vec<(u64, f64, NoiseShape)> = jobs
            .iter()
            .map(|j| {
                let JobKind::Attack {
                    rotation_period,
                    error_rate,
                    profile,
                    ..
                } = &j.kind
                else {
                    panic!()
                };
                (*rotation_period, *error_rate, *profile)
            })
            .collect();
        assert_eq!(
            cells,
            [
                (0, 0.0, NoiseShape::Uniform),
                (0, 0.05, NoiseShape::Uniform),
                (0, 0.05, NoiseShape::OutputCone),
                (8, 0.0, NoiseShape::Uniform),
                (8, 0.05, NoiseShape::Uniform),
                (8, 0.05, NoiseShape::OutputCone),
            ]
        );

        // Combined-cell seed salts compose: the rotating noisy cells draw
        // streams distinct from both single-defense cells, while each
        // single-defense cell keeps its historical derivation (checked by
        // the collapse-free sub-specs).
        let oracle_of = |j: &JobSpec| {
            let JobKind::Attack { seeds, .. } = &j.kind else {
                panic!()
            };
            seeds.oracle
        };
        let noise_only = oracle_of(&jobs[1]);
        let rotation_only = oracle_of(&jobs[3]);
        let combined = oracle_of(&jobs[4]);
        assert_ne!(combined, noise_only);
        assert_ne!(combined, rotation_only);
        // Single-dimension sub-specs reproduce their cells byte-for-byte.
        let noise_spec = CampaignSpec {
            error_rates: vec![0.0, 0.05],
            profiles: vec![NoiseShape::Uniform, NoiseShape::OutputCone],
            ..Default::default()
        };
        assert_eq!(oracle_of(&noise_spec.expand().unwrap()[1]), noise_only);
        let rotation_spec = CampaignSpec {
            rotation_periods: vec![0, 8],
            ..Default::default()
        };
        assert_eq!(
            oracle_of(&rotation_spec.expand().unwrap()[1]),
            rotation_only
        );
    }

    #[test]
    fn clock_periods_extend_the_rate_sweep_with_derived_rates() {
        // The physical dimension: clock periods become extra rate sources
        // with Monte-Carlo-derived rates, tagged with their period and
        // salted into the oracle seed. Abstract cells keep clock 0 and
        // their historical seeds.
        let base = CampaignSpec {
            error_rates: vec![0.0],
            ..Default::default()
        };
        let swept = CampaignSpec {
            clock_periods_ns: vec![0.8, 6.0],
            ..base.clone()
        };
        let jobs = swept.expand().unwrap();
        assert_eq!(jobs.len(), 3, "one abstract + two physical cells");
        let cell_of = |j: &JobSpec| {
            let JobKind::Attack {
                error_rate,
                clock_ns,
                seeds,
                ..
            } = &j.kind
            else {
                panic!()
            };
            (*clock_ns, *error_rate, seeds.oracle)
        };
        let (c0, r0, seed0) = cell_of(&jobs[0]);
        assert_eq!((c0, r0), (0.0, 0.0));
        assert_eq!(seed0, cell_of(&base.expand().unwrap()[0]).2);
        let (c1, r1, seed1) = cell_of(&jobs[1]);
        assert_eq!(c1, 0.8);
        assert!(r1 > 0.2, "0.8 ns clock should err often: {r1}");
        assert_ne!(seed1, seed0);
        let (c2, r2, seed2) = cell_of(&jobs[2]);
        assert_eq!(c2, 6.0);
        assert!(r2 < 0.05, "6 ns clock is near-deterministic: {r2}");
        assert_ne!(seed2, seed1);
    }

    #[test]
    fn clock_periods_parse_from_toml_and_reject_nonpositive() {
        let spec = CampaignSpec::parse_toml("clock_periods_ns = [0.8, 2.0, 6.0]").unwrap();
        assert_eq!(spec.clock_periods_ns, [0.8, 2.0, 6.0]);
        let err = CampaignSpec::parse_toml("clock_periods_ns = [0.0]").unwrap_err();
        assert!(err.contains("positive"), "{err}");
        assert!(CampaignSpec::parse_toml("clock_periods_ns = [-1.0]").is_err());
        assert!(CampaignSpec::parse_toml("clock_periods_ns = [oops]").is_err());
    }

    #[test]
    fn topology_coi_and_memo_budget_parse_from_toml() {
        let spec = CampaignSpec::parse_toml(
            "topology = \"local\"\ncoi_mode = \"off\"\nsat_simplify = \"auto:50000\"\nmemo_budget_mb = 1.5",
        )
        .unwrap();
        assert_eq!(spec.topology, Topology::Local);
        assert_eq!(spec.coi_mode, CoiMode::Off);
        assert_eq!(spec.sat_simplify, SimplifyMode::AutoAt(50_000));
        assert_eq!(spec.memo_budget_mb, 1.5);
        let default = CampaignSpec::default();
        assert_eq!(default.topology, Topology::Uniform);
        assert_eq!(default.coi_mode, CoiMode::On);
        assert_eq!(default.sat_simplify, SimplifyMode::Auto);
        assert_eq!(default.memo_budget_mb, 0.0);

        let spec = CampaignSpec::parse_toml("sat_simplify = \"on\"").unwrap();
        assert_eq!(spec.sat_simplify, SimplifyMode::On);

        let err = CampaignSpec::parse_toml("topology = \"spiral\"").unwrap_err();
        assert!(err.contains("uniform, local"), "{err}");
        let err = CampaignSpec::parse_toml("coi_mode = \"maybe\"").unwrap_err();
        assert!(err.contains("on, off"), "{err}");
        assert!(CampaignSpec::parse_toml("coi_mode = \"auto\"").is_err());
        let err = CampaignSpec::parse_toml("sat_simplify = \"maybe\"").unwrap_err();
        assert!(err.contains("auto:<clauses>"), "{err}");
        assert!(CampaignSpec::parse_toml("memo_budget_mb = -1").is_err());
        assert!(CampaignSpec::parse_toml("memo_budget_mb = nan").is_err());
    }

    #[test]
    fn out_of_range_values_are_errors_not_panics() {
        let base = CampaignSpec {
            benchmarks: vec!["ex1010".into()],
            scale: 400,
            ..Default::default()
        };
        type Break = fn(&mut CampaignSpec);
        let cases: [(Break, &str); 8] = [
            (|s| s.levels = vec![0.0], "levels: 0"),
            (|s| s.levels = vec![1.5], "levels: 1.5"),
            (|s| s.levels = vec![-0.05], "levels: -0.05"),
            (|s| s.levels = vec![f64::NAN], "levels: NaN"),
            (|s| s.error_rates = vec![1.5], "error_rates: 1.5"),
            (|s| s.error_rates = vec![-0.2], "error_rates: -0.2"),
            (|s| s.error_rates = vec![f64::NAN], "error_rates: NaN"),
            (|s| s.scale = 0, "scale: 0"),
        ];
        for (break_spec, needle) in cases {
            let mut spec = base.clone();
            break_spec(&mut spec);
            let err = spec.expand().unwrap_err();
            assert!(err.contains(needle), "{needle}: {err}");
        }
        // The TOML path lands in the same check.
        let spec = CampaignSpec::parse_toml("levels = [1.5]").unwrap();
        assert!(spec.expand().unwrap_err().contains("levels: 1.5"));
        // The closed ends of both ranges are valid.
        let edges = CampaignSpec {
            levels: vec![1.0],
            error_rates: vec![0.0, 1.0],
            scale: 1,
            ..base
        };
        assert!(edges.expand().is_ok());
    }

    #[test]
    fn aag_selectors_pass_through_and_stamp_topology() {
        let spec = CampaignSpec {
            benchmarks: vec!["tests/data/epfl_ctrl.aag".into(), "c7552".into()],
            topology: Topology::Local,
            ..Default::default()
        };
        assert_eq!(
            spec.resolve_benchmarks().unwrap(),
            ["tests/data/epfl_ctrl.aag", "c7552"]
        );
        let jobs = spec.expand().unwrap();
        let JobKind::Attack {
            benchmark,
            topology,
            ..
        } = &jobs[0].kind
        else {
            panic!()
        };
        assert_eq!(benchmark, "tests/data/epfl_ctrl.aag");
        assert_eq!(*topology, Topology::Local);
    }

    #[test]
    fn rotation_periods_parse_from_toml() {
        let spec = CampaignSpec::parse_toml("rotation_periods = [0, 1, 16, 64]").unwrap();
        assert_eq!(spec.rotation_periods, [0, 1, 16, 64]);
        assert!(CampaignSpec::parse_toml("rotation_periods = [1.5]").is_err());
        assert!(CampaignSpec::parse_toml("rotation_periods = [-1]").is_err());
    }

    #[test]
    fn errors_name_the_valid_alternatives() {
        let err = CampaignSpec::parse_toml("bogus = 1").unwrap_err();
        assert!(err.contains("valid keys:"), "{err}");
        assert!(err.contains("rotation_periods"), "{err}");
        let err = CampaignSpec::parse_toml(r#"schemes = ["nope"]"#).unwrap_err();
        assert!(err.contains("gshe16"), "{err}");
        let err = CampaignSpec::parse_toml(r#"attacks = ["nope"]"#).unwrap_err();
        assert!(err.contains("double-dip"), "{err}");
        let err = CampaignSpec::parse_toml(r#"profiles = ["nope"]"#).unwrap_err();
        assert!(err.contains("depth-gradient"), "{err}");
    }

    #[test]
    fn profiles_parse_from_toml() {
        let spec = CampaignSpec::parse_toml(r#"profiles = ["uniform", "depth-gradient"]"#).unwrap();
        assert_eq!(
            spec.profiles,
            [NoiseShape::Uniform, NoiseShape::DepthGradient]
        );
        let all = CampaignSpec::parse_toml(r#"profiles = ["all"]"#).unwrap();
        assert_eq!(all.profiles, NoiseShape::ALL.to_vec());
        assert!(CampaignSpec::parse_toml(r#"profiles = ["nope"]"#).is_err());
    }

    #[test]
    fn suite_selectors_expand() {
        let spec = CampaignSpec {
            benchmarks: vec!["suite:itc99".into()],
            ..Default::default()
        };
        assert_eq!(spec.resolve_benchmarks().unwrap(), ["b14", "b21"]);
        let bad = CampaignSpec {
            benchmarks: vec!["nope".into()],
            ..Default::default()
        };
        assert!(bad.resolve_benchmarks().is_err());
    }

    #[test]
    fn toml_round_trip() {
        let text = r#"
# A worked example.
[campaign]
name = "smoke"
benchmarks = ["c7552", "suite:itc99"]
scale = 40
levels = [0.1, 0.2]
schemes = ["inv-buf", "gshe16"]
attacks = ["sat", "appsat"]
error_rates = [0.0, 0.05]
rotation_periods = [0, 32]
trials = 2
seed = 9
timeout_secs = 30
threads = 4
"#;
        let spec = CampaignSpec::parse_toml(text).unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.benchmarks, ["c7552", "suite:itc99"]);
        assert_eq!(spec.scale, 40);
        assert_eq!(spec.levels, [0.1, 0.2]);
        assert_eq!(spec.schemes, [CamoScheme::InvBuf, CamoScheme::GsheAll16]);
        assert_eq!(spec.attacks, [AttackKind::Sat, AttackKind::AppSat]);
        assert_eq!(spec.error_rates, [0.0, 0.05]);
        assert_eq!(spec.rotation_periods, [0, 32]);
        assert_eq!(spec.trials, 2);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.timeout, Duration::from_secs(30));
        assert_eq!(spec.threads, 4);
    }

    #[test]
    fn toml_rejects_unknown_keys_and_schemes() {
        assert!(CampaignSpec::parse_toml("bogus = 1").is_err());
        assert!(CampaignSpec::parse_toml(r#"schemes = ["nope"]"#).is_err());
        assert!(CampaignSpec::parse_toml("name = unquoted").is_err());
    }

    #[test]
    fn hash_inside_quoted_string_is_not_a_comment() {
        let spec = CampaignSpec::parse_toml("name = \"run#3\" # trailing comment").unwrap();
        assert_eq!(spec.name, "run#3");
    }

    #[test]
    fn scheme_names_round_trip() {
        for scheme in CamoScheme::ALL {
            assert_eq!(parse_scheme(scheme_name(scheme)), Some(scheme));
        }
        assert_eq!(parse_scheme("nope"), None);
    }

    #[test]
    fn all_scheme_selector_expands() {
        let spec = CampaignSpec::parse_toml(r#"schemes = ["all"]"#).unwrap();
        assert_eq!(spec.schemes, CamoScheme::ALL.to_vec());
    }
}
