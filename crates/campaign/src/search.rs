//! Profile search: the defender's inverse problem.
//!
//! Campaign grids answer "how well does *this* error profile hold up?";
//! the search answers the question the paper's defender actually has:
//! **what is the cheapest profile that still wins?** Fewer stochastic
//! switches mean fewer aggressively-clocked (power-hungry, timing-fragile)
//! GSHE devices, and lower rates mean gentler operating points — so cost
//! is the pair *(noisy-switch count, mean per-switch rate)* and the
//! deliverable is the Pareto front of winning profiles.
//!
//! [`ProfileSearch`] (1+λ)-evolves dense per-switch rate vectors over the
//! cloaked cells of one keyed benchmark:
//!
//! * **generation 0** starts from *physics*, not arbitrary vectors: for
//!   each spec'd clock period, the device Monte Carlo's uniform rate
//!   ([`ClockRateTable`]) spread by each [`NoiseShape`] (uniform /
//!   output-cone / depth-gradient), plus the all-quiet baseline — every
//!   seed candidate is a realizable operating point;
//! * each later generation mutates the current front (drop a switch,
//!   halve a rate — strictly cheaper neighbors; raising mutations only
//!   when no winner exists yet), dedups against everything already
//!   scored, and evaluates λ fresh candidates;
//! * **scoring** runs trials × attacks through the session pool: each
//!   trial is one [`AttackRunner::run`] against the campaign's
//!   [`cell_oracle`] for the candidate: a noisy stack, or a rotating noisy
//!   stack when the spec carries a rotation budget, searching the
//!   *combined*-defense frontier. The defense wins a trial when the attack fails to recover
//!   a functionally-correct key.
//!
//! ## Reproducibility
//!
//! Every random choice derives from the spec seed: gate selection and
//! transform seeds use the campaign derivation, each trial's oracle seed
//! composes the candidate's profile salt with the rotation salt by the
//! XOR discipline of [`crate::job`] (`rotation_salt(period) ^
//! profile_salt ^ trial`), and mutation draws come from a dedicated
//! main-thread RNG. Scoring tasks land in submission order whatever the
//! thread count, so a whole search is replayable from one seed —
//! [`SearchReport::deterministic_json`] is byte-identical across
//! `threads = 1` and `threads = N`.

use crate::job::{
    cell_oracle, hash_mix, hash_str, noise_profile, rotation_salt, select_seed, transform_seed,
    AttackSeeds, NoiseShape,
};
use crate::physical::{is_valid_clock_period, ClockRateTable};
use crate::report::{json_f64, json_str};
use crate::spec::{
    check_ranges, parse_array, parse_scheme, parse_string, parse_string_array, scheme_name,
    strip_comment, valid_attack_names, valid_scheme_names,
};
use crate::EvalSession;
use gshe_attacks::{verify_key, AttackConfig, AttackKind, AttackRunner, AttackStatus};
use gshe_camo::{CamoScheme, KeyedNetlist};
use gshe_logic::{ErrorProfile, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Salt folded into trial oracle seeds for the candidate-profile
/// dimension (composes by XOR with [`rotation_salt`], mirroring the
/// campaign grid's salt discipline).
fn profile_salt(profile: &ErrorProfile) -> u64 {
    hash_mix(profile.fingerprint() ^ 0x9F0F_11E5)
}

/// The valid TOML keys of a search spec, in documentation order.
pub const SEARCH_KEYS: [&str; 16] = [
    "name",
    "benchmark",
    "scale",
    "level",
    "scheme",
    "attacks",
    "rotation_period",
    "clock_periods_ns",
    "trials",
    "generations",
    "lambda",
    "target_success",
    "seed",
    "timeout_secs",
    "threads",
    "cache_cap",
];

/// A declarative description of one profile search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// Search name (report header, output file stem).
    pub name: String,
    /// The one benchmark under study.
    pub benchmark: String,
    /// Benchmark-scale divisor.
    pub scale: usize,
    /// Protection level (fraction of gates camouflaged).
    pub level: f64,
    /// Camouflaging scheme.
    pub scheme: CamoScheme,
    /// Attacks every candidate must defeat.
    pub attacks: Vec<AttackKind>,
    /// Rotation budget: `0` searches the noise-only frontier; `n > 0`
    /// scores candidates against the **combined** defense
    /// ([`gshe_attacks::OracleStack::rotating_noisy`] at period `n`) — the cheapest
    /// noise *given* that rotation budget.
    pub rotation_period: u64,
    /// Clock periods (ns) seeding generation 0 via the device Monte
    /// Carlo; empty uses the spec default `[0.8, 2.0, 6.0]`.
    pub clock_periods_ns: Vec<f64>,
    /// Attack trials per (candidate, attack).
    pub trials: u64,
    /// Mutation generations after the physics-seeded generation 0.
    pub generations: u64,
    /// Offspring per generation (the λ of 1+λ).
    pub lambda: usize,
    /// Highest attacker success rate a candidate may show and still win
    /// (the target confidence; 0.0 = the defense must shut the attack
    /// out completely).
    pub target_success: f64,
    /// Master seed; the whole search replays from it.
    pub seed: u64,
    /// Wall-clock budget per attack trial.
    pub timeout: Duration,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Oracle-cache entry cap for the session (0 = unbounded).
    pub cache_cap: u64,
}

impl Default for SearchSpec {
    fn default() -> Self {
        SearchSpec {
            name: "profile-search".to_string(),
            benchmark: "ex1010".to_string(),
            scale: 400,
            level: 0.15,
            scheme: CamoScheme::GsheAll16,
            attacks: vec![AttackKind::Sat],
            rotation_period: 0,
            clock_periods_ns: Vec::new(),
            trials: 2,
            generations: 3,
            lambda: 4,
            target_success: 0.0,
            seed: 1,
            timeout: Duration::from_secs(30),
            threads: 0,
            cache_cap: 1 << 16,
        }
    }
}

impl SearchSpec {
    /// The clock periods seeding generation 0 (the default span covers
    /// the device's deterministic-to-stochastic regime, Fig. 4).
    pub fn seed_clock_periods(&self) -> Vec<f64> {
        if self.clock_periods_ns.is_empty() {
            vec![0.8, 2.0, 6.0]
        } else {
            self.clock_periods_ns.clone()
        }
    }

    /// Parses a search spec from the same minimal TOML subset campaign
    /// specs use (see [`crate::CampaignSpec::parse_toml`]); a `[search]`
    /// table header is accepted and ignored.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line.
    pub fn parse_toml(text: &str) -> Result<SearchSpec, String> {
        let mut spec = SearchSpec::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() || line.starts_with('[') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let fail = |what: &str| format!("line {}: {what}", lineno + 1);
            match key {
                "name" => spec.name = parse_string(value).ok_or_else(|| fail("bad string"))?,
                "benchmark" => {
                    spec.benchmark = parse_string(value).ok_or_else(|| fail("bad string"))?
                }
                "scale" => spec.scale = value.parse().map_err(|_| fail("bad integer"))?,
                "level" => spec.level = value.parse().map_err(|_| fail("bad number"))?,
                "scheme" => {
                    let name = parse_string(value).ok_or_else(|| fail("bad string"))?;
                    spec.scheme = parse_scheme(&name).ok_or_else(|| {
                        fail(&format!(
                            "unknown scheme `{name}` (valid: {})",
                            valid_scheme_names()
                        ))
                    })?;
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
                "rotation_period" => {
                    spec.rotation_period = value.parse().map_err(|_| fail("bad integer"))?
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
                "trials" => spec.trials = value.parse().map_err(|_| fail("bad integer"))?,
                "generations" => {
                    spec.generations = value.parse().map_err(|_| fail("bad integer"))?
                }
                "lambda" => spec.lambda = value.parse().map_err(|_| fail("bad integer"))?,
                "target_success" => {
                    spec.target_success = value.parse().map_err(|_| fail("bad number"))?
                }
                "seed" => spec.seed = value.parse().map_err(|_| fail("bad integer"))?,
                "timeout_secs" => {
                    spec.timeout =
                        Duration::from_secs(value.parse().map_err(|_| fail("bad integer"))?)
                }
                "threads" => spec.threads = value.parse().map_err(|_| fail("bad integer"))?,
                "cache_cap" => spec.cache_cap = value.parse().map_err(|_| fail("bad integer"))?,
                other => {
                    return Err(fail(&format!(
                        "unknown key `{other}` (valid keys: {})",
                        SEARCH_KEYS.join(", ")
                    )))
                }
            }
        }
        Ok(spec)
    }
}

/// One candidate defense: a dense rate vector over the keyed netlist's
/// cloaked cells (index i = `camo_gates()[i]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Per-switch error rates, aligned with the keyed netlist's camo
    /// gates.
    pub rates: Vec<f64>,
    /// Human-readable provenance (`"clock:2ns:uniform"`,
    /// `"g2:drop(clock:2ns:uniform)"`, …).
    pub origin: String,
}

impl Candidate {
    /// Switches with a nonzero rate.
    pub fn noisy_switches(&self) -> usize {
        self.rates.iter().filter(|&&r| r > 0.0).count()
    }

    /// Mean rate over *all* cloaked switches (so lowering any rate lowers
    /// the cost, even without silencing a switch).
    pub fn mean_rate(&self) -> f64 {
        if self.rates.is_empty() {
            0.0
        } else {
            self.rates.iter().sum::<f64>() / self.rates.len() as f64
        }
    }
}

/// A candidate plus its measured attack resistance.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCandidate {
    /// The candidate itself.
    pub candidate: Candidate,
    /// Generation the candidate was proposed in (0 = physics seeds).
    pub generation: u64,
    /// Switches with a nonzero rate (the first cost axis).
    pub noisy_switches: usize,
    /// Mean per-switch rate (the second cost axis).
    pub mean_rate: f64,
    /// Fraction of attack runs that recovered a functionally-correct key.
    pub success_rate: f64,
    /// Total attack runs scored (trials × attacks).
    pub attack_runs: u64,
    /// Mean oracle queries per attack run.
    pub mean_queries: f64,
    /// The candidate defeats every attack at the target confidence.
    pub wins: bool,
}

/// Everything a profile search produced.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The spec the search ran.
    pub spec: SearchSpec,
    /// Every candidate scored, in evaluation order.
    pub evaluated: Vec<ScoredCandidate>,
    /// Indices into `evaluated`: the winning Pareto front, sorted by
    /// (noisy switches, mean rate).
    pub front: Vec<usize>,
    /// Worker threads the search ran on.
    pub threads: usize,
    /// Total wall-clock time.
    pub wall_time: Duration,
    /// Oracle cache (hits, misses, entries, evictions, cap) at the end of
    /// the search.
    pub cache: (u64, u64, u64, u64, u64),
}

impl SearchReport {
    /// The winning Pareto-front rows, cheapest first.
    pub fn front_rows(&self) -> Vec<&ScoredCandidate> {
        self.front.iter().map(|&i| &self.evaluated[i]).collect()
    }

    /// Full JSON, including wall-clock timings and cache stats.
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// JSON with every timing and machine-dependent field omitted: a pure
    /// function of the search spec, byte-identical at any thread count.
    pub fn deterministic_json(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, timing: bool) -> String {
        let mut out = String::new();
        out.push('{');
        json_str(&mut out, "search", &self.spec.name);
        out.push(',');
        json_str(&mut out, "benchmark", &self.spec.benchmark);
        out.push(',');
        json_str(&mut out, "scheme", scheme_name(self.spec.scheme));
        let _ = write!(
            out,
            ",\"level\":{},\"attacks\":[",
            json_f64(self.spec.level)
        );
        for (i, attack) in self.spec.attacks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", attack.name());
        }
        let _ = write!(
            out,
            "],\"rotation_period\":{},\"target_success\":{},\"generations\":{},\"lambda\":{}",
            self.spec.rotation_period,
            json_f64(self.spec.target_success),
            self.spec.generations,
            self.spec.lambda,
        );
        if timing {
            let (hits, misses, entries, evictions, cap) = self.cache;
            let _ = write!(
                out,
                ",\"threads\":{},\"wall_time_secs\":{},\"cache_hits\":{hits},\
                 \"cache_misses\":{misses},\"cache_entries\":{entries},\
                 \"cache_evictions\":{evictions}",
                self.threads,
                json_f64(self.wall_time.as_secs_f64()),
            );
            if cap != crate::cache::UNBOUNDED {
                let _ = write!(out, ",\"cache_cap\":{cap}");
            }
        }
        out.push_str(",\"front\":[");
        for (i, &idx) in self.front.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_candidate(&mut out, &self.evaluated[idx]);
        }
        out.push_str("],\"evaluated\":[");
        for (i, row) in self.evaluated.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_candidate(&mut out, row);
        }
        out.push_str("]}");
        out
    }

    /// CSV of every evaluated candidate (with an `on_front` marker).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "origin,generation,noisy_switches,mean_rate,success_rate,wins,on_front,\
             attack_runs,mean_queries\n",
        );
        for (i, row) in self.evaluated.iter().enumerate() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{}",
                row.candidate.origin,
                row.generation,
                row.noisy_switches,
                row.mean_rate,
                row.success_rate,
                row.wins,
                self.front.contains(&i),
                row.attack_runs,
                row.mean_queries,
            );
        }
        out
    }
}

fn render_candidate(out: &mut String, row: &ScoredCandidate) {
    out.push('{');
    json_str(out, "origin", &row.candidate.origin);
    let _ = write!(
        out,
        ",\"generation\":{},\"noisy_switches\":{},\"mean_rate\":{},\
         \"success_rate\":{},\"wins\":{},\"attack_runs\":{},\"mean_queries\":{},\"rates\":[",
        row.generation,
        row.noisy_switches,
        json_f64(row.mean_rate),
        json_f64(row.success_rate),
        row.wins,
        row.attack_runs,
        json_f64(row.mean_queries),
    );
    for (i, rate) in row.candidate.rates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_f64(*rate));
    }
    out.push_str("]}");
}

/// Rates below this floor are treated as "silence the switch" by the
/// halving mutation — physically, drives this reliable are deterministic.
const RATE_FLOOR: f64 = 1e-4;

/// One attack-trial outcome: (attacker recovered a correct key, queries).
type TrialOutcome = (bool, u64);

/// The search driver: holds the session, spec, and the one keyed
/// benchmark every candidate defends.
pub struct ProfileSearch<'s> {
    session: &'s EvalSession,
    spec: SearchSpec,
    netlist: Arc<Netlist>,
    keyed: Arc<KeyedNetlist>,
    transform: u64,
}

impl<'s> ProfileSearch<'s> {
    /// Materializes the benchmark and its camouflaged form through the
    /// session (gate selection / transform seeds use the campaign
    /// derivation, so the search defends exactly the instance a campaign
    /// at the same seed would attack).
    ///
    /// # Errors
    ///
    /// Propagates benchmark resolution and camouflage failures; rejects an
    /// out-of-range level or scale, and a spec with no attacks (scoring
    /// would be a 0/0 success rate).
    pub fn new(session: &'s EvalSession, spec: SearchSpec) -> Result<Self, String> {
        check_ranges("level", &[spec.level], &[], spec.scale)?;
        if spec.attacks.is_empty() {
            return Err(format!(
                "search spec `{}` lists no attacks — nothing to defeat (valid: {})",
                spec.name,
                valid_attack_names()
            ));
        }
        let select = select_seed(spec.seed, &spec.benchmark, spec.level);
        let transform = transform_seed(select, spec.scheme);
        let seeds = AttackSeeds {
            select,
            transform,
            oracle: 0,
        };
        let netlist = session.netlist(&spec.benchmark, spec.scale, spec.seed)?;
        let keyed = session.keyed(
            &spec.benchmark,
            spec.scale,
            spec.seed,
            spec.level,
            spec.scheme,
            &seeds,
        )?;
        if keyed.camo_gates().is_empty() {
            return Err(format!(
                "benchmark `{}` at level {} cloaks no gates — nothing to search",
                spec.benchmark, spec.level
            ));
        }
        Ok(ProfileSearch {
            session,
            spec,
            netlist,
            keyed,
            transform,
        })
    }

    /// The keyed netlist under defense.
    pub fn keyed(&self) -> &KeyedNetlist {
        &self.keyed
    }

    /// The search spec.
    pub fn spec(&self) -> &SearchSpec {
        &self.spec
    }

    /// Materializes a candidate's dense [`ErrorProfile`] over the full
    /// netlist.
    pub fn profile_of(&self, candidate: &Candidate) -> ErrorProfile {
        let mut rates = vec![0.0; self.netlist.len()];
        for (gate, &rate) in self.keyed.camo_gates().iter().zip(&candidate.rates) {
            rates[gate.node.index()] = rate;
        }
        ErrorProfile::from_rates(rates)
    }

    fn candidate_from_profile(&self, profile: &ErrorProfile, origin: String) -> Candidate {
        Candidate {
            rates: self
                .keyed
                .camo_gates()
                .iter()
                .map(|g| profile.rate(g.node))
                .collect(),
            origin,
        }
    }

    /// Generation 0: physics-derived operating points — for each seed
    /// clock period, the Monte-Carlo rate spread by every [`NoiseShape`] —
    /// plus the all-quiet baseline (which a sound instance must *reject*,
    /// anchoring the front's "cheaper neighbor loses" property).
    pub fn seed_candidates(&self) -> Vec<Candidate> {
        let mut table = ClockRateTable::new();
        let mut out: Vec<Candidate> = vec![Candidate {
            rates: vec![0.0; self.keyed.camo_gates().len()],
            origin: "baseline:quiet".to_string(),
        }];
        let mut seen: Vec<u64> = out.iter().map(|c| self.fingerprint(c)).collect();
        for clock_ns in self.spec.seed_clock_periods() {
            let rate = table.rate_for(clock_ns);
            for shape in NoiseShape::ALL {
                let profile = noise_profile(&self.keyed, shape, rate);
                let candidate = self.candidate_from_profile(
                    &profile,
                    format!("clock:{clock_ns}ns:{}", shape.name()),
                );
                let fp = self.fingerprint(&candidate);
                if !seen.contains(&fp) {
                    seen.push(fp);
                    out.push(candidate);
                }
            }
        }
        out
    }

    fn fingerprint(&self, candidate: &Candidate) -> u64 {
        self.profile_of(candidate).fingerprint()
    }

    /// Scores `candidates` (trials × attacks each) through the session
    /// pool in one batch; results in candidate order.
    pub fn score(&self, generation: u64, candidates: Vec<Candidate>) -> Vec<ScoredCandidate> {
        let spec = &self.spec;
        let trials = spec.trials.max(1);
        let mut tasks: Vec<Box<dyn FnOnce() -> TrialOutcome + Send>> = Vec::new();
        for candidate in &candidates {
            let profile = self.profile_of(candidate);
            let salt = profile_salt(&profile);
            for &attack in &spec.attacks {
                for trial in 0..trials {
                    let oracle_seed = hash_mix(
                        self.transform
                            ^ hash_str(attack.name())
                            ^ rotation_salt(spec.rotation_period)
                            ^ salt
                            ^ trial,
                    );
                    let profile = profile.clone();
                    let netlist = Arc::clone(&self.netlist);
                    let keyed = Arc::clone(&self.keyed);
                    let cache = Arc::clone(self.session.cache());
                    let config = AttackConfig {
                        timeout: spec.timeout,
                        ..Default::default()
                    };
                    let period = spec.rotation_period;
                    tasks.push(Box::new(move || {
                        let _span = gshe_obs::span("search.trial");
                        gshe_obs::count("search.trials", 1);
                        let runner = AttackRunner::with_config(attack, config, oracle_seed);
                        // The same chip a campaign job builds: quiet static
                        // candidates are deterministic and ride the
                        // session cache.
                        let noise = (!profile.is_quiet()).then_some(profile);
                        let mut chip = cell_oracle(
                            &netlist,
                            &keyed,
                            noise,
                            period,
                            oracle_seed,
                            config.coi,
                            &cache,
                        );
                        let out = runner.run(&keyed, &mut *chip);
                        drop(chip);
                        let attacker_won = out.status == AttackStatus::Success
                            && out
                                .key
                                .as_ref()
                                .and_then(|key| verify_key(&netlist, &keyed, key).ok())
                                .map(|v| v.functionally_equivalent)
                                .unwrap_or(false);
                        (attacker_won, out.queries)
                    }));
                }
            }
        }
        let outcomes = self.session.run_tasks(tasks);
        let runs_per = (spec.attacks.len() as u64) * trials;
        candidates
            .into_iter()
            .enumerate()
            .map(|(i, candidate)| {
                let slice = &outcomes[i * runs_per as usize..(i + 1) * runs_per as usize];
                let attacker_wins = slice.iter().filter(|(won, _)| *won).count() as u64;
                let success_rate = attacker_wins as f64 / runs_per as f64;
                let mean_queries =
                    slice.iter().map(|(_, q)| q).sum::<u64>() as f64 / runs_per as f64;
                ScoredCandidate {
                    noisy_switches: candidate.noisy_switches(),
                    mean_rate: candidate.mean_rate(),
                    success_rate,
                    attack_runs: runs_per,
                    mean_queries,
                    wins: success_rate <= spec.target_success + 1e-12,
                    generation,
                    candidate,
                }
            })
            .collect()
    }

    /// Runs the full search: physics seeds, then `generations` rounds of
    /// λ mutations of the current front. Returns the report with every
    /// scored candidate and the winning Pareto front.
    pub fn run(&self) -> SearchReport {
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(hash_mix(self.spec.seed ^ 0x5EA2_C4ED));
        let mut archive: Vec<ScoredCandidate> = Vec::new();
        let mut seen: Vec<u64> = Vec::new();

        let seeds = self.seed_candidates();
        seen.extend(seeds.iter().map(|c| self.fingerprint(c)));
        archive.extend(self.score(0, seeds));

        for generation in 1..=self.spec.generations {
            let front = pareto_front(&archive);
            let climbing = front.is_empty();
            let parents: Vec<usize> = if climbing {
                // No winner yet: climb from the most resistant candidates.
                best_losers(&archive)
            } else {
                front
            };
            let mut mutants = Vec::new();
            for slot in 0..self.spec.lambda.max(1) {
                let parent = &archive[parents[slot % parents.len()]];
                for _attempt in 0..8 {
                    let candidate = mutate(&parent.candidate, climbing, &mut rng);
                    let Some(candidate) = candidate else { break };
                    let fp = self.fingerprint(&candidate);
                    if !seen.contains(&fp) {
                        seen.push(fp);
                        mutants.push(candidate);
                        break;
                    }
                }
            }
            if mutants.is_empty() {
                break;
            }
            archive.extend(self.score(generation, mutants));
        }

        let mut front = pareto_front(&archive);
        front.sort_by(|&a, &b| {
            let (ra, rb) = (&archive[a], &archive[b]);
            ra.noisy_switches
                .cmp(&rb.noisy_switches)
                .then(ra.mean_rate.total_cmp(&rb.mean_rate))
                .then(a.cmp(&b))
        });
        let cache = self.session.cache();
        let (hits, misses) = cache.stats();
        SearchReport {
            spec: self.spec.clone(),
            evaluated: archive,
            front,
            threads: self.session.threads(),
            wall_time: start.elapsed(),
            cache: (
                hits,
                misses,
                cache.entries(),
                cache.evictions(),
                cache.entry_cap(),
            ),
        }
    }
}

/// Indices of the winning Pareto front over (noisy switches, mean rate):
/// winners no other winner dominates (≤ on both axes, < on one).
pub fn pareto_front(archive: &[ScoredCandidate]) -> Vec<usize> {
    let winners: Vec<usize> = (0..archive.len()).filter(|&i| archive[i].wins).collect();
    winners
        .iter()
        .copied()
        .filter(|&i| {
            let c = &archive[i];
            !winners.iter().any(|&j| {
                if i == j {
                    return false;
                }
                let d = &archive[j];
                let no_worse = d.noisy_switches <= c.noisy_switches && d.mean_rate <= c.mean_rate;
                let better = d.noisy_switches < c.noisy_switches || d.mean_rate < c.mean_rate;
                // Exact cost ties: the earlier evaluation wins the slot.
                no_worse && (better || j < i)
            })
        })
        .collect()
}

/// When no candidate wins yet, climb from the most attack-resistant
/// candidates (lowest success rate; cost breaks ties downward).
fn best_losers(archive: &[ScoredCandidate]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..archive.len()).collect();
    order.sort_by(|&a, &b| {
        archive[a]
            .success_rate
            .total_cmp(&archive[b].success_rate)
            .then(archive[a].mean_rate.total_cmp(&archive[b].mean_rate))
            .then(a.cmp(&b))
    });
    order.truncate(3.min(order.len()));
    order
}

/// One mutation: cheaper neighbors of winners (drop a switch / halve a
/// rate), stronger neighbors (`climbing`) when nothing wins yet (revive a
/// switch at the parent's max rate / double a rate). Returns `None` when
/// the parent has no applicable move.
fn mutate(parent: &Candidate, climbing: bool, rng: &mut StdRng) -> Option<Candidate> {
    let noisy: Vec<usize> = (0..parent.rates.len())
        .filter(|&i| parent.rates[i] > 0.0)
        .collect();
    let mut rates = parent.rates.clone();
    if climbing {
        let quiet: Vec<usize> = (0..rates.len()).filter(|&i| rates[i] == 0.0).collect();
        let max_rate = rates.iter().copied().fold(0.25, f64::max).min(0.5);
        if !quiet.is_empty() && (noisy.is_empty() || rng.gen_bool(0.5)) {
            let i = quiet[rng.gen_range(0..quiet.len())];
            rates[i] = max_rate;
            return Some(Candidate {
                rates,
                origin: format!("g{}:raise({})", i, parent.origin),
            });
        }
        if noisy.is_empty() {
            return None;
        }
        let i = noisy[rng.gen_range(0..noisy.len())];
        rates[i] = (rates[i] * 2.0).min(0.5);
        return Some(Candidate {
            rates,
            origin: format!("g{}:boost({})", i, parent.origin),
        });
    }
    if noisy.is_empty() {
        return None;
    }
    let i = noisy[rng.gen_range(0..noisy.len())];
    if rng.gen_bool(0.5) {
        rates[i] = 0.0;
        Some(Candidate {
            rates,
            origin: format!("g{}:drop({})", i, parent.origin),
        })
    } else {
        let halved = rates[i] / 2.0;
        rates[i] = if halved < RATE_FLOOR { 0.0 } else { halved };
        Some(Candidate {
            rates,
            origin: format!("g{}:halve({})", i, parent.origin),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scored(count: usize, mean: f64, wins: bool) -> ScoredCandidate {
        ScoredCandidate {
            candidate: Candidate {
                rates: (0..4).map(|i| if i < count { mean } else { 0.0 }).collect(),
                origin: "t".into(),
            },
            generation: 0,
            noisy_switches: count,
            mean_rate: mean,
            success_rate: if wins { 0.0 } else { 1.0 },
            attack_runs: 1,
            mean_queries: 0.0,
            wins,
        }
    }

    #[test]
    fn pareto_front_keeps_only_nondominated_winners() {
        let archive = vec![
            scored(3, 0.3, true),  // dominated by (2, 0.2)
            scored(2, 0.2, true),  // front
            scored(1, 0.4, true),  // front (fewer switches, higher mean)
            scored(0, 0.0, false), // loser, never on the front
            scored(2, 0.1, true),  // front (dominates nothing? no: dominates (2,0.2))
        ];
        let front = pareto_front(&archive);
        assert_eq!(front, vec![2, 4]);
    }

    #[test]
    fn fewest_switch_member_need_not_have_the_lowest_mean_rate() {
        // A many-switch, low-rate physics seed and a one-switch, high-rate
        // mutant both sit on the front. The fewest-switch member's mean
        // rate exceeds the seed's, yet every winning seed is still weakly
        // dominated by a front member — the property the front promises.
        let seed = scored(4, 0.00176, true);
        let mut mutant = scored(1, 0.0766, true);
        mutant.generation = 1;
        let archive = vec![scored(0, 0.0, false), seed, mutant];
        let mut front = pareto_front(&archive);
        front.sort_by_key(|&i| archive[i].noisy_switches);
        assert_eq!(front, vec![2, 1]);
        assert!(archive[front[0]].mean_rate > archive[1].mean_rate);
        for s in archive.iter().filter(|r| r.generation == 0 && r.wins) {
            assert!(front.iter().any(|&f| {
                archive[f].noisy_switches <= s.noisy_switches && archive[f].mean_rate <= s.mean_rate
            }));
        }
    }

    #[test]
    fn pareto_front_breaks_exact_ties_toward_the_earlier_candidate() {
        let archive = vec![scored(1, 0.2, true), scored(1, 0.2, true)];
        assert_eq!(pareto_front(&archive), vec![0]);
    }

    #[test]
    fn mutations_are_strictly_cheaper_for_winning_parents() {
        let parent = Candidate {
            rates: vec![0.4, 0.0, 0.2, 0.1],
            origin: "p".into(),
        };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let child = mutate(&parent, false, &mut rng).unwrap();
            let cheaper_count = child.noisy_switches() < parent.noisy_switches();
            let cheaper_mean = child.mean_rate() < parent.mean_rate();
            assert!(cheaper_count || cheaper_mean, "{child:?}");
            // Only one switch moves per mutation.
            let moved = child
                .rates
                .iter()
                .zip(&parent.rates)
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(moved, 1);
        }
        // A quiet parent has no cheaper neighbor.
        let quiet = Candidate {
            rates: vec![0.0; 4],
            origin: "q".into(),
        };
        assert!(mutate(&quiet, false, &mut rng).is_none());
        // Climbing mutations strengthen instead.
        let child = mutate(&quiet, true, &mut rng).unwrap();
        assert!(child.mean_rate() > 0.0);
    }

    #[test]
    fn spec_parses_from_toml_and_rejects_unknown_keys() {
        let text = r#"
[search]
name = "s"
benchmark = "ex1010"
scale = 400
level = 0.15
scheme = "gshe16"
attacks = ["sat", "appsat"]
rotation_period = 4
clock_periods_ns = [0.8, 6.0]
trials = 3
generations = 2
lambda = 5
target_success = 0.25
seed = 9
timeout_secs = 20
threads = 2
"#;
        let spec = SearchSpec::parse_toml(text).unwrap();
        assert_eq!(spec.name, "s");
        assert_eq!(spec.benchmark, "ex1010");
        assert_eq!(spec.scale, 400);
        assert_eq!(spec.level, 0.15);
        assert_eq!(spec.scheme, CamoScheme::GsheAll16);
        assert_eq!(spec.attacks, [AttackKind::Sat, AttackKind::AppSat]);
        assert_eq!(spec.rotation_period, 4);
        assert_eq!(spec.clock_periods_ns, [0.8, 6.0]);
        assert_eq!(spec.trials, 3);
        assert_eq!(spec.generations, 2);
        assert_eq!(spec.lambda, 5);
        assert_eq!(spec.target_success, 0.25);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.timeout, Duration::from_secs(20));
        assert_eq!(spec.threads, 2);

        let err = SearchSpec::parse_toml("bogus = 1").unwrap_err();
        assert!(err.contains("valid keys:"), "{err}");
        assert!(err.contains("target_success"), "{err}");
        let err = SearchSpec::parse_toml(r#"scheme = "nope""#).unwrap_err();
        assert!(err.contains("gshe16"), "{err}");
        assert!(SearchSpec::parse_toml("clock_periods_ns = [0.0]").is_err());
    }

    #[test]
    fn empty_attack_list_is_rejected_at_setup() {
        // runs_per would be 0 and every success rate 0/0 = NaN — a silent
        // "no winning profile" result. Reject loudly instead.
        let spec = SearchSpec {
            attacks: Vec::new(),
            ..SearchSpec::default()
        };
        let session = EvalSession::new(1);
        let err = match ProfileSearch::new(&session, spec) {
            Err(e) => e,
            Ok(_) => panic!("empty attack list accepted"),
        };
        assert!(err.contains("no attacks"), "{err}");
    }

    #[test]
    fn out_of_range_level_and_scale_are_errors_not_panics() {
        let session = EvalSession::new(1);
        type Break = fn(&mut SearchSpec);
        let cases: [(Break, &str); 5] = [
            (|s| s.level = 0.0, "level: 0"),
            (|s| s.level = 1.5, "level: 1.5"),
            (|s| s.level = -0.05, "level: -0.05"),
            (|s| s.level = f64::NAN, "level: NaN"),
            (|s| s.scale = 0, "scale: 0"),
        ];
        for (break_spec, needle) in cases {
            let mut spec = SearchSpec::default();
            break_spec(&mut spec);
            let err = match ProfileSearch::new(&session, spec) {
                Err(e) => e,
                Ok(_) => panic!("{needle}: accepted"),
            };
            assert!(err.contains(needle), "{needle}: {err}");
        }
        // Nothing was materialized for the rejected specs.
        assert_eq!(session.cached_keyed(), 0);
    }

    #[test]
    fn search_defends_the_campaign_instance_at_the_same_seed() {
        // The documented equivalence: a search and a campaign at the same
        // (seed, benchmark, level, scheme) share one materialization — on
        // a shared session the campaign run reuses the search's keyed
        // netlist instead of minting a second one.
        let session = EvalSession::new(1);
        let spec = SearchSpec {
            seed: 5,
            generations: 0,
            ..SearchSpec::default()
        };
        let search = ProfileSearch::new(&session, spec).unwrap();
        assert_eq!(session.cached_keyed(), 1);
        let campaign = crate::CampaignSpec {
            benchmarks: vec![search.spec().benchmark.clone()],
            scale: search.spec().scale,
            levels: vec![search.spec().level],
            schemes: vec![search.spec().scheme],
            seed: search.spec().seed,
            ..Default::default()
        };
        session.run(&campaign).unwrap();
        assert_eq!(
            session.cached_keyed(),
            1,
            "campaign minted a second keyed netlist — seed derivations diverged"
        );
    }

    #[test]
    fn default_clock_seeds_span_the_regime() {
        let spec = SearchSpec::default();
        assert_eq!(spec.seed_clock_periods(), [0.8, 2.0, 6.0]);
        let custom = SearchSpec {
            clock_periods_ns: vec![1.5],
            ..SearchSpec::default()
        };
        assert_eq!(custom.seed_clock_periods(), [1.5]);
    }

    #[test]
    fn candidate_costs_measure_count_and_mean() {
        let c = Candidate {
            rates: vec![0.4, 0.0, 0.2, 0.2],
            origin: "t".into(),
        };
        assert_eq!(c.noisy_switches(), 3);
        assert!((c.mean_rate() - 0.2).abs() < 1e-12);
        let empty = Candidate {
            rates: Vec::new(),
            origin: "e".into(),
        };
        assert_eq!(empty.mean_rate(), 0.0);
    }

    #[test]
    fn report_json_and_csv_cover_front_and_evaluated() {
        let report = SearchReport {
            spec: SearchSpec::default(),
            evaluated: vec![scored(0, 0.0, false), scored(1, 0.25, true)],
            front: vec![1],
            threads: 2,
            wall_time: Duration::from_secs(1),
            cache: (1, 2, 3, 4, 1 << 16),
        };
        let det = report.deterministic_json();
        assert!(det.contains("\"front\":[{"));
        assert!(det.contains("\"evaluated\":["));
        assert!(det.contains("\"noisy_switches\":1"));
        assert!(!det.contains("wall_time"));
        let full = report.to_json();
        assert!(full.contains("\"wall_time_secs\""));
        assert!(full.contains("\"cache_cap\":65536"));
        let csv = report.to_csv();
        assert!(csv.lines().count() == 3);
        assert!(csv.contains(",true,true,"), "{csv}");
        assert_eq!(report.front_rows().len(), 1);
    }
}
