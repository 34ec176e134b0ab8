//! The end-to-end path: set-up, one grid pass through `EvalSession`, and
//! the correctness checks on its results.

use crate::reference::Reference;
use crate::sys;
use crate::workloads::{self, Batch};
use gshe_attacks::AttackKind;
use gshe_camo::{camouflage, select_gates, KeyedNetlist};
use gshe_campaign::{
    scheme_name, EvalSession, JobKind, JobResult, JobStatus, NoiseShape, WorkerStats,
};
use gshe_logic::{suites, Netlist};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Identity of one camouflaged instance within a batch: benchmark,
/// protection level (bits), scheme, selection and transform seeds.
pub type KeyedId = (String, u64, &'static str, u64, u64);

/// The inputs one batch attacks, built outside the program under test.
pub struct BatchInputs {
    /// Generated netlists by benchmark name.
    pub netlists: HashMap<String, Arc<Netlist>>,
    /// Camouflaged instances.
    pub keyed: HashMap<KeyedId, Arc<KeyedNetlist>>,
}

/// The keyed-instance identity of an attack job (`None` for device jobs).
pub fn keyed_id(kind: &JobKind) -> Option<KeyedId> {
    match kind {
        JobKind::Attack {
            benchmark,
            level,
            scheme,
            seeds,
            ..
        } => Some((
            benchmark.clone(),
            level.to_bits(),
            scheme_name(*scheme),
            seeds.select,
            seeds.transform,
        )),
        _ => None,
    }
}

/// Generates every batch's netlists and camouflages every instance through
/// the layers' own entry points (the functions the session calls), each
/// step inside a `bench.generate` / `bench.camouflage` span.
///
/// # Errors
///
/// Returns a message for an unknown benchmark or a failed transform.
pub fn materialize(batches: &[Batch]) -> Result<Vec<BatchInputs>, String> {
    batches
        .iter()
        .map(|batch| {
            let spec = &batch.spec;
            let mut netlists = HashMap::new();
            for name in spec.resolve_benchmarks()? {
                let bench =
                    suites::spec(&name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
                let _span = gshe_obs::span("bench.generate");
                let nl = suites::benchmark_scaled_with(bench, spec.scale, spec.seed, spec.topology);
                netlists.insert(name, Arc::new(nl));
            }
            let mut keyed = HashMap::new();
            for job in &batch.jobs {
                let (
                    Some(id),
                    JobKind::Attack {
                        benchmark,
                        level,
                        scheme,
                        seeds,
                        ..
                    },
                ) = (keyed_id(&job.kind), &job.kind)
                else {
                    continue;
                };
                if keyed.contains_key(&id) {
                    continue;
                }
                let nl = &netlists[benchmark];
                let _span = gshe_obs::span("bench.camouflage");
                let picks = select_gates(nl, *level, seeds.select);
                let mut rng = StdRng::seed_from_u64(seeds.transform);
                let k = camouflage(nl, &picks, *scheme, &mut rng)
                    .map_err(|e| format!("camouflage failed: {e}"))?;
                keyed.insert(id, Arc::new(k));
            }
            Ok(BatchInputs { netlists, keyed })
        })
        .collect()
}

/// Everything set-up produces: the session the grid runs on, the
/// workload's batches, and their inputs.
pub struct Setup {
    /// The evaluation service (worker pool, cache, memos).
    pub session: EvalSession,
    /// The workload's batches.
    pub batches: Vec<Batch>,
    /// Netlists and camouflaged instances, per batch.
    pub inputs: Vec<BatchInputs>,
}

/// Set-up: session and pool creation, grid expansion (with the clock-rate
/// table), netlist generation and camouflage. The session does not take
/// the inputs built here — it materializes its own, as it does for any
/// caller — so the set-up time prices that work once outside the grid;
/// the traced replay attacks these inputs.
///
/// # Errors
///
/// Propagates workload and materialization failures.
pub fn setup(workload: &str, seed: u64) -> Result<Setup, String> {
    let session = EvalSession::new(workloads::THREADS);
    let batches = workloads::build(workload, seed)?;
    let inputs = materialize(&batches)?;
    Ok(Setup {
        session,
        batches,
        inputs,
    })
}

/// One pass of the grid: every batch through `EvalSession::run_jobs`.
pub struct Pass {
    /// Job results, batches concatenated in order.
    pub results: Vec<JobResult>,
    /// Grid makespan (summed over batches), s.
    pub wall_s: f64,
    /// Process CPU time (user + system) spent in the pass, s.
    pub cpu_s: f64,
    /// Pool activity summed over batches, per worker.
    pub pool: Vec<WorkerStats>,
    /// Oracle-cache hits and misses.
    pub cache: (u64, u64),
    /// Cone-keyed cache hits and misses.
    pub cone: (u64, u64),
    /// Highest netlist-memo footprint any batch reached, bytes.
    pub peak_memo_bytes: u64,
}

impl Pass {
    /// An empty pass over a pool of `threads` workers.
    pub fn new(threads: usize) -> Pass {
        Pass {
            results: Vec::new(),
            wall_s: 0.0,
            cpu_s: 0.0,
            pool: vec![WorkerStats::default(); threads],
            cache: (0, 0),
            cone: (0, 0),
            peak_memo_bytes: 0,
        }
    }

    /// Runs one batch on `session` and adds it to the pass.
    ///
    /// # Errors
    ///
    /// Propagates `run_jobs` failures (a benchmark that cannot be built).
    pub fn run_batch(&mut self, session: &EvalSession, batch: &Batch) -> Result<(), String> {
        let cpu0 = sys::cpu_seconds();
        let start = Instant::now();
        let report = session.run_jobs(&batch.spec, batch.jobs.clone())?;
        self.wall_s += start.elapsed().as_secs_f64();
        self.cpu_s += sys::cpu_seconds() - cpu0;
        for (sum, w) in self.pool.iter_mut().zip(&report.pool) {
            sum.tasks += w.tasks;
            sum.steals += w.steals;
            sum.busy_ns += w.busy_ns;
            sum.idle_ns += w.idle_ns;
        }
        self.cache.0 += report.cache_hits;
        self.cache.1 += report.cache_misses;
        self.cone.0 += report.cone_hits;
        self.cone.1 += report.cone_misses;
        self.peak_memo_bytes = self.peak_memo_bytes.max(report.peak_memo_bytes);
        self.results.extend(report.results);
        Ok(())
    }
}

/// Runs every batch on `session`.
///
/// # Errors
///
/// Propagates `run_jobs` failures (a benchmark that cannot be built).
pub fn run_pass(session: &EvalSession, batches: &[Batch]) -> Result<Pass, String> {
    let mut pass = Pass::new(session.threads());
    for batch in batches {
        pass.run_batch(session, batch)?;
    }
    Ok(pass)
}

/// Wall-clock runtimes of the attack cells, s.
pub fn attack_cell_seconds(results: &[JobResult]) -> Vec<f64> {
    results
        .iter()
        .filter(|r| matches!(r.spec.kind, JobKind::Attack { .. }))
        .map(|r| r.elapsed.as_secs_f64())
        .collect()
}

/// The checked outcome of a set of results.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Attack cells run.
    pub attempted: u64,
    /// Attack cells that failed (see [`check`]).
    pub failed: u64,
    /// Every correctness problem found; empty means correct.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Folds another verdict into this one.
    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// One line naming a job's cell.
pub fn describe(result: &JobResult) -> String {
    match &result.spec.kind {
        JobKind::Attack {
            benchmark,
            attack,
            error_rate,
            clock_ns,
            profile,
            rotation_period,
            trial,
            seeds,
            ..
        } => format!(
            "{benchmark} {attack} rate {error_rate} clock {clock_ns} ns {profile} \
             period {rotation_period} trial {trial} select {:#x}",
            seeds.select
        ),
        other => format!("{other:?}"),
    }
}

/// Checks a pass's results.
///
/// - An attack cell *fails* when it ends `Failed`, `TimedOut` or
///   `Exhausted`, or when it is a `sat`/`double-dip` cell on an exact
///   oracle (no noise, no rotation) that does not recover a verified key.
///   On a noisy or rotating oracle, `Inconsistent` is the defense
///   working and is not a failure.
/// - Problems (the output is wrong): a `Failed` job, an exact
///   `sat`/`double-dip` cell without a verified key, a device error rate
///   that is not bit for bit the pinned reference value, or a broken
///   stochastic-defense verdict: at each oracle accuracy below 100%
///   (static oracle, every cloaked cell at the same rate) the attacks
///   must recover a verified key in fewer than half of their cells. The
///   verdict is a majority, as in the repository's own stochastic tests:
///   on the scaled netlists a 99%-accurate chip sometimes answers every
///   query of a short attack correctly, and the attack then wins.
pub fn check(results: &[JobResult], reference: &Reference) -> Verdict {
    let mut verdict = Verdict::default();
    // Error rate (bits) -> (verified keys, cells) over static uniform cells.
    let mut noisy: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for r in results {
        match &r.spec.kind {
            JobKind::Attack {
                attack,
                error_rate,
                clock_ns,
                profile,
                rotation_period,
                ..
            } => {
                verdict.attempted += 1;
                let exact = *error_rate == 0.0 && *rotation_period == 0;
                let must_recover =
                    exact && matches!(attack, AttackKind::Sat | AttackKind::DoubleDip);
                let unrecovered = must_recover && !r.key_recovered;
                if matches!(
                    r.status,
                    JobStatus::Failed | JobStatus::TimedOut | JobStatus::Exhausted
                ) || unrecovered
                {
                    verdict.failed += 1;
                }
                if r.status == JobStatus::Failed {
                    verdict.problems.push(format!(
                        "job failed: {} ({})",
                        describe(r),
                        r.error.as_deref().unwrap_or("no detail")
                    ));
                }
                if unrecovered {
                    verdict.problems.push(format!(
                        "exact-oracle cell recovered no verified key: {} ({})",
                        describe(r),
                        r.status.name()
                    ));
                }
                if *error_rate > 0.0
                    && *clock_ns == 0.0
                    && *rotation_period == 0
                    && *profile == NoiseShape::Uniform
                {
                    let level = noisy.entry(error_rate.to_bits()).or_insert((0, 0));
                    level.0 += u64::from(r.key_recovered);
                    level.1 += 1;
                }
            }
            JobKind::DeviceErrorRate { t_clk, .. } => match reference.device_rate(*t_clk) {
                Some(expected) if expected.to_bits() == r.measurement.to_bits() => {}
                expected => verdict.problems.push(format!(
                    "device error rate at {t_clk:e} s is {:?}, reference {expected:?}",
                    r.measurement
                )),
            },
            JobKind::DeviceDelay { .. } => {}
        }
    }
    for (rate, (keys, cells)) in noisy {
        let accuracy = 100.0 * (1.0 - f64::from_bits(rate));
        println!("stochastic verdict: {accuracy}% accuracy, {keys}/{cells} keys recovered");
        if 2 * keys >= cells {
            verdict.problems.push(format!(
                "a {accuracy}%-accurate oracle lost the key in {keys} of {cells} cells"
            ));
        }
    }
    verdict
}

/// The deterministic part of a job result: everything except times.
pub fn work_signature(r: &JobResult) -> (JobStatus, bool, u64, u64, [u64; 10], u64) {
    let s = &r.solver_stats;
    (
        r.status,
        r.key_recovered,
        r.queries,
        r.iterations,
        [
            s.decisions,
            s.propagations,
            s.conflicts,
            s.restarts,
            s.learnts,
            s.deleted,
            s.db_gcs,
            s.elim_vars,
            s.subsumed,
            s.strengthened,
        ],
        r.measurement.to_bits(),
    )
}

/// Flags every cell whose deterministic work differs between two runs of
/// the same job list.
pub fn compare_runs(what: &str, a: &[JobResult], b: &[JobResult]) -> Vec<String> {
    if a.len() != b.len() {
        return vec![format!("{what}: {} vs {} results", a.len(), b.len())];
    }
    a.iter()
        .zip(b)
        .filter(|(x, y)| work_signature(x) != work_signature(y))
        .map(|(x, y)| {
            format!(
                "{what}: work differs for {}: {:?} vs {:?}",
                describe(x),
                work_signature(x),
                work_signature(y)
            )
        })
        .collect()
}

/// Deterministic work totals over a pass: conflicts, propagations,
/// decisions, queries, iterations, recovered keys.
pub fn work_totals(results: &[JobResult]) -> [u64; 6] {
    let mut t = [0u64; 6];
    for r in results {
        t[0] += r.solver_stats.conflicts;
        t[1] += r.solver_stats.propagations;
        t[2] += r.solver_stats.decisions;
        t[3] += r.queries;
        t[4] += r.iterations;
        t[5] += u64::from(r.key_recovered);
    }
    t
}
