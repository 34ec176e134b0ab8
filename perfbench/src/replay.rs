//! The traced run's replay: every cell of a grid pass re-executed through
//! each layer's public functions, with benchmark-owned spans (`bench.*`)
//! around the calls, so each layer is timed from outside the program.
//!
//! The replay mirrors `gshe_campaign::run_job` step for step — the same
//! attack configuration, the same oracle stack for the cell's defense
//! dimensions, the campaign cache over exact oracles, the same scoped key
//! verification — and the caller checks that every replayed cell does
//! exactly the work its grid run did.

use crate::grid::{keyed_id, BatchInputs};
use crate::workloads::Batch;
use gshe_attacks::{
    assert_valid_key_codes, cone_inputs, encode_keyed, verify_key_scoped, AttackConfig,
    AttackRunner, AttackStatus, CoiProjection, Oracle, OracleStack,
};
use gshe_camo::KeyedNetlist;
use gshe_campaign::{
    noise_profile, CachedOracle, ClockRateTable, JobKind, JobResult, JobSpec, JobStatus,
    OracleCache,
};
use gshe_device::{MonteCarlo, MonteCarloConfig, SwitchParams};
use gshe_logic::{Netlist, PatternBlock, Simulator};
use gshe_sat::{CircuitEncoder, Lit, SolveResult, Solver, SolverStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Span names that partition a replayed cell; `bench.cell` time outside
/// all of them is unattributed.
pub const CELL_PHASES: [&str; 5] = [
    "bench.oracle_build",
    "bench.coi_project",
    "bench.refine",
    "bench.verify",
    "bench.device_mc",
];

/// An [`Oracle`] wrapper owned by the benchmark: counts and times every
/// call the attack engine makes into the real oracle stack.
struct TimedOracle<'o> {
    inner: &'o mut dyn Oracle,
    latencies_ns: Vec<u64>,
}

impl TimedOracle<'_> {
    fn timed<T>(&mut self, call: impl FnOnce(&mut dyn Oracle) -> T) -> T {
        let _span = gshe_obs::span("bench.oracle");
        let start = Instant::now();
        let out = call(&mut *self.inner);
        self.latencies_ns.push(start.elapsed().as_nanos() as u64);
        out
    }
}

impl Oracle for TimedOracle<'_> {
    fn query(&mut self, inputs: &[bool]) -> Vec<bool> {
        self.timed(|o| o.query(inputs))
    }

    fn query_block(&mut self, block: &PatternBlock) -> Vec<u64> {
        self.timed(|o| o.query_block(block))
    }

    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}

/// Layer-side facts about one replayed cell, beyond its job result.
#[derive(Debug, Default)]
pub struct CellFacts {
    /// Latency of every oracle call (query or block), ns.
    pub oracle_latencies_ns: Vec<u64>,
    /// Nodes of the COI cone the attack ran on (0 when COI stayed off).
    pub cone_nodes: u64,
    /// Device Monte Carlo samples drawn.
    pub mc_samples: u64,
}

/// The replay's outcomes.
pub struct Replay {
    /// One result per job, in pass order.
    pub results: Vec<JobResult>,
    /// Layer facts, parallel to `results`.
    pub facts: Vec<CellFacts>,
    /// Device Monte Carlo samples drawn for the clock-rate tables.
    pub clock_table_samples: u64,
}

fn outcome_status(status: AttackStatus) -> JobStatus {
    match status {
        AttackStatus::Success => JobStatus::Completed,
        AttackStatus::Timeout => JobStatus::TimedOut,
        AttackStatus::ResourceExhausted => JobStatus::Exhausted,
        AttackStatus::Inconsistent => JobStatus::Inconsistent,
    }
}

fn blank_result(job: &JobSpec) -> JobResult {
    JobResult {
        spec: job.clone(),
        status: JobStatus::Failed,
        key_recovered: false,
        queries: 0,
        iterations: 0,
        output_error_rate: f64::NAN,
        measurement: f64::NAN,
        elapsed: Duration::ZERO,
        solver_stats: SolverStats::default(),
        error: None,
    }
}

/// Replays one job against prebuilt inputs.
fn replay_job(
    job: &JobSpec,
    batch: &Batch,
    inputs: &BatchInputs,
    cache: &Arc<OracleCache>,
) -> (JobResult, CellFacts) {
    let _cell = gshe_obs::span("bench.cell");
    let start = Instant::now();
    let mut result = blank_result(job);
    let mut facts = CellFacts::default();
    match &job.kind {
        JobKind::Attack {
            benchmark,
            attack,
            error_rate,
            profile,
            rotation_period,
            seeds,
            ..
        } => {
            let spec = &batch.spec;
            let nl: &Netlist = &inputs.netlists[benchmark];
            let id = keyed_id(&job.kind).expect("attack jobs have a keyed identity");
            let keyed: &KeyedNetlist = &inputs.keyed[&id];
            let config = AttackConfig {
                timeout: job.timeout,
                coi: spec.coi_mode,
                simplify: spec.sat_simplify,
                ..AttackConfig::default()
            };
            let runner = AttackRunner::with_config(*attack, config, seeds.oracle);
            facts.cone_nodes = {
                let _span = gshe_obs::span("bench.coi_project");
                CoiProjection::build(keyed, spec.coi_mode).map_or(0, |p| p.cone_len() as u64)
            };
            let mut refine = |oracle: &mut dyn Oracle| {
                let mut timed = TimedOracle {
                    inner: oracle,
                    latencies_ns: Vec::new(),
                };
                let out = {
                    let _span = gshe_obs::span("bench.refine");
                    runner.run(keyed, &mut timed)
                };
                facts.oracle_latencies_ns = timed.latencies_ns;
                out
            };
            let noise = {
                let _span = gshe_obs::span("bench.oracle_build");
                (*error_rate > 0.0).then(|| noise_profile(keyed, *profile, *error_rate))
            };
            let out = match (*rotation_period, noise) {
                (0, None) => {
                    let mut oracle = {
                        let _span = gshe_obs::span("bench.oracle_build");
                        match cone_inputs(keyed, spec.coi_mode) {
                            Some(cone) => CachedOracle::over_cone(nl, Arc::clone(cache), cone),
                            None => CachedOracle::over(nl, Arc::clone(cache)),
                        }
                    };
                    refine(&mut oracle)
                }
                (0, Some(noise)) => {
                    let mut oracle = {
                        let _span = gshe_obs::span("bench.oracle_build");
                        OracleStack::noisy(keyed, noise, seeds.oracle)
                    };
                    refine(&mut oracle)
                }
                (period, None) => {
                    let mut oracle = {
                        let _span = gshe_obs::span("bench.oracle_build");
                        OracleStack::rotating(keyed, period, seeds.oracle)
                    };
                    refine(&mut oracle)
                }
                (period, Some(noise)) => {
                    let mut oracle = {
                        let _span = gshe_obs::span("bench.oracle_build");
                        OracleStack::rotating_noisy(keyed, noise, period, seeds.oracle)
                    };
                    refine(&mut oracle)
                }
            };
            result.status = outcome_status(out.status);
            result.queries = out.queries;
            result.iterations = out.iterations;
            result.solver_stats = out.solver_stats;
            if let Some(key) = &out.key {
                let _span = gshe_obs::span("bench.verify");
                match verify_key_scoped(nl, keyed, key, spec.coi_mode) {
                    Ok(v) => {
                        result.key_recovered = v.functionally_equivalent;
                        result.output_error_rate = v.sampled_error_rate;
                    }
                    Err(e) => {
                        result.status = JobStatus::Failed;
                        result.error = Some(format!("verification failed: {e}"));
                    }
                }
            }
        }
        JobKind::DeviceErrorRate {
            i_s,
            t_clk,
            samples,
            seed,
        } => {
            let _span = gshe_obs::span("bench.device_mc");
            let runs = MonteCarlo::new(MonteCarloConfig {
                params: SwitchParams::table_i(),
                samples: *samples,
                seed: *seed,
                threads: 1,
            })
            .run_range(*i_s, 0, *samples);
            let hits = runs
                .iter()
                .filter(|s| s.switched && s.delay <= *t_clk)
                .count();
            result.measurement = 1.0 - hits as f64 / runs.len().max(1) as f64;
            result.status = JobStatus::Completed;
            facts.mc_samples = *samples as u64;
        }
        JobKind::DeviceDelay { .. } => {
            result.error = Some("device-delay jobs are not part of any workload".into());
        }
    }
    result.elapsed = start.elapsed();
    (result, facts)
}

/// Re-derives the clock-rate tables and replays every job of `batches`
/// against `inputs` on `threads` threads, in pass order.
pub fn replay(batches: &[Batch], inputs: &[BatchInputs], threads: usize) -> Replay {
    let mut clock_table_samples = 0;
    for batch in batches {
        let mut table = ClockRateTable::new();
        for &clock_ns in &batch.spec.clock_periods_ns {
            let _span = gshe_obs::span("bench.clock_table");
            black_box(table.rate_for(clock_ns));
            clock_table_samples += gshe_campaign::physical::CLOCK_SWEEP_MC_SAMPLES as u64;
        }
    }

    let work: Vec<(usize, &JobSpec)> = batches
        .iter()
        .enumerate()
        .flat_map(|(b, batch)| batch.jobs.iter().map(move |job| (b, job)))
        .collect();
    let cache = OracleCache::shared();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<(JobResult, CellFacts)>>> =
        Mutex::new(work.iter().map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(b, job)) = work.get(i) else { break };
                let done = replay_job(job, &batches[b], &inputs[b], &cache);
                slots.lock().expect("a replay thread panicked")[i] = Some(done);
            });
        }
    });
    let (results, facts) = slots
        .into_inner()
        .expect("a replay thread panicked")
        .into_iter()
        .map(|slot| slot.expect("every job was replayed"))
        .unzip();
    Replay {
        results,
        facts,
        clock_table_samples,
    }
}

/// Bit-parallel simulation throughput on `netlists`: gate evaluations
/// (nodes × 64 patterns per block) per second over a fixed block count.
pub fn gate_evals_per_s(netlists: &[&Netlist], seed: u64) -> f64 {
    /// Gate evaluations per netlist, so small designs are timed long
    /// enough to read.
    const EVALS: f64 = 4e8;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut evals = 0.0;
    let start = Instant::now();
    for nl in netlists {
        let per_block = (nl.len() * 64) as f64;
        let blocks = (EVALS / per_block).ceil().max(16.0) as usize;
        let mut sim = Simulator::new(nl);
        for _ in 0..blocks {
            let block = PatternBlock::random(nl.inputs().len(), &mut rng);
            black_box(sim.run(&block).expect("random blocks fit the interface"));
        }
        evals += per_block * blocks as f64;
    }
    evals / start.elapsed().as_secs_f64()
}

/// Solver throughput on a miter the benchmark builds itself: two key
/// copies of `keyed` (encoded with `encode_keyed`) over shared inputs
/// with differing outputs, solved directly for `rounds` distinguishing
/// inputs, each blocked after it is found. Returns (propagations per
/// second, propagations).
pub fn miter_props_per_s(keyed: &KeyedNetlist, rounds: usize) -> (f64, u64) {
    let mut solver = Solver::new();
    let mut key = || -> Vec<Lit> {
        (0..keyed.key_len())
            .map(|_| Lit::pos(solver.new_var()))
            .collect()
    };
    let (k1, k2) = (key(), key());
    let inputs = {
        let mut enc = CircuitEncoder::new(&mut solver);
        assert_valid_key_codes(&mut enc, keyed, &k1);
        assert_valid_key_codes(&mut enc, keyed, &k2);
        let a = encode_keyed(&mut enc, keyed, &k1);
        let b = encode_keyed(&mut enc, keyed, &k2);
        for (x, y) in a.inputs.iter().zip(&b.inputs) {
            enc.equal(*x, *y);
        }
        let differ = enc.miter(&a.outputs, &b.outputs);
        enc.assert(differ);
        a.inputs
    };
    let start = Instant::now();
    for _ in 0..rounds {
        if solver.solve() != SolveResult::Sat {
            break;
        }
        let block: Vec<Lit> = inputs
            .iter()
            .map(|&l| if solver.model_lit(l) { !l } else { l })
            .collect();
        if !solver.add_clause(&block) {
            break;
        }
    }
    let props = solver.stats().propagations;
    (props as f64 / start.elapsed().as_secs_f64(), props)
}
