//! # gshe-campaign
//!
//! A sharded, multi-threaded **campaign engine** orchestrating
//! protect→attack→measure experiments at scale. The paper's evaluation
//! (Tables II–IV, Figs. 4–6) is a grid of campaigns — many netlists ×
//! camouflaging schemes × attack configurations × stochastic error rates —
//! and this crate turns that grid into a first-class object instead of a
//! hand-rolled loop per harness binary:
//!
//! * [`CampaignSpec`] — the declarative grid (benchmark suite × scheme
//!   grid × attack grid × error-rate sweep, with seeds and budgets);
//! * [`CampaignSpec::expand`] — unrolls the grid into [`JobSpec`]s whose
//!   RNG seeds derive from the campaign seed and each job's *identity*
//!   (never execution order), so results are reproducible at any thread
//!   count;
//! * [`pool`] — a work-stealing thread pool (std-only) executing jobs with
//!   per-job wall-clock budgets; a job that exhausts its budget is marked
//!   [`JobStatus::TimedOut`] instead of wedging the pool;
//! * [`cache`] — the oracle stack's caching layer: a sharded,
//!   campaign-wide oracle-response cache with **block-level** keys
//!   (netlist fingerprint + packed 64-pattern block), so no block is
//!   simulated — or hashed pattern-at-a-time — twice across jobs;
//! * [`physical`] — device-derived operating points: the memoized
//!   clock-period → error-rate table behind the `clock_periods_ns` grid
//!   dimension, and the device-derived rate functions
//!   ([`physical::error_rate_for_clock`],
//!   [`physical::error_profile_for_drives`]) it is built on;
//! * [`aggregate`]/[`report`] — reduce raw job results into the paper's
//!   table rows (key-recovery rate, query counts, output-error rate,
//!   runtime percentiles) and serialize them to JSON or CSV;
//! * [`EvalSession`] — the persistent **evaluation service** behind it
//!   all: a long-lived worker pool plus session-wide oracle cache and
//!   memoized benchmark/scheme materializations, so repeated scoring
//!   calls (many specs, or a profile search's candidate stream) stop
//!   re-spawning threads and re-parsing netlists;
//! * [`search`] — the defender's inverse problem on top of the service:
//!   [`ProfileSearch`] (1+λ)-evolves dense per-switch error-rate vectors
//!   toward the cheapest profile that still defeats the attacks, and
//!   reports the Pareto front.
//!
//! ## Quick start
//!
//! ```
//! use gshe_campaign::{Campaign, CampaignSpec};
//! use gshe_camo::CamoScheme;
//! use std::time::Duration;
//!
//! let spec = CampaignSpec {
//!     name: "doc-smoke".into(),
//!     benchmarks: vec!["ex1010".into()],
//!     scale: 400,
//!     levels: vec![0.2],
//!     schemes: vec![CamoScheme::InvBuf],
//!     timeout: Duration::from_secs(30),
//!     threads: 2,
//!     ..Default::default()
//! };
//! let report = Campaign::run(&spec).unwrap();
//! assert_eq!(report.rows.len(), 1);
//! ```
//!
//! ## Spec file format
//!
//! [`CampaignSpec::parse_toml`] reads a minimal TOML subset: `key = value`
//! lines, `#` comments, double-quoted strings, and one-line homogeneous
//! arrays. A single optional `[campaign]` table header is accepted and
//! ignored. Keys (all optional, defaults in parentheses):
//!
//! ```toml
//! [campaign]
//! name = "table4"            # report name ("campaign")
//! benchmarks = ["c7552", "suite:itc99"]  # names, suite:<name>, "all",
//!                            # or `.aag` file paths (AIGER frontend)
//! scale = 20                 # benchmark scale divisor (20)
//! topology = "local"         # generator wiring: uniform | local ("uniform")
//! levels = [0.1, 0.2]        # protection fractions ([0.2])
//! schemes = ["gshe16"]       # scheme names, or "all" (["gshe16"])
//! attacks = ["sat"]          # sat | double-dip | appsat (["sat"])
//! coi_mode = "off"           # cone-of-influence reduction: on | off ("on")
//! sat_simplify = "auto"      # solver pre/inprocessing + single-sided
//!                            # encoding: auto | auto:<clauses> | on | off
//!                            # ("auto")
//! error_rates = [0.0, 0.05]  # oracle per-cell error rates ([0.0])
//! clock_periods_ns = [0.8, 2] # physical clock periods as rate sources ([])
//! profiles = ["uniform"]     # error-profile shapes, or "all" (["uniform"])
//! rotation_periods = [0, 16] # dynamic-camouflaging periods ([0])
//! trials = 3                 # repeats per grid cell (1)
//! seed = 1                   # master seed (1)
//! timeout_secs = 60          # per-job attack budget (60)
//! threads = 0                # workers; 0 = available parallelism (0)
//! memo_budget_mb = 256.5     # streaming memo budget, MiB; 0 = unbounded (0)
//! ```
//!
//! Scheme names: `look-alike`, `stt-lut`, `sinw`, `inv-buf`, `four-fn`,
//! `dwm`, `gshe16`.
//!
//! Profile names: `uniform` (every cloaked cell at the rate),
//! `output-cone` (only cloaked cells in the deepest output's fanin cone),
//! `depth-gradient` (rate scaled by logic level). Profiles describe *how*
//! each rate spreads over the cloaked cells; their oracles run on the
//! bit-parallel [`gshe_logic::FaultSimulator`] noise engine.
//!
//! `clock_periods_ns` sweeps *physical* operating points: each period's
//! per-cell rate is derived from the device Monte Carlo at the nominal
//! drive current ([`physical::ClockRateTable`], one memoized sweep per
//! distinct period), then spread by the profile shapes exactly like an
//! abstract rate. Rows carry the period as `clock_ns` (implicit when 0).
//!
//! Rotation periods sweep the *dynamic camouflaging* defense (Sec. V-C):
//! `0` is the static oracle the grid always had, `n > 0` stacks a
//! rotation layer that draws a fresh random key every `n` queries.
//! Jobs materialize one [`gshe_attacks::OracleStack`] per cell, built
//! from the cell's dimensions, so `rotation_periods × rates × profiles`
//! is a full grid: cells with both a period and a nonzero rate attack
//! the **combined defense** ([`gshe_attacks::OracleStack::rotating_noisy`]
//! — rotation layered over the noisy base). Rows and CSV carry the
//! period, and JSON leaves period 0 implicit so pre-existing
//! deterministic reports stay byte-identical.
//!
//! ## Determinism contract
//!
//! [`CampaignReport::deterministic_json`] is a pure function of the spec:
//! byte-identical across `threads = 1` and `threads = N` runs. Wall-clock
//! metrics (runtime percentiles, cache hit counts) live only in the full
//! [`CampaignReport::to_json`] flavor.
//!
//! One caveat: job *statuses* are part of the deterministic output, and a
//! wall-clock timeout is decided by the clock — the paper's t-o semantics.
//! A job whose real runtime sits near its budget can therefore flip
//! between `Completed` and `TimedOut` under CPU contention (e.g.
//! oversubscribed workers on few cores). The contract holds whenever
//! budgets are comfortably above or below actual runtimes; for strict
//! scheduling-independence set `AttackConfig::max_iterations` /
//! conflict budgets instead of tight wall clocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod cache;
pub mod job;
pub mod physical;
pub mod pool;
pub mod report;
pub mod search;
pub mod spec;

pub use aggregate::{CellKey, DeviceRow, TableRow};
pub use cache::{netlist_fingerprint, CacheLayer, CachedOracle, OracleCache};
pub use job::{
    cell_oracle, noise_profile, run_job, select_seed, transform_seed, AttackSeeds, JobContext,
    JobKind, JobResult, JobSpec, JobStatus, KeyedMemo, NoiseShape,
};
pub use physical::ClockRateTable;
pub use pool::{pool_summary, WorkerPool, WorkerStats};
pub use report::CampaignReport;
pub use search::{Candidate, ProfileSearch, ScoredCandidate, SearchReport, SearchSpec};
pub use spec::{
    parse_scheme, scheme_name, valid_attack_names, valid_key_names, valid_profile_names,
    valid_scheme_names, CampaignSpec, SPEC_KEYS,
};

use gshe_camo::KeyedNetlist;
use gshe_device::SwitchParams;
use gshe_logic::{suites, Netlist, Topology};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A named, shareable benchmark netlist (one [`JobContext`] entry).
type NamedNetlist = (String, Arc<Netlist>);

/// Memo key for one materialized benchmark: (name, scale divisor, seed,
/// topology profile).
type NetlistKey = (String, usize, u64, Topology);

/// Where a benchmark name materializes from: the synthetic generator
/// (a [`suites`] spec) or an on-disk AIGER `.aag` file, whose text is
/// read eagerly so I/O failures surface before any generation work.
enum NetlistSource {
    /// Generator-backed benchmark (the historical suites).
    Spec(&'static suites::BenchmarkSpec),
    /// File-backed benchmark: the raw `.aag` document.
    Aag(String),
}

impl NetlistSource {
    /// Resolves `name`: `.aag` paths load from disk, everything else must
    /// be a known suites benchmark.
    fn resolve(name: &str) -> Result<NetlistSource, String> {
        if name.ends_with(".aag") {
            let text = std::fs::read_to_string(name)
                .map_err(|e| format!("cannot read AIGER benchmark `{name}`: {e}"))?;
            Ok(NetlistSource::Aag(text))
        } else {
            suites::spec(name)
                .map(NetlistSource::Spec)
                .ok_or_else(|| format!("unknown benchmark `{name}`"))
        }
    }

    /// Builds the netlist. File-backed benchmarks ignore `scale`/`seed`/
    /// `topology` — their structure is the file's.
    fn build(
        self,
        name: &str,
        scale: usize,
        seed: u64,
        topology: Topology,
    ) -> Result<Netlist, String> {
        match self {
            NetlistSource::Spec(bench_spec) => Ok(suites::benchmark_scaled_with(
                bench_spec, scale, seed, topology,
            )),
            NetlistSource::Aag(text) => gshe_logic::parse_aag(&text)
                .map_err(|e| format!("bad AIGER benchmark `{name}`: {e}")),
        }
    }
}

/// The benchmarks a job list references, in first-reference order (the
/// order streaming admission walks them in).
fn referenced_benchmarks(jobs: &[JobSpec]) -> Vec<String> {
    let mut referenced: Vec<String> = Vec::new();
    for job in jobs {
        if let JobKind::Attack { benchmark, .. } = &job.kind {
            if !referenced.iter().any(|n| n == benchmark) {
                referenced.push(benchmark.clone());
            }
        }
    }
    referenced
}

/// Resolves a thread-count knob (0 = available parallelism).
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// A long-lived **evaluation service**: the persistent machinery one-shot
/// campaign runs used to rebuild per call — worker threads, the shared
/// block-level [`OracleCache`], and memoized benchmark / scheme
/// materializations — extracted so repeated scoring calls (a profile
/// search evaluates hundreds of candidates; a harness sweeps many specs)
/// pay for thread spawn, netlist generation, and camouflaging once per
/// *session* instead of once per *run*.
///
/// [`Campaign::run`] is a thin one-session wrapper; its output is
/// byte-identical whether jobs run through a fresh or a warm session
/// (memoization only skips recomputing deterministic values, and
/// cache/timing stats are per-run deltas).
pub struct EvalSession {
    pool: pool::WorkerPool,
    cache: Arc<OracleCache>,
    netlists: Mutex<Vec<(NetlistKey, Arc<Netlist>)>>,
    keyed: Arc<job::KeyedMemo>,
    params: SwitchParams,
    /// High-water mark of the netlist memo's summed arena bytes, sampled
    /// at every admission and chunk boundary (the memory the streaming
    /// scheduler bounds; keyed materializations ride along per chunk).
    peak_memo: AtomicU64,
}

impl std::fmt::Debug for EvalSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalSession")
            .field("threads", &self.threads())
            .field("cached_netlists", &self.cached_netlists())
            .field("cached_keyed", &self.cached_keyed())
            .finish()
    }
}

impl EvalSession {
    /// A session with `threads` workers (0 = available parallelism) and an
    /// unbounded oracle cache.
    pub fn new(threads: usize) -> Self {
        Self::with_cache_cap(threads, 0)
    }

    /// A session whose oracle cache is bounded to `cache_cap` entries
    /// (0 = unbounded) — long-lived sessions scoring open-ended candidate
    /// streams should set a cap so the cache cannot grow without bound.
    pub fn with_cache_cap(threads: usize, cache_cap: u64) -> Self {
        EvalSession {
            pool: pool::WorkerPool::new(resolve_threads(threads)),
            cache: OracleCache::shared_with_cap(cache_cap),
            netlists: Mutex::new(Vec::new()),
            keyed: Arc::new(job::KeyedMemo::default()),
            params: SwitchParams::table_i(),
            peak_memo: AtomicU64::new(0),
        }
    }

    /// Worker threads the session runs on.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The session-wide oracle cache.
    pub fn cache(&self) -> &Arc<OracleCache> {
        &self.cache
    }

    /// Benchmarks materialized so far.
    pub fn cached_netlists(&self) -> usize {
        self.netlists.lock().unwrap().len()
    }

    /// Scheme materializations memoized so far.
    pub fn cached_keyed(&self) -> usize {
        self.keyed.len()
    }

    /// High-water mark, in bytes, of the benchmark memo's summed
    /// [`Netlist::arena_bytes`] over the session's lifetime. Under a
    /// `memo_budget_mb` streaming run this is the number the budget
    /// bounds (modulo one carried-over benchmark of slack — see
    /// [`CampaignSpec::memo_budget_mb`]).
    pub fn peak_memo_bytes(&self) -> u64 {
        self.peak_memo.load(Ordering::Relaxed)
    }

    /// Current netlist-memo footprint: summed arena bytes over every
    /// resident materialization.
    fn memo_bytes(&self) -> u64 {
        self.netlists
            .lock()
            .unwrap()
            .iter()
            .map(|(_, nl)| nl.arena_bytes() as u64)
            .sum()
    }

    /// Samples the current memo footprint into the peak gauge.
    fn note_memo_peak(&self) {
        self.peak_memo
            .fetch_max(self.memo_bytes(), Ordering::Relaxed);
    }

    /// Runs an arbitrary task batch on the session's worker pool, results
    /// in submission order (the [`pool::WorkerPool::run_all`] contract).
    /// This is the raw entry point the profile search scores candidates
    /// through; campaign runs use [`EvalSession::run`].
    pub fn run_tasks<R: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> R + Send>>,
    ) -> Vec<R> {
        self.pool.run_all(tasks)
    }

    /// The benchmark netlist for `(name, scale, seed)`, generated through
    /// the worker pool on first use and memoized for the session's
    /// lifetime.
    ///
    /// # Errors
    ///
    /// Returns a message when `name` resolves to no known benchmark.
    pub fn netlist(&self, name: &str, scale: usize, seed: u64) -> Result<Arc<Netlist>, String> {
        self.netlist_with(name, scale, seed, Topology::Uniform)
    }

    /// [`EvalSession::netlist`] with an explicit topology profile for
    /// generator-backed benchmarks (file-backed `.aag` benchmarks ignore
    /// it — their structure is the file's).
    ///
    /// # Errors
    ///
    /// Returns a message when `name` resolves to no known benchmark.
    pub fn netlist_with(
        &self,
        name: &str,
        scale: usize,
        seed: u64,
        topology: Topology,
    ) -> Result<Arc<Netlist>, String> {
        Ok(self
            .materialize_netlists(&[name.to_string()], scale, seed, topology)?
            .remove(0)
            .1)
    }

    /// The keyed (camouflaged) netlist for the given materialization
    /// identity, memoized for the session's lifetime.
    ///
    /// # Errors
    ///
    /// Propagates benchmark resolution and camouflage failures.
    pub fn keyed(
        &self,
        name: &str,
        scale: usize,
        seed: u64,
        level: f64,
        scheme: gshe_camo::CamoScheme,
        seeds: &AttackSeeds,
    ) -> Result<Arc<KeyedNetlist>, String> {
        let nl = self.netlist(name, scale, seed)?;
        self.keyed.get_or_materialize(&nl, level, scheme, seeds)
    }

    /// Materializes every benchmark in `names` (memoized), generating the
    /// missing ones in parallel through the pool. Returns entries in
    /// `names` order.
    fn materialize_netlists(
        &self,
        names: &[String],
        scale: usize,
        seed: u64,
        topology: Topology,
    ) -> Result<Vec<NamedNetlist>, String> {
        // Resolve every name up front so unknown benchmarks (and
        // unreadable `.aag` files) fail before any generation work.
        let mut missing: Vec<(String, NetlistSource)> = Vec::new();
        {
            let memo = self.netlists.lock().unwrap();
            for name in names {
                let key = (name.clone(), scale, seed, topology);
                if memo.iter().any(|(k, _)| *k == key) || missing.iter().any(|(n, _)| n == name) {
                    continue;
                }
                missing.push((name.clone(), NetlistSource::resolve(name)?));
            }
        }
        // Generation can be minutes of work at low scale divisors, so it
        // runs through the same work-stealing pool as the jobs (and
        // outside the memo lock).
        let gen_tasks: Vec<Box<dyn FnOnce() -> Result<NamedNetlist, String> + Send>> = missing
            .into_iter()
            .map(|(name, source)| {
                Box::new(move || {
                    let _span = gshe_obs::span("session.materialize");
                    let nl = source.build(&name, scale, seed, topology)?;
                    Ok((name, Arc::new(nl)))
                }) as Box<dyn FnOnce() -> Result<NamedNetlist, String> + Send>
            })
            .collect();
        let generated = self
            .pool
            .run_all(gen_tasks)
            .into_iter()
            .collect::<Result<Vec<NamedNetlist>, String>>()?;
        let mut memo = self.netlists.lock().unwrap();
        for (name, nl) in generated {
            let key = (name.clone(), scale, seed, topology);
            if !memo.iter().any(|(k, _)| *k == key) {
                memo.push((key, nl));
            }
        }
        let out = names
            .iter()
            .map(|name| {
                let key = (name.clone(), scale, seed, topology);
                let nl = memo
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, nl)| Arc::clone(nl))
                    .expect("materialized above");
                (name.clone(), nl)
            })
            .collect();
        drop(memo);
        self.note_memo_peak();
        Ok(out)
    }

    /// Materializes one benchmark **without** admitting it to the memo —
    /// streaming admission must measure a candidate's arena bytes before
    /// committing memo residency. Returns the resident entry when the
    /// memo already holds one (a warm session).
    fn materialize_one(
        &self,
        name: &str,
        scale: usize,
        seed: u64,
        topology: Topology,
    ) -> Result<NamedNetlist, String> {
        let key = (name.to_string(), scale, seed, topology);
        if let Some(nl) = self
            .netlists
            .lock()
            .unwrap()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, nl)| Arc::clone(nl))
        {
            return Ok((name.to_string(), nl));
        }
        let _span = gshe_obs::span("session.materialize");
        let nl = NetlistSource::resolve(name)?.build(name, scale, seed, topology)?;
        Ok((name.to_string(), Arc::new(nl)))
    }

    /// Admits chunk entries into the netlist memo (idempotent), so the
    /// peak gauge sees exactly the resident set.
    fn admit(&self, chunk: &[NamedNetlist], scale: usize, seed: u64, topology: Topology) {
        let mut memo = self.netlists.lock().unwrap();
        for (name, nl) in chunk {
            let key = (name.clone(), scale, seed, topology);
            if !memo.iter().any(|(k, _)| *k == key) {
                memo.push((key, Arc::clone(nl)));
            }
        }
    }

    /// Releases a finished chunk: drops its netlists from the memo and
    /// evicts every keyed-scheme materialization built over them.
    fn evict(&self, chunk: &[NamedNetlist]) {
        let mut memo = self.netlists.lock().unwrap();
        for (_, nl) in chunk {
            self.keyed.evict_for(nl);
            memo.retain(|(_, resident)| !Arc::ptr_eq(resident, nl));
        }
    }

    /// Runs a full campaign described by `spec` on this session.
    ///
    /// # Errors
    ///
    /// Returns a message when the spec cannot be expanded (unknown
    /// benchmark selector). Individual job failures do *not* abort the
    /// campaign; they surface as [`JobStatus::Failed`] results.
    pub fn run(&self, spec: &CampaignSpec) -> Result<CampaignReport, String> {
        let jobs = spec.expand()?;
        self.run_jobs(spec, jobs)
    }

    /// Runs an explicit job list under `spec`'s shared knobs (name, scale,
    /// seed). This is the entry point for job lists that are not a grid,
    /// such as a lone device measurement.
    ///
    /// The spec's `threads` knob is ignored here — the session's pool is
    /// already sized; reported cache stats are per-run deltas, so a warm
    /// session reports the same shape a fresh one does.
    ///
    /// # Errors
    ///
    /// Returns a message when a job references a benchmark that cannot be
    /// instantiated.
    pub fn run_jobs(
        &self,
        spec: &CampaignSpec,
        jobs: Vec<JobSpec>,
    ) -> Result<CampaignReport, String> {
        let start = Instant::now();
        let (hits_before, misses_before) = self.cache.stats();
        let (cone_hits_before, cone_misses_before) = self.cache.cone_stats();
        let pool_before = self.pool.worker_stats();

        let budget_bytes = (spec.memo_budget_mb * (1u64 << 20) as f64) as u64;
        let results = if budget_bytes == 0 {
            self.run_unbounded(spec, jobs)?
        } else {
            self.run_streaming(spec, jobs, budget_bytes)?
        };

        let (hits, misses) = self.cache.stats();
        let (cone_hits, cone_misses) = self.cache.cone_stats();
        let pool_deltas: Vec<pool::WorkerStats> = self
            .pool
            .worker_stats()
            .iter()
            .zip(&pool_before)
            .map(|(now, then)| now.delta_from(then))
            .collect();
        Ok(CampaignReport::new(
            spec.name.clone(),
            results,
            self.threads(),
            start.elapsed(),
            (
                hits - hits_before,
                misses - misses_before,
                self.cache.entries(),
            ),
        )
        .with_pool_stats(pool_deltas)
        .with_cache_detail(
            (
                cone_hits - cone_hits_before,
                cone_misses - cone_misses_before,
            ),
            self.cache.cone_key_words(),
            self.peak_memo_bytes(),
        ))
    }

    /// The historical scheduling path: every referenced benchmark is
    /// materialized up front and stays resident for the whole run.
    fn run_unbounded(
        &self,
        spec: &CampaignSpec,
        jobs: Vec<JobSpec>,
    ) -> Result<Vec<JobResult>, String> {
        let referenced = referenced_benchmarks(&jobs);
        let netlists =
            self.materialize_netlists(&referenced, spec.scale, spec.seed, spec.topology)?;

        let ctx = Arc::new(JobContext {
            netlists,
            cache: Arc::clone(&self.cache),
            params: self.params,
            keyed: Arc::clone(&self.keyed),
            coi_mode: spec.coi_mode,
            sat_simplify: spec.sat_simplify,
        });

        let tasks: Vec<Box<dyn FnOnce() -> JobResult + Send>> = jobs
            .into_iter()
            .map(|job| {
                let ctx = Arc::clone(&ctx);
                Box::new(move || run_job(&job, &ctx)) as Box<dyn FnOnce() -> JobResult + Send>
            })
            .collect();
        Ok(self.pool.run_all(tasks))
    }

    /// Memory-bounded streaming scheduling: benchmarks are admitted into
    /// the memo in chunks whose summed [`Netlist::arena_bytes`] fit the
    /// byte budget, each chunk's jobs run to completion, and the chunk's
    /// materializations (netlists *and* their keyed schemes) are evicted
    /// before the next admission. A superblue-scale grid therefore peaks
    /// at one chunk of arenas instead of the whole suite.
    ///
    /// Admission is measure-then-admit: a benchmark must be built before
    /// its size is known, so a candidate that overflows the current chunk
    /// is held in a carry slot — one benchmark of slack above the budget
    /// while the chunk drains — and admitted first at the next boundary.
    /// A benchmark bigger than the whole budget still runs (in a chunk of
    /// its own); the budget shapes scheduling, it never drops work.
    ///
    /// Results are reassembled into submission-order slots, so the
    /// deterministic report is byte-identical to [`Self::run_unbounded`].
    fn run_streaming(
        &self,
        spec: &CampaignSpec,
        jobs: Vec<JobSpec>,
        budget_bytes: u64,
    ) -> Result<Vec<JobResult>, String> {
        let mut queue: VecDeque<String> = referenced_benchmarks(&jobs).into();
        let mut slots: Vec<Option<JobResult>> = jobs.iter().map(|_| None).collect();
        let mut pending: Vec<Option<JobSpec>> = jobs.into_iter().map(Some).collect();

        let mut carry: Option<NamedNetlist> = None;
        let mut first_chunk = true;
        while first_chunk || carry.is_some() || !queue.is_empty() {
            let mut chunk: Vec<NamedNetlist> = Vec::new();
            let mut used: u64 = 0;
            if let Some(nl) = carry.take() {
                used += nl.1.arena_bytes() as u64;
                chunk.push(nl);
            }
            while let Some(name) = queue.pop_front() {
                let nl = self.materialize_one(&name, spec.scale, spec.seed, spec.topology)?;
                let bytes = nl.1.arena_bytes() as u64;
                if chunk.is_empty() || used + bytes <= budget_bytes {
                    used += bytes;
                    chunk.push(nl);
                } else {
                    carry = Some(nl);
                    break;
                }
            }
            self.admit(&chunk, spec.scale, spec.seed, spec.topology);
            self.note_memo_peak();

            // Every job whose benchmark is resident runs now; device
            // jobs (no benchmark at all) ride in the first chunk.
            let mut batch: Vec<(usize, JobSpec)> = Vec::new();
            for (idx, slot) in pending.iter_mut().enumerate() {
                let runs_now = match slot.as_ref().map(|job| &job.kind) {
                    Some(JobKind::Attack { benchmark, .. }) => {
                        chunk.iter().any(|(name, _)| name == benchmark)
                    }
                    Some(_) => first_chunk,
                    None => false,
                };
                if runs_now {
                    batch.push((idx, slot.take().expect("checked Some above")));
                }
            }
            first_chunk = false;

            let ctx = Arc::new(JobContext {
                netlists: chunk.clone(),
                cache: Arc::clone(&self.cache),
                params: self.params,
                keyed: Arc::clone(&self.keyed),
                coi_mode: spec.coi_mode,
                sat_simplify: spec.sat_simplify,
            });
            let indices: Vec<usize> = batch.iter().map(|(idx, _)| *idx).collect();
            let tasks: Vec<Box<dyn FnOnce() -> JobResult + Send>> = batch
                .into_iter()
                .map(|(_, job)| {
                    let ctx = Arc::clone(&ctx);
                    Box::new(move || run_job(&job, &ctx)) as Box<dyn FnOnce() -> JobResult + Send>
                })
                .collect();
            let results = self.pool.run_all(tasks);
            self.note_memo_peak();
            for (idx, result) in indices.into_iter().zip(results) {
                slots[idx] = Some(result);
            }
            self.evict(&chunk);
        }

        slots
            .into_iter()
            .zip(pending)
            .map(|(slot, job)| slot.ok_or_else(|| format!("job was never scheduled: {job:?}")))
            .collect()
    }
}

/// The engine: expands a spec and drives its jobs through the pool.
#[derive(Debug)]
pub struct Campaign;

impl Campaign {
    /// Runs a full campaign described by `spec` on a fresh one-shot
    /// [`EvalSession`]. Long-lived callers (harnesses sweeping many specs,
    /// the profile search) should hold a session and call
    /// [`EvalSession::run`] instead.
    ///
    /// # Errors
    ///
    /// Returns a message when the spec cannot be expanded (unknown
    /// benchmark selector). Individual job failures do *not* abort the
    /// campaign; they surface as [`JobStatus::Failed`] results.
    pub fn run(spec: &CampaignSpec) -> Result<CampaignReport, String> {
        EvalSession::new(spec.threads).run(spec)
    }

    /// Runs an explicit job list under `spec`'s shared knobs on a fresh
    /// one-shot [`EvalSession`] (see [`EvalSession::run_jobs`]).
    ///
    /// # Errors
    ///
    /// Returns a message when a job references a benchmark that cannot be
    /// instantiated.
    pub fn run_jobs(spec: &CampaignSpec, jobs: Vec<JobSpec>) -> Result<CampaignReport, String> {
        EvalSession::new(spec.threads).run_jobs(spec, jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gshe_attacks::{AttackKind, CoiMode, SimplifyMode};
    use gshe_camo::CamoScheme;
    use std::time::Duration;

    fn tiny_spec(threads: usize) -> CampaignSpec {
        CampaignSpec {
            name: "unit".into(),
            benchmarks: vec!["ex1010".into()],
            scale: 400, // floors to 64 gates, 32 inputs
            topology: Topology::Uniform,
            levels: vec![0.15],
            schemes: vec![CamoScheme::InvBuf, CamoScheme::FourFn],
            attacks: vec![AttackKind::Sat],
            coi_mode: CoiMode::On,
            sat_simplify: SimplifyMode::Auto,
            error_rates: vec![0.0],
            clock_periods_ns: Vec::new(),
            profiles: vec![job::NoiseShape::Uniform],
            rotation_periods: vec![0],
            trials: 1,
            seed: 5,
            timeout: Duration::from_secs(30),
            threads,
            memo_budget_mb: 0.0,
        }
    }

    #[test]
    fn small_campaign_completes_and_aggregates() {
        let report = Campaign::run(&tiny_spec(2)).unwrap();
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert_eq!(row.trials, 1);
            assert_eq!(row.status_counts[0], 1, "expected completion: {row:?}");
            assert_eq!(row.key_recovery_rate, 1.0);
        }
    }

    #[test]
    fn unknown_selector_is_an_error() {
        let mut spec = tiny_spec(1);
        spec.benchmarks = vec!["zzz".into()];
        assert!(Campaign::run(&spec).is_err());
        assert!(EvalSession::new(1).netlist("zzz", 20, 1).is_err());
    }

    #[test]
    fn warm_session_reuses_materializations_and_reports_identically() {
        // The EvalSession contract: a second run on a warm session redoes
        // no netlist generation or camouflaging, reports per-run cache
        // deltas, and emits byte-identical deterministic JSON.
        let spec = tiny_spec(2);
        let session = EvalSession::new(2);
        let first = session.run(&spec).unwrap();
        assert_eq!(session.cached_netlists(), 1);
        let keyed_after_first = session.cached_keyed();
        assert_eq!(keyed_after_first, 2, "one materialization per scheme");

        let second = session.run(&spec).unwrap();
        assert_eq!(session.cached_netlists(), 1, "netlist memo must hit");
        assert_eq!(
            session.cached_keyed(),
            keyed_after_first,
            "keyed memo must hit"
        );
        assert_eq!(first.deterministic_json(), second.deterministic_json());
        // Deterministic cells replay their query streams: the warm run
        // answers from the session cache (all hits, no misses).
        assert_eq!(second.cache_misses, 0, "{second:?}");
        assert!(second.cache_hits > 0);

        // And the one-shot wrapper agrees byte-for-byte with both.
        let fresh = Campaign::run(&spec).unwrap();
        assert_eq!(fresh.deterministic_json(), first.deterministic_json());
    }

    #[test]
    fn streaming_budget_matches_unbounded_and_bounds_the_memo() {
        // Three benchmarks, a budget sized so at most one ~64-gate arena
        // is resident at a time: the streaming scheduler must chunk, hold
        // peak memo bytes to one benchmark (measure-then-admit allows at
        // most one candidate of slack), evict everything at the end, and
        // still emit byte-identical deterministic output.
        let mut spec = tiny_spec(2);
        spec.benchmarks = vec!["ex1010".into(), "c7552".into(), "b14".into()];
        let unbounded = Campaign::run(&spec).unwrap();

        let session = EvalSession::new(2);
        spec.memo_budget_mb = 0.001; // ~1 KiB: every chunk is one benchmark
        let streamed = session.run(&spec).unwrap();
        assert_eq!(
            streamed.deterministic_json(),
            unbounded.deterministic_json()
        );

        // Regenerate the three arenas (deterministic) to state the exact
        // invariant: a chunk never exceeds max(budget, one benchmark) —
        // only a single oversized benchmark may overflow, alone — so the
        // peak must sit strictly below the whole suite's footprint.
        let arenas: Vec<u64> = spec
            .benchmarks
            .iter()
            .map(|name| {
                session
                    .materialize_one(name, spec.scale, spec.seed, spec.topology)
                    .unwrap()
                    .1
                    .arena_bytes() as u64
            })
            .collect();
        let budget = (spec.memo_budget_mb * 1024.0 * 1024.0) as u64;
        let largest = *arenas.iter().max().unwrap();
        let total: u64 = arenas.iter().sum();
        assert!(total > budget, "suite must not fit the budget: {arenas:?}");
        let peak = session.peak_memo_bytes();
        assert!(peak > 0);
        assert!(
            peak <= budget.max(largest),
            "peak {peak} exceeds the chunk bound (budget {budget}, largest {largest})"
        );
        assert!(peak < total, "whole suite was resident at once: {arenas:?}");
        assert_eq!(session.cached_netlists(), 0, "all chunks must be evicted");
        assert_eq!(session.cached_keyed(), 0, "keyed memo must be evicted too");
        assert_eq!(streamed.peak_memo_bytes, peak);
    }

    #[test]
    fn streaming_with_roomy_budget_is_one_chunk() {
        // A budget far above the suite's footprint degenerates to a
        // single chunk: one admission pass, one pool batch, then a full
        // eviction (budgeted sessions never retain materializations).
        let mut spec = tiny_spec(1);
        spec.benchmarks = vec!["ex1010".into(), "c7552".into()];
        spec.memo_budget_mb = 64.0;
        let session = EvalSession::new(1);
        let report = session.run(&spec).unwrap();
        assert_eq!(report.results.len(), 4);
        assert!(report
            .results
            .iter()
            .all(|r| r.status == JobStatus::Completed));
        assert_eq!(session.cached_netlists(), 0);
        spec.memo_budget_mb = 0.0;
        let unbounded = session.run(&spec).unwrap();
        assert_eq!(report.deterministic_json(), unbounded.deterministic_json());
    }

    #[test]
    fn aag_benchmarks_materialize_through_the_aiger_frontend() {
        // A half adder in AIGER ASCII: sum and carry over two inputs.
        let dir = std::env::temp_dir().join("gshe_campaign_aag_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("half_adder.aag");
        std::fs::write(
            &path,
            "aag 7 2 0 2 3\n2\n4\n6\n12\n6 13 15\n12 2 4\n14 3 5\n",
        )
        .unwrap();
        let name = path.to_string_lossy().into_owned();

        let session = EvalSession::new(1);
        let nl = session.netlist(&name, 20, 1).unwrap();
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 2);

        // And through a full campaign: the `.aag` path is an ordinary
        // benchmark name.
        let mut spec = tiny_spec(1);
        spec.benchmarks = vec![name.clone()];
        spec.schemes = vec![CamoScheme::InvBuf];
        let report = session.run(&spec).unwrap();
        assert_eq!(report.results.len(), 1);

        assert!(session.netlist("missing_file.aag", 20, 1).is_err());
    }
}
