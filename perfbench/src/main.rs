//! One benchmark command for the camouflage → attack → verify pipeline.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload s38584-keyrec --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: set-up, then grid passes
//! through `EvalSession::run_jobs` with instrumentation off, repeated
//! while the next pass still fits in `--seconds`. `--trace 1` runs one
//! untraced pass, one pass with `gshe-obs` tracing on, and a replay of
//! every cell through each layer's public functions (see [`replay`]),
//! and reports the per-layer metrics. Both modes check the results and
//! print, as the last line of standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A failed check exits with status 1 after printing it; bad arguments
//! exit with status 2 and print no result.

mod grid;
mod reference;
mod replay;
mod sys;
mod workloads;

use grid::{Pass, Verdict};
use gshe_campaign::EvalSession;
use reference::Reference;
use std::process::ExitCode;
use std::time::Instant;
use sys::share;

/// Set-ups timed per run: at least `MIN_SETUPS`, and more, up to
/// `MAX_SETUPS`, while they total under `SETUP_BUDGET_S`; `setup_s` is
/// their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.0;

/// DIPs the solver-throughput probe enumerates.
const PROBE_DIPS: usize = 200;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of: {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Prints the result line and picks the exit code.
fn finish(verdict: &Verdict, metrics: &[Metric]) -> ExitCode {
    for problem in &verdict.problems {
        eprintln!("check failed: {problem}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = verdict.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.attempted.max(1),
        verdict.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_totals(label: &str, results: &[gshe_campaign::JobResult]) {
    let [conflicts, props, decisions, queries, iterations, keys] = grid::work_totals(results);
    println!(
        "{label}: {} jobs, conflicts {conflicts}, propagations {props}, decisions {decisions}, \
         queries {queries}, iterations {iterations}, verified keys {keys}",
        results.len()
    );
}

/// `--trace 0`: set-up and grid passes with instrumentation off.
fn end_to_end(args: &Args, reference: &Reference) -> Result<ExitCode, String> {
    let start = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let t = Instant::now();
        let setup = grid::setup(&args.workload, args.seed)?;
        setups.push(t.elapsed().as_secs_f64());
        passes.push(grid::run_pass(&setup.session, &setup.batches)?);
        drop(setup);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / passes.len() as f64 > args.seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let t = Instant::now();
        drop(grid::setup(&args.workload, args.seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut verdict = Verdict::default();
    for (i, pass) in passes.iter().enumerate() {
        print_totals(
            &format!(
                "pass {i} ({:.3} s wall, {:.2} s cpu)",
                pass.wall_s, pass.cpu_s
            ),
            &pass.results,
        );
        verdict.absorb(grid::check(&pass.results, reference));
        verdict.problems.extend(grid::compare_runs(
            &format!("pass {i} vs pass 0"),
            &passes[0].results,
            &pass.results,
        ));
    }
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| sys::median(&passes.iter().map(f).collect::<Vec<_>>());
    let cell_q =
        |q: f64| per_pass(&|p: &Pass| sys::quantile(&grid::attack_cell_seconds(&p.results), q));
    let ok_frac = 1.0 - verdict.failed as f64 / verdict.attempted.max(1) as f64;
    let metrics: Vec<Metric> = vec![
        ("setup_s", sys::median(&setups), "s"),
        ("wall_s", per_pass(&|p: &Pass| p.wall_s), "s"),
        ("cell_p50_s", cell_q(0.5), "s"),
        ("cell_p90_s", cell_q(0.9), "s"),
        ("cpu_s", per_pass(&|p: &Pass| p.cpu_s), "s"),
        ("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
        ("ok_frac", ok_frac, "frac"),
    ];
    println!(
        "{}: seed {}, {} passes, {} set-ups, {} attack cells per pass, {} threads",
        args.workload,
        args.seed,
        passes.len(),
        setups.len(),
        grid::attack_cell_seconds(&passes[0].results).len(),
        workloads::THREADS
    );
    let mut slowest: Vec<&gshe_campaign::JobResult> = passes[0].results.iter().collect();
    slowest.sort_by_key(|r| std::cmp::Reverse(r.elapsed));
    for r in slowest.iter().take(3) {
        println!(
            "  slowest cell {:.3} s: {} ({} queries, {} conflicts)",
            r.elapsed.as_secs_f64(),
            grid::describe(r),
            r.queries,
            r.solver_stats.conflicts
        );
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<14} {value:>12.6} {unit}");
    }
    Ok(finish(&verdict, &metrics))
}

/// `--trace 1`: untraced pass, traced pass, and the layer replay.
fn traced(args: &Args, reference: &Reference) -> Result<ExitCode, String> {
    // The grid twice, on two sessions: with instrumentation off, and with
    // the program's own tracing on. Batches interleave, each mode going
    // first on every other batch, so machine drift falls on both alike.
    let setup = grid::setup(&args.workload, args.seed)?;
    let traced_session = EvalSession::new(workloads::THREADS);
    let mut untraced = Pass::new(workloads::THREADS);
    let mut traced = Pass::new(workloads::THREADS);
    gshe_obs::reset();
    for (i, batch) in setup.batches.iter().enumerate() {
        for tracing in [i % 2 == 1, i % 2 == 0] {
            if tracing {
                gshe_obs::enable_tracing();
                traced.run_batch(&traced_session, batch)?;
                gshe_obs::disable();
            } else {
                untraced.run_batch(&setup.session, batch)?;
            }
        }
    }
    let program_oracle_calls = gshe_obs::histogram("attack.oracle").count();
    let program_cone_nodes = gshe_obs::histogram("attack.coi_cone_nodes").sum();
    drop(traced_session);
    drop(setup);

    // The replay, timed by the benchmark's own spans from set-up on.
    gshe_obs::reset();
    gshe_obs::enable();
    let setup = grid::setup(&args.workload, args.seed)?;
    let replay = replay::replay(&setup.batches, &setup.inputs, workloads::THREADS);
    gshe_obs::disable();
    let (batches, inputs) = (&setup.batches, &setup.inputs);
    let span_s = |name: &'static str| gshe_obs::histogram(name).sum() as f64 / 1e9;

    let mut verdict = grid::check(&untraced.results, reference);
    verdict.problems.extend(grid::compare_runs(
        "traced pass",
        &untraced.results,
        &traced.results,
    ));
    verdict.problems.extend(grid::compare_runs(
        "replay",
        &untraced.results,
        &replay.results,
    ));
    let replay_verdict = grid::check(&replay.results, reference);
    verdict.problems.extend(replay_verdict.problems);
    print_totals("untraced pass", &untraced.results);
    print_totals("replay", &replay.results);

    let oracle_calls: u64 = replay
        .facts
        .iter()
        .map(|f| f.oracle_latencies_ns.len() as u64)
        .sum();
    let cone_nodes: u64 = replay.facts.iter().map(|f| f.cone_nodes).sum();
    if oracle_calls != program_oracle_calls {
        verdict.problems.push(format!(
            "oracle calls: replay {oracle_calls}, traced pass {program_oracle_calls}"
        ));
    }
    if cone_nodes != program_cone_nodes {
        verdict.problems.push(format!(
            "COI cone nodes: replay {cone_nodes}, traced pass {program_cone_nodes}"
        ));
    }

    // Layer probes outside the grid: simulation and solver throughput.
    let first = &inputs[0];
    let mut names: Vec<&String> = first.netlists.keys().collect();
    names.sort();
    let netlists: Vec<&gshe_logic::Netlist> = names.iter().map(|n| &*first.netlists[*n]).collect();
    let gate_evals_per_s = replay::gate_evals_per_s(&netlists, args.seed);
    let probe_id = batches[0]
        .jobs
        .iter()
        .find_map(|job| grid::keyed_id(&job.kind))
        .ok_or("workload has no attack cell")?;
    let probe_keyed = &first.keyed[&probe_id];
    let probe_keyed = gshe_attacks::CoiProjection::build(probe_keyed, batches[0].spec.coi_mode)
        .map_or_else(|| (**probe_keyed).clone(), |p| p.keyed().clone());
    let (props_per_s, probe_props) = replay::miter_props_per_s(&probe_keyed, PROBE_DIPS);

    let mut stats = gshe_sat::SolverStats::default();
    let (mut queries, mut iterations) = (0u64, 0u64);
    for r in &replay.results {
        stats += r.solver_stats;
        queries += r.queries;
        iterations += r.iterations;
    }
    let mc_samples =
        replay.clock_table_samples + replay.facts.iter().map(|f| f.mc_samples).sum::<u64>();
    let mc_s = span_s("bench.device_mc") + span_s("bench.clock_table");
    let latencies_us: Vec<f64> = replay
        .facts
        .iter()
        .flat_map(|f| f.oracle_latencies_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    let (refine_s, verify_s) = (span_s("bench.refine"), span_s("bench.verify"));
    let cell_s = span_s("bench.cell");
    let covered: f64 = replay::CELL_PHASES.iter().map(|&name| span_s(name)).sum();
    let nodes: usize = inputs
        .iter()
        .flat_map(|i| i.netlists.values())
        .map(|nl| nl.len())
        .sum();
    let cloaked: usize = inputs
        .iter()
        .flat_map(|i| i.keyed.values())
        .map(|k| k.camo_gates().len())
        .sum();
    let (hits, misses) = untraced.cache;
    let (cone_hits, cone_misses) = untraced.cone;
    let steals: u64 = untraced.pool.iter().map(|w| w.steals).sum();
    // Busy time over the pass's wall time on every worker: the workers'
    // own idle counters also run while the other session has the CPUs.
    let busy_s = untraced.pool.iter().map(|w| w.busy_ns).sum::<u64>() as f64 / 1e9;
    let pool_util = share(busy_s, untraced.wall_s * untraced.pool.len() as f64);
    let metrics: Vec<Metric> = vec![
        ("logic.generate_s", span_s("bench.generate"), "s"),
        ("logic.nodes", nodes as f64, "count"),
        ("logic.gate_evals_per_s", gate_evals_per_s, "1/s"),
        ("camo.materialize_s", span_s("bench.camouflage"), "s"),
        ("camo.cloaked_cells", cloaked as f64, "count"),
        ("device.mc_s", mc_s, "s"),
        ("device.mc_samples", mc_samples as f64, "count"),
        (
            "device.samples_per_s",
            share(mc_samples as f64, mc_s),
            "1/s",
        ),
        ("attacks.refine_s", refine_s, "s"),
        ("attacks.iterations", iterations as f64, "count"),
        ("attacks.queries", queries as f64, "count"),
        ("attacks.oracle_s", span_s("bench.oracle"), "s"),
        ("attacks.oracle_blocks", oracle_calls as f64, "count"),
        (
            "attacks.oracle_block_us_p50",
            sys::median(&latencies_us),
            "us",
        ),
        ("attacks.coi_project_s", span_s("bench.coi_project"), "s"),
        ("attacks.coi_cone_nodes", cone_nodes as f64, "count"),
        ("attacks.verify_s", verify_s, "s"),
        (
            "attacks.verify_share",
            share(verify_s, refine_s + verify_s),
            "frac",
        ),
        ("sat.conflicts", stats.conflicts as f64, "count"),
        ("sat.decisions", stats.decisions as f64, "count"),
        ("sat.propagations", stats.propagations as f64, "count"),
        ("sat.elim_vars", stats.elim_vars as f64, "count"),
        ("sat.simplify_s", stats.simplify_ns as f64 / 1e9, "s"),
        ("sat.solve_s", span_s("attack.solve"), "s"),
        ("sat.props_per_s", props_per_s, "1/s"),
        ("campaign.pool_util", pool_util, "frac"),
        ("campaign.steals", steals as f64, "count"),
        (
            "campaign.cache_hit_rate",
            share(hits as f64, (hits + misses) as f64),
            "frac",
        ),
        (
            "campaign.cone_hit_rate",
            share(cone_hits as f64, (cone_hits + cone_misses) as f64),
            "frac",
        ),
        (
            "campaign.peak_memo_mb",
            untraced.peak_memo_bytes as f64 / (1u64 << 20) as f64,
            "MiB",
        ),
        (
            "obs.overhead_frac",
            traced.wall_s / untraced.wall_s - 1.0,
            "frac",
        ),
        (
            "trace.unattributed_frac",
            share(cell_s - covered, cell_s),
            "frac",
        ),
    ];
    println!(
        "{}: seed {}, untraced wall {:.3} s, traced wall {:.3} s, replay cells {}, \
         cache {hits} hits / {misses} misses, cone {cone_hits} hits / {cone_misses} misses, \
         miter probe {probe_props} propagations",
        args.workload,
        args.seed,
        untraced.wall_s,
        traced.wall_s,
        replay.results.len()
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    Ok(finish(&verdict, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run = Reference::load().and_then(|reference| {
        if args.trace {
            traced(&args, &reference)
        } else {
            end_to_end(&args, &reference)
        }
    });
    match run {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
