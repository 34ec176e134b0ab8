//! Runs an arbitrary campaign from a TOML spec file or command-line flags
//! and prints the aggregated table, optionally writing JSON/CSV artifacts.
//!
//! Usage:
//!
//! ```text
//! campaign --spec FILE.toml [--out PREFIX] [--deterministic]
//! campaign [--benchmarks a,b|suite:itc99|all] [--schemes x,y|all]
//!          [--attacks sat,appsat] [--levels 10,20] [--error-rates 0,0.05]
//!          [--clock-periods-ns 0.8,2,6]
//!          [--profiles uniform,output-cone,depth-gradient|all]
//!          [--rotation-periods 0,1,16,64] [--trials N] [--scale N]
//!          [--seed N] [--timeout SECS] [--threads N] [--out PREFIX]
//!          [--deterministic]
//! ```
//!
//! `campaign --help` prints this grid with every valid scheme, attack,
//! profile, and spec-file key name.
//!
//! `--out PREFIX` writes `PREFIX.json` and `PREFIX.csv`. `--deterministic`
//! prints the timing-free JSON (byte-identical across thread counts) to
//! stdout instead of the human table — the determinism acceptance check
//! pipes two runs of this through `diff`.
//!
//! `--spec` is applied first; every other flag overrides the spec file's
//! value regardless of where it appears on the command line.

use gshe_core::campaign::physical::is_valid_clock_period;
use gshe_core::campaign::{
    pool_summary, scheme_name, valid_attack_names, valid_key_names, valid_profile_names,
    valid_scheme_names, CampaignSpec, NoiseShape,
};
use gshe_core::prelude::{AttackKind, CamoScheme};
use std::time::Duration;

/// Prints `error: <msg>` and exits with status 2 (CLI misuse / bad spec).
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Prints usage, including every valid scheme/attack/profile/key name.
fn print_help() {
    println!(
        "\
Runs a protect->attack->measure campaign grid and prints the aggregated table.

USAGE:
  campaign --spec FILE.toml [--out PREFIX] [--deterministic]
  campaign [GRID FLAGS] [--out PREFIX] [--deterministic]

GRID FLAGS (each overrides the spec file's value):
  --benchmarks a,b       benchmark names, suite:<name>, or `all`
  --schemes x,y          {schemes}
  --attacks x,y          {attacks}
  --levels 10,20         protection levels in percent
  --error-rates 0,0.05   oracle per-cell error rates (fractions)
  --clock-periods-ns 0.8,6  physical clock periods (ns) as extra rate
                         sources, derived via the device Monte Carlo
  --profiles x,y         {profiles}
  --rotation-periods 0,16  dynamic-camouflaging periods in queries
                         (0 = static oracle; n > 0 stacks a rotation
                         layer; combined with a nonzero rate it attacks
                         the rotating *and* noisy chip)
  --trials N             repeats per grid cell
  --scale N              benchmark scale divisor
  --topology NAME        generator wiring profile: uniform | local
  --coi-mode MODE        cone-of-influence reduction for attacks *and* the
                         cache's cone-keyed entries: on | off (default on)
  --sat-simplify MODE    solver pre/inprocessing (variable elimination,
                         subsumption, vivification) plus single-sided
                         miter encoding: auto | auto:<clauses> | on | off
  --seed N               master seed
  --timeout SECS         per-job attack budget
  --threads N            workers (0 = available parallelism)
  --memo-budget-mb MB    streaming memo budget in MiB (fractions allowed;
                         0 = keep every benchmark resident): benchmarks
                         run in chunks whose arenas fit the budget, with
                         per-chunk eviction

RUNTIME:
  --cache-cap N          oracle-cache entry cap (0 = unbounded; a session
                         knob, not a spec-file key)

OUTPUT:
  --out PREFIX           write PREFIX.json and PREFIX.csv
  --trace-out FILE       enable instrumentation and write a Chrome
                         trace-event JSON (chrome://tracing / Perfetto)
  --metrics-out FILE     enable instrumentation and write a metrics
                         snapshot (counters + histogram buckets) as JSON
  --deterministic        print timing-free JSON (byte-identical across
                         thread counts) instead of the human table

Spec files use `key = value` TOML lines with these keys:
  {keys}",
        schemes = valid_scheme_names(),
        attacks = valid_attack_names(),
        profiles = valid_profile_names(),
        keys = valid_key_names(),
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = CampaignSpec {
        name: "campaign".to_string(),
        ..Default::default()
    };
    let mut out_prefix: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut deterministic = false;
    let mut cache_cap: u64 = 0;

    // Load the spec file first (wherever --spec appears) so explicit flags
    // always override it, independent of argument order.
    if let Some(pos) = argv.iter().position(|a| a == "--spec") {
        let value = argv
            .get(pos + 1)
            .unwrap_or_else(|| fail("missing value for --spec; see module docs for usage"));
        let text = std::fs::read_to_string(value)
            .unwrap_or_else(|e| fail(&format!("cannot read spec `{value}`: {e}")));
        spec = CampaignSpec::parse_toml(&text)
            .unwrap_or_else(|e| fail(&format!("bad spec `{value}`: {e}")));
    }

    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        if key == "--help" || key == "-h" {
            print_help();
            return;
        }
        if key == "--deterministic" {
            deterministic = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .unwrap_or_else(|| {
                fail(&format!(
                    "missing value for {key}; see module docs for usage"
                ))
            })
            .clone();
        match key {
            "--spec" => {} // handled in the pre-pass above
            "--benchmarks" => spec.benchmarks = value.split(',').map(str::to_string).collect(),
            "--schemes" => {
                spec.schemes = value
                    .split(',')
                    .flat_map(|n| {
                        if n == "all" {
                            CamoScheme::ALL.to_vec()
                        } else {
                            vec![gshe_core::campaign::parse_scheme(n).unwrap_or_else(|| {
                                fail(&format!(
                                    "unknown scheme `{n}` (valid: {})",
                                    valid_scheme_names()
                                ))
                            })]
                        }
                    })
                    .collect()
            }
            "--attacks" => {
                spec.attacks = value
                    .split(',')
                    .map(|n| {
                        AttackKind::parse(n).unwrap_or_else(|| {
                            fail(&format!(
                                "unknown attack `{n}` (valid: {})",
                                valid_attack_names()
                            ))
                        })
                    })
                    .collect()
            }
            "--levels" => {
                spec.levels = value
                    .split(',')
                    .map(|v| {
                        v.parse::<f64>()
                            .unwrap_or_else(|_| fail("--levels takes percents, e.g. 10,20"))
                            / 100.0
                    })
                    .collect()
            }
            "--error-rates" => {
                spec.error_rates = value
                    .split(',')
                    .map(|v| {
                        v.parse()
                            .unwrap_or_else(|_| fail("--error-rates takes fractions"))
                    })
                    .collect()
            }
            "--profiles" => {
                spec.profiles = value
                    .split(',')
                    .flat_map(|n| {
                        if n == "all" {
                            NoiseShape::ALL.to_vec()
                        } else {
                            vec![NoiseShape::parse(n).unwrap_or_else(|| {
                                fail(&format!(
                                    "unknown profile `{n}` (valid: {})",
                                    valid_profile_names()
                                ))
                            })]
                        }
                    })
                    .collect()
            }
            "--clock-periods-ns" => {
                spec.clock_periods_ns = value
                    .split(',')
                    .map(|v| {
                        let ns: f64 = v.parse().unwrap_or_else(|_| {
                            fail("--clock-periods-ns takes positive nanoseconds, e.g. 0.8,2,6")
                        });
                        if !is_valid_clock_period(ns) {
                            fail("--clock-periods-ns takes positive nanoseconds, e.g. 0.8,2,6");
                        }
                        ns
                    })
                    .collect()
            }
            "--rotation-periods" => {
                spec.rotation_periods = value
                    .split(',')
                    .map(|v| {
                        v.parse().unwrap_or_else(|_| {
                            fail("--rotation-periods takes integers (0 = static oracle)")
                        })
                    })
                    .collect()
            }
            "--trials" => {
                spec.trials = value
                    .parse()
                    .unwrap_or_else(|_| fail("--trials takes an integer"))
            }
            "--scale" => {
                spec.scale = value
                    .parse()
                    .unwrap_or_else(|_| fail("--scale takes an integer"))
            }
            "--topology" => {
                spec.topology = gshe_core::logic::Topology::parse(&value).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown topology `{value}` (valid: uniform, local)"
                    ))
                })
            }
            "--coi-mode" => {
                spec.coi_mode = gshe_core::attacks::CoiMode::parse(&value).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown coi mode `{value}` (valid: on, off)"
                    ))
                })
            }
            "--sat-simplify" => {
                spec.sat_simplify = gshe_core::attacks::SimplifyMode::parse(&value)
                    .unwrap_or_else(|| {
                        fail(&format!(
                            "unknown sat-simplify mode `{value}` (valid: auto, auto:<clauses>, on, off)"
                        ))
                    })
            }
            "--memo-budget-mb" => {
                let mb: f64 = value
                    .parse()
                    .unwrap_or_else(|_| fail("--memo-budget-mb takes MiB (0 = unbounded)"));
                if !(mb.is_finite() && mb >= 0.0) {
                    fail("--memo-budget-mb takes a non-negative number of MiB");
                }
                spec.memo_budget_mb = mb;
            }
            "--seed" => {
                spec.seed = value
                    .parse()
                    .unwrap_or_else(|_| fail("--seed takes an integer"))
            }
            "--timeout" => {
                spec.timeout = Duration::from_secs(
                    value
                        .parse()
                        .unwrap_or_else(|_| fail("--timeout takes seconds")),
                )
            }
            "--threads" => {
                spec.threads = value
                    .parse()
                    .unwrap_or_else(|_| fail("--threads takes an integer"))
            }
            "--cache-cap" => {
                cache_cap = value
                    .parse()
                    .unwrap_or_else(|_| fail("--cache-cap takes an integer (0 = unbounded)"))
            }
            "--out" => out_prefix = Some(value),
            "--trace-out" => trace_out = Some(value),
            "--metrics-out" => metrics_out = Some(value),
            other => fail(&format!(
                "unknown option `{other}` (run `campaign --help` for the flag list)"
            )),
        }
        i += 2;
    }

    // Flip the instrumentation switch before any work runs. Tracing
    // implies metrics (spans feed both); metrics alone skips the
    // per-event trace buffers.
    if trace_out.is_some() {
        gshe_core::obs::enable_tracing();
    } else if metrics_out.is_some() {
        gshe_core::obs::enable();
    }

    let session = gshe_core::campaign::EvalSession::with_cache_cap(spec.threads, cache_cap);
    let report = session
        .run(&spec)
        .unwrap_or_else(|e| fail(&format!("campaign failed: {e}")));

    if let Some(prefix) = &out_prefix {
        std::fs::write(format!("{prefix}.json"), report.to_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {prefix}.json: {e}")));
        std::fs::write(format!("{prefix}.csv"), report.to_csv())
            .unwrap_or_else(|e| fail(&format!("cannot write {prefix}.csv: {e}")));
        eprintln!("wrote {prefix}.json and {prefix}.csv");
    }
    if let Some(path) = &trace_out {
        std::fs::write(path, gshe_core::obs::trace_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(path) = &metrics_out {
        std::fs::write(path, gshe_core::obs::metrics_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("wrote metrics snapshot to {path}");
    }

    if deterministic {
        println!("{}", report.deterministic_json());
        return;
    }

    println!(
        "CAMPAIGN `{}` — {} jobs on {} threads in {:.1}s wall",
        report.name,
        report.results.len(),
        report.threads,
        report.wall_time.as_secs_f64(),
    );
    println!(
        "oracle cache: {} hits / {} misses / {} entries ({}, {} evictions, block-level keys)",
        report.cache_hits,
        report.cache_misses,
        report.cache_entries,
        if session.cache().entry_cap() == u64::MAX {
            "unbounded".to_string()
        } else {
            format!("cap {}", session.cache().entry_cap())
        },
        session.cache().evictions(),
    );
    if report.cone_hits + report.cone_misses > 0 {
        println!(
            "cone-keyed entries: {} hits / {} misses ({} key words vs full-width blocks)",
            report.cone_hits, report.cone_misses, report.cone_key_words,
        );
    }
    if spec.memo_budget_mb > 0.0 {
        println!(
            "streaming memo: peak {:.2} MiB of netlist arenas (budget {} MiB)",
            report.peak_memo_bytes as f64 / (1024.0 * 1024.0),
            spec.memo_budget_mb,
        );
    }
    println!(
        "{:<14} {:>8} {:<10} {:>5} {:>10} {:>8} {:>14} {:>7}  {:>6} {:>8} {:>9} {:>9} {:>8} {:>8} {:>10} {:>9} {:>8} {:>9} {:>8}",
        "benchmark",
        "scheme",
        "attack",
        "prot",
        "error",
        "clock",
        "profile",
        "period",
        "trials",
        "recov%",
        "queries",
        "err-rate",
        "p50 s",
        "p90 s",
        "decisions",
        "conflicts",
        "restarts",
        "elim-vars",
        "simp ms"
    );
    println!("{:-<186}", "");
    for row in &report.rows {
        println!(
            "{:<14} {:>8} {:<10} {:>4.0}% {:>10.4} {:>8} {:>14} {:>7}  {:>6} {:>7.0}% {:>9.1} {:>9} {:>8.2} {:>8.2} {:>10.0} {:>9.0} {:>8.0} {:>9.0} {:>8.2}",
            row.key.benchmark,
            scheme_name(row.key.scheme),
            row.key.attack.name(),
            row.key.level * 100.0,
            row.key.error_rate,
            if row.key.clock_ns == 0.0 {
                "-".to_string()
            } else {
                format!("{}ns", row.key.clock_ns)
            },
            row.key.profile.name(),
            if row.key.rotation_period == 0 {
                "-".to_string()
            } else {
                row.key.rotation_period.to_string()
            },
            row.trials,
            row.key_recovery_rate * 100.0,
            row.mean_queries,
            if row.mean_output_error.is_nan() {
                "-".to_string()
            } else {
                format!("{:.4}", row.mean_output_error)
            },
            row.runtime_p50,
            row.runtime_p90,
            row.mean_decisions,
            row.mean_conflicts,
            row.mean_restarts,
            row.mean_elim_vars,
            row.mean_simplify_ms,
        );
    }
    for row in &report.device {
        println!(
            "device {:<12} i_s={:>6.1}uA t_clk={:>6} samples={:<6} value={:.4e}",
            row.kind,
            row.i_s * 1e6,
            if row.t_clk.is_nan() {
                "-".to_string()
            } else {
                format!("{:.1}ns", row.t_clk * 1e9)
            },
            row.samples,
            row.value,
        );
    }
    let (pool_tasks, pool_steals, utilization) = pool_summary(&report.pool);
    println!(
        "pool: {} workers ran {} tasks ({} stolen), {:.0}% mean utilization",
        report.pool.len(),
        pool_tasks,
        pool_steals,
        utilization * 100.0,
    );
}
