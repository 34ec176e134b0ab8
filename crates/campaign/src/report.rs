//! Campaign reports: aggregation plus JSON/CSV serialization.
//!
//! Serializers are hand-rolled (the environment has no serde); they cover
//! exactly the report shape. Two JSON flavors exist: [`CampaignReport::to_json`]
//! includes wall-clock runtimes, while [`CampaignReport::deterministic_json`]
//! omits every timing field — that form is byte-identical across thread
//! counts and is what the determinism tests compare.

use crate::aggregate::{aggregate, CellKey, DeviceRow, TableRow};
use crate::job::{JobResult, NoiseShape};
use crate::pool::{pool_summary, WorkerStats};
use crate::spec::scheme_name;
use gshe_camo::CamoScheme;
use gshe_logic::Topology;
use std::fmt::Write as _;
use std::time::Duration;

/// Everything a campaign run produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub name: String,
    /// Raw per-job results, in submission order.
    pub results: Vec<JobResult>,
    /// Aggregated attack-grid rows.
    pub rows: Vec<TableRow>,
    /// Device-measurement rows.
    pub device: Vec<DeviceRow>,
    /// Worker threads the run actually used.
    pub threads: usize,
    /// Total wall-clock time of the run.
    pub wall_time: Duration,
    /// Oracle cache hits / misses.
    pub cache_hits: u64,
    /// Oracle cache misses.
    pub cache_misses: u64,
    /// Distinct blocks resident in the oracle cache at the end of the run
    /// (block-level keys: one entry answers up to 64 patterns).
    pub cache_entries: u64,
    /// Cache hits answered from **cone-keyed** entries (COI-engaged jobs
    /// keying on the packed cone sub-pattern). Subset of `cache_hits`;
    /// timing-side diagnostic.
    pub cone_hits: u64,
    /// Cache misses on cone-keyed lookups. Subset of `cache_misses`.
    pub cone_misses: u64,
    /// Widest cone key packed so far, in 64-bit words (0 = no cone-keyed
    /// traffic). Full-width block keys for the same designs would be
    /// `ceil(inputs/64) + 1` words — the gap is the key-compression win.
    pub cone_key_words: u64,
    /// Peak bytes of memoized benchmark-netlist arenas over the run (the
    /// quantity the `memo_budget_mb` admission gate bounds).
    pub peak_memo_bytes: u64,
    /// Per-worker pool activity over this run (indexed by worker id);
    /// empty when the runner didn't capture pool deltas. Wall-clock data,
    /// so it surfaces only on the timing side of serializations.
    pub pool: Vec<WorkerStats>,
}

impl CampaignReport {
    /// Builds a report by aggregating `results`. `cache_stats` is
    /// (hits, misses, entries).
    pub fn new(
        name: String,
        results: Vec<JobResult>,
        threads: usize,
        wall_time: Duration,
        cache_stats: (u64, u64, u64),
    ) -> Self {
        let (rows, device) = aggregate(&results);
        CampaignReport {
            name,
            results,
            rows,
            device,
            threads,
            wall_time,
            cache_hits: cache_stats.0,
            cache_misses: cache_stats.1,
            cache_entries: cache_stats.2,
            cone_hits: 0,
            cone_misses: 0,
            cone_key_words: 0,
            peak_memo_bytes: 0,
            pool: Vec::new(),
        }
    }

    /// Attaches per-worker pool activity deltas captured over this run.
    pub fn with_pool_stats(mut self, pool: Vec<WorkerStats>) -> Self {
        self.pool = pool;
        self
    }

    /// Attaches cone-keyed cache traffic (`cone` = per-run (hits, misses)
    /// delta), the widest cone key seen, and the run's peak memoized
    /// netlist arena bytes. All timing-side diagnostics.
    pub fn with_cache_detail(mut self, cone: (u64, u64), key_words: u64, peak_memo: u64) -> Self {
        self.cone_hits = cone.0;
        self.cone_misses = cone.1;
        self.cone_key_words = key_words;
        self.peak_memo_bytes = peak_memo;
        self
    }

    /// Full JSON, including wall-clock timings and run metadata.
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// JSON with every timing and machine-dependent field omitted: a pure
    /// function of the campaign spec, byte-identical at any thread count.
    pub fn deterministic_json(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, timing: bool) -> String {
        let mut out = String::new();
        out.push('{');
        json_str(&mut out, "campaign", &self.name);
        if timing {
            out.push(',');
            let _ = write!(
                out,
                "\"threads\":{},\"wall_time_secs\":{},\"cache_hits\":{},\"cache_misses\":{},\
                 \"cache_entries\":{},\"cone_hits\":{},\"cone_misses\":{},\"cone_key_words\":{},\
                 \"peak_memo_bytes\":{}",
                self.threads,
                json_f64(self.wall_time.as_secs_f64()),
                self.cache_hits,
                self.cache_misses,
                self.cache_entries,
                self.cone_hits,
                self.cone_misses,
                self.cone_key_words,
                self.peak_memo_bytes
            );
            out.push_str(",\"pool\":{\"workers\":[");
            for (i, w) in self.pool.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"tasks\":{},\"steals\":{},\"busy_ns\":{},\"idle_ns\":{}}}",
                    w.tasks, w.steals, w.busy_ns, w.idle_ns
                );
            }
            let (_, _, utilization) = pool_summary(&self.pool);
            let _ = write!(out, "],\"utilization\":{}}}", json_f64(utilization));
        }
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_str(&mut out, "benchmark", &row.key.benchmark);
            out.push(',');
            json_str(&mut out, "scheme", scheme_name(row.key.scheme));
            out.push(',');
            json_str(&mut out, "attack", row.key.attack.name());
            let _ = write!(
                out,
                ",\"level\":{},\"error_rate\":{},\"trials\":{},\
                 \"completed\":{},\"timed_out\":{},\"exhausted\":{},\
                 \"inconsistent\":{},\"failed\":{},\
                 \"key_recovery_rate\":{},\"mean_queries\":{},\
                 \"mean_iterations\":{},\"mean_output_error\":{}",
                json_f64(row.key.level),
                json_f64(row.key.error_rate),
                row.trials,
                row.status_counts[0],
                row.status_counts[1],
                row.status_counts[2],
                row.status_counts[3],
                row.status_counts[4],
                json_f64(row.key_recovery_rate),
                json_f64(row.mean_queries),
                json_f64(row.mean_iterations),
                json_f64(row.mean_output_error),
            );
            // The historical defaults — uniform profile, static (period-0)
            // oracle, abstract (clock-0) rate — are left implicit so JSON
            // from specs that don't sweep those dimensions stays
            // byte-identical across refactors.
            if row.key.profile != NoiseShape::Uniform {
                out.push(',');
                json_str(&mut out, "profile", row.key.profile.name());
            }
            if row.key.rotation_period != 0 {
                let _ = write!(out, ",\"rotation_period\":{}", row.key.rotation_period);
            }
            if row.key.clock_ns != 0.0 {
                let _ = write!(out, ",\"clock_ns\":{}", json_f64(row.key.clock_ns));
            }
            if row.key.topology != Topology::Uniform {
                out.push(',');
                json_str(&mut out, "topology", row.key.topology.name());
            }
            if timing {
                let _ = write!(
                    out,
                    ",\"runtime_p50\":{},\"runtime_p90\":{},\"runtime_max\":{},\
                     \"mean_decisions\":{},\"mean_propagations\":{},\"mean_conflicts\":{},\
                     \"mean_restarts\":{},\"mean_learnts_deleted\":{},\
                     \"mean_elim_vars\":{},\"mean_subsumed\":{},\
                     \"mean_strengthened\":{},\"mean_simplify_ms\":{}",
                    json_f64(row.runtime_p50),
                    json_f64(row.runtime_p90),
                    json_f64(row.runtime_max),
                    json_f64(row.mean_decisions),
                    json_f64(row.mean_propagations),
                    json_f64(row.mean_conflicts),
                    json_f64(row.mean_restarts),
                    json_f64(row.mean_learnts_deleted),
                    json_f64(row.mean_elim_vars),
                    json_f64(row.mean_subsumed),
                    json_f64(row.mean_strengthened),
                    json_f64(row.mean_simplify_ms),
                );
            }
            out.push('}');
        }
        out.push_str("],\"device\":[");
        for (i, row) in self.device.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_str(&mut out, "kind", row.kind);
            let _ = write!(
                out,
                ",\"i_s\":{},\"t_clk\":{},\"samples\":{},\"value\":{}",
                json_f64(row.i_s),
                json_f64(row.t_clk),
                row.samples,
                json_f64(row.value),
            );
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// CSV of the aggregated attack rows (always includes the runtime
    /// columns; consumers that need determinism should use
    /// [`CampaignReport::deterministic_json`]).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "benchmark,scheme,level,attack,error_rate,clock_ns,profile,rotation_period,topology,\
             trials,completed,timed_out,exhausted,inconsistent,failed,key_recovery_rate,\
             mean_queries,mean_iterations,mean_output_error,runtime_p50,runtime_p90,\
             runtime_max\n",
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                row.key.benchmark,
                scheme_name(row.key.scheme),
                row.key.level,
                row.key.attack.name(),
                row.key.error_rate,
                row.key.clock_ns,
                row.key.profile.name(),
                row.key.rotation_period,
                row.key.topology.name(),
                row.trials,
                row.status_counts[0],
                row.status_counts[1],
                row.status_counts[2],
                row.status_counts[3],
                row.status_counts[4],
                row.key_recovery_rate,
                row.mean_queries,
                row.mean_iterations,
                row.mean_output_error,
                row.runtime_p50,
                row.runtime_p90,
                row.runtime_max,
            );
        }
        out
    }

    /// Table IV's view of the grid: the schemes in first-seen order, and
    /// one row per aggregate key with the scheme removed, holding one
    /// [`TableRow::runtime_cell`] per scheme (`-` where the grid lacks
    /// that cell). Rows keep first-seen order.
    pub fn scheme_pivot(&self) -> (Vec<CamoScheme>, Vec<(&CellKey, Vec<String>)>) {
        let mut schemes: Vec<CamoScheme> = Vec::new();
        for row in &self.rows {
            if !schemes.contains(&row.key.scheme) {
                schemes.push(row.key.scheme);
            }
        }
        let same_but_scheme = |a: &CellKey, b: &CellKey| {
            CellKey {
                scheme: b.scheme,
                ..a.clone()
            } == *b
        };
        let mut pivot: Vec<(&CellKey, Vec<String>)> = Vec::new();
        for row in &self.rows {
            let column = schemes
                .iter()
                .position(|&s| s == row.key.scheme)
                .expect("every row's scheme is a column");
            let at = match pivot.iter().position(|(k, _)| same_but_scheme(k, &row.key)) {
                Some(at) => at,
                None => {
                    pivot.push((&row.key, vec!["-".to_string(); schemes.len()]));
                    pivot.len() - 1
                }
            };
            pivot[at].1[column] = row.runtime_cell();
        }
        (schemes, pivot)
    }
}

/// JSON-compatible float rendering: finite values via Rust's shortest
/// round-trip formatting, NaN/infinities as null.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub(crate) fn json_str(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AttackSeeds, JobKind, JobSpec, JobStatus};
    use gshe_attacks::AttackKind;

    fn sample_report() -> CampaignReport {
        let result = JobResult {
            spec: JobSpec {
                kind: JobKind::Attack {
                    benchmark: "c7552".into(),
                    topology: Topology::Uniform,
                    scheme: CamoScheme::GsheAll16,
                    level: 0.2,
                    attack: AttackKind::Sat,
                    error_rate: 0.0,
                    clock_ns: 0.0,
                    profile: NoiseShape::Uniform,
                    rotation_period: 0,
                    trial: 0,
                    seeds: AttackSeeds {
                        select: 0,
                        transform: 0,
                        oracle: 0,
                    },
                },
                timeout: Duration::from_secs(60),
            },
            status: JobStatus::Completed,
            key_recovered: true,
            queries: 12,
            iterations: 12,
            output_error_rate: 0.0,
            measurement: f64::NAN,
            elapsed: Duration::from_millis(1234),
            solver_stats: gshe_sat::SolverStats {
                decisions: 40,
                propagations: 400,
                conflicts: 4,
                restarts: 2,
                deleted: 6,
                elim_vars: 30,
                subsumed: 20,
                strengthened: 10,
                simplify_ns: 5_000_000,
                ..Default::default()
            },
            error: None,
        };
        CampaignReport::new(
            "unit".into(),
            vec![result],
            4,
            Duration::from_secs(2),
            (3, 9, 2),
        )
    }

    #[test]
    fn json_shapes_differ_only_in_timing() {
        let report = sample_report();
        let full = report.to_json();
        let det = report.deterministic_json();
        assert!(full.contains("\"wall_time_secs\""));
        assert!(full.contains("\"runtime_p50\""));
        assert!(!det.contains("runtime"));
        assert!(!det.contains("wall_time"));
        assert!(det.contains("\"key_recovery_rate\":1"));
        assert!(det.contains("\"mean_queries\":12"));
        // Solver and pool diagnostics live strictly on the timing side.
        assert!(full.contains("\"mean_decisions\":40"));
        assert!(full.contains("\"mean_propagations\":400"));
        assert!(full.contains("\"mean_conflicts\":4"));
        assert!(full.contains("\"mean_restarts\":2"));
        assert!(full.contains("\"mean_learnts_deleted\":6"));
        assert!(full.contains("\"mean_elim_vars\":30"));
        assert!(full.contains("\"mean_subsumed\":20"));
        assert!(full.contains("\"mean_strengthened\":10"));
        assert!(full.contains("\"mean_simplify_ms\":5"));
        assert!(full.contains("\"pool\":{\"workers\":["));
        assert!(!det.contains("decisions"));
        assert!(!det.contains("restarts"));
        assert!(!det.contains("elim_vars"));
        assert!(!det.contains("simplify"));
        assert!(!det.contains("pool"));
    }

    #[test]
    fn pool_stats_render_per_worker_in_timing_json() {
        let report = sample_report().with_pool_stats(vec![
            WorkerStats {
                tasks: 3,
                steals: 1,
                busy_ns: 750,
                idle_ns: 250,
            },
            WorkerStats {
                tasks: 2,
                steals: 0,
                busy_ns: 250,
                idle_ns: 750,
            },
        ]);
        let full = report.to_json();
        assert!(full.contains(
            "\"pool\":{\"workers\":[{\"tasks\":3,\"steals\":1,\"busy_ns\":750,\"idle_ns\":250},\
             {\"tasks\":2,\"steals\":0,\"busy_ns\":250,\"idle_ns\":750}],\"utilization\":0.5}"
        ));
        assert!(!report.deterministic_json().contains("pool"));
    }

    #[test]
    fn nan_serializes_as_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample_report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("benchmark,scheme"));
        assert!(lines[0].contains(",profile,"));
        assert!(lines[1].starts_with("c7552,gshe16,0.2,sat,0,0,uniform,0,"));
    }

    #[test]
    fn uniform_profile_is_implicit_in_json_but_named_otherwise() {
        let mut report = sample_report();
        assert!(!report.deterministic_json().contains("profile"));
        let JobKind::Attack { profile, .. } = &mut report.results[0].spec.kind else {
            panic!()
        };
        *profile = NoiseShape::OutputCone;
        let rebuilt = CampaignReport::new(
            report.name.clone(),
            report.results.clone(),
            1,
            Duration::from_secs(1),
            (0, 0, 0),
        );
        assert!(rebuilt
            .deterministic_json()
            .contains("\"profile\":\"output-cone\""));
        assert!(rebuilt.to_csv().contains(",output-cone,"));
    }

    #[test]
    fn rotation_period_is_implicit_in_json_only_when_static() {
        let mut report = sample_report();
        assert!(!report.deterministic_json().contains("rotation_period"));
        assert!(report.to_csv().contains(",uniform,0,"));
        let JobKind::Attack {
            rotation_period, ..
        } = &mut report.results[0].spec.kind
        else {
            panic!()
        };
        *rotation_period = 16;
        let rebuilt = CampaignReport::new(
            report.name.clone(),
            report.results.clone(),
            1,
            Duration::from_secs(1),
            (0, 0, 0),
        );
        assert!(rebuilt
            .deterministic_json()
            .contains("\"rotation_period\":16"));
        assert!(rebuilt.to_csv().contains(",uniform,16,"));
    }

    #[test]
    fn topology_is_implicit_in_json_only_when_uniform() {
        let mut report = sample_report();
        assert!(!report.deterministic_json().contains("topology"));
        assert!(
            report.to_csv().contains(",0,uniform,"),
            "{}",
            report.to_csv()
        );
        let JobKind::Attack { topology, .. } = &mut report.results[0].spec.kind else {
            panic!()
        };
        *topology = Topology::Local;
        let rebuilt = CampaignReport::new(
            report.name.clone(),
            report.results.clone(),
            1,
            Duration::from_secs(1),
            (0, 0, 0),
        );
        assert!(rebuilt
            .deterministic_json()
            .contains("\"topology\":\"local\""));
        assert!(rebuilt.to_csv().contains(",0,local,"));
    }

    #[test]
    fn cone_and_memo_stats_render_on_the_timing_side_only() {
        let report = sample_report().with_cache_detail((5, 2), 3, 4096);
        let full = report.to_json();
        assert!(full.contains("\"cone_hits\":5"));
        assert!(full.contains("\"cone_misses\":2"));
        assert!(full.contains("\"cone_key_words\":3"));
        assert!(full.contains("\"peak_memo_bytes\":4096"));
        let det = report.deterministic_json();
        assert!(!det.contains("cone_"));
        assert!(!det.contains("peak_memo"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        json_str(&mut out, "k", "a\"b\\c\nd");
        assert_eq!(out, "\"k\":\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn scheme_pivot_puts_schemes_in_columns() {
        let mut results = Vec::new();
        for (scheme, level, status) in [
            (CamoScheme::InvBuf, 0.1, JobStatus::Completed),
            (CamoScheme::GsheAll16, 0.1, JobStatus::TimedOut),
            (CamoScheme::InvBuf, 0.2, JobStatus::Completed),
        ] {
            let mut r = sample_report().results.remove(0);
            let JobKind::Attack {
                scheme: s,
                level: l,
                ..
            } = &mut r.spec.kind
            else {
                panic!()
            };
            (*s, *l) = (scheme, level);
            r.status = status;
            results.push(r);
        }
        let report = CampaignReport::new(
            "pivot".into(),
            results,
            1,
            Duration::from_secs(1),
            (0, 0, 0),
        );
        let (schemes, rows) = report.scheme_pivot();
        assert_eq!(schemes, [CamoScheme::InvBuf, CamoScheme::GsheAll16]);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].0.level, rows[1].0.level), (0.1, 0.2));
        assert_eq!(rows[0].1, ["1.2", "t-o"]);
        assert_eq!(rows[1].1, ["1.2", "-"]);
    }
}
