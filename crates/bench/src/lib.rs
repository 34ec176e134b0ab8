//! # gshe-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! paper's evaluation. Most artifacts have a dedicated binary (see
//! `src/bin/`), and Criterion benches in `benches/` measure the hot paths
//! and the ablation comparisons DESIGN.md calls out.
//!
//! | Artifact | Binary |
//! |----------|--------|
//! | Table I   | `table1` |
//! | Table II  | `table2` |
//! | Table III | `table3` |
//! | Fig. 2    | `fig2` |
//! | Fig. 4    | `fig4` |
//! | Fig. 5    | `fig5` |
//! | Fig. 6    | `fig6` |
//! | Sec. II s38584 study        | `exp_s38584` |
//! | Sec. V-A hybrid CMOS–GSHE   | `exp_hybrid` |
//!
//! Table IV, the Sec. V-A Double DIP study and the Sec. V-B stochastic
//! study are campaign specs under `specs/paper/`, run by the `campaign`
//! binary (`campaign --spec specs/paper/table4.toml`).
//!
//! Shared argument parsing and table rendering live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

/// Common command-line options for the harness binaries.
///
/// Parsed by hand (`--key value` pairs) to avoid pulling an argument-parsing
/// dependency into the reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Benchmark-scale divisor (1 = paper-scale gate counts).
    pub scale: usize,
    /// Per-attack wall-clock budget.
    pub timeout: Duration,
    /// Monte Carlo sample count.
    pub samples: usize,
    /// Master seed.
    pub seed: u64,
    /// Restrict to one benchmark (empty = all).
    pub only: String,
    /// Campaign worker threads (0 = available parallelism).
    pub threads: usize,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 20,
            timeout: Duration::from_secs(60),
            samples: 2_000,
            seed: 1,
            only: String::new(),
            threads: 0,
        }
    }
}

const USAGE: &str = "usage: --scale N --timeout SECS --samples N --seed N --only NAME --threads N";

impl HarnessArgs {
    /// Parses the process arguments with [`HarnessArgs::parse_from`]. On
    /// malformed input it prints `error: <msg>` and exits with status 2.
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        HarnessArgs::parse_from(&argv).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parses `--key value` pairs, falling back to the defaults for
    /// absent keys.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending option on an unknown
    /// option, a missing value, or a value that does not parse.
    pub fn parse_from(argv: &[String]) -> Result<Self, String> {
        fn number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("{key} takes a non-negative integer, got `{value}`"))
        }
        let mut args = HarnessArgs::default();
        for pair in argv.chunks(2) {
            let key = pair[0].as_str();
            let value = pair
                .get(1)
                .ok_or_else(|| format!("missing value for {key}; {USAGE}"))?;
            match key {
                "--scale" => args.scale = number(key, value)?,
                "--timeout" => args.timeout = Duration::from_secs(number(key, value)?),
                "--samples" => args.samples = number(key, value)?,
                "--seed" => args.seed = number(key, value)?,
                "--only" => args.only = value.clone(),
                "--threads" => args.threads = number(key, value)?,
                other => return Err(format!("unknown option `{other}`; {USAGE}")),
            }
        }
        Ok(args)
    }
}

/// Renders a histogram line: a label, a unicode bar, and the value.
pub fn bar_line(label: &str, value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    format!(
        "{label:>10} | {:<width$} {value:.4}",
        "█".repeat(filled.min(width))
    )
}

/// Formats a runtime cell for Table IV: seconds, or `t-o` on timeout, or
/// `fail` on resource exhaustion.
pub fn runtime_cell(status: &str, secs: f64) -> String {
    match status {
        "success" => format!("{secs:.1}"),
        "timeout" => "t-o".to_string(),
        "inconsistent" => "incons".to_string(),
        _ => "fail".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let a = HarnessArgs::default();
        assert_eq!(a.scale, 20);
        assert_eq!(a.timeout, Duration::from_secs(60));
    }

    #[test]
    fn malformed_flags_are_errors() {
        let parse = |argv: &[&str]| {
            HarnessArgs::parse_from(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
        };
        let parsed = parse(&["--scale", "40", "--only", "c7552", "--timeout", "5"]).unwrap();
        assert_eq!(parsed.scale, 40);
        assert_eq!(parsed.only, "c7552");
        assert_eq!(parsed.timeout, Duration::from_secs(5));
        for (argv, needle) in [
            (&["--samples", "x"][..], "--samples takes"),
            (&["--bogus", "1"], "unknown option `--bogus`"),
            (&["--seed"], "missing value for --seed"),
            (&["--scale", "-3"], "--scale takes"),
            (&["--timeout", "1.5"], "--timeout takes"),
            (&["--threads", ""], "--threads takes"),
            (&["--levels", "10,20"], "unknown option `--levels`"),
        ] {
            let err = parse(argv).expect_err(needle);
            assert!(err.contains(needle), "{argv:?}: {err}");
        }
    }

    #[test]
    fn bar_line_scales() {
        let l = bar_line("x", 5.0, 10.0, 10);
        assert!(l.contains("█████"));
        let empty = bar_line("x", 0.0, 10.0, 10);
        assert!(!empty.contains('█'));
    }

    #[test]
    fn runtime_cells() {
        assert_eq!(runtime_cell("success", 12.34), "12.3");
        assert_eq!(runtime_cell("timeout", 0.0), "t-o");
        assert_eq!(runtime_cell("exhausted", 0.0), "fail");
    }
}
