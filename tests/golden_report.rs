//! Golden-report regression: the deterministic JSON of a fixed campaign
//! grid is pinned byte-for-byte to a committed artifact, so refactors of
//! the attacks, oracles, expansion, aggregation, or serialization cannot
//! silently shift campaign output. The grid deliberately crosses every
//! deterministic-report feature: two schemes, deterministic + stochastic
//! cells, a heterogeneous noise profile, a dynamic-camouflaging rotation
//! period — and, since the oracle-stack refactor opened the full
//! `rotation_periods × rates × profiles` cross product, **combined**
//! rotating + stochastic defense cells.
//!
//! Three artifacts are committed:
//!
//! * `tests/golden/small_grid.json` — the current full grid;
//! * `tests/golden/small_grid_pr3.json` — the same spec's output from
//!   before the oracle-stack refactor (when rotation collapsed the noise
//!   dimensions); every one of its cells must survive in the current
//!   grid, in order;
//! * `tests/golden/small_grid_pr6.json` — the full grid captured just
//!   before the modern-CDCL solver rewrite, pinning the whole grid
//!   row-for-row across solver-heuristic changes.
//!
//! Solver heuristics legitimately shift the *trajectory* of an attack —
//! how many DIPs it needs (`mean_queries`/`mean_iterations`), and, in
//! stochastic cells only, which noise draws it sees and therefore how the
//! defeated attack's failure is classified. The historical comparisons
//! mask exactly those fields; everything else — cell identity, trial
//! counts, and above all `key_recovery_rate` — must stay byte-stable.
//!
//! If a change *intentionally* alters report output, regenerate the
//! artifact with the ignored `regenerate_golden_file` test below — and
//! say so in the commit. Never regenerate the `_pr3`/`_pr6` snapshots.

use spin_hall_security::campaign::{Campaign, CampaignSpec, NoiseShape};
use spin_hall_security::prelude::{AttackKind, CamoScheme};
use std::time::Duration;

const GOLDEN: &str = include_str!("golden/small_grid.json");
const GOLDEN_PR3: &str = include_str!("golden/small_grid_pr3.json");
const GOLDEN_PR6: &str = include_str!("golden/small_grid_pr6.json");

/// Fields that are pure solver-trajectory op counts.
const OP_COUNT_FIELDS: &[&str] = &["mean_queries", "mean_iterations"];

/// Outcome-classification fields that may shift in *stochastic* cells
/// when the query trajectory (and so the noise stream) changes. The
/// key-recovery rate is deliberately not among them.
const NOISE_OUTCOME_FIELDS: &[&str] = &[
    "completed",
    "timed_out",
    "exhausted",
    "inconsistent",
    "failed",
    "mean_output_error",
];

fn golden_spec() -> CampaignSpec {
    CampaignSpec {
        name: "golden".to_string(),
        benchmarks: vec!["ex1010".to_string()],
        scale: 400,
        levels: vec![0.15],
        schemes: vec![CamoScheme::InvBuf, CamoScheme::GsheAll16],
        attacks: vec![AttackKind::Sat],
        error_rates: vec![0.0, 0.25],
        clock_periods_ns: Vec::new(),
        profiles: vec![NoiseShape::Uniform, NoiseShape::OutputCone],
        rotation_periods: vec![0, 4],
        trials: 2,
        seed: 9,
        timeout: Duration::from_secs(60),
        threads: 2,
        topology: spin_hall_security::logic::Topology::Uniform,
        coi_mode: spin_hall_security::attacks::CoiMode::On,
        sat_simplify: spin_hall_security::attacks::SimplifyMode::Auto,
        memo_budget_mb: 0.0,
    }
}

/// Splits a deterministic report's `rows` array into its `{...}` row
/// objects, textually (the serializer emits no nested braces in rows).
fn row_objects(json: &str) -> Vec<&str> {
    let rows = json
        .split_once("\"rows\":[")
        .expect("rows array")
        .1
        .split_once("],\"device\":")
        .expect("device array")
        .0;
    rows.split_inclusive('}')
        .map(|r| r.trim_start_matches(',').trim())
        .filter(|r| !r.is_empty())
        .collect()
}

/// Replaces the values of `fields` in a flat `{...}` row object with `X`.
fn mask_fields(row: &str, fields: &[&str]) -> String {
    let inner = row.trim_start_matches('{').trim_end_matches('}');
    let masked: Vec<String> = inner
        .split(',')
        .map(|pair| {
            let (k, _) = pair.split_once(':').expect("key:value field");
            let name = k.trim_matches('"');
            if fields.contains(&name) {
                format!("{k}:X")
            } else {
                pair.to_string()
            }
        })
        .collect();
    format!("{{{}}}", masked.join(","))
}

/// The value of field `name` in a flat `{...}` row object.
fn field_value<'a>(row: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\":");
    let rest = &row[row.find(&key).expect("field present") + key.len()..];
    rest.split([',', '}']).next().unwrap()
}

/// `true` if the row is a stochastic cell (nonzero oracle error rate).
fn is_stochastic(row: &str) -> bool {
    field_value(row, "error_rate") != "0"
}

#[test]
fn deterministic_json_matches_committed_golden_file() {
    let report = Campaign::run(&golden_spec()).expect("golden campaign");
    assert_eq!(
        report.deterministic_json(),
        GOLDEN,
        "deterministic report drifted from tests/golden/small_grid.json; \
         if the change is intentional, regenerate the golden file"
    );
}

#[test]
fn auto_simplify_is_transparent_on_the_golden_grid() {
    // The default `sat_simplify = auto` only engages above the 100k
    // problem-clause threshold; every instance in this grid sits far
    // below it, so the default-settings run must be byte-identical to an
    // explicit `off` run — i.e. to the pre-simplification (PR 9) solver
    // trace the golden file pins.
    let mut spec = golden_spec();
    spec.sat_simplify = spin_hall_security::attacks::SimplifyMode::Off;
    let report = Campaign::run(&spec).expect("golden campaign, simplify off");
    assert_eq!(
        report.deterministic_json(),
        GOLDEN,
        "the auto threshold engaged on a golden-grid instance: defaults \
         no longer reproduce the historical solver trace"
    );
}

#[test]
fn every_pre_stack_cell_survives_in_the_new_golden() {
    // The stack refactor opened new (combined-defense) cells; every cell
    // that existed before it must survive, in order, modulo solver
    // op-count trajectory (the pr3 grid has no stochastic rows whose
    // outcome could shift, and these deterministic rows must not).
    let legacy: Vec<String> = row_objects(GOLDEN_PR3)
        .iter()
        .map(|r| mask_fields(r, OP_COUNT_FIELDS))
        .collect();
    let current: Vec<String> = row_objects(GOLDEN)
        .iter()
        .map(|r| mask_fields(r, OP_COUNT_FIELDS))
        .collect();
    assert!(!legacy.is_empty() && current.len() > legacy.len());
    let mut cursor = 0usize;
    for row in &legacy {
        let found = current[cursor..]
            .iter()
            .position(|r| r == row)
            .unwrap_or_else(|| panic!("pre-stack golden row missing or out of order: {row}"));
        cursor += found + 1;
    }
}

#[test]
fn pre_cdcl_rewrite_grid_survives_modulo_solver_trajectory() {
    // Same spec, same grid shape: the solver rewrite may only move op
    // counts everywhere, plus outcome classification in stochastic cells.
    // Key-recovery rates are byte-stable in every cell — the security
    // verdict must not depend on solver heuristics.
    let legacy = row_objects(GOLDEN_PR6);
    let current = row_objects(GOLDEN);
    assert_eq!(legacy.len(), current.len(), "grid shape changed");
    for (a, b) in legacy.iter().zip(&current) {
        assert_eq!(
            field_value(a, "key_recovery_rate"),
            field_value(b, "key_recovery_rate"),
            "key recovery drifted: {a} vs {b}"
        );
        let (ma, mb) = (
            mask_fields(a, OP_COUNT_FIELDS),
            mask_fields(b, OP_COUNT_FIELDS),
        );
        if is_stochastic(a) {
            assert_eq!(
                mask_fields(&ma, NOISE_OUTCOME_FIELDS),
                mask_fields(&mb, NOISE_OUTCOME_FIELDS),
                "stochastic cell drifted beyond trajectory fields"
            );
        } else {
            assert_eq!(ma, mb, "deterministic cell drifted beyond op counts");
        }
    }
}

#[test]
fn golden_file_carries_the_new_grid_dimensions() {
    // Self-check that the pinned artifact actually covers the features it
    // exists to guard (otherwise a regeneration could quietly drop them).
    assert!(GOLDEN.contains("\"profile\":\"output-cone\""));
    assert!(GOLDEN.contains("\"rotation_period\":4"));
    assert!(GOLDEN.contains("\"error_rate\":0.25"));
    // The combined rotating + stochastic cell: a row carrying both a
    // nonzero rate and a rotation period.
    assert!(
        row_objects(GOLDEN)
            .iter()
            .any(|r| r.contains("\"error_rate\":0.25") && r.contains("\"rotation_period\":4")),
        "no combined-defense cell in the golden grid"
    );
}

/// Regenerates `tests/golden/small_grid.json` from the current code.
/// Run explicitly when a change intentionally alters report output:
///
/// ```text
/// cargo test --test golden_report -- --ignored
/// ```
#[test]
#[ignore = "writes tests/golden/small_grid.json; run explicitly to regenerate"]
fn regenerate_golden_file() {
    let report = Campaign::run(&golden_spec()).expect("golden campaign");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/small_grid.json");
    std::fs::write(path, report.deterministic_json()).expect("write golden");
}
