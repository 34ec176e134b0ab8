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
//! Solver heuristics and the miter encoding legitimately shift the
//! *trajectory* of an attack: how many DIPs it needs, and, in stochastic
//! cells, which noise draws it sees and so how a defeated attack's
//! failure is classified. A change that moves trajectories regenerates
//! `tests/golden/small_grid.json` once with the ignored
//! `regenerate_golden_file` test below, and says so in the commit. The
//! security verdicts must not move with it; two tests pin them
//! explicitly:
//!
//! * every error-free cell keeps its status counts and key-recovery rate;
//! * no GSHE16 cell under noise yields a verified key.

use spin_hall_security::campaign::{Campaign, CampaignSpec, NoiseShape};
use spin_hall_security::prelude::{AttackKind, CamoScheme};
use std::time::Duration;

const GOLDEN: &str = include_str!("golden/small_grid.json");

/// Status counts and key-recovery rate of every error-free cell, keyed by
/// (scheme, rotation period): `completed`, `timed_out`, `exhausted`,
/// `inconsistent`, `failed`, `key_recovery_rate`. A static chip gives up
/// its key under either scheme; a rotating GSHE16 chip does not.
const ERROR_FREE_VERDICTS: &[(&str, &str, [&str; 6])] = &[
    ("inv-buf", "0", ["2", "0", "0", "0", "0", "1"]),
    ("inv-buf", "4", ["2", "0", "0", "0", "0", "1"]),
    ("gshe16", "0", ["2", "0", "0", "0", "0", "1"]),
    ("gshe16", "4", ["0", "0", "0", "2", "0", "0"]),
];

/// The verdict fields of [`ERROR_FREE_VERDICTS`], in order.
const VERDICT_FIELDS: [&str; 6] = [
    "completed",
    "timed_out",
    "exhausted",
    "inconsistent",
    "failed",
    "key_recovery_rate",
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

/// The value of field `name` in a flat `{...}` row object.
fn field_value<'a>(row: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\":");
    let rest = &row[row.find(&key).expect("field present") + key.len()..];
    rest.split([',', '}']).next().unwrap()
}

/// The value of field `name`, or `default` when the serializer omits it
/// (it omits the profile and rotation period at their defaults).
fn field_or<'a>(row: &'a str, name: &str, default: &'a str) -> &'a str {
    if row.contains(&format!("\"{name}\":")) {
        field_value(row, name)
    } else {
        default
    }
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
    // explicit `off` run.
    let mut spec = golden_spec();
    spec.sat_simplify = spin_hall_security::attacks::SimplifyMode::Off;
    let report = Campaign::run(&spec).expect("golden campaign, simplify off");
    assert_eq!(
        report.deterministic_json(),
        GOLDEN,
        "the auto threshold engaged on a golden-grid instance: defaults \
         no longer match simplification off"
    );
}

#[test]
fn error_free_cells_keep_their_verdicts() {
    let rows: Vec<&str> = row_objects(GOLDEN)
        .into_iter()
        .filter(|r| field_value(r, "error_rate") == "0")
        .collect();
    assert_eq!(rows.len(), ERROR_FREE_VERDICTS.len(), "grid shape changed");
    for row in rows {
        let scheme = field_value(row, "scheme").trim_matches('"');
        let period = field_or(row, "rotation_period", "0");
        let (_, _, expected) = ERROR_FREE_VERDICTS
            .iter()
            .find(|(s, p, _)| *s == scheme && *p == period)
            .unwrap_or_else(|| panic!("unexpected error-free cell: {row}"));
        let got = VERDICT_FIELDS.map(|f| field_value(row, f));
        assert_eq!(&got, expected, "verdict drifted: {row}");
    }
}

#[test]
fn no_gshe16_cell_under_noise_yields_a_key() {
    let noisy: Vec<&str> = row_objects(GOLDEN)
        .into_iter()
        .filter(|r| field_value(r, "scheme") == "\"gshe16\"" && field_value(r, "error_rate") != "0")
        .collect();
    assert_eq!(noisy.len(), 4, "grid shape changed");
    for row in noisy {
        assert_eq!(
            field_value(row, "key_recovery_rate"),
            "0",
            "noisy GSHE16 cell gave up its key: {row}"
        );
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
