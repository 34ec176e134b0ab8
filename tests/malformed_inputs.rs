//! Malformed-input property suites: every text parser returns `Ok` or
//! `Err` on a corrupted document, never panics.
//!
//! Each property starts from a well-formed seed document and applies a
//! handful of random edits (delete, insert or replace one character),
//! drawing inserted characters from the format's own alphabet so the
//! mutants stay close to the grammar, where the parser's slicing and
//! counting logic lives.

use proptest::prelude::*;
use spin_hall_security::campaign::{CampaignSpec, SearchSpec};
use spin_hall_security::logic::bench_format::C17_BENCH;
use spin_hall_security::logic::{parse_aag, parse_bench};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A latch, an AND gate, symbols and a comment: every `.aag` section.
const LATCH_AAG: &str = "aag 3 1 1 1 1\n2\n4 6\n6\n6 2 4\ni0 x\nl0 q\no0 y\nc\nlatch seed\n";

const BENCH_ALPHABET: &str = "INPUTOUTPUTNANDNORXOBUFFDF(),= #\n0123456789Gx";
const AAG_ALPHABET: &str = "aag 0123456789\nilocx\u{e9}";
const TOML_ALPHABET: &str = "abcdefghijklmnopqrstuvwxyz_[]=\"'., -#\n0123456789";

/// Applies `edits` to `seed`: each `(kind, pos, pick)` deletes (kind 0),
/// inserts (kind 1) or replaces (kind 2) the character at `pos` (taken
/// modulo the current length), inserting `alphabet[pick]` (modulo its
/// length).
fn mutate(seed: &str, alphabet: &str, edits: &[(u8, usize, usize)]) -> String {
    let alphabet: Vec<char> = alphabet.chars().collect();
    let mut doc: Vec<char> = seed.chars().collect();
    for &(kind, pos, pick) in edits {
        let c = alphabet[pick % alphabet.len()];
        match (kind, doc.len()) {
            (_, 0) | (1, _) => doc.insert(pos % (doc.len() + 1), c),
            (0, n) => {
                doc.remove(pos % n);
            }
            (_, n) => doc[pos % n] = c,
        }
    }
    doc.into_iter().collect()
}

/// `true` if `parse` returns (with either verdict) instead of panicking.
fn returns<T, E>(parse: impl FnOnce() -> Result<T, E>) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        let _ = parse();
    }))
    .is_ok()
}

fn edits() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    prop::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 1..12)
}

#[test]
fn seed_documents_parse() {
    assert!(parse_bench(C17_BENCH).is_ok());
    assert!(parse_aag(LATCH_AAG).is_ok());
    assert!(CampaignSpec::parse_toml(include_str!("../specs/smoke.toml")).is_ok());
    assert!(SearchSpec::parse_toml(include_str!("../specs/search_smoke.toml")).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50_000))]

    #[test]
    fn parse_bench_never_panics(edits in edits()) {
        let doc = mutate(C17_BENCH, BENCH_ALPHABET, &edits);
        prop_assert!(returns(|| parse_bench(&doc)), "panicked on {:?}", doc);
    }

    #[test]
    fn parse_aag_never_panics(edits in edits()) {
        let doc = mutate(LATCH_AAG, AAG_ALPHABET, &edits);
        prop_assert!(returns(|| parse_aag(&doc)), "panicked on {:?}", doc);
    }

    #[test]
    fn campaign_spec_parse_never_panics(edits in edits()) {
        let doc = mutate(include_str!("../specs/smoke.toml"), TOML_ALPHABET, &edits);
        prop_assert!(returns(|| CampaignSpec::parse_toml(&doc)), "panicked on {:?}", doc);
    }

    #[test]
    fn search_spec_parse_never_panics(edits in edits()) {
        let doc = mutate(include_str!("../specs/search_smoke.toml"), TOML_ALPHABET, &edits);
        prop_assert!(returns(|| SearchSpec::parse_toml(&doc)), "panicked on {:?}", doc);
    }
}
