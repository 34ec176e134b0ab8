//! # gshe-attacks
//!
//! Analytical attacks against camouflaged/locked netlists, reproducing the
//! paper's Sec. V evaluation apparatus:
//!
//! * one entry point, [`AttackRunner::run`], for the three oracle-guided
//!   attacks ([`AttackKind`]): the **SAT attack** of Subramanyan et al.
//!   (\[8\], \[37\]), **Double DIP** (Shen & Zhou \[12\]), which rules out
//!   at least two incorrect keys per iteration, and an **AppSAT**-style
//!   approximate attack (Shamsi et al. \[11\]), which interleaves
//!   random-query error estimation with early exit;
//! * the shared [`dip_engine`] behind it: one miter/constraint-accumulation
//!   loop under three policies — one solve, one oracle query and one pin
//!   per round — run on the cloaked cells' cone of influence ([`coi`])
//!   whenever that cone leaves some outputs out;
//! * the working chip as one layered [`OracleStack`]: a bit-parallel base
//!   (exact, or fault-injecting per an error profile — the tunable
//!   **stochastic** GSHE chip of Sec. V-B, whose per-cell error rates
//!   superpose into correlated output errors) with an optional
//!   key-rotation layer (the Sec. V-C chip); [`OracleStack::rotating_noisy`]
//!   is the combined rotating + stochastic defense;
//! * key verification by exact equivalence on one structurally hashed
//!   miter ([`verify_key`]): a key that restores the defender's structure
//!   is proved correct without a solver, and any other key costs one
//!   solve over only the outputs it changes.
//!
//! The attacker's view of a [`gshe_camo::KeyedNetlist`] is its structure
//! and per-cell candidate sets only; attacks never read the embedded
//! correct key (it is used solely by oracles and verification).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coi;
pub mod dip_engine;
pub mod encode;
pub mod metrics;
pub mod oracle;
pub mod runner;
pub mod stack;
mod strash;

pub use coi::{cone_inputs, CoiMode, CoiOracle, CoiProjection};
pub use encode::{assert_valid_key_codes, encode_keyed, encode_keyed_fixed, EncodedCopy};
pub use gshe_sat::SimplifyMode;
pub use metrics::{verify_key, verify_key_scoped, verify_key_until, KeyVerification};
pub use oracle::Oracle;
pub use runner::{AttackConfig, AttackKind, AttackOutcome, AttackRunner, AttackStatus};
pub use stack::{EvalLayer, OracleStack};
