//! # gshe-attacks
//!
//! Analytical attacks against camouflaged/locked netlists, reproducing the
//! paper's Sec. V evaluation apparatus:
//!
//! * the oracle-guided **SAT attack** of Subramanyan et al. (\[8\], \[37\]) —
//!   miter-based DIP refinement ([`sat_attack`]);
//! * **Double DIP** (Shen & Zhou \[12\]) — each iteration rules out at least
//!   two incorrect keys ([`double_dip_attack`]);
//! * an **AppSAT**-style approximate attack (Shamsi et al. \[11\]) — SAT
//!   attack interleaved with random-query error estimation and early exit
//!   ([`appsat_attack`]);
//! * the shared [`dip_engine`] all three delegate to: one
//!   miter/constraint-accumulation loop parameterized by a
//!   [`RefinePolicy`], discovering up to [`AttackConfig::dip_batch`] DIPs
//!   per solver round and resolving each batch through **one**
//!   bit-parallel [`Oracle::query_block`] call;
//! * oracles as a layered [`stack`]: a bit-parallel base (exact or
//!   fault-injecting) with an optional key-rotation layer, composed via
//!   [`OracleStack`]. The legacy chips are thin adapters: a perfect
//!   working chip ([`NetlistOracle`]), the tunable **stochastic** GSHE
//!   chip of Sec. V-B ([`StochasticOracle`]) whose per-cell error rates
//!   superpose into correlated output errors, and the key-rotating chip
//!   of Sec. V-C ([`RotatingOracle`]); [`OracleStack::rotating_noisy`]
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

pub mod appsat;
pub mod coi;
pub mod dip_engine;
pub mod double_dip;
pub mod encode;
pub mod metrics;
pub mod oracle;
pub mod runner;
pub mod sat_attack;
pub mod stack;
mod strash;

pub use appsat::{appsat_attack, AppSatConfig};
pub use coi::{cone_inputs, CoiMode, CoiOracle, CoiProjection, COI_AUTO_THRESHOLD};
pub use dip_engine::{RefinePolicy, DEFAULT_BATCH_WIDTH};
pub use double_dip::double_dip_attack;
pub use encode::{assert_valid_key_codes, encode_keyed, encode_keyed_fixed, EncodedCopy};
pub use gshe_sat::{RestartMode, SimplifyMode};
pub use metrics::{verify_key, verify_key_scoped, verify_key_until, KeyVerification};
pub use oracle::{NetlistOracle, Oracle, RotatingOracle, StochasticOracle};
pub use runner::{AttackKind, AttackRunner};
pub use sat_attack::{sat_attack, AttackConfig, AttackOutcome, AttackStatus};
pub use stack::{EvalLayer, OracleStack};
