//! Sharded, shared oracle-response cache — the **caching layer** of the
//! oracle stack.
//!
//! Every attack job against the same benchmark queries the same working
//! chip, and SAT-style attacks re-discover overlapping discriminating
//! input patterns across schemes, protection levels, and trials (a
//! deterministic cell's trials replay the *same* query sequence).
//! Simulating each query once per *campaign* instead of once per *job*
//! removes that redundancy.
//!
//! Keys are **block-level**: `(netlist fingerprint, packed 64-pattern
//! block)` — one hash-and-probe per [`PatternBlock`] instead of one per
//! pattern, so cached campaign cells stop paying per-pattern hashing on
//! the bit-parallel path (the ROADMAP scale item). Scalar queries ride
//! the same path as single-pattern blocks. Values are the packed output
//! lanes, immutable once inserted (a deterministic oracle always answers
//! the same), which keeps the protocol to a get-or-insert.
//!
//! The map is split into [`SHARDS`] independently-locked shards selected
//! by the key's hash, so concurrent workers rarely contend on the same
//! lock.
//!
//! Long-lived sessions ([`crate::EvalSession`] — one cache across many
//! campaigns and search generations) can bound residency with an **entry
//! cap** ([`OracleCache::shared_with_cap`]): when an insert pushes
//! [`OracleCache::entries`] past the cap, the oldest entry of a
//! round-robin-selected shard is evicted (each shard keeps an
//! insert-order ring, so eviction is per-entry LRU-ish rather than
//! whole-shard, stats-visible via [`OracleCache::evictions`]) until the
//! cache fits again. Eviction only ever costs recomputation, never
//! correctness — entries are pure memoization.
//!
//! **Cone keys.** Superblue-scale cells attack through a
//! cone-of-influence projection (`gshe_attacks::coi`), whose
//! [`CoiOracle`](gshe_attacks::CoiOracle) scatter guarantees every
//! query reaching the underlying full-design oracle carries `false` on
//! all non-cone input positions. A [`CacheLayer`] built with a
//! [`ConeKey`] exploits that invariant: entries key on the packed
//! *cone-input sub-pattern* (a few words at an ~8k-input design with a
//! small cone) under a cone-specific fingerprint, so DIP-loop
//! re-queries across trials and rounds hit even though the full-width
//! patterns would be megabyte keys. The cone fingerprint mixes the
//! netlist fingerprint, the cone input ordinal list, and a salt, so
//! cone entries can never alias full-key entries or another cone's.
//! The full-key path is byte-identical to the historical behaviour
//! when no cone is installed.
//!
//! [`CacheLayer`] is the layer itself: a thin `query_block`-first
//! combinator over any inner [`Oracle`]. It only composes soundly over
//! the bare exact stack — noisy answers are samples and rotating answers
//! are a per-chip key stream, so neither is memoizable — which is why
//! campaign job materialization stacks it only for deterministic static
//! cells.

use crate::job::hash_mix;
use gshe_attacks::{Oracle, OracleStack};
use gshe_logic::{Netlist, NodeKind, PatternBlock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently-locked shards.
pub const SHARDS: usize = 16;

/// The "unbounded" entry cap (the historical behaviour and the default).
pub const UNBOUNDED: u64 = u64::MAX;

/// Key: netlist (or cone) fingerprint, then the packed block
/// ([`pack_block`]) — input lanes masked to the valid patterns, then the
/// pattern count. Masking makes blocks that differ only in garbage bits
/// of invalid lanes share one entry; the count word keeps prefix blocks
/// distinct.
type Key = (u64, Vec<u64>);

/// One independently-locked shard: the entry map plus an insert-order
/// ring over the same keys. Entries only leave through ring-ordered
/// eviction, so map and ring stay in lockstep.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<Key, Vec<u64>>,
    ring: VecDeque<Key>,
}

/// A process-wide cache of oracle block responses, safe to share across
/// workers.
#[derive(Debug)]
pub struct OracleCache {
    shards: [Mutex<Shard>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    /// Hits/misses of cone-keyed probes (a subset of `hits`/`misses`).
    cone_hits: AtomicU64,
    cone_misses: AtomicU64,
    /// Widest cone key probed so far, in 64-bit words.
    cone_key_words: AtomicU64,
    /// Entries evicted by the cap so far.
    evictions: AtomicU64,
    /// Maximum resident entries ([`UNBOUNDED`] = no cap).
    entry_cap: AtomicU64,
    /// Round-robin cursor selecting the next eviction shard.
    evict_cursor: AtomicUsize,
}

impl Default for OracleCache {
    fn default() -> Self {
        OracleCache {
            shards: Default::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cone_hits: AtomicU64::new(0),
            cone_misses: AtomicU64::new(0),
            cone_key_words: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entry_cap: AtomicU64::new(UNBOUNDED),
            evict_cursor: AtomicUsize::new(0),
        }
    }
}

impl OracleCache {
    /// An empty, unbounded cache behind an [`Arc`], ready to hand to
    /// workers.
    pub fn shared() -> Arc<OracleCache> {
        Arc::new(OracleCache::default())
    }

    /// An empty cache bounded to at most `cap` resident entries (0 is
    /// treated as [`UNBOUNDED`], matching "no cap configured").
    pub fn shared_with_cap(cap: u64) -> Arc<OracleCache> {
        let cache = OracleCache::default();
        cache
            .entry_cap
            .store(if cap == 0 { UNBOUNDED } else { cap }, Ordering::Relaxed);
        Arc::new(cache)
    }

    /// The configured entry cap ([`UNBOUNDED`] when none).
    pub fn entry_cap(&self) -> u64 {
        self.entry_cap.load(Ordering::Relaxed)
    }

    /// Entries evicted by the cap so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Cap enforcement, called after an insert: while the cache holds
    /// more than the cap, evict the **oldest entry** (insert-order ring)
    /// of a round-robin-selected shard. Per-entry eviction keeps the
    /// working set warm — a cap-1-over insert drops exactly one stale
    /// block instead of a whole shard's worth of live ones — and the
    /// just-inserted entry is its shard's newest, so it always survives.
    fn enforce_cap(&self, keep: usize) {
        let cap = self.entry_cap.load(Ordering::Relaxed);
        if cap == UNBOUNDED {
            return;
        }
        while self.entries() > cap {
            let victim = self.evict_cursor.fetch_add(1, Ordering::Relaxed) % SHARDS;
            if victim == keep {
                // Prefer evicting elsewhere so the shard just inserted
                // into keeps its whole ring; fall through only when every
                // other shard is already empty (the fresh entry is its
                // ring's newest, so even then it survives).
                let others_occupied = self
                    .shards
                    .iter()
                    .enumerate()
                    .any(|(i, s)| i != keep && !s.lock().unwrap().map.is_empty());
                if others_occupied {
                    continue;
                }
            }
            let evicted = {
                let mut shard = self.shards[victim].lock().unwrap();
                match shard.ring.pop_front() {
                    Some(key) => {
                        shard.map.remove(&key);
                        true
                    }
                    None => false,
                }
            };
            if evicted {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                gshe_obs::count("cache.evictions", 1);
            }
        }
    }

    /// Looks up `block` for the netlist identified by `fingerprint`,
    /// computing and memoizing the packed output lanes via `compute` on a
    /// miss.
    ///
    /// `compute` runs *outside* the shard lock so concurrent workers on
    /// the same shard never serialize their simulations; entries are
    /// immutable, so the rare duplicate compute under a race is harmless
    /// (first insert wins).
    pub fn get_or_insert_block(
        &self,
        fingerprint: u64,
        block: &PatternBlock,
        compute: impl FnOnce() -> Vec<u64>,
    ) -> Vec<u64> {
        self.get_or_insert_packed(fingerprint, pack_block(block), false, compute)
    }

    /// Like [`OracleCache::get_or_insert_block`] over an already-packed
    /// key — the scalar hot path packs straight from `&[bool]` so a hit
    /// allocates nothing beyond the key words. `cone` attributes the
    /// probe to the cone-keyed statistics.
    fn get_or_insert_packed(
        &self,
        fingerprint: u64,
        packed: Vec<u64>,
        cone: bool,
        compute: impl FnOnce() -> Vec<u64>,
    ) -> Vec<u64> {
        if cone {
            self.cone_key_words
                .fetch_max(packed.len() as u64, Ordering::Relaxed);
        }
        let key = (fingerprint, packed);
        let shard_index = (hash_key(&key) as usize) % SHARDS;
        let shard = &self.shards[shard_index];
        if let Some(hit) = shard.lock().unwrap().map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            gshe_obs::count("cache.hits", 1);
            if cone {
                self.cone_hits.fetch_add(1, Ordering::Relaxed);
                gshe_obs::count("cache.cone_hits", 1);
            }
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        gshe_obs::count("cache.misses", 1);
        if cone {
            self.cone_misses.fetch_add(1, Ordering::Relaxed);
            gshe_obs::count("cache.cone_misses", 1);
        }
        let value = compute();
        {
            let mut guard = shard.lock().unwrap();
            if let std::collections::hash_map::Entry::Vacant(slot) = guard.map.entry(key.clone()) {
                slot.insert(value.clone());
                guard.ring.push_back(key);
            }
        }
        self.enforce_cap(shard_index);
        value
    }

    /// (cache hits, cache misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// (hits, misses) of cone-keyed probes so far — the subset of
    /// [`OracleCache::stats`] answered through [`ConeKey`]s.
    pub fn cone_stats(&self) -> (u64, u64) {
        (
            self.cone_hits.load(Ordering::Relaxed),
            self.cone_misses.load(Ordering::Relaxed),
        )
    }

    /// Widest cone key probed so far, in 64-bit words (0 when no cone
    /// probe has happened). At a small cone this stays a handful of
    /// words even on 8k-input designs — the key-width win the cone path
    /// exists for.
    pub fn cone_key_words(&self) -> u64 {
        self.cone_key_words.load(Ordering::Relaxed)
    }

    /// Number of distinct blocks currently cached, across all shards.
    pub fn entries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len() as u64)
            .sum()
    }
}

/// Packs a block into its cache-key words: input lanes masked to the
/// valid patterns, then the pattern count (so `[p]` and `[p, q]` with a
/// shared prefix differ, and garbage bits beyond `count` never split
/// logically-identical blocks).
///
/// Single-pattern blocks — the scalar-query hot path of every DIP round
/// — use a dense form instead ([`pack_bits`]): the pattern
/// bit-packed across inputs plus the arity word (`⌈n/64⌉ + 1` words
/// rather than `n + 1`), so per-query hashing and resident-key size stay
/// at the pre-block-key level.
fn pack_block(block: &PatternBlock) -> Vec<u64> {
    if block.count == 1 {
        return pack_bits(block.lanes.iter().map(|&lane| lane & 1 == 1));
    }
    let mask = block.valid_mask();
    let mut words: Vec<u64> = block.lanes.iter().map(|&lane| lane & mask).collect();
    words.push(block.count as u64);
    words
}

/// The dense single-pattern key form shared by [`pack_block`]'s
/// `count == 1` arm and the scalar-query path: pattern bits packed across
/// inputs, then the input arity. The arity word keeps same-fingerprint
/// queries of different widths (a caller bug the oracle would panic on)
/// from ever aliasing a cached entry, and keeps the form disjoint from
/// the multi-pattern encoding (whose word count differs whenever
/// `n > 1`, and whose trailing count is `>= 2` at `n <= 1`).
fn pack_bits(bits: impl ExactSizeIterator<Item = bool>) -> Vec<u64> {
    let len = bits.len();
    let mut words = vec![0u64; len.div_ceil(64) + 1];
    for (i, bit) in bits.enumerate() {
        if bit {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    *words.last_mut().expect("non-empty") = len as u64;
    words
}

fn hash_key(key: &Key) -> u64 {
    let mut h = key.0;
    for &w in &key.1 {
        h = hash_mix(h ^ w);
    }
    h
}

/// A stable structural fingerprint of a netlist, independent of memory
/// addresses: hashes the node kinds, wiring, and output list.
pub fn netlist_fingerprint(netlist: &Netlist) -> u64 {
    let mut h = hash_mix(netlist.len() as u64);
    for node in netlist.nodes() {
        let tag = match node.kind {
            NodeKind::Input => 0x11,
            NodeKind::Const(c) => 0x20 | c as u64,
            NodeKind::Gate1 { f, a } => 0x3000 | ((f as u64) << 32) | (a.index() as u64),
            NodeKind::Gate2 { f, a, b } => {
                0x4000
                    | ((f.truth_table() as u64) << 48)
                    | ((a.index() as u64) << 24)
                    | (b.index() as u64)
            }
        };
        h = hash_mix(h ^ tag);
    }
    for out in netlist.outputs() {
        h = hash_mix(h ^ (0x5000 | out.index() as u64));
    }
    h
}

/// The cone-input key space of one `(netlist, cone)` pair: the
/// full-design input ordinals the attacked cone actually reads, plus a
/// fingerprint mixing the netlist fingerprint with that ordinal list
/// under a salt. Install on a [`CacheLayer`] **only** when every query
/// reaching it is guaranteed to carry `false` on all non-listed input
/// positions — the invariant `gshe_attacks::CoiOracle`'s scatter
/// provides — so the full output lanes are a pure function of the
/// listed lanes and keying on them alone is sound.
#[derive(Debug, Clone)]
pub struct ConeKey {
    /// Full-design input ordinals the cone reads, ascending.
    inputs: Vec<usize>,
    /// Salted mix of the netlist fingerprint and the ordinal list.
    fingerprint: u64,
}

impl ConeKey {
    /// Builds the key space for the cone reading `inputs` (full-design
    /// input ordinals) of the netlist identified by `full_fingerprint`.
    /// The salt keeps cone entries disjoint from full-key entries even
    /// for a cone that happens to read every input.
    pub fn new(full_fingerprint: u64, inputs: Vec<usize>) -> Self {
        let mut h = hash_mix(full_fingerprint ^ 0xC04E_1B17_5A17_ED01);
        h = hash_mix(h ^ inputs.len() as u64);
        for &i in &inputs {
            h = hash_mix(h ^ i as u64);
        }
        ConeKey {
            inputs,
            fingerprint: h,
        }
    }

    /// Number of cone inputs (the sub-pattern width, in bits).
    pub fn width(&self) -> usize {
        self.inputs.len()
    }
}

/// Packs the cone-input sub-pattern of `block` under `cone`'s key
/// space: the listed lanes masked to the valid patterns plus the count
/// word, or the dense [`pack_bits`] form for a single pattern — the
/// same two encodings as [`pack_block`], restricted to the cone
/// columns.
fn pack_block_cone(block: &PatternBlock, cone: &ConeKey) -> Vec<u64> {
    if block.count == 1 {
        return pack_bits(ConeBits {
            lanes: &block.lanes,
            ordinals: cone.inputs.iter(),
        });
    }
    let mask = block.valid_mask();
    let mut words: Vec<u64> = cone.inputs.iter().map(|&i| block.lanes[i] & mask).collect();
    words.push(block.count as u64);
    words
}

/// Exact-size adaptor feeding a cone's bit columns into [`pack_bits`].
struct ConeBits<'a> {
    lanes: &'a [u64],
    ordinals: std::slice::Iter<'a, usize>,
}

impl Iterator for ConeBits<'_> {
    type Item = bool;
    fn next(&mut self) -> Option<bool> {
        self.ordinals.next().map(|&i| self.lanes[i] & 1 == 1)
    }
}

impl ExactSizeIterator for ConeBits<'_> {
    fn len(&self) -> usize {
        self.ordinals.len()
    }
}

/// The caching layer: a `query_block`-first combinator answering through
/// the campaign-wide [`OracleCache`], falling through to the inner oracle
/// on a miss. Query accounting stays per-pattern and per-layer-instance
/// (the inner oracle only counts misses).
///
/// Only sound over a *deterministic, non-rotating* inner oracle — the
/// one stack composition whose answers are a pure function of the input
/// block.
#[derive(Debug, Clone)]
pub struct CacheLayer<O> {
    inner: O,
    fingerprint: u64,
    cache: Arc<OracleCache>,
    cone: Option<ConeKey>,
    count: u64,
}

impl<O: Oracle> CacheLayer<O> {
    /// Stacks the cache over `inner`, whose netlist is identified by
    /// `fingerprint` (see [`netlist_fingerprint`]).
    pub fn new(inner: O, fingerprint: u64, cache: Arc<OracleCache>) -> Self {
        CacheLayer {
            inner,
            fingerprint,
            cache,
            cone: None,
            count: 0,
        }
    }

    /// Switches this layer to cone-input keys. See [`ConeKey`] for the
    /// soundness contract the caller must uphold.
    pub fn with_cone(mut self, cone: ConeKey) -> Self {
        self.cone = Some(cone);
        self
    }
}

impl<O: Oracle> Oracle for CacheLayer<O> {
    fn query(&mut self, inputs: &[bool]) -> Vec<bool> {
        // Scalar queries share the block key space (a single pattern
        // packs to the same dense form as a 1-pattern block), but pack
        // straight from the inputs: a hit — the case the cache exists
        // for — allocates nothing beyond the key words.
        self.count += 1;
        let timed = gshe_obs::enabled().then(std::time::Instant::now);
        let inner = &mut self.inner;
        let (fingerprint, packed) = match &self.cone {
            Some(cone) => (
                cone.fingerprint,
                pack_bits(cone.inputs.iter().map(|&i| inputs[i])),
            ),
            None => (self.fingerprint, pack_bits(inputs.iter().copied())),
        };
        let lanes =
            self.cache
                .get_or_insert_packed(fingerprint, packed, self.cone.is_some(), || {
                    inner.query_block(&PatternBlock::from_patterns(&[inputs.to_vec()]))
                });
        if let Some(t0) = timed {
            gshe_obs::record("cache.query_ns", t0.elapsed().as_nanos() as u64);
        }
        lanes.iter().map(|lane| lane & 1 == 1).collect()
    }

    fn query_block(&mut self, block: &PatternBlock) -> Vec<u64> {
        self.count += block.count as u64;
        let timed = gshe_obs::enabled().then(std::time::Instant::now);
        let inner = &mut self.inner;
        let out = match &self.cone {
            Some(cone) => self.cache.get_or_insert_packed(
                cone.fingerprint,
                pack_block_cone(block, cone),
                true,
                || inner.query_block(block),
            ),
            None => self
                .cache
                .get_or_insert_block(self.fingerprint, block, || inner.query_block(block)),
        };
        if let Some(t0) = timed {
            gshe_obs::record("cache.query_block_ns", t0.elapsed().as_nanos() as u64);
        }
        out
    }

    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn queries(&self) -> u64 {
        self.count
    }
}

/// The campaign's deterministic cached oracle: the caching layer over the
/// bare exact stack sharing a campaign netlist.
pub type CachedOracle<'a> = CacheLayer<OracleStack<'a>>;

impl<'a> CachedOracle<'a> {
    /// Stacks the campaign cache over an exact base for `netlist`.
    pub fn over(netlist: &'a Netlist, cache: Arc<OracleCache>) -> Self {
        CacheLayer::new(
            OracleStack::exact(netlist),
            netlist_fingerprint(netlist),
            cache,
        )
    }

    /// Like [`CachedOracle::over`], keyed on the cone-input sub-pattern:
    /// `cone_inputs` are the full-design input ordinals of the cone the
    /// attack will run through (see
    /// [`gshe_attacks::cone_inputs`](gshe_attacks::coi::cone_inputs)).
    /// Sound only when every query arrives through the matching
    /// `CoiOracle` scatter — see [`ConeKey`].
    pub fn over_cone(
        netlist: &'a Netlist,
        cache: Arc<OracleCache>,
        cone_inputs: Vec<usize>,
    ) -> Self {
        let fingerprint = netlist_fingerprint(netlist);
        CacheLayer::new(OracleStack::exact(netlist), fingerprint, cache)
            .with_cone(ConeKey::new(fingerprint, cone_inputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gshe_logic::bench_format::{parse_bench, C17_BENCH};

    #[test]
    fn cache_hits_on_repeat_queries_across_oracles() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let pattern = [true, false, true, false, true];

        let mut a = CachedOracle::over(&nl, Arc::clone(&cache));
        let ya = a.query(&pattern);
        assert_eq!(cache.stats(), (0, 1));
        assert_eq!(cache.entries(), 1);

        // A *different* oracle instance over the same netlist hits.
        let mut b = CachedOracle::over(&nl, Arc::clone(&cache));
        let yb = b.query(&pattern);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.entries(), 1);
        assert_eq!(ya, yb);
        assert_eq!(ya, nl.evaluate(&pattern));

        // Query counting is per-oracle, unaffected by caching.
        assert_eq!(a.queries(), 1);
        assert_eq!(b.queries(), 1);
    }

    #[test]
    fn fingerprint_is_structural() {
        let c17 = parse_bench(C17_BENCH).unwrap();
        let fp_a = netlist_fingerprint(&c17);
        // Identical structure → identical fingerprint, regardless of
        // allocation identity.
        assert_eq!(netlist_fingerprint(&c17.clone()), fp_a);

        // A genuinely different circuit gets a different fingerprint.
        let tiny = parse_bench("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n").unwrap();
        assert_ne!(netlist_fingerprint(&tiny), fp_a);
    }

    #[test]
    fn block_key_ignores_garbage_bits_and_keeps_count() {
        // Two logically identical partial blocks that differ only in the
        // invalid-lane garbage must share one entry; a different count is
        // a different key.
        let a = PatternBlock {
            lanes: vec![0b01, 0b10, 0b11, 0b00, 0b01],
            count: 2,
        };
        let mut garbage = a.clone();
        for lane in &mut garbage.lanes {
            *lane |= 0xFFFF_0000;
        }
        assert_eq!(pack_block(&a), pack_block(&garbage));
        let longer = PatternBlock {
            lanes: a.lanes.clone(),
            count: 3,
        };
        assert_ne!(pack_block(&a), pack_block(&longer));

        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let mut o = CachedOracle::over(&nl, Arc::clone(&cache));
        let ya = o.query_block(&a);
        let yb = o.query_block(&garbage);
        assert_eq!(cache.stats(), (1, 1), "garbage bits must not split keys");
        assert_eq!(ya, yb);
    }

    #[test]
    fn single_pattern_keys_are_dense_and_shared_with_scalar_queries() {
        // The scalar DIP-round hot path must not pay n-word keys:
        // a single pattern packs to ⌈n/64⌉ + 1 words, and a scalar query
        // and a 1-pattern block query over the same pattern share one
        // entry (both route through the same packed form).
        let one = PatternBlock::from_patterns(&[vec![true, false, true, false, true]]);
        assert_eq!(pack_block(&one), vec![0b10101, 5]);
        // The arity word keeps different-width patterns (a caller bug)
        // from aliasing: [T] and [T, F] pack to distinct keys.
        assert_ne!(
            pack_bits([true].into_iter()),
            pack_bits([true, false].into_iter())
        );

        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let mut o = CachedOracle::over(&nl, Arc::clone(&cache));
        let y_scalar = o.query(&[true, false, true, false, true]);
        let lanes = o.query_block(&one);
        assert_eq!(cache.stats(), (1, 1), "scalar and 1-block share a key");
        for (bit, lane) in y_scalar.iter().zip(&lanes) {
            assert_eq!(*bit, lane & 1 == 1);
        }
    }

    #[test]
    fn entry_cap_evicts_coarsely_and_counts() {
        // A capped cache must never hold more entries than the cap after
        // an insert settles, must count what it dropped, and must keep
        // answering correctly (eviction costs recomputation only).
        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared_with_cap(8);
        assert_eq!(cache.entry_cap(), 8);
        let mut o = CachedOracle::over(&nl, Arc::clone(&cache));
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|k| (p >> k) & 1 == 1).collect())
            .collect();
        let answers: Vec<Vec<bool>> = patterns.iter().map(|p| o.query(p)).collect();
        assert!(
            cache.entries() <= 8,
            "cap not enforced: {} entries",
            cache.entries()
        );
        assert!(cache.evictions() > 0, "32 inserts into cap 8 must evict");
        // Evicted patterns recompute to the same answers.
        for (p, y) in patterns.iter().zip(&answers) {
            assert_eq!(o.query(p), *y);
        }
        // An unbounded cache never evicts.
        let unbounded = OracleCache::shared();
        assert_eq!(unbounded.entry_cap(), UNBOUNDED);
        let mut o = CachedOracle::over(&nl, Arc::clone(&unbounded));
        for p in &patterns {
            let _ = o.query(p);
        }
        assert_eq!(unbounded.evictions(), 0);
        assert_eq!(unbounded.entries(), 32);
        // Cap 0 means "no cap configured".
        assert_eq!(OracleCache::shared_with_cap(0).entry_cap(), UNBOUNDED);
    }

    #[test]
    fn block_queries_hit_count_and_match_simulation() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let mut o = CachedOracle::over(&nl, Arc::clone(&cache));
        let patterns: Vec<Vec<bool>> = (0..10u32)
            .map(|p| (0..5).map(|k| (p >> k) & 1 == 1).collect())
            .collect();
        let block = PatternBlock::from_patterns(&patterns);
        let lanes = o.query_block(&block);
        assert_eq!(o.queries(), 10);
        assert_eq!(cache.stats(), (0, 1), "one probe per block, not ten");
        for (k, p) in patterns.iter().enumerate() {
            let y = nl.evaluate(p);
            for (i, &bit) in y.iter().enumerate() {
                assert_eq!(bit, (lanes[i] >> k) & 1 == 1);
            }
        }
        // The identical block replayed (e.g. a deterministic cell's second
        // trial) costs one hash lookup and zero simulation.
        let again = o.query_block(&block);
        assert_eq!(again, lanes);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(o.queries(), 20);
    }

    #[test]
    fn per_entry_eviction_keeps_the_newest_insert_resident() {
        // cap 1: every new distinct block evicts the previous one, never
        // itself — the insert-order ring's recency guarantee, which the
        // old whole-shard clearing could not give.
        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared_with_cap(1);
        let mut o = CachedOracle::over(&nl, Arc::clone(&cache));
        for p in 0..8u32 {
            let pattern: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
            let first = o.query(&pattern);
            assert_eq!(cache.entries(), 1, "cap 1 after insert {p}");
            // The immediate replay must hit: the fresh entry survived.
            let (hits_before, _) = cache.stats();
            assert_eq!(o.query(&pattern), first);
            assert_eq!(
                cache.stats().0,
                hits_before + 1,
                "insert {p} evicted itself"
            );
        }
        assert_eq!(
            cache.evictions(),
            7,
            "each insert after the first evicts one"
        );
    }

    /// Two independent cones; only the first is camouflaged, so the COI
    /// projection engages with cone inputs {a, b}.
    fn split_design() -> (gshe_logic::Netlist, gshe_camo::KeyedNetlist) {
        use gshe_logic::{Bf2, NetlistBuilder};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut b = NetlistBuilder::new("split");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let e = b.input("d");
        let g1 = b.gate2("g1", Bf2::AND, a, c);
        let g2 = b.gate2("g2", Bf2::OR, d, e);
        b.output(g1);
        b.output(g2);
        let nl = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let keyed =
            gshe_camo::camouflage(&nl, &[g1], gshe_camo::CamoScheme::GsheAll16, &mut rng).unwrap();
        (nl, keyed)
    }

    #[test]
    fn cone_keyed_hits_are_byte_identical_to_full_key_and_uncached() {
        use gshe_attacks::{cone_inputs, CoiMode, CoiOracle, CoiProjection, OracleStack};

        let (nl, keyed) = split_design();
        let proj = CoiProjection::build(&keyed, CoiMode::On).expect("projection engages");
        let inputs = cone_inputs(&keyed, CoiMode::On).expect("cone inputs");
        assert_eq!(inputs.len(), 2, "only a, b feed the cloaked cone");

        // Three stacks answering the same cone-interface queries: cone-
        // keyed cache, full-key cache, and no cache at all.
        let cone_cache = OracleCache::shared();
        let full_cache = OracleCache::shared();
        let mut cone_inner = CachedOracle::over_cone(&nl, Arc::clone(&cone_cache), inputs.clone());
        let mut full_inner = CachedOracle::over(&nl, Arc::clone(&full_cache));
        let mut bare_inner = OracleStack::exact(&nl);
        let mut cone_keyed = CoiOracle::new(&mut cone_inner, &proj);
        let mut full_keyed = CoiOracle::new(&mut full_inner, &proj);
        let mut uncached = CoiOracle::new(&mut bare_inner, &proj);

        // Every cone input combination, scalar and block form.
        for p in 0..4u32 {
            let pattern: Vec<bool> = (0..2).map(|k| (p >> k) & 1 == 1).collect();
            let y = cone_keyed.query(&pattern);
            assert_eq!(y, full_keyed.query(&pattern), "scalar p={p}");
            assert_eq!(y, uncached.query(&pattern), "scalar p={p}");
        }
        let patterns: Vec<Vec<bool>> = (0..3u32)
            .map(|p| (0..2).map(|k| (p >> k) & 1 == 1).collect())
            .collect();
        let block = PatternBlock::from_patterns(&patterns);
        let lanes = cone_keyed.query_block(&block);
        assert_eq!(lanes, full_keyed.query_block(&block), "block");
        assert_eq!(lanes, uncached.query_block(&block), "block");

        // A partial block differing only in garbage bits of invalid
        // lanes must *hit* the cone-keyed entry and answer identically.
        let mut garbage = block.clone();
        for lane in &mut garbage.lanes {
            *lane |= 0xFFFF_0000;
        }
        let (hits_before, misses_before) = cone_cache.cone_stats();
        assert_eq!(cone_keyed.query_block(&garbage), lanes);
        let (hits_after, misses_after) = cone_cache.cone_stats();
        assert_eq!(
            hits_after,
            hits_before + 1,
            "garbage lanes split a cone key"
        );
        assert_eq!(misses_after, misses_before);

        // Cone keys are narrow: sub-pattern words + count, not the full
        // input width.
        assert!(cone_cache.cone_key_words() >= 1);
        assert!(cone_cache.cone_key_words() <= 3);
        let (cone_hits, cone_misses) = cone_cache.cone_stats();
        assert_eq!((cone_hits, cone_misses), cone_cache.stats());
        assert!(cone_hits > 0 && cone_misses > 0);

        // A second job over the same cone (a later trial) hits the warm
        // cache through a fresh oracle instance.
        let mut second_inner = CachedOracle::over_cone(&nl, Arc::clone(&cone_cache), inputs);
        let mut second = CoiOracle::new(&mut second_inner, &proj);
        let misses_before = cone_cache.stats().1;
        assert_eq!(second.query_block(&block), lanes);
        assert_eq!(cone_cache.stats().1, misses_before, "warm trial re-misses");
    }

    #[test]
    fn cone_and_full_keys_never_alias() {
        // Same netlist, same pattern content: the cone-keyed probe and
        // the full-key probe must live under distinct fingerprints even
        // when the cone reads every input.
        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let all_inputs: Vec<usize> = (0..5).collect();
        let mut cone = CachedOracle::over_cone(&nl, Arc::clone(&cache), all_inputs);
        let mut full = CachedOracle::over(&nl, Arc::clone(&cache));
        let pattern = [true, false, true, false, true];
        let ya = cone.query(&pattern);
        let yb = full.query(&pattern);
        assert_eq!(ya, yb, "same chip, same pattern");
        assert_eq!(cache.stats(), (0, 2), "salted fingerprints keep keys apart");
        assert_eq!(cache.entries(), 2);
    }
}
