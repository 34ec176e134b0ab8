//! Pins the oracle stack's steady-state allocation behaviour: after
//! warm-up, a block query performs exactly **one** heap allocation — the
//! returned lane vector — on both the static and the rotating path. The
//! per-epoch segment buffers and the evaluation scratch are hoisted onto
//! the stack, so they must not re-allocate per call (the regression this
//! test pins: the rotating path once collected a fresh `Vec` per epoch
//! segment).

use gshe_attacks::{NetlistOracle, Oracle, OracleStack};
use gshe_camo::{camouflage, select_gates, CamoScheme};
use gshe_logic::bench_format::{parse_bench, C17_BENCH};
use gshe_logic::PatternBlock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation (and growing reallocation) the *current
/// thread* makes through the global allocator while counting is on. Per
/// thread, so the test harness and tests running in parallel cannot add
/// to a measurement; `const` initialisers, so reaching the counters never
/// allocates.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown find no counter.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocs_during(f: impl FnOnce()) -> usize {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(|n| n.get())
}

#[test]
fn static_block_query_allocates_only_the_return_vector() {
    let nl = parse_bench(C17_BENCH).unwrap();
    let mut oracle = NetlistOracle::new(&nl);
    let mut rng = StdRng::seed_from_u64(1);
    let blocks: Vec<PatternBlock> = (0..12).map(|_| PatternBlock::random(5, &mut rng)).collect();

    // Warm-up: sizes the hoisted evaluation scratch.
    for block in &blocks[..2] {
        let _ = oracle.query_block(block);
    }

    let rounds = 10;
    let n = allocs_during(|| {
        for block in &blocks[2..] {
            let lanes = oracle.query_block(block);
            assert_eq!(lanes.len(), 2);
        }
    });
    assert_eq!(
        n, rounds,
        "static query_block must allocate exactly the returned lane vector"
    );
}

#[test]
fn rotating_block_query_allocates_only_the_return_vector() {
    let nl = parse_bench(C17_BENCH).unwrap();
    let picks = select_gates(&nl, 1.0, 3);
    let mut camo_rng = StdRng::seed_from_u64(0);
    let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut camo_rng).unwrap();

    // Period 7 splits every 64-pattern block into ten epoch segments —
    // but no key rotation fires inside the measured window if we measure
    // between boundaries. Rotations themselves legitimately allocate (a
    // fresh resolved netlist), so pick a period larger than the measured
    // query volume after warm-up.
    let mut stack = OracleStack::rotating(&keyed, 100_000, 4);
    let mut rng = StdRng::seed_from_u64(2);
    let blocks: Vec<PatternBlock> = (0..12).map(|_| PatternBlock::random(5, &mut rng)).collect();
    for block in &blocks[..2] {
        let _ = stack.query_block(block);
    }

    let rounds = 10;
    let n = allocs_during(|| {
        for block in &blocks[2..] {
            let lanes = stack.query_block(block);
            assert_eq!(lanes.len(), 2);
        }
    });
    assert_eq!(
        n, rounds,
        "rotating query_block must reuse the hoisted segment buffer"
    );
}

#[test]
fn scalar_queries_allocate_only_the_return_vector() {
    let nl = parse_bench(C17_BENCH).unwrap();
    let mut oracle = NetlistOracle::new(&nl);
    let inputs = [true, false, true, false, true];
    for _ in 0..2 {
        let _ = oracle.query(&inputs);
    }
    let rounds = 10;
    let n = allocs_during(|| {
        for _ in 0..rounds {
            let y = oracle.query(&inputs);
            assert_eq!(y.len(), 2);
        }
    });
    assert_eq!(
        n, rounds,
        "scalar query must allocate exactly the returned output vector"
    );
}
