//! The analyzer keeps per-file facts as slices and indices into what it
//! already holds, and builds text only for what a finding reports. These
//! tests pin that by counting heap allocations: a well-formed `allow`
//! directive owns nothing, and a hazard site owns no text, so adding more
//! of either may only grow a few vectors.
//!
//! Counts are exact and repeat from run to run (the work measured runs on
//! the calling thread), so nothing here depends on timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mlscore_analysis::graph::CallGraph;
use mlscore_analysis::parser::{parse_items, Item};
use mlscore_analysis::scan::FileScan;

thread_local! {
    // Allocations and reallocations made by this thread; per-thread so
    // parallel tests and the harness do not leak into a measurement.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation each
/// thread makes.
struct Counting;

fn count() {
    // `try_with` fails only during thread teardown, when nothing is
    // measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `const`-initialized thread-local
// `Cell`, so counting neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `n` well-formed `allow` directives, each over a line of its own.
fn waived(n: usize) -> String {
    (0..n)
        .map(|i| format!("// analyze: allow(D001, reason=\"waiver {i}\")\nlet t{i} = 0;\n"))
        .collect()
}

#[test]
fn allow_directives_allocate_nothing_of_their_own() {
    let (few, many) = (waived(10), waived(1_000));
    let (scan, few_allocs) = allocations_of(|| FileScan::of(&few));
    assert_eq!(scan.suppressions.len(), 10);
    let (scan, many_allocs) = allocations_of(|| FileScan::of(&many));
    assert_eq!(scan.suppressions.len(), 1_000);
    assert_eq!(scan.suppression_reason("D001", 2_000), Some("waiver 999"));
    // 990 more directives: only vector growth may differ.
    assert!(
        many_allocs < few_allocs + 40,
        "{few_allocs} allocations for 10 directives, {many_allocs} for 1,000"
    );
}

/// 100 fns with `hazards` `vec!` sites each, in one file.
fn hazardous(hazards: usize) -> String {
    let body = "vec![x]; ".repeat(hazards);
    (0..100)
        .map(|i| format!("pub fn f{i}(x: Option<u32>) {{ {body}}}\n"))
        .collect()
}

/// Allocations `CallGraph::build` makes over one scanned, parsed file, and
/// the hazards per fn it found.
fn graph_allocations(source: &str) -> (usize, usize) {
    let scan = FileScan::of(source);
    let items: Vec<Item> = parse_items(&scan);
    let files = [(
        "crates/exec/src/lib.rs".to_string(),
        &scan,
        items.as_slice(),
    )];
    let (graph, allocs) = allocations_of(|| CallGraph::build(&files));
    assert_eq!(graph.fns.len(), 100);
    (allocs, graph.fns[0].hazards.len())
}

#[test]
fn hazards_own_no_text() {
    let (one, one_hazard) = graph_allocations(&hazardous(1));
    let (nine, nine_hazards) = graph_allocations(&hazardous(9));
    assert_eq!((one_hazard, nine_hazards), (1, 9));
    // Eight more hazards per fn: only each fn's hazard vector may grow.
    assert!(
        nine <= one + 3 * 100,
        "{one} allocations for 1 hazard per fn, {nine} for 9"
    );
}
