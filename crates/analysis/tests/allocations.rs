//! The analyzer keeps per-file facts as slices and indices into what it
//! already holds, and builds text only for what a finding reports. These
//! tests pin that by counting heap allocations: a well-formed `allow`
//! directive owns nothing, a hazard site and an item name own no text, a
//! fn's call sites and edges are each one list of its exact size, and a
//! call chain is written straight into its message, so adding more of
//! any of them may only grow a few vectors.
//!
//! Counts are exact and repeat from run to run where the work measured
//! runs on the calling thread, so nothing here depends on timing. The
//! interprocedural lints run on every core the host offers; their test
//! counts every thread, holds [`SERIAL`] so no other test of this file
//! runs meanwhile, and keeps the least of a few runs, so what the test
//! harness itself allocates now and then does not count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use mlscore_analysis::graph::CallGraph;
use mlscore_analysis::interproc::{run_interproc, FileUnit};
use mlscore_analysis::parser::{parse_items, Item};
use mlscore_analysis::scan::FileScan;

thread_local! {
    // Allocations and reallocations made by this thread; per-thread so
    // parallel tests and the harness do not leak into a measurement.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Allocations and reallocations made by every thread.
static ALL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Held by every test of this file, so that while one counts every
/// thread's allocations no other runs.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock poisoned it; the lock
    // guards no data, so the next test may take it all the same.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The system allocator, counting every allocation and reallocation each
/// thread makes, and all of them together.
struct Counting;

fn count() {
    ALL_THREADS.fetch_add(1, Ordering::Relaxed);
    // `try_with` fails only during thread teardown, when nothing is
    // measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are an atomic and a
// `const`-initialized thread-local `Cell`, so counting neither allocates
// nor re-enters the allocator.
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

/// Runs `f` and returns its result with the allocations every thread made
/// meanwhile; the caller holds [`SERIAL`].
fn all_thread_allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALL_THREADS.load(Ordering::SeqCst);
    let out = f();
    (out, ALL_THREADS.load(Ordering::SeqCst) - before)
}

/// `n` well-formed `allow` directives, each over a line of its own.
fn waived(n: usize) -> String {
    (0..n)
        .map(|i| format!("// analyze: allow(D001, reason=\"waiver {i}\")\nlet t{i} = 0;\n"))
        .collect()
}

#[test]
fn allow_directives_allocate_nothing_of_their_own() {
    let _serial = serial();
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

/// The graph `CallGraph::build` makes over one scanned, parsed file of
/// 100 fns (few enough to resolve in one task, on the calling thread), and
/// the allocations it took.
fn graph_allocations(source: &str) -> (CallGraph, usize) {
    let scan = FileScan::of(source);
    let items: Vec<Item> = parse_items(&scan);
    let files = [(
        "crates/exec/src/lib.rs".to_string(),
        &scan,
        items.as_slice(),
    )];
    let (graph, allocs) = allocations_of(|| CallGraph::build(&files));
    assert_eq!(graph.fns.len(), 100);
    (graph, allocs)
}

#[test]
fn hazards_own_no_text() {
    let _serial = serial();
    let (one_graph, one) = graph_allocations(&hazardous(1));
    let (nine_graph, nine) = graph_allocations(&hazardous(9));
    let hazards = |g: &CallGraph| g.hazards_of(0).len();
    assert_eq!((hazards(&one_graph), hazards(&nine_graph)), (1, 9));
    // Eight more hazards per fn: only each fn's hazard vector may grow.
    assert!(
        nine <= one + 3 * 100,
        "{one} allocations for 1 hazard per fn, {nine} for 9"
    );
}

#[test]
fn item_names_are_borrowed_from_the_source() {
    let _serial = serial();
    let source: String = (0..1_000)
        .map(|i| format!("pub fn f{i}(x: u32) -> u32 {{ x }}\n"))
        .collect();
    let scan = FileScan::of(&source);
    let (items, allocs) = allocations_of(|| parse_items(&scan));
    assert_eq!(items.len(), 1_000);
    // The growth of one list of items, and the list handed out: no
    // allocation per name.
    assert!(allocs < 40, "{allocs} allocations to parse 1,000 fns");
}

/// 100 fns in a ring, each calling the `calls` fns after it.
fn calling(calls: usize) -> String {
    (0..100)
        .map(|i| {
            let body: String = (1..=calls)
                .map(|k| format!("f{}(); ", (i + k) % 100))
                .collect();
            format!("pub fn f{i}() {{ {body}}}\n")
        })
        .collect()
}

#[test]
fn call_sites_and_edges_are_one_list_per_fn() {
    let _serial = serial();
    let (two_graph, two) = graph_allocations(&calling(2));
    let (twenty_graph, twenty) = graph_allocations(&calling(20));
    let edges = |g: &CallGraph| (g.calls_of(0).len(), g.edges[0].len());
    assert_eq!(
        (edges(&two_graph), edges(&twenty_graph)),
        ((2, 2), (20, 20))
    );
    // Eighteen more calls and edges per fn: only the scratch buffer the
    // edges are gathered in may grow.
    assert!(
        twenty <= two + 10,
        "{two} allocations for 2 calls per fn, {twenty} for 20"
    );
}

/// The qualified names of a serving entry point and the chain of `depth`
/// fns it calls down, the last of which panics, and its source.
fn panic_chain(depth: usize) -> (Vec<String>, String) {
    let mut names = vec!["serve::engine::ServeEngine::run".to_string()];
    let mut source = "impl ServeEngine {\n    pub fn run(&self) { link_1(); }\n}\n".to_string();
    for k in 1..depth {
        names.push(format!("serve::engine::link_{k}"));
        source.push_str(&format!("fn link_{k}() {{ link_{}(); }}\n", k + 1));
    }
    names.push(format!("serve::engine::link_{depth}"));
    source.push_str(&format!(
        "fn link_{depth}(x: Option<u32>) -> u32 {{ x.unwrap() }}\n"
    ));
    (names, source)
}

/// The P002 messages over [`panic_chain`]`(depth)`, checked against a
/// plain render of the chain, and the least allocations the
/// interprocedural lints took over three runs.
fn p002_allocations(depth: usize) -> usize {
    let (names, source) = panic_chain(depth);
    let units = [FileUnit {
        path: "crates/serve/src/engine.rs".to_string(),
        scan: FileScan::of(&source),
    }];
    let items = parse_items(&units[0].scan);
    let graph = CallGraph::build(&[(units[0].path.clone(), &units[0].scan, items.as_slice())]);
    let want = format!(
        "`.unwrap()` reachable from a serving entry point: {} (panic-free serving \
         requires the whole chain to surface errors)",
        names.join(" -> ")
    );
    (0..3)
        .map(|_| {
            let ((active, _), allocs) = all_thread_allocations_of(|| run_interproc(&units, &graph));
            let messages: Vec<&str> = (active.iter())
                .filter(|f| f.lint == "P002")
                .map(|f| f.message.as_str())
                .collect();
            assert_eq!(messages, [want.as_str()], "depth {depth}");
            allocs
        })
        .min()
        .unwrap_or(0)
}

#[test]
fn a_call_chain_costs_its_finding_not_its_links() {
    let _serial = serial();
    let shallow = p002_allocations(50);
    // 5,000 links deep: written by a loop, not a recursion, the chain
    // cannot overflow the stack either.
    let deep = p002_allocations(5_000);
    assert!(
        deep <= shallow + 32,
        "{shallow} allocations over a 50-deep chain, {deep} over a 5,000-deep one"
    );
}
