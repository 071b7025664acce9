//! A model bundle is untrusted bytes: the counts in its header must not
//! size any allocation beyond what the remaining bytes could encode. A
//! 23-byte bundle that claims `u32::MAX` trees of `u32::MAX` nodes must
//! fail cleanly without reserving memory for them, and a class count
//! beyond the 16-bit class-id space — which every scorer would size a
//! vote vector from — is rejected at decode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mlscore_forest::{ForestError, ModelBundle};

thread_local! {
    // Bytes requested by this thread; per-thread so parallel tests and the
    // harness do not leak into a measurement.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting every byte each thread asks for.
struct Counting;

fn count(bytes: usize) {
    // `try_with` fails only during thread teardown, when nothing is
    // measured.
    let _ = REQUESTED.try_with(|r| r.set(r.get().saturating_add(bytes)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `const`-initialized thread-local
// `Cell`, so counting neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the bytes it requested.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// The fixed 19-byte header of a classifier bundle claiming `n_trees`.
fn header(n_trees: u32) -> Vec<u8> {
    let mut raw = b"MLSB".to_vec();
    raw.extend_from_slice(&1u16.to_le_bytes()); // version
    raw.push(0); // classification
    raw.extend_from_slice(&2u32.to_le_bytes()); // n_classes
    raw.extend_from_slice(&4u32.to_le_bytes()); // n_features
    raw.extend_from_slice(&n_trees.to_le_bytes());
    raw
}

const MIB: usize = 1 << 20;

#[test]
fn huge_counts_in_a_tiny_bundle_allocate_nothing_large() {
    let mut raw = header(u32::MAX);
    raw.extend_from_slice(&u32::MAX.to_le_bytes()); // first tree's n_nodes
    assert_eq!(raw.len(), 23);
    let bundle = ModelBundle::from_bytes(raw);
    let (result, requested) = requested_by(|| bundle.deserialize());
    assert_eq!(
        result.unwrap_err(),
        ForestError::Corrupt("truncated at node tag".into())
    );
    assert!(
        requested < MIB,
        "decoding a 23-byte bundle requested {requested} bytes"
    );
}

#[test]
fn huge_tree_count_with_no_trees_allocates_nothing_large() {
    let bundle = ModelBundle::from_bytes(header(u32::MAX));
    let (result, requested) = requested_by(|| bundle.deserialize());
    assert_eq!(
        result.unwrap_err(),
        ForestError::Corrupt("truncated at n_nodes".into())
    );
    assert!(
        requested < MIB,
        "decoding a 19-byte bundle requested {requested} bytes"
    );
}

#[test]
fn class_count_beyond_16_bits_is_corrupt() {
    // One tree holding one leaf of class 1, in a model claiming
    // `u32::MAX` classes: scoring it would request a 16 GiB vote vector.
    let raw = vec![
        77, 76, 83, 66, 1, 0, 0, 255, 255, 255, 255, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0,
        0, 0,
    ];
    assert_eq!(raw.len(), 28);
    let (result, requested) = requested_by(|| ModelBundle::from_bytes(raw).deserialize());
    assert!(matches!(result, Err(ForestError::Corrupt(_))), "{result:?}");
    assert!(
        requested < MIB,
        "decoding a 28-byte bundle requested {requested} bytes"
    );
    // The largest accepted count is the 16-bit id space itself.
    for (n_classes, ok) in [(1u32 << 16, true), ((1 << 16) + 1, false), (0, false)] {
        let mut raw = header(1);
        raw[7..11].copy_from_slice(&n_classes.to_le_bytes());
        raw.extend_from_slice(&[1, 0, 0, 0, 1, 1, 0, 0, 0]); // one leaf, class 1
        let result = ModelBundle::from_bytes(raw).deserialize();
        assert_eq!(result.is_ok(), ok, "{n_classes} classes: {result:?}");
    }
}
