//! Every P002 serving root must name a function that exists in this
//! workspace. The lint skips a root that matches nothing, so renaming or
//! deleting an entry point would otherwise drop its panic-reachability
//! coverage without any error.

use std::path::Path;

use mlscore_analysis::analyze_workspace_full;
use mlscore_analysis::interproc::SERVING_ROOTS;

/// Roots kept for workspaces other than this one: perfbench's generated
/// workspaces still plant a `fleet` crate entered through `run_fleet`,
/// while this workspace has no fleet tier. Each must match nothing here,
/// so re-adding the function makes this list stale and fails the test.
const EXTERNAL_ROOTS: &[&str] = &["fleet::sim::run_fleet"];

#[test]
fn every_serving_root_resolves_in_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = analyze_workspace_full(&root).expect("workspace is readable");
    for entry in SERVING_ROOTS {
        let external = EXTERNAL_ROOTS.contains(entry);
        assert_eq!(
            analysis.graph.find_suffix(entry).is_empty(),
            external,
            "serving root {entry}: resolves in the workspace iff it is not external"
        );
    }
    for entry in EXTERNAL_ROOTS {
        assert!(
            SERVING_ROOTS.contains(entry),
            "{entry} is not a serving root"
        );
    }
}
