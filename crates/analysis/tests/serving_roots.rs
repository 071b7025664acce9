//! Every P002 serving root must name a function that exists in this
//! workspace. The lint skips a root that matches nothing, so renaming or
//! deleting an entry point would otherwise drop its panic-reachability
//! coverage without any error.

use std::path::Path;

use mlscore_analysis::analyze_workspace_full;
use mlscore_analysis::interproc::SERVING_ROOTS;

#[test]
fn every_serving_root_resolves_in_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = analyze_workspace_full(&root).expect("workspace is readable");
    for entry in SERVING_ROOTS {
        assert!(
            !analysis.graph.find_suffix(entry).is_empty(),
            "serving root {entry} matches no function in the workspace"
        );
    }
}
