//! `cli::run`'s exit codes, which are the CI gate: 1 on any active
//! finding (with or without `--json`), 0 once an inline `allow` with a
//! reason waives it, and 2 on a usage or I/O error. Each case runs on a
//! one-file workspace whose one finding is a P001 in `serve`.

use std::fs;
use std::path::{Path, PathBuf};

use mlscore_analysis::cli::run;

const UNWAIVED: &str = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";

const WAIVED: &str = "// analyze: allow(P001, reason=\"fixture\")\n\
                      pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";

/// Writes `crates/serve/src/lib.rs` holding `lib` into a fresh workspace.
fn workspace(name: &str, lib: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/serve/src");
    fs::create_dir_all(&src).expect("create fixture dir");
    fs::write(src.join("lib.rs"), lib).expect("write fixture file");
    root
}

/// Runs the CLI on `root` with `flags` after `--root`.
fn analyze(root: &Path, flags: &[&str]) -> i32 {
    let mut args = vec!["--root".to_string(), root.display().to_string()];
    args.extend(flags.iter().map(|f| f.to_string()));
    run(&args)
}

#[test]
fn an_active_finding_exits_1() {
    let root = workspace("cli-unwaived", UNWAIVED);
    assert_eq!(analyze(&root, &[]), 1);
    assert_eq!(analyze(&root, &["--json"]), 1);
    fs::remove_dir_all(&root).expect("remove fixture workspace");
}

#[test]
fn a_waived_finding_exits_0() {
    let root = workspace("cli-waived", WAIVED);
    assert_eq!(analyze(&root, &[]), 0);
    assert_eq!(analyze(&root, &["--json"]), 0);
    fs::remove_dir_all(&root).expect("remove fixture workspace");
}

#[test]
fn usage_and_io_errors_exit_2() {
    let root = workspace("cli-usage", WAIVED);
    for flags in [
        &["--check-baseline"][..],
        &["--write-baseline"],
        &["--baseline", "x"],
        &["--dot"],
    ] {
        assert_eq!(analyze(&root, flags), 2, "{flags:?}");
    }
    // A root without `crates/` is not a workspace.
    assert_eq!(analyze(&root.join("crates"), &[]), 2);
    fs::remove_dir_all(&root).expect("remove fixture workspace");
}
