//! Deterministic workspace traversal: which files the analyzer scans.
//!
//! Scope is every `crates/*/src/**/*.rs` (library and bin sources),
//! excluding `tests/`, `benches/`, and `examples/` directories and the
//! vendored dependency stand-ins under `vendor/` — integration tests and
//! vendor stubs are not request-path code. Symlinked directories are not
//! followed, so a link back up the tree cannot make the walk read a file
//! twice. Paths come back sorted and workspace-relative so reports and
//! exports are byte-stable.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Collects the workspace-relative paths of every source file to analyze.
///
/// # Errors
///
/// Propagates I/O failures; a missing `crates/` directory is an error (it
/// means `root` is not the workspace root).
pub fn source_files(root: &Path) -> io::Result<Vec<String>> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} has no crates/ directory (not a workspace root?)",
                root.display()
            ),
        ));
    }
    let mut crate_dirs: Vec<PathBuf> = entries(&crates_dir)?
        .into_iter()
        .filter_map(|(path, is_dir)| is_dir.then_some(path))
        .collect();
    crate_dirs.sort();

    let mut files = Vec::new();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if fs::symlink_metadata(&src).is_ok_and(|m| m.is_dir()) {
            collect_rs(&src, &mut files)?;
        }
    }

    let mut rel: Vec<String> = files
        .into_iter()
        .filter_map(|p| {
            p.strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace('\\', "/"))
        })
        .collect();
    rel.sort();
    Ok(rel)
}

/// The entries of `dir` as `(path, is_dir)`. `is_dir` comes from the
/// entry's own file type, which does not follow links: a symlink to a
/// directory is not a directory here.
fn entries(dir: &Path) -> io::Result<Vec<(PathBuf, bool)>> {
    fs::read_dir(dir)?
        .map(|e| {
            let e = e?;
            Ok((e.path(), e.file_type()?.is_dir()))
        })
        .collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries = entries(dir)?;
    entries.sort();
    for (path, is_dir) in entries {
        if is_dir {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walking_a_non_workspace_dir_is_an_error() {
        let err = source_files(Path::new("/definitely/not/a/workspace")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[cfg(unix)]
    #[test]
    fn a_symlinked_directory_is_not_followed() {
        let root = std::env::temp_dir().join(format!("mlscore-walk-{}", std::process::id()));
        let src = root.join("crates/a/src");
        fs::create_dir_all(&src).unwrap();
        fs::write(src.join("lib.rs"), "fn f() {}\n").unwrap();
        // `crates/a/src/up -> ..`: following it would loop until `ELOOP`.
        std::os::unix::fs::symlink("..", src.join("up")).unwrap();
        let files = source_files(&root);
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(files.unwrap(), ["crates/a/src/lib.rs"]);
    }
}
