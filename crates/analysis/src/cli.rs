//! The `analyze` command-line front end, shared by the standalone
//! `mlscore-analyze` binary and the `repro analyze` subcommand. Its exit
//! code is the CI gate: 1 on any active finding. An inline `allow` with a
//! reason is the only way to waive one.

use std::fs;
use std::path::PathBuf;

use mlscore_telemetry::json::{write_escaped, write_uint};

use crate::graph::CallGraph;
use crate::{analyze_workspace_full, Finding, LINTS};

const USAGE: &str = "\
usage: analyze [options]

Runs the mlscore workspace lints (see DESIGN.md \u{a7}10, \u{a7}15) over crates/*/src.

options:
  --json               emit machine-readable JSON instead of human diagnostics
  --callgraph <file>   write the workspace call graph as deterministic JSON
  --dot <file>         write the workspace call graph in Graphviz dot format
  --root <dir>         workspace root (default: current directory)
  --list-lints         print the lint catalog and exit
  -h, --help           this text

exit codes: 0 clean, 1 active findings, 2 usage/io error";

struct Options {
    json: bool,
    callgraph: Option<PathBuf>,
    dot: Option<PathBuf>,
    root: PathBuf,
}

/// Runs the analyzer CLI; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut opts = Options {
        json: false,
        callgraph: None,
        dot: None,
        root: PathBuf::from("."),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--callgraph" => match it.next() {
                Some(path) => opts.callgraph = Some(PathBuf::from(path)),
                None => return usage_error("--callgraph needs a path"),
            },
            "--dot" => match it.next() {
                Some(path) => opts.dot = Some(PathBuf::from(path)),
                None => return usage_error("--dot needs a path"),
            },
            "--root" => match it.next() {
                Some(path) => opts.root = PathBuf::from(path),
                None => return usage_error("--root needs a directory"),
            },
            "--list-lints" => {
                for lint in LINTS {
                    println!("{}  {}", lint.code, lint.summary);
                }
                return 0;
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return 0;
            }
            other => return usage_error(&format!("unknown option `{other}`")),
        }
    }

    let analysis = match analyze_workspace_full(&opts.root) {
        Ok(analysis) => analysis,
        Err(e) => {
            eprintln!("analyze: {e}");
            return 2;
        }
    };
    let findings = &analysis.findings;

    // Each export is rendered only when its path was given.
    let exports = [
        (
            &opts.callgraph,
            "call graph",
            CallGraph::to_json as fn(&CallGraph) -> String,
        ),
        (&opts.dot, "dot export", CallGraph::to_dot),
    ];
    for (path, what, render) in exports {
        if let Some(path) = path {
            if let Err(e) = fs::write(path, render(&analysis.graph)) {
                eprintln!("analyze: writing {} to {}: {e}", what, path.display());
                return 2;
            }
        }
    }

    if opts.json {
        println!("{}", render_json(findings, &analysis.suppressed));
    } else {
        for f in findings {
            println!("{f}");
        }
    }

    if findings.is_empty() {
        if !opts.json {
            println!("analyze: clean (0 findings)");
        }
        0
    } else {
        if !opts.json {
            println!("analyze: {} finding(s)", findings.len());
        }
        1
    }
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("analyze: {msg}");
    eprintln!("{USAGE}");
    2
}

fn render_finding(out: &mut String, f: &Finding) {
    out.push_str("    { \"lint\": ");
    write_escaped(out, &f.lint);
    out.push_str(", \"file\": ");
    write_escaped(out, &f.file);
    out.push_str(", \"line\": ");
    write_uint(out, u64::from(f.line));
    out.push_str(", \"offset\": ");
    write_uint(out, f.offset as u64);
    out.push_str(", \"message\": ");
    write_escaped(out, &f.message);
    if let Some(reason) = &f.suppressed {
        out.push_str(", \"suppressed\": ");
        write_escaped(out, reason);
    }
    out.push_str(" }");
}

/// Renders findings as a stable JSON document. Every finding carries its
/// `file:line` span *and* byte offset; suppressed findings appear in a
/// separate array, each with the `allow` directive's reason under
/// `suppressed`.
pub fn render_json(findings: &[Finding], suppressed: &[Finding]) -> String {
    // One reservation: each row's fixed text, its strings and up to 20
    // digits per number (a string that needs escapes may still grow it).
    let rows: usize = (findings.iter().chain(suppressed))
        .map(|f| {
            let reason = f.suppressed.as_ref().map_or(0, |r| r.len() + 20);
            f.lint.len() + f.file.len() + f.message.len() + reason + 120
        })
        .sum();
    let mut out = String::with_capacity(96 + rows);
    out.push_str("{\n  \"version\": 2,\n  \"total\": ");
    write_uint(&mut out, findings.len() as u64);
    out.push_str(",\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        render_finding(&mut out, f);
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"suppressed\": [");
    for (i, f) in suppressed.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        render_finding(&mut out, f);
    }
    if !suppressed.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_telemetry::json;

    #[test]
    fn json_rendering_is_parseable_and_carries_spans() {
        let findings = vec![Finding {
            lint: "D001".to_string(),
            file: "crates/a/src/x.rs".to_string(),
            line: 7,
            offset: 42,
            message: "wall-clock \"read\"".to_string(),
            suppressed: None,
        }];
        let doc = json::parse(&render_json(&findings, &[])).unwrap();
        assert_eq!(
            doc.get("total").and_then(json::JsonValue::as_f64),
            Some(1.0)
        );
        let item = &doc
            .get("findings")
            .and_then(json::JsonValue::as_array)
            .unwrap()[0];
        assert_eq!(
            item.get("lint").and_then(json::JsonValue::as_str),
            Some("D001")
        );
        assert_eq!(
            item.get("line").and_then(json::JsonValue::as_f64),
            Some(7.0)
        );
        assert_eq!(
            item.get("offset").and_then(json::JsonValue::as_f64),
            Some(42.0)
        );
        assert_eq!(
            item.get("message").and_then(json::JsonValue::as_str),
            Some("wall-clock \"read\"")
        );
        // Active findings carry no `suppressed` key.
        assert!(item.get("suppressed").is_none());
    }

    #[test]
    fn suppressed_findings_carry_their_reason() {
        let suppressed = vec![Finding {
            lint: "P001".to_string(),
            file: "crates/serve/src/x.rs".to_string(),
            line: 3,
            offset: 99,
            message: "unwrap".to_string(),
            suppressed: Some("invariant: built in new()".to_string()),
        }];
        let doc = json::parse(&render_json(&[], &suppressed)).unwrap();
        let item = &doc
            .get("suppressed")
            .and_then(json::JsonValue::as_array)
            .unwrap()[0];
        assert_eq!(
            item.get("suppressed").and_then(json::JsonValue::as_str),
            Some("invariant: built in new()")
        );
        assert_eq!(
            item.get("offset").and_then(json::JsonValue::as_f64),
            Some(99.0)
        );
    }

    #[test]
    fn empty_findings_render_empty_arrays() {
        let doc = json::parse(&render_json(&[], &[])).unwrap();
        assert_eq!(
            doc.get("total").and_then(json::JsonValue::as_f64),
            Some(0.0)
        );
        assert_eq!(
            doc.get("findings").and_then(json::JsonValue::as_array),
            Some(&[][..])
        );
        assert_eq!(
            doc.get("suppressed").and_then(json::JsonValue::as_array),
            Some(&[][..])
        );
    }
}
