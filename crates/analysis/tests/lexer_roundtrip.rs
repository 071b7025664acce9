//! The analyzer's load-bearing property: the lexer is lossless.
//!
//! Arbitrary concatenations of token fragments — including ones that merge
//! at the seams (`/` + `/`, digits + idents), swallow the rest of a line
//! (`//`), or never terminate (`"`, `/*`) — must render back
//! byte-identically. Losslessness is what guarantees no source region can
//! silently escape the lint scan.

use proptest::prelude::*;

use mlscore_analysis::lexer::{lex, render, TokenKind};

mod fragments;
use fragments::POOL;

proptest! {
    #[test]
    fn lexer_roundtrips_arbitrary_token_sequences(
        picks in proptest::collection::vec(0usize..POOL.len(), 0usize..64)
    ) {
        let src: String = picks.iter().map(|&i| POOL[i]).collect();
        let tokens = lex(&src);
        prop_assert_eq!(render(&tokens), src.clone());
        // Losslessness must also hold token-by-token: every byte belongs
        // to exactly one token, in order.
        let mut cursor = 0usize;
        for t in &tokens {
            prop_assert!(!t.text.is_empty(), "empty token in {src:?}");
            prop_assert_eq!(&src[cursor..cursor + t.text.len()], t.text);
            cursor += t.text.len();
        }
        prop_assert_eq!(cursor, src.len());
    }

    #[test]
    fn line_numbers_are_monotone_and_match_newlines(
        picks in proptest::collection::vec(0usize..POOL.len(), 0usize..64)
    ) {
        let src: String = picks.iter().map(|&i| POOL[i]).collect();
        let mut expected_line = 1u32;
        for t in lex(&src) {
            prop_assert_eq!(t.line, expected_line, "token {:?} in {:?}", t.text, src);
            expected_line += t.text.bytes().filter(|&b| b == b'\n').count() as u32;
        }
    }
}

#[test]
fn whole_workspace_sources_roundtrip() {
    // The strongest fixture available: every real source file this
    // analyzer will ever scan.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root");
    let files = mlscore_analysis::walk::source_files(root).expect("walk workspace");
    assert!(files.len() > 40, "expected a real workspace, got {files:?}");
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel)).expect("read source");
        let tokens = lex(&src);
        assert_eq!(render(&tokens), src, "lossless lexing of {rel}");
        assert!(
            tokens.iter().any(|t| t.kind == TokenKind::Ident),
            "{rel} lexed to no identifiers"
        );
    }
}
