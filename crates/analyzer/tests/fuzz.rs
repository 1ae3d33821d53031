//! Fuzz-shaped totality tests: the lexer, scope parser, and full engine
//! pipeline must never panic and always terminate on arbitrary byte
//! streams. The analyzer runs over every file in the repo on every CI
//! round — a panic on weird-but-valid (or plain invalid) source would take
//! the whole gate down.

use knots_analyzer::engine::check_source;
use knots_analyzer::lexer::lex;
use knots_analyzer::parser::parse;
use proptest::prelude::*;

/// Run the whole pipeline the way `check_root` would.
fn full_pipeline(src: &str) {
    let lexed = lex(src);
    let tree = parse(&lexed.toks);
    for b in &tree.blocks {
        assert!(b.open < b.close || b.close == lexed.toks.len());
    }
    // Both a decision-crate library path (all rules bind) and a harness
    // path (classification differs) must be total.
    let _ = check_source("crates/sim/src/fuzz.rs", src);
    let _ = check_source("crates/bench/src/bin/fuzz.rs", src);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        // Arbitrary bytes through lossy UTF-8: covers invalid sequences,
        // control characters, and random punctuation soup.
        let src = String::from_utf8_lossy(&bytes).into_owned();
        full_pipeline(&src);
    }

    #[test]
    fn rust_shaped_token_soup_never_panics(
        picks in proptest::collection::vec(0usize..24, 0..96),
    ) {
        // Random sentences over the analyzer's own trigger vocabulary —
        // far denser in rule-relevant shapes than raw bytes.
        const WORDS: [&str; 24] = [
            "fn", "let", "mut", "unsafe", "static", "on_tick", "{", "}", "(", ")", ";", "=",
            ".", "tick", "/", "div_ceil", "inc", "r#\"", "\"#", "//", "/*", "*/",
            "SAFETY:", "r##\"x\"##",
        ];
        let mut src = String::new();
        for p in picks {
            src.push_str(WORDS[p]);
            src.push(' ');
        }
        full_pipeline(&src);
    }
}

#[test]
fn unterminated_and_nested_raw_strings_are_total() {
    // Hand-picked nasties: unterminated raw strings, mismatched hash
    // counts, raw strings containing quote-hash runs, unclosed comments,
    // unbalanced braces around handler-shaped code.
    let cases = [
        "r\"unterminated",
        "r#\"unterminated",
        "r##\"still open\"#",
        "r##\"nested \"# quote\"##",
        "let s = r#\"fn on_tick() { t / tick }\"#;",
        "/* unclosed block /* nested",
        "fn on_tick() { let n = t / tick;",
        "}}}}{{{{",
        "fn handle_x() { t.div_ceil(",
        "// SAFETY:",
        "unsafe { // SAFETY: x",
        "b\"bytes\" b'x' 'c' '\\'' r#x",
        "\u{0}\u{1}\u{7f}fn f(){}",
    ];
    for src in cases {
        full_pipeline(src);
    }
}
