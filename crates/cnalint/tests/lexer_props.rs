//! Robustness of the lexer on arbitrary input: `lex` returns on every string,
//! including every unterminated literal and comment form, and the lines it
//! reports are in order and inside the input.

use cnalint::lexer::lex;
use proptest::prelude::*;

/// Characters that open, close or escape something in Rust's surface syntax.
/// Three generated characters in four come from here, so most cases change
/// lexer state several times.
const SIGNIFICANT: [char; 16] = [
    '"', '\'', '\\', '/', '*', '#', 'r', 'b', '\n', '\r', ' ', 'a', '_', '0', '{', 'é',
];

/// The unterminated forms, each appended to a generated prefix.
const UNTERMINATED: [&str; 6] = ["r#\"", "br##\"", "'\\", "b'", "/*", "\\"];

/// Decodes generated words into text: mostly [`SIGNIFICANT`] characters,
/// otherwise any Unicode scalar value.
fn text(words: &[u32]) -> String {
    words
        .iter()
        .map(|&w| match w % 4 {
            0 => char::from_u32(w >> 2).unwrap_or('\u{FFFD}'),
            _ => SIGNIFICANT[(w >> 2) as usize % SIGNIFICANT.len()],
        })
        .collect()
}

fn assert_lines_in_order(src: &str) {
    let lexed = lex(src);
    let last = src.lines().count() as u32 + 1;
    let mut prev = 1;
    for tok in &lexed.toks {
        assert!(tok.line >= prev, "token lines go backwards in {src:?}");
        assert!(tok.line <= last, "token past the last line of {src:?}");
        prev = tok.line;
    }
    for comment in &lexed.comments {
        assert!(
            (1..=last).contains(&comment.line),
            "comment off the input in {src:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn lex_returns_with_ordered_lines_on_any_input(
        words in proptest::collection::vec(any::<u32>(), 0..48),
        tail in 0usize..UNTERMINATED.len() + 1,
    ) {
        let mut src = text(&words);
        if let Some(form) = UNTERMINATED.get(tail) {
            src.push_str(form);
        }
        assert_lines_in_order(&src);
    }
}

#[test]
fn every_unterminated_form_alone_and_after_a_newline() {
    for form in UNTERMINATED {
        assert_lines_in_order(form);
        assert_lines_in_order(&format!("fn f() {{}}\n{form}"));
        assert_lines_in_order(&format!("{form}\nlet x = 1;\n"));
    }
}
