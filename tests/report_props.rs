//! Robustness of the report reader on malformed input: `RunReport::from_csv`
//! and `RunReport::load_csv` never panic on arbitrary text or on arbitrary
//! bytes (non-UTF-8 included), with or without a valid header in front, nor
//! on a valid report with generated text spliced into a row's fields or
//! damaged anywhere; every parse error names a line of the input.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use cna_locks::harness::experiments::{ExperimentError, RunReport};
use proptest::prelude::*;

/// A valid report: the checked-in simulator baseline.
const VALID: &str = include_str!("../baselines/smoke-sim.csv");

/// Characters that delimit or start something in the report format, plus
/// number syntax and the letters of `closed` and `open`.
const SIGNIFICANT: [char; 22] = [
    ',', '\n', '\r', ' ', '0', '1', '9', '-', '+', '.', 'e', 'N', 'a', 'i', 'f', '"', 'c', 'l',
    'o', 's', 'd', 'p',
];

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

fn header() -> &'static str {
    VALID.lines().next().expect("the baseline has a header")
}

/// `from_csv` on `input` returns without panicking, and a parse error names
/// a line of the input (0 for the whole file).
fn assert_read_or_rejected(input: &str) {
    match RunReport::from_csv(input) {
        Ok(_) => {}
        Err(ExperimentError::Parse { line, .. }) => {
            assert!(line <= input.lines().count(), "line {line} of {input:?}")
        }
        Err(other) => panic!("expected a parse error for {input:?}, got {other:?}"),
    }
}

/// A fresh temp file per call, removed when dropped.
struct TempFile(PathBuf);

impl TempFile {
    fn with(bytes: &[u8]) -> TempFile {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "cna-report-props-{}-{}.csv",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).expect("temp file is writable");
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_text_never_panics(
        words in proptest::collection::vec(any::<u32>(), 0..200),
        headed in any::<bool>(),
    ) {
        let body = text(&words);
        let input = if headed { format!("{}\n{body}", header()) } else { body };
        assert_read_or_rejected(&input);
    }

    #[test]
    fn arbitrary_bytes_in_a_file_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        headed in any::<bool>(),
    ) {
        let mut contents = Vec::new();
        if headed {
            contents.extend_from_slice(header().as_bytes());
            contents.push(b'\n');
        }
        contents.extend_from_slice(&bytes);
        let file = TempFile::with(&contents);
        let utf8 = std::str::from_utf8(&contents).is_ok();
        match RunReport::load_csv(&file.0) {
            Err(ExperimentError::Read { .. }) => assert!(!utf8, "valid UTF-8 is read"),
            Err(ExperimentError::Parse { line, .. }) => {
                assert!(utf8, "non-UTF-8 is parsed");
                assert!(line <= contents.split(|&b| b == b'\n').count());
            }
            Ok(_) => assert!(utf8, "non-UTF-8 is parsed"),
            Err(other) => panic!("expected a read or parse error for {contents:?}, got {other:?}"),
        }
    }

    #[test]
    fn text_in_the_fields_of_a_real_row_never_panics(
        row in 1usize..VALID.lines().count(),
        field in any::<usize>(),
        words in proptest::collection::vec(any::<u32>(), 0..12),
    ) {
        // Replace one field from `mode` on (mode, rate, rep, metric, unit,
        // value and the measurements after it) with generated text.
        let columns: Vec<&str> = header().split(',').collect();
        let mode = columns.iter().position(|&c| c == "mode").expect("a mode column");
        let mut fields: Vec<String> =
            VALID.lines().nth(row).unwrap().split(',').map(String::from).collect();
        fields[mode + field % (columns.len() - mode)] = text(&words);
        assert_read_or_rejected(&format!("{}\n{}", header(), fields.join(",")));
    }

    #[test]
    fn a_damaged_report_never_panics(
        cut in 0usize..VALID.len(),
        len in 0usize..40,
        words in proptest::collection::vec(any::<u32>(), 0..8),
    ) {
        // Replace up to `len` bytes at `cut` (on char boundaries) with text.
        let mut damaged = String::from(&VALID[..cut]);
        damaged.push_str(&text(&words));
        damaged.push_str(VALID.get(cut + len..).unwrap_or(""));
        assert_read_or_rejected(&damaged);
        assert_read_or_rejected(&VALID[..cut]);
    }
}

#[test]
fn the_valid_report_parses() {
    let report = RunReport::from_csv(VALID).expect("the baseline parses");
    assert_eq!(report.samples.len(), VALID.lines().count() - 1);
}
