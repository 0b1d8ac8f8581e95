//! Regenerates the paper's figures: every row of the figure table
//! (`bench::figures`) at the current `SCALE`, or those whose id contains
//! one of the arguments (`cargo bench -p bench --bench figures -- fig06`).
//! Each prints its tables, writes its reports under `target/experiments/`
//! and checks the shape the paper reports; any failed check exits 1.

use bench::figures::figures;
use harness::Scale;

fn main() {
    // Cargo passes `--bench`; every other argument is an id filter.
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|arg| !arg.starts_with('-'))
        .collect();
    let figures = figures(Scale::from_env());
    if let Some(unknown) = filters
        .iter()
        .find(|filter| !figures.iter().any(|f| f.id.contains(filter.as_str())))
    {
        let ids: Vec<&str> = figures.iter().map(|f| f.id).collect();
        eprintln!(
            "no figure matches {unknown:?} (figures: {})",
            ids.join(", ")
        );
        std::process::exit(2);
    }
    let mut failed = false;
    for figure in figures
        .iter()
        .filter(|f| filters.is_empty() || filters.iter().any(|id| f.id.contains(id.as_str())))
    {
        if let Err(message) = figure.run() {
            eprintln!("FAILED {message}");
            failed = true;
        }
    }
    std::process::exit(i32::from(failed));
}
