//! The repo benchmark. See `README.md` beside this package.
//!
//! ```text
//! cna-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cna-benchmark report  [--quick] [--seed <n>] [--seconds <s>] [--out <file>]
//! cna-benchmark compare <a.jsonl> <b.jsonl>
//! cna-benchmark spec
//! ```

mod compare;
mod e2e;
mod estimators;
mod fixtures;
mod host;
mod inputs;
mod json;
mod layers;
mod run;
mod spec;
mod trace;

use std::process::ExitCode;

const USAGE: &str = "usage:
  cna-benchmark --workload <hot|spread> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
                [--quick] [--out <records.jsonl>]
      one run; the last line of standard output is the result object
  cna-benchmark report [--quick] [--seed <u64>] [--seconds <n>] [--out <records.jsonl>]
      every workload untraced, then traced; prints every metric by name
  cna-benchmark compare <a.jsonl> <b.jsonl>
      medians of two sets of run records against the bounds; exit 1 when exceeded
  cna-benchmark spec
      prints BENCHMARK.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => compare::main(&args[1..]),
        Some("report") => run::Options::parse(&args[1..], false).and_then(|o| run::report(&o)),
        Some("-h" | "--help" | "help") | None => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(_) => run::Options::parse(&args, true).and_then(|o| run::single(&o)),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("cna-benchmark: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
