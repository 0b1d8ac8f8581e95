//! `compare <a.jsonl> <b.jsonl>`: two sets of run records (as `--out`
//! writes them) against the bounds. For every workload and end-to-end metric
//! it prints both medians, how much worse `b` is than `a`, the bound, and each
//! side's spread (interquartile distance as a share of its median); it exits
//! 1 when `b` is worse than `a` by more than the bound.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::estimators::{median, spread};
use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};

/// Values of every end-to-end metric, by (workload, metric), over the
/// untraced records of one file.
type Values = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut values = Values::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", number + 1))?;
        let field = |key: &str| {
            record
                .get(key)
                .ok_or_else(|| format!("{path}:{}: no {key:?}", number + 1))
        };
        if field("trace")?.as_bool() == Some(true) {
            continue;
        }
        if field("comparable")?.as_bool() != Some(true) {
            return Err(format!(
                "{path}:{}: a --quick record is not comparable",
                number + 1
            ));
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        for (name, metric) in field("metrics")?.entries() {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                values
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    if values.is_empty() {
        return Err(format!("{path}: no untraced run records"));
    }
    Ok(values)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two files".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut exceeded = 0;
    let mut compared = 0;
    println!(
        "{:<8} {:<26} {:>14} {:>14} {:>9} {:>7} {:>15}  runs",
        "workload", "metric", "a (median)", "b (median)", "worse by", "bound", "spread a / b"
    );
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let key = (workload.name.to_string(), metric.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!(
                    "{:<8} {:<26} missing from one side",
                    workload.name, metric.name
                );
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let worse = worsening(metric, ma, mb);
            let over = worse > metric.bound;
            exceeded += usize::from(over);
            compared += 1;
            let spread_of = |v: &[f64]| {
                if v.len() < 2 {
                    "-".to_string()
                } else {
                    format!("{:.2}%", spread(v) * 100.0)
                }
            };
            println!(
                "{:<8} {:<26} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}% {:>7}/{:>7}  {}+{} {}{}",
                workload.name,
                metric.name,
                ma,
                mb,
                worse * 100.0,
                metric.bound * 100.0,
                spread_of(va),
                spread_of(vb),
                va.len(),
                vb.len(),
                metric.unit,
                if over { "  EXCEEDED" } else { "" }
            );
        }
    }
    println!("{compared} pairs compared, {exceeded} over their bound");
    Ok(if exceeded == 0 && compared > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    #[test]
    fn worsening_follows_the_direction_of_the_metric() {
        let lower = end_to_end("raw_ns.cna").unwrap();
        assert!((worsening(lower, 20.0, 22.0) - 0.10).abs() < 1e-12);
        assert!(worsening(lower, 20.0, 18.0) < 0.0);
        let higher = end_to_end("sim_speedup_cna_over_mcs").unwrap();
        assert!((worsening(higher, 2.0, 1.9) - 0.05).abs() < 1e-12);
        assert!(worsening(higher, 2.0, 2.2) < 0.0);
    }
}
