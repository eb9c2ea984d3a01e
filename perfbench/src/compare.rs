//! `--compare A B`: the regression rule, applied to two files of run
//! records (`--out` appends one JSON object per run).
//!
//! Per (workload, end-to-end metric): both medians, how much worse B's
//! is than A's as a share of A's, the metric's bound, and a verdict.
//! `worse` means worse by more than the bound. Where either side's
//! quartile spread is wider than the bound the pair is `unresolved`,
//! unless every run of B reads better than every run of A. Counts of
//! the solo phase must be identical between runs of one seed.

use std::collections::BTreeMap;

use crate::estimators::percentile_f64;
use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Values per (workload, metric), and per (workload, seed, metric) for
/// the exact counts.
#[derive(Default)]
struct Runs {
    timed: BTreeMap<(String, String), Vec<f64>>,
    counts: BTreeMap<(String, u64, String), f64>,
}

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |key: &str| record.get(key).ok_or(format!("{path}:{}: no {key}", n + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or_default() as u64;
        for (name, entry) in field("metrics")?.as_object().unwrap_or_default() {
            let Some(value) = entry.get("value").and_then(Value::as_f64) else {
                continue;
            };
            if END_TO_END.iter().any(|m| m.name == name) {
                runs.timed
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            } else if PER_LAYER.iter().any(|m| m.name == name && m.exact) {
                runs.counts
                    .insert((workload.clone(), seed, name.clone()), value);
            }
        }
    }
    Ok(runs)
}

fn spread(values: &[f64]) -> f64 {
    let median = percentile_f64(values, 50.0);
    (percentile_f64(values, 75.0) - percentile_f64(values, 25.0))
        / median.abs().max(f64::MIN_POSITIVE)
}

/// The rule for one metric on one workload.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (median_a, median_b) = (percentile_f64(a, 50.0), percentile_f64(b, 50.0));
    let worse_by = match better {
        Better::Lower => (median_b - median_a) / median_a,
        Better::Higher => (median_a - median_b) / median_a,
    };
    let b_always_better = match better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    let verdict = if spread(a).max(spread(b)) > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Prints the comparison; `Ok(true)` when nothing is worse and no exact
/// count differs.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!("workload metric median_a median_b worse_by bound runs_a runs_b verdict");
    for ((workload, name), values_a) in &a.timed {
        let Some(values_b) = b.timed.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let m = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("filtered on load");
        let (worse_by, verdict) = judge(values_a, values_b, m.better, m.bound);
        clean &= verdict != Verdict::Worse;
        println!(
            "{workload} {name} {} {} {worse_by:+.4} {} {} {} {}",
            percentile_f64(values_a, 50.0),
            percentile_f64(values_b, 50.0),
            m.bound,
            values_a.len(),
            values_b.len(),
            verdict.as_str()
        );
    }
    let mut compared = 0;
    for (key, value_a) in &a.counts {
        let Some(value_b) = b.counts.get(key) else {
            continue;
        };
        compared += 1;
        if value_a != value_b {
            clean = false;
            println!(
                "{} seed={} {} {value_a} {value_b} differs",
                key.0, key.1, key.2
            );
        }
    }
    println!("exact counts compared: {compared}");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_only_beyond_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [109.0, 110.0, 108.0, 109.5, 108.5];
        assert_eq!(judge(&a, &slower, Better::Lower, 0.1).1, Verdict::Ok);
        assert_eq!(judge(&a, &slower, Better::Lower, 0.05).1, Verdict::Worse);
        // The same numbers are an improvement for a rate.
        let (worse_by, verdict) = judge(&a, &slower, Better::Higher, 0.05);
        assert!(worse_by < 0.0);
        assert_eq!(verdict, Verdict::Ok);
        assert_eq!(judge(&slower, &a, Better::Higher, 0.05).1, Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 140.0, 80.0, 120.0, 95.0];
        let similar = [105.0, 135.0, 85.0, 125.0, 90.0];
        assert_eq!(
            judge(&noisy, &similar, Better::Lower, 0.1).1,
            Verdict::Unresolved
        );
        let far_better = [50.0, 60.0, 40.0, 55.0, 45.0];
        assert_eq!(
            judge(&noisy, &far_better, Better::Lower, 0.1).1,
            Verdict::Ok
        );
    }
}
