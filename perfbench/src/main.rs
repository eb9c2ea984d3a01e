//! The acx benchmark: four workloads through the solo index and the
//! serving tier, end-to-end metrics with tracing off, per-layer metrics
//! from a traced run, every answer checked against `SeqScan`.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--shards S] \
//!     [--out FILE] [--trace-out FILE]
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- --compare A B
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- --list
//! ```
//!
//! Run from the repository root. Without `--workload` all four run in
//! turn. The last line of a run is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`. See README.md beside this crate.

mod compare;
mod estimators;
mod json;
mod metrics;
mod reference;
mod run;
mod serve;
mod solo;
mod trace;
mod workloads;
mod yardstick;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Provenance;
use workloads::{Spec, DEFAULT_SEED, REF_SECONDS, SPECS};

pub type Fallible<T> = Result<T, Box<dyn std::error::Error>>;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    shards: usize,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(String, String)>,
    list: bool,
}

fn parse_u64(flag: &str, text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("{flag}: {text:?} is not a whole number"))
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: REF_SECONDS,
        traced: false,
        shards: serve::default_shards(),
        out: None,
        trace_out: None,
        compare: None,
        list: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = parse_u64(&flag, &value()?)?,
            "--seconds" => args.seconds = parse_u64(&flag, &value()?)?,
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--shards" => args.shards = parse_u64(&flag, &value()?)? as usize,
            "--out" => args.out = Some(value()?.into()),
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?, value()?)),
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &args.workload {
        if workloads::spec(name).is_none() {
            let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown workload {name:?}; known: {}",
                known.join(", ")
            ));
        }
    }
    if args.shards == 0 || !(1..=600).contains(&args.seconds) {
        return Err("--shards must be positive and --seconds in 1..=600".into());
    }
    Ok(args)
}

/// First line of a command's output, or `unknown` (the driver's
/// checkout is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run's own directory under the current one, removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn create(workload: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".bench_tmp").join(format!("{}-{workload}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only when no other run is using it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Runs one workload and prints its lines; `Ok(correct)`.
fn run_workload(spec: &'static Spec, args: &Args) -> Fallible<bool> {
    let dir = RunDir::create(spec.name)?;
    let threads = 1 + args.shards;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# {}: seed {:#x}, {} s, trace {}, load from one process, {threads} threads \
         (1 generator + {} shard workers) on {host_cores} cores",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        args.shards
    );
    let outcome = run::run(&run::Request {
        spec,
        seed: args.seed,
        sizes: spec.sizes.scaled(args.seconds),
        shards: args.shards,
        traced: args.traced,
        dir: &dir.0,
    })?;
    println!("# {}: input digest {:#018x}", spec.name, outcome.digest);
    for note in &outcome.notes {
        println!("# {}: {note}", spec.name);
    }
    outcome.values.print(spec.name);

    let result = format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.values.to_json()
    );
    if let Some(path) = &args.out {
        let provenance = Provenance {
            workload: spec.name,
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            shards: args.shards,
            threads,
            host_cores,
            digest: outcome.digest,
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
            rustc: first_line_of("rustc", &["--version"]),
        };
        let mut file = std::fs::File::options()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(file, "{{{}, {result}}}", provenance.to_json_fields())?;
    }
    if let (Some(path), Some(tracer)) = (&args.trace_out, &outcome.tracer) {
        tracer.write(path)?;
    }
    println!("{{{result}}}");
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        metrics::print_glossary();
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return match compare::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("benchmark: {message}");
                ExitCode::from(2)
            }
        };
    }
    let mut all_correct = true;
    for spec in &SPECS {
        if args
            .workload
            .as_deref()
            .is_some_and(|name| name != spec.name)
        {
            continue;
        }
        match run_workload(spec, &args) {
            Ok(correct) => all_correct &= correct,
            Err(error) => {
                eprintln!("benchmark: {}: {error}", spec.name);
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn reads_the_drivers_arguments() {
        let args = parse(&[
            "--workload",
            "churn_wal",
            "--seed",
            "42",
            "--seconds",
            "7",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("churn_wal"));
        assert_eq!((args.seed, args.seconds, args.traced), (42, 7, true));
        assert_eq!(parse(&["--seed", "0x5E41"]).unwrap().seed, DEFAULT_SEED);
        let defaults = parse(&[]).unwrap();
        assert_eq!((defaults.seconds, defaults.traced), (REF_SECONDS, false));
        assert!(defaults.shards >= 1 && defaults.shards <= 4);
    }

    #[test]
    fn refuses_what_it_does_not_understand() {
        for bad in [
            &["--workload", "skewed"][..],
            &["--seed", "abc"],
            &["--seed"],
            &["--trace", "yes"],
            &["--quick"],
            &["--shards", "0"],
            &["--seconds", "0"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
