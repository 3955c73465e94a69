//! Benchmark entry point.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <churn_small|bulk_large|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one `name value unit` line per metric and context lines
//! prefixed `#`, then, as the last line, a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when a correctness
//! check fails and 2 on bad arguments. Traced runs write a Chrome
//! trace of the benchmark's spans under `perfbench/out/`. With `all`,
//! metric names gain a `<workload>.` prefix, and `peak_rss_mb` is the
//! process's high-water mark so far, so it is exact only for the first
//! workload.

use std::path::Path;
use std::process::ExitCode;

use perfbench::{run, workloads, Outcome, RunArgs};

const USAGE: &str = "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut args = RunArgs {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok((workload.ok_or("--workload is required")?, args))
}

fn print(prefix: &str, o: &Outcome) {
    for n in &o.notes {
        println!("# {n}");
    }
    for m in &o.metrics {
        println!("{prefix}{} {} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let (name, args) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let all = workloads();
    let chosen: Vec<_> = all
        .iter()
        .filter(|w| name == "all" || w.name == name)
        .collect();
    if chosen.is_empty() {
        let names: Vec<_> = all.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; one of {names:?} or all");
        return ExitCode::from(2);
    }
    let trace_dir = Path::new("perfbench").join("out");
    let mut total = Outcome {
        correct: true,
        ..Outcome::default()
    };
    for w in &chosen {
        let o = run(w, args, Some(&trace_dir));
        let prefix = if chosen.len() > 1 {
            format!("{}.", w.name)
        } else {
            String::new()
        };
        print(&prefix, &o);
        total.correct &= o.correct;
        total.attempted += o.attempted;
        total.failed += o.failed;
        total.metrics.extend(o.metrics.into_iter().map(|mut m| {
            m.name = format!("{prefix}{}", m.name);
            m
        }));
    }
    println!("{}", total.json());
    if total.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
