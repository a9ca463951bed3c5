//! `sww-benchmark`: the wall-clock, layer-attributed benchmark of the sww
//! serving stack. README.md defines the workloads, metrics and phases.
//!
//! With `--trace 0|1` it runs one workload in this process and ends its
//! standard output with one JSON object (the form `BENCHMARK.json`'s
//! command is run in). Without `--trace` it runs that form as child
//! processes — every workload, untraced then traced — and summarises.

mod alloc;
mod clients;
mod metrics;
mod phases;
mod probes;
mod procstat;
mod run;
mod stats;
mod suite;
mod trace;
mod workload;

use run::{RunArgs, RunResult};
use std::process::ExitCode;
use workload::Spec;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--repeat K]";

/// The command line, parsed.
#[derive(Debug, Clone)]
pub struct Cli {
    /// One workload, or all of them.
    pub workload: Option<Spec>,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the timed phases measure for.
    pub seconds: f64,
    /// `Some`: run in this process, traced or not. `None`: run the suite.
    pub trace: Option<bool>,
    /// Suite: small sizes, and check that every metric is emitted.
    pub smoke: bool,
    /// Suite: run everything this many times and compare.
    pub repeat: usize,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: None,
        smoke: false,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                cli.workload =
                    Some(Spec::named(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--repeat" => {
                cli.repeat = value.parse().map_err(|_| bad())?;
                if cli.repeat == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if cli.trace.is_some() && cli.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(cli)
}

/// Print the run for a reader, then the one JSON line for the driver.
fn report(spec: &Spec, table: &[(&str, &str)], result: &RunResult) -> Result<(), String> {
    let w = spec.name;
    for note in &result.notes {
        println!("# {w}: {note}");
    }
    println!("{w} ops_attempted {} count", result.attempted);
    println!("{w} ops_failed {} count", result.failed);
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let m = result
            .metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("{name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("{name} is not finite: {}", m.value));
        }
        match m.samples {
            Some(n) => println!("{w} {name} {} {unit} n={n}", m.value),
            None => println!("{w} {name} {} {unit}", m.value),
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.value
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        fields.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (cli.trace, cli.workload) {
        (Some(trace), Some(spec)) => {
            let spec = if cli.smoke { spec.shrunk() } else { spec };
            let result = run::run(RunArgs {
                spec,
                seed: cli.seed,
                seconds: cli.seconds,
                trace,
            });
            let table = if trace {
                metrics::PER_LAYER
            } else {
                metrics::END_TO_END
            };
            report(&spec, table, &result).and_then(|()| {
                if result.correct {
                    Ok(())
                } else {
                    Err(format!("{} loads failed the oracle", result.failed))
                }
            })
        }
        _ => suite::run(&cli),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sww-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_form() {
        let cli = parse(&args(
            "--workload edge4_mixed --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.unwrap().name, "edge4_mixed");
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 10.0, Some(true)));
    }

    #[test]
    fn rejects_what_it_cannot_run() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2 --workload edge4_mixed")).is_err());
        assert!(parse(&args("--trace 0")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--repeat 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = metrics::END_TO_END
            .iter()
            .chain(metrics::PER_LAYER)
            .map(|m| m.0)
            .collect();
        assert!(metrics::PER_LAYER.len() <= 128 && metrics::END_TO_END.len() <= 16);
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
