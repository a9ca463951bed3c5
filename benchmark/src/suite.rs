//! The suite: every workload, each in a fresh child process (so peak
//! memory and the process-wide metrics registry start clean), untraced
//! then traced; `--smoke` and `--repeat` check the results.

use crate::workload::{Spec, SPECS};
use crate::Cli;
use std::process::{Command, Stdio};
use sww_json::Value;

/// One child run's result line.
struct ChildRun {
    workload: &'static str,
    trace: bool,
    repeat: usize,
    result: Value,
}

fn child(cli: &Cli, spec: &Spec, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr passes through.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (lines, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{lines}");
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) failed: {}",
            spec.name,
            u8::from(trace),
            out.status
        ));
    }
    sww_json::parse(last).map_err(|e| format!("{}: unreadable result line: {e}", spec.name))
}

/// The `(name, unit, bound)` rows of one list of `BENCHMARK.json`.
fn declared(benchmark: &Value, list: &str) -> Result<Vec<(String, String, f64)>, String> {
    benchmark[list]
        .as_array()
        .ok_or_else(|| format!("BENCHMARK.json has no {list}"))?
        .iter()
        .map(|m| {
            let text = |k: &str| m[k].as_str().map(str::to_owned);
            match (text("name"), text("unit")) {
                (Some(name), Some(unit)) => Ok((name, unit, m["bound"].as_f64().unwrap_or(0.0))),
                _ => Err(format!("BENCHMARK.json: malformed entry in {list}")),
            }
        })
        .collect()
}

/// Every run reports exactly the metrics `BENCHMARK.json` declares for
/// its mode, each finite and in the declared unit, and passes the oracle.
fn check_smoke(benchmark: &Value, runs: &[ChildRun]) -> Result<(), String> {
    for run in runs {
        let list = if run.trace { "per_layer" } else { "end_to_end" };
        let want = declared(benchmark, list)?;
        let got = run.result["metrics"]
            .as_object()
            .ok_or_else(|| format!("{}: no metrics", run.workload))?;
        if got.len() != want.len() {
            return Err(format!(
                "{} {list}: {} metrics emitted, {} declared",
                run.workload,
                got.len(),
                want.len()
            ));
        }
        for (name, unit, _) in &want {
            let m = got
                .get(name)
                .ok_or_else(|| format!("{}: {name} is declared but not emitted", run.workload))?;
            if !m["value"].as_f64().is_some_and(f64::is_finite) || m["unit"].as_str() != Some(unit)
            {
                return Err(format!(
                    "{}: {name} is not a finite number of {unit}",
                    run.workload
                ));
            }
        }
        if run.result["correct"].as_bool() != Some(true) {
            return Err(format!("{}: the oracle did not pass", run.workload));
        }
    }
    println!(
        "smoke: {} runs emit every declared metric and pass the oracle",
        runs.len()
    );
    Ok(())
}

/// Spread of each gated metric over the repeats — (max − min) / median —
/// against its bound.
fn check_repeats(benchmark: &Value, runs: &[ChildRun]) -> Result<(), String> {
    let mut outside = 0;
    for spec in &SPECS {
        for (name, _, bound) in declared(benchmark, "end_to_end")? {
            let values: Vec<f64> = runs
                .iter()
                .filter(|r| r.workload == spec.name && !r.trace)
                .filter_map(|r| r.result["metrics"][name.as_str()]["value"].as_f64())
                .collect();
            if values.len() < 2 {
                continue;
            }
            let max = values.iter().copied().fold(f64::MIN, f64::max);
            let min = values.iter().copied().fold(f64::MAX, f64::min);
            let spread = (max - min) / crate::stats::median(&values);
            let verdict = if spread <= bound { "ok" } else { "OUTSIDE" };
            outside += usize::from(spread > bound);
            println!(
                "repeat {} {name} spread {spread:.4} bound {bound} {verdict} n={}",
                spec.name,
                values.len()
            );
        }
    }
    if outside > 0 {
        return Err(format!(
            "{outside} gated metric(s) did not repeat within their bound"
        ));
    }
    Ok(())
}

/// Run the suite `cli` describes.
pub fn run(cli: &Cli) -> Result<(), String> {
    let specs: Vec<Spec> = cli.workload.map_or(SPECS.to_vec(), |s| vec![s]);
    // Smoke runs only have to emit every metric; half a second is plenty.
    let seconds = if cli.smoke {
        cli.seconds.min(0.5)
    } else {
        cli.seconds
    };
    let mut runs = Vec::new();
    for repeat in 0..cli.repeat {
        for spec in &specs {
            for trace in [false, true] {
                runs.push(ChildRun {
                    workload: spec.name,
                    trace,
                    repeat,
                    result: child(cli, spec, seconds, trace)?,
                });
            }
        }
    }

    let results = Value::object([
        ("seed", Value::from(cli.seed as i64)),
        ("seconds", Value::Number(sww_json::Number::Float(seconds))),
        (
            "runs",
            Value::Array(
                runs.iter()
                    .map(|r| {
                        Value::object([
                            ("workload", Value::from(r.workload)),
                            ("trace", Value::Bool(r.trace)),
                            ("repeat", Value::from(r.repeat as i64)),
                            ("result", r.result.clone()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = "benchmark/out/results.json";
    std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(path, sww_json::to_string_pretty(&results)))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("results written to {path}");

    if cli.smoke || cli.repeat > 1 {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
        let benchmark =
            sww_json::parse(&text).map_err(|e| format!("BENCHMARK.json does not parse: {e}"))?;
        if cli.smoke {
            check_smoke(&benchmark, &runs)?;
        }
        if cli.repeat > 1 {
            check_repeats(&benchmark, &runs)?;
        }
    }
    Ok(())
}
