//! The repository's benchmark: five workloads, end-to-end metrics from an
//! untraced run, per-layer metrics and a span file from a traced run, every
//! answer checked against an oracle the benchmark computes itself.
//!
//! Run it through `benchmark/run.sh`, which builds in release, sets the
//! heap-retention environment and passes `--out-dir`.  See
//! `benchmark/README.md` for every metric and workload.

mod host;
mod json;
mod layers;
mod query;
mod rep;
mod report;
mod stats;
mod stream;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Opts, Workload};

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
[--smoke] [--out FILE]\n       run.sh --compare A.json[,A2.json,...] B.json[,B2.json,...]\n\
workloads: powerlaw_ingest unique_ingest query_mix durable_ingest sharded_ingest (default: all)";

/// Default `--seed`: the paper stream's own.
const DEFAULT_SEED: u64 = 2020;
/// Default `--seconds`: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Cli {
    workloads: Vec<Workload>,
    opts: Opts,
    results: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        opts: Opts {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            out_dir: PathBuf::from("benchmark/out"),
        },
        results: None,
        compare: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i)?;
                cli.workloads.push(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value(&mut i)?;
                cli.opts.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value(&mut i)?;
                cli.opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            // `--trace` alone turns tracing on; `--trace 0|1` is the form
            // the benchmark driver uses.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.opts.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.opts.trace = true;
                    i += 1;
                }
                _ => cli.opts.trace = true,
            },
            "--smoke" => cli.opts.smoke = true,
            "--out-dir" => cli.opts.out_dir = PathBuf::from(value(&mut i)?),
            "--out" => cli.results = Some(PathBuf::from(value(&mut i)?)),
            "--compare" => {
                let a = value(&mut i)?.clone();
                let b = value(&mut i)?.clone();
                cli.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if cli.workloads.is_empty() {
        cli.workloads = Workload::ALL.to_vec();
    }
    if cli.opts.smoke {
        cli.opts.seconds = 0.0;
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<bool, String> {
    if let Some((a, b)) = &cli.compare {
        return report::compare_files(a, b).map(|worse| !worse);
    }
    let mut outcomes = Vec::new();
    for &w in &cli.workloads {
        let outcome = workload::run(w, &cli.opts)?;
        outcome.print_lines();
        // The machine-readable line is the last thing a workload prints,
        // so with a single `--workload` it is the last line of the output.
        println!("{}", outcome.result_line());
        outcomes.push(outcome);
    }
    let name = if cli.opts.trace {
        "results-trace.json"
    } else {
        "results.json"
    };
    let path = cli.results.clone().unwrap_or(cli.opts.out_dir.join(name));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let doc = report::results_json(&outcomes, cli.opts.seed, cli.opts.trace, cli.opts.smoke);
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(outcomes.iter().all(report::Outcome::correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAILED: a call returned an error, an answer differed from the oracle, or a compared metric got worse");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
