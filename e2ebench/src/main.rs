//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's context, a metric table with units and sample
//! counts, and as its last line one JSON result object whose `correct`
//! says whether every reply checked out. Exits 2 on bad arguments.

use std::process::ExitCode;

use ss_e2ebench::inputs::DEFAULT_SEED;
use ss_e2ebench::metrics::{definition, json_str, RUN_SECONDS};
use ss_e2ebench::{run, Args, Workload};

const USAGE: &str = "usage: e2ebench --workload <cold-mix|warm-repeat|churn-fleet> \
[--seed N] [--seconds S] [--trace 0|1]\n       e2ebench --definition";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ColdMix,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--definition") {
        print!("{}", definition(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    let stamp: Vec<String> = outcome
        .stamp
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("stamp {{{}}}", stamp.join(", "));
    for note in &outcome.notes {
        println!("{note}");
    }
    print!("{}", outcome.table());
    for error in &outcome.errors {
        eprintln!("e2ebench: {error}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
