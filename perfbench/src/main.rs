//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its metrics, the last line being one JSON
//! object; `perfbench --manifest` prints `BENCHMARK.json`.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use stgq_perfbench::report::{manifest, render, BENCH_DIR};
use stgq_perfbench::run::{run, Budget};
use stgq_perfbench::workload::{Workload, ALL};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --manifest";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--manifest" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", manifest());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let budget = Budget::Time(Duration::from_secs_f64(args.seconds));
    let out_dir = Path::new(BENCH_DIR).join("out");
    let result = match run(w, w.shape(), args.seed, budget, args.trace, &out_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: could not start the {} workload: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    match render(w, args.seed, &result, args.trace, &out_dir) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: writing the trace: {e}");
            return ExitCode::FAILURE;
        }
    }
    if result.verified.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
