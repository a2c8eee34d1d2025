//! One benchmark process: build a workload from its seed, warm it up,
//! print `ready <seconds>` once the first timed op is next, run the timed
//! phase, and print the run as one JSON line. `perfbench/run.py` launches
//! these processes and combines their results.

use mpicd_perfbench::json::Value;
use mpicd_perfbench::{build, run, Budget, RunConfig};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: mpicd-perfbench <ddt_faces|small_structs|pickle_objects> \
--seed N [--seconds S] [--trace 0|1] [--span-csv PATH]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    span_csv: Option<PathBuf>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let workload = it.next().ok_or("missing workload")?;
    let mut args = Args {
        workload,
        seed: 0,
        seconds: 10.0,
        traced: false,
        span_csv: None,
    };
    let mut seed = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--seed" => seed = Some(value.parse().map_err(|_| bad)?),
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            "--span-csv" => args.span_csv = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    args.seed = seed.ok_or("missing --seed")?;
    Ok(args)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut workload = match build(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        budget: Budget::Time(Duration::from_secs_f64(args.seconds)),
        traced: args.traced,
        corrupt_op: None,
        span_csv: args.span_csv,
    };
    let mut setup_s = 0.0;
    let report = run(&mut *workload, &cfg, &mut || {
        setup_s = start.elapsed().as_secs_f64();
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "ready {setup_s}");
        let _ = out.flush();
    });
    match report {
        Ok(r) => {
            let mut json = r.to_json();
            json.set("setup_s_in_process", Value::Num(setup_s));
            println!("{}", json.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
