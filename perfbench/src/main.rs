//! The DHL benchmark: times release builds of the simulator and scheduler
//! from outside the library, on four workloads.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!           [--trace-out <file>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! is the digest of the run's simulated outputs. `--trace-out` writes the
//! traced run's spans as NDJSON. See `README.md` for the workloads and
//! metrics.

mod calib;
mod metrics;
mod runner;
mod serve;
mod sim;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use runner::Report;
use trace::Tracer;
use workload::Workload;

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claim on unseen inputs.
const HELD_OUT_SEED: u64 = 104_729;

const WORKLOADS: &[&str] = &["bulk_fleet", "ckpt_resume", "serve_open", "serve_closed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--trace-out <file>]\n(default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})",
        WORKLOADS.join("|")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                // Accept negative seeds too, by their two's-complement bits.
                args.seed = v
                    .parse::<u64>()
                    .or_else(|_| v.parse::<i64>().map(|s| s as u64))
                    .map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn measure<W: Workload>(w: &W, args: &Args) -> (Report, Tracer) {
    if args.trace {
        runner::traced(w, args.seconds)
    } else {
        runner::end_to_end(w, args.seconds)
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// Values print in Rust's shortest round-trip form, every digit kept.
fn result_json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    for (i, (name, unit, value)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `+ 0.0` prints an empty sum's -0.0 as 0.0.
        let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn write_trace(tr: &Tracer, path: &PathBuf) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    tr.write_ndjson(&mut out)?;
    out.flush()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    let (report, tr) = match args.workload.as_str() {
        "bulk_fleet" => measure(&sim::BulkFleet::new(seed), &args),
        "ckpt_resume" => match sim::CkptResume::new(seed) {
            Ok(w) => measure(&w, &args),
            Err(e) => {
                eprintln!("ckpt_resume: {e}");
                return ExitCode::FAILURE;
            }
        },
        "serve_open" => measure(&serve::ServeOpen::new(seed), &args),
        "serve_closed" => measure(&serve::ServeClosed::new(seed), &args),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = write_trace(&tr, path) {
            eprintln!("writing the trace to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    match report.digest {
        Some(d) => println!("digest {} seed {seed} {d:016x}", args.workload),
        None => println!("digest {} seed {seed} none", args.workload),
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_open --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "serve_open");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert_eq!(args("--workload bulk_fleet").unwrap().seed, DEFAULT_SEED);
        assert!(args("--workload nope").is_err());
        assert!(args("--workload bulk_fleet --trace 2").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            attempted: 4,
            failed: 1,
            digest: None,
            metrics: vec![("setup_s", "s", 0.25)],
        };
        let json = result_json(&report);
        let v = dhl_obs::json::parse(&json).unwrap();
        let keys: Vec<_> = v.as_object().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            v.get("correct"),
            Some(&dhl_obs::json::JsonValue::Bool(false))
        );
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.25));
    }
}
