//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one context line (a JSON object under `"context"`) and, as
//! the last line, the result object: `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics untraced, per-layer metrics
//! traced). A correctness-gate failure prints `"correct": false` and
//! exits with code 1.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::common::{GateFailure, Sheet};
use perfbench::corpus_meta;
use perfbench::lan_party::{self, LanPartyConfig};
use perfbench::layers::moves_json;
use perfbench::report::{fmt_num, Outcome};
use perfbench::trace::write_spans;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
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
            "--out-dir" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn metrics_json(sheet: &Sheet) -> String {
    let body: Vec<String> = sheet
        .values
        .iter()
        .map(|(k, (v, unit))| format!("\"{k}\":{{\"value\":{},\"unit\":\"{unit}\"}}", fmt_num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn run(args: &Args) -> Result<Outcome, GateFailure> {
    match args.workload.as_str() {
        "lan_party" => lan_party::run(&LanPartyConfig::standard(
            args.seed,
            args.seconds,
            args.trace,
        )),
        "corpus_meta" => corpus_meta::run(
            args.seed,
            args.seconds,
            args.trace,
            &args
                .out_dir
                .join(format!("data-corpus_meta-{}", std::process::id())),
        ),
        other => Err(GateFailure(format!("unknown workload {other}"))),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(mut outcome) => {
            let ctx = &mut outcome.ctx;
            ctx.str("workload", &args.workload);
            ctx.num("seed", args.seed as f64);
            ctx.num("seconds", args.seconds);
            ctx.num("trace", args.trace as u8 as f64);
            ctx.num(
                "nproc",
                std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
            );
            ctx.str(
                "git_commit",
                &std::env::var("PERFBENCH_GIT_COMMIT").unwrap_or_default(),
            );
            ctx.str(
                "source_digest",
                &std::env::var("PERFBENCH_SOURCE_DIGEST").unwrap_or_default(),
            );
            ctx.str(
                "rustc",
                &std::env::var("PERFBENCH_RUSTC").unwrap_or_default(),
            );
            if args.trace {
                ctx.raw("layer_moves", moves_json());
                let path = args
                    .out_dir
                    .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
                match write_spans(&path, &outcome.tracer) {
                    Ok(()) => ctx.str("trace_file", &path.display().to_string()),
                    Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
                }
            }
            println!("{{\"context\":{}}}", ctx.to_json());
            let metrics = if args.trace {
                &outcome.layers
            } else {
                &outcome.e2e
            };
            println!(
                "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
                outcome.acc.attempted(),
                outcome.acc.failed(),
                metrics_json(metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{{}}}}");
            ExitCode::from(1)
        }
    }
}
