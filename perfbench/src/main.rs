//! Untraced end-to-end benchmark of the RESCQ reproduction, with a traced
//! per-layer breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ising_wide|ising_uf|compressed_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload runs per process, so the resident-set high-water mark
//! belongs to that workload alone. `--trace 0` times untraced calls and
//! prints the end-to-end metrics; `--trace 1` prints the per-layer metrics
//! of a separate traced run. Either way the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; see
//! `perfbench/README.md` for every metric.

mod alloc;
mod breakdown;
mod e2e;
mod host;
mod layers;
mod plan;
mod report;
mod spans;

use plan::Workload;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: rescq-perfbench --workload <ising_wide|ising_uf|compressed_sweep> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = match plan::build(args.workload, args.seed) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("{}: cannot set up: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.trace {
        breakdown::run(&plan, args.seconds, args.seed)
    } else {
        e2e::run(&plan, args.seconds)
    };
    outcome.print();
    ExitCode::SUCCESS
}
