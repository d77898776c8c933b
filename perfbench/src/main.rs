//! `perfbench`: the repository's benchmark. See README.md beside this
//! crate for the workloads, the metrics and how to read the spans.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --pdce BIN --work DIR [--rate R]
//! ```
//!
//! `--rate` overrides serve-mixed's offered load in requests per second;
//! it exists for the capacity probe (`aa.py --capacity`).
//!
//! Prints notes, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics from the traced replay with
//! `--trace 1`). Exits 3 without a result when the run is invalid.

mod check;
mod inputs;
mod opt;
mod replay;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::{fingerprint, opt_set, serve_traffic, synthetic_requests, SERVE_RATE};

pub const WORKLOADS: [&str; 3] = ["opt-pfe-wide", "opt-pde-narrow", "serve-mixed"];

/// Variables that select non-default optimizer behaviour. They are
/// removed from this process's environment before anything runs, so the
/// in-process replay and every `pdce` child measure the shipped defaults.
const SCRUBBED_ENV: [&str; 4] = ["SOLVER", "INCREMENTAL", "TV", "FAULT_INJECT"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Offered load of serve-mixed, requests per second.
    pub rate: f64,
    /// The release `pdce` binary under test.
    pub pdce: PathBuf,
    /// Scratch directory for this run's files (emptied first).
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        let pos = argv
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        argv.get(pos + 1)
            .cloned()
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let rate: f64 = if argv.iter().any(|a| a == "--rate") {
        get("--rate")?.parse().map_err(|_| "bad --rate")?
    } else {
        SERVE_RATE
    };
    if !(rate > 0.0 && rate <= 1e5) {
        return Err("--rate must be in (0, 100000]".to_string());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_string()),
        },
        rate,
        // Absolute, because the daemon runs in its own directory.
        pdce: std::fs::canonicalize(get("--pdce")?).map_err(|e| format!("--pdce: {e}"))?,
        work: PathBuf::from(get("--work")?),
    })
}

fn run(args: &Args) -> std::io::Result<(stats::Outcome, u64)> {
    if args.work.exists() {
        std::fs::remove_dir_all(&args.work)?;
    }
    std::fs::create_dir_all(&args.work)?;
    if args.workload == "serve-mixed" {
        let traffic = serve_traffic(args.seed, args.seconds, args.rate);
        let fp = fingerprint(
            traffic
                .warm_lines
                .iter()
                .chain(&traffic.starve_lines)
                .map(String::as_str)
                .chain(traffic.requests.iter().map(|r| r.line.as_str())),
        );
        let outcome = if args.trace {
            // The distinct programs the healthy requests carry, in order
            // of first appearance.
            let mut seen = std::collections::HashSet::new();
            let programs: Vec<inputs::GenProgram> = traffic
                .requests
                .iter()
                .filter(|r| r.class.healthy() && seen.insert(r.program))
                .map(|r| traffic.programs[r.program].clone())
                .collect();
            replay::run(args, &programs, &traffic, &traffic.requests)?
        } else {
            serve::run(args, &traffic)?
        };
        return Ok((outcome, fp));
    }
    let set = opt_set(&args.workload, args.seed);
    let fp = fingerprint(set.iter().map(|p| p.text.as_str()));
    let outcome = if args.trace {
        // The serve layers are timed on this workload's own programs;
        // the pre-populated cache is the one serve-mixed starts from.
        let traffic = serve_traffic(args.seed, 0.0, SERVE_RATE);
        let requests = synthetic_requests(&set);
        replay::run(args, &set, &traffic, &requests)?
    } else {
        opt::run(args, &set)?
    };
    Ok((outcome, fp))
}

/// `perfbench --rss-of PROGRAM ARGS...`: runs PROGRAM and prints its peak
/// resident set size in KiB. A child's rusage also counts the address
/// space it was spawned from; spawned from this small, freshly started
/// process instead of the benchmark (which holds every input and
/// output), that share is negligible.
fn rss_of(argv: &[String]) -> ExitCode {
    let Some((program, rest)) = argv.split_first() else {
        return ExitCode::from(2);
    };
    let status = std::process::Command::new(program)
        .args(rest)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
    println!("{}", stats::children_usage().max_rss_kb);
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        _ => ExitCode::from(1),
    }
}

fn main() -> ExitCode {
    // Still single-threaded here, so changing the environment is sound.
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--rss-of") {
        return rss_of(&argv[1..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, fp) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("inputs fnv64 {fp:016x}");
    for note in &outcome.notes {
        println!("{note}");
    }
    if let Some(reason) = &outcome.invalid {
        eprintln!("perfbench: run invalid: {reason}");
        return ExitCode::from(3);
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
