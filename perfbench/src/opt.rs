//! The `opt-*` workloads: a closed loop of `pdce opt --mode M FILE`
//! processes, one file at a time, over the workload's program set.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use pdce_ir::parser::parse;

use crate::check;
use crate::inputs::{GenProgram, TINY_PROGRAM};
use crate::stats::{flush_dirty_pages, quantile, ratio, Outcome};
use crate::Args;

/// Programs (the largest of the set) whose peak memory is measured.
const RSS_PROGRAMS: usize = 4;

/// One finished `pdce opt` process.
pub struct Invocation {
    pub wall: Duration,
    pub ok: bool,
    pub stdout: String,
}

/// Runs `pdce opt --mode MODE FILE` and waits for it.
pub fn invoke(pdce: &Path, mode: &str, file: &Path) -> Invocation {
    let mut cmd = Command::new(pdce);
    cmd.args(["opt", "--mode", mode])
        .arg(file)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let out = cmd.output();
    let wall = start.elapsed();
    match out {
        Ok(out) => Invocation {
            wall,
            ok: out.status.success(),
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        },
        Err(_) => Invocation {
            wall,
            ok: false,
            stdout: String::new(),
        },
    }
}

/// Writes the set (and the tiny probe program) under `dir`.
pub fn write_set(dir: &Path, set: &[GenProgram]) -> std::io::Result<(Vec<PathBuf>, PathBuf)> {
    let mut files = Vec::with_capacity(set.len());
    for (i, p) in set.iter().enumerate() {
        let path = dir.join(format!("p{i:03}.pdce"));
        std::fs::write(&path, &p.text)?;
        files.push(path);
    }
    let tiny = dir.join("tiny.pdce");
    std::fs::write(&tiny, TINY_PROGRAM)?;
    Ok((files, tiny))
}

/// Per program: the first output, and whether every invocation exited 0
/// with the same bytes.
struct Outputs {
    first: Vec<Option<String>>,
    stable: Vec<bool>,
    runs: Vec<u64>,
}

impl Outputs {
    fn new(n: usize) -> Outputs {
        Outputs {
            first: vec![None; n],
            stable: vec![true; n],
            runs: vec![0; n],
        }
    }

    fn record(&mut self, i: usize, inv: Invocation) {
        self.runs[i] += 1;
        match &self.first[i] {
            None if inv.ok => self.first[i] = Some(inv.stdout),
            None => self.stable[i] = false,
            Some(prev) => self.stable[i] &= inv.ok && *prev == inv.stdout,
        }
    }
}

pub fn run(args: &Args, set: &[GenProgram]) -> std::io::Result<Outcome> {
    let mode = set[0].mode;
    let (files, tiny) = write_set(&args.work, set)?;
    flush_dirty_pages();
    let mut out = Outcome::default();

    // Untimed warm-up: page in the binary and the files.
    for _ in 0..3 {
        invoke(&args.pdce, mode, &tiny);
    }
    invoke(&args.pdce, mode, &files[0]);

    let mut seen = Outputs::new(set.len());
    let mut compile_ms = Vec::new();
    let mut setup_s = Vec::new();
    let mut stmts_done = 0usize;
    let mut compile_wall = 0.0f64;
    let mut probes_ok = 0u64;
    let mut probes = 0u64;

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let inv = invoke(&args.pdce, mode, &files[i]);
        compile_ms.push(inv.wall.as_secs_f64() * 1e3);
        compile_wall += inv.wall.as_secs_f64();
        stmts_done += set[i].stmts;
        seen.record(i, inv);
        // The CLI's fixed start cost, sampled between compiles so that
        // it sees the same machine state as the compiles do.
        let probe = invoke(&args.pdce, mode, &tiny);
        probes += 1;
        probes_ok += u64::from(probe.ok);
        setup_s.push(probe.wall.as_secs_f64());
        i = (i + 1) % set.len();
    }
    // A short run may not have reached every program; the gate needs
    // one output of each.
    for (j, file) in files.iter().enumerate() {
        if seen.runs[j] == 0 {
            seen.record(j, invoke(&args.pdce, mode, file));
        }
    }

    // Correctness gate (outside the timed loop).
    let mut ratios = check::Ratios::default();
    for (j, program) in set.iter().enumerate() {
        let verdict = match &seen.first[j] {
            None => Err("no successful invocation".to_string()),
            Some(_) if !seen.stable[j] => Err(format!(
                "one of {} invocations failed or printed different bytes",
                seen.runs[j]
            )),
            Some(text) => match (parse(&program.text), parse(text)) {
                (Ok(original), Ok(optimized)) => {
                    check::equivalent(&original, &optimized).map(|d| ratios.add(&d))
                }
                (_, Err(e)) => Err(format!("output does not parse: {e}")),
                (Err(e), _) => Err(format!("input does not parse: {e}")),
            },
        };
        // Every invocation of a failing program counts as failed.
        for _ in 0..seen.runs[j] {
            out.check(verdict.is_ok());
        }
        if let Err(e) = verdict {
            out.note(format!("FAIL p{j:03}: {e}"));
        }
    }
    out.attempted += probes;
    out.failed += probes - probes_ok;

    // Peak memory: the largest programs, each once more through the
    // `--rss-of` helper (see main.rs), outside the timed loop.
    let mut by_size: Vec<usize> = (0..set.len()).collect();
    by_size.sort_by_key(|&j| std::cmp::Reverse(set[j].stmts));
    let mut rss_kb = 0u64;
    for &j in by_size.iter().take(RSS_PROGRAMS) {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg("--rss-of")
            .arg(&args.pdce)
            .args(["opt", "--mode", mode])
            .arg(&files[j]);
        let measured = cmd.output()?;
        out.check(measured.status.success());
        let kb: Option<u64> = String::from_utf8_lossy(&measured.stdout)
            .trim()
            .parse()
            .ok();
        rss_kb = rss_kb.max(kb.unwrap_or(0));
    }
    let rss_mb = rss_kb as f64 / 1024.0;
    let p50 = quantile(&compile_ms, 0.5);
    out.note(format!(
        "{} compiles of {} programs, {} setup probes",
        compile_ms.len(),
        set.len(),
        setup_s.len()
    ));
    out.metric("setup_s", quantile(&setup_s, 0.5), "s");
    out.metric("compile_ms_p50", p50, "ms");
    out.metric("compile_ms_p90", quantile(&compile_ms, 0.9), "ms");
    out.metric(
        "kstmts_per_s",
        ratio(stmts_done as f64 / 1e3, compile_wall),
        "kstmt/s",
    );
    // In a closed loop of one client the request is one compile.
    out.metric("lat_ms_p50", p50, "ms");
    out.metric("lat_ms_p99", quantile(&compile_ms, 0.99), "ms");
    out.metric(
        "req_per_s",
        ratio(compile_ms.len() as f64, compile_wall),
        "1/s",
    );
    out.metric("peak_rss_mb", rss_mb, "MB");
    out.metric("out_stmts_ratio", ratios.stmts(), "ratio");
    out.metric("dyn_assigns_ratio", ratios.assigns(), "ratio");
    Ok(out)
}
