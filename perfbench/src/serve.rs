//! The `serve-mixed` workload: one `pdce serve --unix` daemon per
//! segment, driven by an open loop from this process, every answer
//! checked afterwards.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdce_ir::parser::parse;
use pdce_serve::{ServeOptions, Server};
use pdce_trace::json;

use crate::check;
use crate::inputs::{Class, ServeRequest, Traffic, SERVE_CONNS, SERVE_SEGMENTS};
use crate::stats::{flush_dirty_pages, quantile, ratio, self_usage, vm_hwm_kb, CpuTicks, Outcome};
use crate::Args;

/// Latency given to a request that was not answered or answered wrongly:
/// it misses every latency limit.
const MISSED_MS: f64 = 1.0e6;
/// Daemon lifetimes whose requests make up the latency quantiles, at the
/// least (lifetimes that tie with the last of them join the pool).
const QUIET_SEGMENTS: usize = 5;
/// Lead between the end of set-up and the first due time.
const LEAD: Duration = Duration::from_millis(20);
const CACHE_FILE: &str = "cache.wal";
const QUARANTINE_FILE: &str = "cache.wal.quarantine";

/// Builds the pre-populated cache (WAL snapshot plus quarantine file)
/// under `dir` through the public `Server` API, exactly as the daemon
/// would have written it. Returns how many warm answers failed.
pub fn build_pristine(dir: &Path, traffic: &Traffic) -> std::io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let server = Arc::new(Server::new(ServeOptions {
        cache_path: Some(dir.join(CACHE_FILE)),
        jobs: 2,
        ..ServeOptions::default()
    }));
    let mut failed = 0u64;
    for chunk in traffic.warm_lines.chunks(64) {
        for line in server.respond_batch(2, chunk) {
            failed +=
                u64::from(!line.contains("\"status\":0") || !line.contains("\"rung\":\"none\""));
        }
    }
    for line in &traffic.starve_lines {
        failed += u64::from(server.respond_line(line).is_none());
    }
    server.save_cache()?;
    Ok(failed)
}

/// Copies the pristine cache into a fresh directory.
pub fn fresh_copy(pristine: &Path, dir: &Path) -> std::io::Result<PathBuf> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    for name in [CACHE_FILE, QUARANTINE_FILE] {
        std::fs::copy(pristine.join(name), dir.join(name))?;
    }
    Ok(dir.join(CACHE_FILE))
}

/// What the client saw for one request.
#[derive(Debug, Clone, Default)]
struct Seen {
    late_ms: f64,
    latency_ms: Option<f64>,
    response: Option<String>,
}

/// A daemon for one segment, stopped (killed if need be) on drop.
struct Daemon {
    child: Child,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn read_line(reader: &mut BufReader<UnixStream>) -> Option<String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => Some(line.trim_end().to_string()),
        _ => None,
    }
}

/// Spawns the daemon on a fresh cache copy and waits for its first
/// answered ping. Returns the daemon, the ping connection and the
/// set-up time.
fn start_daemon(
    args: &Args,
    dir: &Path,
    jobs: usize,
) -> std::io::Result<(Daemon, UnixStream, f64)> {
    let sock = dir.join("sock");
    let log = std::fs::File::create(dir.join("daemon.log"))?;
    let mut cmd = Command::new(&args.pdce);
    cmd.args(["serve", "--unix", "sock", "--cache", CACHE_FILE, "--jobs"])
        .arg(jobs.to_string())
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log);
    let start = Instant::now();
    let mut daemon = Daemon {
        child: cmd.spawn()?,
    };
    let stream = loop {
        if let Ok(s) = UnixStream::connect(&sock) {
            break s;
        }
        if let Ok(Some(status)) = daemon.child.try_wait() {
            return Err(std::io::Error::other(format!(
                "daemon exited early: {status}"
            )));
        }
        if start.elapsed() > Duration::from_secs(30) {
            return Err(std::io::Error::other("daemon did not listen within 30 s"));
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    (&stream).write_all(b"{\"op\":\"ping\",\"id\":\"setup\"}\n")?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let pong = read_line(&mut reader);
    let setup = start.elapsed().as_secs_f64();
    if !pong.is_some_and(|p| p.contains("\"pong\":true")) {
        let _ = daemon.child.kill();
        return Err(std::io::Error::other(
            "daemon did not answer the set-up ping",
        ));
    }
    Ok((daemon, stream, setup))
}

/// Runs one segment's requests against a fresh daemon.
fn run_segment(
    args: &Args,
    dir: &Path,
    jobs: usize,
    requests: &[&ServeRequest],
    seen: &mut [Seen],
) -> std::io::Result<Segment> {
    let (daemon, first, setup) = start_daemon(args, dir, jobs)?;
    let mut streams = vec![first];
    for _ in 1..SERVE_CONNS {
        let s = UnixStream::connect(dir.join("sock"))?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        streams.push(s);
    }
    let ticks_before = CpuTicks::now();
    let t0 = Instant::now() + LEAD;
    let mut per_conn: Vec<Vec<usize>> = vec![Vec::new(); SERVE_CONNS];
    for (i, r) in requests.iter().enumerate() {
        per_conn[r.conn].push(i);
    }
    let mut last_recv = t0;
    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut handles = Vec::new();
        for (conn, idxs) in per_conn.iter().enumerate() {
            let mut writer = streams[conn].try_clone()?;
            let reader = BufReader::new(streams[conn].try_clone()?);
            let sender = scope.spawn(move || {
                let mut sent = Vec::with_capacity(idxs.len());
                for &i in idxs {
                    let due = t0 + Duration::from_secs_f64(requests[i].due);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let at = Instant::now();
                    let mut bytes = requests[i].line.clone().into_bytes();
                    bytes.push(b'\n');
                    if writer.write_all(&bytes).is_err() {
                        break;
                    }
                    sent.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
                }
                sent
            });
            let receiver = scope.spawn(move || {
                let mut reader = reader;
                let mut got = Vec::with_capacity(idxs.len());
                for _ in idxs {
                    match read_line(&mut reader) {
                        Some(line) => got.push((Instant::now(), line)),
                        None => break,
                    }
                }
                got
            });
            handles.push((idxs, sender, receiver));
        }
        for (idxs, sender, receiver) in handles {
            let sent = sender.join().expect("sender thread panicked");
            let got = receiver.join().expect("receiver thread panicked");
            for (k, &i) in idxs.iter().enumerate() {
                if let Some(late) = sent.get(k) {
                    seen[i].late_ms = *late;
                }
                if let Some((at, line)) = got.get(k) {
                    let due = t0 + Duration::from_secs_f64(requests[i].due);
                    seen[i].latency_ms =
                        Some(at.saturating_duration_since(due).as_secs_f64() * 1e3);
                    seen[i].response = Some(line.clone());
                    last_recv = last_recv.max(*at);
                }
            }
        }
        Ok(())
    })?;
    let nominal_end = t0 + Duration::from_secs_f64(args.seconds / SERVE_SEGMENTS as f64);
    let span = last_recv.max(nominal_end).duration_since(t0).as_secs_f64();
    let steal_share = CpuTicks::now().steal_share_since(ticks_before);
    // The daemon's own peak while serving (its rusage would also count
    // the address space it was spawned from).
    let hwm_kb = vm_hwm_kb(daemon.child.id()).unwrap_or(0);
    (&streams[0]).write_all(b"{\"op\":\"shutdown\"}\n")?;
    let _ack = read_line(&mut BufReader::new(streams[0].try_clone()?));
    drop(streams);
    drop(daemon);
    Ok(Segment {
        setup,
        span,
        hwm_kb,
        steal_share,
    })
}

/// What one daemon lifetime measured besides the per-request times.
struct Segment {
    setup: f64,
    span: f64,
    hwm_kb: u64,
    /// Share of the runnable CPU time the hypervisor took from the
    /// vCPUs while the lifetime's traffic ran.
    steal_share: f64,
}

/// The fields of an optimize answer the gate looks at.
struct Answer {
    id: Option<String>,
    status: Option<f64>,
    rung: Option<String>,
    program: Option<String>,
}

fn decode_answer(line: &str) -> Option<Answer> {
    let doc = json::parse(line).ok()?;
    Some(Answer {
        id: doc.get("id").and_then(|v| v.as_str()).map(str::to_string),
        status: doc.get("status").and_then(|v| v.as_num()),
        rung: doc.get("rung").and_then(|v| v.as_str()).map(str::to_string),
        program: doc
            .get("program")
            .and_then(|v| v.as_str())
            .map(str::to_string),
    })
}

/// Checks one answer against its request's class. Semantic verdicts are
/// memoized per (program, answer text).
fn judge(
    req: &ServeRequest,
    response: Option<&str>,
    traffic: &Traffic,
    memo: &mut HashMap<(usize, String), Result<check::DynCounts, String>>,
) -> Result<Option<check::DynCounts>, String> {
    let line = response.ok_or("no answer")?;
    let a = decode_answer(line).ok_or("answer is not JSON")?;
    if a.id.as_deref() != Some(req.id.as_str()) {
        return Err(format!("id {:?} not echoed", req.id));
    }
    if req.class == Class::Malformed {
        return match a.status {
            Some(1.0) => Ok(None),
            other => Err(format!("malformed program answered with status {other:?}")),
        };
    }
    if a.status != Some(0.0) {
        return Err(format!("status {:?}", a.status));
    }
    let rung = a.rung.unwrap_or_default();
    if req.class.healthy() && rung != "none" {
        return Err(format!("healthy request answered at rung `{rung}`"));
    }
    let program = a.program.ok_or("answer carries no program")?;
    let verdict = memo
        .entry((req.program, program))
        .or_insert_with_key(|(idx, text)| {
            let original = parse(&traffic.programs[*idx].text).map_err(|e| e.to_string())?;
            let optimized = parse(text).map_err(|e| format!("answer does not parse: {e}"))?;
            check::equivalent(&original, &optimized)
        });
    verdict.clone().map(Some)
}

pub fn run(args: &Args, traffic: &Traffic) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let pristine = args.work.join("pristine");
    let warm_failed = build_pristine(&pristine, traffic)?;
    if warm_failed > 0 {
        out.note(format!(
            "FAIL pre-populated cache: {warm_failed} warm answer(s) not clean"
        ));
        out.attempted += warm_failed;
        out.failed += warm_failed;
    }
    let cache_bytes = std::fs::metadata(pristine.join(CACHE_FILE))?.len();
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut seen = vec![Seen::default(); traffic.requests.len()];
    let mut setups = Vec::new();
    let mut steal = Vec::new();
    let mut wall = 0.0f64;
    let mut hwm_kb = 0u64;
    let cpu_before = self_usage().cpu_s;
    for segment in 0..SERVE_SEGMENTS {
        let dir = args.work.join(format!("s{segment}"));
        fresh_copy(&pristine, &dir)?;
        flush_dirty_pages();
        let idx: Vec<usize> = (0..traffic.requests.len())
            .filter(|&i| traffic.requests[i].segment == segment)
            .collect();
        let reqs: Vec<&ServeRequest> = idx.iter().map(|&i| &traffic.requests[i]).collect();
        let mut seg_seen = vec![Seen::default(); reqs.len()];
        let measured = run_segment(args, &dir, jobs, &reqs, &mut seg_seen)?;
        setups.push(measured.setup);
        steal.push(measured.steal_share);
        wall += measured.span;
        hwm_kb = hwm_kb.max(measured.hwm_kb);
        for (k, &i) in idx.iter().enumerate() {
            seen[i] = std::mem::take(&mut seg_seen[k]);
        }
    }
    let client_cpu = self_usage().cpu_s - cpu_before;

    // Correctness gate.
    let mut memo = HashMap::new();
    // Latencies per daemon lifetime: every request, and the requests
    // that compile a new program.
    let mut by_segment: Vec<Vec<f64>> = vec![Vec::new(); SERVE_SEGMENTS];
    let mut compile: Vec<Vec<f64>> = vec![Vec::new(); SERVE_SEGMENTS];
    let mut answered = 0usize;
    let mut stmts = 0usize;
    let mut dyn_by_program: HashMap<usize, check::DynCounts> = HashMap::new();
    let mut failures_shown = 0;
    for (req, s) in traffic.requests.iter().zip(&seen) {
        let verdict = judge(req, s.response.as_deref(), traffic, &mut memo);
        out.check(verdict.is_ok());
        if s.response.is_some() {
            answered += 1;
        }
        let latency = match (&verdict, s.latency_ms) {
            (Ok(_), Some(ms)) => ms,
            _ => MISSED_MS,
        };
        by_segment[req.segment].push(latency);
        if matches!(req.class, Class::New | Class::Validate) {
            compile[req.segment].push(latency);
        }
        match verdict {
            Ok(Some(counts)) => {
                stmts += traffic.programs[req.program].stmts;
                if req.class.healthy() {
                    dyn_by_program.entry(req.program).or_insert(counts);
                }
            }
            Ok(None) => {}
            Err(e) => {
                if failures_shown < 10 {
                    out.note(format!("FAIL {} ({}): {e}", req.id, req.class.label()));
                    failures_shown += 1;
                }
            }
        }
    }
    let mut ratios = check::Ratios::default();
    for counts in dyn_by_program.values() {
        ratios.add(counts);
    }

    // Load-generator self-check.
    let late: Vec<f64> = seen.iter().map(|s| s.late_ms).collect();
    let late_p50 = quantile(&late, 0.5);
    let late_p99 = quantile(&late, 0.99);
    let cpu_us = client_cpu * 1e6 / traffic.requests.len().max(1) as f64;
    let cpu_share = ratio(client_cpu, wall);
    out.note(format!(
        "{} requests in {SERVE_SEGMENTS} daemon lifetimes ({:.1} s measured), {answered} answered; \
         pre-populated cache {cache_bytes} bytes",
        traffic.requests.len(),
        wall
    ));
    out.note(format!(
        "load generator: send lateness p50 {late_p50:.3} ms, p99 {late_p99:.3} ms, max {:.3} ms; \
         client cpu {cpu_us:.1} us/request ({:.1}% of a core)",
        quantile(&late, 1.0),
        cpu_share * 100.0
    ));
    if late_p50 > 1.0 || cpu_share > 0.5 {
        out.invalid = Some(format!(
            "load generator fell behind (send lateness p50 {late_p50:.3} ms, client cpu {:.1}% of a core)",
            cpu_share * 100.0
        ));
    }

    // The latency quantiles pool the lifetimes in which the hypervisor
    // stole the smallest share of the runnable CPU time. Steal is what
    // moves them on a shared host: lifetimes that lost 10–25% of their
    // CPU showed two to four times the p50 of those that lost 1%. The
    // share is a rate of the host, not an amount: a lifetime whose draws
    // held more compiles is runnable longer, but does not lose a larger
    // share, so the choice is blind to the request mix, and a regression
    // of one request class moves the quiet lifetimes as much as the rest.
    // Steal is counted in 10-ms ticks, so many lifetimes tie (often at
    // none); all lifetimes as quiet as the fifth quietest are pooled, so
    // no tie is broken by position.
    let mut sorted = steal.clone();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted[QUIET_SEGMENTS - 1];
    let quiet: Vec<usize> = (0..SERVE_SEGMENTS).filter(|&s| steal[s] <= cut).collect();
    let pooled = |samples: &[Vec<f64>]| -> Vec<f64> {
        quiet
            .iter()
            .flat_map(|&s| samples[s].iter().copied())
            .collect()
    };
    let (lat, compile_quiet) = (pooled(&by_segment), pooled(&compile));
    let show = |v: &mut dyn Iterator<Item = f64>| {
        v.map(|x| format!("{x:.2}")).collect::<Vec<_>>().join(" ")
    };
    out.note(format!(
        "per-lifetime steal % of runnable cpu: {}",
        show(&mut steal.iter().map(|s| s * 100.0))
    ));
    out.note(format!(
        "per-lifetime lat p50 ms: {}",
        show(&mut by_segment.iter().map(|v| quantile(v, 0.5)))
    ));
    out.note(format!(
        "per-lifetime setup ms: {}",
        show(&mut setups.iter().map(|s| s * 1e3))
    ));
    out.note(format!(
        "latency pooled over the {} quietest lifetimes {quiet:?}: {} requests, {} compiles",
        quiet.len(),
        lat.len(),
        compile_quiet.len()
    ));

    let rss_mb = hwm_kb as f64 / 1024.0;
    out.metric("setup_s", quantile(&setups, 0.5), "s");
    out.metric("compile_ms_p50", quantile(&compile_quiet, 0.5), "ms");
    out.metric("compile_ms_p90", quantile(&compile_quiet, 0.9), "ms");
    out.metric("kstmts_per_s", ratio(stmts as f64 / 1e3, wall), "kstmt/s");
    out.metric("lat_ms_p50", quantile(&lat, 0.5), "ms");
    out.metric("lat_ms_p99", quantile(&lat, 0.99), "ms");
    out.metric("req_per_s", ratio(answered as f64, wall), "1/s");
    out.metric("peak_rss_mb", rss_mb, "MB");
    out.metric("out_stmts_ratio", ratios.stmts(), "ratio");
    out.metric("dyn_assigns_ratio", ratios.assigns(), "ratio");
    Ok(out)
}
