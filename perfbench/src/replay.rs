//! The traced replay (`--trace 1`): times calls into the public
//! functions of `pdce-ir`, `pdce-dfa`, `pdce-core` and `pdce-serve` on the
//! workload's own generated inputs, so a run can say where its time went.
//!
//! The optimizer replay drives `split_critical_edges` and then rounds of
//! `eliminate_fixpoint_cached` and `sink_assignments_cached` on one
//! `AnalysisCache`, exactly as `pdce_core::driver` does, and its printed output
//! must be byte-identical to `pdce opt`'s, for every program of the set.
//! Cold analyses and translation validation are timed on clones of each
//! round's input, outside the replay's timeline. The serve replay answers
//! the workload's requests through `Server::respond_line`, takes cache
//! outcomes from the server's own counters, and times the serving layers
//! beside it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use pdce_core::driver::{optimize_resilient, PdceConfig};
use pdce_core::elim::{eliminate_fixpoint_cached, Mode};
use pdce_core::sink::sink_assignments_cached;
use pdce_core::tv::{validate_pair, TvOptions};
use pdce_core::{DeadSolution, DelayInfo, FaintSolution, LocalInfo, PatternTable};
use pdce_dfa::{AnalysisCache, DuGraph};
use pdce_ir::edgesplit::split_critical_edges;
use pdce_ir::parser::parse;
use pdce_ir::printer::print_program;
use pdce_ir::{CfgView, Program};
use pdce_serve::cache::DEFAULT_FSYNC_EVERY;
use pdce_serve::protocol::render_result;
use pdce_serve::{CacheKey, Op, PersistentCache, Request, ResultPayload, ServeOptions, Server};
use pdce_trace::json;

use crate::inputs::{Class, GenProgram, ServeRequest, Traffic};
use crate::opt::{invoke, write_set};
use crate::serve::{build_pristine, fresh_copy};
use crate::stats::{mean, median, ratio, Outcome};
use crate::Args;

/// One recorded span. Spans are kept in memory and written out when the
/// run ends.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// The program (`p…`) or request id the span belongs to.
    subject: String,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, subject: &str) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            subject: subject.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a span; returns its result and duration in ns.
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        subject: &str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(name, parent, subject);
        let r = f();
        (r, self.end(id))
    }

    /// Total and self time per span name, in ns. Self time is a span's
    /// duration minus the part its children cover.
    fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child_ns[i]);
        }
        out
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"subject\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.subject, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_nanos() as u64)
}

/// Per-program results of the optimizer replay; times in ns.
#[derive(Default)]
struct ProgramReport {
    cli_ns: u64,
    parse_ns: u64,
    optimize_ns: u64,
    print_ns: u64,
    replay_ns: u64,
    split_ns: u64,
    elim_ns: u64,
    sink_ns: u64,
    cfgview_ns: u64,
    du_ns: u64,
    dead_ns: u64,
    delay_ns: u64,
    faint_ns: u64,
    tv_ns: u64,
    rounds: u64,
    useful_rounds: u64,
    sunk: u64,
    inserted: u64,
    eliminated: u64,
    cache_hits: u64,
    cache_lookups: u64,
    pops: u64,
}

fn config_for(mode: &str) -> PdceConfig {
    if mode == "pfe" {
        PdceConfig::pfe()
    } else {
        PdceConfig::pde()
    }
}

/// The driver's round loop, untraced: `split_critical_edges`, then
/// rounds of `eliminate_fixpoint_cached` and `sink_assignments_cached` on
/// one `AnalysisCache` until a round changes nothing. Returns each
/// round's input followed by the final program, and whether each round
/// changed the program.
fn round_loop(text: &str, mode: Mode) -> Result<(Vec<Program>, Vec<bool>), String> {
    let mut prog = parse(text).map_err(|e| format!("input does not parse: {e}"))?;
    let mut cache = AnalysisCache::new();
    split_critical_edges(&mut prog);
    let cap = PdceConfig::default_round_cap(&prog);
    let mut round_inputs: Vec<Program> = Vec::new();
    let mut changed: Vec<bool> = Vec::new();
    loop {
        if changed.len() >= cap {
            return Err(format!("no fixpoint within {cap} rounds"));
        }
        round_inputs.push(prog.clone());
        let before = prog.revision();
        eliminate_fixpoint_cached(&mut prog, &mut cache, mode, None);
        sink_assignments_cached(&mut prog, &mut cache, None)
            .map_err(|_| "critical edge left after splitting".to_string())?;
        changed.push(prog.revision() != before);
        if prog.revision() == before {
            break;
        }
    }
    round_inputs.push(prog);
    Ok((round_inputs, changed))
}

fn elim_mode(program: &GenProgram) -> Mode {
    if program.mode == "pfe" {
        Mode::Faint
    } else {
        Mode::Dead
    }
}

/// Replays one program. `Err` when the replay's output differs from
/// `pdce opt`'s or from the untraced in-process run.
fn replay_program(
    t: &mut Tracer,
    subject: &str,
    program: &GenProgram,
    cli_out: &str,
) -> Result<ProgramReport, String> {
    let mut r = ProgramReport::default();
    let config = config_for(program.mode);

    // Untraced reference: what the CLI does in process, after one
    // untimed run so that it and the traced replay both start warm.
    if let Ok(mut warm) = parse(&program.text) {
        optimize_resilient(&mut warm, &config);
    }
    let (parsed, parse_ns) = timed(|| parse(&program.text));
    let mut prog = parsed.map_err(|e| format!("input does not parse: {e}"))?;
    let (stats, optimize_ns) = timed(|| optimize_resilient(&mut prog, &config));
    let (untraced, print_ns) = timed(|| print_program(&prog));
    r.parse_ns = parse_ns;
    r.optimize_ns = optimize_ns;
    r.print_ns = print_ns;
    r.sunk = stats.sunk_assignments;
    r.inserted = stats.inserted_assignments;
    r.eliminated = stats.eliminated_assignments;
    r.cache_hits = stats.cache.hits();
    r.cache_lookups = stats.cache.hits() + stats.cache.misses();
    r.pops = stats.solver.pops();

    // Traced replay of the optimizer's round loop.
    let mode = elim_mode(program);
    let root = t.begin("program", None, subject);
    let (parsed, _) = t.time("parse", Some(root), subject, || parse(&program.text));
    let mut prog = parsed.map_err(|e| e.to_string())?;
    let opt_span = t.begin("optimize", Some(root), subject);
    let mut cache = AnalysisCache::new();
    let (_, split_ns) = t.time("split", Some(opt_span), subject, || {
        split_critical_edges(&mut prog)
    });
    r.split_ns = split_ns;
    let cap = PdceConfig::default_round_cap(&prog);
    loop {
        r.rounds += 1;
        if r.rounds as usize > cap {
            return Err(format!("no fixpoint within {cap} rounds"));
        }
        let before = prog.revision();
        let round = t.begin("round", Some(opt_span), subject);
        let (_, elim_ns) = t.time("elim", Some(round), subject, || {
            eliminate_fixpoint_cached(&mut prog, &mut cache, mode, None)
        });
        let (sunk, sink_ns) = t.time("sink", Some(round), subject, || {
            sink_assignments_cached(&mut prog, &mut cache, None)
        });
        t.end(round);
        sunk.map_err(|_| "critical edge left after splitting".to_string())?;
        r.elim_ns += elim_ns;
        r.sink_ns += sink_ns;
        if prog.revision() == before {
            break;
        }
        r.useful_rounds += 1;
    }
    r.replay_ns = t.end(opt_span);
    let (replayed, _) = t.time("print", Some(root), subject, || print_program(&prog));
    t.end(root);

    // The same loop again, untraced, keeping each round's input for the
    // cold analyses and TV (cloning inside the timeline would be
    // tracing overhead).
    let (round_inputs, changed) = round_loop(&program.text, mode)?;

    // Cold analyses and TV on clones, outside the timeline.
    for (k, input) in round_inputs[..round_inputs.len() - 1].iter().enumerate() {
        let (view, ns) = timed(|| CfgView::new(input));
        r.cfgview_ns += ns;
        let (du, ns) = timed(|| DuGraph::build(input, &view));
        r.du_ns += ns;
        let (_, ns) = timed(|| std::hint::black_box(DeadSolution::compute(input, &view)));
        r.dead_ns += ns;
        let table = PatternTable::build(input);
        let local = LocalInfo::compute(input, &table);
        let (_, ns) =
            timed(|| std::hint::black_box(DelayInfo::compute(input, &view, &table, &local)));
        r.delay_ns += ns;
        let (_, ns) =
            timed(|| std::hint::black_box(FaintSolution::compute_with_du(input, &view, &du)));
        r.faint_ns += ns;
        if changed[k] {
            let opts = TvOptions {
                max_block_visits: (input.num_blocks() as u64 * 8).max(256),
                ..TvOptions::default()
            };
            let (report, ns) = timed(|| validate_pair(input, &round_inputs[k + 1], &opts));
            r.tv_ns += ns;
            if !report.ok() {
                return Err("translation validation found a difference".to_string());
            }
        }
    }

    if replayed != untraced {
        return Err("replay output differs from the in-process optimize".to_string());
    }
    if replayed != cli_out {
        return Err("replay output differs from `pdce opt`".to_string());
    }
    Ok(r)
}

/// Serve-replay timings, ns per call, grouped by layer.
#[derive(Default)]
struct ServeReport {
    decode: Vec<f64>,
    key: Vec<f64>,
    encode: Vec<f64>,
    cache_get: Vec<f64>,
    cache_insert: Vec<f64>,
    wal_replay: Vec<f64>,
    respond: BTreeMap<&'static str, Vec<f64>>,
    /// Optimize requests whose program parses.
    optimize_requests: u64,
    /// Of those, answered from the server's cache (its own hit counter).
    hits: u64,
    /// Of the hits, the ones whose raw text the alias memo resolved.
    alias_hits: u64,
    degraded: u64,
    /// Lookups on which the replay's copy of the cache and the server
    /// disagreed about a hit.
    key_mismatches: u64,
}

/// The option string `Server::canonical_options` keys a request with on
/// a server started with `opts`: each budget clamped to the server-wide
/// cap, then validation and solver, falling back to the server's. Keys
/// built from it address the entries the server reads and writes;
/// `ServeReport::key_mismatches` shows when they stop doing so.
fn server_options(req: &Request, opts: &ServeOptions) -> String {
    let admitted = |requested: Option<u64>, cap: Option<u64>| match (requested, cap) {
        (Some(r), Some(c)) => Some(r.min(c)),
        (r, c) => r.or(c),
    };
    let show = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    format!(
        "mode={};rounds={};pops={};wall={};validate={};solver={}",
        req.mode.label(),
        show(admitted(req.max_rounds, opts.max_rounds)),
        show(admitted(req.max_pops, opts.max_pops)),
        show(admitted(req.wall_ms, opts.wall_ms)),
        show(req.validate.or(opts.validate).map(u64::from)),
        req.solver.or(opts.strategy).map_or("ambient", |s| s.name()),
    )
}

fn payload_of(answer: &json::Value) -> Option<ResultPayload> {
    let num = |k: &str| answer.get(k).and_then(|v| v.as_num()).map(|n| n as u64);
    Some(ResultPayload {
        program: answer.get("program")?.as_str()?.to_string(),
        rounds: num("rounds")?,
        eliminated: num("eliminated")?,
        sunk: num("sunk")?,
        inserted: num("inserted")?,
        rung: answer.get("rung")?.as_str()?.to_string(),
    })
}

fn load_cache(path: &Path) -> PersistentCache {
    PersistentCache::load_with_fsync(
        path,
        ServeOptions::default().cache_bytes,
        DEFAULT_FSYNC_EVERY,
    )
}

/// Answers `requests` through an in-process `Server` on fresh copies of
/// the pre-populated cache (one per segment, as the daemon lifetimes of
/// the end-to-end run). Whether a request hit is read from the server's
/// own counters (`Server::summary`). Beside each call the replay times
/// the serving layers, the cache ones on a second WAL-backed copy of the
/// same cache that it looks up, aliases and fills as the server does.
/// Returns the requests answered and how many of the answers had the
/// wrong status for their class or a degraded rung on a healthy request.
fn replay_serve(
    t: &mut Tracer,
    work: &Path,
    pristine: &Path,
    requests: &[ServeRequest],
    deadline: Instant,
    report: &mut ServeReport,
) -> std::io::Result<(u64, u64)> {
    for k in 0..5 {
        let path = fresh_copy(pristine, &work.join(format!("replay-wal{k}")))?;
        let (cache, ns) = timed(|| load_cache(&path));
        drop(cache);
        report.wal_replay.push(ns as f64 / 1e6);
    }
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut segment = usize::MAX;
    let mut lifetime: Option<(Server, PersistentCache)> = None;
    for req in requests {
        if Instant::now() >= deadline && attempted >= MIN_REQUESTS {
            break;
        }
        if req.segment != segment {
            segment = req.segment;
            let path = fresh_copy(pristine, &work.join("replay-server"))?;
            let server = Server::new(ServeOptions {
                cache_path: Some(path),
                ..ServeOptions::default()
            });
            let copy = load_cache(&fresh_copy(pristine, &work.join("replay-copy"))?);
            lifetime = Some((server, copy));
        }
        let (server, copy) = lifetime.as_mut().expect("set above");
        attempted += 1;
        let span = t.begin("request", None, &req.id);
        let (decoded, ns) = t.time("decode", Some(span), &req.id, || Request::decode(&req.line));
        report.decode.push(ns as f64);
        let decoded = decoded.ok().filter(|d| d.op == Op::Optimize);
        let canonical = decoded
            .as_ref()
            .and_then(|d| parse(&d.program).ok())
            .map(|p| print_program(&p));
        let keys = match (&decoded, &canonical) {
            (Some(d), Some(c)) => {
                let opts = server_options(d, server.options());
                let raw = CacheKey::compute(&d.program, &opts);
                let (key, ns) = t.time("key", Some(span), &req.id, || CacheKey::compute(c, &opts));
                report.key.push(ns as f64);
                Some((raw, key))
            }
            _ => None,
        };
        let hits_before = server.summary().cache_hits;
        let (answer, respond_ns) = t.time("respond", Some(span), &req.id, || {
            server.respond_line(&req.line)
        });
        let hit = server.summary().cache_hits > hits_before;
        let answer = answer.and_then(|a| json::parse(&a).ok());
        let status = answer
            .as_ref()
            .and_then(|a| a.get("status"))
            .and_then(|v| v.as_num());
        let expected = if req.class == Class::Malformed {
            1.0
        } else {
            0.0
        };
        let payload = answer.as_ref().and_then(payload_of);
        let healthy_ok = !req.class.healthy() || payload.as_ref().is_some_and(|p| p.rung == "none");
        if status != Some(expected) || !healthy_ok {
            failed += 1;
        }
        let mut class = "bad_input";
        if let Some((raw, key)) = keys {
            // The server's lookup order: the alias memo, else record the
            // alias and read the canonical entry.
            let (found, ns) = t.time("cache_get", Some(span), &req.id, || {
                if let Some(p) = copy.get_raw_alias(raw) {
                    return Some((true, p));
                }
                copy.record_alias(raw, key);
                copy.get(key).map(|p| (false, p))
            });
            report.cache_get.push(ns as f64);
            report.key_mismatches += u64::from(found.is_some() != hit);
            let via_alias = found.is_some_and(|(alias, _)| alias);
            class = match decoded.as_ref().and_then(|d| d.max_pops) {
                Some(_) => "starved",
                None if hit && via_alias => "alias_hit",
                None if hit => "canon_hit",
                None => "miss",
            };
            report.optimize_requests += 1;
            report.hits += u64::from(hit);
            report.alias_hits += u64::from(hit && via_alias);
            if let Some(payload) = &payload {
                report.degraded += u64::from(payload.rung != "none");
                let (_, ns) = t.time("encode", Some(span), &req.id, || {
                    render_result(&Some(req.id.clone()), payload)
                });
                report.encode.push(ns as f64);
                // The server keeps only clean computed answers.
                if !hit && payload.rung == "none" {
                    let (_, ns) = t.time("cache_insert", Some(span), &req.id, || {
                        copy.insert(key, payload.clone())
                    });
                    report.cache_insert.push(ns as f64);
                }
            }
        }
        report
            .respond
            .entry(class)
            .or_default()
            .push(respond_ns as f64);
        t.end(span);
    }
    Ok((attempted, failed))
}

/// Programs the timed optimizer replay covers even past its time share.
const MIN_PROGRAMS: usize = 32;
/// Share of the replayed `optimize` time the layer spans must cover, or
/// the attribution is incomplete and the run fails its check.
const MIN_COVERAGE: f64 = 0.9;
/// Requests the serve replay answers even past the deadline (enough for
/// every request class to appear).
const MIN_REQUESTS: u64 = 100;

/// Checks one program outside the timed prefix: the untraced round loop
/// must print exactly what `pdce opt` prints.
fn check_identity(pdce: &Path, program: &GenProgram, file: &Path) -> Result<(), String> {
    let cli = invoke(pdce, program.mode, file);
    if !cli.ok {
        return Err("`pdce opt` failed".to_string());
    }
    let (rounds, _) = round_loop(&program.text, elim_mode(program))?;
    let last = rounds.last().expect("round_loop returns the final program");
    if print_program(last) != cli.stdout {
        return Err("replay output differs from `pdce opt`".to_string());
    }
    Ok(())
}

/// Runs [`check_identity`] on `programs[from..]` over two threads.
/// Returns the failures, by program index.
fn check_rest(
    pdce: &Path,
    programs: &[GenProgram],
    files: &[std::path::PathBuf],
    from: usize,
) -> Vec<(usize, String)> {
    let next = AtomicUsize::new(from);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut failures: Vec<(usize, String)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut failed = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(program) = programs.get(i) else {
                            return failed;
                        };
                        if let Err(e) = check_identity(pdce, program, &files[i]) {
                            failed.push((i, e));
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("identity check thread panicked"))
            .collect()
    });
    failures.sort_by_key(|(i, _)| *i);
    failures
}

/// The traced run: the timed optimizer replay over a prefix of
/// `programs` (a seeded shuffle, so every size band is represented) for
/// about 60% of `--seconds`, then the serve replay over `requests` for
/// the rest. After the timed part, every program the prefix did not
/// reach is checked for byte identity with `pdce opt`, untimed.
pub fn run(
    args: &Args,
    programs: &[GenProgram],
    traffic_for_cache: &Traffic,
    requests: &[ServeRequest],
) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut t = Tracer::new();
    let start = Instant::now();
    let opt_deadline = start + std::time::Duration::from_secs_f64(args.seconds * 0.6);
    let (files, _tiny) = write_set(&args.work, programs)?;
    let mut reports: Vec<ProgramReport> = Vec::new();
    let mut mismatches = 0u64;
    for (i, program) in programs.iter().enumerate() {
        if i >= MIN_PROGRAMS && Instant::now() >= opt_deadline {
            break;
        }
        let cli = invoke(&args.pdce, program.mode, &files[i]);
        let subject = format!("p{i}");
        let result = if cli.ok {
            replay_program(&mut t, &subject, program, &cli.stdout)
        } else {
            Err("`pdce opt` failed".to_string())
        };
        out.check(result.is_ok());
        match result {
            Ok(mut r) => {
                r.cli_ns = cli.wall.as_nanos() as u64;
                reports.push(r);
            }
            Err(e) => {
                mismatches += 1;
                out.note(format!("FAIL {subject}: {e}"));
            }
        }
    }

    let pristine = args.work.join("pristine");
    let warm_failed = build_pristine(&pristine, traffic_for_cache)?;
    out.attempted += 1;
    out.failed += u64::from(warm_failed > 0);
    let mut serve = ServeReport::default();
    let deadline = Instant::now().max(start + std::time::Duration::from_secs_f64(args.seconds));
    let (served, serve_failed) = replay_serve(
        &mut t, &args.work, &pristine, requests, deadline, &mut serve,
    )?;
    out.attempted += served;
    out.failed += serve_failed;

    let timed_programs = reports.len() + mismatches as usize;
    let rest = check_rest(&args.pdce, programs, &files, timed_programs);
    out.attempted += (programs.len() - timed_programs) as u64;
    out.failed += rest.len() as u64;
    mismatches += rest.len() as u64;
    for (i, e) in &rest {
        out.note(format!("FAIL p{i}: {e}"));
    }

    let spans_path = args.work.join("spans.jsonl");
    t.write_jsonl(&spans_path)?;

    // Per-program medians (each value is the program's total in a layer).
    let med = |f: &dyn Fn(&ProgramReport) -> u64| {
        median(&reports.iter().map(|r| us(f(r))).collect::<Vec<_>>())
    };
    let sum = |f: &dyn Fn(&ProgramReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let n = reports.len().max(1) as f64;
    // Coverage: the share of the replay's optimize span that its layer
    // spans account for. Overhead: the replay against untraced optimize.
    let covered = sum(&|r| r.split_ns + r.elim_ns + r.sink_ns);
    let untraced = sum(&|r| r.optimize_ns);
    let replayed = sum(&|r| r.replay_ns);
    out.metric("ir.parse_us", med(&|r| r.parse_ns), "us");
    out.metric("ir.split_us", med(&|r| r.split_ns), "us");
    out.metric("ir.cfgview_us", med(&|r| r.cfgview_ns), "us");
    out.metric("ir.print_us", med(&|r| r.print_ns), "us");
    out.metric("dfa.du_build_us", med(&|r| r.du_ns), "us");
    out.metric(
        "dfa.cache_hit_ratio",
        ratio(sum(&|r| r.cache_hits), sum(&|r| r.cache_lookups)),
        "ratio",
    );
    out.metric(
        "dfa.solver_pops",
        median(&reports.iter().map(|r| r.pops as f64).collect::<Vec<_>>()),
        "count",
    );
    out.metric("core.dead_us", med(&|r| r.dead_ns), "us");
    out.metric("core.delay_us", med(&|r| r.delay_ns), "us");
    out.metric("core.faint_us", med(&|r| r.faint_ns), "us");
    out.metric("core.elim_us", med(&|r| r.elim_ns), "us");
    out.metric("core.sink_us", med(&|r| r.sink_ns), "us");
    out.metric("core.tv_us", med(&|r| r.tv_ns), "us");
    out.metric("core.optimize_ms", med(&|r| r.optimize_ns) / 1e3, "ms");
    out.metric("core.rounds", sum(&|r| r.rounds) / n, "count");
    out.metric(
        "core.useful_round_ratio",
        ratio(sum(&|r| r.useful_rounds), sum(&|r| r.rounds)),
        "ratio",
    );
    out.metric("core.sunk", sum(&|r| r.sunk) / n, "count");
    out.metric("core.inserted", sum(&|r| r.inserted) / n, "count");
    out.metric("core.eliminated", sum(&|r| r.eliminated) / n, "count");
    out.metric(
        "cli.overhead_ms",
        median(
            &reports
                .iter()
                .map(|r| (r.cli_ns as f64 - (r.parse_ns + r.optimize_ns + r.print_ns) as f64) / 1e6)
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    let med_us = |v: &[f64]| median(v) / 1e3;
    out.metric("serve.decode_us", med_us(&serve.decode), "us");
    out.metric("serve.key_us", med_us(&serve.key), "us");
    out.metric("serve.encode_us", med_us(&serve.encode), "us");
    out.metric("serve.cache_get_us", med_us(&serve.cache_get), "us");
    // The mean, so the periodic fsync is included.
    out.metric(
        "serve.cache_insert_us",
        mean(&serve.cache_insert) / 1e3,
        "us",
    );
    out.metric("serve.wal_replay_ms", median(&serve.wal_replay), "ms");
    for class in ["alias_hit", "canon_hit", "miss", "bad_input", "starved"] {
        let v = serve.respond.get(class).map_or(&[][..], Vec::as_slice);
        out.metric(format!("serve.respond_us.{class}"), med_us(v), "us");
    }
    let reqs = serve.optimize_requests as f64;
    out.metric("serve.hit_ratio", ratio(serve.hits as f64, reqs), "ratio");
    out.metric(
        "serve.alias_hit_ratio",
        ratio(serve.alias_hits as f64, reqs),
        "ratio",
    );
    out.metric(
        "serve.degraded_ratio",
        ratio(serve.degraded as f64, reqs),
        "ratio",
    );
    let coverage = ratio(covered, replayed);
    out.check(coverage >= MIN_COVERAGE);
    if coverage < MIN_COVERAGE {
        out.note(format!(
            "FAIL replay spans cover {:.1}% of the replayed optimize time, below {:.0}%",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    out.metric("trace.coverage", coverage, "ratio");
    out.metric(
        "trace.overhead_pct",
        ratio(replayed - untraced, untraced) * 100.0,
        "%",
    );

    out.note(format!(
        "traced replay: {} of {} program(s) timed, all {} checked against `pdce opt` \
         ({mismatches} mismatch(es)); {served} request(s); spans in {}",
        reports.len(),
        programs.len(),
        programs.len(),
        spans_path.display()
    ));
    out.note(format!(
        "replay spans cover {:.1}% of the replayed optimize time; tracing overhead {:+.2}% \
         against untraced optimize",
        coverage * 100.0,
        ratio(replayed - untraced, untraced) * 100.0
    ));
    out.note(format!(
        "serve replay: {} optimize request(s), {} server cache hit(s), {} via the alias memo; \
         the replay's cache copy disagreed with the server on {} lookup(s)",
        serve.optimize_requests, serve.hits, serve.alias_hits, serve.key_mismatches
    ));
    out.note(format!(
        "{:<14} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    ));
    for (name, (count, total, own)) in t.self_times() {
        out.note(format!(
            "{name:<14} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    Ok(out)
}
