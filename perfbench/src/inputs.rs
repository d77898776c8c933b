//! Seeded input generation. Every program and request a run uses is made
//! here from the `--seed` argument (or, for the pre-populated serve
//! cache, from a fixed seed), so equal seeds measure equal inputs.

use pdce_ir::printer::print_program;
use pdce_progen::structured::{structured, GenConfig};
use pdce_trace::json::write_escaped;

use crate::stats::{mix, Fnv64};

/// The smallest valid program: the `setup_s` probe of the opt workloads.
pub const TINY_PROGRAM: &str = "prog {\n  block s { goto e }\n  block e { halt }\n}\n";

/// One generated program in canonical text form.
#[derive(Debug, Clone)]
pub struct GenProgram {
    pub text: String,
    /// `pde` or `pfe`.
    pub mode: &'static str,
    /// Statements of the program as generated (the input size).
    pub stmts: usize,
}

/// A structured program with conditional branches (never `nondet`), so
/// the interpreter check is exact.
fn generate(seed: u64, blocks: usize, vars: usize, mode: &'static str) -> GenProgram {
    let prog = structured(&GenConfig {
        seed,
        target_blocks: blocks,
        num_vars: vars,
        stmts_per_block: (1, 4),
        out_prob: 0.2,
        loop_prob: 0.3,
        max_depth: 12,
        expr_depth: 2,
        nondet: false,
    });
    GenProgram {
        stmts: prog.num_stmts(),
        text: print_program(&prog),
        mode,
    }
}

/// A small deterministic permutation (Fisher–Yates on a splitmix stream).
fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The opt workloads' program sets. Sizes are evenly spread over the
/// workload's range, so every seed measures the same size mix and only
/// the program structure varies; the order is a seeded shuffle, so size
/// and position in the closed loop are unrelated. The sets are large
/// (the closed loop compiles each pfe program about once or twice, each
/// pde program about five times per run) because the compile time of
/// one program varies with its structure by about 15% at a given size:
/// a quantile over few distinct programs jumps from seed to seed.
pub fn opt_set(workload: &str, seed: u64) -> Vec<GenProgram> {
    let (lo, hi, mode, n) = match workload {
        "opt-pfe-wide" => (64usize, 256usize, "pfe", 160usize),
        "opt-pde-narrow" => (256, 512, "pde", 640),
        other => unreachable!("not an opt workload: {other}"),
    };
    let mut set: Vec<GenProgram> = (0..n)
        .map(|i| {
            let blocks = lo + (hi - lo) * i / (n - 1);
            let vars = if mode == "pfe" { blocks } else { 8 };
            generate(mix(seed, 0x0b_0000 + i as u64), blocks, vars, mode)
        })
        .collect();
    shuffle(&mut set, mix(seed, 0x5eed));
    set
}

/// What a serve request is meant to exercise, and so which answer is
/// correct for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Byte-identical repeat of a program the daemon has already
    /// answered or holds in its cache (alias-memo hit after the first).
    Repeat,
    /// A cached program with a unique comment and new layout: parse,
    /// canonical print and key, then a cache hit.
    Reformat,
    /// A program never sent before: optimize plus WAL append.
    New,
    /// A new program carrying `"validate":K` (translation validation).
    Validate,
    /// A truncated program: status 1 is the right answer.
    Malformed,
    /// `"max_pops":1`, far below what the program needs: the ladder
    /// degrades it and repeats end in quarantine. Any rung is correct as
    /// long as the answer is equivalent.
    Starved,
}

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Class::Repeat => "repeat",
            Class::Reformat => "reformat",
            Class::New => "new",
            Class::Validate => "validate",
            Class::Malformed => "malformed",
            Class::Starved => "starved",
        }
    }

    /// Healthy requests must be answered at rung `none`.
    pub fn healthy(self) -> bool {
        !matches!(self, Class::Malformed | Class::Starved)
    }
}

/// One request of the serve traffic.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    pub id: String,
    pub class: Class,
    /// Index into [`Traffic::programs`] of the program the text encodes.
    pub program: usize,
    /// The request line, without the trailing newline.
    pub line: String,
    /// Due time, seconds from its segment's start.
    pub due: f64,
    pub segment: usize,
    pub conn: usize,
}

/// The serve workload's inputs.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// Every program any request encodes: the warm corpus first, then
    /// the run's own programs.
    pub programs: Vec<GenProgram>,
    /// Requests in due order, segment by segment.
    pub requests: Vec<ServeRequest>,
    /// Lines that build the pre-populated cache, in order: the warm
    /// corpus, then starved requests that strike a few programs out.
    pub warm_lines: Vec<String>,
    pub starve_lines: Vec<String>,
}

/// Offered load, requests per second (about half of what the daemon
/// sustains at the commit the benchmark was defined on; see README).
pub const SERVE_RATE: f64 = 350.0;
/// Daemon restarts per run; each restart is one `setup_s` sample.
pub const SERVE_SEGMENTS: usize = 20;
/// Client connections (at most `nproc` on the 2-core reference box).
pub const SERVE_CONNS: usize = 2;
/// Programs in the pre-populated cache (fixed seed, independent of the
/// run's seed, so every run replays the same cache).
const WARM_CORPUS: usize = 600;
/// Programs of the warm corpus the traffic repeats.
const HOT_SET: usize = 96;
/// Programs struck out into the pre-populated quarantine file.
const PRE_QUARANTINED: usize = 4;
/// Programs the run starves itself (struck out during each segment).
const RUN_STARVED: usize = 6;
/// Minimum number of requests between two starved ones, so degraded
/// answers stay far below the breaker's trip rate.
const STARVE_SPACING: usize = 24;
/// Translation-validation vectors of `Validate` requests.
pub const VALIDATE_K: u32 = 4;
const WARM_SEED: u64 = 0x57a2_4c0a;

pub fn request_line(id: &str, mode: &str, program: &str, extra: &str) -> String {
    let mut line = String::with_capacity(program.len() + 96);
    line.push_str("{\"id\":");
    write_escaped(&mut line, id);
    line.push_str(",\"op\":\"optimize\",\"mode\":\"");
    line.push_str(mode);
    line.push_str("\",\"program\":");
    write_escaped(&mut line, program);
    line.push_str(extra);
    line.push('}');
    line
}

/// Same program, different bytes: a unique comment on top and a
/// different indentation. The canonical print is unchanged.
pub fn reformat(text: &str, tag: &str) -> String {
    let mut out = format!("// {tag}\n");
    for line in text.lines() {
        out.push_str(line.trim_start());
        out.push_str("\n\n");
    }
    out
}

/// Cut in half: the closing brace of `prog` is always lost, so the
/// parse fails.
pub fn malformed(text: &str) -> String {
    let mut cut = text.len() / 2;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text[..cut].to_string()
}

fn small_program(seed: u64) -> GenProgram {
    let blocks = 16 + (mix(seed, 1) % 33) as usize;
    let vars = 6 + (mix(seed, 2) % 11) as usize;
    let mode = if mix(seed, 3).is_multiple_of(2) {
        "pde"
    } else {
        "pfe"
    };
    generate(seed, blocks, vars, mode)
}

/// The serve workload: warm corpus (fixed), then a seeded open-loop
/// schedule of `seconds` worth of requests at `rate` per second, split
/// into [`SERVE_SEGMENTS`] daemon lifetimes.
pub fn serve_traffic(seed: u64, seconds: f64, rate: f64) -> Traffic {
    let mut programs: Vec<GenProgram> = (0..WARM_CORPUS)
        .map(|i| small_program(mix(WARM_SEED, i as u64)))
        .collect();
    let warm_lines: Vec<String> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| request_line(&format!("w{i}"), p.mode, &p.text, ""))
        .collect();
    // The pre-quarantined programs are drawn from outside the warm
    // corpus (seed salt) so their healthy variants are not cached.
    let mut starved_pool: Vec<usize> = Vec::new();
    let mut starve_lines = Vec::new();
    for i in 0..PRE_QUARANTINED {
        programs.push(small_program(mix(WARM_SEED, 0xdead_0000 + i as u64)));
        let idx = programs.len() - 1;
        starved_pool.push(idx);
        for strike in 0..3 {
            starve_lines.push(request_line(
                &format!("q{i}-{strike}"),
                programs[idx].mode,
                &programs[idx].text,
                ",\"max_pops\":1",
            ));
        }
    }
    for i in 0..RUN_STARVED {
        programs.push(small_program(mix(seed, 0x57a7_0000 + i as u64)));
        starved_pool.push(programs.len() - 1);
    }

    let seg_seconds = seconds / SERVE_SEGMENTS as f64;
    let mut requests = Vec::new();
    let mut new_counter = 0u64;
    let mut draw = 0u64;
    let mut next = |salt: u64| {
        draw += 1;
        mix(seed, draw.wrapping_mul(0x1_0000).wrapping_add(salt))
    };
    let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
    for segment in 0..SERVE_SEGMENTS {
        let mut t = 0.0f64;
        // Programs answered (hence cached) earlier in this segment.
        let mut fresh: Vec<usize> = Vec::new();
        let mut since_starved = STARVE_SPACING;
        let mut n = 0usize;
        loop {
            // Poisson arrivals: exponential gaps at the offered rate.
            t += -(1.0 - unit(next(1))).ln() / rate;
            if t >= seg_seconds {
                break;
            }
            let roll = unit(next(2));
            let mut class = match roll {
                r if r < 0.48 => Class::Repeat,
                r if r < 0.68 => Class::Reformat,
                r if r < 0.90 => Class::New,
                r if r < 0.95 => Class::Validate,
                r if r < 0.98 => Class::Malformed,
                _ => Class::Starved,
            };
            if class == Class::Starved && since_starved < STARVE_SPACING {
                class = Class::Repeat;
            }
            since_starved = if class == Class::Starved {
                0
            } else {
                since_starved + 1
            };
            let id = format!("r{segment}-{n}");
            let pick = next(3);
            let hot = (pick % HOT_SET as u64) as usize;
            let (program, text, extra) = match class {
                Class::Repeat => {
                    // Half the repeats go to programs this segment
                    // already computed, half to the warm corpus.
                    let idx = if !fresh.is_empty() && pick % 2 == 0 {
                        fresh[((pick >> 8) % fresh.len() as u64) as usize]
                    } else {
                        hot
                    };
                    (idx, programs[idx].text.clone(), String::new())
                }
                Class::Reformat => (hot, reformat(&programs[hot].text, &id), String::new()),
                Class::New | Class::Validate => {
                    new_counter += 1;
                    programs.push(small_program(mix(seed, 0x4e55_0000 + new_counter)));
                    let idx = programs.len() - 1;
                    // A repeat must carry the same options to hit, so
                    // only plain new programs are repeated.
                    if class == Class::New {
                        fresh.push(idx);
                    }
                    let extra = if class == Class::Validate {
                        format!(",\"validate\":{VALIDATE_K}")
                    } else {
                        String::new()
                    };
                    (idx, programs[idx].text.clone(), extra)
                }
                Class::Malformed => (hot, malformed(&programs[hot].text), String::new()),
                Class::Starved => {
                    let idx = starved_pool[(pick % starved_pool.len() as u64) as usize];
                    (
                        idx,
                        programs[idx].text.clone(),
                        ",\"max_pops\":1".to_string(),
                    )
                }
            };
            let line = request_line(&id, programs[program].mode, &text, &extra);
            requests.push(ServeRequest {
                id,
                class,
                program,
                line,
                due: t,
                segment,
                conn: n % SERVE_CONNS,
            });
            n += 1;
        }
    }
    Traffic {
        programs,
        requests,
        warm_lines,
        starve_lines,
    }
}

/// Fingerprint of a run's generated inputs.
pub fn fingerprint<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = Fnv64::default();
    for t in texts {
        h.write(t.as_bytes());
    }
    h.finish()
}

/// Requests that put each program of an opt set through every serve
/// path: a miss, two verbatim repeats, a reformatted repeat, a validated
/// miss and a malformed copy; every eighth program is also starved
/// until it is quarantined (rarely enough that the breaker stays
/// closed). The traced replay of the opt workloads uses them to time the
/// serving layers on the workload's own programs.
pub fn synthetic_requests(set: &[GenProgram]) -> Vec<ServeRequest> {
    let mut out = Vec::new();
    for (i, p) in set.iter().enumerate() {
        let validate = format!(",\"validate\":{VALIDATE_K}");
        let mut plan: Vec<(Class, String, &str)> = vec![
            (Class::New, p.text.clone(), ""),
            (Class::Repeat, p.text.clone(), ""),
            (Class::Repeat, p.text.clone(), ""),
            (Class::Reformat, reformat(&p.text, &format!("p{i}")), ""),
            (Class::Validate, p.text.clone(), &validate),
            (Class::Malformed, malformed(&p.text), ""),
        ];
        if i % 8 == 0 {
            for _ in 0..4 {
                plan.push((Class::Starved, p.text.clone(), ",\"max_pops\":1"));
            }
        }
        for (k, (class, text, extra)) in plan.into_iter().enumerate() {
            let id = format!("p{i}-{k}");
            out.push(ServeRequest {
                line: request_line(&id, p.mode, &text, extra),
                id,
                class,
                program: i,
                due: 0.0,
                segment: 0,
                conn: 0,
            });
        }
    }
    out
}
