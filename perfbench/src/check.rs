//! The correctness gate's semantic check: original and optimized
//! programs run under the `pdce-ir` interpreter on seeded input vectors
//! and must print the same outputs. The interpreter is independent of
//! `pdce-core`, the optimizer under test.

use pdce_ir::interp::{run, Env, ExecLimits, FirstChoice};
use pdce_ir::Program;

use crate::stats::{mix, Fnv64};

/// Input vectors per program.
pub const VECTORS: u64 = 4;

/// Block visits after which a run counts as non-terminating. The
/// generated loops are bounded, so every run ends far below this.
const MAX_VISITS: u64 = 4_000_000;

/// Sizes of both programs, and their executed assignments over all
/// vectors (the paper's run-time measure).
#[derive(Debug, Clone, Copy, Default)]
pub struct DynCounts {
    pub original: u64,
    pub optimized: u64,
    pub original_stmts: usize,
    pub optimized_stmts: usize,
}

/// Inputs are set by variable name, so a variable both programs share
/// gets the same value in both.
fn env_for(prog: &Program, vector: u64) -> Env {
    let mut env = Env::zeroed(prog);
    for v in prog.vars().iter() {
        let mut h = Fnv64::default();
        h.write(prog.vars().name(v).as_bytes());
        let value = (mix(h.finish(), vector) % 1_024) as i64 - 512;
        env.set(v, value);
    }
    env
}

/// Checks that `optimized` prints what `original` prints on every
/// vector, and counts executed assignments.
pub fn equivalent(original: &Program, optimized: &Program) -> Result<DynCounts, String> {
    let limits = ExecLimits {
        max_block_visits: MAX_VISITS,
    };
    let mut counts = DynCounts {
        original_stmts: original.num_stmts(),
        optimized_stmts: optimized.num_stmts(),
        ..DynCounts::default()
    };
    for vector in 0..VECTORS {
        let a = run(
            original,
            &mut env_for(original, vector),
            &mut FirstChoice,
            limits,
        );
        let b = run(
            optimized,
            &mut env_for(optimized, vector),
            &mut FirstChoice,
            limits,
        );
        if !a.completed || !b.completed {
            return Err(format!(
                "vector {vector}: run did not finish within {MAX_VISITS} block visits"
            ));
        }
        if a.outputs != b.outputs {
            return Err(format!(
                "vector {vector}: outputs differ ({} vs {} values)",
                a.outputs.len(),
                b.outputs.len()
            ));
        }
        counts.original += a.executed_assignments;
        counts.optimized += b.executed_assignments;
    }
    Ok(counts)
}

/// Geometric means over programs of the optimized / original ratios of
/// static size and of executed assignments. A geometric mean of
/// per-program ratios weighs every program alike; a ratio of sums would
/// be dominated by the few programs whose loop nests run longest.
#[derive(Debug, Default)]
pub struct Ratios {
    log_stmts: Vec<f64>,
    log_assigns: Vec<f64>,
}

impl Ratios {
    pub fn add(&mut self, d: &DynCounts) {
        // +1 keeps a program optimized down to nothing finite.
        let log_ratio = |new: f64, old: f64| ((new + 1.0) / (old + 1.0)).ln();
        self.log_stmts
            .push(log_ratio(d.optimized_stmts as f64, d.original_stmts as f64));
        self.log_assigns
            .push(log_ratio(d.optimized as f64, d.original as f64));
    }

    pub fn stmts(&self) -> f64 {
        crate::stats::mean(&self.log_stmts).exp()
    }

    pub fn assigns(&self) -> f64 {
        crate::stats::mean(&self.log_assigns).exp()
    }
}
