//! Small numeric and process helpers: quantiles, resource usage, hashing
//! and the result line.

use std::fmt::Write as _;

/// Quantile `q` in `0..=1` of `values`, by linear interpolation between
/// the closest ranks (the same rule as Python's `statistics.quantiles`
/// with `method="inclusive"`). `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a, 64 bit: fingerprints the generated inputs of a run.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Separator, so ["ab","c"] and ["a","bc"] hash apart.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// splitmix64 step: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Resource usage as reported by `getrusage(2)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Peak resident set size, KiB.
    pub max_rss_kb: u64,
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

fn usage_of(who: i32) -> Usage {
    let mut raw = RawRusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `raw` is a live, writable `struct rusage` with the Linux
    // layout of a 64-bit target (two `timeval`s then fourteen `long`s),
    // and `who` is one of the two constants the kernel accepts.
    let rc = unsafe { getrusage(who, &mut raw) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        max_rss_kb: raw.maxrss.max(0) as u64,
        cpu_s: secs(&raw.utime) + secs(&raw.stime),
    }
}

/// This process's own usage.
pub fn self_usage() -> Usage {
    usage_of(0)
}

/// Usage of every child this process has waited for; `max_rss_kb` is
/// the largest child's peak.
pub fn children_usage() -> Usage {
    usage_of(-1)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints: human-readable notes, then the result line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    /// Set when the measurement itself is unusable (the load generator,
    /// not the system, fell behind): no result is printed.
    pub invalid: Option<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation, failed or not.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The single JSON result line.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // A non-finite value is not JSON; it only arises when a run
            // measured nothing, which is reported as a failure anyway.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size (`VmHWM`) of a live process, KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

extern "C" {
    fn sync();
}

/// Writes every dirty page back before a measurement starts, so the
/// daemon's own fsyncs do not also pay for files an earlier run (or this
/// run's set-up) left in the page cache.
pub fn flush_dirty_pages() {
    // SAFETY: `sync(2)` takes no arguments, cannot fail, and touches no
    // memory of this process.
    unsafe { sync() }
}

/// Machine-wide CPU clock ticks since boot, from the first line of
/// `/proc/stat`: `busy` is user, nice, system, irq and softirq time, and
/// `steal` what the hypervisor took from the vCPUs while they were
/// runnable. Zero if unknown.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    pub busy: u64,
    pub steal: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| fields.get(i).copied().unwrap_or(0);
        CpuTicks {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// The share of runnable CPU time the hypervisor stole between
    /// `earlier` and `self`. A rate, not an amount: a stretch that
    /// simply had more work to do does not score higher.
    pub fn steal_share_since(self, earlier: CpuTicks) -> f64 {
        let steal = self.steal.saturating_sub(earlier.steal) as f64;
        let busy = self.busy.saturating_sub(earlier.busy) as f64;
        ratio(steal, steal + busy)
    }
}
