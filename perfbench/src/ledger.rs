//! Metric records, order statistics and the result line.

use std::fmt::Write as _;

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports: its metrics, how many ops it
/// attempted and how many failed (typed error, shed request or residual
/// over tolerance), and free-form notes printed before the result line.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records one failed op (at most a few messages are kept).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile `q` in `[0, 1]` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Percentiles the tail metric may use, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 50.0];

/// The tail latency: percentile `want` when at least ten samples lie
/// beyond it, else the highest lower ladder percentile that has ten.
/// Returns `(percentile, value)`; the median below 11 samples.
///
/// Each workload fixes `want` as the highest ladder percentile its
/// sample count clears with a margin. Letting the percentile follow the
/// count instead would switch it between runs whose counts straddle a
/// ladder step, and between a parent and a faster change.
pub fn tail(v: &[f64], want: f64) -> (f64, f64) {
    let n = v.len();
    for p in TAIL_LADDER.into_iter().filter(|&p| p <= want) {
        let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
        if n >= rank + 10 {
            return (p, quantile(v, p / 100.0));
        }
    }
    (50.0, median(v))
}

/// Peak resident set of this process in MiB (`getrusage` max RSS).
pub fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs,
    /// the first of which is the max RSS in KiB.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable value laid out as the C `struct
    // rusage` the call fills in; the pointer is valid for the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Relative residual `‖A·x − b‖₂ / ‖b‖₂` of one solution.
fn rel_residual(a: &rlchol_sparse::SymCsc, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    a.matvec(x, &mut ax);
    let r: f64 = ax.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum();
    let nb: f64 = b.iter().map(|q| q * q).sum();
    (r / nb).sqrt()
}

/// Residual bound every solution must meet.
const RESIDUAL_TOL: f64 = 1e-9;

/// Checks a solution, returning a failure message when it is off.
pub fn check_solution(
    a: &rlchol_sparse::SymCsc,
    x: &[f64],
    b: &[f64],
    what: &str,
) -> Result<(), String> {
    let r = rel_residual(a, x, b);
    if r.is_finite() && r <= RESIDUAL_TOL {
        Ok(())
    } else {
        Err(format!(
            "{what}: relative residual {r:e} over {RESIDUAL_TOL:e}"
        ))
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 is rank 190: exactly ten samples beyond it.
        assert_eq!(tail(&v, 95.0), (95.0, 190.0));
        assert_eq!(tail(&v, 99.0), (95.0, 190.0));
        assert_eq!(tail(&v, 90.0), (90.0, 180.0));
        assert_eq!(tail(&v[..199], 95.0), (90.0, 180.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
