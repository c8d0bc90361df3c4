//! Span recorder for the traced run: wraps each call the benchmark makes
//! into a layer's public functions. Spans stay in memory and are reduced
//! to per-layer numbers when the run ends. Untraced, [`Spans::time`]
//! only calls through, so the end-to-end run carries no recording cost.
//! When an op ends, its spans are scaled to the reference host speed
//! measured around it (see [`crate::speed`]).

use std::time::{Duration, Instant};

/// One timed call: layer name and wall time.
struct Span {
    layer: &'static str,
    wall: Duration,
}

pub struct Spans {
    on: bool,
    spans: Vec<Span>,
    /// Index of the current op's first span.
    op_start: usize,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            spans: Vec::new(),
            op_start: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Marks the start of an op.
    pub fn begin_op(&mut self) {
        self.op_start = self.spans.len();
    }

    /// Scales every span recorded since [`begin_op`](Self::begin_op) by
    /// the op's host-speed factor.
    pub fn end_op(&mut self, scale: f64) {
        for s in &mut self.spans[self.op_start..] {
            s.wall = s.wall.mul_f64(scale);
        }
    }

    /// Runs `f`, recording its wall time under `layer` when tracing.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.record(layer, t.elapsed());
        out
    }

    /// Records an already measured span.
    pub fn record(&mut self, layer: &'static str, wall: Duration) {
        if self.on {
            self.spans.push(Span { layer, wall });
        }
    }

    /// Per-op wall times (ms) of `layer`, in op order.
    pub fn ms(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.wall.as_secs_f64() * 1e3)
            .collect()
    }

    /// Total wall (s) of the listed layers.
    pub fn total_s(&self, layers: &[&str]) -> f64 {
        self.spans
            .iter()
            .filter(|s| layers.contains(&s.layer))
            .map(|s| s.wall.as_secs_f64())
            .sum()
    }
}
