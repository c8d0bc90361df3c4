//! Host-speed calibration.
//!
//! On a shared virtual host a vCPU's speed drifts by tens of percent in
//! phases lasting seconds (a fixed scalar loop pinned to one vCPU ran
//! anywhere from 11 k to 19 k passes per quarter second on the 2-vCPU
//! host this benchmark was sized on). Phases that long survive a median
//! over one run, so raw wall times of identical work spread far more
//! between runs than any useful regression bound.
//!
//! Just before and just after each timed op (and each set-up) the
//! benchmark runs a fixed reference loop on as many threads as the
//! timed work keeps busy (a two-lane op waits on the slower vCPU, a
//! one-lane op sees only its own) and scales the op's wall by the mean
//! of the two `REFERENCE_S / loop wall` factors: the op's wall at the
//! reference host speed. The loop is benchmark code, so a change to the program
//! cannot move it; a slower program still reads slower. Raw walls are
//! printed beside the scaled ones.

use std::hint::black_box;
use std::time::Instant;

/// Reference-loop array: 512 KiB, resident in L2 like a supernode panel.
const LEN: usize = 1 << 16;
/// Passes over the array per chunk, and chunks per calibration (about a
/// millisecond in all). The fastest chunk stands for the calibration,
/// so an interrupt or a preemption inside one chunk does not read as a
/// slow host.
const PASSES: usize = 12;
const CHUNKS: usize = 4;
/// Reference-loop wall at the reference speed: its typical wall on the
/// host the benchmark was sized on.
const REFERENCE_S: f64 = 1.0e-3;

/// One reference-loop array per calibration thread.
pub struct HostSpeed {
    bufs: Vec<Vec<f64>>,
}

impl HostSpeed {
    /// A calibration on `lanes` threads: the number the timed work keeps
    /// busy.
    pub fn new(lanes: usize) -> Self {
        let mut speed = HostSpeed {
            bufs: vec![(0..LEN).map(|i| i as f64).collect(); lanes.max(1)],
        };
        // The first pass pays page faults and thread start-up.
        speed.factor();
        speed
    }

    /// Runs the reference loop once on every thread at the same time and
    /// returns the factor converting a wall measured now into a wall at
    /// the reference speed.
    pub fn factor(&mut self) -> f64 {
        let (first, rest) = self.bufs.split_first_mut().expect("at least one lane");
        let total: f64 = std::thread::scope(|scope| {
            let helpers: Vec<_> = rest
                .iter_mut()
                .map(|buf| scope.spawn(move || reference_loop(buf)))
                .collect();
            let mine = reference_loop(first);
            mine + helpers
                .into_iter()
                .map(|h| h.join().expect("reference loop does not panic"))
                .sum::<f64>()
        });
        REFERENCE_S * self.bufs.len() as f64 / total
    }
}

/// The fixed reference work; returns its wall in seconds, estimated as
/// [`CHUNKS`] times the fastest chunk.
fn reference_loop(buf: &mut [f64]) -> f64 {
    let (m, c) = black_box((1.000_000_1, 0.5));
    let mut fastest = f64::INFINITY;
    for _ in 0..CHUNKS {
        let t = Instant::now();
        for _ in 0..PASSES {
            for x in buf.iter_mut() {
                *x = *x * m + c;
            }
            black_box(&mut *buf);
        }
        fastest = fastest.min(t.elapsed().as_secs_f64());
    }
    fastest * CHUNKS as f64
}
