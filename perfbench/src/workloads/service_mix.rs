//! `service_mix`: the in-process evented server on a loopback port,
//! driven over two TCP connections by an open-loop Poisson schedule at
//! one fixed rate. Requests are Zipf over a universe of small grid and
//! KKT patterns; the op mix is about 70 % solve, 20 % factor and 10 %
//! batch. The handle cache is smaller than the universe, so hits run
//! beside misses and evictions. The request path (decode, fingerprint,
//! cache, admission, lanes, encode) dominates; the numeric layers run
//! on tiny matrices.
//!
//! Unlike the closed-loop workloads, latencies here are raw walls, not
//! scaled to the reference host speed: they are dominated by loopback
//! round trips (today about 40 ms per request, a delayed-ACK stall on
//! the client's two-write frames), which do not follow CPU speed.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rlchol_core::engine::{GpuOptions, Method};
use rlchol_matgen::{grid2d, grid3d, kkt3d_aniso, Stencil};
use rlchol_ordering::OrderingMethod;
use rlchol_service::{
    protocol, Client, NetStats, PatternFingerprint, Request, ServeOptions, Service, ServiceConfig,
};
use rlchol_sparse::SymCsc;

use super::{rhs_for, solver_options, timed_setup, window, Config};
use crate::ledger::{check_solution, mean, median, peak_rss_mb, quantile, tail, Outcome};
use crate::rng::{Rng, Zipf};

/// Offered load: requests per second, frozen. At about a fifth of the
/// two connections' capacity the tail percentile sits among service
/// times rather than in the queueing of one seed's Poisson bursts, which
/// kept it from repeating across seeds at higher rates.
const RATE: f64 = 10.0;
/// Tail percentile of `op_tail_ms` (a 25 s window holds 250 requests).
const TAIL_PCT: f64 = 95.0;
/// Client connections (one generator thread each).
const CONNS: usize = 2;
/// Server worker threads.
const NET_WORKERS: usize = 2;
/// Handle-cache budget: below the universe's total handle bytes, so
/// the Zipf tail keeps missing and evicting in steady state.
const CACHE_BYTES: u64 = 6 << 20;
/// Admission limit; above the connection count, so nothing is shed.
const QUEUE_DEPTH: usize = 8;
const ZIPF_S: f64 = 1.1;
/// Value sets per pattern.
const VARIANTS: usize = 3;
/// Value sets per batch request.
const BATCH: usize = 2;

#[derive(Clone, Copy)]
enum Shape {
    G3(usize, usize, usize),
    G2(usize, usize),
    Kkt(usize, usize, usize),
}

/// The pattern universe, most popular first (fixed for every seed, so
/// every seed offers the same load).
const UNIVERSE: [Shape; 24] = [
    Shape::G3(8, 8, 6),
    Shape::G2(30, 28),
    Shape::Kkt(6, 5, 5),
    Shape::G3(9, 8, 7),
    Shape::G2(36, 30),
    Shape::G3(7, 7, 7),
    Shape::Kkt(7, 6, 5),
    Shape::G3(10, 9, 7),
    Shape::G2(40, 36),
    Shape::G3(9, 9, 9),
    Shape::Kkt(8, 6, 6),
    Shape::G3(11, 10, 8),
    Shape::G2(48, 40),
    Shape::G3(12, 10, 8),
    Shape::Kkt(8, 8, 6),
    Shape::G3(12, 11, 9),
    Shape::G2(52, 48),
    Shape::G3(10, 10, 10),
    Shape::Kkt(9, 8, 7),
    Shape::G3(13, 12, 9),
    Shape::G2(60, 50),
    Shape::G3(12, 12, 11),
    Shape::Kkt(10, 8, 8),
    Shape::G3(14, 12, 10),
];

fn matrix(shape: Shape, scale: usize, seed: u64) -> SymCsc {
    let d = |v: usize| (v / scale).max(2);
    match shape {
        Shape::G3(x, y, z) => grid3d(d(x), d(y), d(z), Stencil::Star7, 1, seed),
        Shape::G2(x, y) => grid2d(d(x), d(y), Stencil::Star5, 1, seed),
        Shape::Kkt(x, y, z) => kkt3d_aniso(d(x), d(y), d(z), seed),
    }
}

/// One pattern's value sets with their right-hand sides.
struct Pattern {
    variants: Vec<(SymCsc, Vec<f64>)>,
    /// All variants' values, for batch requests.
    batch: Vec<Vec<f64>>,
}

fn universe(cfg: &Config) -> Vec<Pattern> {
    let scale = if cfg.tiny { 2 } else { 1 };
    let mut rng = Rng::derived(cfg.seed, 3);
    UNIVERSE
        .iter()
        .map(|&shape| {
            let variants: Vec<(SymCsc, Vec<f64>)> = (0..VARIANTS)
                .map(|_| {
                    let a = matrix(shape, scale, rng.next_u64());
                    let b = rhs_for(&a, 1, &mut rng);
                    (a, b)
                })
                .collect();
            let batch = variants[..BATCH]
                .iter()
                .map(|(a, _)| a.values().to_vec())
                .collect();
            Pattern { variants, batch }
        })
        .collect()
}

#[derive(Clone, Copy)]
enum Op {
    Solve,
    Factor,
    Batch,
}

/// One scheduled request: due offset, pattern rank, value set, op.
#[derive(Clone, Copy)]
struct Due {
    at: Duration,
    rank: usize,
    variant: usize,
    op: Op,
}

/// Exactly `RATE × seconds` arrivals, uniformly spread over the window
/// and sorted — a Poisson process conditioned on its count, so every
/// seed offers the same load.
fn schedule(cfg: &Config) -> Vec<Due> {
    let seconds = window(cfg);
    let mut rng = Rng::derived(cfg.seed, 5);
    let zipf = Zipf::new(UNIVERSE.len(), ZIPF_S);
    let count = ((RATE * seconds).round() as usize).max(CONNS);
    let mut at: Vec<f64> = (0..count).map(|_| rng.f64() * seconds).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter()
        .map(|t| {
            let u = rng.f64();
            Due {
                at: Duration::from_secs_f64(t),
                rank: zipf.sample(&mut rng),
                variant: rng.range(0, VARIANTS),
                op: if u < 0.7 {
                    Op::Solve
                } else if u < 0.9 {
                    Op::Factor
                } else {
                    Op::Batch
                },
            }
        })
        .collect()
}

/// Wire bytes of one request frame (length prefix included).
fn frame_bytes(a: &SymCsc, op: Op) -> usize {
    let (n, nnz) = (a.n(), a.nnz_lower());
    let base = 4 + 1 + 1 + 4 + 8 + 8 + (n + 1) * 8 + nnz * 16;
    match op {
        Op::Solve => base + n * 8,
        Op::Factor => base,
        Op::Batch => base + 4 + BATCH * nnz * 8,
    }
}

struct Server {
    addr: SocketAddr,
    service: Arc<Service>,
    net: Arc<NetStats>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    fn start(pats: &[Pattern]) -> Server {
        let cfg = ServiceConfig {
            options: solver_options(Method::RlCpu, GpuOptions::with_threshold(usize::MAX)),
            cache_bytes: CACHE_BYTES,
            queue_depth: QUEUE_DEPTH,
            default_deadline: None,
            batch_window_us: 0,
        };
        let service = Arc::new(Service::new(cfg));
        let net = Arc::new(NetStats::default());
        let opts = ServeOptions {
            workers: NET_WORKERS,
            conn_timeout_ms: 30_000,
            accept_faults: Vec::new(),
            stats: Some(Arc::clone(&net)),
        };
        let (addr, handle) = protocol::spawn_server_with("127.0.0.1:0", Arc::clone(&service), opts)
            .expect("bind a loopback port");
        let server = Server {
            addr,
            service,
            net,
            handle: Some(handle),
        };
        // Warm the cache least popular first, so the head of the Zipf
        // distribution is resident when the window opens. In process:
        // set-up time should not depend on loopback TCP timers.
        for p in pats.iter().rev() {
            let (a, _) = &p.variants[0];
            if let Err(e) = server.service.submit(Request::factor(a.clone())) {
                panic!("warm-up factor failed: {e}");
            }
        }
        server
    }
}

impl Drop for Server {
    /// Stops the server and waits for its thread; errors are ignored.
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            if let Ok(mut c) = Client::connect(self.addr) {
                let _ = c.shutdown();
            }
            self.service.shutdown();
            let _ = h.join();
        }
    }
}

/// What one request measured.
#[derive(Default, Clone)]
struct Sample {
    /// Completion minus due time (ms).
    latency_ms: f64,
    /// Send minus due time (ms): how late the generator ran.
    late_ms: f64,
    /// Send to completion (ms).
    rtt_ms: f64,
    /// Server stage walls from the wire report (ms).
    queue_wait_ms: f64,
    analyze_ms: f64,
    factor_ms: f64,
    solve_ms: f64,
    fingerprint_ms: f64,
    req_bytes: f64,
    error: Option<String>,
}

impl Sample {
    /// Summed server stage walls.
    fn stages_ms(&self) -> f64 {
        self.queue_wait_ms + self.analyze_ms + self.factor_ms + self.solve_ms
    }
}

/// Sends one request and checks its answer.
fn send(
    client: &mut Client,
    pat: &Pattern,
    d: &Due,
    trace: bool,
    s: &mut Sample,
) -> Result<(), String> {
    let (a, b) = &pat.variants[d.variant];
    if trace {
        let t = Instant::now();
        std::hint::black_box(PatternFingerprint::of(
            a,
            Method::RlCpu,
            OrderingMethod::NestedDissection,
        ));
        s.fingerprint_ms = t.elapsed().as_secs_f64() * 1e3;
        s.req_bytes = frame_bytes(a, d.op) as f64;
    }
    let t = Instant::now();
    let resp = match d.op {
        Op::Solve => client.solve(a, b, None, 0),
        Op::Factor => client.factor(a, None, 0),
        Op::Batch => client.batch(a, &pat.batch, None, 0),
    }
    .map_err(|e| format!("transport: {e}"))?;
    s.rtt_ms = t.elapsed().as_secs_f64() * 1e3;
    if !resp.ok() {
        return Err(format!("request failed: {}", resp.json));
    }
    let f = |k: &str| resp.num_field(k).unwrap_or(0.0);
    s.queue_wait_ms = f("queue_wait_ms");
    s.analyze_ms = f("analyze_ms");
    s.factor_ms = f("factor_ms");
    s.solve_ms = f("solve_ms");
    match d.op {
        Op::Solve => check_solution(a, &resp.payload, b, "service_mix solve"),
        Op::Batch if !resp.json.contains("\"batch_errors\":[]") => {
            Err(format!("batch member failed: {}", resp.json))
        }
        _ => Ok(()),
    }
}

/// Plays `plan` against the server over [`CONNS`] connections: each
/// generator thread takes the next due request, sleeps until it is due
/// and sends it. Returns the samples (in schedule order) and the window
/// wall from its start to the last completion.
fn play(server: &Server, pats: &[Pattern], plan: &[Due], trace: bool) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(vec![Sample::default(); plan.len()]);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CONNS {
            scope.spawn(|| {
                let mut client = Client::connect(server.addr).expect("connect a generator");
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(d) = plan.get(i) else { break };
                    let due = start + d.at;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let mut s = Sample {
                        late_ms: due.elapsed().as_secs_f64() * 1e3,
                        ..Sample::default()
                    };
                    if let Err(e) = send(&mut client, &pats[d.rank], d, trace, &mut s) {
                        s.error = Some(e);
                    }
                    s.latency_ms = due.elapsed().as_secs_f64() * 1e3;
                    samples.lock().expect("sample log")[i] = s;
                }
            });
        }
    });
    let window = start.elapsed().as_secs_f64();
    (samples.into_inner().expect("sample log"), window)
}

struct State {
    pats: Vec<Pattern>,
    server: Server,
}

fn setup(cfg: &Config) -> State {
    let pats = universe(cfg);
    let server = Server::start(&pats);
    State { pats, server }
}

/// End-to-end figures of one window: (ops/s, latencies, failures).
fn tally(samples: &[Sample], window: f64, out: &mut Outcome) -> (f64, Vec<f64>) {
    let mut lat = Vec::with_capacity(samples.len());
    for s in samples {
        out.attempted += 1;
        match &s.error {
            Some(e) => out.fail(e.clone()),
            None => lat.push(s.latency_ms),
        }
    }
    (lat.len() as f64 / window, lat)
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let (st, setup_s) = timed_setup(cfg, || setup(cfg));
    let plan = schedule(cfg);
    let (samples, window) = play(&st.server, &st.pats, &plan, false);
    let (ops_per_s, lat) = tally(&samples, window, &mut out);
    if !cfg.trace {
        let (p, v) = tail(&lat, TAIL_PCT);
        out.put("setup_s", setup_s, "s");
        out.put("ops_per_s", ops_per_s, "1/s");
        out.put("op_p50_ms", median(&lat), "ms");
        out.put("op_tail_ms", v, "ms");
        out.put("peak_rss_mb", peak_rss_mb(), "MiB");
        out.note(format!(
            "open loop at {RATE}/s over {CONNS} connections; op_tail_ms is p{p} of {} latencies timed from due time",
            lat.len()
        ));
        return out;
    }

    let net = &st.server.net;
    let counts = || {
        [&net.frames, &net.accept_errors, &net.timed_out].map(|c| c.load(Ordering::Relaxed) as f64)
    };
    let (before, net_before) = (st.server.service.stats(), counts());
    let (samples, window) = play(&st.server, &st.pats, &plan, true);
    let (after, net_after) = (st.server.service.stats(), counts());
    let (traced_ops_per_s, _) = tally(&samples, window, &mut out);
    let col = |f: fn(&Sample) -> f64| {
        samples
            .iter()
            .filter(|s| s.error.is_none())
            .map(f)
            .collect::<Vec<f64>>()
    };
    out.put(
        "trace.overhead",
        ops_per_s / traced_ops_per_s - 1.0,
        "ratio",
    );
    out.put(
        "trace.coverage",
        col(Sample::stages_ms).iter().sum::<f64>() / col(|s| s.rtt_ms).iter().sum::<f64>(),
        "ratio",
    );
    out.put(
        "service.queue_wait_ms",
        mean(&col(|s| s.queue_wait_ms)),
        "ms",
    );
    out.put("service.analyze_ms", mean(&col(|s| s.analyze_ms)), "ms");
    out.put("service.factor_ms", mean(&col(|s| s.factor_ms)), "ms");
    out.put("service.solve_ms", mean(&col(|s| s.solve_ms)), "ms");
    out.put(
        "service.path_overhead_ms",
        median(&col(|s| s.rtt_ms - s.stages_ms())),
        "ms",
    );
    out.put(
        "service.fingerprint_ms",
        mean(&col(|s| s.fingerprint_ms)),
        "ms",
    );
    out.put(
        "service.req_kb",
        mean(&col(|s| s.req_bytes)) / 1024.0,
        "KiB",
    );
    let hits = (after.cache.hits - before.cache.hits) as f64;
    let lookups = hits
        + (after.cache.misses - before.cache.misses) as f64
        + (after.cache.coalesced - before.cache.coalesced) as f64;
    out.put("service.cache_hit_ratio", hits / lookups.max(1.0), "ratio");
    let shed =
        (after.shed_overload + after.shed_deadline) - (before.shed_overload + before.shed_deadline);
    out.put("service.shed", shed as f64, "count");
    let net = |k: usize| net_after[k] - net_before[k];
    out.put("evented.frames", net(0), "count");
    out.put("evented.accept_errors", net(1), "count");
    out.put("evented.timed_out", net(2), "count");
    out.put(
        "loadgen.late_p99_ms",
        quantile(&col(|s| s.late_ms), 0.99),
        "ms",
    );
    out.note(format!(
        "service_mix cache: budget {CACHE_BYTES} B, {} evictions in the traced window",
        after.cache.evictions - before.cache.evictions
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlchol_core::CholeskySolver;

    #[test]
    fn cache_budget_is_below_the_universe() {
        let cfg = Config {
            seed: 1,
            seconds: 1.0,
            trace: false,
            tiny: false,
        };
        let opts = solver_options(Method::RlCpu, GpuOptions::with_threshold(usize::MAX));
        let total: u64 = universe(&cfg)
            .iter()
            .map(|p| CholeskySolver::analyze(&p.variants[0].0, &opts).memory_bytes())
            .sum();
        assert!(
            CACHE_BYTES < total,
            "budget {CACHE_BYTES} vs universe {total}"
        );
    }
}
