//! Framed wire protocol over `std::net::TcpStream` — no external
//! crates. [`serve`] runs the evented front end ([`crate::evented`]):
//! a readiness-polled accept loop and a fixed worker pool multiplexing
//! every connection, with per-connection deadlines. The seed's
//! thread-per-connection loop survives as [`serve_blocking`] (the
//! non-Unix fallback, or `RLCHOL_NET_LEGACY=1`), hardened against
//! transient accept errors and handler leaks.
//!
//! # Framing
//!
//! Every message is a little-endian `u32` body length followed by the
//! body. Request bodies:
//!
//! ```text
//! u8  op          1=analyze 2=factor 3=solve 4=batch 5=stats 6=shutdown
//! --- stats/shutdown bodies end here ---
//! u8  method      index into Method::ALL, 0xFF = service default
//! u32 deadline_ms 0 = none (service default applies)
//! u64 n, u64 nnz
//! (n+1) × u64     column pointers
//! nnz × u64       row indices
//! nnz × f64       values
//! solve: n × f64  right-hand side
//! batch: u32 k, then k × (nnz × f64) value sets
//! ```
//!
//! Response bodies: `u32 json_len`, the JSON report (UTF-8), `u64
//! payload_len`, then `payload_len × f64` (the solution vector for
//! `solve`, empty otherwise). The JSON always carries `"ok"`; failures
//! add `"kind"` (the [`ServiceError::kind`] tag) and `"error"`.
//!
//! Framing violations (oversized frames, truncated bodies, inconsistent
//! counts) poison the stream and close the connection; *semantic*
//! errors (bad matrix, overload, deadline) are answered in-band and the
//! connection keeps serving.

use crate::error::ServiceError;
use crate::service::{stats_json, Request, RequestOp, Response, ResponsePayload, Service};
use rlchol_core::json::{array, escape, JsonObj};
use rlchol_core::Method;
use rlchol_sparse::SymCsc;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard ceiling on one frame body — rejects absurd lengths before any
/// allocation happens.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

const OP_ANALYZE: u8 = 1;
const OP_FACTOR: u8 = 2;
const OP_SOLVE: u8 = 3;
const OP_BATCH: u8 = 4;
const OP_STATS: u8 = 5;
const OP_SHUTDOWN: u8 = 6;

// ---------------------------------------------------------------------
// Byte-level helpers
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], ServiceError> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(ServiceError::Protocol(format!(
                "truncated frame: wanted {len} bytes at offset {}, body has {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, ServiceError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ServiceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ServiceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A decoded element count, as a `usize`.
    fn count(&mut self) -> Result<usize, ServiceError> {
        usize::try_from(self.u64()?).map_err(|_| overflow())
    }

    fn usize_vec(&mut self, count: usize) -> Result<Vec<usize>, ServiceError> {
        let bytes = self.take(count.checked_mul(8).ok_or_else(overflow)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
            .collect())
    }

    fn f64_vec(&mut self, count: usize) -> Result<Vec<f64>, ServiceError> {
        let bytes = self.take(count.checked_mul(8).ok_or_else(overflow)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

fn overflow() -> ServiceError {
    ServiceError::Protocol("frame length overflow".into())
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    for v in vs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn read_frame(stream: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Writes the length prefix and the body with one `write_all`: split
/// writes leave the body waiting on the peer's delayed ACK.
fn write_frame(stream: &mut TcpStream, body: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    stream.flush()
}

// ---------------------------------------------------------------------
// Request decode (server) / encode (client)
// ---------------------------------------------------------------------

pub(crate) enum WireRequest {
    Op(Request),
    Stats,
    Shutdown,
}

pub(crate) fn decode_request(body: &[u8]) -> Result<WireRequest, ServiceError> {
    let mut c = Cursor::new(body);
    let op = c.u8()?;
    match op {
        OP_STATS => return Ok(WireRequest::Stats),
        OP_SHUTDOWN => return Ok(WireRequest::Shutdown),
        OP_ANALYZE | OP_FACTOR | OP_SOLVE | OP_BATCH => {}
        other => {
            return Err(ServiceError::Protocol(format!("unknown op byte {other}")));
        }
    }
    let method_idx = c.u8()?;
    let method = match method_idx {
        0xFF => None,
        i if (i as usize) < Method::ALL.len() => Some(Method::ALL[i as usize]),
        i => {
            return Err(ServiceError::Protocol(format!(
                "method index {i} out of range (engines: {})",
                Method::ALL.len()
            )));
        }
    };
    let deadline_ms = c.u32()?;
    // Every count is checked against the bytes left before anything is
    // allocated for it (`take` in the `*_vec` readers, below for batches).
    let n = c.count()?;
    let nnz = c.count()?;
    let colptr = c.usize_vec(n.checked_add(1).ok_or_else(overflow)?)?;
    let rowind = c.usize_vec(nnz)?;
    let values = c.f64_vec(nnz)?;
    let matrix = SymCsc::from_parts(n, colptr, rowind, values)
        .map_err(|e| ServiceError::Protocol(format!("invalid matrix: {e}")))?;
    let op = match op {
        OP_ANALYZE => RequestOp::Analyze,
        OP_FACTOR => RequestOp::Factor,
        OP_SOLVE => RequestOp::Solve(c.f64_vec(n)?),
        OP_BATCH => {
            let k = c.u32()? as usize;
            // `nnz * 8` fits: the values above took that many bytes.
            let set_bytes = nnz * 8;
            let fits = k.checked_mul(set_bytes).is_some_and(|b| b <= c.remaining());
            if k > 0 && (set_bytes == 0 || !fits) {
                return Err(ServiceError::Protocol(format!(
                    "batch of {k} value sets of {nnz} entries does not fit the {} bytes left",
                    c.remaining()
                )));
            }
            let mut sets = Vec::with_capacity(k);
            for _ in 0..k {
                sets.push(c.f64_vec(nnz)?);
            }
            RequestOp::Batch(sets)
        }
        _ => unreachable!(),
    };
    if c.pos != body.len() {
        return Err(ServiceError::Protocol(format!(
            "{} trailing bytes after request body",
            body.len() - c.pos
        )));
    }
    Ok(WireRequest::Op(Request {
        matrix,
        op,
        method,
        deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms as u64)),
    }))
}

fn encode_request(
    op: u8,
    matrix: &SymCsc,
    method: Option<Method>,
    deadline_ms: u32,
    rhs: &[f64],
    sets: &[Vec<f64>],
) -> Vec<u8> {
    let mut body = Vec::new();
    body.push(op);
    let method_idx = method
        .map(|m| Method::ALL.iter().position(|x| *x == m).unwrap() as u8)
        .unwrap_or(0xFF);
    body.push(method_idx);
    put_u32(&mut body, deadline_ms);
    put_u64(&mut body, matrix.n() as u64);
    put_u64(&mut body, matrix.nnz_lower() as u64);
    for &p in matrix.colptr() {
        put_u64(&mut body, p as u64);
    }
    for &r in matrix.rowind() {
        put_u64(&mut body, r as u64);
    }
    put_f64s(&mut body, matrix.values());
    if op == OP_SOLVE {
        put_f64s(&mut body, rhs);
    }
    if op == OP_BATCH {
        put_u32(&mut body, sets.len() as u32);
        for set in sets {
            put_f64s(&mut body, set);
        }
    }
    body
}

// ---------------------------------------------------------------------
// Response encode (server) / decode (client)
// ---------------------------------------------------------------------

fn response_json(op_name: &str, resp: &Response) -> (String, Vec<f64>) {
    let m = &resp.metrics;
    let cache = match m.cache {
        crate::cache::CacheOutcome::Hit => "hit",
        crate::cache::CacheOutcome::Miss => "miss",
        crate::cache::CacheOutcome::CoalescedMiss => "coalesced",
    };
    let obj = JsonObj::new()
        .bool("ok", true)
        .str("op", op_name)
        .str("cache", cache)
        .f64("queue_wait_ms", m.queue_wait.as_secs_f64() * 1e3)
        .f64("analyze_ms", m.analyze_wall.as_secs_f64() * 1e3)
        .f64("factor_ms", m.factor_wall.as_secs_f64() * 1e3)
        .f64("solve_ms", m.solve_wall.as_secs_f64() * 1e3)
        .u64("recovery_events", m.recovery_events as u64)
        .u64("batch_size", m.batch_size as u64)
        .f64("coalesce_wait_ms", m.coalesce_wait.as_secs_f64() * 1e3);
    match &resp.payload {
        ResponsePayload::Analyzed {
            n,
            factor_nnz,
            supernodes,
            memory_bytes,
        } => (
            obj.u64("n", *n as u64)
                .u64("factor_nnz", *factor_nnz)
                .u64("supernodes", *supernodes as u64)
                .u64("memory_bytes", *memory_bytes)
                .finish(),
            Vec::new(),
        ),
        ResponsePayload::Factored {
            factor_nnz,
            info_json,
        } => (
            obj.u64("factor_nnz", *factor_nnz)
                .raw("info", info_json)
                .finish(),
            Vec::new(),
        ),
        ResponsePayload::Solved { x, info_json } => (
            obj.u64("solution_len", x.len() as u64)
                .raw("info", info_json)
                .finish(),
            x.clone(),
        ),
        ResponsePayload::Batched { outcomes } => {
            let oks = array(
                outcomes
                    .iter()
                    .map(|r| if r.is_ok() { "true" } else { "false" }.to_string()),
            );
            let errs = array(outcomes.iter().filter_map(|r| {
                r.as_ref()
                    .err()
                    .map(|e| format!("\"{}\"", escape(&e.to_string())))
            }));
            (
                obj.raw("batch", &oks).raw("batch_errors", &errs).finish(),
                Vec::new(),
            )
        }
    }
}

pub(crate) fn error_json(e: &ServiceError) -> String {
    JsonObj::new()
        .bool("ok", false)
        .str("kind", e.kind())
        .str("error", &e.to_string())
        .finish()
}

pub(crate) fn encode_response(json: &str, payload: &[f64]) -> Vec<u8> {
    let mut body = Vec::with_capacity(4 + json.len() + 8 + payload.len() * 8);
    put_u32(&mut body, json.len() as u32);
    body.extend_from_slice(json.as_bytes());
    put_u64(&mut body, payload.len() as u64);
    put_f64s(&mut body, payload);
    body
}

/// One decoded response frame.
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// The JSON report.
    pub json: String,
    /// The numeric payload (solution vector for `solve`).
    pub payload: Vec<f64>,
}

impl WireResponse {
    fn decode(body: &[u8]) -> Result<Self, ServiceError> {
        let mut c = Cursor::new(body);
        let json_len = c.u32()? as usize;
        let json = String::from_utf8(c.take(json_len)?.to_vec())
            .map_err(|_| ServiceError::Protocol("response JSON is not UTF-8".into()))?;
        let payload_len = c.u64()? as usize;
        let payload = c.f64_vec(payload_len)?;
        Ok(WireResponse { json, payload })
    }

    /// Whether the request succeeded.
    pub fn ok(&self) -> bool {
        self.bool_field("ok").unwrap_or(false)
    }

    /// Scans the top-level JSON for `"key":"string"`.
    pub fn str_field(&self, key: &str) -> Option<String> {
        let rest = self.raw_field(key)?;
        let rest = rest.strip_prefix('"')?;
        let mut out = String::new();
        let mut chars = rest.chars();
        while let Some(ch) = chars.next() {
            match ch {
                '"' => return Some(out),
                '\\' => match chars.next()? {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    other => out.push(other),
                },
                other => out.push(other),
            }
        }
        None
    }

    /// Scans the top-level JSON for a numeric field.
    pub fn num_field(&self, key: &str) -> Option<f64> {
        let rest = self.raw_field(key)?;
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    /// Scans the top-level JSON for a boolean field.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        let rest = self.raw_field(key)?;
        if rest.starts_with("true") {
            Some(true)
        } else if rest.starts_with("false") {
            Some(false)
        } else {
            None
        }
    }

    fn raw_field(&self, key: &str) -> Option<&str> {
        // Top-level keys in our schema are unique across nesting levels
        // for everything callers scan for, so a plain search suffices.
        let needle = format!("\"{key}\":");
        let at = self.json.find(&needle)?;
        Some(&self.json[at + needle.len()..])
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

pub(crate) fn handle_request(service: &Service, wire: WireRequest) -> (String, Vec<f64>) {
    match wire {
        WireRequest::Stats => (
            {
                let stats = stats_json(&service.stats());
                JsonObj::new()
                    .bool("ok", true)
                    .str("op", "stats")
                    .raw("stats", &stats)
                    .finish()
            },
            Vec::new(),
        ),
        WireRequest::Shutdown => {
            service.shutdown();
            (
                JsonObj::new()
                    .bool("ok", true)
                    .str("op", "shutdown")
                    .finish(),
                Vec::new(),
            )
        }
        WireRequest::Op(req) => {
            let op_name = match req.op {
                RequestOp::Analyze => "analyze",
                RequestOp::Factor => "factor",
                RequestOp::Solve(_) => "solve",
                RequestOp::Batch(_) => "batch",
            };
            match service.submit(req) {
                Ok(resp) => response_json(op_name, &resp),
                Err(e) => (error_json(&e), Vec::new()),
            }
        }
    }
}

fn handle_conn(mut stream: TcpStream, service: &Service) -> io::Result<()> {
    while let Some(body) = read_frame(&mut stream)? {
        let (json, payload) = match decode_request(&body) {
            Ok(wire) => handle_request(service, wire),
            Err(e) => {
                // Framing is broken — answer once, then close.
                let frame = encode_response(&error_json(&e), &[]);
                write_frame(&mut stream, &frame)?;
                return Ok(());
            }
        };
        write_frame(&mut stream, &encode_response(&json, &payload))?;
        if service.is_shutdown() {
            break;
        }
    }
    Ok(())
}

/// Whether an accept error is transient — the listener itself is fine
/// and a retry will make progress once in-flight connections settle.
pub(crate) fn accept_error_is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::Interrupted
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
    ) || {
        // EMFILE/ENFILE/ENOBUFS/ENOMEM have no stable ErrorKind mapping;
        // match the raw errno values (resource exhaustion clears up when
        // connections close).
        matches!(e.raw_os_error(), Some(23 | 24 | 105 | 12))
    }
}

/// Serves `listener` until [`Service::shutdown`].
///
/// On Unix this runs the evented front end ([`crate::evented::serve_evented`]
/// with default [`crate::evented::ServeOptions`]): non-blocking accept, a
/// fixed worker pool (`RLCHOL_NET_WORKERS`), per-connection idle deadlines
/// (`RLCHOL_CONN_TIMEOUT_MS`). Set `RLCHOL_NET_LEGACY=1` to fall back to
/// the thread-per-connection loop ([`serve_blocking`]), which is also the
/// non-Unix default.
pub fn serve(listener: TcpListener, service: Arc<Service>) -> io::Result<()> {
    #[cfg(unix)]
    {
        let legacy = std::env::var("RLCHOL_NET_LEGACY")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        if !legacy {
            return crate::evented::serve_evented(
                listener,
                service,
                crate::evented::ServeOptions::default(),
            );
        }
    }
    serve_blocking(listener, service)
}

/// Thread-per-connection accept loop, until [`Service::shutdown`] (a
/// `shutdown` op wakes the accept call by self-connecting). Transient
/// accept errors (aborted handshakes, fd exhaustion) are retried with
/// exponential backoff instead of killing the server; finished handler
/// threads are reaped each iteration so a long-lived server does not
/// accumulate one [`JoinHandle`] per connection it ever served.
pub fn serve_blocking(listener: TcpListener, service: Arc<Service>) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let mut backoff = Duration::from_millis(1);
    let mut accept_errors: u64 = 0;
    loop {
        if service.is_shutdown() {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                backoff = Duration::from_millis(1);
                stream
            }
            Err(e) if accept_error_is_transient(&e) => {
                accept_errors += 1;
                if accept_errors.is_power_of_two() {
                    eprintln!("rlchol-serve: transient accept error (#{accept_errors}): {e}");
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(100));
                continue;
            }
            Err(e) => return Err(e),
        };
        if service.is_shutdown() {
            break;
        }
        let svc = Arc::clone(&service);
        handlers.push(std::thread::spawn(move || {
            let _ = handle_conn(stream, &svc);
            // Wake the accept loop so it observes shutdown promptly.
            if svc.is_shutdown() {
                let _ = TcpStream::connect(addr);
            }
        }));
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
    Ok(())
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and runs [`serve`] on a new
/// thread; returns the bound address and the server's join handle.
pub fn spawn_server(
    addr: &str,
    service: Arc<Service>,
) -> io::Result<(SocketAddr, JoinHandle<io::Result<()>>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let handle = std::thread::spawn(move || serve(listener, service));
    Ok((local, handle))
}

/// Like [`spawn_server`], but always evented and with explicit
/// [`crate::evented::ServeOptions`] (worker count, connection timeout,
/// fault injection, shared [`crate::evented::NetStats`]).
#[cfg(unix)]
pub fn spawn_server_with(
    addr: &str,
    service: Arc<Service>,
    opts: crate::evented::ServeOptions,
) -> io::Result<(SocketAddr, JoinHandle<io::Result<()>>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let handle = std::thread::spawn(move || crate::evented::serve_evented(listener, service, opts));
    Ok((local, handle))
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Connection knobs for [`Client::connect_with`].
#[derive(Debug, Clone, Default)]
pub struct ClientOptions {
    /// Abort [`Client::connect_with`] if the TCP handshake takes longer
    /// than this. `None` blocks indefinitely (OS default).
    pub connect_timeout: Option<Duration>,
    /// Fail any read (response wait) that stalls longer than this with
    /// [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`] instead
    /// of hanging on a wedged server. `None` blocks indefinitely.
    pub read_timeout: Option<Duration>,
}

/// Blocking client for the framed protocol. One request in flight per
/// client; clone connections for concurrency.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server with no timeouts (blocking reads).
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_with(addr, ClientOptions::default())
    }

    /// Connects with explicit connect/read timeouts.
    pub fn connect_with(addr: SocketAddr, opts: ClientOptions) -> io::Result<Self> {
        let stream = match opts.connect_timeout {
            Some(t) => TcpStream::connect_timeout(&addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        // One request in flight at a time: Nagle would hold each frame
        // back until the previous reply's ACK arrives.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(opts.read_timeout)?;
        Ok(Client { stream })
    }

    /// Changes the read timeout on the live connection.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn roundtrip(&mut self, body: &[u8]) -> io::Result<WireResponse> {
        write_frame(&mut self.stream, body)?;
        let frame = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        WireResponse::decode(&frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Symbolic analysis of `matrix` (warms the server cache).
    pub fn analyze(&mut self, matrix: &SymCsc) -> io::Result<WireResponse> {
        self.roundtrip(&encode_request(OP_ANALYZE, matrix, None, 0, &[], &[]))
    }

    /// Numeric factorization.
    pub fn factor(
        &mut self,
        matrix: &SymCsc,
        method: Option<Method>,
        deadline_ms: u32,
    ) -> io::Result<WireResponse> {
        self.roundtrip(&encode_request(
            OP_FACTOR,
            matrix,
            method,
            deadline_ms,
            &[],
            &[],
        ))
    }

    /// Factor + solve; the solution arrives in
    /// [`WireResponse::payload`].
    pub fn solve(
        &mut self,
        matrix: &SymCsc,
        rhs: &[f64],
        method: Option<Method>,
        deadline_ms: u32,
    ) -> io::Result<WireResponse> {
        self.roundtrip(&encode_request(
            OP_SOLVE,
            matrix,
            method,
            deadline_ms,
            rhs,
            &[],
        ))
    }

    /// Batched refactorization of `value_sets` over one pattern.
    pub fn batch(
        &mut self,
        matrix: &SymCsc,
        value_sets: &[Vec<f64>],
        method: Option<Method>,
        deadline_ms: u32,
    ) -> io::Result<WireResponse> {
        self.roundtrip(&encode_request(
            OP_BATCH,
            matrix,
            method,
            deadline_ms,
            &[],
            value_sets,
        ))
    }

    /// Server counters as JSON.
    pub fn stats(&mut self) -> io::Result<WireResponse> {
        self.roundtrip(&[OP_STATS])
    }

    /// Asks the server to stop accepting work.
    pub fn shutdown(&mut self) -> io::Result<WireResponse> {
        self.roundtrip(&[OP_SHUTDOWN])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Request header through `nnz`: op, default method, no deadline.
    fn header(op: u8, n: u64, nnz: u64) -> Vec<u8> {
        let mut body = vec![op, 0xFF];
        put_u32(&mut body, 0);
        put_u64(&mut body, n);
        put_u64(&mut body, nnz);
        body
    }

    fn protocol_error(body: &[u8]) -> String {
        match decode_request(body) {
            Err(ServiceError::Protocol(msg)) => msg,
            Err(e) => panic!("expected a protocol error, got {e}"),
            Ok(_) => panic!("hostile frame decoded"),
        }
    }

    #[test]
    fn batch_count_is_bounded_by_the_body() {
        // n = 0, nnz = 0, colptr = [0], then k = u32::MAX empty value
        // sets: nothing bounds k but the check.
        let mut body = header(OP_BATCH, 0, 0);
        put_u64(&mut body, 0);
        put_u32(&mut body, u32::MAX);
        assert!(protocol_error(&body).contains("value sets"));

        // A 1x1 matrix announcing more value sets than the body holds.
        let mut body = header(OP_BATCH, 1, 1);
        for v in [0, 1, 0] {
            put_u64(&mut body, v); // colptr, rowind
        }
        put_f64s(&mut body, &[4.0]);
        put_u32(&mut body, 1 << 30);
        put_f64s(&mut body, &[4.0, 5.0]);
        assert!(protocol_error(&body).contains("value sets"));
    }

    #[test]
    fn dimension_counts_cannot_overflow() {
        // n + 1 wraps for n = u64::MAX; (n + 1) * 8 wraps for 2^61.
        for n in [u64::MAX, 1 << 61, u64::MAX / 8] {
            protocol_error(&header(OP_FACTOR, n, 0));
        }
        // A huge nnz after a valid colptr.
        let mut body = header(OP_FACTOR, 1, u64::MAX / 4);
        put_u64(&mut body, 0);
        put_u64(&mut body, 1);
        protocol_error(&body);
    }

    #[test]
    fn well_formed_batch_still_decodes() {
        let m = SymCsc::from_parts(1, vec![0, 1], vec![0], vec![4.0]).unwrap();
        let sets = vec![vec![2.0], vec![9.0]];
        let body = encode_request(OP_BATCH, &m, None, 0, &[], &sets);
        match decode_request(&body) {
            Ok(WireRequest::Op(Request {
                op: RequestOp::Batch(got),
                ..
            })) => assert_eq!(got, sets),
            _ => panic!("valid batch rejected"),
        }
    }
}
