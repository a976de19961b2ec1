//! Cross-host serving transport: shard workers as **separate
//! processes**, programs as the wire unit and each weight shipped once.
//!
//! [`crate::serve::ServeEngine`] normally runs its shards as threads.
//! This module provides the process-boundary variant: each shard is an
//! `onesa-shard-worker` binary spawned by the host, connected over a
//! Unix-domain socket or loopback TCP ([`Transport`]), speaking a
//! framed protocol whose payloads are encoded with
//! [`onesa_plan::wire`]. The worker builds the *same*
//! [`BatchEngine`] the in-process shard would, and the wire format
//! preserves every `f32` bit, so a process-backed pool is bit-identical
//! to the in-process one — the cross-host integration suite asserts
//! this for every admission × routing policy.
//!
//! # Protocol
//!
//! Every message is one `onesa-plan` wire frame — a header naming the
//! format version and the message kind, then the message's values —
//! length-prefixed on the stream (`u32` LE). Handshake, then windows:
//!
//! ```text
//! worker → host   Hello      {}        (the header carries the version)
//! host → worker   Configure  { granularity, ArrayConfig }
//! worker → host   Ready      {}
//! host → worker   Window     { n × (ticket, program, constants the worker lacks, inputs) }
//! worker → host   Outcomes   { n × (ticket, output, stats, session outputs),
//!                              report, per-stage groups }
//!              or WindowError{ message }          (batch failed; engine cleared)
//! host → worker   Ping       {}        worker → host  Pong {}
//! host → worker   Shutdown   {}        (worker exits 0)
//! ```
//!
//! Every request crosses the wire as a program: the serve layer's
//! arrive lowered, and [`WorkerHandle::run_window`] lowers a bare GEMM
//! or nonlinear request itself (see [`Request::lower`]). The `Outcomes`
//! frame carries the worker's whole [`BatchRun`], so the host handles a
//! remote window exactly as it handles a local `BatchEngine::run`.
//!
//! # The weight-cache protocol
//!
//! Program constants (the weights) dominate request bytes, and a program
//! names each of its constants by key — its `tensor_fingerprint` — on the
//! wire (see `onesa_plan::wire`'s "Programs on the wire"). The host keeps,
//! per worker, the set of constant keys it has already shipped: a
//! request carries the bytes of only the constants the worker lacks, and
//! every program is sent whole otherwise — its ops, shapes and keys, then
//! its inputs. A window's sends count, and its new keys become refs, only
//! once the worker answers it with `Outcomes`: a window that fails may
//! not have reached the worker's store. The worker keeps one store of
//! constants by key; each request's program is decoded and sealed against
//! it, so a weight crosses the wire once per worker whatever program, row
//! count or context length it next serves in, and every program on the
//! worker reads the one stored buffer and the packs it keeps.
//! [`WeightCacheStats`] counts both kinds of constant send and the bytes
//! the refs avoided; the serve layer surfaces them per shard.
//!
//! # Worker death
//!
//! A killed worker closes its socket: the host's next write or read
//! fails (EOF / `EPIPE`), or a [`WorkerHandle::ping`] times out. The
//! serve layer's process backend reacts by requeuing the in-flight
//! window on a surviving shard — see `crate::serve`'s failover notes.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use onesa_plan::wire::{self, Wire, WireError, WireReader, WireSink};
use onesa_plan::{wire_layout, Program, StageGroups};
use onesa_sim::{ArrayConfig, ExecStats};
use onesa_tensor::parallel::Parallelism;
use onesa_tensor::Tensor;

use crate::batch::{BatchEngine, BatchRun, Latencies, Request, RequestOutcome, ServingReport};
use crate::engine::OneSa;

// ---------------------------------------------------------------------
// configuration
// ---------------------------------------------------------------------

/// Which socket family connects host and worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Unix-domain socket (default: lowest overhead on one machine).
    #[default]
    Unix,
    /// Loopback TCP (the cross-host wire; also what a real multi-host
    /// deployment would use, pointed at a remote address).
    Tcp,
}

/// Configuration of the multi-process shard backend
/// (`crate::serve::ShardBackend::Process`).
#[derive(Debug, Clone, Default)]
pub struct ProcessConfig {
    /// Socket family between host and workers.
    pub transport: Transport,
    /// Path of the `onesa-shard-worker` binary. `None` resolves via
    /// [`default_worker_path`] (the `ONESA_SHARD_WORKER` environment
    /// variable, then siblings of the current executable).
    pub worker: Option<PathBuf>,
}

impl ProcessConfig {
    /// Process backend over the given transport, worker resolved by
    /// [`default_worker_path`].
    pub fn new(transport: Transport) -> Self {
        ProcessConfig {
            transport,
            worker: None,
        }
    }
}

/// Locates the `onesa-shard-worker` binary: the `ONESA_SHARD_WORKER`
/// environment variable if set, otherwise a sibling of the current
/// executable (walking up to three directories, which covers
/// `target/<profile>/examples/` and `target/<profile>/deps/`).
pub fn default_worker_path() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("ONESA_SHARD_WORKER") {
        return Some(PathBuf::from(p));
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?;
    for _ in 0..3 {
        let cand = dir.join(format!(
            "onesa-shard-worker{}",
            std::env::consts::EXE_SUFFIX
        ));
        if cand.is_file() {
            return Some(cand);
        }
        dir = dir.parent()?;
    }
    None
}

/// Weight-cache accounting for one worker connection: how often program
/// constants actually crossed the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WeightCacheStats {
    /// Constants shipped with their bytes (the first sighting of a key on
    /// this worker).
    pub full_sends: usize,
    /// Constants sent as their key alone, the worker holding them.
    pub ref_sends: usize,
    /// Constant bytes the ref sends avoided (4 bytes per weight element,
    /// per avoided resend).
    pub const_bytes_saved: u64,
}

impl WeightCacheStats {
    /// Fraction of constant sends served from the worker's store.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.full_sends + self.ref_sends;
        if total == 0 {
            0.0
        } else {
            self.ref_sends as f64 / total as f64
        }
    }

    /// Accumulates another connection's counters.
    pub(crate) fn merge(&mut self, other: &WeightCacheStats) {
        self.full_sends += other.full_sends;
        self.ref_sends += other.ref_sends;
        self.const_bytes_saved += other.const_bytes_saved;
    }
}

// ---------------------------------------------------------------------
// framing over a stream
// ---------------------------------------------------------------------

/// Message kinds (the `onesa-plan` wire layer reserves kinds below
/// `0x0100` for standalone values).
const KIND_HELLO: u16 = 0x0100;
const KIND_CONFIGURE: u16 = 0x0101;
const KIND_READY: u16 = 0x0102;
const KIND_WINDOW: u16 = 0x0103;
const KIND_OUTCOMES: u16 = 0x0104;
const KIND_PING: u16 = 0x0105;
const KIND_PONG: u16 = 0x0106;
const KIND_SHUTDOWN: u16 = 0x0107;
const KIND_WINDOW_ERROR: u16 = 0x0108;

/// Refuse frames above this size — a corrupt length prefix must not
/// drive a giant allocation. 1 GiB comfortably holds any real window.
const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Either socket family, as one readable/writable stream.
#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

fn wire_to_io(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

fn write_frame(stream: &mut Stream, bytes: &[u8]) -> io::Result<()> {
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds size cap",
        ));
    }
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(bytes)?;
    stream.flush()
}

fn read_frame(stream: &mut Stream) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length prefix exceeds size cap",
        ));
    }
    let mut buf = vec![0u8; len as usize];
    stream.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads one message with an empty body, refusing any kind but `kind`
/// with `unexpected`.
fn read_signal(stream: &mut Stream, kind: u16, unexpected: &'static str) -> io::Result<()> {
    let frame = read_frame(stream)?;
    let (found, body) = wire::open(&frame).map_err(wire_to_io)?;
    if found != kind {
        return Err(io::Error::new(io::ErrorKind::InvalidData, unexpected));
    }
    body.expect_end().map_err(wire_to_io)
}

// ---------------------------------------------------------------------
// request / outcome codecs (built on onesa-plan's wire schema)
// ---------------------------------------------------------------------

/// A window being written: its frame, the keys of the constants the
/// worker held before it, and what it sends — the keys it ships in full
/// and its cache counters, committed to the connection only once the
/// worker answers the window with `Outcomes`.
struct Window<'a> {
    bytes: Vec<u8>,
    shipped: &'a HashSet<u64>,
    full: HashSet<u64>,
    stats: WeightCacheStats,
}

impl WireSink for Window<'_> {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.bytes.put_bytes(bytes);
    }

    /// The worker lacks a constant neither held nor sent earlier in this
    /// window; every other constant is named by key.
    fn lacks(&mut self, key: u64, t: &Tensor) -> bool {
        if self.shipped.contains(&key) || !self.full.insert(key) {
            self.stats.ref_sends += 1;
            self.stats.const_bytes_saved += t.len() as u64 * 4;
            false
        } else {
            self.stats.full_sends += 1;
            true
        }
    }
}

/// Writes one lowered request: its program, carrying the constants the
/// worker lacks and naming the rest by key, then its inputs.
fn put_request(w: &mut Window<'_>, program: &Program, inputs: &[Tensor]) {
    program.put(w);
    Tensor::put_seq(inputs, w);
}

/// Reads one request on the worker: its program, decoded and sealed
/// against the worker's constant store (which files the constants it
/// carries), then its inputs.
fn get_request(
    r: &mut WireReader<'_>,
    store: &mut HashMap<u64, Tensor>,
) -> Result<Request, WireError> {
    let program = wire::get_program(r, store)?;
    Ok(Request::program(program, Vec::<Tensor>::get(r)?))
}

/// A window's outcome: executed, or failed as a unit (the worker's
/// engine recovered and stays serviceable).
#[derive(Debug)]
pub enum WindowReply {
    /// The batch executed: the worker's [`BatchRun`], exactly what an
    /// in-process `BatchEngine::run` over the same window returns (every
    /// `f32` bit and every modeled number; `wall_seconds` is the
    /// worker's).
    Done(BatchRun),
    /// The worker's `BatchEngine::run` rejected the batch.
    Failed(String),
}

// The reply to a window is the worker's whole `BatchRun`. On the wire an
// outcome's `id` is the ticket the host attached to its request (the
// host checks the echo and restores the batch index), and the report's
// `requests` and `latencies` are not sent: they restate the outcomes.
wire_layout! {
    struct RequestOutcome {
        id: usize,
        output: Tensor,
        stats: ExecStats,
        session_outputs: Vec<Tensor>,
    }

    struct ServingReport {
        requests = 0,
        latencies = Latencies::default(),
        gemm_groups: usize,
        nonlinear_groups: usize,
        total_macs: u64,
        total_nonlinear_evals: u64,
        wall_seconds: f64,
        batched_seconds: f64,
        unbatched_seconds: f64,
    }

    struct BatchRun { outcomes: Vec<RequestOutcome>, report: ServingReport, program_stages: Vec<StageGroups> }
}

/// Writes a worker's [`BatchRun`], each outcome under the ticket the
/// host attached to its request.
fn put_window_result(tickets: &[u64], mut run: BatchRun, w: &mut Vec<u8>) {
    for (o, &ticket) in run.outcomes.iter_mut().zip(tickets) {
        o.id = ticket as usize;
    }
    run.put(w);
}

/// Reads the reply to a window sent under `tickets`, to the end of the
/// body: the worker must echo them, one outcome each, in order.
fn get_window_result(r: &mut WireReader<'_>, tickets: &[u64]) -> Result<BatchRun, WireError> {
    let mut run = BatchRun::get(r)?;
    r.expect_end()?;
    if run.outcomes.len() != tickets.len() {
        return Err(WireError::Corrupt(
            "worker answered a different outcome count",
        ));
    }
    for (id, (o, &ticket)) in run.outcomes.iter_mut().zip(tickets).enumerate() {
        if o.id as u64 != ticket {
            return Err(WireError::Corrupt("worker answered a different ticket"));
        }
        o.id = id;
    }
    run.report.requests = run.outcomes.len();
    run.report.latencies = run.outcomes.iter().map(|o| o.stats.seconds()).collect();
    Ok(run)
}

// ---------------------------------------------------------------------
// host side: spawning and driving one worker
// ---------------------------------------------------------------------

/// Distinguishes concurrently-spawned listeners within one process.
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

/// How long the host waits for a spawned worker to connect and
/// handshake before declaring the spawn failed.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(20);

/// A spawned shard worker process plus its connected, handshaken
/// stream. Owned by one serve-engine shard; all methods take `&mut
/// self` and any I/O error means the worker should be treated as dead
/// (the process is killed and reaped on drop).
#[derive(Debug)]
pub struct WorkerHandle {
    child: Child,
    stream: Stream,
    /// Keys of the constants the worker holds.
    shipped: HashSet<u64>,
    /// Weight-cache accounting for this connection.
    pub cache: WeightCacheStats,
    /// The granularity the worker's engine was configured with — what
    /// [`WorkerHandle::run_window`] lowers a bare nonlinear request at.
    granularity: f32,
}

impl WorkerHandle {
    /// Spawns the worker binary, waits for it to connect over the
    /// chosen transport and completes the Hello → Configure → Ready
    /// handshake, leaving the connection ready for windows. The
    /// [`Parallelism`] argument is ignored; it stays only for `benchmark/`
    /// and goes with ROADMAP 12(b).
    ///
    /// # Errors
    ///
    /// Any spawn, accept-timeout, socket or handshake failure.
    pub fn spawn(
        shard: usize,
        transport: Transport,
        worker: Option<&PathBuf>,
        config: &ArrayConfig,
        _: Parallelism,
        granularity: f32,
    ) -> io::Result<WorkerHandle> {
        let worker_path = match worker {
            Some(p) => p.clone(),
            None => default_worker_path().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    "onesa-shard-worker binary not found: build it with `cargo build --release` \
                     or set ONESA_SHARD_WORKER",
                )
            })?,
        };

        enum Listener {
            Tcp(TcpListener),
            Unix(UnixListener, PathBuf),
        }

        let listener = match transport {
            Transport::Tcp => {
                let l = TcpListener::bind(("127.0.0.1", 0))?;
                Listener::Tcp(l)
            }
            Transport::Unix => {
                let path = std::env::temp_dir().join(format!(
                    "onesa-worker-{}-{}-{}.sock",
                    std::process::id(),
                    shard,
                    SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                let _ = std::fs::remove_file(&path);
                Listener::Unix(UnixListener::bind(&path)?, path)
            }
        };
        let connect_spec = match &listener {
            Listener::Tcp(l) => format!("tcp:{}", l.local_addr()?),
            Listener::Unix(_, path) => format!("unix:{}", path.display()),
        };

        // Accept with a deadline, bailing out early if the child exits
        // (wrong binary, bad args) instead of hanging on accept().
        let connected = (|| {
            let mut child = Command::new(&worker_path)
                .arg("--connect")
                .arg(&connect_spec)
                .arg("--shard")
                .arg(shard.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()?;
            let accept_deadline = Instant::now() + SPAWN_TIMEOUT;
            loop {
                let accepted = match &listener {
                    Listener::Tcp(l) => {
                        l.set_nonblocking(true)?;
                        l.accept().map(|(s, _)| Stream::Tcp(s))
                    }
                    Listener::Unix(l, _) => {
                        l.set_nonblocking(true)?;
                        l.accept().map(|(s, _)| Stream::Unix(s))
                    }
                };
                match accepted {
                    Ok(s) => break Ok((child, s)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if let Some(status) = child.try_wait()? {
                            return Err(io::Error::new(
                                io::ErrorKind::BrokenPipe,
                                format!("shard worker exited before connecting: {status}"),
                            ));
                        }
                        if Instant::now() > accept_deadline {
                            let _ = child.kill();
                            let _ = child.wait();
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "shard worker did not connect in time",
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(e);
                    }
                }
            }
        })();
        // A connected Unix stream no longer needs its path: unlink it
        // whatever the accept loop returned.
        if let Listener::Unix(_, path) = &listener {
            let _ = std::fs::remove_file(path);
        }
        let (child, stream) = connected?;
        match &stream {
            Stream::Tcp(s) => {
                s.set_nonblocking(false)?;
                // Windows are request/reply; Nagle would serialize every
                // frame behind a delayed ACK.
                s.set_nodelay(true)?;
            }
            Stream::Unix(s) => s.set_nonblocking(false)?,
        }
        let mut handle = WorkerHandle {
            child,
            stream,
            shipped: HashSet::new(),
            cache: WeightCacheStats::default(),
            granularity,
        };

        // Handshake (bounded: a wedged worker must not hang start()).
        handle.stream.set_read_timeout(Some(SPAWN_TIMEOUT))?;
        // A worker of another format version fails here: `wire::open`
        // refuses its Hello's header.
        let stream = &mut handle.stream;
        read_signal(stream, KIND_HELLO, "worker did not open with Hello")?;
        let mut cfg = wire::frame(KIND_CONFIGURE);
        granularity.put(&mut cfg);
        config.put(&mut cfg);
        write_frame(stream, &cfg)?;
        read_signal(
            stream,
            KIND_READY,
            "worker did not answer Configure with Ready",
        )?;
        handle.stream.set_read_timeout(None)?;
        Ok(handle)
    }

    /// The worker process id (what a chaos test kills).
    pub(crate) fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ships one window and waits for its outcomes. This is a front
    /// door: the serve layer's requests arrive lowered, and a bare GEMM
    /// or nonlinear request lowers here (on a clone — the caller keeps
    /// its request; the weights are `Arc`-shared, not copied), so its
    /// weights cross the wire once per worker like any program's. A
    /// request that does not lower fails the window before anything is
    /// sent, as the worker's engine would have. The weight cache learns
    /// the window's sends only from a worker's `Outcomes`.
    ///
    /// # Errors
    ///
    /// Any socket or decode failure — after which the worker must be
    /// considered dead (the caller fails over).
    pub fn run_window(&mut self, items: &[(u64, &Request)]) -> io::Result<WindowReply> {
        let mut window = Window {
            bytes: wire::frame(KIND_WINDOW),
            shipped: &self.shipped,
            full: HashSet::new(),
            stats: WeightCacheStats::default(),
        };
        items.len().put(&mut window);
        for (ticket, request) in items {
            ticket.put(&mut window);
            let mut bare;
            let (program, inputs) = match request.as_program() {
                Some(lowered) => lowered,
                None => {
                    bare = (*request).clone();
                    if let Err(e) = bare.lower(self.granularity) {
                        return Ok(WindowReply::Failed(format!("request does not lower: {e}")));
                    }
                    bare.lowered()
                }
            };
            put_request(&mut window, program, inputs);
        }
        let (bytes, full, stats) = (window.bytes, window.full, window.stats);
        write_frame(&mut self.stream, &bytes)?;

        let reply = read_frame(&mut self.stream)?;
        let (kind, mut body) = wire::open(&reply).map_err(wire_to_io)?;
        match kind {
            KIND_OUTCOMES => {
                let tickets: Vec<u64> = items.iter().map(|(ticket, _)| *ticket).collect();
                let run = get_window_result(&mut body, &tickets).map_err(wire_to_io)?;
                self.shipped.extend(full);
                self.cache.merge(&stats);
                Ok(WindowReply::Done(run))
            }
            KIND_WINDOW_ERROR => {
                let msg = String::get(&mut body).map_err(wire_to_io)?;
                Ok(WindowReply::Failed(msg))
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected reply to Window",
            )),
        }
    }

    /// Liveness probe: sends Ping and waits (bounded) for Pong.
    ///
    /// # Errors
    ///
    /// Socket failure or timeout — the worker is dead or wedged.
    pub fn ping(&mut self, timeout: Duration) -> io::Result<()> {
        write_frame(&mut self.stream, &wire::frame(KIND_PING))?;
        self.stream.set_read_timeout(Some(timeout))?;
        let result = read_signal(&mut self.stream, KIND_PONG, "unexpected reply to Ping");
        let _ = self.stream.set_read_timeout(None);
        result
    }

    /// Asks the worker to exit and reaps it (bounded wait, then kill).
    pub fn shutdown(mut self) {
        let _ = write_frame(&mut self.stream, &wire::frame(KIND_SHUTDOWN));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
    }
}

impl Drop for WorkerHandle {
    /// Last-resort reap: kill the child if it is still running.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------
// worker side
// ---------------------------------------------------------------------

/// Entry point of the `onesa-shard-worker` binary: connects back to the
/// host, handshakes, then serves windows until Shutdown or EOF.
///
/// `args` are the process arguments after the binary name:
/// `--connect unix:<path>|tcp:<addr>` (required) and `--shard <n>`
/// (cosmetic, for diagnostics).
///
/// # Errors
///
/// A human-readable message on bad arguments, connection failure or a
/// protocol violation. Worker-side *batch* failures are not errors —
/// they are reported to the host as `WindowError` frames and the worker
/// keeps serving.
pub fn worker_main(args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut connect: Option<String> = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => connect = args.next(),
            "--shard" => {
                args.next();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let connect = connect.ok_or("missing --connect unix:<path>|tcp:<addr>")?;
    let mut stream = if let Some(path) = connect.strip_prefix("unix:") {
        Stream::Unix(UnixStream::connect(path).map_err(|e| format!("connect {connect}: {e}"))?)
    } else if let Some(addr) = connect.strip_prefix("tcp:") {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {connect}: {e}"))?;
        s.set_nodelay(true)
            .map_err(|e| format!("tcp nodelay: {e}"))?;
        Stream::Tcp(s)
    } else {
        return Err(format!("bad --connect spec `{connect}`"));
    };

    write_frame(&mut stream, &wire::frame(KIND_HELLO)).map_err(|e| format!("hello: {e}"))?;

    let cfg_frame = read_frame(&mut stream).map_err(|e| format!("read configure: {e}"))?;
    let (kind, mut body) = wire::open(&cfg_frame).map_err(|e| format!("parse configure: {e}"))?;
    if kind != KIND_CONFIGURE {
        return Err("expected Configure after Hello".into());
    }
    let (granularity, config) = (|| -> Result<_, WireError> {
        let g = f32::get(&mut body)?;
        let c = ArrayConfig::get(&mut body)?;
        body.expect_end()?;
        Ok((g, c))
    })()
    .map_err(|e| format!("decode configure: {e}"))?;

    // The same construction as an in-process shard: identical engine,
    // identical table set, bit-identical outputs.
    let mut engine = BatchEngine::new(OneSa::new(config), granularity)
        .map_err(|e| format!("build engine: {e}"))?;
    write_frame(&mut stream, &wire::frame(KIND_READY)).map_err(|e| format!("ready: {e}"))?;

    let mut store: HashMap<u64, Tensor> = HashMap::new();
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            // Host gone (finished or crashed): a worker never outlives
            // its host.
            Err(_) => return Ok(()),
        };
        let (kind, mut body) = wire::open(&frame).map_err(|e| format!("parse message: {e}"))?;
        match kind {
            KIND_SHUTDOWN => return Ok(()),
            KIND_PING => {
                write_frame(&mut stream, &wire::frame(KIND_PONG))
                    .map_err(|e| format!("pong: {e}"))?;
            }
            KIND_WINDOW => {
                let reply = serve_window(&mut body, &mut engine, &mut store);
                write_frame(&mut stream, &reply).map_err(|e| format!("outcomes: {e}"))?;
            }
            _ => return Err(format!("unexpected message kind {kind:#06x}")),
        }
    }
}

/// Decodes and executes one window, producing the reply frame. Decode
/// and batch failures produce a `WindowError` frame — the engine is
/// cleared and the worker stays serviceable.
fn serve_window(
    body: &mut WireReader<'_>,
    engine: &mut BatchEngine,
    store: &mut HashMap<u64, Tensor>,
) -> Vec<u8> {
    let fail = |engine: &mut BatchEngine, msg: String| {
        engine.clear();
        let mut w = wire::frame(KIND_WINDOW_ERROR);
        msg.put(&mut w);
        w
    };

    let mut tickets: Vec<u64> = Vec::new();
    let decoded = (|| -> Result<(), WireError> {
        // Each item is at least a ticket, a program and an input count.
        let n = body.get_len(u64::MIN_LEN + Program::MIN_LEN + usize::MIN_LEN)?;
        for _ in 0..n {
            let ticket = u64::get(body)?;
            // Decoding sealed the program; `engine.run` checks the
            // decoded inputs against it.
            engine.submit(get_request(body, store)?);
            tickets.push(ticket);
        }
        body.expect_end()
    })();
    if let Err(e) = decoded {
        return fail(engine, format!("window decode failed: {e}"));
    }

    match engine.run() {
        Ok(run) => {
            let mut w = wire::frame(KIND_OUTCOMES);
            put_window_result(&tickets, run, &mut w);
            w
        }
        Err(e) => fail(engine, format!("batch execution failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_cpwl::NonlinearFn;
    use onesa_plan::{tensor_fingerprint, EvalMode, Op};
    use onesa_sim::ExecStats;
    use onesa_tensor::rng::Pcg32;

    fn small_program() -> Program {
        let mut rng = Pcg32::seed_from_u64(5);
        let w = rng.randn(&[4, 2], 1.0);
        let mut b = Program::builder("net-test", EvalMode::Exact);
        let x = b.input(&[1, 4]);
        let c = b.constant(w);
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, c],
        );
        b.finish().unwrap()
    }

    /// A window to a worker that holds `shipped`, without its header.
    fn window(shipped: &HashSet<u64>) -> Window<'_> {
        Window {
            bytes: Vec::new(),
            shipped,
            full: HashSet::new(),
            stats: WeightCacheStats::default(),
        }
    }

    /// Lowers a request the way `run_window` does and writes it as part
    /// of `w`.
    fn put_lowered(w: &mut Window<'_>, mut request: Request) -> Request {
        request.lower(0.25).unwrap();
        let (program, inputs) = request.lowered();
        put_request(w, program, inputs);
        request
    }

    fn assert_same_request(sent: &Request, back: &Request) {
        let ((p, inputs), (p2, inputs2)) = (sent.lowered(), back.lowered());
        assert_eq!(p, p2);
        assert_eq!(inputs.len(), inputs2.len());
        for (a, b) in inputs.iter().zip(inputs2) {
            assert_tensor_bits_eq(a, b);
        }
    }

    #[test]
    fn request_round_trip_all_variants() {
        let mut rng = Pcg32::seed_from_u64(6);
        let program = small_program();
        let w = rng.randn(&[3, 2], 1.0);
        let reqs = vec![
            Request::gemm(rng.randn(&[2, 3], 1.0), w.clone()),
            Request::nonlinear(NonlinearFn::Tanh, rng.randn(&[2, 2], 1.0)),
            Request::program(program.clone(), vec![rng.randn(&[1, 4], 1.0)]),
            Request::program(program.clone(), vec![rng.randn(&[1, 4], 1.0)]),
            // Same weight, another row count: the weight goes out as a key.
            Request::gemm(rng.randn(&[5, 3], 1.0), w.clone()),
        ];
        let held = HashSet::new();
        let mut w = window(&held);
        let sent: Vec<Request> = reqs.into_iter().map(|r| put_lowered(&mut w, r)).collect();
        // Two weights crossed; the second program and GEMM named them.
        let stats = w.stats;
        assert_eq!(stats.full_sends, 2);
        assert_eq!(stats.ref_sends, 2);
        assert_eq!(stats.const_bytes_saved, 4 * 2 * 4 + 3 * 2 * 4);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);

        let bytes = w.bytes;
        let mut r = WireReader::new(&bytes);
        let mut store = HashMap::new();
        let back: Vec<Request> = sent
            .iter()
            .map(|_| get_request(&mut r, &mut store).unwrap())
            .collect();
        r.expect_end().unwrap();
        for (sent, back) in sent.iter().zip(&back) {
            assert_same_request(sent, back);
        }
        // One stored buffer per weight, read by every program that names
        // it, at every row count.
        assert_eq!(store.len(), 2);
        assert_eq!(back[4].lowered_program().input_shapes(), [vec![5, 3]]);
        let weight = |i: usize| back[i].lowered_program().consts()[0].clone();
        assert!(weight(0).shares_storage(&weight(4)));
        assert!(weight(2).shares_storage(&weight(3)));
    }

    #[test]
    fn programs_differing_only_in_a_nan_payload_each_ship_in_full() {
        let payloads = [0x7fc0_0001, 0x7fc0_0002];
        let held = HashSet::new();
        let mut w = window(&held);
        for bits in payloads {
            let mut b = Program::builder("nan", EvalMode::Exact);
            let x = b.input(&[1, 4]);
            let norm = Op::LayerNorm {
                gamma: vec![1.0; 4],
                beta: vec![0.0; 4],
                eps: f32::from_bits(bits),
            };
            b.push(norm, &[x]);
            let request = Request::program(b.finish().unwrap(), vec![Tensor::zeros(&[1, 4])]);
            put_lowered(&mut w, request);
        }
        // Every program crosses whole; only constants are ever named by
        // key, and these have none.
        assert_eq!(w.stats, WeightCacheStats::default());
        let mut r = WireReader::new(&w.bytes);
        let mut store = HashMap::new();
        for bits in payloads {
            let back = get_request(&mut r, &mut store).unwrap();
            assert!(matches!(back.lowered_program().nodes()[0].op,
                Op::LayerNorm { eps, .. } if eps.to_bits() == bits));
        }
    }

    /// A one-request window body of `program` over `x`, to a worker that
    /// holds its constants or not.
    fn window_of(program: &Program, x: &Tensor, held: bool) -> Vec<u8> {
        let keys = program.consts().iter().map(|c| tensor_fingerprint(c));
        let held = if held { keys.collect() } else { HashSet::new() };
        let mut w = window(&held);
        1usize.put(&mut w);
        7u64.put(&mut w);
        put_request(&mut w, program, std::slice::from_ref(x));
        w.bytes
    }

    /// Serves `window` on `engine` against `store` and returns the reply
    /// frame's kind.
    fn serve(window: &[u8], engine: &mut BatchEngine, store: &mut HashMap<u64, Tensor>) -> u16 {
        let reply = serve_window(&mut WireReader::new(window), engine, store);
        assert_eq!(engine.pending(), 0);
        wire::open(&reply).unwrap().0
    }

    #[test]
    fn a_constant_the_worker_never_received_is_corrupt() {
        let program = small_program();
        let x = Tensor::zeros(&[1, 4]);
        let named = window_of(&program, &x, true);
        let mut store = HashMap::new();
        let mut r = WireReader::new(&named[16..]);
        assert!(matches!(
            get_request(&mut r, &mut store),
            Err(WireError::Corrupt(_))
        ));
        // Through the worker's window loop it is a WindowError, and the
        // worker serves the window that carries the weight.
        let mut engine = BatchEngine::new(OneSa::new(ArrayConfig::new(4, 4)), 0.25).unwrap();
        assert_eq!(serve(&named, &mut engine, &mut store), KIND_WINDOW_ERROR);
        let carried = window_of(&program, &x, false);
        assert_eq!(serve(&carried, &mut engine, &mut store), KIND_OUTCOMES);
        assert_eq!(serve(&named, &mut engine, &mut store), KIND_OUTCOMES);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn hostile_request_bytes_are_corrupt_not_a_panic() {
        let mut rng = Pcg32::seed_from_u64(8);
        // The removed request tags, with the payloads they used to carry:
        // tag 0 = GEMM (two tensors), 1 = nonlinear, 2 = a full program,
        // 3 = a program ref.
        let program = small_program();
        let mut gemm = Vec::new();
        0u8.put(&mut gemm);
        rng.randn(&[2, 3], 1.0).put(&mut gemm);
        rng.randn(&[3, 2], 1.0).put(&mut gemm);
        let mut nonlinear = Vec::new();
        1u8.put(&mut nonlinear);
        NonlinearFn::Gelu.put(&mut nonlinear);
        rng.randn(&[2, 2], 1.0).put(&mut nonlinear);
        let mut full = vec![2u8];
        program.put(&mut full);
        0usize.put(&mut full);
        let mut reference = vec![3u8];
        program.fingerprint().put(&mut reference);
        0usize.put(&mut reference);
        for bytes in [gemm, nonlinear, full, reference, vec![0xff]] {
            assert!(get_request(&mut WireReader::new(&bytes), &mut HashMap::new()).is_err());
        }

        let mut engine = BatchEngine::new(OneSa::new(ArrayConfig::new(4, 4)), 0.25).unwrap();
        let mut store = HashMap::new();
        let x = rng.randn(&[1, 4], 1.0);
        let good = window_of(&program, &x, false);
        // The program ends in the carried count and the weight's pair
        // (its key, then the `[4, 2]` tensor), and the inputs (a count and
        // one `[1, 4]` tensor) follow.
        let tensor = |len: usize| 4 + 2 * 8 + 8 + 4 * len;
        let pair = good.len() - (8 + tensor(4));
        let key = pair - tensor(8) - 8;
        // A constant whose bytes do not hash to its key.
        let mut flipped = good.clone();
        flipped[pair - 1] ^= 0x01;
        let mut misfiled = good.clone();
        misfiled[key] ^= 0x01;
        for bytes in [&flipped, &misfiled] {
            let err = get_request(&mut WireReader::new(&bytes[16..]), &mut store).unwrap_err();
            assert!(
                matches!(err, WireError::FingerprintMismatch { .. }),
                "{err:?}"
            );
            assert_eq!(serve(bytes, &mut engine, &mut store), KIND_WINDOW_ERROR);
        }
        // A constant list cut short: the count promises a second pair,
        // and the window ends after the first.
        let mut short = good[..pair].to_vec();
        let count = key - 8;
        short[count..count + 8].copy_from_slice(&2u64.to_le_bytes());
        let err = get_request(&mut WireReader::new(&short[16..]), &mut store).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
        assert_eq!(serve(&short, &mut engine, &mut store), KIND_WINDOW_ERROR);
        // Only the honest pair in front of the cut was filed, under its
        // own key, and the worker stays serviceable.
        assert_eq!(store.len(), 1);
        assert!(store.iter().all(|(&key, t)| tensor_fingerprint(t) == key));
        assert_eq!(serve(&good, &mut engine, &mut store), KIND_OUTCOMES);
    }

    fn sample_run(rng: &mut Pcg32, n: usize, seed: u64) -> BatchRun {
        let outcomes: Vec<RequestOutcome> = (0..n)
            .map(|i| {
                let stats = ExecStats {
                    breakdown: Default::default(),
                    macs: seed.wrapping_mul(i as u64 + 1),
                    nonlinear_evals: i as u64,
                    clock_mhz: 200.0,
                };
                RequestOutcome {
                    id: i,
                    output: rng.randn(&[1 + i % 3, 2], 1.0),
                    stats,
                    session_outputs: (0..i % 4)
                        .map(|l| rng.randn(&[1 + i, 2 + l % 2], 1.0))
                        .collect(),
                }
            })
            .collect();
        let report = ServingReport {
            requests: n,
            wall_seconds: 0.5,
            batched_seconds: (seed % 1000) as f64 / 64.0,
            unbatched_seconds: 0.25,
            total_macs: seed.wrapping_mul(31),
            total_nonlinear_evals: seed % 97,
            gemm_groups: seed as usize % 7,
            nonlinear_groups: seed as usize % 3,
            latencies: outcomes.iter().map(|o| o.stats.seconds()).collect(),
        };
        let program_stages = (0..seed as usize % 3)
            .map(|stage| StageGroups {
                stage,
                ops: n,
                groups: 1 + stage,
                gemm_groups: 1,
                nonlinear_groups: stage,
            })
            .collect();
        BatchRun {
            outcomes,
            report,
            program_stages,
        }
    }

    /// Every field of a worker's `BatchRun` survives the wire.
    fn assert_run_round_trips(run: &BatchRun, tickets: &[u64]) {
        let mut bytes = Vec::new();
        put_window_result(tickets, run.clone(), &mut bytes);
        let mut r = WireReader::new(&bytes);
        let back = get_window_result(&mut r, tickets).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.outcomes.len(), run.outcomes.len());
        for (a, b) in run.outcomes.iter().zip(&back.outcomes) {
            assert_eq!(a.id, b.id);
            assert_tensor_bits_eq(&a.output, &b.output);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.session_outputs.len(), b.session_outputs.len());
            for (s, t) in a.session_outputs.iter().zip(&b.session_outputs) {
                assert_tensor_bits_eq(s, t);
            }
        }
        let (a, b) = (&run.report, &back.report);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(
            (a.gemm_groups, a.nonlinear_groups),
            (b.gemm_groups, b.nonlinear_groups)
        );
        assert_eq!(
            (a.total_macs, a.total_nonlinear_evals),
            (b.total_macs, b.total_nonlinear_evals)
        );
        for (x, y) in [
            (a.wall_seconds, b.wall_seconds),
            (a.batched_seconds, b.batched_seconds),
            (a.unbatched_seconds, b.unbatched_seconds),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(run.program_stages, back.program_stages);

        // A reply under other tickets (or another count) is refused.
        let mut wrong = tickets.to_vec();
        wrong.push(99);
        assert!(get_window_result(&mut WireReader::new(&bytes), &wrong).is_err());
        if !tickets.is_empty() {
            wrong[0] ^= 1;
            let wrong = &wrong[..tickets.len()];
            assert!(get_window_result(&mut WireReader::new(&bytes), wrong).is_err());
        }
    }

    #[test]
    fn window_result_round_trip() {
        let mut rng = Pcg32::seed_from_u64(9);
        let mut run = sample_run(&mut rng, 2, 999);
        run.outcomes[0].output = Tensor::from_vec(vec![1.0, -0.0], &[1, 2]).unwrap();
        assert_run_round_trips(&run, &[42, 7]);
    }

    #[test]
    fn worker_main_rejects_bad_args() {
        assert!(worker_main(std::iter::empty()).is_err());
        assert!(worker_main(["--connect".to_string(), "bogus:x".to_string()].into_iter()).is_err());
        assert!(worker_main(["--frobnicate".to_string()].into_iter()).is_err());
    }

    /// Spawns `worker` for `shard` over a Unix socket, expecting the
    /// spawn to fail, and returns the socket files the attempt left in
    /// the temp dir. Each test passes its own shard number, so tests
    /// running in parallel never see each other's files.
    fn failed_spawn_leftovers(shard: usize, worker: &str) -> Vec<PathBuf> {
        let worker = PathBuf::from(worker);
        let cfg = ArrayConfig::new(8, 16);
        let spawned = WorkerHandle::spawn(
            shard,
            Transport::Unix,
            Some(&worker),
            &cfg,
            Parallelism::Sequential,
            0.25,
        );
        assert!(spawned.is_err(), "{worker:?} must not handshake");
        let prefix = format!("onesa-worker-{}-{shard}-", std::process::id());
        let entries = std::fs::read_dir(std::env::temp_dir()).unwrap();
        let paths = entries.map(|e| e.unwrap().path());
        paths
            .filter(|p| {
                p.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with(&prefix)
            })
            .collect()
    }

    #[test]
    fn a_worker_that_cannot_start_leaves_no_socket_file() {
        assert_eq!(
            failed_spawn_leftovers(9001, "/nonexistent"),
            Vec::<PathBuf>::new()
        );
    }

    #[test]
    fn a_worker_that_exits_before_connecting_leaves_no_socket_file() {
        assert_eq!(
            failed_spawn_leftovers(9002, "/bin/true"),
            Vec::<PathBuf>::new()
        );
    }

    use proptest::prelude::*;

    fn assert_tensor_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Randomized mixed request streams round trip bit-exactly
        /// through the weight-cached request codec, and the cache
        /// accounting matches the repeat structure exactly: one full
        /// send per distinct weight, refs after.
        #[test]
        fn request_frames_round_trip(
            n_gemm in 0usize..4,
            n_nl in 0usize..4,
            n_prog in 0usize..5,
            seed in 0u64..10_000,
        ) {
            let mut rng = Pcg32::seed_from_u64(seed);
            let program = small_program();
            let weights = rng.randn(&[4, 2], 1.0);
            let mut reqs = Vec::new();
            for i in 0..n_gemm {
                // One shared weight at varying row counts.
                reqs.push(Request::gemm(rng.randn(&[1 + i, 4], 1.0), weights.clone()));
            }
            for i in 0..n_nl {
                let func = if i % 2 == 0 {
                    NonlinearFn::Gelu
                } else {
                    NonlinearFn::Sigmoid
                };
                reqs.push(Request::nonlinear(func, rng.randn(&[2, 3 + i], 1.0)));
            }
            for _ in 0..n_prog {
                reqs.push(Request::program(program.clone(), vec![rng.randn(&[1, 4], 1.0)]));
            }
            let held = HashSet::new();
            let mut w = window(&held);
            let sent: Vec<Request> = reqs.into_iter().map(|r| put_lowered(&mut w, r)).collect();
            // A nonlinear's program has no constants.
            let distinct = usize::from(n_gemm > 0) + usize::from(n_prog > 0);
            prop_assert_eq!(w.stats.full_sends, distinct);
            prop_assert_eq!(w.stats.ref_sends, n_gemm + n_prog - distinct);
            let bytes = w.bytes;
            let mut r = WireReader::new(&bytes);
            let mut store = HashMap::new();
            for req in &sent {
                assert_same_request(req, &get_request(&mut r, &mut store).unwrap());
            }
            r.expect_end().unwrap();
            prop_assert_eq!(store.len(), distinct);
        }

        /// Randomized outcome frames round trip every field — tickets,
        /// output bits, solo stats, the report, the stage accounting.
        #[test]
        fn outcome_frames_round_trip(
            n in 0usize..6,
            seed in 0u64..10_000,
        ) {
            let mut rng = Pcg32::seed_from_u64(seed);
            let run = sample_run(&mut rng, n, seed);
            let tickets: Vec<u64> = (0..n as u64).map(|i| seed ^ i).collect();
            assert_run_round_trips(&run, &tickets);
        }
    }
}
