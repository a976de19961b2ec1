//! Cross-host serving transport: shard workers as **separate
//! processes**, programs as the wire unit.
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
//! host → worker   Configure  { granularity, ArrayConfig, Parallelism }
//! worker → host   Ready      {}
//! host → worker   Window     { n × (ticket, program | program ref, inputs) }
//! worker → host   Outcomes   { n × (ticket, output, stats, op_stats, session
//!                              outputs), report, per-stage groups }
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
//! Program consts (the weights) dominate request bytes. The host keeps,
//! per worker, the set of program fingerprints it has already shipped:
//! the first request for a program sends the **full** program (consts
//! included) and later requests send a *const-free delta* — just the
//! fingerprint plus the input tensors. A window's sends count, and its
//! new fingerprints become refs, only once the worker answers it with
//! `Outcomes`: a window that fails may not have reached the worker's
//! cache. The worker caches decoded programs by fingerprint (consts
//! `Arc`-shared, so the cache holds one copy of each weight set). A
//! stateless program's fingerprint ignores its input shapes, so one
//! entry serves a ref at any shape the op list accepts — every
//! `[rows, k] · W` GEMM against one `W` — by re-targeting the cached
//! program at the shapes of the inputs that came with the ref.
//! [`WeightCacheStats`] counts both kinds of send and the const bytes
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

use onesa_plan::wire::{self, Wire, WireError, WireReader};
use onesa_plan::{wire_layout, OptTotals, Program, StageGroups};
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
/// consts actually crossed the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WeightCacheStats {
    /// Program requests that shipped the full frame (first sighting of
    /// a fingerprint on this worker).
    pub full_sends: usize,
    /// Program requests that sent only the fingerprint + inputs.
    pub ref_sends: usize,
    /// Const payload bytes the ref sends avoided (4 bytes per weight
    /// element, per avoided resend).
    pub const_bytes_saved: u64,
}

impl WeightCacheStats {
    /// Fraction of program sends served from the worker's cache.
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

/// Request tags. Every request crosses the wire as a program; tags 0
/// and 1 carried bare GEMM / nonlinear requests before those lowered to
/// programs at the front door, and now decode as corrupt.
const REQ_PROGRAM_FULL: u8 = 2;
const REQ_PROGRAM_REF: u8 = 3;

/// What one window sends: the fingerprints it ships in full and its
/// cache counters, committed to the connection only once the worker
/// answers the window with `Outcomes`.
#[derive(Debug, Default)]
struct WindowSends {
    full: HashSet<u64>,
    stats: WeightCacheStats,
}

/// Writes one lowered request. A program the worker already holds — in
/// `shipped`, or sent in full earlier in this window — goes out as a
/// const-free delta.
fn put_request(
    w: &mut Vec<u8>,
    program: &Program,
    inputs: &[Tensor],
    shipped: &HashSet<u64>,
    sends: &mut WindowSends,
) {
    let fp = program.fingerprint();
    if shipped.contains(&fp) || sends.full.contains(&fp) {
        REQ_PROGRAM_REF.put(w);
        fp.put(w);
        sends.stats.ref_sends += 1;
        sends.stats.const_bytes_saved += program
            .consts()
            .iter()
            .map(|c| c.as_slice().len() as u64 * 4)
            .sum::<u64>();
    } else {
        REQ_PROGRAM_FULL.put(w);
        program.put(w);
        sends.full.insert(fp);
        sends.stats.full_sends += 1;
    }
    Tensor::put_seq(inputs, w);
}

/// Reads one request on the worker, resolving program refs against (and
/// inserting full programs into) the worker's fingerprint cache.
///
/// A stateless program's fingerprint ignores its input shapes, so one
/// cache entry answers refs at every shape — every `[rows, k] · W`
/// lowered GEMM against one `W`, whatever `rows`. The inputs that
/// follow the ref say which shapes the host validated against; when
/// they differ from the cached program's, it is re-targeted
/// ([`Program::with_input_shapes`]), sharing the one decoded copy of
/// each weight.
fn get_request(
    r: &mut WireReader<'_>,
    cache: &mut HashMap<u64, Program>,
) -> Result<Request, WireError> {
    let fp = match u8::get(r)? {
        REQ_PROGRAM_FULL => {
            let program = Program::get(r)?;
            let fp = program.fingerprint();
            cache.insert(fp, program);
            fp
        }
        REQ_PROGRAM_REF => u64::get(r)?,
        _ => return Err(WireError::Corrupt("unknown request tag")),
    };
    let cached = cache
        .get(&fp)
        .ok_or(WireError::Corrupt("program ref to unshipped fingerprint"))?;
    let inputs = Vec::<Tensor>::get(r)?;
    let fits = inputs
        .iter()
        .map(Tensor::dims)
        .eq(cached.input_shapes().iter().map(Vec::as_slice));
    let program = if fits {
        cached.clone()
    } else {
        cached
            .with_input_shapes(inputs.iter().map(|t| t.dims().to_vec()).collect())
            .map_err(|_| WireError::Corrupt("inputs do not fit the referenced program"))?
    };
    Ok(Request::program(program, inputs))
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
        op_stats: Vec<ExecStats>,
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
        opt: OptTotals,
        blocks_skipped: u64,
        blocks_total: u64,
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
    /// handshake, leaving the connection ready for windows.
    ///
    /// # Errors
    ///
    /// Any spawn, accept-timeout, socket or handshake failure.
    pub fn spawn(
        shard: usize,
        transport: Transport,
        worker: Option<&PathBuf>,
        config: &ArrayConfig,
        parallelism: Parallelism,
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
        parallelism.put(&mut cfg);
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
        let mut window = wire::frame(KIND_WINDOW);
        let mut sends = WindowSends::default();
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
            put_request(&mut window, program, inputs, &self.shipped, &mut sends);
        }
        write_frame(&mut self.stream, &window)?;

        let reply = read_frame(&mut self.stream)?;
        let (kind, mut body) = wire::open(&reply).map_err(wire_to_io)?;
        match kind {
            KIND_OUTCOMES => {
                let tickets: Vec<u64> = items.iter().map(|(ticket, _)| *ticket).collect();
                let run = get_window_result(&mut body, &tickets).map_err(wire_to_io)?;
                self.shipped.extend(sends.full);
                self.cache.merge(&sends.stats);
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
    let (granularity, config, parallelism) = (|| -> Result<_, WireError> {
        let g = f32::get(&mut body)?;
        let c = ArrayConfig::get(&mut body)?;
        let p = Parallelism::get(&mut body)?;
        body.expect_end()?;
        Ok((g, c, p))
    })()
    .map_err(|e| format!("decode configure: {e}"))?;

    // The same construction as an in-process shard: identical engine,
    // identical table set, bit-identical outputs.
    let mut engine = BatchEngine::new(OneSa::with_parallelism(config, parallelism), granularity)
        .map_err(|e| format!("build engine: {e}"))?;
    write_frame(&mut stream, &wire::frame(KIND_READY)).map_err(|e| format!("ready: {e}"))?;

    let mut programs: HashMap<u64, Program> = HashMap::new();
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
                let reply = serve_window(&mut body, &mut engine, &mut programs);
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
    programs: &mut HashMap<u64, Program>,
) -> Vec<u8> {
    let fail = |engine: &mut BatchEngine, msg: String| {
        engine.clear();
        let mut w = wire::frame(KIND_WINDOW_ERROR);
        msg.put(&mut w);
        w
    };

    let mut tickets: Vec<u64> = Vec::new();
    let decoded = (|| -> Result<(), WireError> {
        // Each item is at least a ticket and a request tag.
        let n = body.get_len(9)?;
        for _ in 0..n {
            let ticket = u64::get(body)?;
            // Decoding sealed the program; `engine.run` checks the
            // decoded inputs against it.
            engine.submit(get_request(body, programs)?);
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
    use onesa_plan::{EvalMode, Op};
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

    /// Lowers a request the way `run_window` does and writes it as part
    /// of one window to a worker that holds nothing yet.
    fn put_lowered(w: &mut Vec<u8>, mut request: Request, sends: &mut WindowSends) -> Request {
        request.lower(0.25).unwrap();
        let (program, inputs) = request.lowered();
        put_request(w, program, inputs, &HashSet::new(), sends);
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
            // Same weights, another row count: the fingerprint ignores
            // input shapes, so this goes out as a ref.
            Request::gemm(rng.randn(&[5, 3], 1.0), w.clone()),
        ];
        let mut sends = WindowSends::default();
        let mut w = Vec::new();
        let sent: Vec<Request> = reqs
            .into_iter()
            .map(|r| put_lowered(&mut w, r, &mut sends))
            .collect();
        // The second program send and the second GEMM rode the cache.
        let stats = sends.stats;
        assert_eq!(stats.full_sends, 3);
        assert_eq!(stats.ref_sends, 2);
        assert_eq!(stats.const_bytes_saved, 4 * 2 * 4 + 3 * 2 * 4);
        assert!((stats.hit_ratio() - 0.4).abs() < 1e-12);

        let bytes = w;
        let mut r = WireReader::new(&bytes);
        let mut cache = HashMap::new();
        let back: Vec<Request> = sent
            .iter()
            .map(|_| get_request(&mut r, &mut cache).unwrap())
            .collect();
        r.expect_end().unwrap();
        for (sent, back) in sent.iter().zip(&back) {
            assert_same_request(sent, back);
        }
        // One cache entry per fingerprint, and the re-targeted GEMM
        // shares the one decoded copy of its weights.
        assert_eq!(cache.len(), 3);
        assert_eq!(back[4].lowered_program().input_shapes(), [vec![5, 3]]);
        assert!(std::sync::Arc::ptr_eq(
            &back[0].lowered_program().consts()[0],
            &back[4].lowered_program().consts()[0]
        ));
    }

    #[test]
    fn programs_differing_only_in_a_nan_payload_each_ship_in_full() {
        let payloads = [0x7fc0_0001, 0x7fc0_0002];
        let mut sends = WindowSends::default();
        let mut w = Vec::new();
        for bits in payloads {
            let mut b = Program::builder("nan", EvalMode::Exact);
            let x = b.input(&[1, 4]);
            b.push(Op::Scale(f32::from_bits(bits)), &[x]);
            let request = Request::program(b.finish().unwrap(), vec![Tensor::zeros(&[1, 4])]);
            put_lowered(&mut w, request, &mut sends);
        }
        // A ref would have run the first payload in place of the second.
        assert_eq!((sends.stats.full_sends, sends.stats.ref_sends), (2, 0));
        let mut r = WireReader::new(&w);
        let mut cache = HashMap::new();
        for bits in payloads {
            let back = get_request(&mut r, &mut cache).unwrap();
            assert!(matches!(back.lowered_program().nodes()[0].op,
                Op::Scale(c) if c.to_bits() == bits));
        }
    }

    #[test]
    fn program_ref_without_prior_full_send_is_corrupt() {
        let mut w = Vec::new();
        REQ_PROGRAM_REF.put(&mut w);
        0xdead_beefu64.put(&mut w);
        0usize.put(&mut w);
        let bytes = w;
        let mut cache = HashMap::new();
        assert!(matches!(
            get_request(&mut WireReader::new(&bytes), &mut cache),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn hostile_request_bytes_are_corrupt_not_a_panic() {
        let mut rng = Pcg32::seed_from_u64(8);
        // The removed bare-request tags, with the payloads they used to
        // carry: tag 0 = GEMM (two tensors), tag 1 = nonlinear.
        let mut gemm = Vec::new();
        0u8.put(&mut gemm);
        rng.randn(&[2, 3], 1.0).put(&mut gemm);
        rng.randn(&[3, 2], 1.0).put(&mut gemm);
        let mut nonlinear = Vec::new();
        1u8.put(&mut nonlinear);
        NonlinearFn::Gelu.put(&mut nonlinear);
        rng.randn(&[2, 2], 1.0).put(&mut nonlinear);
        for bytes in [gemm, nonlinear, vec![0xff]] {
            assert!(matches!(
                get_request(&mut WireReader::new(&bytes), &mut HashMap::new()),
                Err(WireError::Corrupt("unknown request tag"))
            ));
        }

        // A ref whose inputs the cached program cannot take (a GEMM fed
        // the wrong inner dimension) is corrupt too, not a re-target.
        let mut w = Vec::new();
        let sent = put_lowered(
            &mut w,
            Request::gemm(rng.randn(&[2, 3], 1.0), rng.randn(&[3, 2], 1.0)),
            &mut WindowSends::default(),
        );
        REQ_PROGRAM_REF.put(&mut w);
        sent.lowered_program().fingerprint().put(&mut w);
        1usize.put(&mut w);
        rng.randn(&[2, 4], 1.0).put(&mut w);
        let bytes = w;
        let mut r = WireReader::new(&bytes);
        let mut cache = HashMap::new();
        get_request(&mut r, &mut cache).unwrap();
        assert!(matches!(
            get_request(&mut r, &mut cache),
            Err(WireError::Corrupt(_))
        ));

        // Through the worker's window loop the same bytes become a
        // WindowError frame and the engine stays serviceable.
        let mut window = Vec::new();
        1usize.put(&mut window);
        7u64.put(&mut window);
        0u8.put(&mut window);
        let bytes = window;
        let mut engine = BatchEngine::new(OneSa::new(ArrayConfig::new(4, 4)), 0.25).unwrap();
        let reply = serve_window(&mut WireReader::new(&bytes), &mut engine, &mut cache);
        assert_eq!(wire::open(&reply).unwrap().0, KIND_WINDOW_ERROR);
        assert_eq!(engine.pending(), 0);
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
                    stats: stats.clone(),
                    op_stats: vec![stats; i % 3],
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
            opt: OptTotals {
                shared: 2,
                pruned: 4,
                dead: 3,
            },
            blocks_skipped: seed % 16,
            blocks_total: 16 + seed % 16,
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
            assert_eq!(a.op_stats, b.op_stats);
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
        assert_eq!(a.opt, b.opt);
        assert_eq!(
            (a.blocks_skipped, a.blocks_total),
            (b.blocks_skipped, b.blocks_total)
        );
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
        /// send per distinct weight / function / program, refs after.
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
            let mut sends = WindowSends::default();
            let mut w = Vec::new();
            let sent: Vec<Request> = reqs
                .into_iter()
                .map(|r| put_lowered(&mut w, r, &mut sends))
                .collect();
            let distinct = usize::from(n_gemm > 0) + n_nl.min(2) + usize::from(n_prog > 0);
            prop_assert_eq!(sends.stats.full_sends, distinct);
            prop_assert_eq!(sends.stats.ref_sends, sent.len() - distinct);
            let bytes = w;
            let mut r = WireReader::new(&bytes);
            let mut cache = HashMap::new();
            for req in &sent {
                assert_same_request(req, &get_request(&mut r, &mut cache).unwrap());
            }
            r.expect_end().unwrap();
            prop_assert_eq!(cache.len(), distinct);
        }

        /// Randomized outcome frames round trip every field — tickets,
        /// output bits, per-op stats, the report, the stage accounting.
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
