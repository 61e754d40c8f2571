//! The alignment server: `std::net` connection handling in front of one
//! long-lived [`StreamSession`] per kernel.
//!
//! Every connection is a pair of tasks communicating over bounded/FIFO
//! edges, the same task-parallel shape as the engine it fronts:
//!
//! * a **reader** that decodes request frames, stamps each with the
//!   connection's next sequence number, resolves the kernel by name
//!   ([`dispatch_dna`]), and submits the pair into that kernel's shared
//!   session — blocking in `submit` when the engine's admission window is
//!   full, which propagates backpressure all the way to the client's TCP
//!   window;
//! * a **writer** that collects result frames from the engine sinks (and
//!   error frames synthesized by the reader) and restores the
//!   connection's request order with an [`OrderedWriter`] before they hit
//!   the socket.
//!
//! All connections requesting the same kernel share one engine session —
//! the multi-tenant batch. A session's sink fires in session input order,
//! which preserves each connection's submission order as a subsequence;
//! only cross-kernel interleavings within one connection need reordering,
//! and the per-connection [`OrderedWriter`] handles exactly that.
//!
//! [`StreamSession`]: dphls_host::StreamSession
//! [`OrderedWriter`]: dphls_host::OrderedWriter
//! [`dispatch_dna`]: dphls_kernels::dispatch_dna

use crate::protocol::{
    read_frame, write_frame, ErrorCode, ErrorFrame, Frame, ReadFrameError, Response,
    DEFAULT_MAX_FRAME,
};
use dphls_core::{AdaptiveKernel, DpOutput, KernelConfig, KernelSpec, LaneKernel, LanePrecision};
use dphls_host::{
    ExactEngine, FleetConfig, OrderedWriter, PairEngine, PairFault, PrecisionEngine,
    ResilienceConfig, SessionClosed, StreamConfig, StreamSession,
};
use dphls_kernels::{default_banding, dispatch_dna, DnaKernelRunner, DISPATCHABLE_KERNELS};
use dphls_seq::Base;
use dphls_systolic::{CycleModelParams, Device, KernelCycleInfo};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Device shape and engine policy the server runs every kernel with.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Systolic array width per channel (paper `NPE`).
    pub npe: usize,
    /// Blocks per channel (paper `NB`).
    pub nb: usize,
    /// Independent kernel channels (paper `NK`) — the server's intra-kernel
    /// parallelism.
    pub nk: usize,
    /// Maximum query/reference length a request may carry. Longer pairs
    /// are admitted and then quarantined by the engine
    /// (`SequenceTooLong`), surfacing as [`ErrorCode::Quarantined`]
    /// frames.
    pub max_len: usize,
    /// Streaming engine knobs (`buffer` = session submission channel
    /// depth, `window` = admission window; with the pair in the dealer's
    /// hand, `buffer + window + 1` is the backpressure budget).
    pub stream: StreamConfig,
    /// Fleet shape every kernel session runs on: how many modeled devices
    /// the engine shards across and the host↔device transfer cost. The
    /// default ([`FleetConfig::single`]) is one device with a free link —
    /// the classic single-device server. Responses are bit-identical
    /// across fleet sizes; only the modeled throughput changes.
    pub fleet: FleetConfig,
    /// Failure policy. The default is
    /// [`ResilienceConfig::standard`] with quarantine, so one poisoned
    /// request costs one error frame, not the server.
    pub resilience: ResilienceConfig,
    /// Largest frame payload accepted from a client; see
    /// [`DEFAULT_MAX_FRAME`].
    pub max_frame: usize,
    /// Score precision the kernel sessions run at. With
    /// [`LanePrecision::Adaptive`], kernels that have an `i8` companion
    /// (the linear/affine family) run the saturating-`i8` fast path and
    /// escalate individual pairs to exact `i16` when the in-band guard
    /// trips — responses are bit-identical either way. Kernels without a
    /// companion (the two-piece family) run exact: the one
    /// [`dispatch_dna`] table routes them to the session runner's exact
    /// method, so the server has no fallback branch of its own.
    pub precision: LanePrecision,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            npe: 32,
            nb: 1,
            nk: 2,
            max_len: 512,
            stream: StreamConfig::default(),
            fleet: FleetConfig::single(),
            resilience: ResilienceConfig::standard(),
            max_frame: DEFAULT_MAX_FRAME,
            precision: LanePrecision::Exact,
        }
    }
}

/// Per-kernel tallies reported at shutdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Pairs the kernel's session processed (completed + quarantined).
    pub pairs: usize,
    /// Pairs quarantined by the resilience layer.
    pub quarantined: usize,
    /// Pairs that escalated from the `i8` fast path to the exact `i16`
    /// engine. Always 0 under [`LanePrecision::Exact`] and for kernels
    /// without an `i8` companion.
    pub escalations: u64,
    /// Grouped passes the session's engine ran (several pairs scored at
    /// once; see [`StreamReport::groups`](dphls_host::StreamReport)).
    pub groups: usize,
    /// Grouped passes that panicked or overran their deadline, so that every
    /// member ran again alone.
    pub fallbacks: usize,
}

/// Lifetime tallies returned by [`Server::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Request frames accepted across all connections (including ones
    /// answered with error frames).
    pub requests: u64,
    /// Response frames written.
    pub responses: u64,
    /// Error frames written.
    pub error_frames: u64,
    /// Socket flushes, summed over connections. A connection's writer
    /// flushes only when its queue runs empty, so
    /// `(responses + error_frames) / flushes` is the mean number of frames
    /// one flush carried.
    pub flushes: u64,
    /// Per-kernel engine tallies, one entry per session the server
    /// spawned.
    pub kernels: Vec<(String, KernelStats)>,
}

impl ServerStats {
    /// Pairs a grouped pass served on average, over every kernel: processed
    /// pairs over grouped passes. Pairs that ran alone count too, so this is
    /// the mean group size when every pair shared a pass and an upper bound
    /// on it otherwise; `None` before any pass ran.
    pub fn mean_group_size(&self) -> Option<f64> {
        let (pairs, groups) = self
            .kernels
            .iter()
            .fold((0, 0), |(p, g), (_, k)| (p + k.pairs, g + k.groups));
        (groups > 0).then(|| pairs as f64 / groups as f64)
    }
}

/// A message on a connection's writer edge: a result frame carrying its
/// connection sequence number, or the reader's end-of-stream marker with
/// the total frame count the writer should drain to.
enum WriterMsg {
    Frame(u64, Frame),
    Done(u64),
}

/// Where a submitted pair's answer goes: which connection slot it fills
/// and the writer edge that owns the slot.
struct Route {
    seq: u64,
    tx: mpsc::Sender<WriterMsg>,
}

/// Type-erased submit edge of a kernel session: registers the route, hands
/// the pair to the engine, rolls back on refusal.
type SubmitFn = Box<dyn Fn(Vec<Base>, Vec<Base>, Route) -> Result<(), SessionClosed> + Send + Sync>;

/// Type-erased close edge: drains the engine and reports its tallies.
type CloseFn = Box<dyn FnOnce() -> Option<KernelStats> + Send>;

/// A kernel session behind a non-generic boundary: closures monomorphized
/// by the [`dispatch_dna`] visitor at session creation.
struct ErasedSession {
    /// Submits one pair; the route is registered before the engine can
    /// answer and rolled back if the session refuses the pair.
    submit: SubmitFn,
    /// Drains the engine and reports its tallies; first call wins.
    close: Mutex<Option<CloseFn>>,
}

/// State shared by the accept loop and every connection task.
struct Shared {
    config: ServerConfig,
    shutting_down: AtomicBool,
    sessions: Mutex<HashMap<String, Arc<ErasedSession>>>,
    requests: AtomicU64,
    responses: AtomicU64,
    error_frames: AtomicU64,
    flushes: AtomicU64,
}

impl Shared {
    fn new(config: ServerConfig) -> Self {
        Self {
            config,
            shutting_down: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            error_frames: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        }
    }

    /// Returns the (lazily spawned) session for `name`, or `None` for a
    /// kernel outside [`DISPATCHABLE_KERNELS`].
    fn session_for(&self, name: &str) -> Option<Arc<ErasedSession>> {
        let mut sessions = self.sessions.lock().expect("sessions mutex");
        if let Some(session) = sessions.get(name) {
            return Some(Arc::clone(session));
        }
        let erased = dispatch_dna(
            name,
            SpawnSession {
                config: &self.config,
                band: default_banding(name),
            },
        )?;
        let erased = Arc::new(erased);
        sessions.insert(name.to_owned(), Arc::clone(&erased));
        Some(erased)
    }
}

/// The [`dispatch_dna`] continuation that turns a kernel name into a live
/// type-erased engine session: a kernel with an `i8` companion runs on a
/// [`PrecisionEngine`] at the server's precision, a two-piece kernel on the
/// [`ExactEngine`] whatever the precision.
struct SpawnSession<'a> {
    config: &'a ServerConfig,
    band: Option<usize>,
}

impl DnaKernelRunner for SpawnSession<'_> {
    type Out = ErasedSession;

    fn run<K>(self, params: K::Params) -> ErasedSession
    where
        K: LaneKernel + KernelSpec<Sym = Base, Score = i16> + 'static,
    {
        erase_session::<K, _>(self.config, self.band, ExactEngine::<K>::new(params))
    }

    fn run_adaptive<K>(self, params: K::Params) -> ErasedSession
    where
        K: AdaptiveKernel + KernelSpec<Sym = Base> + 'static,
    {
        let engine = PrecisionEngine::<K>::new(params, self.config.precision);
        erase_session::<K, _>(self.config, self.band, engine)
    }
}

/// Shared body of the session-spawning runner's two methods: builds the device, wires
/// the route table into the result sink, spawns the session on `engine`
/// under the server's stream/fleet/resilience configuration, and wraps it
/// behind the type-erased submit/close edges.
fn erase_session<K, E>(config: &ServerConfig, band: Option<usize>, engine: E) -> ErasedSession
where
    K: LaneKernel + KernelSpec<Sym = Base, Score = i16> + 'static,
    E: PairEngine<K> + Send + 'static,
{
    let mut kernel_config = KernelConfig::new(config.npe, config.nb, config.nk)
        .with_max_lengths(config.max_len, config.max_len);
    if let Some(half_width) = band {
        kernel_config = kernel_config.with_banding(half_width);
    }
    let device = Device::new(
        kernel_config,
        CycleModelParams::dphls(),
        KernelCycleInfo {
            sym_bits: 2,
            has_walk: true,
            ii: 1,
        },
        250.0,
    );
    let routes: Arc<Mutex<HashMap<usize, Route>>> = Arc::default();
    let sink_routes = Arc::clone(&routes);
    // The route-resolving result sink the kernel session writes into.
    let sink = move |idx, slot: Result<DpOutput<i16>, PairFault>| {
        let route = sink_routes
            .lock()
            .expect("routes mutex")
            .remove(&idx)
            .expect("route registered before its sink slot fires");
        let frame = match slot {
            Ok(out) => Frame::Response(Response {
                seq: route.seq,
                score: i64::from(out.best_score),
                best_cell: (out.best_cell.0 as u32, out.best_cell.1 as u32),
                cells: out.cells_computed,
            }),
            Err(fault) => Frame::Error(ErrorFrame {
                seq: route.seq,
                code: ErrorCode::Quarantined,
                message: fault.to_string(),
            }),
        };
        // A hung-up writer just drops the frame; the engine is not
        // a connection's hostage.
        let _ = route.tx.send(WriterMsg::Frame(route.seq, frame));
    };
    let session = Arc::new(StreamSession::<K>::spawn_engine(
        device,
        engine,
        config.stream,
        config.fleet,
        config.resilience.clone(),
        sink,
    ));
    let submit_session = Arc::clone(&session);
    let submit_routes = Arc::clone(&routes);
    ErasedSession {
        submit: Box::new(move |query, reference, route| {
            match submit_session.submit_with(query, reference, |idx| {
                submit_routes
                    .lock()
                    .expect("routes mutex")
                    .insert(idx, route);
            }) {
                Ok(_) => Ok(()),
                Err(err) => {
                    if let Some(idx) = err.registered {
                        submit_routes.lock().expect("routes mutex").remove(&idx);
                    }
                    Err(err)
                }
            }
        }),
        close: Mutex::new(Some(Box::new(move || {
            session.shutdown().map(|result| match result {
                Ok(report) => KernelStats {
                    pairs: report.pairs,
                    quarantined: report.faults.len(),
                    escalations: report.escalations,
                    groups: report.groups,
                    fallbacks: report.fallbacks,
                },
                Err(_) => KernelStats::default(),
            })
        }))),
    }
}

/// One accepted connection: the socket handle kept for shutdown plus the
/// reader/writer task handles.
struct Connection {
    stream: TcpStream,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// A running alignment server. Dropping it **without**
/// [`shutdown`](Self::shutdown) leaks the accept thread; shut it down.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: JoinHandle<()>,
    connections: Arc<Mutex<Vec<Connection>>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`], naming the field, if
    /// `config.stream.buffer` or `config.stream.window` is zero — a kernel
    /// session cannot start on either, and would fail on the first request
    /// instead. Otherwise propagates the bind failure.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> io::Result<Server> {
        let stream = &config.stream;
        for (field, value) in [("buffer", stream.buffer), ("window", stream.window)] {
            if value == 0 {
                let msg = format!("ServerConfig::stream.{field} must be at least 1");
                return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
            }
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(config));
        let connections: Arc<Mutex<Vec<Connection>>> = Arc::default();
        let accept = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || accept_loop(&listener, &shared, &connections))
        };
        Ok(Server {
            shared,
            addr,
            accept,
            connections,
        })
    }

    /// The address the server is listening on (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drains and stops the server: stops accepting, closes every kernel
    /// session (in-flight pairs complete and their responses are
    /// delivered), unblocks idle connections, joins all tasks, and
    /// returns the lifetime tallies.
    pub fn shutdown(self) -> ServerStats {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Unblock the accept loop; it re-checks the flag per connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        // Drain the engines. Every admitted pair emits a sink slot, so
        // every routed request gets its frame before close() returns.
        let mut kernels: Vec<(String, KernelStats)> = Vec::new();
        let sessions: Vec<_> = {
            let mut map = self.shared.sessions.lock().expect("sessions mutex");
            map.drain().collect()
        };
        for (name, session) in sessions {
            let close = session.close.lock().expect("close mutex").take();
            if let Some(close) = close {
                if let Some(stats) = close() {
                    kernels.push((name, stats));
                }
            }
        }
        kernels.sort_by(|a, b| a.0.cmp(&b.0));
        // Readers idling in read_frame see EOF; writes stay open so their
        // writers can flush anything still queued.
        let connections = std::mem::take(&mut *self.connections.lock().expect("connections mutex"));
        for conn in &connections {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        for conn in connections {
            let _ = conn.reader.join();
            let _ = conn.writer.join();
        }
        ServerStats {
            requests: self.shared.requests.load(Ordering::SeqCst),
            responses: self.shared.responses.load(Ordering::SeqCst),
            error_frames: self.shared.error_frames.load(Ordering::SeqCst),
            flushes: self.shared.flushes.load(Ordering::SeqCst),
            kernels,
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, connections: &Mutex<Vec<Connection>>) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // The writer flushes only when its queue runs empty, so Nagle would
        // hold the last answer of a burst until the client's delayed ACK. A
        // socket that refuses the option still serves, only later.
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        let (tx, rx) = mpsc::channel::<WriterMsg>();
        let reader = {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || connection_reader(&shared, read_half, &tx))
        };
        let writer = {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || connection_writer(&shared, write_half, &rx))
        };
        connections
            .lock()
            .expect("connections mutex")
            .push(Connection {
                stream,
                reader,
                writer,
            });
    }
}

/// Decodes request frames, assigns connection sequence numbers, and feeds
/// the kernel sessions. Exits on EOF, transport error, or the first
/// undecodable/non-request frame (after answering it).
fn connection_reader(shared: &Shared, stream: TcpStream, tx: &mpsc::Sender<WriterMsg>) {
    let max_frame = shared.config.max_frame;
    let mut stream = BufReader::new(stream);
    let mut seq: u64 = 0;
    let synth = |seq: u64, code: ErrorCode, message: String| {
        let _ = tx.send(WriterMsg::Frame(
            seq,
            Frame::Error(ErrorFrame { seq, code, message }),
        ));
    };
    loop {
        match read_frame(&mut stream, max_frame) {
            Ok(None) => break,
            Ok(Some(Frame::Request(req))) => {
                let this = seq;
                seq += 1;
                shared.requests.fetch_add(1, Ordering::Relaxed);
                if shared.shutting_down.load(Ordering::SeqCst) {
                    synth(this, ErrorCode::ShuttingDown, "server is draining".into());
                    continue;
                }
                match shared.session_for(&req.kernel) {
                    None => synth(
                        this,
                        ErrorCode::UnknownKernel,
                        format!(
                            "unknown kernel {:?} (expected one of {:?})",
                            req.kernel, DISPATCHABLE_KERNELS
                        ),
                    ),
                    Some(session) => {
                        let route = Route {
                            seq: this,
                            tx: tx.clone(),
                        };
                        if (session.submit)(req.query, req.reference, route).is_err() {
                            synth(this, ErrorCode::ShuttingDown, "server is draining".into());
                        }
                    }
                }
            }
            Ok(Some(_)) => {
                let this = seq;
                seq += 1;
                shared.requests.fetch_add(1, Ordering::Relaxed);
                synth(
                    this,
                    ErrorCode::BadFrame,
                    "only request frames are accepted".into(),
                );
                break;
            }
            Err(ReadFrameError::Decode(e)) => {
                let this = seq;
                seq += 1;
                shared.requests.fetch_add(1, Ordering::Relaxed);
                synth(this, ErrorCode::BadFrame, e.to_string());
                break;
            }
            Err(ReadFrameError::Io(_)) => break,
        }
    }
    let _ = tx.send(WriterMsg::Done(seq));
}

/// A connection's buffered socket half. A write or flush error marks it
/// dead: later frames are dropped, since the peer can no longer read them.
struct FrameOut<'a, W: Write> {
    out: BufWriter<W>,
    dead: bool,
    shared: &'a Shared,
}

impl<W: Write> FrameOut<'_, W> {
    fn write(&mut self, frame: &Frame) {
        if self.dead {
            return;
        }
        if write_frame(&mut self.out, frame).is_err() {
            self.dead = true;
            return;
        }
        let counter = match frame {
            Frame::Response(_) => &self.shared.responses,
            _ => &self.shared.error_frames,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Sends whatever the buffer holds; a no-op (and no count) when empty.
    fn flush(&mut self) {
        if self.dead || self.out.buffer().is_empty() {
            return;
        }
        self.shared.flushes.fetch_add(1, Ordering::Relaxed);
        if self.out.flush().is_err() {
            self.dead = true;
        }
    }
}

/// Restores the connection's request order and writes frames to the
/// socket. Exits once the reader's total is known and every slot up to it
/// has been received (every admitted pair is guaranteed a frame).
///
/// Frames queued on the edge are written back to back; the socket is
/// flushed only when the edge runs empty, before the writer blocks, and
/// once more on exit. A burst of answers leaves in one flush, and no
/// answer waits in the buffer while the writer sleeps.
fn connection_writer<W: Write>(shared: &Shared, stream: W, rx: &mpsc::Receiver<WriterMsg>) {
    // The reorder depth is bounded by the connection's in-flight requests:
    // at most `buffer + window + 1` resident per kernel session, plus the
    // slot being synthesized by the reader. Saturating: any window,
    // `usize::MAX` included, is a valid stream config.
    let stream_cfg = shared.config.stream;
    let per_session = stream_cfg
        .buffer
        .saturating_add(stream_cfg.window)
        .saturating_add(1);
    let window = DISPATCHABLE_KERNELS
        .len()
        .saturating_mul(per_session)
        .saturating_add(1);
    let out = RefCell::new(FrameOut {
        out: BufWriter::new(stream),
        dead: false,
        shared,
    });
    let mut writer = OrderedWriter::new(window, |_, frame: Frame| out.borrow_mut().write(&frame));
    let mut total: Option<u64> = None;
    let mut received: u64 = 0;
    while total != Some(received) {
        let msg = match rx.try_recv() {
            Ok(msg) => msg,
            Err(mpsc::TryRecvError::Empty) => {
                out.borrow_mut().flush();
                let Ok(msg) = rx.recv() else { break };
                msg
            }
            Err(mpsc::TryRecvError::Disconnected) => break,
        };
        match msg {
            WriterMsg::Frame(seq, frame) => {
                received += 1;
                if writer.push(seq as usize, frame).is_err() {
                    // Reorder overflow cannot happen within the window
                    // bound above; treat it as a torn connection.
                    break;
                }
            }
            WriterMsg::Done(n) => total = Some(n),
        }
    }
    out.borrow_mut().flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// What a writer did to its socket: every byte, and how many bytes had
    /// been written at each flush.
    #[derive(Default)]
    struct Log {
        bytes: Vec<u8>,
        flushed_at: Vec<usize>,
    }

    /// A socket stand-in that logs, and reports each flush on `on_flush`.
    #[derive(Clone, Default)]
    struct Probe {
        log: Arc<Mutex<Log>>,
        on_flush: Option<mpsc::Sender<usize>>,
    }

    impl Write for Probe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.log.lock().unwrap().bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            let mut log = self.log.lock().unwrap();
            let at = log.bytes.len();
            log.flushed_at.push(at);
            if let Some(tx) = &self.on_flush {
                tx.send(at).unwrap();
            }
            Ok(())
        }
    }

    fn answer(seq: u64) -> WriterMsg {
        WriterMsg::Frame(
            seq,
            Frame::Response(Response {
                seq,
                score: 7,
                best_cell: (1, 2),
                cells: 3,
            }),
        )
    }

    /// The `seq`s of the response frames in `bytes`, in wire order.
    fn seqs(mut bytes: &[u8]) -> Vec<u64> {
        let mut seqs = Vec::new();
        while let Some(frame) = read_frame(&mut bytes, DEFAULT_MAX_FRAME).unwrap() {
            let Frame::Response(resp) = frame else {
                panic!("unexpected {frame:?}")
            };
            seqs.push(resp.seq);
        }
        seqs
    }

    #[test]
    fn a_queued_burst_leaves_in_order_in_at_most_two_flushes() {
        let shared = Shared::new(ServerConfig::default());
        let (tx, rx) = mpsc::channel();
        for seq in (0..32).rev() {
            tx.send(answer(seq)).unwrap();
        }
        tx.send(WriterMsg::Done(32)).unwrap();
        let probe = Probe::default();
        connection_writer(&shared, probe.clone(), &rx);

        let log = probe.log.lock().unwrap();
        assert_eq!(seqs(&log.bytes), (0..32).collect::<Vec<_>>());
        assert!(log.flushed_at.len() <= 2, "{:?}", log.flushed_at);
        assert_eq!(log.flushed_at.last(), Some(&log.bytes.len()));
        assert_eq!(
            shared.flushes.load(Ordering::SeqCst),
            log.flushed_at.len() as u64
        );
        assert_eq!(shared.responses.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn a_frame_is_flushed_before_the_writer_waits_for_the_next() {
        let shared = Shared::new(ServerConfig::default());
        let (tx, rx) = mpsc::channel();
        let (flush_tx, flush_rx) = mpsc::channel();
        let probe = Probe {
            on_flush: Some(flush_tx),
            ..Probe::default()
        };
        std::thread::scope(|scope| {
            // Owned by this closure, so that a failed assertion drops the
            // edge and the writer exits instead of holding the scope open.
            let tx = tx;
            let (shared, writer_probe) = (&shared, probe.clone());
            let writer = scope.spawn(move || connection_writer(shared, writer_probe, &rx));
            tx.send(answer(0)).unwrap();
            // Frame 1 is sent only once frame 0 reached the socket, so the
            // writer must have flushed with its edge empty.
            let at = flush_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("the writer flushes before it blocks");
            assert_eq!(seqs(&probe.log.lock().unwrap().bytes[..at]), [0]);
            tx.send(answer(1)).unwrap();
            tx.send(WriterMsg::Done(2)).unwrap();
            drop(tx);
            writer.join().unwrap();
        });
        let log = probe.log.lock().unwrap();
        assert_eq!(seqs(&log.bytes), [0, 1]);
        assert_eq!(log.flushed_at.last(), Some(&log.bytes.len()));
    }

    #[test]
    fn a_drain_under_load_flushes_every_frame() {
        // Shutdown order: the reader's total arrives first, then the
        // sessions' answers, out of order and more than a socket buffer of
        // them.
        const N: u64 = 512;
        let shared = Shared::new(ServerConfig::default());
        let (tx, rx) = mpsc::channel();
        let probe = Probe::default();
        std::thread::scope(|scope| {
            let (shared, writer_probe) = (&shared, probe.clone());
            let writer = scope.spawn(move || connection_writer(shared, writer_probe, &rx));
            tx.send(WriterMsg::Done(N)).unwrap();
            for seq in 0..N {
                tx.send(answer(seq ^ 1)).unwrap();
            }
            drop(tx);
            writer.join().unwrap();
        });
        let log = probe.log.lock().unwrap();
        assert!(log.bytes.len() > 8 * 1024);
        assert_eq!(seqs(&log.bytes), (0..N).collect::<Vec<_>>());
        assert_eq!(log.flushed_at.last(), Some(&log.bytes.len()));
    }
}
