//! The two serve workloads: an in-process `dphls_serve::Server` under a
//! closed-loop (saturated) or open-loop (paced) load generator that speaks
//! the wire protocol through `dphls_serve::protocol`'s public codec.

use crate::check::{PairOut, Verdict, Verifier};
use crate::inputs::{self, fnv1a, FNV_OFFSET};
use crate::ladder::session_rung;
use crate::metrics::{ratio, Metrics};
use crate::stats::{percentile_ns, share_within};
use crate::stream::{EngineInputs, NK};
use crate::trace::{Clock, Tracer, NO_PARENT};
use crate::workload::{Pass, Workload};
use dphls_core::{KernelConfig, LanePrecision};
use dphls_kernels::{default_banding, BandedGlobalLinear, LinearParams};
use dphls_serve::protocol::{decode_payload, encode, DEFAULT_MAX_FRAME};
use dphls_serve::{Frame, Request, Server, ServerConfig};
use std::hint::black_box;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Kernel every request names.
pub const KERNEL: &str = "banded_global_linear";

/// Length cap of the server's device; reads are clamped to it.
pub const MAX_LEN: usize = 384;

/// Array width of the server's device.
const NPE: usize = 32;

/// A served request is "in time" within this long of its due time.
const LATENCY_LIMIT_NS: u64 = 5_000_000;

/// The served pairs as engine inputs, on the device shape the server builds
/// for [`KERNEL`] — what the expected outputs and the session rung run on.
pub fn serve_inputs(seed: u64, n: usize) -> EngineInputs<BandedGlobalLinear<i16>> {
    let band = default_banding(KERNEL).expect("the served kernel is banded");
    EngineInputs {
        params: LinearParams::<i16>::dna(),
        config: KernelConfig::new(NPE, 1, NK)
            .with_max_lengths(MAX_LEN, MAX_LEN)
            .with_banding(band),
        precision: LanePrecision::Exact,
        pairs: inputs::serve_pairs(seed, n, MAX_LEN),
    }
}

/// How the generator offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop: each connection keeps `depth` requests in flight and
    /// sends the next only when an answer arrives. One thread a connection.
    Saturated { connections: usize, depth: usize },
    /// Open loop: one connection, a sender thread on a fixed schedule of
    /// `rate` requests a second and a receiver thread; each request is
    /// timed from when it was due.
    Paced { rate: f64 },
}

/// Tracer-clock stamps of one request. `encoded` and `received` are only
/// taken on a traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReqTimes {
    /// When the request was due (paced) or its send began (saturated).
    pub due: u64,
    /// When its send began.
    pub sent: u64,
    /// When its payload was encoded.
    pub encoded: u64,
    /// When its answer's last byte was read.
    pub received: u64,
    /// When its answer was decoded and checked.
    pub done: u64,
}

impl ReqTimes {
    /// What a caller waited: from the due time, not from the actual send, so
    /// a stalled sender's delay lands on the requests it held up.
    pub fn latency_ns(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator ran.
    pub fn sender_lag_ns(&self) -> u64 {
        self.sent.saturating_sub(self.due)
    }
}

/// Due time of request `i` on a schedule of `rate` requests a second that
/// began at `began_ns`.
pub fn due_ns(began_ns: u64, i: usize, rate: f64) -> u64 {
    began_ns + (i as f64 * 1e9 / rate) as u64
}

/// What the clients of one pass saw.
pub struct ClientRun {
    pub times: Vec<ReqTimes>,
    pub verdict: Verdict,
    pub secs: f64,
}

struct FrameWriter(BufWriter<TcpStream>);

struct FrameReader {
    input: BufReader<TcpStream>,
    payload: Vec<u8>,
}

fn connect(addr: SocketAddr) -> io::Result<(FrameWriter, FrameReader)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    Ok((
        FrameWriter(BufWriter::new(stream)),
        FrameReader {
            input: BufReader::new(read_half),
            payload: Vec::new(),
        },
    ))
}

impl FrameWriter {
    /// Sends one frame (`protocol::write_frame` with the encode step
    /// stamped); returns when the payload was encoded.
    fn send(&mut self, frame: &Frame, clock: Clock, trace: bool) -> io::Result<u64> {
        let payload = encode(frame);
        let encoded = if trace { clock.now_ns() } else { 0 };
        self.0.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.0.write_all(&payload)?;
        self.0.flush()?;
        Ok(encoded)
    }
}

impl FrameReader {
    /// Receives one frame (`protocol::read_frame` with the decode step
    /// stamped); returns the frame and when its last byte arrived.
    fn recv(&mut self, clock: Clock, trace: bool) -> io::Result<(Frame, u64)> {
        let mut prefix = [0u8; 4];
        self.input.read_exact(&mut prefix)?;
        let len = u32::from_le_bytes(prefix) as usize;
        if len > DEFAULT_MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server sent a {len}-byte frame"),
            ));
        }
        self.payload.resize(len, 0);
        self.input.read_exact(&mut self.payload)?;
        let received = if trace { clock.now_ns() } else { 0 };
        let frame = decode_payload(&self.payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((frame, received))
    }
}

/// Checks answer `idx` of a connection against what the single-thread
/// engine computed for that request.
fn check_answer(verifier: &mut Verifier<'_, PairOut>, idx: usize, frame: &Frame) {
    match frame {
        Frame::Response(resp) if resp.seq == idx as u64 => verifier.observe(
            idx,
            &PairOut {
                score: resp.score,
                end_cell: resp.best_cell,
                cells: resp.cells,
            },
        ),
        Frame::Response(resp) => {
            verifier.reject(idx, || {
                format!("answer carries sequence number {}", resp.seq)
            });
        }
        Frame::Error(err) => {
            verifier.reject(idx, || {
                format!("error frame {:?}: {}", err.code, err.message)
            });
        }
        Frame::Request(_) => verifier.reject(idx, || "server sent a request frame".to_owned()),
    }
}

/// One closed-loop connection: keeps `depth` requests in flight.
fn closed_loop(
    addr: SocketAddr,
    frames: &[Frame],
    expected: &[PairOut],
    depth: usize,
    clock: Clock,
    trace: bool,
) -> (Vec<ReqTimes>, Verdict) {
    let mut times = vec![ReqTimes::default(); frames.len()];
    let mut verifier = Verifier::new(expected);
    let outcome = (|| -> io::Result<()> {
        let (mut writer, mut reader) = connect(addr)?;
        let mut sent = 0usize;
        for answered in 0..frames.len() {
            while sent < frames.len() && sent - answered < depth {
                let began = clock.now_ns();
                let encoded = writer.send(&frames[sent], clock, trace)?;
                times[sent] = ReqTimes {
                    due: began,
                    sent: began,
                    encoded,
                    ..ReqTimes::default()
                };
                sent += 1;
            }
            let (frame, received) = reader.recv(clock, trace)?;
            check_answer(&mut verifier, answered, &frame);
            times[answered].received = received;
            times[answered].done = clock.now_ns();
        }
        Ok(())
    })();
    let mut verdict = verifier.finish();
    if let Err(e) = outcome {
        verdict.fail(|| format!("connection failed: {e}"));
    }
    (times, verdict)
}

/// Runs `frames` through the server with `connections` closed-loop clients,
/// each on its own thread with a contiguous share of the requests.
pub fn run_saturated(
    addr: SocketAddr,
    frames: &[Frame],
    expected: &[PairOut],
    connections: usize,
    depth: usize,
    clock: Clock,
    trace: bool,
) -> ClientRun {
    let began = clock.now_ns();
    let share = frames.len().div_ceil(connections.max(1)).max(1);
    let results: Vec<(Vec<ReqTimes>, Verdict)> = std::thread::scope(|scope| {
        let clients: Vec<_> = frames
            .chunks(share)
            .zip(expected.chunks(share))
            .map(|(f, e)| scope.spawn(move || closed_loop(addr, f, e, depth, clock, trace)))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("load connection thread"))
            .collect()
    });
    let secs = (clock.now_ns() - began) as f64 / 1e9;
    let mut run = ClientRun {
        times: Vec::with_capacity(frames.len()),
        verdict: Verdict::default(),
        secs,
    };
    for (times, verdict) in results {
        run.times.extend(times);
        run.verdict.merge(verdict);
    }
    run
}

/// Offers `frames` at `rate` requests a second on one connection: a sender
/// thread on the schedule, the calling thread receiving.
pub fn run_paced(
    addr: SocketAddr,
    frames: &[Frame],
    expected: &[PairOut],
    rate: f64,
    clock: Clock,
    trace: bool,
) -> ClientRun {
    let mut times = vec![ReqTimes::default(); frames.len()];
    let mut verifier = Verifier::new(expected);
    let began = clock.now_ns();
    let outcome = (|| -> io::Result<()> {
        let (mut writer, mut reader) = connect(addr)?;
        std::thread::scope(|scope| {
            let sender = scope.spawn(move || -> io::Result<Vec<(u64, u64)>> {
                let mut stamps = Vec::with_capacity(frames.len());
                for (i, frame) in frames.iter().enumerate() {
                    let due = due_ns(began, i, rate);
                    let now = clock.now_ns();
                    if due > now {
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                    let sent = clock.now_ns();
                    stamps.push((sent, writer.send(frame, clock, trace)?));
                }
                Ok(stamps)
            });
            let mut received = Ok(());
            for (i, slot) in times.iter_mut().enumerate() {
                match reader.recv(clock, trace) {
                    Ok((frame, arrived)) => {
                        check_answer(&mut verifier, i, &frame);
                        slot.received = arrived;
                        slot.done = clock.now_ns();
                    }
                    Err(e) => {
                        received = Err(e);
                        break;
                    }
                }
            }
            let stamps = sender.join().expect("paced sender thread")?;
            for (i, (slot, (sent, encoded))) in times.iter_mut().zip(stamps).enumerate() {
                slot.due = due_ns(began, i, rate);
                slot.sent = sent;
                slot.encoded = encoded;
            }
            received
        })
    })();
    let secs = (clock.now_ns() - began) as f64 / 1e9;
    let mut verdict = verifier.finish();
    if let Err(e) = outcome {
        verdict.fail(|| format!("connection failed: {e}"));
    }
    ClientRun {
        times,
        verdict,
        secs,
    }
}

/// Turns a traced pass's stamps into `request` spans with `encode`, `wait`
/// and `decode` children.
pub fn record_request_spans(tracer: &mut Tracer, parent: u32, times: &[ReqTimes]) {
    for t in times {
        let request = tracer.record("serve.request", parent, t.sent, t.done, 1);
        tracer.record("serve.encode", request, t.sent, t.encoded, 1);
        tracer.record("serve.wait", request, t.encoded, t.received, 1);
        tracer.record("serve.decode", request, t.received, t.done, 1);
    }
}

pub fn request_frames(inputs: &EngineInputs<BandedGlobalLinear<i16>>) -> Vec<Frame> {
    inputs
        .pairs
        .iter()
        .map(|(query, reference)| {
            Frame::Request(Request {
                kernel: KERNEL.to_owned(),
                query: query.clone(),
                reference: reference.clone(),
            })
        })
        .collect()
}

/// Binds the benchmark's server shape on an ephemeral loopback port and
/// waits for its first answer, which also spawns the kernel's session.
pub fn bind_and_probe(probe: &Frame, clock: Clock) -> Server {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            npe: NPE,
            nb: 1,
            nk: NK,
            max_len: MAX_LEN,
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback port");
    let (mut writer, mut reader) = connect(server.local_addr()).expect("connect to own server");
    writer.send(probe, clock, false).expect("send the probe");
    match reader.recv(clock, false).expect("probe answer") {
        (Frame::Response(_), _) => server,
        (other, _) => panic!("probe was answered with {other:?}"),
    }
}

pub struct ServeWorkload {
    load: Load,
    frames: Vec<Frame>,
    expected: Vec<PairOut>,
    nominal: u64,
    input_hash: u64,
    server: Option<Server>,
}

impl ServeWorkload {
    pub fn new(seed: u64, requests: usize, load: Load) -> Self {
        let inputs = serve_inputs(seed, requests);
        let input_hash = inputs.pairs.iter().fold(FNV_OFFSET, |hash, (q, r)| {
            let text: String = q.iter().chain(r).map(|b| b.to_char()).collect();
            fnv1a(hash, text.as_bytes())
        });
        Self {
            load,
            frames: request_frames(&inputs),
            expected: inputs.expected(),
            nominal: inputs.nominal_cells(),
            input_hash,
            server: None,
        }
    }
}

impl Workload for ServeWorkload {
    fn setup(&mut self) {
        self.shutdown();
        self.server = Some(bind_and_probe(&self.frames[0], Tracer::off().clock()));
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let addr = self
            .server
            .as_ref()
            .expect("setup runs before a pass")
            .local_addr();
        let (clock, trace) = (tracer.clock(), tracer.enabled());
        let pass_span = tracer.begin("serve.pass", NO_PARENT);
        let run = match self.load {
            Load::Saturated { connections, depth } => run_saturated(
                addr,
                &self.frames,
                &self.expected,
                connections,
                depth,
                clock,
                trace,
            ),
            Load::Paced { rate } => {
                run_paced(addr, &self.frames, &self.expected, rate, clock, trace)
            }
        };
        if trace {
            record_request_spans(tracer, pass_span, &run.times);
        }
        tracer.end(pass_span, run.times.len() as u64);
        let mut lat: Vec<u64> = run.times.iter().map(ReqTimes::latency_ns).collect();
        Pass {
            items: self.frames.len() as u64 - run.verdict.failed.min(self.frames.len() as u64),
            secs: run.secs,
            lat_p50_ns: percentile_ns(&mut lat, 0.5),
            verdict: run.verdict,
        }
    }

    fn items(&self) -> u64 {
        self.frames.len() as u64
    }

    fn nominal_cells(&self) -> u64 {
        self.nominal
    }

    fn input_hash(&self) -> u64 {
        self.input_hash
    }

    fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// The serve ladder: codec alone, one request at a time, saturated, the same
/// requests straight into a session, then paced.
///
/// `requests` requests of the seed go through every rung but the paced one,
/// which offers the first `paced_requests` of them at `rate` a second.
pub fn serve_ladder(
    seed: u64,
    requests: usize,
    paced_requests: usize,
    rate: f64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Verdict {
    let inputs = serve_inputs(seed, requests);
    let (frames, expected) = (request_frames(&inputs), inputs.expected());
    let n = frames.len() as f64;
    let mut verdict = Verdict::default();

    let began = Instant::now();
    let payloads: Vec<Vec<u8>> = frames.iter().map(encode).collect();
    m.set(
        "serve.encode_ns",
        ratio(began.elapsed().as_nanos() as f64, n),
    );
    let began = Instant::now();
    for payload in &payloads {
        black_box(decode_payload(payload).expect("own encoding decodes"));
    }
    m.set(
        "serve.decode_ns",
        ratio(began.elapsed().as_nanos() as f64, n),
    );
    let bytes: usize = payloads.iter().map(|p| p.len() + 4).sum();
    m.set("serve.frame_bytes", ratio(bytes as f64, n));

    let clock = tracer.clock();
    let server = bind_and_probe(&frames[0], clock);
    let addr = server.local_addr();

    // One request in flight: the round trip with no queueing at all.
    let span = tracer.begin("serve.rtt", NO_PARENT);
    let rtt = run_saturated(addr, &frames, &expected, 1, 1, clock, true);
    record_request_spans(tracer, span, &rtt.times);
    tracer.end(span, rtt.times.len() as u64);
    let mut lat: Vec<u64> = rtt.times.iter().map(ReqTimes::latency_ns).collect();
    m.set(
        "serve.rtt_p50_us",
        percentile_ns(&mut lat, 0.5) as f64 / 1e3,
    );
    verdict.merge(rtt.verdict);

    let span = tracer.begin("serve.saturated", NO_PARENT);
    let saturated = run_saturated(addr, &frames, &expected, 2, 32, clock, false);
    tracer.end(span, saturated.times.len() as u64);
    let saturated_rps = ratio(n, saturated.secs);
    m.set("serve.saturated_rps", saturated_rps);
    verdict.merge(saturated.verdict);

    let resilience = ServerConfig::default().resilience;
    let (session_s, session_verdict) = session_rung(&inputs, resilience, &expected, tracer);
    m.set(
        "serve.served_over_session",
        ratio(saturated_rps, ratio(n, session_s)),
    );
    verdict.merge(session_verdict);

    let paced_n = paced_requests.min(frames.len());
    let span = tracer.begin("serve.paced", NO_PARENT);
    let paced = run_paced(
        addr,
        &frames[..paced_n],
        &expected[..paced_n],
        rate,
        clock,
        false,
    );
    tracer.end(span, paced.times.len() as u64);
    let mut lat: Vec<u64> = paced.times.iter().map(ReqTimes::latency_ns).collect();
    let mut lag: Vec<u64> = paced.times.iter().map(ReqTimes::sender_lag_ns).collect();
    m.set(
        "serve.within_5ms_ratio",
        share_within(&lat, LATENCY_LIMIT_NS),
    );
    m.set(
        "serve.lat_p90_ms",
        percentile_ns(&mut lat, 0.90) as f64 / 1e6,
    );
    m.set(
        "serve.lat_p99_ms",
        percentile_ns(&mut lat, 0.99) as f64 / 1e6,
    );
    m.set(
        "serve.sender_lag_p99_ms",
        percentile_ns(&mut lag, 0.99) as f64 / 1e6,
    );
    verdict.merge(paced.verdict);

    m.set("serve.error_frames", server.shutdown().error_frames as f64);
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_latency_runs_from_the_due_time_not_the_send() {
        // Due at 1 µs, but the sender stalled and sent at 5 µs; the answer
        // was in hand at 6 µs. The caller waited 5 µs, not 1.
        let stalled = ReqTimes {
            due: 1_000,
            sent: 5_000,
            encoded: 5_100,
            received: 5_900,
            done: 6_000,
        };
        assert_eq!(stalled.latency_ns(), 5_000);
        assert_eq!(stalled.sender_lag_ns(), 4_000);
        // The schedule does not drift with the stall: request i is due at
        // began + i/rate whatever happened before it.
        assert_eq!(due_ns(500, 0, 4_000.0), 500);
        assert_eq!(due_ns(500, 4, 4_000.0), 1_000_500);
        assert_eq!(due_ns(0, 3_000, 3_000.0), 1_000_000_000);
    }

    #[test]
    fn served_answers_match_the_single_thread_engine_in_both_loops() {
        let inputs = serve_inputs(11, 96);
        let (frames, expected) = (request_frames(&inputs), inputs.expected());
        let clock = Tracer::off().clock();
        let server = bind_and_probe(&frames[0], clock);
        let addr = server.local_addr();

        let saturated = run_saturated(addr, &frames, &expected, 2, 8, clock, true);
        assert_eq!(saturated.verdict, Verdict::default());
        assert_eq!(saturated.times.len(), 96);
        assert!(saturated
            .times
            .iter()
            .all(|t| t.sent <= t.encoded && t.encoded <= t.received && t.received <= t.done));

        let paced = run_paced(addr, &frames, &expected, 20_000.0, clock, false);
        assert_eq!(paced.verdict, Verdict::default());
        assert!(paced
            .times
            .iter()
            .all(|t| t.due <= t.sent && t.sent < t.done));

        // A wrong expectation is reported, with the request it belongs to.
        let mut wrong = expected.clone();
        wrong[5].score += 1;
        let bad = run_saturated(addr, &frames, &wrong, 1, 4, clock, false);
        assert_eq!(bad.verdict.failed, 1);
        assert!(bad.verdict.first_offender.unwrap().starts_with("item 5:"));

        let stats = server.shutdown();
        assert_eq!(stats.error_frames, 0);
    }
}
