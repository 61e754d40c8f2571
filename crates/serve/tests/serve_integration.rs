//! End-to-end serving contract: many concurrent connections with
//! pipelined, kernel-interleaved requests each get their responses in
//! their own request order, bit-identical to [`run_batched`] on the same
//! pairs — while a malformed-frame client, a quarantine-triggering
//! client, and an unknown-kernel client each get error frames without
//! disturbing anyone else.

use dphls_core::KernelConfig;
use dphls_host::{run_batched, BatchConfig, StreamConfig};
use dphls_kernels::{AffineParams, GlobalLinear, LinearParams, LocalAffine};
use dphls_seq::gen::ReadSimulator;
use dphls_seq::Base;
use dphls_serve::{
    read_frame, Client, ClientError, ErrorCode, Frame, Server, ServerConfig, DEFAULT_MAX_FRAME,
    MAX_KERNEL_NAME,
};
use dphls_systolic::{CycleModelParams, Device, KernelCycleInfo};
use std::io::Write;
use std::net::TcpStream;

const NPE: usize = 8;
const NB: usize = 1;
const NK: usize = 2;
const MAX_LEN: usize = 96;
const GOOD_CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 12;

fn test_server() -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            npe: NPE,
            nb: NB,
            nk: NK,
            max_len: MAX_LEN,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

fn device() -> Device {
    Device::new(
        KernelConfig::new(NPE, NB, NK).with_max_lengths(MAX_LEN, MAX_LEN),
        CycleModelParams::dphls(),
        KernelCycleInfo {
            sym_bits: 2,
            has_walk: true,
            ii: 1,
        },
        250.0,
    )
}

fn dna_string(bases: &[Base]) -> String {
    bases.iter().map(|b| b.to_char()).collect()
}

/// Per-client workload: `REQUESTS_PER_CLIENT` pairs, alternating between
/// the two kernels so responses from different engine sessions must be
/// re-interleaved by the server's per-connection order restoration.
fn client_pairs(client: u64) -> Vec<(Vec<Base>, Vec<Base>)> {
    let mut sim = ReadSimulator::new(0xA11C + client);
    sim.read_pairs(REQUESTS_PER_CLIENT, 64, 0.2)
        .into_iter()
        .map(|(r, q)| (q.into_vec(), r.into_vec()))
        .collect()
}

#[test]
fn concurrent_clients_get_ordered_bit_identical_responses() {
    let server = test_server();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        // 8 well-behaved concurrent clients, interleaving two kernels.
        for client_id in 0..GOOD_CLIENTS as u64 {
            scope.spawn(move || {
                let pairs = client_pairs(client_id);
                // Expected outputs from the batch engine on the same pairs,
                // per kernel (even request indices -> GlobalLinear, odd ->
                // LocalAffine).
                let dev = device();
                let even: Vec<_> = pairs.iter().step_by(2).cloned().collect();
                let odd: Vec<_> = pairs.iter().skip(1).step_by(2).cloned().collect();
                let expect_lin = run_batched::<GlobalLinear>(
                    &dev,
                    &LinearParams::<i16>::dna(),
                    &even,
                    BatchConfig::default(),
                )
                .expect("reference batch");
                let expect_aff = run_batched::<LocalAffine>(
                    &dev,
                    &AffineParams::<i16>::dna(),
                    &odd,
                    BatchConfig::default(),
                )
                .expect("reference batch");

                let mut client = Client::connect(addr).expect("connect");
                for (i, (q, r)) in pairs.iter().enumerate() {
                    let kernel = if i % 2 == 0 {
                        "global_linear"
                    } else {
                        "local_affine"
                    };
                    let seq = client
                        .send(kernel, &dna_string(q), &dna_string(r))
                        .expect("send");
                    assert_eq!(seq, i as u64);
                }
                for i in 0..pairs.len() {
                    let resp = client.recv().expect("pipelined response");
                    // Per-connection responses arrive in request order.
                    assert_eq!(resp.seq, i as u64, "client {client_id} order");
                    let expected = if i % 2 == 0 {
                        expect_lin.outputs[i / 2].as_ref()
                    } else {
                        expect_aff.outputs[i / 2].as_ref()
                    }
                    .expect("abort policy fills every slot");
                    assert_eq!(resp.score, i64::from(expected.best_score));
                    assert_eq!(
                        resp.best_cell,
                        (expected.best_cell.0 as u32, expected.best_cell.1 as u32)
                    );
                    assert_eq!(resp.cells, expected.cells_computed);
                }
            });
        }

        // A client whose second frame is garbage: the good first request is
        // answered, the garbage gets a BadFrame error frame, and the
        // connection is then closed by the server.
        scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .send("global_linear", "ACGTACGT", "ACGAACGT")
                .expect("send");
            assert!(client.recv().expect("good request answered").score > 0);
            // Reach under the client abstraction to write raw garbage.
            let mut raw = TcpStream::connect(addr).expect("raw connect");
            raw.write_all(&8u32.to_le_bytes()).expect("prefix");
            raw.write_all(&[0xFF; 8]).expect("garbage payload");
            raw.flush().unwrap();
            let mut bad = Client::connect_stream(raw).expect("wrap");
            match bad.recv() {
                Err(ClientError::Server(err)) => {
                    assert_eq!(err.code, ErrorCode::BadFrame);
                    assert_eq!(err.seq, 0);
                }
                other => panic!("expected BadFrame error frame, got {other:?}"),
            }
        });

        // A client that triggers quarantine (query longer than the device
        // maximum): an error frame for that slot, then normal service on
        // the same connection.
        scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let long_query = "A".repeat(MAX_LEN + 40);
            client
                .send("global_linear", &long_query, "ACGTACGT")
                .expect("send oversized");
            client
                .send("global_linear", "ACGTACGT", "ACGTACGT")
                .expect("send follow-up");
            match client.recv() {
                Err(ClientError::Server(err)) => {
                    assert_eq!(err.code, ErrorCode::Quarantined);
                    assert_eq!(err.seq, 0);
                    assert!(
                        err.message.contains("quarantined"),
                        "fault detail: {}",
                        err.message
                    );
                }
                other => panic!("expected Quarantined error frame, got {other:?}"),
            }
            let resp = client.recv().expect("connection survives quarantine");
            assert_eq!(resp.seq, 1);
            assert!(resp.score > 0);
        });

        // A client naming a kernel that does not exist: error frame, then
        // the connection keeps working.
        scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .send("needleman_wunsch_deluxe", "ACGT", "ACGT")
                .expect("send unknown kernel");
            match client.recv() {
                Err(ClientError::Server(err)) => {
                    assert_eq!(err.code, ErrorCode::UnknownKernel);
                    assert_eq!(err.seq, 0);
                }
                other => panic!("expected UnknownKernel error frame, got {other:?}"),
            }
            let resp = client
                .align("banded_global_linear", "ACGTACGTACGT", "ACGTACGTACGT")
                .expect("connection survives unknown kernel");
            assert_eq!(resp.seq, 1);
            assert!(resp.score > 0);
        });
    });

    let stats = server.shutdown();
    let expected_responses = (GOOD_CLIENTS * REQUESTS_PER_CLIENT) as u64 + 3;
    assert_eq!(stats.responses, expected_responses);
    assert_eq!(stats.error_frames, 3);
    assert_eq!(
        stats.requests,
        expected_responses + 3,
        "every request frame (good or answered with an error) is counted"
    );
    // A flush carries at least one frame: never more flushes than frames.
    assert!(
        (1..=stats.responses + stats.error_frames).contains(&stats.flushes),
        "{} flushes",
        stats.flushes
    );
    // The engines saw exactly the admitted pairs; one was quarantined.
    let total_pairs: usize = stats.kernels.iter().map(|(_, k)| k.pairs).sum();
    let quarantined: usize = stats.kernels.iter().map(|(_, k)| k.quarantined).sum();
    assert_eq!(quarantined, 1);
    assert_eq!(
        total_pairs,
        GOOD_CLIENTS * REQUESTS_PER_CLIENT + 4,
        "good requests + malformed client's good one + quarantine client's two + unknown client's follow-up"
    );
}

/// Adaptive precision end to end: responses are bit-identical to the exact
/// engine, pairs that overflow the `i8` guard escalate (and the count
/// surfaces in the shutdown stats), and kernels without an `i8` companion
/// silently fall back to the exact path.
#[test]
fn adaptive_precision_serves_bit_identical_responses() {
    use dphls_core::{I8Lanes, LanePrecision};

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            npe: NPE,
            nb: NB,
            nk: NK,
            max_len: MAX_LEN,
            precision: LanePrecision::Adaptive(I8Lanes::X16),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    // Short reads stay inside the i8 guard with the default DNA params
    // (boundary gap penalty -2/base needs > 15 bases to cross the -32
    // escalation floor); expectations come from the exact batch engine.
    let mut sim = ReadSimulator::new(0xADA9);
    let pairs: Vec<(Vec<Base>, Vec<Base>)> = sim
        .read_pairs(10, 12, 0.2)
        .into_iter()
        .map(|(r, q)| (q.into_vec(), r.into_vec()))
        .collect();
    let expect = run_batched::<GlobalLinear>(
        &device(),
        &LinearParams::<i16>::dna(),
        &pairs,
        BatchConfig::default(),
    )
    .expect("reference batch");

    let mut client = Client::connect(addr).expect("connect");
    for (i, (q, r)) in pairs.iter().enumerate() {
        let resp = client
            .align("global_linear", &dna_string(q), &dna_string(r))
            .expect("clean short pair");
        let expected = expect.outputs[i]
            .as_ref()
            .expect("abort policy fills every slot");
        assert_eq!(resp.score, i64::from(expected.best_score));
        assert_eq!(
            resp.best_cell,
            (expected.best_cell.0 as u32, expected.best_cell.1 as u32)
        );
        assert_eq!(resp.cells, expected.cells_computed);
    }

    // A 64-base identical pair scores 128 >= the +127 guard: the i8 run
    // saturates, the pair escalates, and the response is still exact.
    let long = "A".repeat(64);
    let resp = client
        .align("global_linear", &long, &long)
        .expect("escalating pair");
    assert_eq!(resp.score, 128);

    // No i8 companion for the two-piece family: exact fallback serves it.
    let resp = client
        .align("banded_global_two_piece", "ACGTACGTACGT", "ACGTACGTACGT")
        .expect("two-piece fallback");
    assert!(resp.score > 0);
    drop(client);

    let stats = server.shutdown();
    assert_eq!(stats.responses, pairs.len() as u64 + 2);
    let kernels: std::collections::HashMap<_, _> = stats.kernels.into_iter().collect();
    let linear = &kernels["global_linear"];
    assert_eq!(linear.pairs, pairs.len() + 1);
    assert_eq!(linear.escalations, 1, "exactly the saturating pair");
    assert_eq!(kernels["banded_global_two_piece"].escalations, 0);
}

/// A kernel name too long for the frame's `u8` length is refused by the
/// client before a byte reaches the socket; one at the limit goes out whole.
#[test]
fn client_refuses_a_kernel_name_longer_than_the_wire_field() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(listener.local_addr().unwrap()).expect("connect");
    let (mut peer, _) = listener.accept().expect("accept");

    match client.send(&"k".repeat(MAX_KERNEL_NAME + 1), "ACGT", "ACGT") {
        Err(ClientError::Protocol(what)) => assert!(what.contains("255"), "{what}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    let at_limit = "k".repeat(MAX_KERNEL_NAME);
    assert_eq!(client.send(&at_limit, "ACGT", "ACGT").expect("send"), 0);
    drop(client);

    match read_frame(&mut peer, DEFAULT_MAX_FRAME) {
        Ok(Some(Frame::Request(req))) => assert_eq!(req.kernel, at_limit),
        other => panic!("expected the one request, got {other:?}"),
    }
    assert!(matches!(read_frame(&mut peer, DEFAULT_MAX_FRAME), Ok(None)));
}

#[test]
fn shutdown_drains_cleanly_with_no_traffic() {
    let server = test_server();
    let stats = server.shutdown();
    assert_eq!(stats.requests, 0);
    assert_eq!(stats.responses, 0);
    assert!(stats.kernels.is_empty());
}

#[test]
fn bind_refuses_a_zero_buffer_or_window() {
    // No kernel session can start on either, so `bind` refuses them before
    // it listens, naming the field, rather than failing the first request.
    for (buffer, window, field) in [(0, 256, "buffer"), (64, 0, "window"), (0, 0, "buffer")] {
        let config = ServerConfig {
            stream: StreamConfig {
                buffer,
                window,
                ..StreamConfig::default()
            },
            ..ServerConfig::default()
        };
        let err = Server::bind("127.0.0.1:0", config)
            .err()
            .expect("a refused config");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{field}");
        assert!(
            err.to_string().contains(&format!("stream.{field}")),
            "{err}"
        );
    }
}
