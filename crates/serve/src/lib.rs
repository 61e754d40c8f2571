//! Alignment-as-a-service front end for the DP-HLS reproduction: a
//! `std::net`-only TCP server ([`Server`]) speaking a minimal
//! length-prefixed binary protocol ([`protocol`]), a blocking
//! [`Client`], and an open-loop load generator ([`load`]).
//!
//! The server multiplexes every live connection into one long-lived
//! engine session per kernel ([`dphls_host::StreamSession`]): the
//! streaming engine's admission window is the backpressure mechanism, its
//! ordered emission keeps each connection's responses in request order,
//! and quarantined pairs come back as per-request error frames instead of
//! dropped connections. See `docs/SERVING.md` for the wire-protocol
//! specification and operational tuning guidance.
//!
//! Like the rest of the workspace, this crate builds without registry
//! access: the transport is `std::net` + `std::io` only, the same
//! offline discipline as the `shims/` stand-ins.
//!
//! # Example
//!
//! An in-process server and a client round-trip:
//!
//! ```
//! use dphls_serve::{Client, Server, ServerConfig};
//!
//! // Ephemeral port; NPE=8, NK=2 keeps the doc test light.
//! let config = ServerConfig {
//!     npe: 8,
//!     nk: 2,
//!     max_len: 96,
//!     ..ServerConfig::default()
//! };
//! let server = Server::bind("127.0.0.1:0", config)?;
//!
//! let mut client = Client::connect(server.local_addr())?;
//! let resp = client.align("global_linear", "ACGTACGTAC", "ACGAACGTAC")?;
//! assert_eq!(resp.seq, 0);
//! assert!(resp.score > 0);
//!
//! // Pipelined requests come back in request order.
//! client.send("local_affine", "ACGTACGTAC", "ACGTACGTAC")?;
//! client.send("global_linear", "ACGT", "ACGT")?;
//! assert_eq!(client.recv()?.seq, 1);
//! assert_eq!(client.recv()?.seq, 2);
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.responses, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod client;
pub mod load;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use load::{run_load, LoadConfig, LoadReport};
pub use protocol::{
    decode_payload, encode, read_frame, write_frame, DecodeError, ErrorCode, ErrorFrame, Frame,
    ReadFrameError, Request, Response, DEFAULT_MAX_FRAME, MAX_KERNEL_NAME, PROTOCOL_VERSION,
};
pub use server::{KernelStats, Server, ServerConfig, ServerStats};
