//! A minimal blocking client for the [`protocol`](crate::protocol):
//! enough to exercise a server from tests, examples, and the
//! `dphls-load` generator.

use crate::protocol::{
    read_frame, write_frame, ErrorFrame, Frame, ReadFrameError, Request, Response,
    DEFAULT_MAX_FRAME, MAX_KERNEL_NAME,
};
use dphls_seq::{Base, DnaSeq};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Error from a client operation.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or decode failure on the connection.
    Transport(ReadFrameError),
    /// The server answered with an error frame.
    Server(ErrorFrame),
    /// The server sent a request frame or hung up mid-exchange, or a
    /// request would not fit its frame.
    Protocol(&'static str),
    /// A sequence string contained a non-ACGT character.
    BadSequence(char),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Server(e) => {
                write!(
                    f,
                    "server error {:?} on seq {}: {}",
                    e.code, e.seq, e.message
                )
            }
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::BadSequence(c) => write!(f, "non-ACGT character {c:?} in sequence"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Transport(ReadFrameError::Io(e))
    }
}

impl From<ReadFrameError> for ClientError {
    fn from(e: ReadFrameError) -> Self {
        ClientError::Transport(e)
    }
}

fn parse_dna(s: &str) -> Result<Vec<Base>, ClientError> {
    s.parse::<DnaSeq>()
        .map(DnaSeq::into_vec)
        .map_err(|e| ClientError::BadSequence(e.offending()))
}

/// One connection to a `dphls-serve` server.
///
/// Requests may be pipelined: any number of [`send`](Self::send) calls
/// followed by the same number of [`recv`](Self::recv) calls; responses
/// come back in request order (the server's ordering contract).
/// [`align`](Self::align) is the one-shot convenience wrapper.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    sent: u64,
    received: u64,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Self::connect_stream(TcpStream::connect(addr)?)
    }

    /// Wraps an already-connected stream (e.g. one some frames were
    /// written to out-of-band) and turns Nagle's algorithm off on it, since
    /// every request is flushed as soon as it is written. The client's
    /// sequence counters start at zero regardless of prior traffic on the
    /// stream.
    ///
    /// # Errors
    ///
    /// Propagates the `TCP_NODELAY` or stream-clone failure.
    pub fn connect_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            sent: 0,
            received: 0,
        })
    }

    /// Sends one request without waiting for its answer. Returns the
    /// sequence number the server will stamp on the response (requests
    /// are numbered 0, 1, 2, … per connection in send order).
    ///
    /// # Errors
    ///
    /// Transport failures, non-ACGT sequence characters, and
    /// [`ClientError::Protocol`] for a kernel name longer than
    /// [`MAX_KERNEL_NAME`] bytes. Neither of the last two writes anything.
    pub fn send(&mut self, kernel: &str, query: &str, reference: &str) -> Result<u64, ClientError> {
        if kernel.len() > MAX_KERNEL_NAME {
            return Err(ClientError::Protocol(
                "kernel name longer than the 255-byte wire field",
            ));
        }
        let frame = Frame::Request(Request {
            kernel: kernel.to_owned(),
            query: parse_dna(query)?,
            reference: parse_dna(reference)?,
        });
        write_frame(&mut self.writer, &frame)?;
        self.writer.flush()?;
        let seq = self.sent;
        self.sent += 1;
        Ok(seq)
    }

    /// Receives the next answer in sequence order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the slot's answer is an error frame;
    /// transport/protocol failures otherwise.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.reader, DEFAULT_MAX_FRAME)? {
            Some(Frame::Response(resp)) => {
                self.received += 1;
                Ok(resp)
            }
            Some(Frame::Error(err)) => {
                self.received += 1;
                Err(ClientError::Server(err))
            }
            Some(Frame::Request(_)) => Err(ClientError::Protocol("server sent a request frame")),
            None => Err(ClientError::Protocol("server hung up mid-exchange")),
        }
    }

    /// Sends one request and waits for its answer.
    ///
    /// # Errors
    ///
    /// See [`send`](Self::send) and [`recv`](Self::recv).
    pub fn align(
        &mut self,
        kernel: &str,
        query: &str,
        reference: &str,
    ) -> Result<Response, ClientError> {
        self.send(kernel, query, reference)?;
        self.recv()
    }

    /// Requests sent so far on this connection.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Answers (responses or error frames) received so far.
    pub fn received(&self) -> u64 {
        self.received
    }
}
