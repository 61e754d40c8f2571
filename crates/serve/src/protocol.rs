//! The `dphls-serve` wire protocol: length-prefixed binary frames over a
//! byte stream.
//!
//! Every frame is a `u32` little-endian payload length followed by that
//! many payload bytes. A payload starts with a version byte
//! ([`PROTOCOL_VERSION`]) and a frame-type byte, then a type-specific
//! body; all multi-byte integers are little-endian:
//!
//! | type | frame | body |
//! |------|-------|------|
//! | `1` | [`Request`] | `u8` kernel-name length, ASCII name, `u32` query length, `ACGT` bytes, `u32` reference length, `ACGT` bytes |
//! | `2` | [`Response`] | `u64` seq, `i64` score, `u32` best i, `u32` best j, `u64` cells computed |
//! | `3` | [`ErrorFrame`] | `u64` seq, `u8` [`ErrorCode`], `u16` message length, UTF-8 message |
//!
//! Requests carry no sequence number: the server assigns each request a
//! per-connection 0-based `seq` in arrival order, and the ordering
//! contract — responses come back in request order — makes the implicit
//! numbering unambiguous. Error frames reuse the same `seq` space, so a
//! failed request consumes its slot rather than shifting later responses.
//!
//! Decoding is defensive: the length prefix is validated against a caller
//! cap *before* any payload allocation (see [`read_frame`]), truncated
//! bodies are [`DecodeError::Truncated`], and unknown version or type
//! bytes are explicit errors a server can answer with
//! [`ErrorCode::BadVersion`] / [`ErrorCode::BadFrame`] frames.

use dphls_seq::Base;
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol version carried in every payload's first byte.
pub const PROTOCOL_VERSION: u8 = 1;

/// Default cap on the payload length a decoder will accept (1 MiB) —
/// large enough for two maximal DNA reads, small enough that a hostile
/// length prefix cannot drive allocation.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Longest kernel name a request can carry, in bytes: its length travels
/// as one `u8`.
pub const MAX_KERNEL_NAME: usize = u8::MAX as usize;

const TYPE_REQUEST: u8 = 1;
const TYPE_RESPONSE: u8 = 2;
const TYPE_ERROR: u8 = 3;

/// Why a request failed, carried in an [`ErrorFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request's version byte is not [`PROTOCOL_VERSION`].
    BadVersion = 1,
    /// The frame could not be decoded (truncated body, bad symbol, not a
    /// request). The server closes the connection after sending this.
    BadFrame = 2,
    /// The kernel name is not in
    /// [`DISPATCHABLE_KERNELS`](dphls_kernels::DISPATCHABLE_KERNELS).
    UnknownKernel = 3,
    /// The pair was admitted but quarantined by the resilience layer
    /// (kernel error, deadline, panic); other requests are unaffected.
    Quarantined = 4,
    /// The server is draining and no longer admits requests.
    ShuttingDown = 5,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadVersion,
            2 => ErrorCode::BadFrame,
            3 => ErrorCode::UnknownKernel,
            4 => ErrorCode::Quarantined,
            5 => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

/// An alignment request: kernel name plus the two DNA sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Kernel to run, an entry of
    /// [`DISPATCHABLE_KERNELS`](dphls_kernels::DISPATCHABLE_KERNELS).
    pub kernel: String,
    /// Query sequence.
    pub query: Vec<Base>,
    /// Reference sequence.
    pub reference: Vec<Base>,
}

/// A completed alignment, mirroring the engine's
/// [`DpOutput`](dphls_core::DpOutput) scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Per-connection request number this answers (0-based, arrival
    /// order).
    pub seq: u64,
    /// Best alignment score.
    pub score: i64,
    /// Cell `(i, j)` where the best score was found.
    pub best_cell: (u32, u32),
    /// DP cells the engine computed for this pair.
    pub cells: u64,
}

/// A failed request: which slot it consumed, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Per-connection request number this answers.
    pub seq: u64,
    /// Failure class.
    pub code: ErrorCode,
    /// Human-readable detail (e.g. the quarantine cause).
    pub message: String,
}

/// Any protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server.
    Request(Request),
    /// Server → client, success.
    Response(Response),
    /// Server → client, failure.
    Error(ErrorFrame),
}

/// Why a payload failed to decode.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the structure it promised.
    Truncated,
    /// The length prefix exceeds the decoder's cap; rejected before any
    /// payload allocation.
    Oversized {
        /// Length the prefix claimed.
        len: usize,
        /// The decoder's cap.
        max: usize,
    },
    /// The version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// The frame-type byte is unknown.
    BadType(u8),
    /// A structurally invalid body (bad symbol byte, bad error code,
    /// non-UTF-8 message, trailing bytes).
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated frame"),
            DecodeError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds cap of {max}")
            }
            DecodeError::BadVersion(v) => {
                write!(f, "protocol version {v} (expected {PROTOCOL_VERSION})")
            }
            DecodeError::BadType(t) => write!(f, "unknown frame type {t}"),
            DecodeError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Error from [`read_frame`]: transport failure or an undecodable frame.
#[derive(Debug)]
pub enum ReadFrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The bytes arrived but are not a valid frame.
    Decode(DecodeError),
}

impl fmt::Display for ReadFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadFrameError::Io(e) => write!(f, "i/o error: {e}"),
            ReadFrameError::Decode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReadFrameError {}

impl From<io::Error> for ReadFrameError {
    fn from(e: io::Error) -> Self {
        ReadFrameError::Io(e)
    }
}

impl From<DecodeError> for ReadFrameError {
    fn from(e: DecodeError) -> Self {
        ReadFrameError::Decode(e)
    }
}

/// Serializes a frame payload (version byte onward, without the length
/// prefix).
///
/// # Panics
///
/// Panics if a request's kernel name is longer than [`MAX_KERNEL_NAME`]
/// bytes: its length would not fit the frame's `u8` field.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.push(PROTOCOL_VERSION);
    match frame {
        Frame::Request(req) => {
            out.push(TYPE_REQUEST);
            assert!(
                req.kernel.len() <= MAX_KERNEL_NAME,
                "kernel name of {} bytes exceeds the {MAX_KERNEL_NAME}-byte field",
                req.kernel.len()
            );
            out.push(req.kernel.len() as u8);
            out.extend_from_slice(req.kernel.as_bytes());
            push_seq(&mut out, &req.query);
            push_seq(&mut out, &req.reference);
        }
        Frame::Response(resp) => {
            out.push(TYPE_RESPONSE);
            out.extend_from_slice(&resp.seq.to_le_bytes());
            out.extend_from_slice(&resp.score.to_le_bytes());
            out.extend_from_slice(&resp.best_cell.0.to_le_bytes());
            out.extend_from_slice(&resp.best_cell.1.to_le_bytes());
            out.extend_from_slice(&resp.cells.to_le_bytes());
        }
        Frame::Error(err) => {
            out.push(TYPE_ERROR);
            out.extend_from_slice(&err.seq.to_le_bytes());
            out.push(err.code as u8);
            let msg = err.message.as_bytes();
            let len = msg.len().min(u16::MAX as usize);
            out.extend_from_slice(&(len as u16).to_le_bytes());
            out.extend_from_slice(&msg[..len]);
        }
    }
    out
}

fn push_seq(out: &mut Vec<u8>, seq: &[Base]) {
    out.extend_from_slice(&(seq.len() as u32).to_le_bytes());
    out.extend(seq.iter().map(|b| b.to_char() as u8));
}

/// Cursor over a payload with truncation-checked reads.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.0.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bases(&mut self) -> Result<Vec<Base>, DecodeError> {
        let len = self.u32()? as usize;
        Base::decode_ascii(self.take(len)?)
            .map_err(|_| DecodeError::Malformed("non-ACGT symbol byte"))
    }
}

/// Deserializes a frame payload (as produced by [`encode`]).
pub fn decode_payload(payload: &[u8]) -> Result<Frame, DecodeError> {
    let mut cur = Cursor(payload);
    let version = cur.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let frame = match cur.u8()? {
        TYPE_REQUEST => {
            let name_len = cur.u8()? as usize;
            let name = cur.take(name_len)?;
            let kernel = std::str::from_utf8(name)
                .map_err(|_| DecodeError::Malformed("kernel name is not UTF-8"))?
                .to_owned();
            let query = cur.bases()?;
            let reference = cur.bases()?;
            Frame::Request(Request {
                kernel,
                query,
                reference,
            })
        }
        TYPE_RESPONSE => Frame::Response(Response {
            seq: cur.u64()?,
            score: cur.i64()?,
            best_cell: (cur.u32()?, cur.u32()?),
            cells: cur.u64()?,
        }),
        TYPE_ERROR => {
            let seq = cur.u64()?;
            let code = ErrorCode::from_u8(cur.u8()?)
                .ok_or(DecodeError::Malformed("unknown error code"))?;
            let len = cur.u16()? as usize;
            let message = std::str::from_utf8(cur.take(len)?)
                .map_err(|_| DecodeError::Malformed("error message is not UTF-8"))?
                .to_owned();
            Frame::Error(ErrorFrame { seq, code, message })
        }
        other => return Err(DecodeError::BadType(other)),
    };
    if !cur.0.is_empty() {
        return Err(DecodeError::Malformed("trailing bytes after frame body"));
    }
    Ok(frame)
}

/// Writes one length-prefixed frame to `w`.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let payload = encode(frame);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&payload)
}

/// Reads one length-prefixed frame from `r`.
///
/// Returns `Ok(None)` on clean EOF (the stream ended *between* frames —
/// how a peer hangs up). A length prefix above `max` is rejected as
/// [`DecodeError::Oversized`] **before any payload allocation**, so a
/// hostile prefix costs the decoder nothing.
///
/// # Errors
///
/// [`ReadFrameError::Io`] for transport failures (including EOF inside a
/// frame), [`ReadFrameError::Decode`] for undecodable bytes.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Frame>, ReadFrameError> {
    let mut prefix = [0u8; 4];
    match r.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max {
        return Err(DecodeError::Oversized { len, max }.into());
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(decode_payload(&payload)?))
}
