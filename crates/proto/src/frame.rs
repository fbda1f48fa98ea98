//! Length-framed streaming over `std::io`.
//!
//! A frame is `[length: u32 le][payload: length bytes]`; the payload
//! is exactly one encoded message. [`FrameReader`] / [`FrameWriter`]
//! turn any `Read`/`Write` pair (a `TcpStream`, a pipe, an in-memory
//! buffer) into a message stream. The length prefix is capped at
//! [`MAX_FRAME`] **before** any allocation, so a hostile peer cannot
//! make the reader balloon; a clean EOF *between* frames is a normal
//! end-of-stream ([`FrameReader::read_request`] returns `Ok(None)`),
//! while EOF *inside* a frame is an error.
//!
//! # Incremental decoding
//!
//! [`FrameAccum`] is the non-blocking entry point: a read-ahead buffer
//! that hands out one complete frame at a time. [`FrameAccum::poll`]
//! returns a frame that is already buffered without touching the
//! source; otherwise it reads as many bytes as the buffer has room for
//! — often several pipelined frames in one `read` — and returns
//! [`FramePoll::Pending`] on `WouldBlock` instead of blocking. An
//! event-driven server parks the connection until the next readiness
//! notification and resumes exactly where the byte stream stopped —
//! mid-header, mid-payload, anywhere. The blocking [`FrameReader`]
//! reads are built on the same accumulator, so every reader shares one
//! set of framing rules (length cap before allocation, clean-EOF
//! detection, buffer bounded by [`SCRATCH_RETAIN`] across frames *and*
//! error paths).

use std::io::{self, Read, Write};

use crate::codec::DecodeError;
use crate::message::{Request, RequestRef, Response};

/// Largest frame a peer may declare (4 MiB): comfortably above any
/// real message — the largest are registry snapshots — while bounding
/// what a forged length can allocate.
pub const MAX_FRAME: u32 = 4 * 1024 * 1024;

/// Largest capacity the reused frame scratch buffers retain between
/// frames (64 KiB, comfortably above every routine message). One
/// oversized frame — a multi-megabyte snapshot, or a hostile peer
/// deliberately sending `MAX_FRAME` bytes — may grow a buffer to 4
/// MiB for that frame, but the capacity is released afterwards instead
/// of staying pinned for the connection's lifetime. Exported so every
/// layer reusing message buffers (client encode scratch, loopback
/// response scratch) applies the same bound.
pub const SCRATCH_RETAIN: usize = 64 * 1024;

/// Caps a scratch buffer's retained capacity at [`SCRATCH_RETAIN`]
/// (contents past the bound are discarded — call between messages,
/// not while the buffer holds live data).
pub fn bound_scratch(buf: &mut Vec<u8>) {
    if buf.capacity() > SCRATCH_RETAIN {
        buf.truncate(SCRATCH_RETAIN);
        buf.shrink_to(SCRATCH_RETAIN);
    }
}

/// Streaming failure: transport, framing, or message decoding.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes EOF mid-frame).
    Io(io::Error),
    /// The peer declared a frame larger than [`MAX_FRAME`].
    Oversize(u32),
    /// The frame arrived intact but its payload is not a well-formed
    /// message.
    Decode(DecodeError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport: {e}"),
            FrameError::Oversize(n) => {
                write!(f, "peer declared a {n}-byte frame (cap {MAX_FRAME})")
            }
            FrameError::Decode(e) => write!(f, "malformed message: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Decode(e)
    }
}

impl FrameError {
    /// `true` when the failure is a malformed frame/message from the
    /// peer (worth answering with a typed wire error) rather than a
    /// dead transport.
    pub fn is_peer_fault(&self) -> bool {
        matches!(self, FrameError::Oversize(_) | FrameError::Decode(_))
    }
}

/// Progress of an incremental frame read (see [`FrameAccum::poll`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramePoll {
    /// The source has no bytes right now (`WouldBlock`); poll again on
    /// the next readiness notification. Never returned by a blocking
    /// source.
    Pending,
    /// A complete frame payload is buffered: read it with
    /// [`FrameAccum::payload`], then release it with
    /// [`FrameAccum::finish_frame`] before polling for the next one.
    Frame,
    /// Clean EOF at a frame boundary — a normal end of stream.
    Eof,
}

/// Incremental frame decoder with read-ahead: the non-blocking decode
/// entry point of the wire layer.
///
/// One `FrameAccum` holds the read side of one connection: a buffer of
/// received bytes not yet consumed, which may hold a partial frame,
/// one complete frame, or a pipelined run of them. [`FrameAccum::poll`]
/// serves a frame that is already complete in the buffer without any
/// `read`; otherwise it reads into all the free room the buffer has and
/// never blocks beyond what the source itself does — a non-blocking
/// socket yields [`FramePoll::Pending`] instead of spinning (exactly
/// one `read` returning `WouldBlock` per poll, never a busy loop).
///
/// The buffer grows only to fit the frame in progress: its length cap
/// is checked against [`MAX_FRAME`] before any allocation, and a fresh
/// accumulator sizes its buffer to the header, then to the frame, so
/// it never reads past its first frame. An event loop can instead
/// [`lend`](FrameAccum::lend) it a larger buffer for the duration of a
/// readiness pass and [`take it back`](FrameAccum::take_buffer) once
/// nothing is buffered. Capacity is re-bounded to [`SCRATCH_RETAIN`]
/// both on [`FrameAccum::finish_frame`] and on every framing error, so
/// neither a multi-megabyte frame nor a hostile error path can pin
/// memory for a connection's lifetime.
#[derive(Debug, Default)]
pub struct FrameAccum {
    /// Read buffer, fully initialized: reads may fill up to
    /// `buf.len()`.
    buf: Vec<u8>,
    /// First received byte not yet consumed.
    start: usize,
    /// One past the last received byte.
    end: usize,
    /// `poll` reported the frame at `start`; it awaits `finish_frame`.
    ready: bool,
}

impl FrameAccum {
    /// A fresh accumulator (nothing buffered, no buffer allocated).
    pub fn new() -> Self {
        Self::default()
    }

    /// Received bytes not yet consumed, a reported frame included.
    fn held(&self) -> usize {
        self.end - self.start
    }

    /// The length prefix at `start`, once all four bytes are in.
    fn declared_len(&self) -> Option<u32> {
        if self.held() < 4 {
            return None;
        }
        let header = &self.buf[self.start..self.start + 4];
        Some(u32::from_le_bytes([
            header[0], header[1], header[2], header[3],
        ]))
    }

    /// `true` when a whole frame sits in the buffer, reported by
    /// [`FrameAccum::poll`] or not: the next poll returns it without a
    /// `read`. Level-triggered readiness cannot see these bytes — they
    /// already left the socket — so an event loop that stops reading
    /// with one buffered must come back to it on its own.
    pub fn has_complete_frame(&self) -> bool {
        self.declared_len()
            .is_some_and(|len| len <= MAX_FRAME && self.held() >= 4 + len as usize)
    }

    /// `true` while a frame has started arriving but is not complete —
    /// the predicate slow-client (slow-loris) eviction timers key on.
    pub fn mid_frame(&self) -> bool {
        self.held() > 0 && !self.has_complete_frame()
    }

    /// `true` when a complete frame is buffered (i.e. [`FrameAccum::poll`]
    /// returned [`FramePoll::Frame`] and [`FrameAccum::finish_frame`]
    /// has not run yet).
    pub fn has_frame(&self) -> bool {
        self.ready
    }

    /// The completed frame's payload. Empty unless [`FrameAccum::has_frame`].
    pub fn payload(&self) -> &[u8] {
        match self.declared_len() {
            Some(len) if self.ready => &self.buf[self.start + 4..self.start + 4 + len as usize],
            _ => &[],
        }
    }

    /// Retained capacity of the read buffer — observable so tests (and
    /// metrics) can assert the [`SCRATCH_RETAIN`] bound holds.
    pub fn scratch_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Adopts `buf` as the read buffer, so reads fill its whole
    /// capacity. Only an accumulator holding no bytes switches
    /// buffers; otherwise it keeps its own and `buf` is dropped.
    /// `buf`'s contents are ignored.
    pub fn lend(&mut self, mut buf: Vec<u8>) {
        if self.held() > 0 {
            return;
        }
        buf.resize(buf.capacity(), 0);
        self.buf = buf;
        self.start = 0;
        self.end = 0;
    }

    /// Gives the read buffer back when no bytes are buffered, leaving
    /// the accumulator holding no memory; `None` while bytes are
    /// buffered (they stay put) or when there is no buffer.
    pub fn take_buffer(&mut self) -> Option<Vec<u8>> {
        if self.held() > 0 || self.buf.capacity() == 0 {
            return None;
        }
        self.start = 0;
        self.end = 0;
        Some(std::mem::take(&mut self.buf))
    }

    /// Consumes the frame [`FrameAccum::poll`] reported (no-op when
    /// none) and re-bounds the buffer. Bytes received after it — the
    /// next frame, whole or partial — stay buffered.
    pub fn finish_frame(&mut self) {
        if self.ready {
            self.ready = false;
            let len = self.declared_len().unwrap_or(0);
            self.start += 4 + len as usize;
        }
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.buf.capacity() > SCRATCH_RETAIN && self.held() <= SCRATCH_RETAIN {
            self.compact();
            bound_scratch(&mut self.buf);
        }
    }

    /// Drops everything buffered after a framing error so a bad frame
    /// cannot pin capacity or leave the machine desynchronized.
    fn abort(&mut self) {
        self.ready = false;
        self.start = 0;
        self.end = 0;
        bound_scratch(&mut self.buf);
    }

    /// Moves the unconsumed bytes to the front of the buffer.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Makes sure a `need`-byte frame starting at `start` fits the
    /// buffer: compacts first, grows only if the frame itself is
    /// larger than the buffer.
    fn make_room(&mut self, need: usize) {
        if self.start + need <= self.buf.len() {
            return;
        }
        self.compact();
        if need > self.buf.len() {
            self.buf.reserve_exact(need - self.buf.len());
            self.buf.resize(need, 0);
        }
    }

    /// Advances the frame state machine: returns a buffered frame
    /// without reading, otherwise reads whatever `src` can deliver
    /// right now into the buffer's free room.
    ///
    /// Returns [`FramePoll::Frame`] once a complete frame is buffered
    /// (and again on every later call until [`FrameAccum::finish_frame`]
    /// runs), [`FramePoll::Pending`] when the source reports
    /// `WouldBlock`, and [`FramePoll::Eof`] on clean EOF *between*
    /// frames.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversize`] on a forged length prefix (checked
    /// **before** the buffer grows), [`FrameError::Io`] on transport
    /// failure or EOF mid-frame. Every error path drops the buffered
    /// bytes and re-bounds the buffer.
    pub fn poll(&mut self, src: &mut impl Read) -> Result<FramePoll, FrameError> {
        if self.ready {
            return Ok(FramePoll::Frame);
        }
        loop {
            let need = match self.declared_len() {
                Some(len) if len > MAX_FRAME => {
                    self.abort();
                    return Err(FrameError::Oversize(len));
                }
                Some(len) => 4 + len as usize,
                None => 4,
            };
            let held = self.held();
            if held >= need {
                self.ready = true;
                return Ok(FramePoll::Frame);
            }
            self.make_room(need);
            match src.read(&mut self.buf[self.end..]) {
                Ok(0) if held == 0 => return Ok(FramePoll::Eof),
                Ok(0) => {
                    let detail = if held < 4 {
                        format!("stream ended {held} bytes into a frame header")
                    } else {
                        format!(
                            "stream ended {} bytes into a {}-byte frame payload",
                            held - 4,
                            need - 4
                        )
                    };
                    self.abort();
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        detail,
                    )));
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(FramePoll::Pending),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.abort();
                    return Err(FrameError::Io(e));
                }
            }
        }
    }
}

/// Appends one `[length][payload]` frame to an in-memory buffer
/// without flushing anywhere — the building block for buffered
/// non-blocking writers (the evented server queues responses this way
/// and drains the buffer on write readiness).
///
/// # Errors
///
/// [`FrameError::Oversize`] when the payload exceeds [`MAX_FRAME`]
/// (nothing is appended).
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME)
        .ok_or(FrameError::Oversize(
            payload.len().min(u32::MAX as usize) as u32
        ))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Reads length-prefixed message frames from any [`Read`].
///
/// The reader owns a [`FrameAccum`] whose buffer every
/// `read_request`/`read_response`/`read_request_ref` call reuses, so a
/// steady-state connection reads frames with zero allocations. The
/// blocking reads below drive the same incremental state machine the
/// evented server polls; callers that own a non-blocking stream drive
/// a [`FrameAccum`] directly.
///
/// **The reader reads ahead.** Once its buffer has grown past one
/// frame, a `read` may pull in the start of the next frame too, and
/// those bytes live in the reader from then on. Keep one reader per
/// stream for the stream's whole life: a throwaway reader per message
/// can swallow the next message with it. A read that times out
/// mid-frame keeps the partial bytes, so the next call finishes that
/// frame.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    accum: FrameAccum,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            accum: FrameAccum::new(),
        }
    }

    /// `true` while a frame has started arriving but is not complete
    /// (slow-client timers key on this).
    pub fn mid_frame(&self) -> bool {
        self.accum.mid_frame()
    }

    /// Retained read-buffer capacity (tests assert the
    /// [`SCRATCH_RETAIN`] bound).
    pub fn scratch_capacity(&self) -> usize {
        self.accum.scratch_capacity()
    }

    /// Blocking drive of the accumulator: consumes the frame a prior
    /// read returned (lazy finish keeps `read_request_ref`'s borrow
    /// valid until the caller comes back), then reads until a frame
    /// completes or clean EOF. Partial bytes of the next frame stay
    /// buffered. `Ok(true)` = frame buffered.
    fn next_frame_blocking(&mut self) -> Result<bool, FrameError> {
        self.accum.finish_frame();
        match self.accum.poll(&mut self.inner)? {
            FramePoll::Frame => Ok(true),
            FramePoll::Eof => Ok(false),
            // A blocking stream only reports WouldBlock when a read
            // timeout is configured; surface it as an Io error. The
            // bytes received so far stay buffered for the next call.
            FramePoll::Pending => Err(FrameError::Io(io::Error::new(
                io::ErrorKind::WouldBlock,
                "read timed out mid-frame (non-blocking sources should drive a FrameAccum)",
            ))),
        }
    }

    /// Reads one raw frame payload into `buf` (cleared first, capacity
    /// reused); `Ok(false)` on clean EOF between frames.
    ///
    /// # Errors
    ///
    /// [`FrameError::Io`] on transport failure or EOF mid-frame,
    /// [`FrameError::Oversize`] on a forged length prefix (checked
    /// **before** the buffer grows).
    pub fn read_frame_into(&mut self, buf: &mut Vec<u8>) -> Result<bool, FrameError> {
        // Release capacity a previous oversized frame may have pinned;
        // the buffer is refilled below regardless.
        bound_scratch(buf);
        if !self.next_frame_blocking()? {
            return Ok(false);
        }
        buf.clear();
        buf.extend_from_slice(self.accum.payload());
        self.accum.finish_frame();
        Ok(true)
    }

    /// Reads one raw frame payload; `Ok(None)` on clean EOF between
    /// frames. Allocating twin of [`FrameReader::read_frame_into`].
    ///
    /// # Errors
    ///
    /// See [`FrameReader::read_frame_into`].
    pub fn read_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let mut payload = Vec::new();
        match self.read_frame_into(&mut payload)? {
            true => Ok(Some(payload)),
            false => Ok(None),
        }
    }

    /// Reads and decodes one [`Request`]; `Ok(None)` on clean EOF. The
    /// frame buffer is reused across calls; the decoded request owns
    /// its bytes.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; malformed payloads are
    /// [`FrameError::Decode`], never a panic.
    pub fn read_request(&mut self) -> Result<Option<Request>, FrameError> {
        if !self.next_frame_blocking()? {
            return Ok(None);
        }
        Ok(Some(Request::decode(self.accum.payload())?))
    }

    /// Reads and decodes one [`RequestRef`] borrowing from the reader's
    /// internal frame buffer; `Ok(None)` on clean EOF. The zero-copy
    /// server path: frame read and decode both reuse buffers, so
    /// serving a request allocates nothing on its way in.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; malformed payloads are
    /// [`FrameError::Decode`], never a panic.
    pub fn read_request_ref(&mut self) -> Result<Option<RequestRef<'_>>, FrameError> {
        if !self.next_frame_blocking()? {
            return Ok(None);
        }
        Ok(Some(RequestRef::decode(self.accum.payload())?))
    }

    /// Reads and decodes one [`Response`]; `Ok(None)` on clean EOF. The
    /// frame buffer is reused across calls; the decoded response owns
    /// its bytes.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; malformed payloads are
    /// [`FrameError::Decode`], never a panic.
    pub fn read_response(&mut self) -> Result<Option<Response>, FrameError> {
        if !self.next_frame_blocking()? {
            return Ok(None);
        }
        Ok(Some(Response::decode(self.accum.payload())?))
    }
}

/// Writes length-prefixed message frames to any [`Write`].
///
/// The writer owns two reused buffers — one for encoding a message,
/// one for the framed bytes — so a steady-state connection writes
/// frames with zero allocations, and each frame leaves in a single
/// `write_all` (one syscall, one TCP segment on a `TCP_NODELAY` socket
/// for any routine message).
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: W,
    scratch: Vec<u8>,
    frame: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a byte sink.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            scratch: Vec::new(),
            frame: Vec::new(),
        }
    }

    /// Writes one raw payload as a frame — length and payload in one
    /// write — and flushes.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversize`] when the payload exceeds [`MAX_FRAME`]
    /// (nothing is written), [`FrameError::Io`] on transport failure.
    pub fn write_frame(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        self.frame.clear();
        append_frame(&mut self.frame, payload)?;
        let written = self
            .inner
            .write_all(&self.frame)
            .and_then(|()| self.inner.flush());
        bound_scratch(&mut self.frame);
        Ok(written?)
    }

    /// Encodes and writes one [`Request`], reusing the writer's encode
    /// buffer.
    ///
    /// # Errors
    ///
    /// See [`FrameWriter::write_frame`].
    pub fn write_request(&mut self, request: &Request) -> Result<(), FrameError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        request.encode_into(&mut scratch);
        let result = self.write_frame(&scratch);
        bound_scratch(&mut scratch);
        self.scratch = scratch;
        result
    }

    /// Encodes and writes one [`Response`], reusing the writer's encode
    /// buffer.
    ///
    /// # Errors
    ///
    /// See [`FrameWriter::write_frame`].
    pub fn write_response(&mut self, response: &Response) -> Result<(), FrameError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        response.encode_into(&mut scratch);
        let result = self.write_frame(&scratch);
        bound_scratch(&mut scratch);
        self.scratch = scratch;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ErrorCode, WireVerdict, PROTOCOL_VERSION};

    #[test]
    fn frames_stream_through_a_buffer() {
        let mut wire = Vec::new();
        {
            let mut w = FrameWriter::new(&mut wire);
            w.write_request(&Request::Hello {
                protocol: PROTOCOL_VERSION,
                client: "t".into(),
            })
            .unwrap();
            w.write_request(&Request::MetricsSnapshot).unwrap();
        }
        let mut r = FrameReader::new(&wire[..]);
        assert!(matches!(
            r.read_request().unwrap(),
            Some(Request::Hello { .. })
        ));
        assert_eq!(r.read_request().unwrap(), Some(Request::MetricsSnapshot));
        assert_eq!(r.read_request().unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn responses_stream_too() {
        let mut wire = Vec::new();
        FrameWriter::new(&mut wire)
            .write_response(&Response::Verdict(WireVerdict::Accept))
            .unwrap();
        let mut r = FrameReader::new(&wire[..]);
        assert_eq!(
            r.read_response().unwrap(),
            Some(Response::Verdict(WireVerdict::Accept))
        );
    }

    #[test]
    fn truncated_frame_is_an_io_error_not_a_hang_or_panic() {
        let mut wire = Vec::new();
        FrameWriter::new(&mut wire)
            .write_response(&Response::Error {
                code: ErrorCode::MalformedRequest,
                detail: "x".into(),
            })
            .unwrap();
        for cut in 1..wire.len() {
            let mut r = FrameReader::new(&wire[..cut]);
            assert!(
                matches!(r.read_response(), Err(FrameError::Io(_))),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversize_header_rejected_before_allocation() {
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut r = FrameReader::new(&huge[..]);
        assert!(matches!(r.read_frame(), Err(FrameError::Oversize(_))));
    }

    #[test]
    fn oversize_payload_refused_on_write() {
        let mut sink = Vec::new();
        let mut w = FrameWriter::new(&mut sink);
        let too_big = vec![0u8; MAX_FRAME as usize + 1];
        assert!(matches!(
            w.write_frame(&too_big),
            Err(FrameError::Oversize(_))
        ));
        assert!(sink.is_empty(), "nothing half-written");
    }

    /// A sink that accepts everything and counts `write` calls.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_leaves_in_one_write() {
        let mut w = FrameWriter::new(CountingSink::default());
        w.write_request(&Request::MetricsSnapshot).unwrap();
        w.write_response(&Response::Verdict(WireVerdict::Accept))
            .unwrap();
        w.write_frame(b"raw").unwrap();
        assert_eq!(w.inner.writes, 3, "one write per frame, length included");
        let mut expect = Vec::new();
        append_frame(&mut expect, &Request::MetricsSnapshot.encode()).unwrap();
        append_frame(
            &mut expect,
            &Response::Verdict(WireVerdict::Accept).encode(),
        )
        .unwrap();
        append_frame(&mut expect, b"raw").unwrap();
        assert_eq!(w.inner.bytes, expect, "same bytes as before");
    }

    #[test]
    fn peer_fault_classification() {
        assert!(FrameError::Oversize(9).is_peer_fault());
        assert!(FrameError::Decode(DecodeError::UnknownMessage(0)).is_peer_fault());
        assert!(!FrameError::Io(io::Error::other("x")).is_peer_fault());
    }
}
