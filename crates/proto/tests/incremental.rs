//! Incremental (non-blocking) frame decoding: regression tests for the
//! `FrameAccum` machinery plus the chunking-invariance
//! property the evented server's per-connection state machines rely
//! on — however a byte stream is sliced by the transport, the decoded
//! request sequence is identical.

use std::io::{self, Read, Write};

use proptest::prelude::*;
use ropuf_proto::{
    AuthItem, FaultPlan, FaultyStream, FrameAccum, FrameError, FramePoll, FrameReader, FrameWriter,
    Request, RequestRef, WireAuthResponse, MAX_FRAME, RATE_ONE, SCRATCH_RETAIN,
};

/// A `Read` source that delivers its data in caller-chosen chunk
/// sizes, returning `WouldBlock` between chunks — the byte-stream
/// shape a non-blocking socket presents to an epoll loop.
struct ChunkedSource {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    next_chunk: usize,
    /// Alternates so every chunk is followed by one `WouldBlock`.
    block_next: bool,
    reads: usize,
}

impl ChunkedSource {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
        Self {
            data,
            pos: 0,
            chunks,
            next_chunk: 0,
            block_next: false,
            reads: 0,
        }
    }
}

impl Read for ChunkedSource {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        if self.pos == self.data.len() {
            return Ok(0); // clean EOF
        }
        if self.block_next {
            self.block_next = false;
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "no bytes yet"));
        }
        let chunk = self
            .chunks
            .get(self.next_chunk)
            .copied()
            .unwrap_or(1)
            .max(1);
        self.next_chunk = (self.next_chunk + 1) % self.chunks.len().max(1);
        let n = chunk.min(self.data.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        self.block_next = true;
        Ok(n)
    }
}

/// A source that never has bytes: every read is `WouldBlock`.
struct NeverReady {
    reads: usize,
}

impl Read for NeverReady {
    fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        Err(io::Error::new(io::ErrorKind::WouldBlock, "never"))
    }
}

/// Builds a deterministic request sequence from raw nonce material.
fn requests_from(nonces: &[Vec<u8>]) -> Vec<Request> {
    nonces
        .iter()
        .enumerate()
        .map(|(i, nonce)| match i % 3 {
            0 => Request::Authenticate(AuthItem {
                device_id: i as u64,
                now: (i as u64) * 3,
                nonce: nonce.clone(),
                response: if nonce.len() % 2 == 0 {
                    WireAuthResponse::Failure
                } else {
                    WireAuthResponse::Tag([nonce.first().copied().unwrap_or(7); 32])
                },
                presented_helper: if nonce.is_empty() {
                    None
                } else {
                    Some(nonce.clone())
                },
            }),
            1 => Request::QueryVerdict {
                device_id: nonce.len() as u64,
            },
            _ => Request::Hello {
                protocol: 1,
                client: format!("chunked-{i}"),
            },
        })
        .collect()
}

/// The payload of the frame a poll reported: the first one `frames`
/// lists.
fn front(accum: &FrameAccum) -> &[u8] {
    accum.frames().next().expect("a reported frame is listed")
}

/// Encodes `requests` as one contiguous framed byte stream.
fn framed_stream(requests: &[Request]) -> Vec<u8> {
    let mut wire = Vec::new();
    let mut writer = FrameWriter::new(&mut wire);
    for request in requests {
        writer.write_request(request).unwrap();
    }
    wire
}

/// Drives a `FrameAccum` over a chunked source to completion, decoding
/// every frame as a request (the evented server's read loop, minus the
/// handler).
fn decode_all_chunked(source: &mut ChunkedSource) -> Vec<Request> {
    decode_all_with(FrameAccum::new(), source)
}

/// [`decode_all_chunked`] on an accumulator that reads into a lent
/// 64 KiB buffer, the way the evented loop drives it.
fn decode_all_lent(source: &mut ChunkedSource) -> Vec<Request> {
    let mut accum = FrameAccum::new();
    accum.lend(vec![0; 64 * 1024]);
    decode_all_with(accum, source)
}

fn decode_all_with(mut accum: FrameAccum, source: &mut ChunkedSource) -> Vec<Request> {
    let mut decoded = Vec::new();
    loop {
        match accum.poll(source).expect("well-formed stream") {
            FramePoll::Frame => {
                decoded.push(RequestRef::decode(front(&accum)).unwrap().into_owned());
                accum.finish_frames(1);
            }
            FramePoll::Pending => continue, // next readiness notification
            FramePoll::Eof => return decoded,
        }
    }
}

proptest! {
    #[test]
    fn chunking_invariance(
        nonces in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48),
            1..7,
        ),
        chunks in proptest::collection::vec(1usize..64, 1..24),
        wide_chunks in proptest::collection::vec(1usize..1024, 1..8),
    ) {
        let requests = requests_from(&nonces);
        let wire = framed_stream(&requests);

        // Reference decode: the blocking reader over the whole buffer.
        let mut reference = Vec::new();
        let mut reader = FrameReader::new(&wire[..]);
        while let Some(request) = reader.read_request().unwrap() {
            reference.push(request);
        }
        prop_assert_eq!(&reference, &requests);

        // Incremental decode under this chunking must match exactly.
        let mut source = ChunkedSource::new(wire.clone(), chunks);
        let chunked = decode_all_chunked(&mut source);
        prop_assert_eq!(&chunked, &requests);

        // And byte-at-a-time, the adversarial extreme.
        let mut trickle = ChunkedSource::new(wire.clone(), vec![1]);
        let trickled = decode_all_chunked(&mut trickle);
        prop_assert_eq!(&trickled, &requests);

        // Chunks that span several frames: one read delivers the tail
        // of one frame, whole frames, and the head of another, into a
        // buffer sized per frame and into a lent read-ahead buffer.
        let mut spanning = ChunkedSource::new(wire.clone(), wide_chunks.clone());
        let spanned = decode_all_chunked(&mut spanning);
        prop_assert_eq!(&spanned, &requests);
        let mut lent = ChunkedSource::new(wire, wide_chunks);
        let lent_decoded = decode_all_lent(&mut lent);
        prop_assert_eq!(&lent_decoded, &requests);
    }
}

proptest! {
    /// Chunking invariance extends through the fault layer: however a
    /// seeded [`FaultPlan`] re-chunks the byte stream — short reads
    /// and short writes at any rate, stacked on top of an adversarial
    /// transport chunking — the decoded request sequence is identical.
    /// (This is the property that lets the chaos equivalence suite
    /// inject partial I/O everywhere while still demanding bit-for-bit
    /// identical answers.)
    #[test]
    fn faulty_stream_partial_io_is_chunking_invariant(
        nonces in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48),
            1..7,
        ),
        chunks in proptest::collection::vec(1usize..64, 1..24),
        seed in any::<u64>(),
        rate in 0u32..=RATE_ONE,
    ) {
        let requests = requests_from(&nonces);
        let wire = framed_stream(&requests);

        // Write side: a frame stream written through partial-writing
        // faults arrives byte-identical.
        let mut sink = Vec::new();
        let mut faulty = FaultyStream::new(
            &mut sink,
            FaultPlan::new(seed).with_partial_io(rate),
        );
        faulty.write_all(&wire).unwrap();
        drop(faulty);
        prop_assert_eq!(&sink, &wire); // short writes may reorder nothing

        // Read side: faults stacked on transport chunking decode to
        // the same request sequence.
        let source = ChunkedSource::new(wire, chunks);
        let mut faulty = FaultyStream::new(
            source,
            FaultPlan::new(seed.wrapping_add(1)).with_partial_io(rate),
        );
        let mut accum = FrameAccum::new();
        let mut decoded = Vec::new();
        loop {
            match accum.poll(&mut faulty).expect("well-formed stream") {
                FramePoll::Frame => {
                    decoded.push(RequestRef::decode(front(&accum)).unwrap().into_owned());
                    accum.finish_frames(1);
                }
                FramePoll::Pending => continue,
                FramePoll::Eof => break,
            }
        }
        prop_assert_eq!(&decoded, &requests);
    }
}

#[test]
fn poll_does_not_busy_spin_on_an_empty_source() {
    let mut source = NeverReady { reads: 0 };
    let mut accum = FrameAccum::new();
    for polls in 1..=16 {
        assert_eq!(accum.poll(&mut source).unwrap(), FramePoll::Pending);
        assert_eq!(
            source.reads, polls,
            "each poll must issue exactly one read when the source is dry"
        );
    }
}

#[test]
fn poll_read_calls_are_linear_in_delivered_chunks() {
    let requests = requests_from(&[vec![1; 40], vec![2; 17]]);
    let wire = framed_stream(&requests);
    let total = wire.len();
    let mut source = ChunkedSource::new(wire, vec![3]);
    let decoded = decode_all_chunked(&mut source);
    assert_eq!(decoded, requests);
    // Every read yields 3 bytes then one WouldBlock, plus the final
    // clean-EOF read: reads are linear in the stream length, with no
    // retry storm hidden inside poll.
    let chunks = total.div_ceil(3);
    assert!(
        source.reads <= 2 * chunks + 2,
        "{} reads for {chunks} chunks — poll is re-reading without new data",
        source.reads
    );
}

/// A drained piece of a socket's byte stream: reports `WouldBlock`
/// when empty (the socket is still open, just idle), unlike a plain
/// slice whose exhaustion reads as EOF.
struct Piece<'a>(&'a [u8]);

impl Read for Piece<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.0.is_empty() {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "drained"));
        }
        let n = self.0.len().min(buf.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

#[test]
fn pending_keeps_partial_header_and_payload_state() {
    // 2 header bytes, stall, 2 more, stall, then the payload.
    let request = Request::MetricsSnapshot;
    let wire = framed_stream(&[request.clone()]);
    let mut accum = FrameAccum::new();
    let mut fed = 0;
    for step in [2usize, 2, wire.len()] {
        let mut piece = Piece(&wire[fed..(fed + step).min(wire.len())]);
        fed = (fed + step).min(wire.len());
        let poll = accum.poll(&mut piece).unwrap();
        if fed < wire.len() {
            assert_eq!(poll, FramePoll::Pending, "frame cannot complete early");
            assert!(accum.mid_frame(), "partial state must persist");
        } else {
            assert_eq!(poll, FramePoll::Frame, "all bytes delivered");
        }
    }
    let decoded = RequestRef::decode(front(&accum)).unwrap().into_owned();
    assert_eq!(decoded, request);
}

#[test]
fn scratch_is_bounded_after_a_large_frame_completes() {
    let big = vec![0xAB; 1024 * 1024];
    let mut wire = Vec::new();
    ropuf_proto::append_frame(&mut wire, &big).unwrap();
    let mut accum = FrameAccum::new();
    let mut src = &wire[..];
    assert_eq!(accum.poll(&mut src).unwrap(), FramePoll::Frame);
    assert_eq!(front(&accum), &big[..]);
    assert!(accum.scratch_capacity() >= big.len(), "grew for the frame");
    accum.finish_frames(1);
    assert!(
        accum.scratch_capacity() <= SCRATCH_RETAIN,
        "capacity {} must be released after the frame",
        accum.scratch_capacity()
    );
}

#[test]
fn scratch_is_bounded_across_error_paths() {
    // EOF in the middle of a large declared payload: the 1 MiB scratch
    // the declared length grew must not stay pinned after the error.
    let mut wire = (1024u32 * 1024).to_le_bytes().to_vec();
    wire.extend_from_slice(&[0u8; 4096]); // only 4 KiB of it arrives
    let mut accum = FrameAccum::new();
    let mut src = &wire[..];
    let err = accum.poll(&mut src).unwrap_err();
    assert!(matches!(err, FrameError::Io(_)), "EOF mid-frame");
    assert!(
        accum.scratch_capacity() <= SCRATCH_RETAIN,
        "error path retained {} bytes",
        accum.scratch_capacity()
    );
    assert!(!accum.mid_frame(), "partial state cleared after error");

    // Oversize header: rejected before any allocation at all.
    let huge = (MAX_FRAME + 1).to_le_bytes();
    let mut accum = FrameAccum::new();
    let mut src = &huge[..];
    assert!(matches!(accum.poll(&mut src), Err(FrameError::Oversize(_))));
    assert!(accum.scratch_capacity() <= SCRATCH_RETAIN);

    // And the accumulator still works after errors: a fresh valid
    // frame decodes normally.
    let wire = framed_stream(&[Request::MetricsSnapshot]);
    let mut src = &wire[..];
    assert_eq!(accum.poll(&mut src).unwrap(), FramePoll::Frame);
    assert_eq!(
        RequestRef::decode(front(&accum)).unwrap().into_owned(),
        Request::MetricsSnapshot
    );
}

#[test]
fn frame_reader_scratch_is_bounded_after_decode_errors() {
    // A large garbage frame decodes to an error; the reader's scratch
    // must be re-bounded by the time the connection reads again (the
    // lazy-finish contract), and the stream must stay frame-aligned.
    let garbage = vec![0x7F; 900 * 1024];
    let mut wire = Vec::new();
    ropuf_proto::append_frame(&mut wire, &garbage).unwrap();
    FrameWriter::new(&mut wire)
        .write_request(&Request::MetricsSnapshot)
        .unwrap();

    let mut reader = FrameReader::new(&wire[..]);
    assert!(matches!(reader.read_request(), Err(FrameError::Decode(_))));
    // Next read consumes the bad frame's buffer and re-bounds it…
    assert_eq!(
        reader.read_request().unwrap(),
        Some(Request::MetricsSnapshot)
    );
    assert!(
        reader.scratch_capacity() <= SCRATCH_RETAIN,
        "decode-error path retained {} bytes",
        reader.scratch_capacity()
    );
    assert_eq!(reader.read_request().unwrap(), None);
}

#[test]
fn lent_buffer_decodes_a_pipelined_burst_in_two_reads() {
    // 64 frames written back to back, all sitting in the socket: the
    // first read takes the whole burst into the lent buffer, every
    // frame is then served from it, and one WouldBlock read ends the
    // pass. (Per-frame reads took one header read and one payload read
    // per frame, plus the WouldBlock: 129.)
    let requests: Vec<Request> = (0..64u64)
        .map(|id| Request::QueryVerdict { device_id: id })
        .collect();
    let wire = framed_stream(&requests);
    assert!(wire.len() <= 64 * 1024, "the burst fits the buffer");
    let mut source = CountingPiece {
        piece: Piece(&wire),
        reads: 0,
    };
    let mut accum = FrameAccum::new();
    accum.lend(vec![0; 64 * 1024]);
    let mut decoded = Vec::new();
    loop {
        match accum.poll(&mut source).unwrap() {
            FramePoll::Frame => {
                decoded.push(RequestRef::decode(front(&accum)).unwrap().into_owned());
                accum.finish_frames(1);
            }
            FramePoll::Pending => break,
            FramePoll::Eof => unreachable!("the socket stays open"),
        }
    }
    assert_eq!(decoded, requests);
    assert!(source.reads <= 2, "{} reads for one burst", source.reads);
    // Nothing left buffered: the buffer goes back to the lender.
    assert!(!accum.mid_frame());
    assert!(accum.take_buffer().is_some());
    assert_eq!(
        accum.scratch_capacity(),
        0,
        "an idle accumulator holds nothing"
    );
}

/// A [`Piece`] that counts `read` calls.
struct CountingPiece<'a> {
    piece: Piece<'a>,
    reads: usize,
}

impl Read for CountingPiece<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        self.piece.read(buf)
    }
}

/// A blocking stream with a read timeout: serves `parts` in order, and
/// between parts one read times out the way an expired `SO_RCVTIMEO`
/// does on Linux (`WouldBlock`).
struct TimingOut {
    parts: Vec<Vec<u8>>,
    timed_out: bool,
}

impl Read for TimingOut {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.parts.is_empty() {
            return Ok(0);
        }
        if !self.timed_out {
            self.timed_out = true;
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "timed out"));
        }
        let part = &mut self.parts[0];
        let n = part.len().min(buf.len());
        buf[..n].copy_from_slice(&part[..n]);
        part.drain(..n);
        if part.is_empty() {
            self.parts.remove(0);
            self.timed_out = false;
        }
        Ok(n)
    }
}

#[test]
fn frame_reader_resumes_a_frame_after_a_read_timeout() {
    // Two frames, the first cut mid-payload by a read timeout. The
    // timed-out call reports an Io error; the next call must finish
    // the same frame from the bytes already received (dropping them
    // made the reader parse payload bytes as a length prefix).
    let requests = vec![
        Request::Hello {
            protocol: 1,
            client: "resumed-after-a-timeout".into(),
        },
        Request::MetricsSnapshot,
    ];
    let wire = framed_stream(&requests);
    let cut = 9;
    let mut reader = FrameReader::new(TimingOut {
        parts: vec![wire[..cut].to_vec(), wire[cut..].to_vec()],
        timed_out: true,
    });
    match reader.read_request() {
        Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
        other => panic!("expected the timeout, got {other:?}"),
    }
    assert!(reader.mid_frame(), "the partial frame is kept");
    assert_eq!(reader.read_request().unwrap(), Some(requests[0].clone()));
    assert_eq!(reader.read_request().unwrap(), Some(requests[1].clone()));
    assert_eq!(reader.read_request().unwrap(), None);
}

proptest! {
    /// `frames` is a pure listing: under any chunking, what it shows
    /// starts at the frame the poll reported and is the next stretch of
    /// the stream's frames, listing it twice changes nothing, and
    /// consuming any number of listed frames with `finish_frames`
    /// leaves the rest of the sequence to later polls.
    #[test]
    fn frames_list_the_buffered_run_without_consuming(
        nonces in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48),
            1..9,
        ),
        chunks in proptest::collection::vec(1usize..256, 1..8),
        takes in proptest::collection::vec(1usize..5, 1..8),
    ) {
        let requests = requests_from(&nonces);
        let payloads: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
        let wire = framed_stream(&requests);
        let mut source = ChunkedSource::new(wire, chunks);
        let mut accum = FrameAccum::new();
        accum.lend(vec![0; 64 * 1024]);
        let mut decoded = Vec::new();
        let mut step = 0;
        loop {
            match accum.poll(&mut source).expect("well-formed stream") {
                FramePoll::Frame => {
                    let listed: Vec<Vec<u8>> = accum.frames().map(<[u8]>::to_vec).collect();
                    prop_assert!(!listed.is_empty(), "a reported frame is listed");
                    prop_assert_eq!(
                        accum.frames().map(<[u8]>::to_vec).collect::<Vec<_>>(),
                        listed.clone()
                    );
                    let at = decoded.len();
                    prop_assert_eq!(&listed[..], &payloads[at..at + listed.len()]);
                    // Serve a run of the listed frames, then release it.
                    let take = takes[step % takes.len()].min(listed.len());
                    step += 1;
                    for payload in &listed[..take] {
                        decoded.push(RequestRef::decode(payload).unwrap().into_owned());
                    }
                    accum.finish_frames(take);
                    prop_assert_eq!(
                        accum.frames().map(<[u8]>::to_vec).collect::<Vec<_>>(),
                        listed[take..].to_vec()
                    );
                }
                FramePoll::Pending => continue,
                FramePoll::Eof => break,
            }
        }
        prop_assert_eq!(&decoded, &requests);
    }
}

#[test]
fn frames_end_at_a_partial_frame_and_never_read_past_the_received_bytes() {
    let requests = vec![
        Request::QueryVerdict { device_id: 1 },
        Request::Authenticate(AuthItem {
            device_id: 77,
            now: 3,
            nonce: b"next".to_vec(),
            response: WireAuthResponse::Tag([5; 32]),
            presented_helper: None,
        }),
    ];
    let wire = framed_stream(&requests);
    let first_frame = framed_stream(&requests[..1]).len();
    let first = &wire[4..first_frame];
    let second = &wire[first_frame + 4..];
    for cut in first_frame..wire.len() {
        // The lent buffer already holds the whole stream, so the bytes
        // past the received ones would complete the next frame: only a
        // listing that reads past them could see it.
        let mut stale = wire.clone();
        stale.shrink_to_fit();
        let mut accum = FrameAccum::new();
        accum.lend(stale);
        assert_eq!(accum.frames().count(), 0, "nothing received yet");
        let mut source = Piece(&wire[..cut]);
        assert_eq!(accum.poll(&mut source).unwrap(), FramePoll::Frame);
        assert_eq!(accum.frames().collect::<Vec<_>>(), [first], "cut at {cut}");
        // Asking for more frames than are complete consumes only the
        // complete one; the partial bytes stay buffered.
        accum.finish_frames(2);
        assert_eq!(accum.frames().count(), 0, "cut at {cut}, first finished");
        assert!(accum.mid_frame() || cut == first_frame);
    }
    // Whole: the listing shows both payloads, then the second once the
    // first is finished.
    let mut accum = FrameAccum::new();
    accum.lend(vec![0; 64 * 1024]);
    assert_eq!(accum.poll(&mut Piece(&wire)).unwrap(), FramePoll::Frame);
    assert_eq!(accum.frames().collect::<Vec<_>>(), [first, second]);
    accum.finish_frames(1);
    assert_eq!(accum.frames().collect::<Vec<_>>(), [second]);
    assert_eq!(accum.poll(&mut Piece(&[])).unwrap(), FramePoll::Frame);
    assert_eq!(front(&accum), second);
    accum.finish_frames(1);
    assert_eq!(accum.frames().count(), 0, "nothing behind the last frame");
    assert!(!accum.mid_frame());
    // Both frames consumed at once, without a poll for the second.
    let mut accum = FrameAccum::new();
    accum.lend(vec![0; 64 * 1024]);
    assert_eq!(accum.poll(&mut Piece(&wire)).unwrap(), FramePoll::Frame);
    accum.finish_frames(2);
    assert!(accum.frames().next().is_none() && !accum.mid_frame());
    assert_eq!(accum.poll(&mut Piece(&[])).unwrap(), FramePoll::Pending);
}

#[test]
fn frames_end_at_a_forged_oversize_length() {
    let mut wire = framed_stream(&[Request::QueryVerdict { device_id: 9 }]);
    let first = wire[4..].to_vec();
    wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    wire.extend_from_slice(&[0x03; 64]);
    let mut accum = FrameAccum::new();
    accum.lend(vec![0; 64 * 1024]);
    assert_eq!(accum.poll(&mut Piece(&wire)).unwrap(), FramePoll::Frame);
    assert_eq!(accum.frames().collect::<Vec<_>>(), [&first[..]]);
    // The iterator stays ended: the forged header is never walked past.
    let mut frames = accum.frames();
    assert!(frames.next().is_some());
    assert_eq!((frames.next(), frames.next()), (None, None));
    accum.finish_frames(usize::MAX);
    assert_eq!(accum.frames().count(), 0);
    // The forged header is still there for poll to refuse.
    assert!(matches!(
        accum.poll(&mut Piece(&[])),
        Err(FrameError::Oversize(n)) if n == MAX_FRAME + 1
    ));
}
