//! Length-prefixed, CRC-framed codec for the verification daemon's socket
//! protocol.
//!
//! The daemon (`jahob-core::service`) and its clients talk over a
//! Unix-domain socket. Every message is a *frame*:
//!
//! ```text
//! [magic u32 LE][len u32 LE][crc32 u32 LE][body: kind u8 + payload]
//! ```
//!
//! * `magic` is a fixed sentinel so a desynchronized stream (a peer that
//!   wrote garbage, a partial write) is detected immediately instead of
//!   misparsing garbage as a length.
//! * `len` is the body length (kind byte included) and is bounded by the
//!   reader's `max_len`, so a corrupt length can never trigger an
//!   unbounded allocation.
//! * `crc32` covers the body, reusing the same CRC-32 the segment store
//!   uses ([`crate::store::crc32`]); a bit-flipped or truncated frame is
//!   rejected, never half-parsed.
//!
//! Payload layout is the caller's business; [`Writer`]/[`Reader`] are the
//! little-endian cursor helpers both sides use to build and pick apart
//! payloads without pulling in a serialization dependency.

use crate::store::crc32;
use std::io;

/// Frame sentinel: `b"JHOB"` read as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"JHOB");

/// Default cap on a frame body. A submission carries one source file and
/// a report one rendered report; 16 MiB is orders of magnitude above
/// anything the pipeline produces while still bounding a corrupt length
/// field.
pub const DEFAULT_MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Message kinds carried in the leading body byte. The values are wire
/// format: a client and a daemon from different builds must agree on them.
pub mod kind {
    /// Client → daemon: one verification request (source + options).
    pub const SUBMIT: u8 = 5;
    /// Daemon → client: a streamed obs line, the final rendered report,
    /// or a diagnosed pipeline error (see the tag byte in
    /// `jahob-core::service`).
    pub const REPORT: u8 = 6;
    /// Daemon → client: admission refused — the queue is full or the
    /// daemon is draining. Carries the queue depth so clients can back
    /// off informedly.
    pub const BUSY: u8 = 7;
    /// Client → daemon: status probe; daemon replies with the same kind
    /// carrying queue/in-flight/counter state.
    pub const STATUS: u8 = 8;
    /// Client → daemon: graceful drain request; the daemon finishes all
    /// admitted work, acks with the same kind, and exits.
    pub const DRAIN: u8 = 9;
}

/// One decoded frame: the kind byte plus the remaining payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: u8,
    pub payload: Vec<u8>,
}

impl Frame {
    pub fn new(kind: u8, payload: Vec<u8>) -> Self {
        Frame { kind, payload }
    }
}

/// Why a frame could not be read. `Eof` at a frame boundary is the
/// normal end-of-stream; everything else is a protocol violation that
/// costs the daemon that one connection.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream (no bytes at a frame boundary).
    Eof,
    /// Underlying socket error (includes mid-frame truncation).
    Io(io::Error),
    /// The magic sentinel did not match: the stream is desynchronized.
    BadMagic(u32),
    /// Declared body length exceeds the reader's cap.
    TooLong(u32),
    /// Body checksum mismatch: the frame was corrupted in flight.
    BadCrc { want: u32, got: u32 },
    /// A zero-length body (no kind byte) is never valid.
    Empty,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::Io(e) => write!(f, "pipe error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::TooLong(n) => write!(f, "frame body of {n} bytes exceeds cap"),
            FrameError::BadCrc { want, got } => {
                write!(
                    f,
                    "frame checksum mismatch (want {want:#010x}, got {got:#010x})"
                )
            }
            FrameError::Empty => write!(f, "empty frame body"),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame. The body (kind + payload) is assembled first so the
/// header's length and checksum describe exactly what goes on the wire.
pub fn write_frame(w: &mut impl io::Write, frame: &Frame) -> io::Result<()> {
    let mut body = Vec::with_capacity(1 + frame.payload.len());
    body.push(frame.kind);
    body.extend_from_slice(&frame.payload);
    write_raw(w, &body, crc32(&body))
}

/// Write a frame whose checksum field is deliberately wrong — the
/// daemon's torn-frame chaos fault uses this to exercise the receiver's
/// corruption rejection.
pub fn write_corrupt_frame(w: &mut impl io::Write, frame: &Frame) -> io::Result<()> {
    let mut body = Vec::with_capacity(1 + frame.payload.len());
    body.push(frame.kind);
    body.extend_from_slice(&frame.payload);
    write_raw(w, &body, crc32(&body) ^ 0xdead_beef)
}

fn write_raw(w: &mut impl io::Write, body: &[u8], crc: u32) -> io::Result<()> {
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(body);
    w.write_all(&out)?;
    w.flush()
}

/// Read one frame, enforcing `max_len` on the declared body length.
///
/// Returns [`FrameError::Eof`] only when the stream ends cleanly *between*
/// frames; truncation inside a frame surfaces as `Io(UnexpectedEof)`.
pub fn read_frame(r: &mut impl io::Read, max_len: u32) -> Result<Frame, FrameError> {
    let mut header = [0u8; 12];
    // Distinguish "stream over" from "stream died mid-header".
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Eof),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let want_crc = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if len > max_len {
        return Err(FrameError::TooLong(len));
    }
    if len == 0 {
        return Err(FrameError::Empty);
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let got_crc = crc32(&body);
    if got_crc != want_crc {
        return Err(FrameError::BadCrc {
            want: want_crc,
            got: got_crc,
        });
    }
    let payload = body[1..].to_vec();
    Ok(Frame {
        kind: body[0],
        payload,
    })
}

/// Little-endian payload builder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed byte run.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Decoding error for [`Reader`]: the payload ran short or held invalid
/// data. The daemon and its clients treat it as a protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truncated;

impl std::fmt::Display for Truncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "payload truncated or malformed")
    }
}

/// Little-endian payload cursor. Every getter is bounds-checked; a short
/// read is an error, never a panic.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let end = self.pos.checked_add(n).ok_or(Truncated)?;
        if end > self.buf.len() {
            return Err(Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub fn get_u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8], Truncated> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    pub fn get_str(&mut self) -> Result<&'a str, Truncated> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| Truncated)
    }

    /// True when every payload byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut wire = Vec::new();
        write_frame(&mut wire, frame).unwrap();
        read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap()
    }

    #[test]
    fn frame_roundtrip() {
        let frame = Frame::new(kind::SUBMIT, b"hello daemon".to_vec());
        assert_eq!(roundtrip(&frame), frame);
        let empty_payload = Frame::new(kind::STATUS, Vec::new());
        assert_eq!(roundtrip(&empty_payload), empty_payload);
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let frames = [
            Frame::new(kind::SUBMIT, vec![1, 2, 3]),
            Frame::new(kind::STATUS, Vec::new()),
            Frame::new(kind::REPORT, vec![0xff; 1000]),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut cursor = wire.as_slice();
        for f in &frames {
            assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(), *f);
        }
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME),
            Err(FrameError::Eof)
        ));
    }

    #[test]
    fn bit_flips_anywhere_are_rejected() {
        let frame = Frame::new(kind::REPORT, b"the payload under test".to_vec());
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        for bit in 0..wire.len() * 8 {
            let mut bad = wire.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            // A flip may corrupt the magic, the length, the checksum, or
            // the body — every case must be an error, never a silent
            // mis-decode into a *different* valid frame.
            if let Ok(got) = read_frame(&mut bad.as_slice(), DEFAULT_MAX_FRAME) {
                panic!("bit {bit}: corrupt frame decoded as {got:?}");
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_rejected() {
        let frame = Frame::new(kind::SUBMIT, vec![7; 64]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        for cut in 1..wire.len() {
            let short = &wire[..cut];
            assert!(
                read_frame(&mut &short[..], DEFAULT_MAX_FRAME).is_err(),
                "truncation to {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn oversize_length_is_capped_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC.to_le_bytes());
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice(), 1024),
            Err(FrameError::TooLong(_))
        ));
    }

    #[test]
    fn corrupt_writer_is_rejected_by_reader() {
        let frame = Frame::new(kind::REPORT, b"garbled".to_vec());
        let mut wire = Vec::new();
        write_corrupt_frame(&mut wire, &frame).unwrap();
        assert!(matches!(
            read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::BadCrc { .. })
        ));
    }

    #[test]
    fn cursor_roundtrip_and_bounds() {
        let mut w = Writer::new();
        w.put_u8(9);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_str("obligation");
        w.put_bytes(&[1, 2, 3]);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 9);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_str().unwrap(), "obligation");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());
        assert_eq!(r.get_u8(), Err(Truncated));

        // A length prefix pointing past the end is an error, not a panic.
        let mut w = Writer::new();
        w.put_u32(1_000_000);
        let buf = w.into_vec();
        assert_eq!(Reader::new(&buf).get_bytes(), Err(Truncated));
    }
}
