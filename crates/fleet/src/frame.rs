//! Length-prefixed byte frames: a 4-byte big-endian length followed by
//! that many payload bytes. The framing both the dispatcher⇄worker
//! protocol and the `rumor serve` loop speak, over pipes or sockets.

use std::io::{self, Read, Write};

/// Frames larger than this are rejected on both sides (a corrupted or
/// misaligned length prefix would otherwise trigger a giant
/// allocation).
pub const MAX_FRAME: u32 = 1 << 28;

/// Writes one frame and flushes (the reader on the other side blocks
/// until the frame is complete, so every frame is flushed eagerly).
/// Header and payload go out in one `write_all`, so an unbuffered
/// writer (a pipe, a socket) sees one write per frame, not two.
///
/// # Errors
///
/// `InvalidInput` when the payload exceeds [`MAX_FRAME`]; otherwise
/// whatever the underlying writer reports.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds MAX_FRAME"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` signals clean end-of-stream (EOF exactly
/// at a frame boundary); EOF inside a frame is an `UnexpectedEof`
/// error.
///
/// # Errors
///
/// `InvalidData` on an oversized length prefix, `UnexpectedEof` on a
/// truncated frame, otherwise whatever the underlying reader reports.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                ))
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&[7u8; 1000][..]));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    /// Counts `write` calls and keeps what they wrote.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
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
    fn each_frame_is_one_write() {
        for payload in [&b"small"[..], &[b'x'; 3000][..]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, 1, "{} byte payload", payload.len());
            assert_eq!(read_frame(&mut w.bytes.as_slice()).unwrap().as_deref(), Some(payload));
        }
    }

    #[test]
    fn truncation_and_oversize_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        // Truncated payload.
        let mut r = &buf[..6];
        assert!(read_frame(&mut r).is_err());
        // Truncated header.
        let mut r = &buf[..2];
        assert!(read_frame(&mut r).is_err());
        // Oversized length prefix.
        let bad = (MAX_FRAME + 1).to_be_bytes();
        assert!(read_frame(&mut bad.as_slice()).is_err());
    }
}
