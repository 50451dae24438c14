//! Line framing shared by every wire endpoint in the workspace.
//!
//! The protocol is newline-delimited UTF-8 (lossy on decode), optionally
//! CR-terminated, with a hard per-line byte cap so a client streaming an
//! endless line (or trickling bytes with no newline) costs bounded
//! memory. Before this crate, `serve.rs`, `route.rs`, and `poe-router`'s
//! shard client each carried their own copy of this logic; they all sit
//! on these two types now:
//!
//! * [`LineBuffer`] — sans-I/O incremental splitter, used directly by
//!   the non-blocking epoll loop (bytes go in whenever the socket is
//!   readable, complete lines come out).
//! * [`LineReader`] — blocking adapter over any `Read`, used by the
//!   router's shard client and by test clients.
//!
//! [`send_line`] is the other half: one `write` syscall for payload plus
//! newline. A split write leaves the trailing byte queued behind Nagle
//! until the peer's delayed ACK, which turns a microsecond response into
//! a ~40 ms one — the fix that took router round trips from 88 ms to
//! ~85 µs stays centralized here.

use std::io::{self, Read, Write};

/// Outcome of one blocking bounded line read.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete line, newline (and any trailing CR) stripped.
    Line(String),
    /// The line exceeded the byte cap before its newline arrived.
    TooLong,
    /// The read timed out (`WouldBlock`/`TimedOut` from the transport).
    TimedOut,
    /// EOF or a hard transport error.
    Closed,
}

/// Sans-I/O incremental line splitter with a byte cap.
///
/// Feed raw bytes with [`push`](LineBuffer::push); take complete lines
/// with [`next_line`](LineBuffer::next_line). The cap applies to the
/// line payload (bytes before the newline): once buffered bytes exceed
/// it with no newline in sight, every subsequent call reports
/// [`LineOverflow`] and the connection should be refused.
#[derive(Debug)]
pub struct LineBuffer {
    buf: Vec<u8>,
    max: usize,
}

/// Marker error: the current line outgrew the configured cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineOverflow;

impl LineBuffer {
    /// A new buffer capping each line at `max` payload bytes.
    pub fn new(max: usize) -> Self {
        LineBuffer {
            buf: Vec::new(),
            max,
        }
    }

    /// Appends freshly-read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Buffered bytes not yet consumed as lines.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Extracts the next complete line, if one is buffered.
    ///
    /// `Ok(None)` means "need more bytes". The overflow check matches the
    /// historical server behavior exactly: a found line longer than the
    /// cap, or more than `max` buffered bytes with no newline, both trip
    /// [`LineOverflow`].
    pub fn next_line(&mut self) -> Result<Option<String>, LineOverflow> {
        if let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
            if i > self.max {
                return Err(LineOverflow);
            }
            let mut line: Vec<u8> = self.buf.drain(..=i).collect();
            line.pop(); // the newline
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
        }
        if self.buf.len() > self.max {
            return Err(LineOverflow);
        }
        Ok(None)
    }
}

/// A blocking request-line reader with a hard byte cap, generic over the
/// transport. Owns the inner reader so a pooled connection can keep its
/// buffered remainder across calls.
#[derive(Debug)]
pub struct LineReader<R> {
    inner: R,
    buf: LineBuffer,
}

impl<R: Read> LineReader<R> {
    /// A reader capping lines at `max` bytes.
    pub fn new(inner: R, max: usize) -> Self {
        LineReader {
            inner,
            buf: LineBuffer::new(max),
        }
    }

    /// Bytes already read from the transport but not yet consumed as
    /// lines. On a strictly request→response connection this is zero
    /// between exchanges; anything else means the peer sent an
    /// unsolicited line (pooled-connection staleness signal).
    pub fn pending(&self) -> usize {
        self.buf.pending()
    }

    /// The underlying transport (e.g. to set socket timeouts or write a
    /// response back over the same stream).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Mutable access to the underlying transport.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Reads the next line, blocking until a full line, EOF, the byte
    /// cap, or a transport timeout.
    pub fn read_line(&mut self) -> ReadOutcome {
        loop {
            match self.buf.next_line() {
                Ok(Some(line)) => return ReadOutcome::Line(line),
                Ok(None) => {}
                Err(LineOverflow) => return ReadOutcome::TooLong,
            }
            let mut chunk = [0u8; 1024];
            match self.inner.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Closed,
                Ok(n) => self.buf.push(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return ReadOutcome::TimedOut
                }
                Err(_) => return ReadOutcome::Closed,
            }
        }
    }
}

/// Writes one response line as a single `write` syscall (payload +
/// newline in one buffer). See the module docs for why splitting this
/// write costs ~40 ms behind Nagle + delayed ACK.
pub fn send_line<W: Write>(writer: &mut W, line: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    writer.write_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_lines_and_strips_cr() {
        let mut b = LineBuffer::new(64);
        b.push(b"hello\r\nwor");
        assert_eq!(b.next_line().unwrap().as_deref(), Some("hello"));
        assert_eq!(b.next_line().unwrap(), None);
        b.push(b"ld\n");
        assert_eq!(b.next_line().unwrap().as_deref(), Some("world"));
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn caps_oversized_lines_with_and_without_newline() {
        let mut b = LineBuffer::new(4);
        b.push(b"abcdefgh"); // no newline, over cap
        assert_eq!(b.next_line(), Err(LineOverflow));
        let mut b = LineBuffer::new(4);
        b.push(b"abcdefgh\n"); // newline present but line over cap
        assert_eq!(b.next_line(), Err(LineOverflow));
        let mut b = LineBuffer::new(4);
        b.push(b"abcd\n"); // exactly at cap is fine
        assert_eq!(b.next_line().unwrap().as_deref(), Some("abcd"));
    }

    #[test]
    fn reader_reads_pipelined_lines_from_any_transport() {
        let data: &[u8] = b"first\nsecond\r\n";
        let mut r = LineReader::new(data, 32);
        assert!(matches!(r.read_line(), ReadOutcome::Line(l) if l == "first"));
        assert!(matches!(r.read_line(), ReadOutcome::Line(l) if l == "second"));
        assert!(matches!(r.read_line(), ReadOutcome::Closed));
    }

    #[test]
    fn reader_reports_too_long() {
        let data: &[u8] = b"this line is much too long\n";
        let mut r = LineReader::new(data, 8);
        assert!(matches!(r.read_line(), ReadOutcome::TooLong));
    }

    struct WouldBlockAfter<'a>(&'a [u8]);
    impl Read for WouldBlockAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "would block"));
            }
            let n = self.0.len().min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn reader_surfaces_timeouts() {
        let mut r = LineReader::new(WouldBlockAfter(b"partial"), 32);
        assert!(matches!(r.read_line(), ReadOutcome::TimedOut));
    }

    #[test]
    fn send_line_is_one_write() {
        struct CountWrites(Vec<Vec<u8>>);
        impl Write for CountWrites {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountWrites(Vec::new());
        send_line(&mut w, "OK done").unwrap();
        assert_eq!(w.0.len(), 1, "payload and newline must share one write");
        assert_eq!(w.0[0], b"OK done\n");
    }
}
