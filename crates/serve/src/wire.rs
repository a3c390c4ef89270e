//! NDJSON frame transport shared by every wire consumer: the serving
//! and fleet protocols, on both ends.
//!
//! A *frame* is one newline-terminated line. The reactor, the one
//! server, pushes bytes through the [`FrameBuffer`] decoder; no server
//! reads with [`read_frame`] any more. The blocking [`read_frame`] is
//! the [`Client`](crate::client::Client)'s reader. It enforces a byte
//! cap (a peer cannot balloon memory with an endless line) and is
//! generic over [`BufRead`], so property tests can drive it with
//! in-memory byte slices — including torn frames: EOF mid-payload
//! yields the partial line, whose JSON parse then fails *cleanly* at
//! the protocol layer instead of hanging or panicking here.
//!
//! An over-long line is rejected on both sides: the pull reader returns
//! [`Frame::TooLarge`] without reading the line whole (the client reports
//! a protocol error), and the push decoder reports it once, discards its
//! tail and resynchronizes at its newline.
//!
//! Sockets are expected to carry a read timeout; every blocking wakeup
//! (`WouldBlock`/`TimedOut`) is routed through a caller-supplied
//! [`WaitPolicy`] so the reader bounds its patience: the client spends
//! a finite [`RetryBudget`] and then surfaces a structured timeout
//! instead of blocking a thread forever. Tests substitute a policy of
//! their own.

use std::io::{self, BufRead, Write};
use std::time::Duration;

use reds_json::Json;

/// Outcome of reading one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (newline stripped). A trailing line without a
    /// final newline before EOF is also accepted — half-transmitted
    /// *content* is the protocol layer's problem, not the framing's.
    Line(Vec<u8>),
    /// Peer closed the connection before sending anything.
    Eof,
    /// The line exceeded the frame limit; the rest of it is unread.
    TooLarge,
    /// The [`WaitPolicy`] gave up before a full frame arrived.
    TimedOut,
}

/// What to do when the underlying read would block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Try the read again (the socket's read timeout paces the loop).
    Retry,
    /// Stop reading; [`read_frame`] returns [`Frame::TimedOut`].
    GiveUp,
}

/// Per-read patience of a frame consumer.
pub trait WaitPolicy {
    /// Called on every `WouldBlock`/`TimedOut` wakeup of the socket.
    fn on_block(&mut self) -> Wait;
}

/// A [`WaitPolicy`] that retries a bounded number of wakeups and then
/// gives up — with a socket read timeout of `t`, a budget of `n` bounds
/// the total wait for one frame by roughly `n × t`.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    remaining: u64,
}

impl RetryBudget {
    /// A budget of `n` wakeups.
    pub fn new(n: u64) -> Self {
        Self { remaining: n }
    }

    /// The budget that bounds `total` of waiting at a socket read
    /// timeout of `per_wait` (rounded up, minimum one wakeup).
    pub fn for_total(total: Duration, per_wait: Duration) -> Self {
        let per = per_wait.as_millis().max(1);
        Self::new((total.as_millis().div_ceil(per).max(1)) as u64)
    }
}

impl WaitPolicy for RetryBudget {
    fn on_block(&mut self) -> Wait {
        if self.remaining == 0 {
            Wait::GiveUp
        } else {
            self.remaining -= 1;
            Wait::Retry
        }
    }
}

/// Reads one newline-terminated frame with a size cap. Blocking
/// wakeups consult `wait`; genuine transport failures are returned as
/// errors. Torn input (EOF mid-payload) comes back as a `Line` whose
/// content the protocol layer will reject — never a panic or a hang.
pub fn read_frame<R: BufRead>(
    reader: &mut R,
    max_bytes: usize,
    wait: &mut impl WaitPolicy,
) -> io::Result<Frame> {
    let mut line = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                match wait.on_block() {
                    Wait::Retry => continue,
                    Wait::GiveUp => return Ok(Frame::TimedOut),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(if line.is_empty() {
                Frame::Eof
            } else {
                // Trailing frame without a final newline: accept it.
                Frame::Line(std::mem::take(&mut line))
            });
        }
        if let Some(at) = buf.iter().position(|&b| b == b'\n') {
            if line.len() + at > max_bytes {
                // Consume the over-long content but not its newline, so
                // a further read starts at the line's end, not inside
                // the next frame.
                reader.consume(at);
                return Ok(Frame::TooLarge);
            }
            line.extend_from_slice(&buf[..at]);
            reader.consume(at + 1);
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Frame::Line(line));
        }
        let chunk = buf.len();
        line.extend_from_slice(buf);
        reader.consume(chunk);
        if line.len() > max_bytes {
            return Ok(Frame::TooLarge);
        }
    }
}

/// One framing event produced by the push-based [`FrameBuffer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete line (newline stripped, trailing CR stripped).
    Frame(Vec<u8>),
    /// The accumulating line exceeded the frame limit. The buffer has
    /// switched to discard mode: subsequent bytes of the over-long
    /// line are counted but not stored, until its newline arrives.
    TooLarge,
    /// The newline terminating a previously rejected over-long line
    /// was consumed; normal framing resumes with the next byte.
    DrainEnd,
}

/// Incremental NDJSON framing for readiness-driven (non-blocking)
/// readers: bytes are *pushed* as they arrive instead of pulled from a
/// [`BufRead`].
///
/// This is the same framing policy as [`read_frame`] — one newline per
/// frame, CR stripped, a hard byte cap per line — expressed as a state
/// machine the epoll reactor can feed from arbitrary read chunks. The
/// cap semantics match the blocking reader exactly: a line of exactly
/// `max_bytes` is accepted, one byte more is rejected. The rejected
/// line's tail is then *discarded in place*, up to its newline, so an
/// already-queued error response can still reach the peer before the
/// connection closes.
#[derive(Debug)]
pub struct FrameBuffer {
    max_bytes: usize,
    line: Vec<u8>,
    discarding: bool,
    discarded: usize,
}

impl FrameBuffer {
    /// A fresh decoder with the given per-line byte cap.
    pub fn new(max_bytes: usize) -> Self {
        Self {
            max_bytes,
            line: Vec::new(),
            discarding: false,
            discarded: 0,
        }
    }

    /// `true` while the buffer is discarding the tail of a rejected
    /// over-long line (between [`FrameEvent::TooLarge`] and
    /// [`FrameEvent::DrainEnd`]).
    pub fn discarding(&self) -> bool {
        self.discarding
    }

    /// Bytes discarded so far from the current over-long line — the
    /// caller's drain budget (a peer writing an endless line must not
    /// pin the connection forever).
    pub fn discarded(&self) -> usize {
        self.discarded
    }

    /// Feeds `input`, stopping at the first complete event. Returns
    /// the number of bytes consumed and the event, if any; callers
    /// loop until the whole chunk is consumed:
    ///
    /// ```ignore
    /// let mut off = 0;
    /// while off < chunk.len() {
    ///     let (used, event) = fb.push(&chunk[off..]);
    ///     off += used;
    ///     if let Some(event) = event { /* … */ }
    /// }
    /// ```
    pub fn push(&mut self, input: &[u8]) -> (usize, Option<FrameEvent>) {
        if input.is_empty() {
            return (0, None);
        }
        if self.discarding {
            return match input.iter().position(|&b| b == b'\n') {
                Some(at) => {
                    self.discarded += at + 1;
                    self.discarding = false;
                    (at + 1, Some(FrameEvent::DrainEnd))
                }
                None => {
                    self.discarded += input.len();
                    (input.len(), None)
                }
            };
        }
        match input.iter().position(|&b| b == b'\n') {
            Some(at) => {
                // Same predicate as read_frame: content longer than the
                // cap is rejected even when its newline is in sight.
                if self.line.len() + at > self.max_bytes {
                    self.line.clear();
                    self.discarding = true;
                    self.discarded = at;
                    // The newline itself is left for the discard branch,
                    // which reports DrainEnd on the next push.
                    return (at, Some(FrameEvent::TooLarge));
                }
                let mut line = std::mem::take(&mut self.line);
                line.extend_from_slice(&input[..at]);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                (at + 1, Some(FrameEvent::Frame(line)))
            }
            None => {
                if self.line.len() + input.len() > self.max_bytes {
                    self.line.clear();
                    self.discarding = true;
                    self.discarded = input.len();
                    return (input.len(), Some(FrameEvent::TooLarge));
                }
                self.line.extend_from_slice(input);
                (input.len(), None)
            }
        }
    }

    /// The torn trailing line at EOF, if any — the push equivalent of
    /// [`read_frame`] accepting a final frame without its newline.
    pub fn take_trailing(&mut self) -> Option<Vec<u8>> {
        if self.discarding || self.line.is_empty() {
            None
        } else {
            let mut line = std::mem::take(&mut self.line);
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            Some(line)
        }
    }
}

/// Serializes `doc` as one frame (compact JSON + newline) and flushes.
pub fn write_frame<W: Write>(writer: &mut W, doc: &Json) -> io::Result<()> {
    let mut text = doc.to_string_compact();
    text.push('\n');
    writer.write_all(text.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// In-memory reads never block.
    struct NeverBlock;

    impl WaitPolicy for NeverBlock {
        fn on_block(&mut self) -> Wait {
            panic!("in-memory reads never block")
        }
    }

    fn never_block() -> NeverBlock {
        NeverBlock
    }

    #[test]
    fn frames_split_on_newlines_and_accept_trailing_tail() {
        let mut r = Cursor::new(b"{\"a\":1}\n{\"b\":2}\r\ntail".to_vec());
        assert_eq!(
            read_frame(&mut r, 1024, &mut never_block()).unwrap(),
            Frame::Line(b"{\"a\":1}".to_vec())
        );
        assert_eq!(
            read_frame(&mut r, 1024, &mut never_block()).unwrap(),
            Frame::Line(b"{\"b\":2}".to_vec()),
            "CR is stripped"
        );
        assert_eq!(
            read_frame(&mut r, 1024, &mut never_block()).unwrap(),
            Frame::Line(b"tail".to_vec()),
            "EOF mid-payload yields the torn prefix"
        );
        assert_eq!(
            read_frame(&mut r, 1024, &mut never_block()).unwrap(),
            Frame::Eof
        );
    }

    #[test]
    fn oversized_lines_are_rejected_without_reading_them_whole() {
        let mut r = Cursor::new(vec![b'x'; 1 << 20]);
        assert_eq!(
            read_frame(&mut r, 64, &mut never_block()).unwrap(),
            Frame::TooLarge
        );
    }

    #[test]
    fn retry_budget_gives_up_after_n_wakeups() {
        let mut budget = RetryBudget::new(3);
        assert_eq!(budget.on_block(), Wait::Retry);
        assert_eq!(budget.on_block(), Wait::Retry);
        assert_eq!(budget.on_block(), Wait::Retry);
        assert_eq!(budget.on_block(), Wait::GiveUp);
        let mut total =
            RetryBudget::for_total(Duration::from_millis(500), Duration::from_millis(200));
        assert_eq!(total.on_block(), Wait::Retry);
        assert_eq!(total.on_block(), Wait::Retry);
        assert_eq!(total.on_block(), Wait::Retry);
        assert_eq!(total.on_block(), Wait::GiveUp);
    }
}
