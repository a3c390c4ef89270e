//! Property-based tests of the NDJSON frame codec both the serving
//! layer and the fleet protocol ride on: arbitrary frames survive
//! write → chunked/torn read byte-for-byte, the push decoder rejects
//! oversized lines and drains them without desynchronising the
//! stream, and a reply scanner (the coordinator's stale-frame skip)
//! finds its reply under duplicated ids and out-of-order delivery.

use std::io::{BufRead, Cursor, Read};

use proptest::prelude::*;
use reds_json::Json;
use reds_serve::wire::{read_frame, write_frame, Frame, FrameBuffer, FrameEvent, Wait, WaitPolicy};

const MAX: usize = 1 << 16;

/// In-memory reads never block.
struct NeverBlock;

impl WaitPolicy for NeverBlock {
    fn on_block(&mut self) -> Wait {
        panic!("in-memory reads never block")
    }
}

fn never_block() -> impl WaitPolicy {
    NeverBlock
}

/// A reader that serves its bytes in a fixed schedule of chunk sizes,
/// so `fill_buf` boundaries land at arbitrary points inside frames —
/// the user-space analogue of TCP segmentation.
struct Chopped {
    data: Vec<u8>,
    at: usize,
    chunks: Vec<usize>,
    chunk_i: usize,
}

impl Read for Chopped {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.at >= self.data.len() {
            return Ok(0);
        }
        let want = self
            .chunks
            .get(self.chunk_i)
            .copied()
            .unwrap_or(usize::MAX)
            .clamp(1, out.len())
            .min(self.data.len() - self.at);
        self.chunk_i += 1;
        out[..want].copy_from_slice(&self.data[self.at..self.at + want]);
        self.at += want;
        Ok(want)
    }
}

impl BufRead for Chopped {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.at >= self.data.len() {
            return Ok(&[]);
        }
        let want = self
            .chunks
            .get(self.chunk_i)
            .copied()
            .unwrap_or(usize::MAX)
            .clamp(1, self.data.len() - self.at);
        Ok(&self.data[self.at..self.at + want])
    }

    fn consume(&mut self, n: usize) {
        self.at += n;
        if n > 0 {
            self.chunk_i += 1;
        }
    }
}

fn arb_doc() -> impl Strategy<Value = Json> {
    (
        0u64..1_000_000,
        prop::collection::vec(0u32..26, 0..24).prop_map(|cs| {
            cs.into_iter()
                .map(|c| (b'a' + c as u8) as char)
                .collect::<String>()
        }),
        prop::collection::vec(-1e6f64..1e6, 0..6),
    )
        .prop_map(|(id, s, xs)| {
            Json::obj([
                ("id", Json::num(id as f64)),
                ("payload", Json::str(s)),
                ("xs", Json::arr(xs.into_iter().map(Json::num))),
            ])
        })
}

proptest! {
    /// write_frame → read_frame is the identity on frame sequences, no
    /// matter how the bytes are chunked on the way back in.
    #[test]
    fn frames_round_trip_under_arbitrary_chunking(
        docs in prop::collection::vec(arb_doc(), 1..8),
        chunks in prop::collection::vec(1usize..40, 0..64),
    ) {
        let mut bytes = Vec::new();
        for doc in &docs {
            write_frame(&mut bytes, doc).expect("write");
        }
        let mut reader = Chopped { data: bytes, at: 0, chunks, chunk_i: 0 };
        for doc in &docs {
            match read_frame(&mut reader, MAX, &mut never_block()).expect("read") {
                Frame::Line(line) => {
                    let text = String::from_utf8(line).expect("utf8");
                    let back = reds_json::from_str(&text).expect("parse");
                    prop_assert_eq!(back.to_string_compact(), doc.to_string_compact());
                }
                other => prop_assert!(false, "expected a line, got {:?}", other),
            }
        }
        prop_assert!(matches!(
            read_frame(&mut reader, MAX, &mut never_block()).expect("eof"),
            Frame::Eof
        ));
    }

    /// A stream cut mid-frame (torn write) yields the partial bytes as
    /// a Line — the protocol layer rejects it as malformed JSON — and
    /// never hangs, panics, or invents trailing frames.
    #[test]
    fn torn_final_frames_surface_as_rejectable_lines(
        doc in arb_doc(),
        cut in 1usize..200,
        chunks in prop::collection::vec(1usize..16, 0..32),
    ) {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &doc).expect("write");
        // Always lose at least the closing brace and the newline, so
        // the remaining prefix can never be a complete document.
        let cut = cut.min(bytes.len() - 2).max(1);
        bytes.truncate(cut);
        let mut reader = Chopped { data: bytes.clone(), at: 0, chunks, chunk_i: 0 };
        match read_frame(&mut reader, MAX, &mut never_block()).expect("read") {
            Frame::Line(line) => {
                prop_assert_eq!(&line[..], &bytes[..]);
                // A torn JSON document must not parse as a complete one
                // unless the cut happened to keep it whole — it cannot,
                // because the full serialization is strictly longer.
                prop_assert!(reds_json::from_str(&String::from_utf8_lossy(&line)).is_err());
            }
            Frame::Eof => prop_assert_eq!(cut, 0),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// The reply-matching loop the fleet coordinator uses — skip frames
    /// whose id differs — finds the wanted reply under duplicated ids
    /// and out-of-order delivery, exactly once.
    #[test]
    fn reply_scan_survives_duplicates_and_reordering(
        mut ids in prop::collection::vec(0u64..6, 1..12),
        dup_at in 0usize..12,
        swap in (0usize..12, 0usize..12),
        want in 0u64..6,
    ) {
        // Ensure the wanted reply exists, then duplicate and reorder.
        ids.push(want);
        let dup = ids[dup_at % ids.len()];
        ids.push(dup);
        let (a, b) = swap;
        let (a, b) = (a % ids.len(), b % ids.len());
        ids.swap(a, b);

        let mut bytes = Vec::new();
        for (pos, id) in ids.iter().enumerate() {
            let doc = Json::obj([
                ("id", Json::num(*id as f64)),
                ("pos", Json::num(pos as f64)),
            ]);
            write_frame(&mut bytes, &doc).expect("write");
        }
        let mut reader = Cursor::new(bytes);
        let first_pos = ids.iter().position(|&i| i == want).expect("present");
        loop {
            match read_frame(&mut reader, MAX, &mut never_block()).expect("read") {
                Frame::Line(line) => {
                    let doc = reds_json::from_str(&String::from_utf8_lossy(&line)).expect("parse");
                    let id = doc.get("id").and_then(Json::as_f64).expect("id") as u64;
                    if id != want {
                        continue; // the stale-frame skip under test
                    }
                    let pos = doc.get("pos").and_then(Json::as_f64).expect("pos") as usize;
                    prop_assert_eq!(pos, first_pos, "must take the earliest matching reply");
                    break;
                }
                other => {
                    prop_assert!(false, "reply never found: {:?}", other);
                }
            }
        }
    }

    /// The reactor's push decoder and the blocking pull decoder are
    /// the same codec: fed identical bytes under arbitrary chunking
    /// (TCP segmentation), they emit identical frame sequences —
    /// including a torn trailing line at EOF.
    #[test]
    fn push_decoder_matches_pull_decoder_under_any_chunking(
        docs in prop::collection::vec(arb_doc(), 1..8),
        tail in prop::collection::vec(0u32..26, 0..12),
        chunks in prop::collection::vec(1usize..40, 0..64),
    ) {
        let mut bytes = Vec::new();
        for doc in &docs {
            write_frame(&mut bytes, doc).expect("write");
        }
        // A torn trailing line (no newline before EOF).
        bytes.extend(tail.iter().map(|c| b'a' + *c as u8));

        // Pull side: the blocking reader the client uses.
        let mut pull_lines = Vec::new();
        let mut reader = Cursor::new(bytes.clone());
        loop {
            match read_frame(&mut reader, MAX, &mut never_block()).expect("read") {
                Frame::Line(line) => pull_lines.push(line),
                Frame::Eof => break,
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }

        // Push side: the reactor's incremental decoder, fed the same
        // bytes in arbitrary chunks.
        let mut fb = FrameBuffer::new(MAX);
        let mut push_lines = Vec::new();
        let (mut at, mut chunk_i) = (0usize, 0usize);
        while at < bytes.len() {
            let take = chunks
                .get(chunk_i)
                .copied()
                .unwrap_or(usize::MAX)
                .clamp(1, bytes.len() - at);
            chunk_i += 1;
            let mut chunk = &bytes[at..at + take];
            at += take;
            while !chunk.is_empty() {
                let (used, event) = fb.push(chunk);
                prop_assert!(used > 0, "push must always make progress");
                chunk = &chunk[used..];
                match event {
                    Some(FrameEvent::Frame(line)) => push_lines.push(line),
                    Some(other) => prop_assert!(false, "unexpected event {:?}", other),
                    None => {}
                }
            }
        }
        if let Some(torn) = fb.take_trailing() {
            push_lines.push(torn);
        }
        prop_assert_eq!(push_lines, pull_lines);
    }

    /// The push decoder rejects an oversized line exactly once, drains
    /// it, and decodes the next frame intact, under any chunking: one
    /// bad peer message cannot desynchronise the stream.
    #[test]
    fn push_decoder_rejects_and_resyncs_like_the_pull_decoder(
        filler in 1usize..2048,
        doc in arb_doc(),
        chunks in prop::collection::vec(1usize..32, 0..48),
    ) {
        let cap = 256usize;
        let mut bytes = vec![b'x'; cap + filler];
        bytes.push(b'\n');
        write_frame(&mut bytes, &doc).expect("write");

        let mut fb = FrameBuffer::new(cap);
        let mut events: Vec<&str> = Vec::new();
        let mut lines = Vec::new();
        let (mut at, mut chunk_i) = (0usize, 0usize);
        while at < bytes.len() {
            let take = chunks
                .get(chunk_i)
                .copied()
                .unwrap_or(usize::MAX)
                .clamp(1, bytes.len() - at);
            chunk_i += 1;
            let mut chunk = &bytes[at..at + take];
            at += take;
            while !chunk.is_empty() {
                let (used, event) = fb.push(chunk);
                chunk = &chunk[used..];
                match event {
                    Some(FrameEvent::Frame(line)) => {
                        events.push("frame");
                        lines.push(line);
                    }
                    Some(FrameEvent::TooLarge) => events.push("too_large"),
                    Some(FrameEvent::DrainEnd) => events.push("drain_end"),
                    None => prop_assert!(used > 0, "push must always make progress"),
                }
            }
        }
        prop_assert_eq!(events, vec!["too_large", "drain_end", "frame"]);
        prop_assert!(!fb.discarding(), "decoder must resync after the bad line");
        prop_assert!(fb.take_trailing().is_none());
        let back = reds_json::from_str(&String::from_utf8_lossy(&lines[0])).expect("parse");
        prop_assert_eq!(back.to_string_compact(), doc.to_string_compact());
    }
}
