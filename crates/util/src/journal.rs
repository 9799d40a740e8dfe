//! Append-only, checksummed JSON-lines journal framing (the write-ahead
//! log substrate for durable controllers).
//!
//! A journal is a sequence of frames, one per line:
//!
//! ```text
//! {"seq":0,"crc":2768625435,"data":{...}}
//! {"seq":1,"crc":1234567890,"data":{...}}
//! ```
//!
//! * `seq` — a contiguous, zero-based sequence number; a gap or
//!   repetition means the file was tampered with or mis-assembled.
//! * `crc` — CRC-32 (IEEE) over the *compact* encoding of `data`. The
//!   payload is re-encoded on read, so any bit flip inside `data` that
//!   still parses is caught by the checksum, and one that breaks the
//!   JSON grammar is caught by the parser.
//! * `data` — an arbitrary [`Json`] payload supplied by the caller.
//!
//! Writes go through [`JournalWriter`], which flushes after every
//! append: a frame is either fully on its way to the sink or not written
//! at all from the writer's point of view. A crash can still tear the
//! final line (partial OS-level write); [`read_journal`] therefore
//! tolerates exactly one trailing invalid line — the torn tail is
//! dropped and reported via [`ReadOutcome::torn`] — while an invalid
//! line *before* the tail is a hard [`JournalError::Corrupt`] error.
//!
//! [`SharedBuf`] is an in-memory `Write` sink whose contents stay
//! readable through clones after the writer is gone, so tests and
//! crash-recovery sweeps can journal without touching the filesystem.

use std::io::Write;
use std::sync::Arc;

use crate::json::Json;
use crate::sync::Mutex;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
///
/// Bitwise implementation — journals are small and appends are rare
/// (one per controller decision), so no lookup table is warranted.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Errors raised while writing or reading a journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// The underlying sink failed (message of the `io::Error`).
    Io(String),
    /// A frame before the tail failed validation.
    Corrupt {
        /// Zero-based line number of the bad frame.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(msg) => write!(f, "journal I/O error: {msg}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// An append-only writer of checksummed journal frames.
pub struct JournalWriter {
    out: Box<dyn Write + Send>,
    next_seq: u64,
}

impl JournalWriter {
    /// A writer that starts at sequence number 0.
    pub fn new(out: Box<dyn Write + Send>) -> JournalWriter {
        JournalWriter { out, next_seq: 0 }
    }

    /// A writer resuming an existing journal at `next_seq` (the number
    /// of valid frames already in the sink).
    pub fn resuming(out: Box<dyn Write + Send>, next_seq: u64) -> JournalWriter {
        JournalWriter { out, next_seq }
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one frame and flushes the sink. Returns the frame's
    /// sequence number.
    pub fn append(&mut self, data: &Json) -> Result<u64, JournalError> {
        let body = data.to_string();
        let crc = crc32(body.as_bytes());
        let line = format!(
            "{{\"seq\":{},\"crc\":{crc},\"data\":{body}}}\n",
            self.next_seq
        );
        self.out
            .write_all(line.as_bytes())
            .map_err(|e| JournalError::Io(e.to_string()))?;
        self.out
            .flush()
            .map_err(|e| JournalError::Io(e.to_string()))?;
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(seq)
    }
}

impl std::fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalWriter")
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

/// What [`read_journal`] recovered from a journal's text.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadOutcome {
    /// The `data` payloads of every valid frame, in sequence order.
    pub records: Vec<Json>,
    /// Whether a torn (partially written) final line was dropped.
    pub torn: bool,
}

/// Validates one frame line; returns its payload.
fn check_frame(line: &str, expected_seq: u64) -> Result<Json, String> {
    let frame = Json::parse(line).map_err(|e| format!("unparseable frame: {e}"))?;
    let seq = frame
        .get("seq")
        .and_then(Json::as_f64)
        .ok_or("frame has no numeric `seq`")?;
    if seq != expected_seq as f64 {
        return Err(format!(
            "sequence gap: expected {expected_seq}, found {seq}"
        ));
    }
    let crc = frame
        .get("crc")
        .and_then(Json::as_f64)
        .ok_or("frame has no numeric `crc`")?;
    let data = frame.get("data").ok_or("frame has no `data`")?;
    let actual = crc32(data.to_string().as_bytes());
    if crc != actual as f64 {
        return Err(format!(
            "checksum mismatch: stored {crc}, computed {actual}"
        ));
    }
    Ok(data.clone())
}

/// Reads back a journal written by [`JournalWriter`].
///
/// Frames are validated in order (parse, contiguous `seq`, checksum). An
/// invalid *final* line is treated as a torn tail and dropped; an
/// invalid line anywhere else is a [`JournalError::Corrupt`] error.
pub fn read_journal(text: &str) -> Result<ReadOutcome, JournalError> {
    let mut lines: Vec<&str> = text.split('\n').collect();
    while lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    let mut records = Vec::with_capacity(lines.len());
    let last = lines.len().saturating_sub(1);
    for (i, line) in lines.iter().enumerate() {
        match check_frame(line, records.len() as u64) {
            Ok(data) => records.push(data),
            Err(_) if i == last => {
                return Ok(ReadOutcome {
                    records,
                    torn: true,
                });
            }
            Err(reason) => return Err(JournalError::Corrupt { line: i, reason }),
        }
    }
    Ok(ReadOutcome {
        records,
        torn: false,
    })
}

/// A clonable in-memory byte sink.
///
/// Every clone shares the same buffer, so the contents written through a
/// `Box<dyn Write>` handed to a [`JournalWriter`] remain readable from a
/// retained clone — the crash-recovery analogue of a file surviving the
/// process that wrote it.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty shared buffer.
    pub fn new() -> SharedBuf {
        SharedBuf::default()
    }

    /// A copy of the bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().clone()
    }

    /// The bytes written so far, as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock()).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str("test".into())),
            ("i".into(), Json::Num(i as f64)),
        ])
    }

    fn write_n(n: u64) -> (SharedBuf, Vec<Json>) {
        let buf = SharedBuf::new();
        let mut w = JournalWriter::new(Box::new(buf.clone()));
        let mut recs = Vec::new();
        for i in 0..n {
            assert_eq!(w.append(&rec(i)).unwrap(), i);
            recs.push(rec(i));
        }
        (buf, recs)
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_preserves_records() {
        let (buf, recs) = write_n(5);
        let out = read_journal(&buf.text()).unwrap();
        assert!(!out.torn);
        assert_eq!(out.records, recs);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let (buf, recs) = write_n(3);
        let mut text = buf.text();
        // Simulate a crash mid-write of a 4th frame.
        text.push_str("{\"seq\":3,\"crc\":1,\"da");
        let out = read_journal(&text).unwrap();
        assert!(out.torn);
        assert_eq!(out.records, recs);
        // Also torn: a complete-looking final line with a bad checksum.
        let mut text2 = buf.text();
        text2.push_str("{\"seq\":3,\"crc\":1,\"data\":{}}\n");
        let out2 = read_journal(&text2).unwrap();
        assert!(out2.torn);
        assert_eq!(out2.records.len(), 3);
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let (buf, _) = write_n(4);
        let text = buf.text();
        let mut lines: Vec<&str> = text.lines().collect();
        let bad = lines[1].replace("\"i\":1", "\"i\":7");
        lines[1] = &bad;
        let corrupted = lines.join("\n");
        let err = read_journal(&corrupted).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn sequence_gaps_are_detected() {
        let (buf, _) = write_n(3);
        let text = buf.text();
        // Drop the middle line: seq 0 then seq 2.
        let lines: Vec<&str> = text.lines().collect();
        let gapped = format!("{}\n{}\n", lines[0], lines[2]);
        // The gap lands on the final line, so it reads as a torn tail...
        let out = read_journal(&gapped).unwrap();
        assert!(out.torn);
        assert_eq!(out.records.len(), 1);
        // ...but a gap before the tail is corruption.
        let gapped2 = format!("{}\n{}\n{}\n", lines[0], lines[2], lines[1]);
        assert!(matches!(
            read_journal(&gapped2),
            Err(JournalError::Corrupt { line: 1, .. })
        ));
    }

    #[test]
    fn empty_journal_reads_empty() {
        let out = read_journal("").unwrap();
        assert!(out.records.is_empty() && !out.torn);
    }

    #[test]
    fn resuming_writer_continues_sequence() {
        let (buf, _) = write_n(2);
        let mut w = JournalWriter::resuming(Box::new(buf.clone()), 2);
        w.append(&rec(2)).unwrap();
        let out = read_journal(&buf.text()).unwrap();
        assert_eq!(out.records.len(), 3);
        assert!(!out.torn);
    }
}
