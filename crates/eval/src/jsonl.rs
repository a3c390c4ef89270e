//! The append-only JSONL log under the shard checkpoints
//! ([`crate::checkpoint`]) and the fleet's lease journal.
//!
//! A log file is one header line followed by one line per record, each
//! a compact JSON object. A [`Format`] names the header and record
//! codecs of one kind of log and the check a resumed header must pass;
//! this module owns the file:
//!
//! * **create** — [`Writer::create`] writes the header line.
//! * **append** — [`Writer::append`] writes one full line with a single
//!   `write_all`, then flushes, so a crash leaves at most one torn last
//!   line.
//! * **load** — [`load`] drops a torn last line (the file does not end
//!   in `\n` and the line does not decode) and flags it in
//!   [`Log::truncated`]; any other line that does not decode is
//!   [`LogError::Corrupt`].
//! * **open** — [`Writer::open`] with `resume` set reloads an existing
//!   log, lets the format check its header, writes the header and the
//!   valid lines, verbatim, to `<path>.tmp` and renames that over the
//!   file, so a torn tail can never run into the next append. Otherwise,
//!   or when the log holds no complete header line, it creates the
//!   parent directory and a fresh log.
//!
//! Lines are split on `\n` as bytes before any is decoded, so a crash
//! that tears a multi-byte character leaves a torn tail like any other.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead as _, BufReader, Write as _};
use std::marker::PhantomData;
use std::path::Path;

use reds_json::{from_str, Json};

/// The codecs and the resume check of one kind of log.
pub trait Format {
    /// What the first line holds.
    type Header;
    /// What every further line holds.
    type Record;
    /// The log's error: a [`LogError`] or a refused header.
    type Error: From<LogError>;
    /// JSON form of the header line.
    fn header_to_json(header: &Self::Header) -> Json;
    /// Inverse of [`Format::header_to_json`].
    fn header_from_json(doc: &Json) -> Result<Self::Header, String>;
    /// JSON form of one record line.
    fn record_to_json(record: &Self::Record) -> Json;
    /// Inverse of [`Format::record_to_json`].
    fn record_from_json(doc: &Json) -> Result<Self::Record, String>;
    /// Refuses to resume a log whose header, `found`, belongs to
    /// another run than `expected`.
    fn check(expected: &Self::Header, found: Self::Header) -> Result<(), Self::Error>;
}

/// Failure to read or write a log file.
#[derive(Debug)]
pub enum LogError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A line other than a torn last one does not decode.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::Corrupt { line, message } => write!(f, "corrupt at line {line}: {message}"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// A loaded log.
#[derive(Debug, Clone)]
pub struct Log<H, R> {
    /// The header line.
    pub header: H,
    /// Every fully-written record, in append order.
    pub records: Vec<R>,
    /// `true` when a torn last line (an interrupted final append) was
    /// dropped.
    pub truncated: bool,
}

/// The [`Log`] a [`Format`] loads.
type LogOf<F> = Log<<F as Format>::Header, <F as Format>::Record>;

/// Loads the log at `path`.
pub fn load<F: Format>(path: &Path) -> Result<LogOf<F>, F::Error> {
    Ok(read::<F>(path)?.0)
}

/// Decodes one line with `codec`.
fn decode<T>(line: &[u8], codec: fn(&Json) -> Result<T, String>) -> Result<T, String> {
    let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    codec(&from_str(text).map_err(|e| e.to_string())?)
}

/// Loads the log at `path`, and with it the file's valid prefix: the
/// header and every complete record, each line ending in `\n`.
fn read<F: Format>(path: &Path) -> Result<(LogOf<F>, Vec<u8>), LogError> {
    let corrupt = |line, message| LogError::Corrupt { line, message };
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Err(corrupt(1, "empty file".to_string()));
    }
    let complete = bytes.ends_with(b"\n");
    if !complete {
        bytes.push(b'\n');
    }
    let lines: Vec<&[u8]> = bytes[..bytes.len() - 1].split(|&b| b == b'\n').collect();
    let header = decode(lines[0], F::header_from_json).map_err(|m| corrupt(1, m))?;
    let mut records = Vec::with_capacity(lines.len() - 1);
    let mut valid = lines[0].len() + 1;
    let mut truncated = false;
    for (i, line) in lines.iter().enumerate().skip(1) {
        match decode(line, F::record_from_json) {
            Ok(record) => {
                records.push(record);
                valid += line.len() + 1;
            }
            // The torn last line of an interrupted append.
            Err(_) if i + 1 == lines.len() && !complete => truncated = true,
            Err(message) => return Err(corrupt(i + 1, message)),
        }
    }
    bytes.truncate(valid);
    let log = Log {
        header,
        records,
        truncated,
    };
    Ok((log, bytes))
}

/// Appends records to a log, one line each.
#[derive(Debug)]
pub struct Writer<F> {
    file: File,
    format: PhantomData<F>,
}

impl<F: Format> Writer<F> {
    /// Creates (or truncates) the log at `path` and writes the header
    /// line.
    pub fn create(path: &Path, header: &F::Header) -> Result<Self, F::Error> {
        let mut writer = Self {
            file: File::create(path).map_err(LogError::Io)?,
            format: PhantomData,
        };
        writer.write_line(&F::header_to_json(header))?;
        Ok(writer)
    }

    /// With `resume` and a log at `path` that holds a complete header
    /// line, [`Writer::resume`]; otherwise creates `path`'s directory and
    /// a fresh log, with no records. A log with no complete header line
    /// (a crash inside [`Writer::create`] before its one write landed)
    /// holds no record, so it too starts afresh.
    pub fn open(
        path: &Path,
        header: &F::Header,
        resume: bool,
    ) -> Result<(Self, Vec<F::Record>), F::Error> {
        if resume && holds_a_line(path)? {
            return Self::resume(path, header);
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(LogError::Io)?;
        }
        Ok((Self::create(path, header)?, Vec::new()))
    }

    /// Reopens the log at `path`: checks its header against `header`,
    /// rewrites its valid prefix (dropping a torn last line) through
    /// `<path>.tmp` and a rename, and returns the writer, positioned to
    /// append, with the records already logged.
    pub fn resume(path: &Path, header: &F::Header) -> Result<(Self, Vec<F::Record>), F::Error> {
        let (log, valid) = read::<F>(path)?;
        F::check(header, log.header)?;
        let writer = Self {
            file: rewrite(path, &valid)?,
            format: PhantomData,
        };
        Ok((writer, log.records))
    }

    /// Appends one record as a single line write.
    pub fn append(&mut self, record: &F::Record) -> Result<(), F::Error> {
        Ok(self.write_line(&F::record_to_json(record))?)
    }

    fn write_line(&mut self, doc: &Json) -> Result<(), LogError> {
        let mut line = doc.to_string_compact();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        Ok(())
    }
}

/// `true` when the file at `path` holds a complete line: one that ends
/// in `\n`. A missing file holds none.
fn holds_a_line(path: &Path) -> Result<bool, LogError> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e.into()),
    };
    let mut line = Vec::new();
    BufReader::new(file).read_until(b'\n', &mut line)?;
    Ok(line.ends_with(b"\n"))
}

/// Replaces the file at `path` by `valid` (the rename is atomic) and
/// opens it for appending.
fn rewrite(path: &Path, valid: &[u8]) -> Result<File, LogError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, valid)?;
    std::fs::rename(&tmp, path)?;
    Ok(OpenOptions::new().append(true).open(path)?)
}
