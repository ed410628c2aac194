//! Out-of-core segment storage: bounded, crash-safe spill of request
//! streams to disk.
//!
//! The in-memory pipeline holds every retained record as a 40-byte
//! [`RequestRecord`] until the driver's sort phase — O(records) peak
//! memory, which caps the simulable population. This module removes that
//! floor: a shard's sink can stream each dataset family into a
//! [`SegmentWriter`] that stages at most `segment_rows` records, stable-
//! sorts each full segment by timestamp, and appends it to a per-family
//! spill file as one **sorted run**. After the sim phase, the driver
//! rebuilds the exact in-memory byte order with a k-way merge over all
//! runs ([`merge_manifests`]) — no record is ever re-buffered wholesale.
//!
//! # Determinism (merge-by-concatenation)
//!
//! The in-memory pipeline's final order is a *stable* sort by timestamp
//! of the shard outputs concatenated in plan order; ties resolve by
//! emission order. Spill reproduces it exactly:
//!
//! 1. within a run, the staging buffer is stable-sorted, so equal
//!    timestamps keep emission order;
//! 2. runs partition a shard's emission stream contiguously, and
//!    manifests are merged in plan order, so a global run index is
//!    order-isomorphic to "position in the concatenated stream";
//! 3. the k-way merge pops by `(timestamp, run index)`, which is exactly
//!    the stable sort's tie-break.
//!
//! The merge phase itself moves no records between files — shard
//! manifests simply concatenate in plan order ("merge-by-concatenation");
//! all inter-run ordering is deferred to the single streaming pass that
//! encodes rows into the columnar stores.
//!
//! # Fault safety
//!
//! Nothing on the I/O path panics. Every fallible operation returns a
//! typed [`SpillError`]:
//!
//! * [`SpillError::Io`] — an operating-system error (create/write/flush/
//!   open/seek/read), with the path and operation that failed. Run writes
//!   are all-or-nothing: a failed frame write truncates the file back to
//!   the pre-run length and is retried up to
//!   [`SpillPolicy::max_io_retries`] times before surfacing, so a
//!   transient error never leaves a torn run behind.
//! * [`SpillError::Corrupt`] — on-disk data failed verification at read
//!   time: a bad run header, a truncated (torn) run, an unknown row tag,
//!   or a checksum mismatch. Reported with path, run index and byte
//!   offset.
//! * [`SpillError::Budget`] — admitting the next run would exceed the
//!   session's [`SpillPolicy::disk_budget_bytes`]. The driver maps this
//!   to a policy-governed degradation instead of filling the disk.
//!
//! Each run is written as a self-describing frame — a
//! [`RUN_HEADER_BYTES`]-byte header (magic, row count, xxHash64 chain
//! checksum) followed by the 35-byte rows — and the k-way merge's
//! verification pass re-derives the checksum and length of every run
//! before decoding a row, so torn writes and flipped bytes are
//! *detected*, never decoded into figures. (The intern keys never come
//! from disk: the shard sinks collect them as rows are routed.) A failed attempt's partial files are deleted by
//! [`SpillSession::remove_attempt`]; the whole session directory is
//! removed when the [`SpillSession`] drops — on success and on failure
//! paths alike.
//!
//! Deterministic I/O fault injection for chaos tests rides on
//! [`SpillFaultPlan`]: every decision is a pure function of (seed, stream
//! id, op index, io attempt), where the stream id hashes the file name —
//! which encodes shard, attempt and family — so injected faults are
//! byte-reproducible at any thread count.

use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::net::IpAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ipv6_study_stats::dist::uniform01;
use ipv6_study_stats::hash::{stable_hash64, StableHasher};

use crate::columns::ColumnStore;
use crate::ids::{Asn, Country, UserId};
use crate::intern::EntityTables;
use crate::record::RequestRecord;
use crate::store::FrozenStore;
use crate::time::Timestamp;

/// Default rows staged per spill segment. Chosen so a shard's staging
/// buffers stay a few megabytes across all dataset families while keeping
/// the per-family run count (one merge cursor each) well under typical
/// file-descriptor limits.
pub const DEFAULT_SEGMENT_ROWS: usize = 4096;

/// Bytes of one encoded spill row: timestamp (4) + user (8) + family tag
/// (1) + address (16, IPv4 in the first four bytes) + ASN (4) +
/// country (2).
pub const SPILL_ROW_BYTES: usize = 35;

/// Bytes of the per-run frame header: magic (4) + row count (8) +
/// checksum (8).
pub const RUN_HEADER_BYTES: usize = 20;

/// Default op-level retry budget for a failed spill read or write.
pub const DEFAULT_IO_RETRIES: u32 = 2;

/// Frame magic marking the start of every sorted run on disk.
const RUN_MAGIC: u32 = u32::from_le_bytes(*b"SPR1");

/// Seed of the per-run xxHash64 chain checksum
/// (`acc' = xxh64(acc, row_bytes)`).
const CHECKSUM_SEED: u64 = 0x5350_4C43; // "SPLC"

/// Where a study keeps its full-fidelity and sampled streams during the
/// sim phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum StorageMode {
    /// Every retained record stays in memory until the sort phase — the
    /// original pipeline. Peak memory is O(retained records).
    #[default]
    InMemory,
    /// Shards stream every dataset family into bounded sorted segments on
    /// disk; peak memory is O(`segment_rows` × families × worker threads),
    /// independent of the population.
    Spill {
        /// Parent directory for the per-run spill session directory;
        /// `None` uses [`std::env::temp_dir`]. The session directory is
        /// removed when the run completes (or fails).
        dir: Option<PathBuf>,
        /// Rows staged in memory per family before a segment is sorted
        /// and appended to disk as one run. Must be non-zero.
        segment_rows: usize,
    },
}

impl StorageMode {
    /// The spill mode with default parameters (temp dir,
    /// [`DEFAULT_SEGMENT_ROWS`]).
    pub fn spill() -> Self {
        StorageMode::Spill {
            dir: None,
            segment_rows: DEFAULT_SEGMENT_ROWS,
        }
    }

    /// Whether this mode spills to disk.
    pub fn is_spill(&self) -> bool {
        matches!(self, StorageMode::Spill { .. })
    }

    /// Short machine-readable label (`"memory"` / `"spill"`), echoed into
    /// run reports.
    pub fn label(&self) -> &'static str {
        match self {
            StorageMode::InMemory => "memory",
            StorageMode::Spill { .. } => "spill",
        }
    }
}

/// The I/O operation a [`SpillError::Io`] failed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum IoOp {
    /// Creating a segment file or the session directory.
    Create,
    /// Appending a run frame.
    Write,
    /// Flushing buffered bytes to the OS.
    Flush,
    /// Opening a segment file for reading.
    Open,
    /// Seeking to a run or rolling a torn frame back.
    Seek,
    /// Reading a header or row.
    Read,
}

impl IoOp {
    /// Lower-case operation name for messages.
    pub fn as_str(self) -> &'static str {
        match self {
            IoOp::Create => "create",
            IoOp::Write => "write",
            IoOp::Flush => "flush",
            IoOp::Open => "open",
            IoOp::Seek => "seek",
            IoOp::Read => "read",
        }
    }
}

/// A typed storage-layer failure. Cheap to clone and comparable, so it
/// can ride inside higher-level error enums and test assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpillError {
    /// The operating system refused an I/O operation (after the op-level
    /// retry budget was spent).
    Io {
        /// Segment file (or directory) the operation targeted.
        path: PathBuf,
        /// Which operation failed.
        op: IoOp,
        /// The OS error class.
        kind: std::io::ErrorKind,
        /// Human-readable detail from the underlying error.
        detail: String,
    },
    /// On-disk data failed verification: bad header, torn (truncated)
    /// run, unknown row tag, or checksum mismatch.
    Corrupt {
        /// Segment file holding the bad bytes.
        path: PathBuf,
        /// Zero-based run index within the file.
        run: usize,
        /// Absolute byte offset of the bad data within the file.
        offset: u64,
        /// What failed to verify.
        reason: String,
    },
    /// Admitting the next run frame would exceed the session's disk
    /// budget.
    Budget {
        /// The configured [`SpillPolicy::disk_budget_bytes`].
        budget_bytes: u64,
        /// The on-disk total the write would have reached.
        attempted_bytes: u64,
    },
}

impl SpillError {
    fn io(path: &Path, op: IoOp, e: &std::io::Error) -> Self {
        SpillError::Io {
            path: path.to_path_buf(),
            op,
            kind: e.kind(),
            detail: e.to_string(),
        }
    }

    /// Whether a shard-level retry could plausibly clear this error.
    /// Io errors are transient-capable; corruption and budget overruns
    /// are not fixed by re-running the same work.
    pub fn is_retryable(&self) -> bool {
        matches!(self, SpillError::Io { .. })
    }
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io {
                path,
                op,
                kind,
                detail,
            } => write!(
                f,
                "spill {} {} failed ({kind:?}): {detail}",
                op.as_str(),
                path.display()
            ),
            SpillError::Corrupt {
                path,
                run,
                offset,
                reason,
            } => write!(
                f,
                "corrupt spill data in {} (run {run}, byte offset {offset}): {reason}",
                path.display()
            ),
            SpillError::Budget {
                budget_bytes,
                attempted_bytes,
            } => write!(
                f,
                "spill disk budget exceeded: write would reach {attempted_bytes} bytes \
                 (budget {budget_bytes})"
            ),
        }
    }
}

impl std::error::Error for SpillError {}

/// Deterministic I/O fault script for chaos tests. Every decision is a
/// pure function of `(seed, stream id, op index, io attempt)` — the
/// stream id hashes the segment file name, which encodes shard, attempt
/// and family — so the same faults fire at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillFaultPlan {
    /// Study seed mixed into every roll.
    pub seed: u64,
    /// Probability that a run-frame write op is faulted.
    pub write_fail_rate: f64,
    /// Probability that a header/row read op is faulted.
    pub read_fail_rate: f64,
    /// Of faulted writes, the fraction that tear a short prefix of the
    /// frame onto disk before failing (exercising the rollback path).
    pub short_write_rate: f64,
    /// Probability that a successfully written run gets one byte flipped
    /// afterwards (detected later by the checksum, never repaired).
    pub corrupt_rate: f64,
    /// How many consecutive io attempts a faulted op fails before
    /// succeeding; values above the retry budget make the op error out.
    pub fail_attempts: u32,
}

impl Default for SpillFaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            write_fail_rate: 0.0,
            read_fail_rate: 0.0,
            short_write_rate: 0.0,
            corrupt_rate: 0.0,
            fail_attempts: 1,
        }
    }
}

impl SpillFaultPlan {
    /// Uniform roll in [0,1) for one (domain, stream, op) triple.
    fn roll(&self, domain: u64, stream: u64, op: u64) -> f64 {
        let mut h = StableHasher::new(domain);
        h.write_u64(self.seed).write_u64(stream).write_u64(op);
        uniform01(h.finish())
    }

    /// The injected failure for write op `op` on `stream` at `io_attempt`,
    /// if any: `Some(short_bytes)` tears that many frame bytes onto disk
    /// first; `Some(0)` fails cleanly.
    fn write_failure(
        &self,
        stream: u64,
        op: u64,
        io_attempt: u32,
        frame_len: usize,
    ) -> Option<usize> {
        if io_attempt >= self.fail_attempts
            || self.roll(0x5346_5057, stream, op) >= self.write_fail_rate
        {
            return None;
        }
        if self.roll(0x5346_5053, stream, op) < self.short_write_rate {
            let mut h = StableHasher::new(0x5346_504C);
            h.write_u64(self.seed).write_u64(stream).write_u64(op);
            Some((h.finish() % frame_len.max(1) as u64) as usize)
        } else {
            Some(0)
        }
    }

    /// Whether read op `op` on `stream` is faulted at `io_attempt`.
    fn read_failure(&self, stream: u64, op: u64, io_attempt: u32) -> bool {
        io_attempt < self.fail_attempts && self.roll(0x5346_5052, stream, op) < self.read_fail_rate
    }

    /// The payload byte to flip after write op `op`, if this run is
    /// selected for corruption.
    fn corrupt_offset(&self, stream: u64, op: u64, payload_len: u64) -> Option<u64> {
        if payload_len == 0 || self.roll(0x5346_5043, stream, op) >= self.corrupt_rate {
            return None;
        }
        let mut h = StableHasher::new(0x5346_504F);
        h.write_u64(self.seed).write_u64(stream).write_u64(op);
        Some(h.finish() % payload_len)
    }

    /// Whether every rate is zero (the plan can be dropped).
    pub fn is_inert(&self) -> bool {
        self.write_fail_rate == 0.0 && self.read_fail_rate == 0.0 && self.corrupt_rate == 0.0
    }
}

/// Session-wide storage policy: op-level retry budget, optional disk
/// budget, optional fault-injection plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillPolicy {
    /// How many times a failed read/write op is retried in place before
    /// surfacing as [`SpillError::Io`].
    pub max_io_retries: u32,
    /// Hard cap on the session's total on-disk bytes; `None` is
    /// unlimited. Exceeding it surfaces [`SpillError::Budget`].
    pub disk_budget_bytes: Option<u64>,
    /// Deterministic fault injection for chaos tests; `None` is a clean
    /// session.
    pub faults: Option<SpillFaultPlan>,
}

impl Default for SpillPolicy {
    fn default() -> Self {
        Self {
            max_io_retries: DEFAULT_IO_RETRIES,
            disk_budget_bytes: None,
            faults: None,
        }
    }
}

/// Snapshot of a session's storage-fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Read/write ops that failed once and were retried in place.
    pub io_retries: u64,
    /// Runs whose checksum (or framing) failed verification.
    pub checksum_failures: u64,
    /// Payload bytes that passed checksum verification in the k-way
    /// merge's read pass.
    pub bytes_verified: u64,
    /// Current on-disk bytes across every live segment file.
    pub bytes_written: u64,
}

/// Shared mutable state of one session: the policy plus fault counters,
/// handed by `Arc` to every writer and manifest.
#[derive(Debug, Default)]
struct SpillShared {
    policy: SpillPolicy,
    io_retries: AtomicU64,
    checksum_failures: AtomicU64,
    bytes_verified: AtomicU64,
    bytes_written: AtomicU64,
}

impl SpillShared {
    fn stats(&self) -> SpillStats {
        SpillStats {
            io_retries: self.io_retries.load(Ordering::Relaxed),
            checksum_failures: self.checksum_failures.load(Ordering::Relaxed),
            bytes_verified: self.bytes_verified.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Releases `len` bytes of on-disk accounting (saturating — a failed
    /// rollback can leave the file longer than the accounted frames).
    fn release_bytes(&self, len: u64) {
        let mut cur = self.bytes_written.load(Ordering::Relaxed);
        while let Err(actual) = self.bytes_written.compare_exchange_weak(
            cur,
            cur.saturating_sub(len),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            cur = actual;
        }
    }
}

/// Stable per-file stream id for fault keying: hashes the file name,
/// which encodes `(shard, attempt, family)`.
fn stream_id(path: &Path) -> u64 {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    stable_hash64(0x5354_524D, name.as_bytes()) // "STRM"
}

/// A shared high-water-mark gauge over the mutable (row-format) bytes the
/// sim phase holds in memory: shard-local in-memory stores plus spill
/// staging buffers. Frozen columnar output, intern tables, and merge
/// cursors are excluded — the gauge measures what *scales with work in
/// flight*, which is what the out-of-core pipeline bounds.
#[derive(Debug, Default)]
pub struct MemGauge {
    current: AtomicU64,
    peak: AtomicU64,
}

impl MemGauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a sink's current byte count: adjusts the shared total by
    /// the delta against what this sink last published (tracked in
    /// `published`, one counter per shard attempt) and raises the peak.
    pub fn publish(&self, published: &AtomicU64, now: u64) {
        let prev = published.swap(now, Ordering::Relaxed);
        let cur = if now >= prev {
            self.current.fetch_add(now - prev, Ordering::Relaxed) + (now - prev)
        } else {
            self.current.fetch_sub(prev - now, Ordering::Relaxed) - (prev - now)
        };
        self.peak.fetch_max(cur, Ordering::Relaxed);
    }

    /// Releases everything an attempt had published — called when the
    /// attempt panics and its buffers are discarded by the unwind.
    pub fn release(&self, published: &AtomicU64) {
        let prev = published.swap(0, Ordering::Relaxed);
        self.current.fetch_sub(prev, Ordering::Relaxed);
    }

    /// The current published total.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// The high-water mark across the run so far.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Reads a little-endian u32 from the first four bytes of `b`.
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Reads a little-endian u64 from the first eight bytes of `b`.
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Reads a little-endian u128 from the first sixteen bytes of `b`.
fn le_u128(b: &[u8]) -> u128 {
    let mut w = [0u8; 16];
    w.copy_from_slice(&b[..16]);
    u128::from_le_bytes(w)
}

/// Encodes one record into the fixed 35-byte spill row format.
fn encode_row(r: &RequestRecord, buf: &mut [u8; SPILL_ROW_BYTES]) {
    buf[0..4].copy_from_slice(&r.ts.secs().to_le_bytes());
    buf[4..12].copy_from_slice(&r.user.raw().to_le_bytes());
    match r.ip {
        IpAddr::V4(a) => {
            buf[12] = 4;
            buf[13..17].copy_from_slice(&u32::from(a).to_le_bytes());
            buf[17..29].fill(0);
        }
        IpAddr::V6(a) => {
            buf[12] = 6;
            buf[13..29].copy_from_slice(&u128::from(a).to_le_bytes());
        }
    }
    buf[29..33].copy_from_slice(&r.asn.0.to_le_bytes());
    buf[33..35].copy_from_slice(&r.country.0);
}

/// Decodes one 35-byte spill row back into a record; `Err` carries the
/// unknown family tag.
fn decode_row(buf: &[u8; SPILL_ROW_BYTES]) -> Result<RequestRecord, u8> {
    let ts = le_u32(&buf[0..4]);
    let user = le_u64(&buf[4..12]);
    let ip = match buf[12] {
        4 => IpAddr::V4(std::net::Ipv4Addr::from(le_u32(&buf[13..17]))),
        6 => IpAddr::V6(std::net::Ipv6Addr::from(le_u128(&buf[13..29]))),
        tag => return Err(tag),
    };
    let asn = le_u32(&buf[29..33]);
    Ok(RequestRecord {
        ts: Timestamp::from_secs(ts),
        user: UserId(user),
        ip,
        asn: Asn(asn),
        country: Country([buf[33], buf[34]]),
    })
}

/// Monotonic discriminator so concurrent sessions in one process never
/// collide on a directory name.
static SESSION_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One run's private spill directory. Files are created lazily by
/// [`SegmentWriter`]s; the directory (and everything in it) is removed on
/// drop, so a completed — or aborted — run leaves nothing behind.
#[derive(Debug)]
pub struct SpillSession {
    dir: PathBuf,
    shared: Arc<SpillShared>,
}

impl SpillSession {
    /// Creates a fresh, uniquely-named session directory under `parent`
    /// (or the system temp dir) with the default [`SpillPolicy`].
    pub fn create(parent: Option<&Path>) -> std::io::Result<Self> {
        Self::create_with(parent, SpillPolicy::default())
    }

    /// Creates a session with an explicit storage policy (retry budget,
    /// disk budget, fault plan).
    pub fn create_with(parent: Option<&Path>, policy: SpillPolicy) -> std::io::Result<Self> {
        let parent = parent
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        let n = SESSION_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("ipv6-spill-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            shared: Arc::new(SpillShared {
                policy,
                ..SpillShared::default()
            }),
        })
    }

    /// The session directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the session's storage-fault counters.
    pub fn stats(&self) -> SpillStats {
        self.shared.stats()
    }

    /// The filename prefix shared by every file of one shard attempt.
    fn attempt_prefix(shard: usize, attempt: u32) -> String {
        format!("s{shard:05}-a{attempt:02}-")
    }

    /// A segment writer for one `(shard, attempt, family)` stream.
    pub fn writer(
        &self,
        shard: usize,
        attempt: u32,
        family: &str,
        segment_rows: usize,
    ) -> SegmentWriter {
        let name = format!("{}{family}.seg", Self::attempt_prefix(shard, attempt));
        SegmentWriter::new(self.dir.join(name), segment_rows, Arc::clone(&self.shared))
    }

    /// Best-effort removal of every file a failed attempt wrote, so a
    /// retried shard starts from a clean directory and a completed run
    /// holds only the files of successful attempts. Removed bytes are
    /// released back to the disk budget.
    pub fn remove_attempt(&self, shard: usize, attempt: u32) {
        let prefix = Self::attempt_prefix(shard, attempt);
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            if entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(&prefix))
            {
                let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
                if std::fs::remove_file(entry.path()).is_ok() {
                    self.shared.release_bytes(len);
                }
            }
        }
    }
}

impl Drop for SpillSession {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One sorted run's location and verification data within a segment
/// file: byte offset of its frame header, row count, chain checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunMeta {
    offset: u64,
    rows: u64,
    checksum: u64,
}

/// Where one family's spilled stream lives: its file plus the frame
/// metadata of each sorted run, in emission order.
#[derive(Debug, Clone)]
pub struct RunManifest {
    path: PathBuf,
    runs: Vec<RunMeta>,
    shared: Arc<SpillShared>,
}

impl RunManifest {
    /// Total rows across all runs.
    pub fn rows(&self) -> u64 {
        self.runs.iter().map(|r| r.rows).sum()
    }

    /// Number of sorted runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }
}

/// Streams one family's records into bounded sorted runs on disk.
///
/// Records are staged in memory; when the staging buffer reaches
/// `segment_rows` it is stable-sorted by timestamp and appended to the
/// file as one checksummed frame. The file is created lazily on the first
/// flush, so record-free families cost nothing.
///
/// Frame writes are all-or-nothing: on any write failure (real or
/// injected) the file is truncated back to the pre-run length and the
/// whole frame is retried up to the policy's op-retry budget, after which
/// the error surfaces as a typed [`SpillError`].
#[derive(Debug)]
pub struct SegmentWriter {
    path: PathBuf,
    stream: u64,
    file: Option<File>,
    file_len: u64,
    staging: Vec<RequestRecord>,
    segment_rows: usize,
    runs: Vec<RunMeta>,
    write_ops: u64,
    shared: Arc<SpillShared>,
}

impl SegmentWriter {
    fn new(path: PathBuf, segment_rows: usize, shared: Arc<SpillShared>) -> Self {
        debug_assert!(segment_rows > 0, "segment_rows must be non-zero");
        let stream = stream_id(&path);
        Self {
            path,
            stream,
            file: None,
            file_len: 0,
            staging: Vec::new(),
            segment_rows: segment_rows.max(1),
            runs: Vec::new(),
            write_ops: 0,
            shared,
        }
    }

    /// Appends one record, flushing a full segment to disk.
    pub fn push(&mut self, rec: RequestRecord) -> Result<(), SpillError> {
        self.staging.push(rec);
        if self.staging.len() >= self.segment_rows {
            self.flush_run()?;
        }
        Ok(())
    }

    /// Bytes currently staged in memory (logical row bytes, the unit the
    /// [`MemGauge`] tracks).
    pub fn staged_bytes(&self) -> u64 {
        (self.staging.len() * std::mem::size_of::<RequestRecord>()) as u64
    }

    /// Sorts and appends the staged records as one checksummed run frame.
    fn flush_run(&mut self) -> Result<(), SpillError> {
        if self.staging.is_empty() {
            return Ok(());
        }
        // Stable: equal timestamps keep emission order, exactly like the
        // in-memory store's final sort (same radix permutation path).
        crate::kernels::radix_sort_records_by_ts(&mut self.staging);

        // Build the whole frame in memory (bounded by the segment
        // envelope the staging buffer already paid for) so the write is
        // a single all-or-nothing op.
        let rows = self.staging.len() as u64;
        let payload_len = self.staging.len() * SPILL_ROW_BYTES;
        let mut frame = Vec::with_capacity(RUN_HEADER_BYTES + payload_len);
        frame.extend_from_slice(&RUN_MAGIC.to_le_bytes());
        frame.extend_from_slice(&rows.to_le_bytes());
        frame.extend_from_slice(&[0u8; 8]); // checksum patched below
        let mut buf = [0u8; SPILL_ROW_BYTES];
        let mut checksum = CHECKSUM_SEED;
        for r in &self.staging {
            encode_row(r, &mut buf);
            checksum = stable_hash64(checksum, &buf);
            frame.extend_from_slice(&buf);
        }
        frame[12..20].copy_from_slice(&checksum.to_le_bytes());
        let frame_len = frame.len() as u64;

        // Disk-budget admission: reserve the frame before writing; the
        // reservation is released again on failure (and by
        // `remove_attempt` when a failed attempt's files are deleted).
        let prev = self
            .shared
            .bytes_written
            .fetch_add(frame_len, Ordering::Relaxed);
        if let Some(budget) = self.shared.policy.disk_budget_bytes {
            if prev + frame_len > budget {
                self.shared.release_bytes(frame_len);
                return Err(SpillError::Budget {
                    budget_bytes: budget,
                    attempted_bytes: prev + frame_len,
                });
            }
        }

        if let Err(e) = self.write_frame(&frame) {
            self.shared.release_bytes(frame_len);
            return Err(e);
        }
        self.runs.push(RunMeta {
            offset: self.file_len,
            rows,
            checksum,
        });
        self.file_len += frame_len;
        self.staging.clear();
        Ok(())
    }

    /// Writes one frame at the current end of file, rolling a torn write
    /// back and retrying within the op budget.
    fn write_frame(&mut self, frame: &[u8]) -> Result<(), SpillError> {
        let op = self.write_ops;
        self.write_ops += 1;
        let start = self.file_len;
        if self.file.is_none() {
            let f = File::create(&self.path)
                .map_err(|e| SpillError::io(&self.path, IoOp::Create, &e))?;
            self.file = Some(f);
        }
        // The file handle exists for the rest of this call.
        let mut io_attempt = 0u32;
        loop {
            let injected = self
                .shared
                .policy
                .faults
                .as_ref()
                .and_then(|p| p.write_failure(self.stream, op, io_attempt, frame.len()));
            let result: std::io::Result<()> = match (&mut self.file, injected) {
                (Some(f), Some(short)) => {
                    // Tear `short` frame bytes onto disk, then report the
                    // injected transient failure.
                    let _ = f.write_all(&frame[..short]);
                    Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "injected transient write fault",
                    ))
                }
                (Some(f), None) => f.write_all(frame),
                (None, _) => return Ok(()), // unreachable: created above
            };
            match result {
                Ok(()) => break,
                Err(e) => {
                    // All-or-nothing: drop whatever prefix landed.
                    if let Some(f) = &mut self.file {
                        f.set_len(start)
                            .map_err(|t| SpillError::io(&self.path, IoOp::Write, &t))?;
                        f.seek(SeekFrom::Start(start))
                            .map_err(|t| SpillError::io(&self.path, IoOp::Seek, &t))?;
                    }
                    if io_attempt < self.shared.policy.max_io_retries {
                        self.shared.io_retries.fetch_add(1, Ordering::Relaxed);
                        io_attempt += 1;
                        continue;
                    }
                    return Err(SpillError::io(&self.path, IoOp::Write, &e));
                }
            }
        }
        // Deterministic post-write corruption (chaos tests): flip one
        // payload byte so the read-side checksum must catch it.
        if let Some(plan) = self.shared.policy.faults.as_ref() {
            if let Some(off) =
                plan.corrupt_offset(self.stream, op, (frame.len() - RUN_HEADER_BYTES) as u64)
            {
                if let Some(f) = &mut self.file {
                    let pos = start + RUN_HEADER_BYTES as u64 + off;
                    let flipped = [frame[RUN_HEADER_BYTES + off as usize] ^ 0xA5];
                    f.seek(SeekFrom::Start(pos))
                        .map_err(|e| SpillError::io(&self.path, IoOp::Seek, &e))?;
                    f.write_all(&flipped)
                        .map_err(|e| SpillError::io(&self.path, IoOp::Write, &e))?;
                    f.seek(SeekFrom::Start(start + frame.len() as u64))
                        .map_err(|e| SpillError::io(&self.path, IoOp::Seek, &e))?;
                }
            }
        }
        Ok(())
    }

    /// Flushes the final partial run and the OS buffer. Idempotent.
    pub fn finish(&mut self) -> Result<(), SpillError> {
        self.flush_run()?;
        if let Some(f) = self.file.as_mut() {
            f.flush()
                .map_err(|e| SpillError::io(&self.path, IoOp::Flush, &e))?;
        }
        Ok(())
    }

    /// Consumes the writer into its manifest; [`SegmentWriter::finish`]
    /// must have been called (asserted).
    pub fn into_manifest(mut self) -> RunManifest {
        debug_assert!(self.staging.is_empty(), "into_manifest before finish()");
        if let Some(f) = self.file.take() {
            drop(f);
        }
        RunManifest {
            path: self.path,
            runs: self.runs,
            shared: self.shared,
        }
    }
}

/// A buffered reader over one segment file that routes every read op
/// through the fault plan and maps failures to typed errors.
struct FaultedReader {
    reader: BufReader<File>,
    path: PathBuf,
    stream: u64,
    ops: u64,
    shared: Arc<SpillShared>,
}

impl FaultedReader {
    fn open(
        path: &Path,
        offset: u64,
        op_base: u64,
        shared: Arc<SpillShared>,
    ) -> Result<Self, SpillError> {
        let mut file = File::open(path).map_err(|e| SpillError::io(path, IoOp::Open, &e))?;
        if offset > 0 {
            file.seek(SeekFrom::Start(offset))
                .map_err(|e| SpillError::io(path, IoOp::Seek, &e))?;
        }
        Ok(Self {
            reader: BufReader::new(file),
            path: path.to_path_buf(),
            stream: stream_id(path),
            ops: op_base,
            shared,
        })
    }

    /// One read op: injected faults are decided *before* the data moves,
    /// so an op-level retry simply re-issues the same read. A short file
    /// (torn write) surfaces as [`SpillError::Corrupt`] at the given run
    /// and offset.
    fn read_exact_op(&mut self, buf: &mut [u8], run: usize, offset: u64) -> Result<(), SpillError> {
        let op = self.ops;
        self.ops += 1;
        if let Some(plan) = self.shared.policy.faults.as_ref() {
            let mut io_attempt = 0u32;
            while plan.read_failure(self.stream, op, io_attempt) {
                if io_attempt >= self.shared.policy.max_io_retries {
                    return Err(SpillError::Io {
                        path: self.path.clone(),
                        op: IoOp::Read,
                        kind: std::io::ErrorKind::Interrupted,
                        detail: "injected transient read fault".into(),
                    });
                }
                self.shared.io_retries.fetch_add(1, Ordering::Relaxed);
                io_attempt += 1;
            }
        }
        self.reader.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                self.shared
                    .checksum_failures
                    .fetch_add(1, Ordering::Relaxed);
                SpillError::Corrupt {
                    path: self.path.clone(),
                    run,
                    offset,
                    reason: "unexpected end of file (torn write?)".into(),
                }
            } else {
                SpillError::io(&self.path, IoOp::Read, &e)
            }
        })
    }

    /// Reads and validates one run's frame header against the manifest.
    fn read_header(&mut self, run: usize, meta: &RunMeta) -> Result<(), SpillError> {
        let mut hdr = [0u8; RUN_HEADER_BYTES];
        self.read_exact_op(&mut hdr, run, meta.offset)?;
        let corrupt = |reason: String| {
            self.shared
                .checksum_failures
                .fetch_add(1, Ordering::Relaxed);
            Err(SpillError::Corrupt {
                path: self.path.clone(),
                run,
                offset: meta.offset,
                reason,
            })
        };
        let magic = le_u32(&hdr[0..4]);
        if magic != RUN_MAGIC {
            return corrupt(format!("bad run magic {magic:#010x}"));
        }
        let rows = le_u64(&hdr[4..12]);
        if rows != meta.rows {
            return corrupt(format!("header rows {rows} != manifest rows {}", meta.rows));
        }
        let checksum = le_u64(&hdr[12..20]);
        if checksum != meta.checksum {
            return corrupt(format!(
                "header checksum {checksum:#018x} != manifest checksum {:#018x}",
                meta.checksum
            ));
        }
        Ok(())
    }
}

/// Decodes one row, mapping an unknown family tag to a located
/// [`SpillError::Corrupt`].
fn decode_row_at(
    buf: &[u8; SPILL_ROW_BYTES],
    shared: &SpillShared,
    path: &Path,
    run: usize,
    row_offset: u64,
) -> Result<RequestRecord, SpillError> {
    decode_row(buf).map_err(|tag| {
        shared.checksum_failures.fetch_add(1, Ordering::Relaxed);
        SpillError::Corrupt {
            path: path.to_path_buf(),
            run,
            offset: row_offset + 12, // the family-tag byte
            reason: format!("unknown family tag {tag}"),
        }
    })
}

/// One run's streaming read cursor for the k-way merge.
///
/// The whole run is **verified before it streams**: `open` makes one
/// chunked pass over the payload to check the chain checksum (and the
/// length framing via short-read detection), then rewinds. Records
/// therefore decode from verified bytes only — corruption can never
/// reach the columnar encoder, whose intern lookups assume exactly the
/// keys the shard sinks collected before the rows were written.
struct RunCursor {
    reader: FaultedReader,
    meta: RunMeta,
    run: usize,
    row: u64,
    manifest_path: PathBuf,
    shared: Arc<SpillShared>,
}

impl RunCursor {
    fn open(m: &RunManifest, run: usize) -> Result<Self, SpillError> {
        let meta = m.runs[run];
        // Op indices restart per cursor; basing them on the run's row
        // position keeps fault keying distinct across a file's runs.
        let op_base = meta.offset / SPILL_ROW_BYTES as u64;
        let mut reader = FaultedReader::open(&m.path, meta.offset, op_base, Arc::clone(&m.shared))?;
        reader.read_header(run, &meta)?;

        // Verification pass: fold the chain checksum over the payload in
        // row-sized steps (bounded buffer, no run is buffered wholesale).
        let mut checksum = CHECKSUM_SEED;
        let mut buf = [0u8; SPILL_ROW_BYTES];
        for row in 0..meta.rows {
            let row_offset = meta.offset + RUN_HEADER_BYTES as u64 + row * SPILL_ROW_BYTES as u64;
            reader.read_exact_op(&mut buf, run, row_offset)?;
            checksum = stable_hash64(checksum, &buf);
        }
        if checksum != meta.checksum {
            m.shared.checksum_failures.fetch_add(1, Ordering::Relaxed);
            return Err(SpillError::Corrupt {
                path: m.path.clone(),
                run,
                offset: meta.offset,
                reason: format!(
                    "run checksum mismatch: computed {checksum:#018x}, expected {:#018x}",
                    meta.checksum
                ),
            });
        }
        m.shared
            .bytes_verified
            .fetch_add(meta.rows * SPILL_ROW_BYTES as u64, Ordering::Relaxed);

        // Rewind to the payload start for the streaming pass.
        let reader = FaultedReader::open(
            &m.path,
            meta.offset + RUN_HEADER_BYTES as u64,
            op_base,
            Arc::clone(&m.shared),
        )?;
        Ok(Self {
            reader,
            meta,
            run,
            row: 0,
            manifest_path: m.path.clone(),
            shared: Arc::clone(&m.shared),
        })
    }

    fn next(&mut self) -> Result<Option<RequestRecord>, SpillError> {
        if self.row >= self.meta.rows {
            return Ok(None);
        }
        let row_offset =
            self.meta.offset + RUN_HEADER_BYTES as u64 + self.row * SPILL_ROW_BYTES as u64;
        self.row += 1;
        let mut buf = [0u8; SPILL_ROW_BYTES];
        self.reader.read_exact_op(&mut buf, self.run, row_offset)?;
        decode_row_at(
            &buf,
            &self.shared,
            &self.manifest_path,
            self.run,
            row_offset,
        )
        .map(Some)
    }
}

/// K-way merges one family's manifests (in plan order) into a timestamp-
/// sorted columnar store encoded against shared intern tables.
///
/// Ties pop by global run index (manifest order × run order), which is
/// exactly the stable tie-break of the in-memory pipeline's sort over the
/// plan-order concatenation — so the output columns are byte-identical to
/// the in-memory path. One cursor (file handle + small read buffer) is
/// open per run; no run is ever re-buffered wholesale. Every run's
/// framing and checksum are verified as it streams; corruption surfaces
/// as a typed error, never as silently wrong figures.
pub fn merge_manifests(
    manifests: &[RunManifest],
    tables: &Arc<EntityTables>,
) -> Result<ColumnStore, SpillError> {
    let mut cursors: Vec<RunCursor> = Vec::new();
    let mut total_rows: usize = 0;
    for m in manifests {
        for run in 0..m.runs.len() {
            if m.runs[run].rows > 0 {
                cursors.push(RunCursor::open(m, run)?);
                total_rows += m.runs[run].rows as usize;
            }
        }
    }
    let mut cols = ColumnStore::default();
    cols.ts.reserve_exact(total_rows);
    cols.ip.reserve_exact(total_rows);
    cols.user.reserve_exact(total_rows);
    cols.asn.reserve_exact(total_rows);
    cols.country.reserve_exact(total_rows);

    // Min-heap keyed (timestamp, run index); `current[i]` holds cursor
    // `i`'s front record. Runs are non-empty by construction, so every
    // cursor's first read yields; `Option` keeps that fact out of the
    // unsafe-free invariant instead of asserting it.
    let mut current: Vec<Option<RequestRecord>> = Vec::with_capacity(cursors.len());
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, usize)>> =
        BinaryHeap::with_capacity(cursors.len());
    for (i, c) in cursors.iter_mut().enumerate() {
        let front = c.next()?;
        if let Some(r) = &front {
            heap.push(std::cmp::Reverse((r.ts.secs(), i)));
        }
        current.push(front);
    }
    while let Some(std::cmp::Reverse((_, i))) = heap.pop() {
        if let Some(r) = current[i].take() {
            cols.push_encoded(&r, tables);
        }
        if let Some(r) = cursors[i].next()? {
            heap.push(std::cmp::Reverse((r.ts.secs(), i)));
            current[i] = Some(r);
        }
    }
    debug_assert_eq!(cols.len(), total_rows);
    Ok(cols)
}

/// Convenience: merges one family's manifests straight into a
/// [`FrozenStore`] over shared tables.
pub fn merge_into_frozen(
    manifests: &[RunManifest],
    tables: &Arc<EntityTables>,
) -> Result<FrozenStore, SpillError> {
    Ok(FrozenStore::from_sorted_parts(
        merge_manifests(manifests, tables)?,
        Arc::clone(tables),
    ))
}

/// Writes `rows` to `path` as a single checksummed run frame — the
/// incremental engine's frozen day-delta format.
///
/// Unlike [`SegmentWriter`] this writes rows in exactly the given order
/// (the caller persists the canonical merged day slice, already sorted)
/// and the whole file is one frame, so a checkpoint day file is
/// self-describing: magic + row count + chain checksum, then the rows.
pub fn write_checkpoint_segment(path: &Path, rows: &[RequestRecord]) -> Result<(), SpillError> {
    let mut frame = Vec::with_capacity(RUN_HEADER_BYTES + rows.len() * SPILL_ROW_BYTES);
    frame.extend_from_slice(&RUN_MAGIC.to_le_bytes());
    frame.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    frame.extend_from_slice(&[0u8; 8]); // checksum patched below
    let mut buf = [0u8; SPILL_ROW_BYTES];
    let mut checksum = CHECKSUM_SEED;
    for r in rows {
        encode_row(r, &mut buf);
        checksum = stable_hash64(checksum, &buf);
        frame.extend_from_slice(&buf);
    }
    frame[12..20].copy_from_slice(&checksum.to_le_bytes());
    let mut f = File::create(path).map_err(|e| SpillError::io(path, IoOp::Create, &e))?;
    f.write_all(&frame)
        .map_err(|e| SpillError::io(path, IoOp::Write, &e))?;
    f.sync_all()
        .map_err(|e| SpillError::io(path, IoOp::Flush, &e))?;
    Ok(())
}

/// Reads one checkpoint day file written by [`write_checkpoint_segment`],
/// verifying the length framing and chain checksum. Torn, truncated or
/// padded files surface as [`SpillError::Corrupt`], never as silently
/// wrong rows.
pub fn read_checkpoint_segment(path: &Path) -> Result<Vec<RequestRecord>, SpillError> {
    let corrupt = |offset: u64, reason: String| SpillError::Corrupt {
        path: path.to_path_buf(),
        run: 0,
        offset,
        reason,
    };
    let file = File::open(path).map_err(|e| SpillError::io(path, IoOp::Open, &e))?;
    let file_len = file
        .metadata()
        .map_err(|e| SpillError::io(path, IoOp::Open, &e))?
        .len();
    let mut reader = BufReader::new(file);
    let read_err = |e: std::io::Error, offset: u64| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            corrupt(offset, "unexpected end of file (torn write?)".into())
        } else {
            SpillError::io(path, IoOp::Read, &e)
        }
    };
    let mut hdr = [0u8; RUN_HEADER_BYTES];
    reader.read_exact(&mut hdr).map_err(|e| read_err(e, 0))?;
    let magic = le_u32(&hdr[0..4]);
    if magic != RUN_MAGIC {
        return Err(corrupt(0, format!("bad run magic {magic:#010x}")));
    }
    let rows = le_u64(&hdr[4..12]);
    let expected_checksum = le_u64(&hdr[12..20]);
    // Validate the framed length against the file before trusting the
    // header's row count with an allocation.
    let framed_len = RUN_HEADER_BYTES as u128 + rows as u128 * SPILL_ROW_BYTES as u128;
    if framed_len != u128::from(file_len) {
        return Err(corrupt(
            4,
            format!("header claims {rows} rows ({framed_len} bytes) but file is {file_len} bytes"),
        ));
    }
    let mut out = Vec::with_capacity(rows as usize);
    let mut buf = [0u8; SPILL_ROW_BYTES];
    let mut checksum = CHECKSUM_SEED;
    for row in 0..rows {
        let row_offset = RUN_HEADER_BYTES as u64 + row * SPILL_ROW_BYTES as u64;
        reader
            .read_exact(&mut buf)
            .map_err(|e| read_err(e, row_offset))?;
        checksum = stable_hash64(checksum, &buf);
        let rec = decode_row(&buf)
            .map_err(|tag| corrupt(row_offset + 12, format!("unknown family tag {tag}")))?;
        out.push(rec);
    }
    if checksum != expected_checksum {
        return Err(corrupt(
            0,
            format!(
                "run checksum mismatch: computed {checksum:#018x}, expected \
                 {expected_checksum:#018x}"
            ),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::RequestStore;
    use crate::time::SimDate;

    fn rec(user: u64, sec: u32, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: Timestamp::from_secs(SimDate::ymd(4, 13).start().secs() + sec),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    /// The intern tables of `records` (the keys a shard sink would have
    /// collected while routing them).
    fn tables_of(records: &[RequestRecord]) -> Arc<EntityTables> {
        Arc::new(EntityTables::from_records(records))
    }

    #[test]
    fn row_codec_round_trips_both_families() {
        let mut buf = [0u8; SPILL_ROW_BYTES];
        for r in [
            rec(7, 0, "2001:db8::1"),
            rec(u64::MAX, 3, "10.0.0.1"),
            rec(0, 86_400, "::"),
            rec(1, 12, "255.255.255.255"),
        ] {
            encode_row(&r, &mut buf);
            assert_eq!(decode_row(&buf), Ok(r));
        }
    }

    #[test]
    fn corrupt_tag_is_a_typed_error_not_a_panic() {
        let mut buf = [0u8; SPILL_ROW_BYTES];
        encode_row(&rec(1, 0, "10.0.0.1"), &mut buf);
        buf[12] = 9;
        assert_eq!(decode_row(&buf), Err(9));
    }

    #[test]
    fn checkpoint_segment_round_trips_in_order() {
        let dir = std::env::temp_dir().join(format!("ipv6-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("day-roundtrip.seg");
        // Deliberately NOT timestamp-sorted: the checkpoint codec must
        // preserve the caller's order exactly.
        let rows = vec![
            rec(3, 9, "2001:db8::3"),
            rec(1, 0, "10.0.0.1"),
            rec(2, 9, "2001:db8::2"),
        ];
        write_checkpoint_segment(&path, &rows).unwrap();
        assert_eq!(read_checkpoint_segment(&path).unwrap(), rows);

        write_checkpoint_segment(&path, &[]).unwrap();
        assert_eq!(read_checkpoint_segment(&path).unwrap(), Vec::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_segment_detects_corruption_truncation_and_padding() {
        let dir = std::env::temp_dir().join(format!("ipv6-ckpt-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("day-corrupt.seg");
        let rows = vec![rec(1, 0, "10.0.0.1"), rec(2, 1, "2001:db8::2")];
        write_checkpoint_segment(&path, &rows).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flipped payload byte -> checksum mismatch.
        let mut bad = good.clone();
        bad[RUN_HEADER_BYTES + 3] ^= 0xA5;
        std::fs::write(&path, &bad).unwrap();
        match read_checkpoint_segment(&path).unwrap_err() {
            SpillError::Corrupt { reason, .. } => assert!(reason.contains("checksum mismatch")),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Torn write -> length framing failure, not an allocation guess.
        std::fs::write(&path, &good[..good.len() - 7]).unwrap();
        match read_checkpoint_segment(&path).unwrap_err() {
            SpillError::Corrupt { reason, .. } => assert!(reason.contains("but file is")),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Trailing garbage is also a framing failure.
        let mut padded = good.clone();
        padded.extend_from_slice(&[0u8; 5]);
        std::fs::write(&path, &padded).unwrap();
        assert!(matches!(
            read_checkpoint_segment(&path).unwrap_err(),
            SpillError::Corrupt { .. }
        ));

        // Bad magic.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        std::fs::write(&path, &bad_magic).unwrap();
        match read_checkpoint_segment(&path).unwrap_err() {
            SpillError::Corrupt { reason, .. } => assert!(reason.contains("bad run magic")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An on-disk bad tag reports path + run index + byte offset through
    /// the typed error (the old code aborted with no location). The run's
    /// checksum is re-sealed over the bad bytes, so verification passes
    /// and the merge's decoder is what must catch the tag.
    #[test]
    fn corrupt_tag_on_disk_reports_path_run_and_offset() {
        let session = SpillSession::create(None).unwrap();
        let mut w = session.writer(0, 0, "request", 2);
        let records = [
            rec(1, 0, "10.0.0.1"),
            rec(2, 1, "10.0.0.2"),
            rec(3, 2, "10.0.0.3"),
        ];
        for r in records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        let mut m = w.into_manifest();
        // Flip the second run's first row tag (run 1 starts after the
        // first 2-row frame) and re-seal that run's checksum.
        let run1_offset = (RUN_HEADER_BYTES + 2 * SPILL_ROW_BYTES) as u64;
        let payload = run1_offset as usize + RUN_HEADER_BYTES;
        let tag_offset = run1_offset + RUN_HEADER_BYTES as u64 + 12;
        let mut bytes = std::fs::read(&m.path).unwrap();
        bytes[tag_offset as usize] = 9;
        let checksum = bytes[payload..]
            .chunks(SPILL_ROW_BYTES)
            .fold(CHECKSUM_SEED, stable_hash64);
        bytes[payload - 8..payload].copy_from_slice(&checksum.to_le_bytes());
        m.runs[1].checksum = checksum;
        std::fs::write(&m.path, &bytes).unwrap();

        let err = merge_manifests(std::slice::from_ref(&m), &tables_of(&records)).unwrap_err();
        match err {
            SpillError::Corrupt {
                path,
                run,
                offset,
                reason,
            } => {
                assert_eq!(path, m.path);
                assert_eq!(run, 1);
                assert_eq!(offset, tag_offset);
                assert!(reason.contains("unknown family tag 9"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(session.stats().checksum_failures, 1);
    }

    #[test]
    fn flipped_payload_byte_fails_the_run_checksum() {
        let session = SpillSession::create(None).unwrap();
        let mut w = session.writer(0, 0, "request", 64);
        for i in 0..10u64 {
            w.push(rec(i, i as u32, "2001:db8::1")).unwrap();
        }
        w.finish().unwrap();
        let m = w.into_manifest();
        let mut bytes = std::fs::read(&m.path).unwrap();
        // Flip a non-tag payload byte: the chain checksum must catch it.
        let target = RUN_HEADER_BYTES + 3 * SPILL_ROW_BYTES + 5;
        bytes[target] ^= 0xFF;
        std::fs::write(&m.path, &bytes).unwrap();

        let tables = Arc::new(EntityTables::default());
        let err = merge_manifests(std::slice::from_ref(&m), &tables).unwrap_err();
        assert!(
            matches!(err, SpillError::Corrupt { run: 0, ref reason, .. }
                if reason.contains("checksum mismatch")),
            "{err:?}"
        );
        assert_eq!(session.stats().checksum_failures, 1);
    }

    #[test]
    fn truncated_file_is_reported_as_torn_write() {
        let session = SpillSession::create(None).unwrap();
        let mut w = session.writer(0, 0, "request", 64);
        for i in 0..8u64 {
            w.push(rec(i, i as u32, "10.0.0.1")).unwrap();
        }
        w.finish().unwrap();
        let m = w.into_manifest();
        let bytes = std::fs::read(&m.path).unwrap();
        std::fs::write(&m.path, &bytes[..bytes.len() - 10]).unwrap();

        let tables = Arc::new(EntityTables::default());
        let err = merge_manifests(std::slice::from_ref(&m), &tables).unwrap_err();
        assert!(
            matches!(err, SpillError::Corrupt { ref reason, .. }
                if reason.contains("torn write")),
            "{err:?}"
        );
    }

    #[test]
    fn merge_reproduces_the_stable_in_memory_sort() {
        let session = SpillSession::create(None).unwrap();
        // Two "shards", ties across and within both; segment_rows 3 forces
        // multiple runs per shard.
        let shard_a = vec![
            rec(1, 10, "2001:db8::1"),
            rec(2, 5, "2001:db8::2"),
            rec(3, 10, "10.0.0.1"), // ties with user 1
            rec(4, 1, "2001:db8::3"),
            rec(5, 10, "2001:db8::4"), // crosses a run boundary
        ];
        let shard_b = vec![rec(6, 10, "10.0.0.2"), rec(7, 0, "2001:db8::5")];

        let mut manifests = Vec::new();
        for (shard, records) in [(0usize, &shard_a), (1usize, &shard_b)] {
            let mut w = session.writer(shard, 0, "request", 3);
            for &r in records {
                w.push(r).unwrap();
            }
            w.finish().unwrap();
            manifests.push(w.into_manifest());
        }
        assert_eq!(manifests[0].run_count(), 2);
        assert_eq!(manifests[0].rows(), 5);

        // Reference: the in-memory pipeline (concatenate in plan order,
        // stable sort).
        let mut reference = RequestStore::new();
        for &r in shard_a.iter().chain(shard_b.iter()) {
            reference.push(r);
        }

        let tables = tables_of(reference.all());
        let frozen = merge_into_frozen(&manifests, &tables).unwrap();
        assert_eq!(
            frozen.all().records().collect::<Vec<_>>(),
            reference.all(),
            "k-way merge must equal the stable concatenation sort"
        );
        // Spill-built columns are exactly sized (the bytes() contract).
        assert_eq!(frozen.bytes(), frozen.len() * 18);
        // The merge's one verified read pass counted every payload byte.
        assert_eq!(session.stats().bytes_verified, 7 * SPILL_ROW_BYTES as u64);
        assert_eq!(session.stats().checksum_failures, 0);
    }

    /// Empty manifests (zero-record shards) pass cleanly through the
    /// k-way merge next to populated ones — the empty-segment edge.
    #[test]
    fn empty_manifests_merge_with_populated_ones() {
        let session = SpillSession::create(None).unwrap();
        let mut empty_a = session.writer(0, 0, "abuse", 4);
        empty_a.finish().unwrap();
        let empty_a = empty_a.into_manifest();
        let mut populated = session.writer(1, 0, "abuse", 2);
        let records = [rec(1, 5, "10.0.0.1"), rec(2, 3, "2001:db8::1")];
        for &r in &records {
            populated.push(r).unwrap();
        }
        populated.finish().unwrap();
        let populated = populated.into_manifest();
        let mut empty_b = session.writer(2, 0, "abuse", 4);
        empty_b.finish().unwrap();
        let empty_b = empty_b.into_manifest();

        let tables = tables_of(&records);
        let all = [empty_a, populated.clone(), empty_b];
        let merged = merge_into_frozen(&all, &tables).unwrap();
        let alone = merge_into_frozen(std::slice::from_ref(&populated), &tables).unwrap();
        assert_eq!(
            merged.all().records().collect::<Vec<_>>(),
            alone.all().records().collect::<Vec<_>>(),
            "empty manifests must not perturb the merge"
        );
        assert_eq!(merged.len(), 2);

        // All-empty merges are an empty store.
        let tables = Arc::new(EntityTables::default());
        assert!(merge_manifests(&[], &tables).unwrap().is_empty());
    }

    #[test]
    fn injected_write_faults_retry_to_identical_bytes() {
        let records: Vec<RequestRecord> = (0..50)
            .map(|i| rec(i, (i % 7) as u32, "2001:db8::1"))
            .collect();
        let write = |policy: SpillPolicy| {
            let session = SpillSession::create_with(None, policy).unwrap();
            let mut w = session.writer(4, 1, "request", 8);
            for &r in &records {
                w.push(r).unwrap();
            }
            w.finish().unwrap();
            let m = w.into_manifest();
            let bytes = std::fs::read(&m.path).unwrap();
            (bytes, session.stats())
        };
        let (clean, clean_stats) = write(SpillPolicy::default());
        assert_eq!(clean_stats.io_retries, 0);
        let (faulted, faulted_stats) = write(SpillPolicy {
            faults: Some(SpillFaultPlan {
                seed: 99,
                write_fail_rate: 0.9,
                short_write_rate: 0.5,
                fail_attempts: 1,
                ..SpillFaultPlan::default()
            }),
            ..SpillPolicy::default()
        });
        assert!(faulted_stats.io_retries > 0, "faults must have fired");
        assert_eq!(clean, faulted, "retried writes must be byte-identical");
    }

    #[test]
    fn injected_read_faults_retry_transparently() {
        let policy = SpillPolicy {
            faults: Some(SpillFaultPlan {
                seed: 7,
                read_fail_rate: 0.6,
                fail_attempts: 1,
                ..SpillFaultPlan::default()
            }),
            ..SpillPolicy::default()
        };
        let session = SpillSession::create_with(None, policy).unwrap();
        let mut w = session.writer(0, 0, "request", 4);
        let records: Vec<RequestRecord> = (0..20).map(|i| rec(i, i as u32, "10.0.0.1")).collect();
        for &r in &records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        let m = w.into_manifest();
        let merged = merge_manifests(std::slice::from_ref(&m), &tables_of(&records)).unwrap();
        assert_eq!(merged.len(), records.len());
        assert!(
            session.stats().io_retries > 0,
            "read faults must have fired"
        );
    }

    #[test]
    fn exhausted_retry_budget_surfaces_a_typed_io_error() {
        let policy = SpillPolicy {
            max_io_retries: 1,
            faults: Some(SpillFaultPlan {
                seed: 3,
                write_fail_rate: 1.0,
                fail_attempts: u32::MAX, // never recovers
                ..SpillFaultPlan::default()
            }),
            ..SpillPolicy::default()
        };
        let session = SpillSession::create_with(None, policy).unwrap();
        let mut w = session.writer(0, 0, "request", 2);
        w.push(rec(1, 0, "10.0.0.1")).unwrap();
        let err = w.push(rec(2, 1, "10.0.0.1")).unwrap_err();
        assert!(
            matches!(err, SpillError::Io { op: IoOp::Write, kind, .. }
                if kind == std::io::ErrorKind::Interrupted),
            "{err:?}"
        );
        assert!(err.is_retryable());
    }

    #[test]
    fn disk_budget_is_enforced_and_released_by_remove_attempt() {
        let frame = (RUN_HEADER_BYTES + 2 * SPILL_ROW_BYTES) as u64;
        let policy = SpillPolicy {
            disk_budget_bytes: Some(frame), // exactly one 2-row frame
            ..SpillPolicy::default()
        };
        let session = SpillSession::create_with(None, policy).unwrap();
        let mut w = session.writer(0, 0, "request", 2);
        w.push(rec(1, 0, "10.0.0.1")).unwrap();
        w.push(rec(2, 1, "10.0.0.1")).unwrap(); // first frame fits
        assert_eq!(session.stats().bytes_written, frame);
        w.push(rec(3, 2, "10.0.0.1")).unwrap();
        let err = w.push(rec(4, 3, "10.0.0.1")).unwrap_err();
        assert!(
            matches!(err, SpillError::Budget { budget_bytes, attempted_bytes }
                if budget_bytes == frame && attempted_bytes == 2 * frame),
            "{err:?}"
        );
        assert!(!err.is_retryable(), "budget overruns are not transient");
        drop(w);
        session.remove_attempt(0, 0);
        assert_eq!(
            session.stats().bytes_written,
            0,
            "removed files release their budget"
        );
    }

    #[test]
    fn session_cleans_up_on_drop_and_remove_attempt_is_selective() {
        let parent = std::env::temp_dir().join(format!("ipv6-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&parent).unwrap();
        let dir;
        {
            let session = SpillSession::create(Some(&parent)).unwrap();
            dir = session.dir().to_path_buf();
            let mut a0 = session.writer(3, 0, "pair", 2);
            a0.push(rec(1, 0, "10.0.0.1")).unwrap();
            a0.finish().unwrap();
            let _ = a0.into_manifest();
            let mut a1 = session.writer(3, 1, "pair", 2);
            a1.push(rec(1, 0, "10.0.0.1")).unwrap();
            a1.finish().unwrap();
            let _ = a1.into_manifest();
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
            session.remove_attempt(3, 0);
            let left: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect();
            assert_eq!(left, vec!["s00003-a01-pair.seg".to_string()]);
        }
        assert!(!dir.exists(), "session dir removed on drop");
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn empty_family_writes_no_file() {
        let session = SpillSession::create(None).unwrap();
        let mut w = session.writer(0, 0, "abuse", 64);
        w.finish().unwrap();
        let m = w.into_manifest();
        assert_eq!(m.rows(), 0);
        assert_eq!(std::fs::read_dir(session.dir()).unwrap().count(), 0);
        // Merging nothing is an empty store.
        let tables = Arc::new(EntityTables::default());
        assert!(merge_manifests(&[m], &tables).unwrap().is_empty());
    }

    #[test]
    fn gauge_tracks_peak_across_publishers() {
        let g = MemGauge::new();
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        g.publish(&a, 100);
        g.publish(&b, 50);
        assert_eq!(g.current(), 150);
        g.publish(&a, 20); // shrink after a flush
        assert_eq!(g.current(), 70);
        assert_eq!(g.peak(), 150);
        g.release(&b);
        assert_eq!(g.current(), 20);
        assert_eq!(g.peak(), 150, "peak never decreases");
    }

    #[test]
    fn storage_mode_helpers() {
        assert_eq!(StorageMode::default(), StorageMode::InMemory);
        assert_eq!(StorageMode::InMemory.label(), "memory");
        let s = StorageMode::spill();
        assert!(s.is_spill());
        assert_eq!(s.label(), "spill");
        assert_eq!(
            s,
            StorageMode::Spill {
                dir: None,
                segment_rows: DEFAULT_SEGMENT_ROWS
            }
        );
    }
}
