//! The run store: every retained row of a study lives in checksummed,
//! timestamp-sorted **runs**, with two byte backends.
//!
//! A shard's sink streams each dataset family into a [`SegmentWriter`]
//! that stages at most `segment_rows` records, stable-sorts each full
//! segment by timestamp, and appends it as one sorted run frame. Where
//! the frames go is the session's choice:
//!
//! - **file** ([`SpillSession::create`], [`StorageMode::Spill`]): frames
//!   append to a per-family segment file, so peak memory is bounded by
//!   the staging buffers, independent of the population;
//! - **memory** ([`SpillSession::in_memory`], [`StorageMode::InMemory`]):
//!   frames append to a `Vec<u8>`. The driver sets `segment_rows` to
//!   `usize::MAX` here, so each shard family is one run, sorted on the
//!   shard's worker when the sink finishes.
//!
//! The incremental engine's checkpoint day files are runs too: one frame
//! per file ([`write_checkpoint_segment`]), loaded back as in-memory runs
//! with their intern keys ([`load_checkpoint_segment`]). After the sim
//! phase, one k-way merge over all runs ([`merge_manifests`]) rebuilds
//! the canonical row order straight into columns.
//!
//! # Determinism (merge-by-concatenation)
//!
//! The canonical order is a *stable* sort by timestamp of the shard
//! outputs concatenated in plan order; ties resolve by emission order.
//! The runs reproduce it exactly:
//!
//! 1. within a run, the staging buffer is stable-sorted, so equal
//!    timestamps keep emission order;
//! 2. runs partition a shard's emission stream contiguously, and
//!    manifests are merged in plan order, so a global run index is
//!    order-isomorphic to "position in the concatenated stream";
//! 3. the k-way merge pops by `(timestamp, run index)`, which is exactly
//!    the stable sort's tie-break.
//!
//! The merge phase itself moves no records — shard manifests simply
//! concatenate in plan order ("merge-by-concatenation"); all inter-run
//! ordering is deferred to the single streaming pass that encodes rows
//! into the columnar stores.
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
//! * [`SpillError::Corrupt`] — stored data failed verification at read
//!   time: a bad run header, a truncated (torn) or padded frame, an
//!   unknown row tag, or a checksum mismatch. Reported with path, run
//!   index and byte offset.
//! * [`SpillError::Budget`] — admitting the next run would exceed the
//!   session's [`SpillPolicy::disk_budget_bytes`]. The driver maps this
//!   to a policy-governed degradation instead of filling the disk.
//!
//! Each run is one self-describing frame — a [`RUN_HEADER_BYTES`]-byte
//! header (magic, row count, xxHash64 chain checksum) followed by the
//! 35-byte rows — written by one encoder and checked by one verifier:
//! the merge verifies every file run before decoding a row from it, and
//! a checkpoint load verifies its file while collecting the keys, so torn
//! writes and flipped bytes are *detected*, never decoded into figures.
//! In-memory frames never left the process (or were verified when they
//! were loaded), so the merge streams them directly. A failed attempt's
//! partial files are deleted by [`SpillSession::remove_attempt`]; the
//! whole session directory is removed when the [`SpillSession`] drops —
//! on success and on failure paths alike.
//!
//! Deterministic I/O fault injection for chaos tests rides on
//! [`SpillFaultPlan`]: every decision is a pure function of (seed, stream
//! id, op index, io attempt), where the stream id hashes the file name —
//! which encodes shard, attempt and family — so injected faults are
//! byte-reproducible at any thread count. Fault injection, the disk
//! budget and [`SpillStats`] apply to the file backend only.

use std::collections::binary_heap::{BinaryHeap, PeekMut};
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
use crate::intern::{EntityTables, KeyCollector};
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

/// Rows the k-way merge collects before encoding them into columns.
const ENCODE_BATCH: usize = 1024;

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
    /// Every retained record stays in memory, as one sorted run per shard
    /// and family (frames in a `Vec<u8>`). Peak memory is O(retained
    /// records).
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

/// A shared high-water-mark gauge over the row bytes the sim phase holds
/// in memory: staging buffers (at 40 bytes per row) plus, in memory
/// mode, the finished run frames. Frozen columnar output, intern tables,
/// and merge cursors are excluded — the gauge measures what *scales with
/// work in flight*, which is what the file backend bounds.
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

/// One study run's run store. A file session owns a private directory:
/// files are created lazily by [`SegmentWriter`]s, and the directory (and
/// everything in it) is removed on drop, so a completed — or aborted —
/// run leaves nothing behind. A memory session keeps every frame in
/// memory.
#[derive(Debug)]
pub struct SpillSession {
    /// The session directory; `None` for a memory session.
    dir: Option<PathBuf>,
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
            dir: Some(dir),
            shared: Arc::new(SpillShared {
                policy,
                ..SpillShared::default()
            }),
        })
    }

    /// A session whose writers keep their frames in memory: no
    /// directory, no fault injection, no disk budget.
    pub fn in_memory() -> Self {
        Self {
            dir: None,
            shared: Arc::default(),
        }
    }

    /// The session directory (`None` for a memory session).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Snapshot of the session's storage-fault counters (all zero for a
    /// memory session).
    pub fn stats(&self) -> SpillStats {
        self.shared.stats()
    }

    /// The filename prefix shared by every file of one shard attempt.
    fn attempt_prefix(shard: usize, attempt: u32) -> String {
        format!("s{shard:05}-a{attempt:02}-")
    }

    /// A segment writer for one `(shard, attempt, family)` stream, backed
    /// by a file in a file session and by memory otherwise.
    pub fn writer(
        &self,
        shard: usize,
        attempt: u32,
        family: &str,
        segment_rows: usize,
    ) -> SegmentWriter {
        let name = format!("{}{family}.seg", Self::attempt_prefix(shard, attempt));
        let (path, frames) = match &self.dir {
            Some(dir) => (dir.join(name), Frames::File(None)),
            None => (PathBuf::from(name), Frames::Memory(Vec::new())),
        };
        SegmentWriter::new(path, frames, segment_rows, Arc::clone(&self.shared))
    }

    /// Best-effort removal of every file a failed attempt wrote, so a
    /// retried shard starts from a clean directory and a completed run
    /// holds only the files of successful attempts. Removed bytes are
    /// released back to the disk budget. (A memory attempt's frames drop
    /// with its writers.)
    pub fn remove_attempt(&self, shard: usize, attempt: u32) {
        let prefix = Self::attempt_prefix(shard, attempt);
        let Some(Ok(entries)) = self.dir.as_ref().map(std::fs::read_dir) else {
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
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One sorted run's location and verification data within its byte
/// backend: offset of its frame header, row count, chain checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunMeta {
    offset: u64,
    rows: u64,
    checksum: u64,
}

/// Where one family's sorted runs live — a segment file or frames in
/// memory — plus the frame metadata of each run, in emission order.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// The segment file; for frames in memory, the name errors report.
    path: PathBuf,
    /// The frames, when they live in memory; `None` reads `path`.
    frames: Option<Arc<Vec<u8>>>,
    runs: Vec<RunMeta>,
    shared: Arc<SpillShared>,
}

impl RunManifest {
    /// One in-memory run holding `rows` in the given (timestamp-sorted)
    /// order — how the incremental engine thaws a frozen store. `name`
    /// labels the run in error messages.
    pub fn from_rows(
        name: impl Into<PathBuf>,
        rows: impl IntoIterator<Item = RequestRecord>,
    ) -> Self {
        let mut frames = Vec::new();
        let meta = encode_frame(&mut frames, rows);
        Self {
            path: name.into(),
            frames: Some(Arc::new(frames)),
            runs: vec![meta],
            shared: Arc::default(),
        }
    }

    /// Total rows across all runs.
    pub fn rows(&self) -> u64 {
        self.runs.iter().map(|r| r.rows).sum()
    }

    /// Number of sorted runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }
}

/// The one run-frame encoder, shared by [`SegmentWriter`], checkpoint
/// saves and [`RunManifest::from_rows`]: appends `rows`, in the given
/// order, to `out` as magic, row count, chain checksum, then the 35-byte
/// rows. Returns the frame's metadata, its offset being its position in
/// `out`.
fn encode_frame(out: &mut Vec<u8>, rows: impl IntoIterator<Item = RequestRecord>) -> RunMeta {
    let rows = rows.into_iter();
    out.reserve(RUN_HEADER_BYTES + rows.size_hint().0 * SPILL_ROW_BYTES);
    let start = out.len();
    out.extend_from_slice(&RUN_MAGIC.to_le_bytes());
    out.extend_from_slice(&[0u8; 16]); // row count and checksum, patched below
    let mut buf = [0u8; SPILL_ROW_BYTES];
    let mut meta = RunMeta {
        offset: start as u64,
        rows: 0,
        checksum: CHECKSUM_SEED,
    };
    for r in rows {
        encode_row(&r, &mut buf);
        meta.checksum = stable_hash64(meta.checksum, &buf);
        meta.rows += 1;
        out.extend_from_slice(&buf);
    }
    out[start + 4..start + 12].copy_from_slice(&meta.rows.to_le_bytes());
    out[start + 12..start + 20].copy_from_slice(&meta.checksum.to_le_bytes());
    meta
}

/// Where a [`SegmentWriter`] appends its frames: the run store's two
/// byte backends.
#[derive(Debug)]
enum Frames {
    /// A segment file, created lazily on the first run.
    File(Option<File>),
    /// A buffer in memory.
    Memory(Vec<u8>),
}

/// Streams one family's records into bounded sorted runs.
///
/// Records are staged in memory; when the staging buffer reaches
/// `segment_rows` (or the stream finishes) it is stable-sorted by
/// timestamp and appended as one checksummed frame — to the segment file,
/// created lazily on the first flush so record-free families cost
/// nothing, or to the writer's in-memory buffer.
///
/// File writes are all-or-nothing: on any write failure (real or
/// injected) the file is truncated back to the pre-run length and the
/// whole frame is retried up to the policy's op-retry budget, after which
/// the error surfaces as a typed [`SpillError`].
#[derive(Debug)]
pub struct SegmentWriter {
    path: PathBuf,
    stream: u64,
    frames: Frames,
    /// Bytes of frames appended so far (the next run's offset).
    len: u64,
    staging: Vec<RequestRecord>,
    segment_rows: usize,
    runs: Vec<RunMeta>,
    write_ops: u64,
    shared: Arc<SpillShared>,
}

impl SegmentWriter {
    fn new(path: PathBuf, frames: Frames, segment_rows: usize, shared: Arc<SpillShared>) -> Self {
        debug_assert!(segment_rows > 0, "segment_rows must be non-zero");
        let stream = stream_id(&path);
        Self {
            path,
            stream,
            frames,
            len: 0,
            staging: Vec::new(),
            segment_rows: segment_rows.max(1),
            runs: Vec::new(),
            write_ops: 0,
            shared,
        }
    }

    /// Appends one record, flushing a full segment as one run.
    pub fn push(&mut self, rec: RequestRecord) -> Result<(), SpillError> {
        self.staging.push(rec);
        if self.staging.len() >= self.segment_rows {
            self.flush_run()?;
        }
        Ok(())
    }

    /// Bytes this writer holds in memory, the unit the [`MemGauge`]
    /// tracks: staged rows at their logical 40-byte size, plus the frames
    /// of a memory-backed writer.
    pub fn live_bytes(&self) -> u64 {
        let frames = match &self.frames {
            Frames::Memory(buf) => buf.len(),
            Frames::File(_) => 0,
        };
        (self.staging.len() * std::mem::size_of::<RequestRecord>() + frames) as u64
    }

    /// Sorts and appends the staged records as one checksummed run frame.
    fn flush_run(&mut self) -> Result<(), SpillError> {
        if self.staging.is_empty() {
            return Ok(());
        }
        // Stable: equal timestamps keep emission order.
        crate::kernels::radix_sort_records_by_ts(&mut self.staging);
        let meta = if let Frames::Memory(buf) = &mut self.frames {
            encode_frame(buf, self.staging.iter().copied())
        } else {
            // Build the whole frame in memory (bounded by the segment
            // envelope the staging buffer already paid for) so the write
            // is a single all-or-nothing op.
            let mut frame = Vec::new();
            let meta = encode_frame(&mut frame, self.staging.iter().copied());
            self.append_to_file(&frame)?;
            RunMeta {
                offset: self.len,
                ..meta
            }
        };
        self.len += RUN_HEADER_BYTES as u64 + meta.rows * SPILL_ROW_BYTES as u64;
        self.runs.push(meta);
        self.staging.clear();
        Ok(())
    }

    /// Appends one frame to the segment file within the disk budget.
    fn append_to_file(&mut self, frame: &[u8]) -> Result<(), SpillError> {
        // Disk-budget admission: reserve the frame before writing; the
        // reservation is released again on failure (and by
        // `remove_attempt` when a failed attempt's files are deleted).
        let frame_len = frame.len() as u64;
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
        self.write_frame(frame).inspect_err(|_| {
            self.shared.release_bytes(frame_len);
        })
    }

    /// Writes one frame at the current end of the segment file, rolling a
    /// torn write back and retrying within the op budget.
    fn write_frame(&mut self, frame: &[u8]) -> Result<(), SpillError> {
        let op = self.write_ops;
        self.write_ops += 1;
        let start = self.len;
        let path = &self.path;
        let Frames::File(slot) = &mut self.frames else {
            return Ok(()); // memory writers append in `flush_run`
        };
        let file = match slot {
            Some(f) => f,
            None => {
                slot.insert(File::create(path).map_err(|e| SpillError::io(path, IoOp::Create, &e))?)
            }
        };
        let mut io_attempt = 0u32;
        loop {
            let injected = self
                .shared
                .policy
                .faults
                .as_ref()
                .and_then(|p| p.write_failure(self.stream, op, io_attempt, frame.len()));
            let result = match injected {
                Some(short) => {
                    // Tear `short` frame bytes onto disk, then report the
                    // injected transient failure.
                    let _ = file.write_all(&frame[..short]);
                    Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "injected transient write fault",
                    ))
                }
                None => file.write_all(frame),
            };
            let Err(e) = result else {
                break;
            };
            // All-or-nothing: drop whatever prefix landed.
            file.set_len(start)
                .map_err(|t| SpillError::io(path, IoOp::Write, &t))?;
            file.seek(SeekFrom::Start(start))
                .map_err(|t| SpillError::io(path, IoOp::Seek, &t))?;
            if io_attempt >= self.shared.policy.max_io_retries {
                return Err(SpillError::io(path, IoOp::Write, &e));
            }
            self.shared.io_retries.fetch_add(1, Ordering::Relaxed);
            io_attempt += 1;
        }
        // Deterministic post-write corruption (chaos tests): flip one
        // payload byte so the read-side checksum must catch it.
        let corrupt_at = self.shared.policy.faults.as_ref().and_then(|plan| {
            plan.corrupt_offset(self.stream, op, (frame.len() - RUN_HEADER_BYTES) as u64)
        });
        if let Some(off) = corrupt_at {
            let pos = start + RUN_HEADER_BYTES as u64 + off;
            let flipped = [frame[RUN_HEADER_BYTES + off as usize] ^ 0xA5];
            file.seek(SeekFrom::Start(pos))
                .map_err(|e| SpillError::io(path, IoOp::Seek, &e))?;
            file.write_all(&flipped)
                .map_err(|e| SpillError::io(path, IoOp::Write, &e))?;
            file.seek(SeekFrom::Start(start + frame.len() as u64))
                .map_err(|e| SpillError::io(path, IoOp::Seek, &e))?;
        }
        Ok(())
    }

    /// Flushes the final partial run and the OS buffer, and releases the
    /// staging buffer. Idempotent.
    pub fn finish(&mut self) -> Result<(), SpillError> {
        self.flush_run()?;
        self.staging = Vec::new();
        if let Frames::File(Some(f)) = &mut self.frames {
            f.flush()
                .map_err(|e| SpillError::io(&self.path, IoOp::Flush, &e))?;
        }
        Ok(())
    }

    /// Consumes the writer into its manifest; [`SegmentWriter::finish`]
    /// must have been called (asserted).
    pub fn into_manifest(self) -> RunManifest {
        debug_assert!(self.staging.is_empty(), "into_manifest before finish()");
        let frames = match self.frames {
            Frames::Memory(buf) => Some(Arc::new(buf)),
            Frames::File(_) => None, // the file closes here
        };
        RunManifest {
            path: self.path,
            frames,
            runs: self.runs,
            shared: self.shared,
        }
    }
}

/// What a frame read reports when the bytes run out.
const TORN: &str = "unexpected end of file (torn write?)";

/// Counts one verification failure and builds its located error.
fn corrupt(
    shared: &SpillShared,
    path: &Path,
    run: usize,
    offset: u64,
    reason: String,
) -> SpillError {
    shared.checksum_failures.fetch_add(1, Ordering::Relaxed);
    SpillError::Corrupt {
        path: path.to_path_buf(),
        run,
        offset,
        reason,
    }
}

/// The bytes of run frames, read front to back: a segment file streamed
/// through the fault plan, or a byte slice in memory — so one verifier
/// and one merge cursor serve both backends.
trait FrameSource {
    /// Reads exactly `buf.len()` bytes. Running out of bytes is a torn
    /// frame: [`SpillError::Corrupt`] at `run` and `offset`.
    fn read_exact_at(&mut self, buf: &mut [u8], run: usize, offset: u64) -> Result<(), SpillError>;
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
}

impl FrameSource for FaultedReader {
    /// One read op: injected faults are decided *before* the data moves,
    /// so an op-level retry simply re-issues the same read.
    fn read_exact_at(&mut self, buf: &mut [u8], run: usize, offset: u64) -> Result<(), SpillError> {
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
                corrupt(&self.shared, &self.path, run, offset, TORN.into())
            } else {
                SpillError::io(&self.path, IoOp::Read, &e)
            }
        })
    }
}

/// A frame source over bytes in memory.
struct SliceReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a Path,
    shared: &'a SpillShared,
}

impl FrameSource for SliceReader<'_> {
    fn read_exact_at(&mut self, buf: &mut [u8], run: usize, offset: u64) -> Result<(), SpillError> {
        let end = self.pos + buf.len();
        let Some(bytes) = self.bytes.get(self.pos..end) else {
            return Err(corrupt(self.shared, self.path, run, offset, TORN.into()));
        };
        buf.copy_from_slice(bytes);
        self.pos = end;
        Ok(())
    }
}

/// The one run-frame verifier, shared by the merge cursor and checkpoint
/// loads. Reads the frame at `offset` from `src`: the header (magic; the
/// row count and checksum must equal `expect`'s when a manifest recorded
/// them), then every row — its family tag must decode, and the chain
/// checksum over all rows must equal the header's. A checksum mismatch is
/// reported before a bad tag, since a flipped byte explains both. `on_row`
/// sees each row that decoded; on `Err` the caller discards whatever it
/// collected. Verified payload bytes count toward
/// [`SpillStats::bytes_verified`].
fn verify_frame(
    src: &mut impl FrameSource,
    path: &Path,
    run: usize,
    offset: u64,
    expect: Option<&RunMeta>,
    shared: &SpillShared,
    mut on_row: impl FnMut(&RequestRecord),
) -> Result<RunMeta, SpillError> {
    let fail = |at: u64, reason: String| corrupt(shared, path, run, at, reason);
    let mut hdr = [0u8; RUN_HEADER_BYTES];
    src.read_exact_at(&mut hdr, run, offset)?;
    let magic = le_u32(&hdr[0..4]);
    if magic != RUN_MAGIC {
        return Err(fail(offset, format!("bad run magic {magic:#010x}")));
    }
    let meta = RunMeta {
        offset,
        rows: le_u64(&hdr[4..12]),
        checksum: le_u64(&hdr[12..20]),
    };
    if let Some(want) = expect {
        if meta.rows != want.rows {
            return Err(fail(
                offset,
                format!("header rows {} != manifest rows {}", meta.rows, want.rows),
            ));
        }
        if meta.checksum != want.checksum {
            return Err(fail(
                offset,
                format!(
                    "header checksum {:#018x} != manifest checksum {:#018x}",
                    meta.checksum, want.checksum
                ),
            ));
        }
    }
    let mut checksum = CHECKSUM_SEED;
    let mut bad_tag = None;
    let mut buf = [0u8; SPILL_ROW_BYTES];
    for row in 0..meta.rows {
        let row_offset = offset + RUN_HEADER_BYTES as u64 + row * SPILL_ROW_BYTES as u64;
        src.read_exact_at(&mut buf, run, row_offset)?;
        checksum = stable_hash64(checksum, &buf);
        match decode_row(&buf) {
            Ok(rec) => on_row(&rec),
            Err(tag) => {
                bad_tag.get_or_insert((row_offset + 12, tag)); // the family-tag byte
            }
        }
    }
    if checksum != meta.checksum {
        return Err(fail(
            offset,
            format!(
                "run checksum mismatch: computed {checksum:#018x}, expected {:#018x}",
                meta.checksum
            ),
        ));
    }
    if let Some((at, tag)) = bad_tag {
        return Err(fail(at, format!("unknown family tag {tag}")));
    }
    shared
        .bytes_verified
        .fetch_add(meta.rows * SPILL_ROW_BYTES as u64, Ordering::Relaxed);
    Ok(meta)
}

/// One run's streaming read cursor for the k-way merge.
///
/// A file run is **verified before it streams**: `open` makes one
/// [`verify_frame`] pass over it (checksum, length framing via short-read
/// detection, row tags), then reopens at the payload. Records therefore
/// decode from verified bytes only — corruption can never reach the
/// columnar encoder, whose intern lookups assume exactly the keys
/// collected before the rows were stored. A run in memory streams
/// directly: its frame never left the process, or was verified when it
/// was loaded.
struct RunCursor<'a> {
    src: Box<dyn FrameSource + 'a>,
    path: &'a Path,
    shared: &'a SpillShared,
    run: usize,
    /// Byte offset of the next row.
    offset: u64,
    /// Rows not yet read.
    left: u64,
}

impl<'a> RunCursor<'a> {
    fn open(m: &'a RunManifest, run: usize, meta: RunMeta) -> Result<Self, SpillError> {
        let payload = meta.offset + RUN_HEADER_BYTES as u64;
        let src: Box<dyn FrameSource + 'a> = match &m.frames {
            Some(frames) => Box::new(SliceReader {
                bytes: frames,
                pos: payload as usize,
                path: &m.path,
                shared: &m.shared,
            }),
            None => {
                // Op indices restart per cursor; basing them on the run's
                // row position keeps fault keying distinct across a file's
                // runs.
                let op_base = meta.offset / SPILL_ROW_BYTES as u64;
                let shared = || Arc::clone(&m.shared);
                let mut reader = FaultedReader::open(&m.path, meta.offset, op_base, shared())?;
                verify_frame(
                    &mut reader,
                    &m.path,
                    run,
                    meta.offset,
                    Some(&meta),
                    &m.shared,
                    |_| {},
                )?;
                Box::new(FaultedReader::open(&m.path, payload, op_base, shared())?)
            }
        };
        Ok(Self {
            src,
            path: &m.path,
            shared: &m.shared,
            run,
            offset: payload,
            left: meta.rows,
        })
    }

    fn next(&mut self) -> Result<Option<RequestRecord>, SpillError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        let at = self.offset;
        self.offset += SPILL_ROW_BYTES as u64;
        let mut buf = [0u8; SPILL_ROW_BYTES];
        self.src.read_exact_at(&mut buf, self.run, at)?;
        decode_row(&buf).map(Some).map_err(|tag| {
            corrupt(
                self.shared,
                self.path,
                self.run,
                at + 12,
                format!("unknown family tag {tag}"),
            )
        })
    }
}

/// K-way merges one family's manifests (in plan order) into a timestamp-
/// sorted columnar store encoded against shared intern tables.
///
/// Ties pop by global run index (manifest order × run order), which is
/// exactly the stable tie-break of a sort over the plan-order
/// concatenation — so the output columns are the same at any run
/// boundaries and in either byte backend. One cursor is open per run (a
/// file handle and small read buffer, or a slice of memory); no run is
/// ever re-buffered wholesale. Every file run's framing and checksum are
/// verified before it streams; corruption surfaces as a typed error,
/// never as silently wrong figures.
pub fn merge_manifests(
    manifests: &[RunManifest],
    tables: &Arc<EntityTables>,
) -> Result<ColumnStore, SpillError> {
    let mut cursors: Vec<RunCursor<'_>> = Vec::new();
    let mut total_rows: usize = 0;
    for m in manifests {
        for (run, &meta) in m.runs.iter().enumerate() {
            if meta.rows > 0 {
                cursors.push(RunCursor::open(m, run, meta)?);
                total_rows += meta.rows as usize;
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
    // Replacing the top in place costs one sift per row, not a pop and a
    // push; the keys are unique, so the pop order is the same. Rows are
    // encoded in batches: the heap's unpredictable branches would
    // otherwise stall the intern lookups' cache misses one at a time.
    let mut batch = Vec::with_capacity(ENCODE_BATCH);
    while let Some(mut top) = heap.peek_mut() {
        let std::cmp::Reverse((_, i)) = *top;
        if let Some(r) = current[i].take() {
            batch.push(r);
            if batch.len() == ENCODE_BATCH {
                batch.drain(..).for_each(|r| cols.push_encoded(&r, tables));
            }
        }
        match cursors[i].next()? {
            Some(r) => {
                *top = std::cmp::Reverse((r.ts.secs(), i));
                current[i] = Some(r);
            }
            None => {
                PeekMut::pop(top);
            }
        }
    }
    batch.drain(..).for_each(|r| cols.push_encoded(&r, tables));
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

/// Writes `rows`, in the given order, to `path` as one run frame — the
/// incremental engine's day-file format, whose rows are a frozen store's
/// canonical day slice, already sorted. The write is atomic
/// ([`write_atomic`]).
pub fn write_checkpoint_segment(
    path: &Path,
    rows: impl IntoIterator<Item = RequestRecord>,
) -> Result<(), SpillError> {
    let mut frame = Vec::new();
    encode_frame(&mut frame, rows);
    write_atomic(path, &frame).map_err(|e| SpillError::io(path, IoOp::Write, &e))
}

/// Replaces `path` with `bytes` crash-safely: the bytes go to a
/// temporary sibling (`<name>.tmp`), are synced, then renamed over
/// `path`, so a reader sees the old file or the whole new one, never a
/// torn one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)
}

/// Loads one checkpoint day file as an in-memory run, checking it with
/// the verifier the merge uses while collecting the intern keys of its
/// rows. A torn, padded or flipped file surfaces as
/// [`SpillError::Corrupt`] naming the file, never as silently wrong rows.
pub fn load_checkpoint_segment(path: &Path) -> Result<(RunManifest, KeyCollector), SpillError> {
    let bytes = std::fs::read(path).map_err(|e| SpillError::io(path, IoOp::Read, &e))?;
    let shared = Arc::new(SpillShared::default());
    let mut keys = KeyCollector::new();
    let mut src = SliceReader {
        bytes: &bytes,
        pos: 0,
        path,
        shared: &shared,
    };
    let meta = verify_frame(&mut src, path, 0, 0, None, &shared, |r| keys.add(r))?;
    let end = src.pos;
    if end != bytes.len() {
        return Err(corrupt(
            &shared,
            path,
            0,
            end as u64,
            format!("{} bytes past the end of the frame", bytes.len() - end),
        ));
    }
    keys.compact();
    let manifest = RunManifest {
        path: path.to_path_buf(),
        frames: Some(Arc::new(bytes)),
        runs: vec![meta],
        shared,
    };
    Ok((manifest, keys))
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The rows of a one-run manifest, in stored order, through the merge
    /// cursor (no timestamp order required).
    fn run_rows(m: &RunManifest) -> Vec<RequestRecord> {
        let mut cursor = RunCursor::open(m, 0, m.runs[0]).unwrap();
        std::iter::from_fn(|| cursor.next().unwrap()).collect()
    }

    /// A scratch directory removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("ipv6-run-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn checkpoint_segment_round_trips_in_order() {
        let dir = TempDir::new("ckpt-roundtrip");
        let path = dir.0.join("day-roundtrip.seg");
        // Deliberately NOT timestamp-sorted: the checkpoint codec must
        // preserve the caller's order exactly.
        let rows = vec![
            rec(3, 9, "2001:db8::3"),
            rec(1, 0, "10.0.0.1"),
            rec(2, 9, "2001:db8::2"),
        ];
        write_checkpoint_segment(&path, rows.iter().copied()).unwrap();
        let (m, keys) = load_checkpoint_segment(&path).unwrap();
        assert_eq!(run_rows(&m), rows);
        assert_eq!(keys.into_tables(), EntityTables::from_records(&rows));
        assert!(
            !dir.0.join("day-roundtrip.seg.tmp").exists(),
            "temp renamed away"
        );

        write_checkpoint_segment(&path, []).unwrap();
        let (m, keys) = load_checkpoint_segment(&path).unwrap();
        assert_eq!(m.rows(), 0);
        assert_eq!(keys.into_tables(), EntityTables::default());
    }

    /// A checkpoint day file is exactly one run frame, byte-for-byte what
    /// earlier releases wrote: these constants were computed with the
    /// original checkpoint writer, so state dirs it produced stay
    /// readable.
    #[test]
    fn checkpoint_frame_bytes_are_pinned() {
        let dir = TempDir::new("ckpt-pin");
        let path = dir.0.join("pin.seg");
        let rows = [
            rec(3, 9, "2001:db8::3"),
            rec(1, 0, "10.0.0.1"),
            rec(2, 9, "2001:db8::2"),
            rec(u64::MAX, 86_399, "255.255.255.255"),
        ];
        write_checkpoint_segment(&path, rows).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), RUN_HEADER_BYTES + 4 * SPILL_ROW_BYTES);
        assert_eq!(
            le_u64(&bytes[12..20]),
            0x2645_7182_64db_44ee,
            "chain checksum"
        );
        assert_eq!(
            stable_hash64(0, &bytes),
            0xac34_e9fb_e596_1d6d,
            "frame bytes"
        );
        // The in-memory thaw encodes the same frame.
        let thawed = RunManifest::from_rows("pin", rows);
        assert_eq!(thawed.frames.as_deref(), Some(&bytes));
    }

    /// Every verification failure of a checkpoint load is a typed
    /// `Corrupt` naming the file — torn, padded, flipped, bad magic, bad
    /// tag — from the same verifier the merge cursor uses.
    #[test]
    fn checkpoint_load_detects_torn_padded_flipped_and_bad_tags() {
        let dir = TempDir::new("ckpt-chaos");
        let path = dir.0.join("day-corrupt.seg");
        let rows = [rec(1, 0, "10.0.0.1"), rec(2, 1, "2001:db8::2")];
        write_checkpoint_segment(&path, rows).unwrap();
        let good = std::fs::read(&path).unwrap();
        let reason_of = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            match load_checkpoint_segment(&path).unwrap_err() {
                SpillError::Corrupt {
                    path: at, reason, ..
                } => {
                    assert_eq!(at, path);
                    reason
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        };

        let mut flipped = good.clone();
        flipped[RUN_HEADER_BYTES + 3] ^= 0xA5;
        assert!(reason_of(&flipped).contains("checksum mismatch"));

        assert!(reason_of(&good[..good.len() - 7]).contains("torn write"));

        let mut padded = good.clone();
        padded.extend_from_slice(&[0u8; 5]);
        assert!(reason_of(&padded).contains("5 bytes past the end"));

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(reason_of(&bad_magic).contains("bad run magic"));

        // A bad tag under a re-sealed checksum: the tag check must catch
        // it, at the tag byte.
        let mut bad_tag = good.clone();
        bad_tag[RUN_HEADER_BYTES + SPILL_ROW_BYTES + 12] = 9;
        let checksum = bad_tag[RUN_HEADER_BYTES..]
            .chunks(SPILL_ROW_BYTES)
            .fold(CHECKSUM_SEED, stable_hash64);
        bad_tag[12..20].copy_from_slice(&checksum.to_le_bytes());
        assert!(reason_of(&bad_tag).contains("unknown family tag 9"));

        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            load_checkpoint_segment(&path).unwrap_err(),
            SpillError::Io { op: IoOp::Read, .. }
        ));
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

        // Reference: concatenate in plan order, then std's stable sort.
        let mut reference: Vec<RequestRecord> = shard_a.iter().chain(&shard_b).copied().collect();
        reference.sort_by_key(|r| r.ts);

        let tables = tables_of(&reference);
        let frozen = merge_into_frozen(&manifests, &tables).unwrap();
        assert_eq!(
            frozen.all().records().collect::<Vec<_>>(),
            reference,
            "k-way merge must equal the stable concatenation sort"
        );
        // Spill-built columns are exactly sized (the bytes() contract).
        assert_eq!(frozen.bytes(), frozen.len() * 18);
        // The merge's one verified read pass counted every payload byte.
        assert_eq!(session.stats().bytes_verified, 7 * SPILL_ROW_BYTES as u64);
        assert_eq!(session.stats().checksum_failures, 0);
    }

    /// The memory backend keeps its frames in memory — no files, no
    /// storage counters — and merges to exactly the file backend's
    /// columns, at any run boundaries.
    #[test]
    fn memory_backend_matches_the_file_backend() {
        let records: Vec<RequestRecord> = (0..40u64)
            .map(|i| {
                let ip = if i % 3 == 0 {
                    "10.0.0.1"
                } else {
                    "2001:db8::1"
                };
                rec(i % 7, (i * 7 % 11) as u32, ip)
            })
            .collect();
        let merge = |session: &SpillSession, segment_rows: usize| {
            let manifests: Vec<RunManifest> = records
                .chunks(15)
                .enumerate()
                .map(|(shard, chunk)| {
                    let mut w = session.writer(shard, 0, "request", segment_rows);
                    for &r in chunk {
                        w.push(r).unwrap();
                    }
                    w.finish().unwrap();
                    w.into_manifest()
                })
                .collect();
            merge_manifests(&manifests, &tables_of(&records)).unwrap()
        };
        let file = SpillSession::create(None).unwrap();
        let memory = SpillSession::in_memory();
        assert!(memory.dir().is_none());
        let expected = merge(&file, 4);
        assert_eq!(merge(&memory, usize::MAX), expected);
        assert_eq!(merge(&memory, 4), expected);
        assert_eq!(memory.stats(), SpillStats::default());

        // The gauge unit: staged rows at 40 bytes, then the frame.
        let mut w = memory.writer(0, 0, "user", usize::MAX);
        for &r in &records[..10] {
            w.push(r).unwrap();
        }
        let row = std::mem::size_of::<RequestRecord>() as u64;
        assert_eq!(w.live_bytes(), 10 * row);
        w.finish().unwrap();
        let frame = (RUN_HEADER_BYTES + 10 * SPILL_ROW_BYTES) as u64;
        assert_eq!(w.live_bytes(), frame);
        assert_eq!(w.into_manifest().run_count(), 1);
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
            dir = session.dir().unwrap().to_path_buf();
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
        assert_eq!(
            std::fs::read_dir(session.dir().unwrap()).unwrap().count(),
            0
        );
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
