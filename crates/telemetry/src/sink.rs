//! The request-consumer abstraction between simulators and datasets.
//!
//! Emitters (the behavior and abuse simulators) produce a stream of
//! [`RequestRecord`]s; what happens to each record — sampling into the
//! study datasets, wholesale retention in a [`RequestStore`], streaming
//! into bounded spill segments, forking to several consumers — is the
//! caller's business. [`RequestSink`] is that seam: emitters take
//! `&mut dyn RequestSink`, and this module provides the standard
//! implementations:
//!
//! - [`ShardSink`] — the production path: routes each record through the
//!   deterministic §3.1 samplers *during* the sim phase, retaining each
//!   dataset family either in memory or as sorted spill segments
//!   ([`SinkStorage`]) and collecting the intern keys of every row it
//!   keeps,
//! - [`StudyDatasets`] — routes through the samplers into in-memory
//!   stores only (tests and ad-hoc pipelines),
//! - [`RequestStore`] — keeps everything (useful for bounded windows like
//!   the pair-week store, and in tests),
//! - [`FnSink`] — adapts a closure (tests and one-off probes).
//!
//! # Lifecycle
//!
//! The trait is **sealed** — the record lifecycle below is a contract
//! between the driver and this crate's sinks, not an extension point
//! (adapt external consumers through [`FnSink`]):
//!
//! 1. [`RequestSink::push`] for every record, in emission order;
//! 2. [`RequestSink::flush_segment`] at stream-defined boundaries (the
//!    driver calls it once per simulated day) — sinks may publish
//!    progress/memory telemetry; spill-backed sinks need no forcing here
//!    because segments auto-flush at `segment_rows`;
//! 3. [`RequestSink::finish`] exactly once at end of stream — spill
//!    staging buffers drain to disk as the final (partial) run.
//!
//! For simple sinks both `flush_segment` and `finish` are no-ops.
//!
//! # Storage faults
//!
//! `push` is deliberately infallible — emitters are pure simulation code
//! and never handle I/O. A spill-backed [`ShardSink`] instead **latches**
//! the first typed [`SpillError`] its writers raise: subsequent records
//! are counted but no longer routed, [`ShardSink::io_error`] exposes the
//! latched error (the driver polls it at day boundaries to fail fast),
//! and [`ShardSink::into_payload`] refuses to produce a payload, so a
//! faulted attempt can never feed partial data into the merge.

use std::sync::atomic::AtomicU64;

use ipv6_study_netaddr::Ipv6Prefix;

use crate::dataset::StudyDatasets;
use crate::intern::KeyCollector;
use crate::record::RequestRecord;
use crate::sampler::Samplers;
use crate::spill::{MemGauge, RunManifest, SegmentWriter, SpillError, SpillSession};
use crate::store::RequestStore;

mod sealed {
    //! Seals [`super::RequestSink`]: only this crate's sinks implement it.
    pub trait Sealed {}
}

/// A consumer of simulated platform requests.
///
/// Object-safe on purpose: emitters take `&mut dyn RequestSink` so the
/// simulation crates compile once regardless of where records end up.
/// Sealed: the `push`/`flush_segment`/`finish` lifecycle is a closed
/// contract (see the module docs); external consumers adapt via
/// [`FnSink`].
pub trait RequestSink: sealed::Sealed {
    /// Accepts one request record.
    fn push(&mut self, rec: RequestRecord);

    /// Marks a stream boundary (the driver calls this once per simulated
    /// day). Sinks may publish telemetry or compact buffers; the default
    /// does nothing.
    fn flush_segment(&mut self) {}

    /// Marks end of stream: buffered state must become durable (spill
    /// staging drains to disk). Called exactly once; the default does
    /// nothing.
    fn finish(&mut self) {}
}

impl sealed::Sealed for StudyDatasets {}
impl RequestSink for StudyDatasets {
    fn push(&mut self, rec: RequestRecord) {
        self.offer(rec);
    }
}

impl sealed::Sealed for RequestStore {}
impl RequestSink for RequestStore {
    fn push(&mut self, rec: RequestRecord) {
        RequestStore::push(self, rec);
    }
}

impl sealed::Sealed for &mut dyn RequestSink {}
/// Forwarding through a mutable reference, so `&mut dyn RequestSink` can
/// itself be handed to an emitter.
impl RequestSink for &mut dyn RequestSink {
    fn push(&mut self, rec: RequestRecord) {
        (**self).push(rec);
    }

    fn flush_segment(&mut self) {
        (**self).flush_segment();
    }

    fn finish(&mut self) {
        (**self).finish();
    }
}

/// Adapts a closure into a sink.
///
/// A blanket `impl<F: FnMut(..)> RequestSink for F` would collide with the
/// concrete impls above under coherence rules, so closures are wrapped
/// explicitly: `&mut FnSink(|rec| ...)`. This is also the escape hatch
/// through the sealed trait for external consumers.
pub struct FnSink<F: FnMut(RequestRecord)>(pub F);

impl<F: FnMut(RequestRecord)> sealed::Sealed for FnSink<F> {}
impl<F: FnMut(RequestRecord)> RequestSink for FnSink<F> {
    fn push(&mut self, rec: RequestRecord) {
        (self.0)(rec);
    }
}

/// Where a [`ShardSink`] keeps each retained dataset family.
pub enum SinkStorage<'a> {
    /// Rows accumulate in per-family [`RequestStore`]s (the original
    /// pipeline).
    Memory,
    /// Rows stream into per-family [`SegmentWriter`]s under a shared
    /// [`SpillSession`]; at most `segment_rows` rows per family are ever
    /// staged in memory.
    Spill {
        /// The run's spill session (owns the directory).
        session: &'a SpillSession,
        /// Shard index (names the spill files).
        shard: usize,
        /// Attempt number (names the spill files, so a failed attempt's
        /// files can be removed without touching a retry's).
        attempt: u32,
        /// Rows staged per family before a sorted run is appended.
        segment_rows: usize,
    },
}

/// One dataset family's backing storage inside a [`ShardSink`].
enum FamilyStore {
    Memory(RequestStore),
    Spill(SegmentWriter),
}

impl FamilyStore {
    fn new(storage: &SinkStorage<'_>, family: &str) -> Self {
        match *storage {
            SinkStorage::Memory => FamilyStore::Memory(RequestStore::new()),
            SinkStorage::Spill {
                session,
                shard,
                attempt,
                segment_rows,
            } => FamilyStore::Spill(session.writer(shard, attempt, family, segment_rows)),
        }
    }

    fn push(&mut self, rec: RequestRecord) -> Result<(), SpillError> {
        match self {
            FamilyStore::Memory(s) => {
                s.push(rec);
                Ok(())
            }
            FamilyStore::Spill(w) => w.push(rec),
        }
    }

    /// Mutable row bytes this family currently holds in memory.
    fn live_bytes(&self) -> u64 {
        match self {
            FamilyStore::Memory(s) => (s.len() * std::mem::size_of::<RequestRecord>()) as u64,
            FamilyStore::Spill(w) => w.staged_bytes(),
        }
    }

    fn finish(&mut self) -> Result<(), SpillError> {
        if let FamilyStore::Spill(w) = self {
            w.finish()?;
        }
        Ok(())
    }

    fn into_payload(self) -> FamilyPayload {
        match self {
            FamilyStore::Memory(s) => FamilyPayload::Rows(s),
            FamilyStore::Spill(w) => FamilyPayload::Runs(vec![w.into_manifest()]),
        }
    }
}

/// One dataset family's finished output: in-memory rows or spilled run
/// manifests, depending on the run's [`SinkStorage`].
pub enum FamilyPayload {
    /// The family's records, resident in memory.
    Rows(RequestStore),
    /// The family's records, spilled as sorted runs on disk: one manifest
    /// per shard, in plan order.
    Runs(Vec<RunManifest>),
}

impl Default for FamilyPayload {
    /// No records (the neutral element of [`FamilyPayload::append`]).
    fn default() -> Self {
        FamilyPayload::Rows(RequestStore::new())
    }
}

impl FamilyPayload {
    /// Records in this family.
    pub fn rows(&self) -> u64 {
        match self {
            FamilyPayload::Rows(s) => s.len() as u64,
            FamilyPayload::Runs(m) => m.iter().map(RunManifest::rows).sum(),
        }
    }

    /// Appends `other`'s records after this family's own, preserving
    /// both orders — the driver's plan-order merge. Row stores
    /// concatenate; manifest lists concatenate without moving a record.
    ///
    /// # Panics
    /// Panics when one side holds rows and the other runs, unless the row
    /// side is empty: one run never mixes storage modes.
    pub fn append(&mut self, other: FamilyPayload) {
        match (&mut *self, other) {
            (FamilyPayload::Rows(a), FamilyPayload::Rows(b)) => a.extend_from(b),
            (FamilyPayload::Runs(a), FamilyPayload::Runs(b)) => a.extend(b),
            (FamilyPayload::Rows(a), runs) if a.is_empty() => *self = runs,
            (FamilyPayload::Runs(_), FamilyPayload::Rows(b)) if b.is_empty() => {}
            _ => panic!("a dataset family cannot mix in-memory rows and spilled runs"),
        }
    }
}

/// The retained dataset families of a study in **freeze order**: the
/// request, user and IP samples, the prefix samples ascending by length,
/// then the full-fidelity abuse and pair-window streams.
///
/// Generic over what a family holds: shard sinks hand over
/// `Families<FamilyPayload>`, the driver merges those in plan order, and
/// the freeze turns them into `Families<FrozenStore>` — one shape from
/// the sim to the analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Families<T> {
    /// Record random sample (§3.1).
    pub request: T,
    /// User random sample (§3.1).
    pub user: T,
    /// IP random sample (§3.1).
    pub ip: T,
    /// Per-length IPv6 prefix random samples, ascending by length.
    pub prefixes: Vec<(u8, T)>,
    /// Full-fidelity abuse stream (empty for benign shards).
    pub abuse: T,
    /// Full-fidelity pair-window stream (last study days).
    pub pair: T,
}

impl<T> Families<T> {
    /// Families for the given prefix lengths (sorted and deduplicated
    /// here), every family `T::default()`.
    pub fn new(prefix_lengths: &[u8]) -> Self
    where
        T: Default,
    {
        Self::with(prefix_lengths, |_| T::default())
    }

    /// Families for the given prefix lengths (sorted and deduplicated
    /// here), each built by `make` from its name (`request`, `user`,
    /// `ip`, `p<len>`, `abuse`, `pair`) in freeze order.
    pub fn with(prefix_lengths: &[u8], mut make: impl FnMut(&str) -> T) -> Self {
        let mut lengths = prefix_lengths.to_vec();
        lengths.sort_unstable();
        lengths.dedup();
        Self {
            request: make("request"),
            user: make("user"),
            ip: make("ip"),
            prefixes: lengths
                .into_iter()
                .map(|len| (len, make(&format!("p{len}"))))
                .collect(),
            abuse: make("abuse"),
            pair: make("pair"),
        }
    }

    /// The prefix lengths, ascending.
    pub fn prefix_lengths(&self) -> Vec<u8> {
        self.prefixes.iter().map(|(len, _)| *len).collect()
    }

    /// Number of families.
    fn len(&self) -> usize {
        5 + self.prefixes.len()
    }

    /// The families in freeze order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        [&self.request, &self.user, &self.ip]
            .into_iter()
            .chain(self.prefixes.iter().map(|(_, f)| f))
            .chain([&self.abuse, &self.pair])
    }

    /// The families in freeze order, by value.
    pub fn into_vec(self) -> Vec<T> {
        let mut v = Vec::with_capacity(self.len());
        v.extend([self.request, self.user, self.ip]);
        v.extend(self.prefixes.into_iter().map(|(_, f)| f));
        v.extend([self.abuse, self.pair]);
        v
    }

    /// Rebuilds families from values in freeze order — the inverse of
    /// [`Families::into_vec`] for the given ascending prefix lengths.
    /// `None` when the value count does not match.
    pub fn from_vec(prefix_lengths: &[u8], values: Vec<T>) -> Option<Self> {
        if values.len() != 5 + prefix_lengths.len() {
            return None;
        }
        let mut it = values.into_iter();
        let mut next = || it.next();
        Some(Self {
            request: next()?,
            user: next()?,
            ip: next()?,
            prefixes: prefix_lengths
                .iter()
                .map(|&len| next().map(|f| (len, f)))
                .collect::<Option<_>>()?,
            abuse: next()?,
            pair: next()?,
        })
    }

    /// Pairs every family with the same family of `other`.
    ///
    /// # Panics
    /// Panics when the prefix-length sets differ.
    pub fn zip<U>(self, other: Families<U>) -> Families<(T, U)> {
        assert_eq!(
            self.prefix_lengths(),
            other.prefix_lengths(),
            "cannot pair families with different prefix-length sets"
        );
        Families {
            request: (self.request, other.request),
            user: (self.user, other.user),
            ip: (self.ip, other.ip),
            prefixes: self
                .prefixes
                .into_iter()
                .zip(other.prefixes)
                .map(|((len, a), (_, b))| (len, (a, b)))
                .collect(),
            abuse: (self.abuse, other.abuse),
            pair: (self.pair, other.pair),
        }
    }

    /// Applies `f` to every family, keeping the shape.
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Families<U> {
        Families {
            request: f(self.request),
            user: f(self.user),
            ip: f(self.ip),
            prefixes: self
                .prefixes
                .into_iter()
                .map(|(len, v)| (len, f(v)))
                .collect(),
            abuse: f(self.abuse),
            pair: f(self.pair),
        }
    }
}

impl Families<FamilyPayload> {
    /// Appends every family of `other` after this one's (plan-order
    /// merge, see [`FamilyPayload::append`]).
    ///
    /// # Panics
    /// Panics when the prefix-length sets differ.
    pub fn append(&mut self, other: Families<FamilyPayload>) {
        *self = std::mem::take(self).zip(other).map(|(mut mine, theirs)| {
            mine.append(theirs);
            mine
        });
    }
}

/// Everything a finished [`ShardSink`] produced, handed back to the
/// driver for the merge phase.
pub struct ShardPayload {
    /// The retained families.
    pub families: Families<FamilyPayload>,
    /// The distinct entity keys of every retained row — the shard's share
    /// of the study's intern tables, so the freeze never re-reads rows to
    /// find them.
    pub keys: KeyCollector,
    /// Records offered to the samplers (excludes nothing; the abuse
    /// stream sees the same records before sampling).
    pub offered: u64,
    /// Total records pushed through the sink.
    pub records: u64,
}

/// The production per-shard sink: applies the §3.1 [`Samplers`] to every
/// record *during* the sim phase and retains each dataset family in the
/// configured [`SinkStorage`].
///
/// One sink lives for one shard attempt. The routing order per record is
/// fixed (it defines emission order within every family, which the golden
/// digests pin): full-fidelity abuse stream (abuse shards), then the
/// request/user/ip samples, then each prefix sample ascending by length,
/// then the pair-window stream when [`ShardSink::set_pair_routing`] is on.
pub struct ShardSink<'a> {
    samplers: Samplers,
    families: Families<FamilyStore>,
    /// Whether the full-fidelity abuse stream is on (abuse shards).
    collect_abuse: bool,
    pair_routing: bool,
    keys: KeyCollector,
    offered: u64,
    records: u64,
    gauge: Option<(&'a MemGauge, &'a AtomicU64)>,
    /// The first storage error a spill writer raised; once set, records
    /// are counted but no longer routed (see "Storage faults" above).
    error: Option<SpillError>,
}

impl<'a> ShardSink<'a> {
    /// Creates a sink for one shard attempt.
    ///
    /// `prefix_lengths` need not be sorted or unique; the sink routes in
    /// ascending-length order. `collect_abuse` turns on the full-fidelity
    /// abuse stream (abuse shards). `gauge` is the run-wide memory
    /// high-water gauge plus this attempt's published counter; pass
    /// `None` to skip memory telemetry.
    pub fn new(
        samplers: Samplers,
        prefix_lengths: &[u8],
        collect_abuse: bool,
        storage: SinkStorage<'a>,
        gauge: Option<(&'a MemGauge, &'a AtomicU64)>,
    ) -> Self {
        Self {
            samplers,
            families: Families::with(prefix_lengths, |name| FamilyStore::new(&storage, name)),
            collect_abuse,
            pair_routing: false,
            keys: KeyCollector::new(),
            offered: 0,
            records: 0,
            gauge,
            error: None,
        }
    }

    /// Toggles the full-fidelity pair-window stream (the driver enables
    /// it for the last three study days).
    pub fn set_pair_routing(&mut self, on: bool) {
        self.pair_routing = on;
    }

    /// Total records pushed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The latched storage error, if a spill writer has failed. The
    /// driver polls this at day boundaries so a faulted attempt stops
    /// simulating instead of pushing into a dead sink.
    pub fn io_error(&self) -> Option<&SpillError> {
        self.error.as_ref()
    }

    /// Routes one record through the samplers into the family stores,
    /// recording its entity keys when any family keeps it, and surfacing
    /// the first storage error.
    fn route(&mut self, rec: RequestRecord) -> Result<(), SpillError> {
        let f = &mut self.families;
        let mut kept = false;
        if self.collect_abuse {
            f.abuse.push(rec)?;
            kept = true;
        }
        self.offered += 1;
        if self.samplers.request_sampled(&rec) {
            f.request.push(rec)?;
            kept = true;
        }
        if self.samplers.user_sampled(rec.user) {
            f.user.push(rec)?;
            kept = true;
        }
        if self.samplers.ip_sampled(&rec) {
            f.ip.push(rec)?;
            kept = true;
        }
        if let Some(addr) = rec.ipv6() {
            for (len, store) in &mut f.prefixes {
                if self
                    .samplers
                    .prefix_sampled(Ipv6Prefix::containing(addr, *len))
                {
                    store.push(rec)?;
                    kept = true;
                }
            }
        }
        if self.pair_routing {
            f.pair.push(rec)?;
            kept = true;
        }
        if kept {
            self.keys.add(&rec);
        }
        Ok(())
    }

    /// Finishes every family store, surfacing the first storage error.
    fn finish_families(&mut self) -> Result<(), SpillError> {
        let f = &mut self.families;
        for store in [&mut f.request, &mut f.user, &mut f.ip] {
            store.finish()?;
        }
        for (_, store) in &mut f.prefixes {
            store.finish()?;
        }
        f.abuse.finish()?;
        f.pair.finish()
    }

    /// Mutable row bytes currently held in memory across all families.
    fn live_bytes(&self) -> u64 {
        self.families.iter().map(FamilyStore::live_bytes).sum()
    }

    fn publish_gauge(&self) {
        if let Some((gauge, published)) = self.gauge {
            gauge.publish(published, self.live_bytes());
        }
    }

    /// Consumes the sink into its payload. [`RequestSink::finish`] must
    /// have been called first (spill writers assert it). A sink that
    /// latched a storage error refuses to produce a payload — the typed
    /// error surfaces instead, so partial data never reaches the merge.
    /// The key set is compacted here, on the shard's worker, so the
    /// driver's union starts from per-shard distinct keys.
    pub fn into_payload(mut self) -> Result<ShardPayload, SpillError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.keys.compact();
        Ok(ShardPayload {
            families: self.families.map(FamilyStore::into_payload),
            keys: self.keys,
            offered: self.offered,
            records: self.records,
        })
    }
}

impl sealed::Sealed for ShardSink<'_> {}
impl RequestSink for ShardSink<'_> {
    fn push(&mut self, rec: RequestRecord) {
        self.records += 1;
        if self.error.is_some() {
            return; // latched: count, don't route
        }
        if let Err(e) = self.route(rec) {
            self.error = Some(e);
        }
    }

    fn flush_segment(&mut self) {
        self.publish_gauge();
    }

    fn finish(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.finish_families() {
                self.error = Some(e);
            }
        }
        self.publish_gauge();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Asn, Country, UserId};
    use crate::sampler::Samplers;
    use crate::time::SimDate;

    fn rec(user: u64, sec: u32) -> RequestRecord {
        RequestRecord {
            ts: crate::time::Timestamp::from_secs(SimDate::ymd(4, 13).start().secs() + sec),
            user: UserId(user),
            ip: "2001:db8::1".parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    fn keep_all() -> Samplers {
        Samplers {
            request_rate: 1.0,
            user_rate: 1.0,
            ip_rate: 1.0,
            prefix_rate: 0.0,
        }
    }

    #[test]
    fn store_sink_keeps_everything() {
        let mut store = RequestStore::new();
        let sink: &mut dyn RequestSink = &mut store;
        sink.push(rec(1, 0));
        sink.push(rec(2, 1));
        sink.flush_segment(); // default no-op
        sink.finish();
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn dataset_sink_routes_through_offer() {
        let mut d = StudyDatasets::with_prefix_lengths(keep_all(), &[]);
        let sink: &mut dyn RequestSink = &mut d;
        sink.push(rec(7, 0));
        assert_eq!(d.offered, 1);
        assert_eq!(d.request_sample.len(), 1);
    }

    #[test]
    fn fn_sink_adapts_closures() {
        let mut seen = Vec::new();
        let mut sink = FnSink(|r: RequestRecord| seen.push(r.user));
        sink.push(rec(3, 0));
        sink.push(rec(4, 1));
        assert_eq!(seen, vec![UserId(3), UserId(4)]);
    }

    #[test]
    fn shard_sink_routes_like_study_datasets() {
        // Reference path: StudyDatasets + external abuse/pair stores.
        let samplers = Samplers::scaled_for(1_000);
        let records: Vec<RequestRecord> = (0..2_000).map(|i| rec(i % 97, i as u32)).collect();

        let mut reference = StudyDatasets::with_prefix_lengths(samplers.clone(), &[48, 64]);
        let mut ref_pair = RequestStore::new();
        for (i, r) in records.iter().enumerate() {
            reference.offer(*r);
            if i >= 1_000 {
                ref_pair.push(*r);
            }
        }

        let mut sink = ShardSink::new(samplers, &[64, 48, 48], false, SinkStorage::Memory, None);
        for (i, r) in records.iter().enumerate() {
            if i == 1_000 {
                sink.set_pair_routing(true);
            }
            sink.push(*r);
        }
        sink.finish();
        let payload = sink.into_payload().unwrap();

        assert_eq!(payload.offered, reference.offered);
        assert_eq!(payload.records, 2_000);
        let f = &payload.families;
        let rows = |p: &FamilyPayload| match p {
            FamilyPayload::Rows(s) => s.len(),
            FamilyPayload::Runs(_) => unreachable!("memory storage"),
        };
        assert_eq!(rows(&f.abuse), 0, "benign shards keep no abuse stream");
        assert_eq!(rows(&f.request), reference.request_sample.len());
        assert_eq!(rows(&f.user), reference.user_sample.len());
        assert_eq!(rows(&f.ip), reference.ip_sample.len());
        assert_eq!(rows(&f.pair), ref_pair.len());
        // Duplicated/unsorted prefix lengths collapse to ascending order.
        assert_eq!(f.prefix_lengths(), vec![48, 64]);
        for (len, p) in &f.prefixes {
            assert_eq!(rows(p), reference.prefix_sample(*len).len(), "/{len}");
        }
        // The shard's keys are exactly those of the rows it kept.
        let mut kept = RequestStore::new();
        for p in f.iter() {
            if let FamilyPayload::Rows(s) = p {
                for r in s.iter_unordered() {
                    kept.push(*r);
                }
            }
        }
        let direct = crate::intern::EntityTables::build(kept.iter_unordered());
        assert_eq!(payload.keys.into_tables(), direct);
    }

    #[test]
    fn families_round_trip_through_freeze_order() {
        let f = Families::with(&[64, 48, 64], str::to_string);
        let names: Vec<&String> = f.iter().collect();
        assert_eq!(
            names,
            ["request", "user", "ip", "p48", "p64", "abuse", "pair"]
        );
        let lengths = f.prefix_lengths();
        let back = Families::from_vec(&lengths, f.clone().into_vec()).unwrap();
        assert_eq!(back, f);
        assert!(Families::<u8>::from_vec(&lengths, vec![0; 3]).is_none());
        assert_eq!(f.map(|n| n.len()).prefixes, [(48, 3), (64, 3)]);
    }

    #[test]
    fn family_payloads_append_in_order_and_treat_empty_rows_as_neutral() {
        let mut a = FamilyPayload::default();
        let mut first = RequestStore::new();
        first.push(rec(1, 5));
        a.append(FamilyPayload::Rows(first));
        let mut second = RequestStore::new();
        second.push(rec(2, 5));
        a.append(FamilyPayload::Rows(second));
        match &mut a {
            FamilyPayload::Rows(s) => {
                let users: Vec<UserId> = s.all().iter().map(|r| r.user).collect();
                assert_eq!(users, [UserId(1), UserId(2)], "plan order breaks ties");
            }
            FamilyPayload::Runs(_) => unreachable!(),
        }
        let mut runs = FamilyPayload::default();
        runs.append(FamilyPayload::Runs(Vec::new()));
        runs.append(FamilyPayload::default());
        assert!(matches!(runs, FamilyPayload::Runs(ref m) if m.is_empty()));
        assert_eq!(runs.rows(), 0);
    }

    #[test]
    fn shard_sink_publishes_memory_telemetry() {
        let gauge = MemGauge::new();
        let published = AtomicU64::new(0);
        let mut sink = ShardSink::new(
            keep_all(),
            &[],
            true,
            SinkStorage::Memory,
            Some((&gauge, &published)),
        );
        for i in 0..10 {
            sink.push(rec(i, i as u32));
        }
        sink.flush_segment();
        // 10 records × (abuse + request + user + ip) families × 40 bytes.
        let expected = 10 * 4 * std::mem::size_of::<RequestRecord>() as u64;
        assert_eq!(gauge.current(), expected);
        sink.finish();
        assert_eq!(gauge.peak(), expected);
    }

    #[test]
    fn spill_backed_shard_sink_matches_memory_routing() {
        let session = crate::spill::SpillSession::create(None).unwrap();
        let samplers = Samplers::scaled_for(1_000);
        let records: Vec<RequestRecord> = (0..3_000).map(|i| rec(i % 61, i as u32)).collect();

        let run = |storage: SinkStorage<'_>| {
            let mut sink = ShardSink::new(samplers.clone(), &[64], true, storage, None);
            for r in &records {
                sink.push(*r);
            }
            sink.finish();
            sink.into_payload().unwrap()
        };
        let memory = run(SinkStorage::Memory);
        let spilled = run(SinkStorage::Spill {
            session: &session,
            shard: 0,
            attempt: 0,
            segment_rows: 128,
        });

        assert_eq!(memory.offered, spilled.offered);
        for (i, (m, s)) in memory
            .families
            .iter()
            .zip(spilled.families.iter())
            .enumerate()
        {
            assert_eq!(m.rows(), s.rows(), "family {i} row count");
        }
        assert_eq!(memory.families.abuse.rows(), 3_000);
        assert_eq!(
            memory.keys.into_tables(),
            spilled.keys.into_tables(),
            "keys do not depend on the storage mode"
        );
    }
}
