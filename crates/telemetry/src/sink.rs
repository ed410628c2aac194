//! The request-consumer abstraction between simulators and datasets.
//!
//! Emitters (the behavior and abuse simulators) produce a stream of
//! [`RequestRecord`]s; what happens to each record is the caller's
//! business. [`RequestSink`] is that seam: emitters take
//! `&mut dyn RequestSink`, and this module provides the two
//! implementations:
//!
//! - [`ShardSink`] — the production path: routes each record through the
//!   deterministic §3.1 samplers *during* the sim phase, streams every
//!   retained dataset family into a [`SegmentWriter`] — the run store's
//!   sorted runs, on disk or in memory — and collects the intern keys of
//!   every row it keeps,
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
//!    progress/memory telemetry; writers need no forcing here because
//!    segments auto-flush at `segment_rows`;
//! 3. [`RequestSink::finish`] exactly once at end of stream — staging
//!    buffers drain as the final (partial) run.
//!
//! For simple sinks both `flush_segment` and `finish` are no-ops.
//!
//! # Storage faults
//!
//! `push` is deliberately infallible — emitters are pure simulation code
//! and never handle I/O. A [`ShardSink`] instead **latches** the first
//! typed [`SpillError`] its writers raise: subsequent records are
//! counted but no longer routed, [`ShardSink::io_error`] exposes the
//! latched error (the driver polls it at day boundaries to fail fast),
//! and [`ShardSink::into_payload`] refuses to produce a payload, so a
//! faulted attempt can never feed partial data into the merge.

use std::sync::atomic::AtomicU64;

use ipv6_study_netaddr::Ipv6Prefix;

use crate::intern::KeyCollector;
use crate::record::RequestRecord;
use crate::sampler::Samplers;
use crate::spill::{MemGauge, RunManifest, SegmentWriter, SpillError};

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

/// One dataset family's finished output: its sorted runs, one manifest
/// per shard in plan order.
pub type FamilyPayload = Vec<RunManifest>;

/// The retained dataset families of a study in **freeze order**: the
/// request, user and IP samples, the prefix samples ascending by length,
/// then the full-fidelity abuse and pair-window streams.
///
/// Generic over what a family holds: shard sinks write through
/// `Families<SegmentWriter>` and hand over `Families<FamilyPayload>`, the
/// driver merges those in plan order, and the freeze turns them into
/// `Families<FrozenStore>` — one shape from the sim to the analysis.
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

    /// The families in freeze order, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        [&mut self.request, &mut self.user, &mut self.ip]
            .into_iter()
            .chain(self.prefixes.iter_mut().map(|(_, f)| f))
            .chain([&mut self.abuse, &mut self.pair])
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
    /// Appends every family's runs of `other` after this one's — the
    /// plan-order merge, which moves no record.
    ///
    /// # Panics
    /// Panics when the prefix-length sets differ.
    pub fn append(&mut self, other: Families<FamilyPayload>) {
        *self = std::mem::take(self).zip(other).map(|(mut mine, theirs)| {
            mine.extend(theirs);
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
/// record *during* the sim phase and streams each retained dataset family
/// into its [`SegmentWriter`].
///
/// One sink lives for one shard attempt. The routing order per record is
/// fixed (it defines emission order within every family, which the golden
/// digests pin): full-fidelity abuse stream (abuse shards), then the
/// request/user/ip samples, then each prefix sample ascending by length,
/// then the pair-window stream when [`ShardSink::set_pair_routing`] is on.
pub struct ShardSink<'a> {
    samplers: Samplers,
    families: Families<SegmentWriter>,
    /// Whether the full-fidelity abuse stream is on (abuse shards).
    collect_abuse: bool,
    pair_routing: bool,
    keys: KeyCollector,
    offered: u64,
    records: u64,
    gauge: Option<(&'a MemGauge, &'a AtomicU64)>,
    /// The first storage error a writer raised; once set, records
    /// are counted but no longer routed (see "Storage faults" above).
    error: Option<SpillError>,
}

impl<'a> ShardSink<'a> {
    /// Creates a sink for one shard attempt.
    ///
    /// `writers` holds one writer per family (the prefix families route
    /// in ascending-length order). `collect_abuse` turns on the
    /// full-fidelity abuse stream (abuse shards). `gauge` is the run-wide
    /// memory high-water gauge plus this attempt's published counter;
    /// pass `None` to skip memory telemetry.
    pub fn new(
        samplers: Samplers,
        writers: Families<SegmentWriter>,
        collect_abuse: bool,
        gauge: Option<(&'a MemGauge, &'a AtomicU64)>,
    ) -> Self {
        Self {
            samplers,
            families: writers,
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

    /// The latched storage error, if a writer has failed. The
    /// driver polls this at day boundaries so a faulted attempt stops
    /// simulating instead of pushing into a dead sink.
    pub fn io_error(&self) -> Option<&SpillError> {
        self.error.as_ref()
    }

    /// Routes one record through the samplers into the family writers,
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
            for (len, writer) in &mut f.prefixes {
                if self
                    .samplers
                    .prefix_sampled(Ipv6Prefix::containing(addr, *len))
                {
                    writer.push(rec)?;
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

    /// Finishes every family's writer, surfacing the first storage error.
    fn finish_families(&mut self) -> Result<(), SpillError> {
        self.families.iter_mut().try_for_each(SegmentWriter::finish)
    }

    /// Row bytes currently held in memory across all families.
    fn live_bytes(&self) -> u64 {
        self.families.iter().map(SegmentWriter::live_bytes).sum()
    }

    fn publish_gauge(&self) {
        if let Some((gauge, published)) = self.gauge {
            gauge.publish(published, self.live_bytes());
        }
    }

    /// Consumes the sink into its payload. [`RequestSink::finish`] must
    /// have been called first (the writers assert it). A sink that
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
            families: self.families.map(|w| vec![w.into_manifest()]),
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
    use crate::columns::ColumnStore;
    use crate::ids::{Asn, Country, UserId};
    use crate::intern::EntityTables;
    use crate::sampler::Samplers;
    use crate::spill::{merge_manifests, SpillSession};
    use crate::time::SimDate;
    use std::sync::Arc;

    fn rec(user: u64, sec: u32) -> RequestRecord {
        let ip = if user % 5 == 0 {
            "10.0.0.7"
        } else {
            "2001:db8::1"
        };
        RequestRecord {
            ts: crate::time::Timestamp::from_secs(SimDate::ymd(4, 13).start().secs() + sec),
            user: UserId(user),
            ip: ip.parse().unwrap(),
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

    /// Pushes `records` through a fresh sink over `session` (pair routing
    /// on from record `pair_from`) and returns its payload.
    fn route(
        session: &SpillSession,
        samplers: &Samplers,
        lengths: &[u8],
        collect_abuse: bool,
        segment_rows: usize,
        records: &[RequestRecord],
        pair_from: usize,
    ) -> ShardPayload {
        let writers = Families::with(lengths, |name| session.writer(0, 0, name, segment_rows));
        let mut sink = ShardSink::new(samplers.clone(), writers, collect_abuse, None);
        for (i, r) in records.iter().enumerate() {
            sink.set_pair_routing(i >= pair_from);
            sink.push(*r);
        }
        sink.finish();
        sink.into_payload().unwrap()
    }

    #[test]
    fn fn_sink_adapts_closures() {
        let mut seen = Vec::new();
        let mut sink = FnSink(|r: RequestRecord| seen.push(r.user));
        sink.push(rec(3, 0));
        sink.push(rec(4, 1));
        sink.flush_segment(); // default no-op
        sink.finish();
        assert_eq!(seen, vec![UserId(3), UserId(4)]);
    }

    /// Every family holds exactly its sampler's rows in std's stable
    /// timestamp order, and the shard's keys are exactly those of the rows
    /// it kept — checked against a reference built from the sampler
    /// predicates alone.
    #[test]
    fn shard_sink_routes_exactly_the_sampled_rows() {
        let samplers = Samplers::scaled_for(1_000);
        // Timestamps cycle, so every family needs its sort.
        let records: Vec<RequestRecord> = (0..2_000)
            .map(|i| rec(i % 97, (i * 37 % 501) as u32))
            .collect();
        let session = SpillSession::in_memory();
        let payload = route(
            &session,
            &samplers,
            &[64, 48, 48],
            false,
            usize::MAX,
            &records,
            1_000,
        );

        let prefix = |len: u8| {
            let s = samplers.clone();
            move |r: &RequestRecord| {
                r.ipv6()
                    .is_some_and(|a| s.prefix_sampled(Ipv6Prefix::containing(a, len)))
            }
        };
        let reference = Families {
            request: records
                .iter()
                .filter(|r| samplers.request_sampled(r))
                .copied()
                .collect(),
            user: records
                .iter()
                .filter(|r| samplers.user_sampled(r.user))
                .copied()
                .collect(),
            ip: records
                .iter()
                .filter(|r| samplers.ip_sampled(r))
                .copied()
                .collect(),
            prefixes: [48u8, 64]
                .into_iter()
                .map(|len| {
                    (
                        len,
                        records.iter().filter(|r| prefix(len)(r)).copied().collect(),
                    )
                })
                .collect(),
            abuse: Vec::new(),
            pair: records[1_000..].to_vec(),
        }
        .map(|mut rows: Vec<RequestRecord>| {
            rows.sort_by_key(|r| r.ts);
            rows
        });

        assert_eq!(payload.offered, 2_000);
        assert_eq!(payload.records, 2_000);
        // Duplicated/unsorted prefix lengths collapse to ascending order.
        assert_eq!(payload.families.prefix_lengths(), vec![48, 64]);
        let tables = Arc::new(EntityTables::from_records(&records));
        let kept: Vec<RequestRecord> = reference.iter().flatten().copied().collect();
        for (runs, want) in payload.families.iter().zip(reference.iter()) {
            assert_eq!(runs.len(), 1, "one manifest per shard");
            assert_eq!(runs[0].run_count(), usize::from(!want.is_empty()));
            assert_eq!(
                merge_manifests(runs, &tables).unwrap(),
                ColumnStore::encode(want.iter(), &tables)
            );
        }
        assert!(
            reference.request.len() < records.len(),
            "samplers drop rows"
        );
        assert_eq!(
            payload.keys.into_tables(),
            EntityTables::from_records(&kept)
        );
    }

    #[test]
    fn families_round_trip_through_freeze_order() {
        let mut f = Families::with(&[64, 48, 64], str::to_string);
        let names: Vec<&String> = f.iter().collect();
        assert_eq!(
            names,
            ["request", "user", "ip", "p48", "p64", "abuse", "pair"]
        );
        let lengths = f.prefix_lengths();
        let back = Families::from_vec(&lengths, f.clone().into_vec()).unwrap();
        assert_eq!(back, f);
        assert!(Families::<u8>::from_vec(&lengths, vec![0; 3]).is_none());
        f.iter_mut().for_each(|n| n.push('!'));
        assert_eq!(f.iter().next().map(String::as_str), Some("request!"));
        assert_eq!(f.map(|n| n.len()).prefixes, [(48, 4), (64, 4)]);
    }

    #[test]
    fn family_payloads_append_runs_in_plan_order() {
        let session = SpillSession::in_memory();
        let shard = |user: u64| {
            let mut families: Families<FamilyPayload> = Families::new(&[64]);
            let mut w = session.writer(user as usize, 0, "request", usize::MAX);
            w.push(rec(user, 5)).unwrap();
            w.finish().unwrap();
            families.request.push(w.into_manifest());
            families
        };
        let mut merged = Families::new(&[64]);
        merged.append(shard(1));
        merged.append(shard(2));
        assert_eq!(merged.request.len(), 2);
        assert!(merged.user.is_empty());
        // Equal timestamps: plan order breaks the tie.
        let recs = [rec(1, 5), rec(2, 5)];
        let tables = Arc::new(EntityTables::from_records(&recs));
        assert_eq!(
            merge_manifests(&merged.request, &tables).unwrap(),
            ColumnStore::encode(recs.iter(), &tables)
        );
    }

    #[test]
    fn shard_sink_publishes_memory_telemetry() {
        let gauge = MemGauge::new();
        let published = AtomicU64::new(0);
        let session = SpillSession::in_memory();
        let writers = Families::with(&[], |name| session.writer(0, 0, name, usize::MAX));
        let mut sink = ShardSink::new(keep_all(), writers, true, Some((&gauge, &published)));
        for i in 0..10 {
            sink.push(rec(i, i as u32));
        }
        sink.flush_segment();
        // 10 staged records × (abuse + request + user + ip) × 40 bytes.
        let staged = 10 * 4 * std::mem::size_of::<RequestRecord>() as u64;
        assert_eq!(gauge.current(), staged);
        sink.finish();
        // Finished: four in-memory frames of 10 rows each.
        let frames = 4 * (crate::spill::RUN_HEADER_BYTES + 10 * crate::spill::SPILL_ROW_BYTES);
        assert_eq!(gauge.current(), frames as u64);
        assert_eq!(gauge.peak(), staged);
    }

    #[test]
    fn file_and_memory_backed_sinks_route_identically() {
        let samplers = Samplers::scaled_for(1_000);
        let records: Vec<RequestRecord> = (0..3_000).map(|i| rec(i % 61, i as u32)).collect();
        let file = SpillSession::create(None).unwrap();
        let memory = SpillSession::in_memory();
        let spilled = route(&file, &samplers, &[64], true, 128, &records, 2_500);
        let kept = route(&memory, &samplers, &[64], true, usize::MAX, &records, 2_500);

        assert_eq!(kept.offered, spilled.offered);
        assert_eq!(kept.families.abuse[0].rows(), 3_000);
        assert!(
            spilled.families.abuse[0].run_count() > 1,
            "segments flushed"
        );
        let tables = Arc::new(EntityTables::from_records(&records));
        for (m, s) in kept.families.iter().zip(spilled.families.iter()) {
            assert_eq!(
                merge_manifests(m, &tables).unwrap(),
                merge_manifests(s, &tables).unwrap()
            );
        }
        assert_eq!(
            kept.keys.into_tables(),
            spilled.keys.into_tables(),
            "keys do not depend on the byte backend"
        );
    }
}
