//! In-memory request store with time-range and group-by helpers.
//!
//! A store holds one dataset's records (one of the four sampled datasets of
//! §3.1). Records arrive roughly time-ordered from the simulation driver;
//! the store sorts lazily on first query and then serves date-range slices
//! by binary search. Group-by helpers build the (entity → observations)
//! maps that every analysis starts from.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

use crate::columns::{ColumnSlice, ColumnStore};
use crate::intern::EntityTables;
use crate::record::RequestRecord;
use crate::time::{DateRange, SimDate};
use crate::UserId;

/// A sorted collection of request records.
#[derive(Debug, Clone, Default)]
pub struct RequestStore {
    records: Vec<RequestRecord>,
    sorted: bool,
}

impl RequestStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, rec: RequestRecord) {
        self.records.push(rec);
        self.sorted = false;
    }

    /// Absorbs all records of `other`, preserving `other`'s internal order
    /// after `self`'s own records. Used by the sharded driver to merge
    /// shard-local stores in shard-index order, which keeps the stable
    /// timestamp sort (and therefore every downstream slice) byte-identical
    /// to a serial run.
    ///
    /// When both stores are already sorted and `other`'s records start no
    /// earlier than `self`'s end, the concatenation is itself sorted and the
    /// flag is preserved — shard merges of non-overlapping time slices skip
    /// the full re-sort. Overlapping merges still produce the exact serial
    /// order because the eventual sort is stable over the append order.
    /// The merged store also reserves exactly: shard-local stores arrive
    /// with growth-doubling over-allocation, and a merge of many shards
    /// would otherwise strand the sum of their slack for the lifetime of
    /// the study.
    pub fn extend_from(&mut self, other: RequestStore) {
        if self.records.is_empty() {
            *self = other;
            self.records.shrink_to_fit();
            return;
        }
        if other.records.is_empty() {
            return;
        }
        let still_sorted = self.sorted
            && other.sorted
            && self.records.last().map(|r| r.ts) <= other.records.first().map(|r| r.ts);
        self.records.reserve_exact(other.records.len());
        self.records.extend(other.records);
        self.sorted = still_sorted;
    }

    /// The records' heap capacity (diagnostic; pinned by the merge test).
    pub fn capacity(&self) -> usize {
        self.records.capacity()
    }

    /// Iterates the records in raw (unsorted) arrival order — for building
    /// intern tables before freezing, where order is irrelevant.
    pub fn iter_unordered(&self) -> impl Iterator<Item = &RequestRecord> + Clone {
        self.records.iter()
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sorts records by timestamp (stable w.r.t. equal timestamps). Called
    /// automatically by queries; exposed for explicit pre-sorting. Runs as
    /// a stable LSB radix permutation over the packed timestamp seconds —
    /// the same order `sort_by_key(|r| r.ts)` produced, at counting-sort
    /// cost (see [`crate::kernels`]).
    pub fn ensure_sorted(&mut self) {
        if !self.sorted {
            crate::kernels::radix_sort_records_by_ts(&mut self.records);
            self.sorted = true;
        }
    }

    /// All records, time-ordered.
    pub fn all(&mut self) -> &[RequestRecord] {
        self.ensure_sorted();
        &self.records
    }

    /// The records whose timestamps fall inside `range` (inclusive days).
    pub fn in_range(&mut self, range: DateRange) -> &[RequestRecord] {
        self.ensure_sorted();
        let (lo_ts, hi_ts) = range.ts_bounds();
        let lo = self.records.partition_point(|r| r.ts < lo_ts);
        let hi = self.records.partition_point(|r| r.ts <= hi_ts);
        &self.records[lo..hi]
    }

    /// The records on one day.
    pub fn on_day(&mut self, day: SimDate) -> &[RequestRecord] {
        self.in_range(DateRange::single(day))
    }

    /// Groups a record slice by user.
    pub fn group_by_user(records: &[RequestRecord]) -> HashMap<UserId, Vec<&RequestRecord>> {
        let mut m: HashMap<UserId, Vec<&RequestRecord>> = HashMap::new();
        for r in records {
            m.entry(r.user).or_default().push(r);
        }
        m
    }

    /// Groups a record slice by source address.
    pub fn group_by_ip(records: &[RequestRecord]) -> HashMap<IpAddr, Vec<&RequestRecord>> {
        let mut m: HashMap<IpAddr, Vec<&RequestRecord>> = HashMap::new();
        for r in records {
            m.entry(r.ip).or_default().push(r);
        }
        m
    }

    /// The distinct users appearing in a record slice, ascending.
    pub fn distinct_users(records: &[RequestRecord]) -> Vec<UserId> {
        let mut v: Vec<u64> = records.iter().map(|r| r.user.0).collect();
        v.sort_unstable();
        v.dedup();
        v.into_iter().map(UserId).collect()
    }

    /// Consumes the store into an immutable, pre-sorted, **columnar**
    /// [`FrozenStore`] encoded against intern tables built over this store
    /// alone — the convenience path for tests and standalone stores. The
    /// driver uses [`RequestStore::freeze_with`] so every store in a study
    /// shares one global table set.
    pub fn freeze(self) -> FrozenStore {
        let tables = Arc::new(EntityTables::build(self.records.iter()));
        self.freeze_with(tables)
    }

    /// Consumes the store into a columnar [`FrozenStore`] encoded against
    /// shared intern tables. Every address and user in this store must be
    /// interned in `tables`.
    pub fn freeze_with(mut self, tables: Arc<EntityTables>) -> FrozenStore {
        self.ensure_sorted();
        let cols = ColumnStore::encode(self.records.iter(), &tables);
        FrozenStore { cols, tables }
    }
}

/// An immutable, timestamp-sorted, columnar view of a completed dataset.
///
/// [`RequestStore`] keeps rows (cheap to append from the simulator);
/// freezing performs the final stable sort once and transposes the rows
/// into interned struct-of-arrays columns — 18 bytes/row instead of the
/// 40-byte `RequestRecord`. Range queries are binary searches over the
/// timestamp column returning [`ColumnSlice`] windows over `&self`, safe
/// to share across the parallel analysis engine's worker threads; rows
/// rematerialize lazily through [`ColumnSlice::records`], byte-for-byte
/// what the thawed store would have returned.
#[derive(Debug, Clone, Default)]
pub struct FrozenStore {
    cols: ColumnStore,
    tables: Arc<EntityTables>,
}

impl FrozenStore {
    /// Assembles a frozen store from already-sorted, already-encoded
    /// columns — the spill pipeline's entry point, where the timestamp
    /// sort happened streaming (per-segment sorts + k-way merge) rather
    /// than in memory. The columns must be timestamp-sorted (debug-
    /// asserted) and encoded against `tables`.
    pub fn from_sorted_parts(cols: ColumnStore, tables: Arc<EntityTables>) -> Self {
        debug_assert!(
            cols.ts.windows(2).all(|w| w[0] <= w[1]),
            "from_sorted_parts requires timestamp-sorted columns"
        );
        Self { cols, tables }
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// All records, time-ordered.
    pub fn all(&self) -> ColumnSlice<'_> {
        self.cols.slice(0..self.cols.len(), &self.tables)
    }

    /// The records whose timestamps fall inside `range` (inclusive days).
    pub fn in_range(&self, range: DateRange) -> ColumnSlice<'_> {
        let (lo_ts, hi_ts) = range.ts_bounds();
        let lo = self.cols.ts.partition_point(|&ts| ts < lo_ts);
        let hi = self.cols.ts.partition_point(|&ts| ts <= hi_ts);
        self.cols.slice(lo..hi, &self.tables)
    }

    /// The records on one day.
    pub fn on_day(&self, day: SimDate) -> ColumnSlice<'_> {
        self.in_range(DateRange::single(day))
    }

    /// The intern tables this store is encoded against.
    pub fn tables(&self) -> &Arc<EntityTables> {
        &self.tables
    }

    /// Heap bytes held by the columns (tables excluded — they are shared
    /// across every store of a study and accounted once).
    pub fn bytes(&self) -> usize {
        self.cols.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Asn, Country};

    fn rec(user: u64, day: SimDate, hour: u8, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: day.at(hour, 0, 0),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    #[test]
    fn range_queries_slice_correctly() {
        let mut s = RequestStore::new();
        // Insert out of order on purpose.
        s.push(rec(1, SimDate::ymd(4, 15), 8, "2001:db8::1"));
        s.push(rec(2, SimDate::ymd(4, 13), 9, "2001:db8::2"));
        s.push(rec(3, SimDate::ymd(4, 19), 23, "2001:db8::3"));
        s.push(rec(4, SimDate::ymd(4, 12), 23, "2001:db8::4"));
        s.push(rec(5, SimDate::ymd(4, 20), 0, "2001:db8::5"));

        assert_eq!(s.len(), 5);
        let week = s.in_range(crate::time::focus_week());
        assert_eq!(week.len(), 3);
        assert!(week.windows(2).all(|w| w[0].ts <= w[1].ts));

        let day = s.on_day(SimDate::ymd(4, 13));
        assert_eq!(day.len(), 1);
        assert_eq!(day[0].user, UserId(2));

        let empty = s.on_day(SimDate::ymd(1, 1));
        assert!(empty.is_empty());
    }

    #[test]
    fn inclusive_bounds_at_midnight() {
        let mut s = RequestStore::new();
        s.push(rec(1, SimDate::ymd(4, 13), 0, "2001:db8::1")); // first second
        s.push(rec(2, SimDate::ymd(4, 19), 23, "2001:db8::2")); // last day
        assert_eq!(s.in_range(crate::time::focus_week()).len(), 2);
    }

    #[test]
    fn extend_from_appends_preserving_order() {
        let a1 = rec(1, SimDate::ymd(4, 13), 10, "2001:db8::1");
        let a2 = rec(2, SimDate::ymd(4, 13), 10, "2001:db8::2"); // equal ts on purpose
        let b1 = rec(3, SimDate::ymd(4, 13), 10, "2001:db8::3");

        // Serial: push a1, a2, b1 into one store.
        let mut serial = RequestStore::new();
        serial.push(a1);
        serial.push(a2);
        serial.push(b1);

        // Sharded: two stores merged in shard order.
        let mut left = RequestStore::new();
        left.push(a1);
        left.push(a2);
        let mut right = RequestStore::new();
        right.push(b1);
        let mut merged = RequestStore::new();
        merged.extend_from(left);
        merged.extend_from(right);

        // The stable sort must leave both in the same tie order.
        assert_eq!(serial.all(), merged.all());
    }

    #[test]
    fn extend_from_into_empty_is_a_move() {
        let mut src = RequestStore::new();
        src.push(rec(1, SimDate::ymd(4, 13), 1, "2001:db8::1"));
        src.ensure_sorted();
        let mut dst = RequestStore::new();
        dst.extend_from(src);
        assert_eq!(dst.len(), 1);
        // Moving a sorted store keeps it sorted (no re-sort needed).
        assert!(dst.sorted);
        dst.extend_from(RequestStore::new());
        assert_eq!(dst.len(), 1);
        assert!(dst.sorted);
    }

    #[test]
    fn extend_from_preserves_sorted_when_disjoint_in_time() {
        let mut left = RequestStore::new();
        left.push(rec(1, SimDate::ymd(4, 13), 1, "2001:db8::1"));
        left.push(rec(2, SimDate::ymd(4, 13), 2, "2001:db8::2"));
        left.ensure_sorted();
        let mut right = RequestStore::new();
        right.push(rec(3, SimDate::ymd(4, 13), 2, "2001:db8::3")); // ties allowed
        right.push(rec(4, SimDate::ymd(4, 13), 5, "2001:db8::4"));
        right.ensure_sorted();

        left.extend_from(right);
        assert!(left.sorted, "disjoint sorted merge must stay sorted");
        assert!(left.all().windows(2).all(|w| w[0].ts <= w[1].ts));

        // Overlapping merge clears the flag (a re-sort is required).
        let mut early = RequestStore::new();
        early.push(rec(5, SimDate::ymd(4, 13), 0, "2001:db8::5"));
        early.ensure_sorted();
        left.extend_from(early);
        assert!(!left.sorted);
        assert_eq!(left.all().first().unwrap().user, UserId(5));
    }

    #[test]
    fn frozen_store_matches_thawed_queries() {
        let mut s = RequestStore::new();
        s.push(rec(1, SimDate::ymd(4, 15), 8, "2001:db8::1"));
        s.push(rec(2, SimDate::ymd(4, 13), 9, "2001:db8::2"));
        s.push(rec(3, SimDate::ymd(4, 19), 23, "2001:db8::3"));
        s.push(rec(4, SimDate::ymd(4, 12), 23, "2001:db8::4"));
        let frozen = s.clone().freeze();
        assert_eq!(frozen.len(), s.len());
        assert_eq!(frozen.all().records().collect::<Vec<_>>(), s.all());
        assert_eq!(
            frozen
                .in_range(crate::time::focus_week())
                .records()
                .collect::<Vec<_>>(),
            s.in_range(crate::time::focus_week())
        );
        assert_eq!(
            frozen
                .on_day(SimDate::ymd(4, 13))
                .records()
                .collect::<Vec<_>>(),
            s.on_day(SimDate::ymd(4, 13))
        );
        assert!(frozen.on_day(SimDate::ymd(1, 1)).is_empty());
        // Columnar cost: 18 bytes/row vs the 40-byte row struct.
        assert_eq!(frozen.bytes(), frozen.len() * 18);
        assert!(!frozen.tables().ips.is_empty());
    }

    #[test]
    fn extend_from_reserves_exactly() {
        let mut shard = RequestStore::new();
        for i in 0..100 {
            shard.push(rec(i, SimDate::ymd(4, 13), 1, "2001:db8::1"));
        }
        assert!(
            shard.capacity() > shard.len(),
            "growth-doubling leaves slack to demonstrate the fix"
        );
        let mut merged = RequestStore::new();
        merged.extend_from(shard);
        assert_eq!(
            merged.capacity(),
            merged.len(),
            "merging into empty shrinks the moved buffer"
        );
        let mut other = RequestStore::new();
        for i in 0..37 {
            other.push(rec(i, SimDate::ymd(4, 14), 1, "2001:db8::2"));
        }
        merged.extend_from(other);
        assert_eq!(merged.len(), 137);
        assert_eq!(
            merged.capacity(),
            merged.len(),
            "append path reserves exactly, stranding no shard slack"
        );
    }

    #[test]
    fn grouping_helpers() {
        let mut s = RequestStore::new();
        s.push(rec(1, SimDate::ymd(4, 13), 1, "2001:db8::1"));
        s.push(rec(1, SimDate::ymd(4, 13), 2, "2001:db8::9"));
        s.push(rec(2, SimDate::ymd(4, 13), 3, "2001:db8::1"));
        let recs = s.all().to_vec();

        let by_user = RequestStore::group_by_user(&recs);
        assert_eq!(by_user.len(), 2);
        assert_eq!(by_user[&UserId(1)].len(), 2);

        let by_ip = RequestStore::group_by_ip(&recs);
        assert_eq!(by_ip.len(), 2);
        assert_eq!(by_ip[&"2001:db8::1".parse::<IpAddr>().unwrap()].len(), 2);

        assert_eq!(
            RequestStore::distinct_users(&recs),
            vec![UserId(1), UserId(2)]
        );
    }
}
