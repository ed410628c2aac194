//! Frozen request stores: one dataset family's rows, timestamp-sorted
//! and encoded into columns, serving date-range slices by binary search.

use std::sync::Arc;

use crate::columns::{ColumnSlice, ColumnStore};
use crate::intern::EntityTables;
use crate::time::{DateRange, SimDate};

/// An immutable, timestamp-sorted, columnar view of a completed dataset.
///
/// The freeze k-way merges a family's sorted runs (see
/// [`crate::spill`]) straight into interned struct-of-arrays columns —
/// 18 bytes/row instead of the 40-byte `RequestRecord`. Range queries are
/// binary searches over the timestamp column returning [`ColumnSlice`]
/// windows over `&self`, safe to share across the parallel analysis
/// engine's worker threads; rows rematerialize lazily through
/// [`ColumnSlice::records`].
#[derive(Debug, Clone, Default)]
pub struct FrozenStore {
    cols: ColumnStore,
    tables: Arc<EntityTables>,
}

impl FrozenStore {
    /// Assembles a frozen store from already-sorted, already-encoded
    /// columns — the freeze's entry point, where the timestamp sort
    /// happened streaming (per-run sorts + k-way merge). The columns must
    /// be timestamp-sorted (debug-asserted) and encoded against `tables`.
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
    use crate::ids::{Asn, Country, UserId};
    use crate::record::RequestRecord;

    fn rec(user: u64, day: SimDate, hour: u8, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: day.at(hour, 0, 0),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    /// Freezes `records` the way the reference pipeline defines it: std's
    /// stable timestamp sort, then the columnar encode.
    fn frozen(mut records: Vec<RequestRecord>) -> (FrozenStore, Vec<RequestRecord>) {
        records.sort_by_key(|r| r.ts);
        let tables = Arc::new(EntityTables::from_records(&records));
        let cols = ColumnStore::encode(records.iter(), &tables);
        (FrozenStore::from_sorted_parts(cols, tables), records)
    }

    fn rows(slice: ColumnSlice<'_>) -> Vec<RequestRecord> {
        slice.records().collect()
    }

    #[test]
    fn range_queries_slice_correctly() {
        // Out of order on purpose.
        let (s, sorted) = frozen(vec![
            rec(1, SimDate::ymd(4, 15), 8, "2001:db8::1"),
            rec(2, SimDate::ymd(4, 13), 9, "2001:db8::2"),
            rec(3, SimDate::ymd(4, 19), 23, "2001:db8::3"),
            rec(4, SimDate::ymd(4, 12), 23, "2001:db8::4"),
            rec(5, SimDate::ymd(4, 20), 0, "2001:db8::5"),
        ]);
        assert_eq!(s.len(), 5);
        assert_eq!(rows(s.all()), sorted);
        let week = rows(s.in_range(crate::time::focus_week()));
        assert_eq!(week, sorted[1..4]);

        let day = rows(s.on_day(SimDate::ymd(4, 13)));
        assert_eq!(day.len(), 1);
        assert_eq!(day[0].user, UserId(2));

        assert!(s.on_day(SimDate::ymd(1, 1)).is_empty());
        // Columnar cost: 18 bytes/row vs the 40-byte row struct.
        assert_eq!(s.bytes(), s.len() * 18);
        assert!(!s.tables().ips.is_empty());
    }

    #[test]
    fn inclusive_bounds_at_midnight() {
        let (s, _) = frozen(vec![
            rec(1, SimDate::ymd(4, 13), 0, "2001:db8::1"), // first second
            rec(2, SimDate::ymd(4, 19), 23, "2001:db8::2"), // last day
        ]);
        assert_eq!(s.in_range(crate::time::focus_week()).len(), 2);
    }
}
