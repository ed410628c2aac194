//! The claim-order worker pool the freeze phase and the analysis engine
//! share.
//!
//! Workers claim items from a shared cursor in racy order, but every
//! result lands in its item's slot and comes back in item order, so the
//! output never depends on the worker count or on scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Runs `job` on every item on up to `threads` scoped workers and returns
/// the results in item order.
///
/// Workers claim items heaviest first (by `weight`, ties in item order),
/// so the longest job starts first and the tail of the pool drains
/// evenly; each result lands in its item's slot, so claim order never
/// shows in the output. The first error *in item order* wins: once item
/// `i` fails, unclaimed items after `i` are skipped while items before it
/// still run, so a run with several failures reports the same error at
/// every thread count.
pub(crate) fn run_pool<T: Send, R: Send, E: Send>(
    items: Vec<T>,
    threads: usize,
    weight: impl Fn(&T) -> u64,
    job: impl Fn(T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    let n = items.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weight(&items[i])));
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<Result<R, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let first_err = AtomicUsize::new(usize::MAX);
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            scope.spawn(|| {
                while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    if i > first_err.load(Ordering::Acquire) {
                        continue;
                    }
                    // Poison recovery as in WorkQueue::claim: the critical
                    // sections only move an Option in or out.
                    let Some(item) = items[i]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take()
                    else {
                        continue;
                    };
                    let result = job(item);
                    if result.is_err() {
                        first_err.fetch_min(i, Ordering::AcqRel);
                    }
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                }
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(result) => out.push(result?),
            None => unreachable!("pool item {i} skipped without an earlier failure"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_returns_item_order_and_claims_heaviest_first() {
        let claimed = Mutex::new(Vec::new());
        let out: Result<Vec<u32>, ()> = run_pool(
            vec![1u32, 5, 3, 5],
            1,
            |&w| u64::from(w),
            |w| {
                claimed.lock().unwrap().push(w);
                Ok(w * 10)
            },
        );
        assert_eq!(out, Ok(vec![10, 50, 30, 50]), "results in item order");
        assert_eq!(*claimed.lock().unwrap(), [5, 5, 3, 1], "heaviest first");
        for threads in [2, 8] {
            let out: Result<Vec<usize>, ()> = run_pool((0..21).collect(), threads, |_| 1, Ok);
            assert_eq!(out, Ok((0..21).collect()), "threads={threads}");
        }
        let empty: Result<Vec<u8>, ()> = run_pool(Vec::new(), 4, |_| 0, Ok);
        assert_eq!(empty, Ok(Vec::new()));
    }

    #[test]
    fn pool_reports_the_first_error_in_item_order() {
        // Item 4 is the heaviest, so a single worker claims (and fails)
        // it first; item 1 must still run, and its error must win.
        for threads in [1, 2, 8] {
            let out: Result<Vec<usize>, usize> = run_pool(
                (0..8).collect(),
                threads,
                |&i| if i == 4 { 100 } else { 1 },
                |i| if i == 1 || i == 4 { Err(i) } else { Ok(i) },
            );
            assert_eq!(out, Err(1), "threads={threads}");
        }
    }
}
