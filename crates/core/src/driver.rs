//! The deterministic sharded simulation driver.
//!
//! The simulation is embarrassingly parallel in two dimensions: benign
//! households never interact (each household's requests are a pure
//! function of the seed and its index), and attacker campaigns never
//! interact. The driver exploits this by partitioning the run into
//! **shards** — contiguous household ranges plus contiguous campaign
//! ranges — and simulating each shard's *entire* study window into
//! shard-local accumulators on a pool of worker threads.
//!
//! # Determinism
//!
//! Output must be byte-identical at any thread count, so nothing about
//! the partition may depend on the thread count:
//!
//! 1. the shard plan is a function of the *config only* (household and
//!    campaign counts), never of `threads`;
//! 2. workers claim shard indices from a shared queue — claiming order
//!    is racy, but each shard's output is entirely local;
//! 3. the merge walks shards in plan order, so the merged insertion
//!    order ("shard-major": benign shards ascending, then campaign
//!    shards ascending) is a constant of the config.
//!
//! Each shard's sink stable-sorts its runs by timestamp, and the freeze's
//! k-way merge breaks timestamp ties by run order — plan order — so
//! equal-timestamp ties resolve by that insertion order, identical in
//! every run and in either byte backend of the run store. A
//! `threads = 1` run executes the same plan on one worker and produces
//! the same bytes.
//!
//! # Fault tolerance
//!
//! Every shard attempt runs behind `std::panic::catch_unwind`, so a
//! panicking shard unwinds into a captured payload instead of poisoning
//! the merge mutex or killing sibling workers; its half-filled local
//! buffers are dropped with the unwind. Failed shards are re-enqueued up
//! to `max_shard_retries` extra attempts (a retry of a pure function
//! reproduces the exact bytes, so determinism survives), and what
//! happens after exhaustion is the [`FailurePolicy`]'s call: `Abort` and
//! `Retry` fail the run with a [`FaultReport`], `Degrade` drops the
//! shard and completes on the survivors. See [`crate::faults`].
//!
//! # Freeze
//!
//! Every retained row is stored the same way, in both storage modes and
//! in the incremental engine: as sorted runs (see
//! [`ipv6_study_telemetry::spill`]), in memory or in segment files. The
//! merge phase only concatenates run manifests in plan order. Each
//! shard's sink also collects the intern keys (addresses and users) of
//! every row it keeps, so the freeze ("sort" phase) never reads a row
//! just to intern it: the key sets union into the shared tables, then the
//! 21 families k-way merge into columns on a pool of `threads` workers,
//! largest first (`freeze`). Results land in family-order slots, so
//! output is byte-identical at any thread count, and when several
//! families fail the first error in family order is the one reported. A
//! failed shard attempt's keys are dropped with its unwind, like its
//! rows. The incremental engine freezes through the same function, once
//! per extension, with the runs it carries in front of the suffix's
//! (`Simulated::append`).

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ipv6_study_analysis::windows;
use ipv6_study_behavior::abuse::AbuseSim;
use ipv6_study_behavior::emit::emit_user_day;
use ipv6_study_behavior::population::Population;
use ipv6_study_behavior::schedule::day_plan;
use ipv6_study_netmodel::World;
use ipv6_study_obs::report::rate_per_sec;
use ipv6_study_obs::PhaseStat;
use ipv6_study_telemetry::spill::merge_into_frozen;
use ipv6_study_telemetry::{
    DateRange, Families, FamilyPayload, FrozenDatasets, FrozenStore, KeyCollector, MemGauge,
    RequestSink, RunManifest, Samplers, ShardPayload, ShardSink, SimDate, SpillError, SpillSession,
    SpillStats, StorageMode,
};

use crate::config::StudyConfig;
use crate::faults::{
    FailurePolicy, FaultDecision, FaultKind, FaultReport, ShardFailure, StudyError,
};
use crate::pool::run_pool;

/// Target number of benign shards (the plan clamps so small runs still
/// get meaningfully sized shards).
const TARGET_BENIGN_SHARDS: u64 = 64;
/// Minimum households per benign shard.
const MIN_HOUSEHOLDS_PER_SHARD: u64 = 64;
/// Target number of abuse shards.
const TARGET_ABUSE_SHARDS: u32 = 16;
/// Minimum campaigns per abuse shard.
const MIN_CAMPAIGNS_PER_SHARD: u32 = 4;

/// One unit of schedulable work.
#[derive(Debug, Clone)]
enum ShardWork {
    /// Simulate a contiguous household range over the whole window.
    Benign(Range<u64>),
    /// Simulate a contiguous campaign range over the whole window.
    Abuse(Range<u32>),
}

/// Human-readable shard description, e.g. `benign hh 0..312`.
fn shard_label(work: &ShardWork) -> String {
    match work {
        ShardWork::Benign(r) => format!("benign hh {}..{}", r.start, r.end),
        ShardWork::Abuse(r) => format!("abuse camp {}..{}", r.start, r.end),
    }
}

/// Everything one shard produced.
struct ShardOutput {
    payload: ShardPayload,
    /// Distinct users this (benign) shard enumerated on the first study
    /// day — the denominator of the realized user-sample rate.
    users_seen: u64,
    /// How many of those the user sampler selected.
    users_sampled: u64,
    wall: Duration,
}

/// Timing and throughput for one shard.
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    /// Human-readable shard description, e.g. `benign hh 0..312`.
    pub label: String,
    /// Records emitted by this shard (before sampling).
    pub records: u64,
    /// Wall-clock the shard's simulation took on its worker.
    pub wall: Duration,
}

impl ShardMetrics {
    /// Emission throughput in records per second. A shard whose wall
    /// clock rounds to zero has no measurable rate and reports `0.0`
    /// (never `f64::INFINITY`, which JSON cannot represent).
    pub fn records_per_sec(&self) -> f64 {
        rate_per_sec(self.records, self.wall)
    }
}

/// Per-phase timing for a completed run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Worker threads the run used.
    pub threads: usize,
    /// Per-shard timings of the shards that made it into the merge, in
    /// plan (= merge) order. Shards dropped under
    /// [`FailurePolicy::Degrade`] appear in the run's [`FaultReport`]
    /// instead.
    pub shards: Vec<ShardMetrics>,
    /// Wall-clock of the shard-planning phase.
    pub plan_wall: Duration,
    /// Wall-clock of the parallel simulation phase.
    pub sim_wall: Duration,
    /// Wall-clock of the in-order merge phase (on an extension, plus
    /// loading or thawing the runs it carries).
    pub merge_wall: Duration,
    /// Wall-clock of the whole freeze phase: the intern step, then every
    /// family's k-way merge and columnar encode.
    pub sort_wall: Duration,
    /// The intern step's share of [`RunMetrics::sort_wall`]: the union of
    /// the collected key sets and the intern-table build.
    pub intern_wall: Duration,
    /// Wall-clock of the whole [`crate::Study::run`], set by the caller.
    pub total_wall: Duration,
    /// High-water mark of row bytes held in memory during the sim phase:
    /// staged rows (40 bytes each) plus, in memory mode, the in-memory
    /// run frames (35 bytes per row). Frozen columns, intern tables, and
    /// merge cursors are excluded. With [`StorageMode::Spill`] the frames
    /// are on disk, so this is the number spilling bounds.
    ///
    /// [`StorageMode::Spill`]: ipv6_study_telemetry::StorageMode::Spill
    pub peak_store_bytes: u64,
}

impl RunMetrics {
    /// Total records emitted across all merged shards.
    pub fn total_records(&self) -> u64 {
        self.shards.iter().map(|s| s.records).sum()
    }

    /// Aggregate simulation throughput in records per second (`0.0`
    /// when the sim phase's wall clock rounds to zero — JSON has no
    /// `Infinity`).
    pub fn records_per_sec(&self) -> f64 {
        rate_per_sec(self.total_records(), self.sim_wall)
    }

    /// The driver phases in execution order, as obs phase stats.
    pub fn phases(&self) -> Vec<PhaseStat> {
        [
            ("plan", self.plan_wall),
            ("sim", self.sim_wall),
            ("merge", self.merge_wall),
            ("sort", self.sort_wall),
            ("sort_intern", self.intern_wall),
            ("total", self.total_wall),
        ]
        .into_iter()
        .map(|(name, wall)| PhaseStat {
            name: name.to_string(),
            wall,
        })
        .collect()
    }

    /// Renders the run report: one header line, one line per shard, and
    /// the phase totals.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "simulation: {} thread(s), {} shards, {} records in {:.2?} ({:.0} rec/s)",
            self.threads,
            self.shards.len(),
            self.total_records(),
            self.sim_wall,
            self.records_per_sec(),
        );
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "  shard {i:3} {:<24} {:>9} records  {:>9.2?}  {:>10.0} rec/s",
                s.label,
                s.records,
                s.wall,
                s.records_per_sec(),
            );
        }
        let _ = writeln!(
            out,
            "plan: {:.2?}; merge: {:.2?}; sort: {:.2?} (intern {:.2?}); total: {:.2?}; \
             peak store: {} bytes",
            self.plan_wall,
            self.merge_wall,
            self.sort_wall,
            self.intern_wall,
            self.total_wall,
            self.peak_store_bytes
        );
        out
    }
}

/// The driver's result: frozen datasets, stores, metrics, and the fault
/// report (clean on a run with no shard failures).
pub(crate) struct DriverOutput {
    pub datasets: FrozenDatasets,
    pub abuse_store: FrozenStore,
    pub pair_store: FrozenStore,
    pub metrics: RunMetrics,
    pub faults: FaultReport,
    /// The session's storage counters (all zero in memory mode).
    pub spill_stats: SpillStats,
    /// Distinct benign users enumerated on the first study day, summed
    /// over the merged shards.
    pub users_seen: u64,
    /// How many of those the user sampler selected — the numerator of the
    /// realized user-sample rate.
    pub users_sampled: u64,
}

/// Everything the one freeze needs: every family's runs in plan order,
/// the key sets of the rows they hold, and the counters, metrics and
/// fault report of the run that produced them. [`simulate`] builds one;
/// the incremental engine builds one from the runs it carries and
/// appends the suffix's.
pub(crate) struct Simulated {
    pub families: Families<FamilyPayload>,
    pub keys: Vec<KeyCollector>,
    /// Records offered to the samplers.
    pub offered: u64,
    /// Distinct benign users enumerated on the first study day.
    pub users_seen: u64,
    /// How many of those the user sampler selected.
    pub users_sampled: u64,
    pub metrics: RunMetrics,
    pub faults: FaultReport,
}

impl Simulated {
    /// Appends `later`'s runs after this one's and adds up the counters.
    /// The metrics and fault report are `later`'s — the run that
    /// simulated — with this side's merge wall added.
    ///
    /// # Panics
    /// Panics when the prefix-length sets differ.
    pub fn append(&mut self, later: Simulated) {
        self.families.append(later.families);
        self.keys.extend(later.keys);
        self.offered += later.offered;
        self.users_seen += later.users_seen;
        self.users_sampled += later.users_sampled;
        let merge_wall = self.metrics.merge_wall;
        self.metrics = later.metrics;
        self.metrics.merge_wall += merge_wall;
        self.faults = later.faults;
    }

    /// The freeze ("sort") phase: freezes every family once (see
    /// [`freeze`]) and folds the session's final storage counters — the
    /// merge's read passes verify every file run — into the output.
    pub fn freeze(
        self,
        samplers: Samplers,
        session: &SpillSession,
        threads: usize,
    ) -> Result<DriverOutput, StudyError> {
        let t0 = Instant::now();
        let frozen = freeze(self.families, self.keys, threads)?;
        let mut metrics = self.metrics;
        metrics.intern_wall = frozen.intern_wall;
        let (datasets, abuse_store, pair_store) = frozen.into_stores(samplers, self.offered);
        metrics.sort_wall = t0.elapsed();
        let spill_stats = session.stats();
        let mut faults = self.faults;
        faults.io_retries = spill_stats.io_retries;
        faults.checksum_failures = spill_stats.checksum_failures;
        Ok(DriverOutput {
            datasets,
            abuse_store,
            pair_store,
            metrics,
            faults,
            spill_stats,
            users_seen: self.users_seen,
            users_sampled: self.users_sampled,
        })
    }
}

/// Builds the shard plan. Depends only on the config (see the module
/// docs); benign shards come first, campaign shards after.
fn plan_shards(config: &StudyConfig) -> Vec<ShardWork> {
    let mut plan = Vec::new();
    let hh_size = (config.households / TARGET_BENIGN_SHARDS).max(MIN_HOUSEHOLDS_PER_SHARD);
    let mut lo = 0u64;
    while lo < config.households {
        let hi = (lo + hh_size).min(config.households);
        plan.push(ShardWork::Benign(lo..hi));
        lo = hi;
    }
    let c_size = (config.campaigns / TARGET_ABUSE_SHARDS).max(MIN_CAMPAIGNS_PER_SHARD);
    let mut lo = 0u32;
    while lo < config.campaigns {
        let hi = (lo + c_size).min(config.campaigns);
        plan.push(ShardWork::Abuse(lo..hi));
        lo = hi;
    }
    plan
}

/// The read-only context every shard attempt runs against (bundled so
/// [`run_shard`] stays under the argument-count lint and worker closures
/// capture one reference).
struct ShardEnv<'a> {
    config: &'a StudyConfig,
    world: &'a World,
    pop: &'a Population<'a>,
    abuse: &'a AbuseSim<'a>,
    samplers: &'a Samplers,
    /// The days this run actually simulates — the full `sim_range()` on
    /// a batch run, only the appended suffix on an incremental extension
    /// (every day's emission is a pure function of `(config, day)`, so a
    /// suffix run reproduces exactly the rows a full run emits there).
    days: DateRange,
    pair_start: SimDate,
    /// The run store the shards write their runs into.
    session: &'a SpillSession,
    /// Rows staged per family before a sorted run is flushed
    /// (`usize::MAX` in memory mode: one run per shard and family).
    segment_rows: usize,
    /// Run-wide mutable-row-bytes high-water gauge.
    gauge: &'a MemGauge,
}

/// Simulates one shard attempt through one [`ShardSink`] that applies the
/// §3.1 samplers in-stream and streams each family into the session's
/// runs.
///
/// `progress` is updated with the running record count at every day
/// boundary; when the attempt fails (injected or real), the caller reads
/// it to learn how much work was discarded. `published` is the
/// attempt's slice of the memory gauge, released by the caller on
/// failure. `fault` is the injector's decision for this attempt —
/// [`FaultDecision::default`] when injection is off.
///
/// Storage faults surface as a typed `Err(SpillError)`: the sink latches
/// the first writer error, this loop polls it at every day boundary to
/// stop simulating into a dead sink, and `into_payload` refuses partial
/// data at the end.
fn run_shard(
    env: &ShardEnv<'_>,
    work: &ShardWork,
    shard: usize,
    attempt: u32,
    fault: FaultDecision,
    progress: &AtomicU64,
    published: &AtomicU64,
) -> Result<ShardOutput, SpillError> {
    let t0 = Instant::now();
    let writers = Families::with(&env.config.prefix_lengths, |family| {
        env.session.writer(shard, attempt, family, env.segment_rows)
    });
    let collect_abuse = matches!(work, ShardWork::Abuse(_));
    let mut sink = ShardSink::new(
        env.samplers.clone(),
        writers,
        collect_abuse,
        Some((env.gauge, published)),
    );
    let mut users_seen = 0u64;
    let mut users_sampled = 0u64;
    let mut days_done = 0u16;

    for day in env.days.days() {
        if fault.panic_after_days == Some(days_done) {
            // The injected failure: mid-shard, with partially filled
            // local buffers on the stack — exactly what a real panic in
            // the emitters would leave behind for the unwind to discard.
            panic!("injected fault: shard {shard} attempt {attempt} after {days_done} day(s)");
        }
        let dense = env.config.is_dense(day);
        let first_day = day == env.config.full_range.start;
        sink.set_pair_routing(day >= env.pair_start);
        match work {
            ShardWork::Benign(households) => {
                for hh in households.clone() {
                    let hprof = env.pop.household(hh);
                    for uid in env.pop.member_ids(&hprof) {
                        // The first day enumerates every member before the
                        // panel skip, so these counters are exact distinct
                        // counts over the shard's population — the
                        // realized user-sample rate's inputs.
                        if first_day {
                            users_seen += 1;
                            users_sampled += u64::from(env.samplers.user_sampled(uid));
                        }
                        // Panel phase: only user-sample panel members.
                        if !dense && !env.samplers.user_sampled(uid) {
                            continue;
                        }
                        let profile = env.pop.user(uid);
                        let plan = day_plan(env.world, &profile, day);
                        if plan.contexts.is_empty() {
                            continue;
                        }
                        emit_user_day(env.world, &profile, day, &plan, &mut sink);
                    }
                }
            }
            ShardWork::Abuse(campaigns) => {
                env.abuse
                    .emit_day_campaigns(env.pop, day, campaigns.clone(), &mut sink);
            }
        }
        days_done += 1;
        sink.flush_segment();
        progress.store(sink.records(), Ordering::Relaxed);
        if let Some(e) = sink.io_error() {
            return Err(e.clone());
        }
    }

    sink.finish();
    Ok(ShardOutput {
        payload: sink.into_payload()?,
        users_seen,
        users_sampled,
        wall: t0.elapsed(),
    })
}

/// The shared work queue: a cursor over fresh shards, a retry queue for
/// failed ones, and the run-level completion/abort state.
///
/// Claim order is racy by design — it cannot affect output, because every
/// shard's result lands in its own plan-indexed slot and the merge walks
/// slots in plan order.
struct WorkQueue {
    /// Cursor over not-yet-claimed plan indices.
    next: AtomicUsize,
    /// Number of plan entries.
    total: usize,
    /// Failed shards awaiting another attempt, as `(shard, attempt)`.
    retries: Mutex<Vec<(usize, u32)>>,
    /// Shards not yet resolved (succeeded or permanently failed).
    outstanding: AtomicUsize,
    /// Set when the failure policy decides the run is lost; workers stop
    /// claiming and drain out.
    aborted: AtomicBool,
}

impl WorkQueue {
    fn new(total: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            total,
            retries: Mutex::new(Vec::new()),
            outstanding: AtomicUsize::new(total),
            aborted: AtomicBool::new(false),
        }
    }

    /// Claims a retry if one is queued, else the next fresh shard.
    fn claim(&self) -> Option<(usize, u32)> {
        // Poison recovery is sound here (and on every mutex below): a
        // panicking shard unwinds *outside* any lock — all shard state is
        // attempt-local — so a poisoned mutex can only mean some holder
        // panicked between lock and unlock of these tiny critical
        // sections, which touch plain Vec/BTreeMap state that every
        // operation leaves consistent.
        if let Some(job) = self
            .retries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
        {
            return Some(job);
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then_some((i, 0))
    }

    /// Re-enqueues a failed shard for another attempt.
    fn requeue(&self, shard: usize, attempt: u32) {
        self.retries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((shard, attempt));
    }

    /// Marks one shard resolved (merged output or permanent failure).
    fn resolve(&self) {
        self.outstanding.fetch_sub(1, Ordering::Release);
    }

    /// True when every shard is resolved.
    fn done(&self) -> bool {
        self.outstanding.load(Ordering::Acquire) == 0
    }

    fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
    }

    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A completed freeze: every family frozen against one shared table set,
/// plus the intern step's share of the phase wall.
pub(crate) struct Frozen {
    pub families: Families<FrozenStore>,
    /// Wall-clock of the key union and intern-table build.
    pub intern_wall: Duration,
}

impl Frozen {
    /// Splits the frozen families into the study's datasets plus the
    /// abuse and pair stores.
    pub fn into_stores(
        self,
        samplers: Samplers,
        offered: u64,
    ) -> (FrozenDatasets, FrozenStore, FrozenStore) {
        let Families {
            request,
            user,
            ip,
            prefixes,
            abuse,
            pair,
        } = self.families;
        let datasets = FrozenDatasets {
            samplers,
            request_sample: request,
            user_sample: user,
            ip_sample: ip,
            prefix_samples: prefixes.into_iter().collect(),
            offered,
        };
        (datasets, abuse, pair)
    }
}

/// The freeze, shared by the batch driver and the incremental engine:
/// unions `keys` into the shared
/// [`EntityTables`](ipv6_study_telemetry::EntityTables), then k-way
/// merges every family's runs into columns against them
/// ([`merge_into_frozen`]) on a pool of `threads` workers, largest family
/// first. The tables depend only on the union of the key sets, so the
/// output is byte-identical at any thread count. The first storage error
/// in family order is returned (see [`run_pool`]).
pub(crate) fn freeze(
    families: Families<FamilyPayload>,
    keys: Vec<KeyCollector>,
    threads: usize,
) -> Result<Frozen, SpillError> {
    let t0 = Instant::now();
    let mut union = KeyCollector::new();
    for k in keys {
        union.union(k);
    }
    let tables = Arc::new(union.into_tables());
    let intern_wall = t0.elapsed();
    let lengths = families.prefix_lengths();
    let stores = run_pool(
        families.into_vec(),
        threads,
        |runs| runs.iter().map(RunManifest::rows).sum(),
        |runs| merge_into_frozen(&runs, &tables),
    )?;
    let families = Families::from_vec(&lengths, stores)
        .unwrap_or_else(|| unreachable!("the pool returns one store per family"));
    Ok(Frozen {
        families,
        intern_wall,
    })
}

/// The sim and merge phases over a contiguous day range: simulates every
/// shard into `session`'s runs, then concatenates the shard manifests
/// per family in plan order — the input of the one freeze
/// ([`Simulated::freeze`]).
///
/// A batch run passes `config.sim_range()`; the incremental engine passes
/// only the days its carried runs do not cover. The shard plan, samplers,
/// and campaign placement are config-derived, so for any day the
/// restricted run emits exactly the rows the full run would. The caller
/// owns `session` so its runs outlive this call until the freeze.
///
/// Returns `Err(StudyError::ShardsFailed)` when shard failures exceed
/// what `config.failure_policy` tolerates; otherwise the result's
/// `faults` field records any recovered (or, under `Degrade`, dropped)
/// shards.
pub(crate) fn simulate(
    config: &StudyConfig,
    world: &World,
    pop: &Population<'_>,
    abuse: &AbuseSim<'_>,
    samplers: &Samplers,
    session: &SpillSession,
    days: DateRange,
) -> Result<Simulated, StudyError> {
    // Figure 11's full-population day pairs: the last four *effective*
    // days. Routing is anchored on the run's final end — not on the
    // restricted `days` — so a suffix run routes each day exactly like
    // the full run does.
    let pair_start = windows::pair_window(config.sim_end()).start;
    let t_plan = Instant::now();
    let plan = plan_shards(config);
    let plan_wall = t_plan.elapsed();
    let workers = config.threads.min(plan.len()).max(1);
    let policy = config.failure_policy;
    // Abort never retries: the first failure already decides the run.
    let max_retries = match policy {
        FailurePolicy::Abort => 0,
        FailurePolicy::Retry | FailurePolicy::Degrade => config.max_shard_retries,
    };
    let injector = config.faults.as_ref();
    let segment_rows = match &config.storage {
        StorageMode::Spill { segment_rows, .. } => *segment_rows,
        StorageMode::InMemory => usize::MAX,
    };
    let gauge = MemGauge::new();
    let env = ShardEnv {
        config,
        world,
        pop,
        abuse,
        samplers,
        days,
        pair_start,
        session,
        segment_rows,
        gauge: &gauge,
    };

    let t0 = Instant::now();
    let queue = WorkQueue::new(plan.len());
    let slots: Vec<Mutex<Option<ShardOutput>>> = plan.iter().map(|_| Mutex::new(None)).collect();
    let failures: Mutex<BTreeMap<usize, ShardFailure>> = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if queue.is_aborted() {
                    break;
                }
                let Some((i, attempt)) = queue.claim() else {
                    if queue.done() {
                        break;
                    }
                    // All remaining work is in flight on other workers
                    // (and may yet be re-enqueued); stay available.
                    std::thread::yield_now();
                    continue;
                };
                let work = &plan[i];
                let fault = injector.map_or_else(FaultDecision::default, |f| {
                    f.decide(config.seed, i, attempt)
                });
                if !fault.delay.is_zero() {
                    std::thread::sleep(fault.delay);
                }
                let progress = AtomicU64::new(0);
                let published = AtomicU64::new(0);
                // AssertUnwindSafe: on Err every value the closure touched
                // mutably (the shard-local accumulators) is dropped by the
                // unwind; the shared inputs are `&`-borrows.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    run_shard(&env, work, i, attempt, fault, &progress, &published)
                }));
                let (kind, msg) = match result {
                    Ok(Ok(out)) => {
                        if attempt > 0 {
                            // A recovered retry: count the successful
                            // attempt so `attempts` = first try + retries.
                            failures
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .entry(i)
                                .and_modify(|f| f.attempts = attempt + 1);
                        }
                        // See WorkQueue::claim for why poison recovery is
                        // sound: failed shards' buffers are discarded with
                        // the unwind, never written through this mutex.
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                        queue.resolve();
                        continue;
                    }
                    Ok(Err(e)) => (FaultKind::from_spill(&e), e.to_string()),
                    Err(payload) => (FaultKind::Panic, panic_message(payload)),
                };
                // The failed attempt's buffers are gone (dropped by the
                // unwind, or never handed over by the typed-error return);
                // give back its gauge slice and delete any segment files
                // the attempt spilled so a retry starts from nothing.
                gauge.release(&published);
                session.remove_attempt(i, attempt);
                // Corrupt and Budget failures never retry: re-running the
                // same pure work cannot repair bit rot or shrink the
                // budget, so burning the retry budget would only delay the
                // verdict.
                let exhausted = attempt >= max_retries || !kind.is_retryable();
                {
                    let mut failed = failures.lock().unwrap_or_else(PoisonError::into_inner);
                    let entry = failed.entry(i).or_insert_with(|| ShardFailure {
                        shard: i,
                        label: shard_label(work),
                        attempts: 0,
                        kind: FaultKind::Panic,
                        panic_msg: String::new(),
                        dropped: false,
                        records_lost: 0,
                    });
                    entry.attempts = attempt + 1;
                    entry.kind = kind;
                    entry.panic_msg = msg;
                    entry.records_lost = progress.load(Ordering::Relaxed);
                    if exhausted && policy == FailurePolicy::Degrade {
                        entry.dropped = true;
                    }
                }
                if !exhausted {
                    queue.requeue(i, attempt + 1);
                } else {
                    queue.resolve();
                    if policy != FailurePolicy::Degrade {
                        queue.abort();
                    }
                }
            });
        }
    });
    let sim_wall = t0.elapsed();
    let peak_store_bytes = gauge.peak();

    let failures: Vec<ShardFailure> = failures
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_values()
        .collect();
    let sim_stats = session.stats();
    let faults = FaultReport {
        policy,
        failures,
        io_retries: sim_stats.io_retries,
        checksum_failures: sim_stats.checksum_failures,
    };
    if queue.is_aborted() {
        return Err(StudyError::ShardsFailed(faults));
    }

    // Merge phase: walk the slots in plan order. No record moves — the
    // per-shard run manifests are concatenated per family, which is all
    // "merge" means for runs. Each shard's intern keys ride along for the
    // freeze's union.
    let t1 = Instant::now();
    let mut shards = Vec::with_capacity(plan.len());
    let mut users_seen = 0u64;
    let mut users_sampled = 0u64;
    let mut offered = 0u64;
    let mut families: Families<FamilyPayload> = Families::new(&config.prefix_lengths);
    let mut keys = Vec::with_capacity(plan.len());
    for (i, (work, slot)) in plan.iter().zip(slots).enumerate() {
        // Poison recovery (see WorkQueue::claim); an empty slot is a shard
        // dropped under Degrade — it must be in the fault report.
        let Some(out) = slot.into_inner().unwrap_or_else(PoisonError::into_inner) else {
            debug_assert!(
                faults.dropped().any(|f| f.shard == i),
                "unfilled slot {i} without a dropped-shard record"
            );
            continue;
        };
        shards.push(ShardMetrics {
            label: shard_label(work),
            records: out.payload.records,
            wall: out.wall,
        });
        users_seen += out.users_seen;
        users_sampled += out.users_sampled;
        offered += out.payload.offered;
        families.append(out.payload.families);
        keys.push(out.payload.keys);
    }
    let merge_wall = t1.elapsed();

    Ok(Simulated {
        families,
        keys,
        offered,
        users_seen,
        users_sampled,
        metrics: RunMetrics {
            threads: workers,
            shards,
            plan_wall,
            sim_wall,
            merge_wall,
            peak_store_bytes,
            ..RunMetrics::default()
        },
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_depends_on_config_not_threads() {
        let mut a = StudyConfig::tiny();
        let mut b = StudyConfig::tiny();
        a.threads = 1;
        b.threads = 8;
        let pa: Vec<String> = plan_shards(&a).iter().map(|w| format!("{w:?}")).collect();
        let pb: Vec<String> = plan_shards(&b).iter().map(|w| format!("{w:?}")).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn shard_plan_covers_everything_once() {
        for cfg in [
            StudyConfig::tiny(),
            StudyConfig::test_scale(),
            StudyConfig::default_scale(),
        ] {
            let plan = plan_shards(&cfg);
            let mut next_hh = 0u64;
            let mut next_camp = 0u32;
            for work in &plan {
                match work {
                    ShardWork::Benign(r) => {
                        assert_eq!(r.start, next_hh, "household shards contiguous");
                        assert!(r.end > r.start);
                        next_hh = r.end;
                    }
                    ShardWork::Abuse(r) => {
                        assert_eq!(r.start, next_camp, "campaign shards contiguous");
                        assert!(r.end > r.start);
                        next_camp = r.end;
                    }
                }
            }
            assert_eq!(next_hh, cfg.households);
            assert_eq!(next_camp, cfg.campaigns);
            // Benign shards strictly precede abuse shards in merge order.
            let first_abuse = plan
                .iter()
                .position(|w| matches!(w, ShardWork::Abuse(_)))
                .expect("abuse shards exist");
            assert!(plan[..first_abuse]
                .iter()
                .all(|w| matches!(w, ShardWork::Benign(_))));
        }
    }

    #[test]
    fn work_queue_retries_before_fresh_claims_and_terminates() {
        let q = WorkQueue::new(3);
        assert_eq!(q.claim(), Some((0, 0)));
        q.requeue(0, 1);
        assert_eq!(q.claim(), Some((0, 1)), "retries take priority");
        assert_eq!(q.claim(), Some((1, 0)));
        assert_eq!(q.claim(), Some((2, 0)));
        assert_eq!(q.claim(), None);
        assert!(!q.done(), "claimed but unresolved shards keep the run open");
        q.resolve();
        q.resolve();
        q.resolve();
        assert!(q.done());
        assert!(!q.is_aborted());
        q.abort();
        assert!(q.is_aborted());
    }

    /// Two corrupted families on the freeze pool: the larger one (pair)
    /// is claimed first, but the error of the earlier family in freeze
    /// order (ip) is returned, at every pool size.
    #[test]
    fn freeze_reports_the_first_corrupt_family_in_order() {
        use ipv6_study_telemetry::{Asn, Country, RequestRecord, Timestamp, UserId};
        let day = SimDate::ymd(4, 13);
        let rec = |i: u32| RequestRecord {
            ts: Timestamp::from_secs(day.start().secs() + i),
            user: UserId(u64::from(i % 7)),
            ip: format!("2001:db8::{:x}", i % 11).parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        };
        let session = SpillSession::create(None).unwrap();
        let mut records = Vec::new();
        let families = Families::with(&[64], |name| {
            let rows = if name == "pair" { 400 } else { 20 };
            let mut w = session.writer(0, 0, name, 16);
            for i in 0..rows {
                records.push(rec(i));
                w.push(rec(i)).unwrap();
            }
            w.finish().unwrap();
            vec![w.into_manifest()]
        });
        for name in ["ip", "pair"] {
            let path = session
                .dir()
                .unwrap()
                .join(format!("s00000-a00-{name}.seg"));
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[30] ^= 0xA5; // a payload byte of run 0
            std::fs::write(&path, bytes).unwrap();
        }
        let keys = || {
            let mut keys = KeyCollector::new();
            records.iter().for_each(|r| keys.add(r));
            vec![keys]
        };
        let rerun = |threads| match freeze(families.clone(), keys(), threads) {
            Err(e @ SpillError::Corrupt { .. }) => e,
            Err(e) => panic!("threads={threads}: expected Corrupt, got {e:?}"),
            Ok(_) => panic!("threads={threads}: corruption went unnoticed"),
        };
        let first = rerun(1);
        let SpillError::Corrupt { path, .. } = &first else {
            unreachable!()
        };
        assert!(path.ends_with("s00000-a00-ip.seg"), "{path:?}");
        for threads in [2, 8] {
            assert_eq!(rerun(threads), first, "threads={threads}");
        }
    }

    #[test]
    fn panic_payloads_are_stringified() {
        let p = catch_unwind(|| panic!("static message")).unwrap_err();
        assert_eq!(panic_message(p), "static message");
        let p = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p), "formatted 7");
        let p = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(p), "non-string panic payload");
    }

    #[test]
    fn metrics_render_mentions_every_phase() {
        let m = RunMetrics {
            threads: 2,
            shards: vec![ShardMetrics {
                label: "benign hh 0..64".into(),
                records: 1000,
                wall: Duration::from_millis(10),
            }],
            plan_wall: Duration::from_micros(5),
            sim_wall: Duration::from_millis(12),
            merge_wall: Duration::from_millis(1),
            sort_wall: Duration::from_millis(2),
            intern_wall: Duration::from_micros(700),
            total_wall: Duration::from_millis(20),
            peak_store_bytes: 40_000,
        };
        let text = m.render();
        assert!(text.contains("2 thread(s)"));
        assert!(text.contains("benign hh 0..64"));
        assert!(text.contains("plan:"));
        assert!(text.contains("merge:"));
        assert!(text.contains("sort:"));
        assert!(text.contains("intern"));
        assert_eq!(m.total_records(), 1000);
        assert!(m.records_per_sec() > 0.0);
        let phases: Vec<String> = m.phases().into_iter().map(|p| p.name).collect();
        assert_eq!(
            phases,
            ["plan", "sim", "merge", "sort", "sort_intern", "total"]
        );
    }

    #[test]
    fn zero_duration_throughput_is_zero_not_infinite() {
        // A shard fast enough to round to a zero wall clock must report a
        // zero rate: f64::INFINITY has no JSON representation and would
        // poison the exported metrics.
        let s = ShardMetrics {
            label: "benign hh 0..64".into(),
            records: 1000,
            wall: Duration::ZERO,
        };
        assert_eq!(s.records_per_sec(), 0.0);

        let m = RunMetrics {
            threads: 1,
            shards: vec![s],
            plan_wall: Duration::ZERO,
            sim_wall: Duration::ZERO,
            merge_wall: Duration::ZERO,
            sort_wall: Duration::ZERO,
            intern_wall: Duration::ZERO,
            total_wall: Duration::ZERO,
            peak_store_bytes: 0,
        };
        assert_eq!(m.records_per_sec(), 0.0);
        assert!(m.records_per_sec().is_finite());
    }
}
