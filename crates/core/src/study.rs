//! The simulation entry point: world + population + attacker setup, then
//! the sharded driver (see [`crate::driver`]).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ipv6_study_behavior::abuse::AbuseSim;
use ipv6_study_behavior::population::Population;
use ipv6_study_netmodel::World;
use ipv6_study_obs::{FaultStat, Json, RunReport, ShardStat};
use ipv6_study_secapp::actioning::DayCounts;
use ipv6_study_telemetry::{
    AbuseLabels, DateRange, FrozenDatasets, FrozenStore, SimDate, SpillPolicy, SpillSession,
    StorageMode,
};

use crate::config::{ConfigError, StudyBuilder, StudyConfig};
use crate::driver::{self, DriverOutput, RunMetrics};
use crate::faults::{FaultReport, StudyError, StudyOutcome};

/// A completed study run: the world, the sampled datasets, the complete
/// abusive-request store, and the labels.
///
/// All state is reached through accessor methods — the fields are crate
/// private so the storage backend (in-memory vs spill, see
/// [`StorageMode`]) can evolve without breaking consumers, and so derived
/// quantities like [`Study::user_sample_rate`] always come from the run's
/// realized counters rather than from fields a caller could desync.
#[derive(Debug)]
pub struct Study {
    /// The configuration that produced this run.
    pub(crate) config: StudyConfig,
    /// The static world.
    pub(crate) world: World,
    /// The four sampled dataset families (§3.1), frozen immutable so the
    /// parallel analysis engine can query them through `&self`.
    pub(crate) datasets: FrozenDatasets,
    /// Every abusive-account request (the complete label join).
    pub(crate) abuse_store: FrozenStore,
    /// Every request (benign and abusive) on the final four days of the
    /// window — the full-population day pairs behind the Figure 11 ROC
    /// (pooled over three consecutive day pairs, echoing the paper's
    /// "we repeat our analysis over different days"), without sampling
    /// noise.
    pub(crate) pair_store: FrozenStore,
    /// The abusive-account labels.
    pub(crate) labels: AbuseLabels,
    /// Expected user count (for extrapolation scales).
    pub(crate) approx_users: u64,
    /// Distinct benign users the sim enumerated on the first study day.
    pub(crate) users_seen: u64,
    /// How many of those the user sampler selected.
    pub(crate) users_sampled: u64,
    /// Per-phase wall-clock and per-shard throughput of this run.
    pub(crate) metrics: RunMetrics,
    /// Shard failures the run absorbed: retried-then-recovered shards,
    /// and (under [`crate::FailurePolicy::Degrade`]) dropped ones. Clean
    /// on a run with no failures.
    pub(crate) faults: FaultReport,
    /// The observability aggregate: driver phases and shards at first,
    /// extended with per-figure and actioning timings as the analyses
    /// run. Serialized to `BENCH_run.json` by `repro` and `bench_run`.
    /// Empty (but schema-complete) when `config.instrument` is off.
    pub(crate) report: RunReport,
    /// Per-day aggregation-trie cache over the pair store: each of the
    /// pair window's days is folded into its [`DayCounts`] trie pair at
    /// most once, shared between the Figure 11 sweep, the §7.2 ML pair
    /// and the EC1 entropy blocklist — and carried across
    /// [`Study::extend_days`] for days still inside the sliding window.
    pub(crate) day_counts: DayCountsCache,
}

/// Interior-mutable per-day [`DayCounts`] cache (see
/// [`Study::day_counts`]). A newtype so `Study` can keep deriving
/// `Debug` without requiring it of the trie internals.
#[derive(Default)]
pub(crate) struct DayCountsCache(Mutex<BTreeMap<SimDate, Arc<DayCounts>>>);

impl std::fmt::Debug for DayCountsCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let days: Vec<SimDate> = self
            .0
            .lock()
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        f.debug_tuple("DayCountsCache").field(&days).finish()
    }
}

impl Study {
    /// Starts a fluent configuration; finish with
    /// [`StudyBuilder::run`].
    pub fn builder() -> StudyBuilder {
        StudyBuilder::new()
    }

    /// Runs the full simulation described by `config`.
    ///
    /// Results are byte-identical for a given config at any
    /// `config.threads` value *and any [`StorageMode`]*; see
    /// [`crate::driver`] for how — including runs where shards failed and
    /// were retried. Returns [`StudyError::Config`] on an invalid config
    /// (or an unusable spill directory) and [`StudyError::ShardsFailed`]
    /// when shard failures exceed what `config.failure_policy` tolerates.
    pub fn run(config: StudyConfig) -> StudyOutcome {
        config.validate()?;
        let total = Instant::now();
        let world = build_world(&config);
        let (pop, abuse) = actors(&config, &world);
        let approx_users = pop.approx_users();
        let samplers = config.sampling.resolve(approx_users);
        let labels = abuse.labels();

        // The session holds every run from the sim until the freeze
        // has merged it into columns; dropping it deletes the spill
        // directory (if any) before the analysis phase.
        let session = open_session(&config)?;
        let days = config.sim_range();
        let sim = driver::simulate(&config, &world, &pop, &abuse, &samplers, &session, days)?;
        let mut out = sim.freeze(samplers, &session, config.threads)?;
        drop(session);

        out.metrics.total_wall = total.elapsed();
        Ok(Self::assemble(config, world, labels, approx_users, out))
    }

    /// Assembles a study from the driver's frozen output and builds its
    /// run report — the one assembly a batch run, a state-dir resume and
    /// an in-memory extension share.
    pub(crate) fn assemble(
        config: StudyConfig,
        world: World,
        labels: AbuseLabels,
        approx_users: u64,
        out: DriverOutput,
    ) -> Self {
        let report = build_report(&config, &out);
        Self {
            config,
            world,
            datasets: out.datasets,
            abuse_store: out.abuse_store,
            pair_store: out.pair_store,
            labels,
            approx_users,
            users_seen: out.users_seen,
            users_sampled: out.users_sampled,
            metrics: out.metrics,
            faults: out.faults,
            report,
            day_counts: DayCountsCache::default(),
        }
    }

    /// Extends the simulated timeline by `n` days without re-simulating
    /// any day this study already covers — the incremental engine's core
    /// operation (see [`crate::incremental`] for the mechanism and the
    /// byte-equality argument).
    ///
    /// Consumes the study and returns the extended one plus what was
    /// reused vs. computed. The result is byte-identical — datasets,
    /// EXPERIMENTS.md, figure digests — to a from-scratch
    /// [`Study::run`] whose config carries the summed `extend_days`, at
    /// any thread count and either [`StorageMode`]; the equivalence
    /// suite (`tests/incremental.rs`) pins this. Errors if the extension
    /// leaves the calendar ([`ConfigError::ExtensionPastCalendar`]) or
    /// the suffix simulation fails.
    ///
    /// [`ConfigError::ExtensionPastCalendar`]: crate::config::ConfigError::ExtensionPastCalendar
    pub fn extend_days(
        self,
        n: u16,
    ) -> Result<(Study, ipv6_study_obs::IncrementalStat), StudyError> {
        crate::incremental::extend(self, n)
    }

    /// The configuration that produced this run.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The static world the run simulated.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The four sampled dataset families (§3.1), frozen immutable.
    pub fn datasets(&self) -> &FrozenDatasets {
        &self.datasets
    }

    /// Every abusive-account request (the complete label join).
    pub fn abuse_store(&self) -> &FrozenStore {
        &self.abuse_store
    }

    /// Every request on the final four days of the window (the Figure 11
    /// full-population day pairs).
    pub fn pair_store(&self) -> &FrozenStore {
        &self.pair_store
    }

    /// The abusive-account labels.
    pub fn labels(&self) -> &AbuseLabels {
        &self.labels
    }

    /// Expected user count (for extrapolation scales).
    pub fn approx_users(&self) -> u64 {
        self.approx_users
    }

    /// Per-phase wall-clock and per-shard throughput of this run.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Shard failures the run absorbed (clean on a run without failures).
    pub fn faults(&self) -> &FaultReport {
        &self.faults
    }

    /// The observability aggregate for this run.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Mutable access to the observability aggregate, for callers that
    /// append analysis timings after the run (see
    /// [`crate::experiments`]).
    pub fn report_mut(&mut self) -> &mut RunReport {
        &mut self.report
    }

    /// The [`DayCounts`] aggregation-trie pair for one pair-window day,
    /// built on first request and cached for the study's lifetime.
    ///
    /// `DayCounts::build` reads only raw entity keys and labels (never
    /// dense intern ids), so a cached day survives the re-encoding that
    /// [`Study::extend_days`] performs — which is why the cache can be
    /// carried across extensions for days still inside the sliding pair
    /// window instead of being rebuilt.
    pub fn day_counts(&self, day: SimDate) -> Arc<DayCounts> {
        let mut cache = self
            .day_counts
            .0
            .lock()
            .expect("day-counts cache not poisoned");
        if let Some(c) = cache.get(&day) {
            return Arc::clone(c);
        }
        let built = Arc::new(DayCounts::build(self.pair_store.on_day(day), &self.labels));
        cache.insert(day, Arc::clone(&built));
        built
    }

    /// Days currently held by the per-day trie cache (diagnostic; the
    /// incremental suite asserts carried days are not rebuilt).
    pub fn cached_day_counts(&self) -> Vec<SimDate> {
        self.day_counts
            .0
            .lock()
            .expect("day-counts cache not poisoned")
            .keys()
            .copied()
            .collect()
    }

    /// Moves the cached per-day tries for `days` out of this study (used
    /// by [`Study::extend_days`] to carry still-valid days into the
    /// extended study while dropping days that left the pair window).
    pub(crate) fn take_day_counts(&self, days: DateRange) -> BTreeMap<SimDate, Arc<DayCounts>> {
        let mut cache = self
            .day_counts
            .0
            .lock()
            .expect("day-counts cache not poisoned");
        std::mem::take(&mut *cache)
            .into_iter()
            .filter(|&(day, _)| days.contains(day))
            .collect()
    }

    /// Seeds the per-day trie cache (the carry half of
    /// [`Study::take_day_counts`]).
    pub(crate) fn seed_day_counts(&self, seeded: BTreeMap<SimDate, Arc<DayCounts>>) {
        let mut cache = self
            .day_counts
            .0
            .lock()
            .expect("day-counts cache not poisoned");
        *cache = seeded;
    }

    /// The *realized* user-sample inclusion rate: sampled users over
    /// distinct users enumerated on the first study day. This is the rate
    /// extrapolation must divide by — on small populations the hash
    /// sampler's realized fraction differs measurably from the configured
    /// probability. Falls back to the configured rate when the run saw no
    /// users (e.g. every benign shard dropped under `Degrade`).
    pub fn user_sample_rate(&self) -> f64 {
        if self.users_seen == 0 {
            self.datasets.samplers.user_rate
        } else {
            self.users_sampled as f64 / self.users_seen as f64
        }
    }
}

/// The study's static world, with the config's ablation applied.
pub(crate) fn build_world(config: &StudyConfig) -> World {
    let mut world = World::sized(config.seed, config.households);
    config.ablation.apply_to_world(&mut world);
    world
}

/// The population and attackers a config simulates over `world`. Both
/// derive from base-config fields only, so a batch run, a state-dir
/// resume and an in-memory extension all see the same ones.
pub(crate) fn actors<'w>(config: &StudyConfig, world: &'w World) -> (Population<'w>, AbuseSim<'w>) {
    let pop = Population::new(world, config.seed ^ 0x504F_5055, config.households);
    // Attackers operate over the whole window (their creation dates are
    // spread across it).
    let abuse_window = DateRange::new(config.full_range.start, config.full_range.end);
    let abuse = AbuseSim::new(
        world,
        config.seed ^ 0x4142_5553,
        config.campaigns,
        config.households,
        abuse_window,
    )
    .with_detect_scale(config.ablation.detect_scale());
    (pop, abuse)
}

/// Opens the run store `config.storage` asks for — shared by
/// [`Study::run`] and the incremental engine. A spill session's storage
/// policy carries the run's disk budget and any injected I/O fault plan;
/// memory mode keeps the runs in memory.
pub(crate) fn open_session(config: &StudyConfig) -> Result<SpillSession, StudyError> {
    match &config.storage {
        StorageMode::Spill { dir, .. } => {
            let policy = SpillPolicy {
                disk_budget_bytes: config.disk_budget_bytes,
                faults: config
                    .faults
                    .as_ref()
                    .and_then(|inj| inj.spill_fault_plan(config.seed)),
                ..SpillPolicy::default()
            };
            SpillSession::create_with(dir.as_deref(), policy)
                .map_err(|e| StudyError::Config(ConfigError::Storage(e.to_string())))
        }
        StorageMode::InMemory => Ok(SpillSession::in_memory()),
    }
}

/// Converts the driver's output into the run's [`RunReport`]: phase
/// walls, per-shard stats, fault and storage stats, and a config echo.
/// Returns an empty (disabled) report when instrumentation is off.
pub(crate) fn build_report(config: &StudyConfig, out: &DriverOutput) -> RunReport {
    let metrics = &out.metrics;
    let faults = &out.faults;
    let retained = out.datasets.retained();
    // Peak frozen footprint: every store's columns plus the shared
    // intern tables, counted once (all stores point at the same Arc).
    let store_bytes = (out.datasets.bytes()
        + out.abuse_store.bytes()
        + out.pair_store.bytes()
        + out.abuse_store.tables().bytes()) as u64;
    let stored_records = retained + out.abuse_store.len() as u64 + out.pair_store.len() as u64;
    let mut report = RunReport::new(config.instrument);
    report.failure_policy = faults.policy.as_str().to_string();
    if !config.instrument {
        return report;
    }
    report.threads = metrics.threads as u64;
    // Batch accounting: every simulated day was computed this run. The
    // incremental paths overwrite this with their reuse split.
    report.incremental.days_computed = u64::from(config.sim_range().num_days());
    report.set_config("seed", Json::UInt(config.seed));
    report.set_config("households", Json::UInt(config.households));
    report.set_config("campaigns", Json::UInt(u64::from(config.campaigns)));
    report.set_config("threads", Json::UInt(config.threads as u64));
    report.set_config(
        "analysis_threads",
        Json::UInt(config.effective_analysis_threads() as u64),
    );
    report.set_config(
        "failure_policy",
        Json::str(faults.policy.as_str().to_string()),
    );
    report.set_config(
        "max_shard_retries",
        Json::UInt(u64::from(config.max_shard_retries)),
    );
    report.set_config("storage", Json::str(config.storage.label().to_string()));
    report.set_config(
        "segment_rows",
        Json::UInt(match &config.storage {
            StorageMode::Spill { segment_rows, .. } => *segment_rows as u64,
            StorageMode::InMemory => 0,
        }),
    );
    report.set_config(
        "disk_budget_bytes",
        Json::UInt(config.disk_budget_bytes.unwrap_or(0)),
    );
    report.set_config("sampling", Json::str(config.sampling.label()));
    report.set_config(
        "full_range",
        Json::str(format!(
            "{}..{}",
            config.full_range.start, config.full_range.end
        )),
    );
    report.set_config(
        "dense_range",
        Json::str(format!(
            "{}..{}",
            config.dense_range.start, config.dense_range.end
        )),
    );
    report.set_config("extend_days", Json::UInt(u64::from(config.extend_days)));
    report.phases = metrics.phases();
    report.shards = metrics
        .shards
        .iter()
        .map(|s| ShardStat {
            label: s.label.clone(),
            records: s.records,
            wall: s.wall,
        })
        .collect();
    report.faults = faults
        .failures
        .iter()
        .map(|f| FaultStat {
            shard: f.shard as u64,
            label: f.label.clone(),
            attempts: u64::from(f.attempts),
            retries: u64::from(f.retries()),
            dropped: f.dropped,
            records_lost: f.records_lost,
            kind: f.kind.as_str().to_string(),
            panic_msg: f.panic_msg.clone(),
        })
        .collect();
    report.io_retries = faults.io_retries;
    report.checksum_failures = faults.checksum_failures;
    report.spill_bytes_verified = out.spill_stats.bytes_verified;
    let bytes_per_record = if stored_records == 0 {
        0.0
    } else {
        store_bytes as f64 / stored_records as f64
    };
    report.store_bytes = store_bytes;
    report.bytes_per_record = bytes_per_record;
    report.peak_store_bytes = metrics.peak_store_bytes;
    report.records_retained = retained;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;
    use ipv6_study_telemetry::time::focus_week;

    #[test]
    fn tiny_study_produces_all_datasets() {
        let study = Study::run(StudyConfig::tiny()).unwrap();
        assert!(
            study.datasets().offered > 10_000,
            "offered {}",
            study.datasets().offered
        );
        assert!(!study.datasets().user_sample.is_empty());
        assert!(!study.datasets().ip_sample.is_empty());
        assert!(!study.datasets().request_sample.is_empty());
        assert!(!study.abuse_store().is_empty());
        assert!(study.labels().len() > 50);
        // The focus week is inside the dense window, so the IP sample has
        // traffic there.
        assert!(!study.datasets().ip_sample.in_range(focus_week()).is_empty());
        // Prefix samples exist for the configured lengths.
        assert!(!study.datasets().prefix_sample(64).is_empty());
        // The pair store holds full-population traffic for the last two days.
        assert!(
            study.pair_store().len()
                > 3 * study
                    .datasets()
                    .ip_sample
                    .on_day(ipv6_study_telemetry::time::focus_day_user())
                    .len()
        );
        // Metrics cover the whole run.
        assert_eq!(study.metrics().total_records(), study.datasets().offered);
        assert!(!study.metrics().shards.is_empty());
        assert!(study.metrics().total_wall >= study.metrics().sim_wall);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = Study::run(StudyConfig::tiny()).unwrap();
        let b = Study::run(StudyConfig::tiny()).unwrap();
        assert_eq!(a.datasets().offered, b.datasets().offered);
        assert_eq!(
            a.datasets().user_sample.len(),
            b.datasets().user_sample.len()
        );
        assert_eq!(a.abuse_store().len(), b.abuse_store().len());
        assert_eq!(a.labels().len(), b.labels().len());
    }

    #[test]
    fn abusive_traffic_is_labeled() {
        let study = Study::run(StudyConfig::tiny()).unwrap();
        for rec in study.abuse_store().all().records() {
            assert!(study.labels().is_abusive(rec.user));
        }
    }

    #[test]
    fn invalid_config_is_rejected_not_panicked() {
        use crate::config::ConfigError;
        let mut cfg = StudyConfig::tiny();
        cfg.households = 0;
        let err = Study::run(cfg).unwrap_err();
        assert!(
            matches!(err, StudyError::Config(ConfigError::NoHouseholds)),
            "got {err}"
        );
    }

    #[test]
    fn clean_run_reports_no_faults() {
        let study = Study::run(StudyConfig::tiny()).unwrap();
        assert!(study.faults().is_clean());
        assert_eq!(study.faults().total_retries(), 0);
        assert_eq!(study.faults().records_lost(), 0);
    }

    #[test]
    fn user_sample_rate_is_realized_not_configured() {
        let study = Study::run(StudyConfig::tiny()).unwrap();
        let realized = study.user_sample_rate();
        let configured = study.datasets().samplers.user_rate;
        // The counters actually ran: the rate is a proper fraction near
        // (but on a tiny population, not exactly) the configured one.
        assert!(realized > 0.0 && realized <= 1.0, "realized {realized}");
        assert!(
            (realized - configured).abs() < 0.15,
            "realized {realized} vs configured {configured}"
        );
        assert!(
            study.users_seen > 0 && study.users_sampled <= study.users_seen,
            "seen {} sampled {}",
            study.users_seen,
            study.users_sampled
        );
    }
}
