//! The streaming parallel campaign executor.
//!
//! A campaign is a deterministic function of `(selected scenarios,
//! filter, campaign seed)` — never of thread count or scheduling. The
//! executor fixes the cell order up front (scenarios in registration
//! order, cells in row-major matrix order) by working over a *global
//! lazy index space*: scenario matrices are never materialized; workers
//! pull raw indices from a shared cursor and decode each one on the fly
//! through [`CellIter`](crate::matrix::CellIter) — filter check, shard
//! check and store lookup included. Every worker accumulates its
//! outcomes in a private slot buffer (no shared mutex on the hot path);
//! the buffers are merged and sorted by global index afterwards, so the
//! assembled campaign is identical whether one thread ran it or
//! sixteen. [`ExecHooks`] expose the stream as it happens: a progress
//! callback per executed cell and a result sink that feeds the
//! crash-resume journal.

use crate::matrix::{CellIter, Filter, REP_AXIS};
use crate::registry::Registry;
use crate::scenario::{CellResult, Params, Scenario, ScenarioError, ScenarioSpec};
use crate::store::{fingerprint_with_content, ResultStore, StoredCell};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Campaign-level knobs.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads (1 = run inline on the caller).
    pub threads: usize,
    /// The campaign seed every cell seed derives from.
    pub seed: u64,
    /// Replicates per base cell (`1` = today's behavior, byte for
    /// byte). Above one, every scenario matrix is multiplied by a
    /// fastest-varying `rep` axis; each replicate runs under
    /// [`crate::expect::replicate_seed`] and a full-domain run folds
    /// the outcomes into distribution metrics keyed by the base
    /// fingerprint.
    pub replicates: u32,
    /// Keep the raw per-replicate cells in the store next to the fold
    /// cells (default: the fold replaces them).
    pub keep_replicates: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: std::thread::available_parallelism().map_or(1, usize::from),
            seed: 0,
            replicates: 1,
            keep_replicates: false,
        }
    }
}

/// One evaluated cell of a finished campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Scenario id.
    pub scenario: String,
    /// Cell coordinates.
    pub params: Params,
    /// The derived cell seed.
    pub seed: u64,
    /// Measured metrics.
    pub result: CellResult,
    /// True if the result came from the store without executing.
    pub memoized: bool,
}

/// A finished campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// The campaign seed.
    pub seed: u64,
    /// All cells, in deterministic order. For a replicated full-domain
    /// run these are the *fold* cells (one per base cell, distribution
    /// metrics); `executed`/`memoized` still count raw replicates.
    pub cells: Vec<CampaignCell>,
    /// Cells actually executed this run.
    pub executed: usize,
    /// Cells resolved from the store.
    pub memoized: usize,
    /// Replicates per base cell the campaign ran with (1 = unfolded).
    pub replicates: u32,
}

/// One slice of a sharded campaign: this process owns every cell whose
/// fingerprint maps to `index` under [`shard_of`] with `count` shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Which shard this worker claims (`0 <= index < count`).
    pub index: u32,
    /// Total number of shards the campaign was partitioned into.
    pub count: u32,
}

impl Shard {
    /// Validates the pair.
    pub fn new(index: u32, count: u32) -> Result<Shard, ScenarioError> {
        if count == 0 {
            return Err(ScenarioError::Dist("shard count must be >= 1".into()));
        }
        if index >= count {
            return Err(ScenarioError::Dist(format!(
                "shard index {index} out of range (count {count})"
            )));
        }
        Ok(Shard { index, count })
    }

    /// True if this shard owns the fingerprinted cell. Errors on a
    /// malformed fingerprint (a corrupted store or manifest) instead of
    /// panicking the worker.
    pub fn owns(&self, fp: &str) -> Result<bool, ScenarioError> {
        Ok(shard_of(fp, self.count)? == self.index)
    }
}

/// Maps a cell fingerprint to its shard. The assignment depends on
/// nothing but the fingerprint, which is what lets every worker
/// partition independently. Fingerprints are raw FNV-1a values whose
/// residues correlate for near-identical inputs, so the hash is pushed
/// through a SplitMix64 finalizer before the modulus to keep shard
/// loads balanced. A malformed fingerprint (hand-edited or corrupted
/// store/manifest data) is a [`ScenarioError::Dist`], not a panic.
pub fn shard_of(fp: &str, shards: u32) -> Result<u32, ScenarioError> {
    let malformed = || {
        ScenarioError::Dist(format!(
            "malformed fingerprint `{fp}` (expected 16 hex digits)"
        ))
    };
    if fp.len() != 16 || !fp.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(malformed());
    }
    let h = u64::from_str_radix(fp, 16).map_err(|_| malformed())?;
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    Ok((z % u64::from(shards.max(1))) as u32)
}

/// Derives the deterministic seed of one cell.
pub fn cell_seed(campaign_seed: u64, scenario_id: &str, params: &Params) -> u64 {
    let mut h = crate::store::FNV_OFFSET ^ campaign_seed.rotate_left(17);
    for bytes in [
        scenario_id.as_bytes(),
        b"\xff" as &[u8],
        params.key().as_bytes(),
    ] {
        h = crate::store::fnv1a(bytes, h);
    }
    // SplitMix64 finalizer: spreads FNV's low-entropy high bits.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The cell domain one executor invocation sweeps, expressed over the
/// campaign's *global lazy index space*: scenarios in selection order,
/// each scenario's matrix in row-major order. The space is never
/// materialized — cells are decoded from indices on demand.
#[derive(Debug, Clone, Copy)]
pub enum CellDomain<'a> {
    /// Every matching cell.
    All,
    /// Cells whose fingerprint the shard owns (the static partition).
    Shard(Shard),
    /// Explicit index ranges into the global lazy space (the
    /// work-stealing lease protocol executes one claimed chunk range at
    /// a time). Ranges must be in bounds and ascending-disjoint for the
    /// assembled cell order to stay deterministic.
    Ranges(&'a [Range<usize>]),
}

/// A progress heartbeat, emitted after every completed cell — freshly
/// executed or memoized — so a consumer can track true completion
/// (`executed + memoized` out of `total`), not just fresh work.
#[derive(Debug, Clone, Copy)]
pub struct ExecProgress {
    /// Fresh cells completed so far in this invocation.
    pub executed: usize,
    /// Memo hits seen so far in this invocation.
    pub memoized: usize,
    /// Lazy cells in the swept domain (an upper bound on work: filtered
    /// or unowned cells are scanned but never executed).
    pub total: usize,
}

/// A progress callback (worker threads call it, hence `Sync`).
pub type ProgressFn<'a> = &'a (dyn Fn(ExecProgress) + Sync);

/// A per-result sink: `(fingerprint, stored cell)` for every fresh
/// successful cell, as it completes.
pub type ResultSink<'a> = &'a (dyn Fn(&str, &StoredCell) + Sync);

/// One cell's timing observation, handed to the telemetry sink as the
/// cell completes. Wall-clock time lives only in this side channel —
/// never in the result store, whose bytes must stay a deterministic
/// function of the campaign.
#[derive(Debug, Clone, Copy)]
pub struct CellTiming<'a> {
    /// The cell's store fingerprint.
    pub fingerprint: &'a str,
    /// Scenario id.
    pub scenario: &'a str,
    /// Measured wall-clock duration of a fresh, successful evaluation;
    /// `None` for a memoized hit (an access, not an execution).
    pub wall: Option<std::time::Duration>,
}

/// A per-cell timing sink: every *successful* cell — fresh (with its
/// measured duration) or memoized (access only) — as it completes.
pub type TimingSink<'a> = &'a (dyn Fn(CellTiming<'_>) + Sync);

/// Observability hooks into the execution stream. All callbacks are
/// invoked from worker threads as cells complete; all default to
/// no-ops.
#[derive(Clone, Copy, Default)]
pub struct ExecHooks<'a> {
    /// Called after every completed cell (freshly executed or memoized).
    pub progress: Option<ProgressFn<'a>>,
    /// Called with every fresh *successful* result as it completes,
    /// before the campaign is assembled — the crash-resume journal
    /// sink. Invocation order across cells is scheduling-dependent; the
    /// journal is a set, so replay does not care.
    pub on_result: Option<ResultSink<'a>>,
    /// Called with every successful cell's timing — measured wall
    /// clock for fresh cells, access-only for memoized hits — the
    /// telemetry sidecar sink. Like `on_result`, invocation order is
    /// scheduling-dependent and the sidecar aggregate does not care.
    pub on_timing: Option<TimingSink<'a>>,
    /// Span/counter recorder ([`crate::obs`]): when set, the executor
    /// records `plan`, `worker`, `decode`, `memo` and `cell` spans plus
    /// memo-hit/miss and cells-executed counters. Purely observational
    /// — attaching it never changes campaign results or store bytes.
    pub obs: Option<&'a crate::obs::Obs>,
    /// Cooperative cancellation: when the flag flips to `true`, workers
    /// stop pulling new cells after finishing the one in hand and the
    /// run returns [`ScenarioError::Cancelled`]. Every cell completed
    /// before the cancel is still assembled into the store (and was
    /// already offered to `on_result`), so a cancelled campaign resumes
    /// from its journal with zero recompute — the graceful-shutdown
    /// path of a long-running submit scheduler.
    pub cancel: Option<&'a std::sync::atomic::AtomicBool>,
}

/// Test/CI hook: `CAMPAIGN_CELL_DELAY_MS` sleeps after every freshly
/// executed cell, turning any shard into an artificially slow one (the
/// work-stealing and crash-resume suites race against it). Unset or
/// unparseable means no delay.
fn cell_delay() -> std::time::Duration {
    std::time::Duration::from_millis(
        std::env::var("CAMPAIGN_CELL_DELAY_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
    )
}

/// Runs the selected scenarios' filtered matrices.
///
/// `select` lists scenario ids (empty = every registered scenario;
/// repeated ids are deduplicated, first occurrence wins the order).
/// Memoized cells are taken from `store`; fresh results are inserted
/// into it. Scenario errors abort the campaign deterministically (the
/// error of the lowest-indexed failing cell wins).
pub fn run_campaign(
    registry: &Registry,
    select: &[String],
    filter: &Filter,
    config: &ExecConfig,
    store: &mut ResultStore,
) -> Result<Campaign, ScenarioError> {
    run_campaign_with(
        registry,
        select,
        filter,
        config,
        store,
        CellDomain::All,
        ExecHooks::default(),
    )
}

/// Resolves a selection against the registry (empty = every scenario;
/// repeated ids deduplicated, first occurrence wins the order).
pub(crate) fn select_scenarios<'a>(
    registry: &'a Registry,
    select: &[String],
) -> Result<Vec<&'a dyn Scenario>, ScenarioError> {
    if select.is_empty() {
        return Ok(registry.scenarios().collect());
    }
    let mut seen = std::collections::BTreeSet::new();
    select
        .iter()
        .filter(|id| seen.insert(id.as_str()))
        .map(|id| {
            registry
                .get(id)
                .ok_or_else(|| ScenarioError::UnknownScenario(id.clone()))
        })
        .collect()
}

/// Resolves a campaign: the selected scenarios and their specs, with
/// the filter checked against the specs' axes and — for a replicated
/// campaign — the reserved replicate axis checked free. The one
/// resolution step the executor and the planner share, so a selection
/// the planner accepts is exactly one the executor runs.
pub(crate) fn resolve_campaign<'a>(
    registry: &'a Registry,
    select: &[String],
    filter: &Filter,
    replicates: u32,
) -> Result<(Vec<&'a dyn Scenario>, Vec<ScenarioSpec>), ScenarioError> {
    let scenarios = select_scenarios(registry, select)?;
    let specs: Vec<_> = scenarios.iter().map(|s| s.spec()).collect();
    // A filter clause must name an axis of at least one selected
    // scenario — otherwise it is a typo that would silently run the
    // whole unfiltered campaign.
    for axis in filter.constrained_axes() {
        let known = specs
            .iter()
            .any(|spec| spec.axes.iter().any(|a| a.name == axis));
        if !known {
            return Err(ScenarioError::UnknownFilterAxis(axis.to_string()));
        }
    }
    // The replicate axis is reserved: a scenario declaring its own
    // `rep` axis would make base and replicate coordinates ambiguous.
    if replicates > 1 {
        for spec in &specs {
            if spec.axes.iter().any(|a| a.name == REP_AXIS) {
                return Err(ScenarioError::Dist(format!(
                    "scenario `{}` declares an axis named `{REP_AXIS}`, which is \
                     reserved for --replicates",
                    spec.id
                )));
            }
        }
    }
    Ok((scenarios, specs))
}

/// What one scanned lazy index produced: either a store hit or a fresh
/// evaluation. Each matching cell gets exactly one slot, owned by the
/// worker that scanned it — the lock-free replacement for the old
/// shared `Mutex<Vec<Option<Outcome>>>` funnel.
enum SlotOutcome {
    Memoized,
    Fresh(Result<CellResult, ScenarioError>),
}

struct Slot {
    /// Position in the global lazy index space (the deterministic sort
    /// key that makes assembly scheduling-independent).
    global: usize,
    /// Index into the selected-scenario list.
    scenario: usize,
    params: Params,
    seed: u64,
    fingerprint: String,
    outcome: SlotOutcome,
}

/// The full-featured executor entry point: [`run_campaign`] over an
/// explicit [`CellDomain`] with [`ExecHooks`]. Everything else is a
/// wrapper around this.
pub fn run_campaign_with(
    registry: &Registry,
    select: &[String],
    filter: &Filter,
    config: &ExecConfig,
    store: &mut ResultStore,
    domain: CellDomain<'_>,
    hooks: ExecHooks<'_>,
) -> Result<Campaign, ScenarioError> {
    if let CellDomain::Shard(s) = domain {
        // Re-validate: a Shard built by hand instead of Shard::new must
        // not silently claim nothing (index >= count matches no cell).
        Shard::new(s.index, s.count)?;
    }
    let plan_span = hooks.obs.map(|o| o.span("plan", "exec"));
    if config.replicates == 0 {
        return Err(ScenarioError::Dist("replicates must be >= 1".into()));
    }
    let (scenarios, specs) = resolve_campaign(registry, select, filter, config.replicates)?;
    let reps = config.replicates as usize;

    // The global lazy index space: prefix[i] is the first index of
    // scenario i's matrix (× the replicate multiplier), prefix[len]
    // the total. The replicate axis varies fastest, so the N cells of
    // one base cell are consecutive.
    let mut prefix = Vec::with_capacity(specs.len() + 1);
    let mut total = 0usize;
    for spec in &specs {
        prefix.push(total);
        total += spec.matrix_size() * reps;
    }
    prefix.push(total);

    let whole = 0..total;
    let (ranges, shard): (&[Range<usize>], Option<Shard>) = match domain {
        CellDomain::All => (std::slice::from_ref(&whole), None),
        CellDomain::Shard(s) => (std::slice::from_ref(&whole), Some(s)),
        CellDomain::Ranges(r) => (r, None),
    };
    for range in ranges {
        if range.start > range.end || range.end > total {
            return Err(ScenarioError::Dist(format!(
                "cell range {}..{} out of bounds (campaign has {total} lazy cells)",
                range.start, range.end
            )));
        }
    }
    // Ascending-disjoint, as the CellDomain contract promises:
    // overlapping or out-of-order ranges would silently duplicate
    // cells in the assembled campaign (and the journal).
    for pair in ranges.windows(2) {
        if pair[1].start < pair[0].end {
            return Err(ScenarioError::Dist(format!(
                "cell ranges {}..{} and {}..{} must be ascending and disjoint",
                pair[0].start, pair[0].end, pair[1].start, pair[1].end
            )));
        }
    }
    let scan_len: usize = ranges.iter().map(ExactSizeIterator::len).sum();
    drop(plan_span);

    let cursor = AtomicUsize::new(0);
    let executed_cells = AtomicUsize::new(0);
    let memo_cells = AtomicUsize::new(0);
    let workers = config.threads.max(1).min(scan_len.max(1));
    let delay = cell_delay();

    // Phase 1 — parallel streaming scan. The store is a shared
    // read-only view here; fresh results land in per-worker slot
    // buffers and are folded into the store in phase 2.
    let mut slots: Vec<Slot> = {
        let store: &ResultStore = store;
        let scan = |out: &mut Vec<Slot>| {
            // One `worker` span per worker thread: its whole pull loop,
            // so the trace shows per-worker occupancy and imbalance.
            let _worker_span = hooks.obs.map(|o| o.span("worker", "exec"));
            loop {
                if hooks.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                    break;
                }
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= scan_len {
                    break;
                }
                let decode_span = hooks.obs.map(|o| o.span("decode", "exec"));
                // Map the scan position to a global lazy index (ranges are
                // few — a linear walk is cheaper than anything clever).
                let mut rest = k;
                let global = ranges
                    .iter()
                    .find_map(|r| {
                        if rest < r.len() {
                            Some(r.start + rest)
                        } else {
                            rest -= r.len();
                            None
                        }
                    })
                    .expect("scan position within summed range length");
                let scenario = prefix.partition_point(|&p| p <= global) - 1;
                let spec = &specs[scenario];
                let local = global - prefix[scenario];
                // Replicates: the base cell index and replicate index
                // are the quotient/remainder of the local index — the
                // filter sees *base* coordinates, so it keeps or drops
                // whole replicate groups.
                let (base_local, rep) = (local / reps, (local % reps) as u32);
                let base_params = CellIter::new(&spec.axes)
                    .cell_at(base_local)
                    .expect("lazy index within the scenario's matrix");
                if !filter.matches(&base_params) {
                    continue;
                }
                let base_seed = cell_seed(config.seed, spec.id, &base_params);
                let (params, seed) = if reps > 1 {
                    (
                        crate::matrix::with_rep(&base_params, rep),
                        crate::expect::replicate_seed(base_seed, rep),
                    )
                } else {
                    (base_params, base_seed)
                };
                let fingerprint = fingerprint_with_content(
                    spec.id,
                    spec.version,
                    spec.content_digest.as_deref(),
                    &params,
                    seed,
                );
                drop(decode_span);
                let slot = |outcome| Slot {
                    global,
                    scenario,
                    params: params.clone(),
                    seed,
                    fingerprint: fingerprint.clone(),
                    outcome,
                };
                if let Some(s) = shard {
                    match s.owns(&fingerprint) {
                        Ok(false) => continue,
                        Ok(true) => {}
                        Err(e) => {
                            out.push(slot(SlotOutcome::Fresh(Err(e))));
                            continue;
                        }
                    }
                }
                let memo_span = hooks.obs.map(|o| o.span("memo", "store"));
                let memoized = store.get_by_fingerprint(&fingerprint).is_some();
                drop(memo_span);
                if let Some(obs) = hooks.obs {
                    obs.count(if memoized { "memo/hit" } else { "memo/miss" }, 1);
                }
                if memoized {
                    if let Some(timing) = hooks.on_timing {
                        timing(CellTiming {
                            fingerprint: &fingerprint,
                            scenario: spec.id,
                            wall: None,
                        });
                    }
                    let memo = memo_cells.fetch_add(1, Ordering::Relaxed) + 1;
                    if let Some(progress) = hooks.progress {
                        progress(ExecProgress {
                            executed: executed_cells.load(Ordering::Relaxed),
                            memoized: memo,
                            total: scan_len,
                        });
                    }
                    out.push(slot(SlotOutcome::Memoized));
                    continue;
                }
                // The measured span covers the evaluation plus the test
                // delay hook: CAMPAIGN_CELL_DELAY_MS simulates a slow cell,
                // so telemetry must see it as one. The clock is the shared
                // obs monotonic epoch: a wall-clock step can never make
                // this duration negative, and the same interval feeds the
                // telemetry sidecar and the `cell` trace span.
                let started_ns = crate::obs::monotonic_ns();
                let outcome = scenarios[scenario].run(&params, seed);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                let wall_ns = crate::obs::monotonic_ns().saturating_sub(started_ns);
                let wall = std::time::Duration::from_nanos(wall_ns);
                if let Some(obs) = hooks.obs {
                    obs.record_span("cell", "exec", started_ns, wall_ns);
                    obs.count("cells/executed", 1);
                }
                if let Ok(result) = &outcome {
                    if let Some(sink) = hooks.on_result {
                        sink(
                            &fingerprint,
                            &StoredCell {
                                scenario: spec.id.to_string(),
                                version: spec.version,
                                params_key: params.key(),
                                seed,
                                fold: false,
                                result: result.clone(),
                            },
                        );
                    }
                    if let Some(timing) = hooks.on_timing {
                        timing(CellTiming {
                            fingerprint: &fingerprint,
                            scenario: spec.id,
                            wall: Some(wall),
                        });
                    }
                }
                let executed = executed_cells.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(progress) = hooks.progress {
                    progress(ExecProgress {
                        executed,
                        memoized: memo_cells.load(Ordering::Relaxed),
                        total: scan_len,
                    });
                }
                out.push(slot(SlotOutcome::Fresh(outcome)));
            }
        };
        if workers <= 1 {
            let mut out = Vec::new();
            scan(&mut out);
            out
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut out = Vec::new();
                            scan(&mut out);
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("scenario worker panicked"))
                    .collect()
            })
        }
    };

    // Phase 2 — deterministic assembly: global-index order erases the
    // scheduling, fresh results move into the store (the campaign cell
    // is written from the stored copy — no hot-path clone of a value
    // the store is about to own), and the lowest-indexed error wins.
    // Every successful result is persisted even when a sibling cell
    // errors — cells are deterministic, so a retry after a partial
    // failure memoizes the work that did complete.
    slots.sort_unstable_by_key(|s| s.global);
    let mut cells = Vec::with_capacity(slots.len());
    let mut executed = 0;
    let mut memoized = 0;
    let mut first_error: Option<ScenarioError> = None;
    for slot in slots {
        let scenario_id = specs[slot.scenario].id.to_string();
        match slot.outcome {
            SlotOutcome::Memoized => {
                let hit = store
                    .get_by_fingerprint(&slot.fingerprint)
                    .expect("memoized cell vanished from the store");
                memoized += 1;
                cells.push(CampaignCell {
                    scenario: scenario_id,
                    params: slot.params,
                    seed: slot.seed,
                    result: hit.result.clone(),
                    memoized: true,
                });
            }
            SlotOutcome::Fresh(Ok(result)) => {
                executed += 1;
                store.insert_cell(
                    slot.fingerprint.clone(),
                    StoredCell {
                        scenario: scenario_id.clone(),
                        version: specs[slot.scenario].version,
                        params_key: slot.params.key(),
                        seed: slot.seed,
                        fold: false,
                        result,
                    },
                );
                let stored = store
                    .get_by_fingerprint(&slot.fingerprint)
                    .expect("cell just inserted");
                cells.push(CampaignCell {
                    scenario: scenario_id,
                    params: slot.params,
                    seed: slot.seed,
                    result: stored.result.clone(),
                    memoized: false,
                });
            }
            SlotOutcome::Fresh(Err(e)) => {
                executed += 1;
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    // Cancellation reports *after* assembly: the completed cells are in
    // the store, so a rerun resumes instead of recomputing. A
    // cancelled replicated run keeps its raw cells unfolded — the
    // resumed run memoizes them and folds at its own completion.
    if hooks.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
        return Err(ScenarioError::Cancelled);
    }

    // Replicate fold: only a *complete* campaign (the full domain)
    // folds. Shard and range runs leave raw replicate cells for the
    // merge engine to fold once every shard's outcomes are fused — the
    // fold must see all N replicates of a base cell, and a partition
    // sees only the ones it owns.
    if reps > 1 && matches!(domain, CellDomain::All) {
        cells = fold_campaign(&specs, cells, config, store)?;
    }

    Ok(Campaign {
        seed: config.seed,
        cells,
        executed,
        memoized,
        replicates: config.replicates,
    })
}

/// Folds each consecutive group of N replicate cells of a completed
/// full-domain campaign into one fold cell: derived distribution
/// metrics inserted into the store under the *base* fingerprint, raw
/// replicate cells removed unless `keep_replicates`. Assembly already
/// sorted cells by global index and the replicate axis varies fastest,
/// so each group sits consecutively in replicate-index order — which
/// is exactly the order the fold must consume for shard/merge byte
/// equivalence.
fn fold_campaign(
    specs: &[ScenarioSpec],
    cells: Vec<CampaignCell>,
    config: &ExecConfig,
    store: &mut ResultStore,
) -> Result<Vec<CampaignCell>, ScenarioError> {
    let reps = config.replicates as usize;
    if !cells.len().is_multiple_of(reps) {
        return Err(ScenarioError::Store(format!(
            "replicate fold: {} cells is not a multiple of {reps} replicates",
            cells.len()
        )));
    }
    let mut folded = Vec::with_capacity(cells.len() / reps);
    for group in cells.chunks_exact(reps) {
        let spec = specs
            .iter()
            .find(|s| s.id == group[0].scenario)
            .expect("campaign cell of an unselected scenario");
        let (base_params, first_rep) =
            crate::matrix::split_rep(&group[0].params).ok_or_else(|| {
                ScenarioError::Store(format!(
                    "replicate fold: cell `{}` lacks a {REP_AXIS} coordinate",
                    group[0].params.key()
                ))
            })?;
        debug_assert_eq!(first_rep, 0, "groups start at replicate 0");
        let results: Vec<&CellResult> = group.iter().map(|c| &c.result).collect();
        let fold = crate::expect::fold_results(&results)?;
        let base_seed = cell_seed(config.seed, spec.id, &base_params);
        let base_fp = fingerprint_with_content(
            spec.id,
            spec.version,
            spec.content_digest.as_deref(),
            &base_params,
            base_seed,
        );
        if !config.keep_replicates {
            for cell in group {
                store.remove(&fingerprint_with_content(
                    spec.id,
                    spec.version,
                    spec.content_digest.as_deref(),
                    &cell.params,
                    cell.seed,
                ));
            }
        }
        store.insert_cell(
            base_fp,
            StoredCell {
                scenario: spec.id.to_string(),
                version: spec.version,
                params_key: base_params.key(),
                seed: base_seed,
                fold: true,
                result: fold.clone(),
            },
        );
        folded.push(CampaignCell {
            scenario: spec.id.to_string(),
            params: base_params,
            seed: base_seed,
            result: fold,
            memoized: group.iter().all(|c| c.memoized),
        });
    }
    Ok(folded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Axis, ScenarioSpec};
    use std::sync::Mutex;

    /// A deterministic toy scenario: metric = f(params, seed).
    struct Toy;

    impl Scenario for Toy {
        fn spec(&self) -> ScenarioSpec {
            ScenarioSpec {
                id: "toy",
                version: 1,
                title: "toy",
                source_crate: "harness",
                property: "p",
                uncertainty: "u",
                quality: "q",
                catalog_id: None,
                content_digest: None,
                axes: vec![Axis::new("a", [1, 2, 3]), Axis::new("b", [10, 20])],
                headline_metric: "value",
                smaller_is_better: true,
            }
        }

        fn run(&self, params: &Params, seed: u64) -> Result<CellResult, ScenarioError> {
            let a = params.get_u64("a")?;
            let b = params.get_u64("b")?;
            Ok(CellResult::new(vec![(
                "value",
                (a * 1000 + b) as f64 + (seed % 97) as f64 / 100.0,
            )]))
        }
    }

    fn registry() -> Registry {
        let mut r = Registry::empty();
        r.register(Box::new(Toy));
        r
    }

    fn run(threads: usize, seed: u64, store: &mut ResultStore) -> Campaign {
        run_campaign(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads,
                seed,
                ..ExecConfig::default()
            },
            store,
        )
        .unwrap()
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let single = run(1, 42, &mut ResultStore::new());
        let parallel = run(4, 42, &mut ResultStore::new());
        assert_eq!(single.cells, parallel.cells);
        assert_eq!(single.executed, 6);
    }

    #[test]
    fn campaign_seed_changes_cell_seeds() {
        let a = run(2, 1, &mut ResultStore::new());
        let b = run(2, 2, &mut ResultStore::new());
        assert_ne!(a.cells, b.cells);
        let seeds: std::collections::HashSet<u64> = a.cells.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), a.cells.len(), "cell seeds are distinct");
    }

    #[test]
    fn second_run_is_fully_memoized() {
        let mut store = ResultStore::new();
        let first = run(4, 7, &mut store);
        assert_eq!(first.executed, 6);
        assert_eq!(first.memoized, 0);
        let second = run(4, 7, &mut store);
        assert_eq!(second.executed, 0);
        assert_eq!(second.memoized, 6);
        assert_eq!(
            first.cells.iter().map(|c| &c.result).collect::<Vec<_>>(),
            second.cells.iter().map(|c| &c.result).collect::<Vec<_>>()
        );
    }

    #[test]
    fn filters_restrict_the_matrix() {
        let campaign = run_campaign(
            &registry(),
            &[],
            &Filter::all().with("a", "2"),
            &ExecConfig {
                threads: 2,
                seed: 0,
                ..ExecConfig::default()
            },
            &mut ResultStore::new(),
        )
        .unwrap();
        assert_eq!(campaign.cells.len(), 2);
        assert!(campaign
            .cells
            .iter()
            .all(|c| c.params.get("a").unwrap() == "2"));
    }

    #[test]
    fn repeated_selection_is_deduplicated() {
        let campaign = run_campaign(
            &registry(),
            &["toy".to_string(), "toy".to_string()],
            &Filter::all(),
            &ExecConfig {
                threads: 2,
                seed: 0,
                ..ExecConfig::default()
            },
            &mut ResultStore::new(),
        )
        .unwrap();
        assert_eq!(campaign.cells.len(), 6, "matrix must not be duplicated");
        assert_eq!(campaign.executed, 6);
    }

    #[test]
    fn version_bump_invalidates_memoized_cells() {
        /// Same id and behaviour as [`Toy`], different version.
        struct Toy2;
        impl Scenario for Toy2 {
            fn spec(&self) -> ScenarioSpec {
                ScenarioSpec {
                    version: 2,
                    ..Toy.spec()
                }
            }
            fn run(&self, params: &Params, seed: u64) -> Result<CellResult, ScenarioError> {
                Toy.run(params, seed)
            }
        }
        let mut store = ResultStore::new();
        run(1, 3, &mut store);
        let mut v2 = Registry::empty();
        v2.register(Box::new(Toy2));
        let campaign = run_campaign(
            &v2,
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 3,
                ..ExecConfig::default()
            },
            &mut store,
        )
        .unwrap();
        assert_eq!(
            campaign.memoized, 0,
            "old-version results must not be served"
        );
        assert_eq!(campaign.executed, 6);
    }

    #[test]
    fn unknown_selection_errors() {
        let err = run_campaign(
            &registry(),
            &["nope".to_string()],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 0,
                ..ExecConfig::default()
            },
            &mut ResultStore::new(),
        )
        .unwrap_err();
        assert_eq!(err, ScenarioError::UnknownScenario("nope".into()));
    }

    #[test]
    fn typoed_filter_axis_errors() {
        let err = run_campaign(
            &registry(),
            &[],
            &Filter::all().with("polcy", "lru"),
            &ExecConfig {
                threads: 1,
                seed: 0,
                ..ExecConfig::default()
            },
            &mut ResultStore::new(),
        )
        .unwrap_err();
        assert_eq!(err, ScenarioError::UnknownFilterAxis("polcy".into()));
    }

    #[test]
    fn partial_failure_persists_completed_cells() {
        /// Errors on the cell `a=2`; succeeds elsewhere.
        struct Flaky;
        impl Scenario for Flaky {
            fn spec(&self) -> ScenarioSpec {
                ScenarioSpec {
                    id: "flaky",
                    axes: vec![Axis::new("a", [1, 2, 3])],
                    ..Toy.spec()
                }
            }
            fn run(&self, params: &Params, _seed: u64) -> Result<CellResult, ScenarioError> {
                match params.get_u64("a")? {
                    2 => Err(ScenarioError::BadParam {
                        axis: "a".into(),
                        value: "2".into(),
                    }),
                    a => Ok(CellResult::new(vec![("value", a as f64)])),
                }
            }
        }
        let mut registry = Registry::empty();
        registry.register(Box::new(Flaky));
        let mut store = ResultStore::new();
        let err = run_campaign(
            &registry,
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 0,
                ..ExecConfig::default()
            },
            &mut store,
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::BadParam { .. }));
        assert_eq!(store.len(), 2, "completed cells memoized despite the error");
    }

    #[test]
    fn shards_partition_the_campaign() {
        let full = run(2, 9, &mut ResultStore::new());
        for count in [1u32, 2, 3, 4] {
            let mut sharded: Vec<CampaignCell> = Vec::new();
            for index in 0..count {
                let slice = run_campaign_with(
                    &registry(),
                    &[],
                    &Filter::all(),
                    &ExecConfig {
                        threads: 2,
                        seed: 9,
                        ..ExecConfig::default()
                    },
                    &mut ResultStore::new(),
                    CellDomain::Shard(Shard::new(index, count).unwrap()),
                    ExecHooks::default(),
                )
                .unwrap();
                sharded.extend(slice.cells);
            }
            assert_eq!(sharded.len(), full.cells.len(), "count {count} covers");
            // Same multiset of cells (shard order permutes the list).
            let key = |c: &CampaignCell| (c.scenario.clone(), c.params.key());
            let mut a: Vec<_> = sharded.iter().map(key).collect();
            let mut b: Vec<_> = full.cells.iter().map(key).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "count {count} is a permutation");
        }
    }

    #[test]
    fn invalid_shards_are_rejected() {
        assert!(Shard::new(0, 0).is_err());
        assert!(Shard::new(3, 3).is_err());
        assert!(Shard::new(2, 3).is_ok());
        let err = run_campaign_with(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 0,
                ..ExecConfig::default()
            },
            &mut ResultStore::new(),
            CellDomain::Shard(Shard { index: 5, count: 2 }),
            ExecHooks::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Dist(_)));
    }

    #[test]
    fn malformed_fingerprints_error_instead_of_panicking() {
        for bad in ["", "xyz", "123", "zzzzzzzzzzzzzzzz", "0123456789abcde-"] {
            assert!(
                matches!(shard_of(bad, 4), Err(ScenarioError::Dist(_))),
                "`{bad}` must be rejected"
            );
            let shard = Shard::new(0, 4).unwrap();
            assert!(shard.owns(bad).is_err());
        }
        assert!(shard_of("0123456789abcdef", 4).is_ok());
    }

    #[test]
    fn cell_seed_is_stable_and_input_sensitive() {
        let p = Params::new(vec![("a".into(), "1".into())]);
        let s = cell_seed(5, "toy", &p);
        assert_eq!(s, cell_seed(5, "toy", &p));
        assert_ne!(s, cell_seed(6, "toy", &p));
        assert_ne!(s, cell_seed(5, "other", &p));
    }

    #[test]
    fn range_domain_sweeps_exactly_the_requested_slice() {
        let full = run(1, 4, &mut ResultStore::new());
        // The toy matrix has 6 lazy cells; split into two range calls.
        let mut store = ResultStore::new();
        let config = ExecConfig {
            threads: 2,
            seed: 4,
            ..ExecConfig::default()
        };
        let mut pieces = Vec::new();
        // A deliberate slice-of-one-range (a single chunk), not a
        // mistyped range collection.
        #[allow(clippy::single_range_in_vec_init)]
        let splits: [&[Range<usize>]; 2] = [&[0..2], &[2..4, 4..6]];
        for ranges in splits {
            let part = run_campaign_with(
                &registry(),
                &[],
                &Filter::all(),
                &config,
                &mut store,
                CellDomain::Ranges(ranges),
                ExecHooks::default(),
            )
            .unwrap();
            pieces.extend(part.cells);
        }
        assert_eq!(pieces, full.cells, "range union must equal the full sweep");
        assert_eq!(store.len(), 6);

        // Out-of-bounds, overlapping and out-of-order ranges are
        // rejected (overlap would silently duplicate cells).
        #[allow(clippy::single_range_in_vec_init)]
        let rejected: [&[Range<usize>]; 3] = [&[5..9], &[0..4, 2..6], &[4..6, 0..2]];
        for ranges in rejected {
            let err = run_campaign_with(
                &registry(),
                &[],
                &Filter::all(),
                &config,
                &mut ResultStore::new(),
                CellDomain::Ranges(ranges),
                ExecHooks::default(),
            )
            .unwrap_err();
            assert!(matches!(err, ScenarioError::Dist(_)), "{ranges:?}");
        }
    }

    #[test]
    fn hooks_observe_every_fresh_cell() {
        let seen: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let peak: AtomicUsize = AtomicUsize::new(0);
        let on_result = |fp: &str, cell: &StoredCell| {
            assert_eq!(cell.scenario, "toy");
            seen.lock().unwrap().push(fp.to_string());
        };
        let progress = |p: ExecProgress| {
            assert_eq!(p.total, 6);
            peak.fetch_max(p.executed, Ordering::Relaxed);
        };
        let timings: Mutex<Vec<(String, bool)>> = Mutex::new(Vec::new());
        let on_timing = |t: CellTiming<'_>| {
            assert_eq!(t.scenario, "toy");
            timings
                .lock()
                .unwrap()
                .push((t.fingerprint.to_string(), t.wall.is_some()));
        };
        let mut store = ResultStore::new();
        let campaign = run_campaign_with(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 3,
                seed: 1,
                ..ExecConfig::default()
            },
            &mut store,
            CellDomain::All,
            ExecHooks {
                progress: Some(&progress),
                on_result: Some(&on_result),
                on_timing: Some(&on_timing),
                obs: None,
                cancel: None,
            },
        )
        .unwrap();
        assert_eq!(campaign.executed, 6);
        assert_eq!(peak.load(Ordering::Relaxed), 6);
        let mut fps = seen.into_inner().unwrap();
        fps.sort();
        let mut stored: Vec<String> = store.iter().map(|(fp, _)| fp.to_string()).collect();
        stored.sort();
        assert_eq!(fps, stored, "the sink must see exactly the fresh cells");
        // Every fresh cell carried a measured duration.
        let mut timed = timings.into_inner().unwrap();
        assert!(timed.iter().all(|(_, fresh)| *fresh));
        timed.sort();
        assert_eq!(
            timed.iter().map(|(fp, _)| fp.clone()).collect::<Vec<_>>(),
            stored,
            "the timing sink must see exactly the fresh cells"
        );

        // A fully memoized rerun feeds the result sink nothing — and
        // the timing sink sees pure accesses (no wall clock).
        let count = AtomicUsize::new(0);
        let counting = |_: &str, _: &StoredCell| {
            count.fetch_add(1, Ordering::Relaxed);
        };
        let hit_count = AtomicUsize::new(0);
        let counting_timing = |t: CellTiming<'_>| {
            assert!(t.wall.is_none(), "memoized hits carry no duration");
            hit_count.fetch_add(1, Ordering::Relaxed);
        };
        run_campaign_with(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 3,
                seed: 1,
                ..ExecConfig::default()
            },
            &mut store,
            CellDomain::All,
            ExecHooks {
                progress: None,
                on_result: Some(&counting),
                on_timing: Some(&counting_timing),
                obs: None,
                cancel: None,
            },
        )
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 0);
        assert_eq!(
            hit_count.load(Ordering::Relaxed),
            6,
            "every memoized cell is still an access"
        );
    }

    #[test]
    fn cancellation_persists_completed_cells_and_resumes() {
        use std::sync::atomic::AtomicBool;

        // A flag set before the run cancels before any cell executes.
        let cancel = AtomicBool::new(true);
        let mut store = ResultStore::new();
        let err = run_campaign_with(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 2,
                seed: 1,
                ..ExecConfig::default()
            },
            &mut store,
            CellDomain::All,
            ExecHooks {
                cancel: Some(&cancel),
                ..ExecHooks::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, ScenarioError::Cancelled);
        assert!(store.is_empty());

        // Cancelling from the progress hook after the first cell: the
        // single worker finishes the cell in hand, stops pulling, and
        // the completed work is still assembled into the store.
        let cancel = AtomicBool::new(false);
        let progress = |_: ExecProgress| cancel.store(true, Ordering::Relaxed);
        let err = run_campaign_with(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 1,
                ..ExecConfig::default()
            },
            &mut store,
            CellDomain::All,
            ExecHooks {
                progress: Some(&progress),
                cancel: Some(&cancel),
                ..ExecHooks::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, ScenarioError::Cancelled);
        assert_eq!(store.len(), 1, "the in-hand cell must be persisted");

        // The rerun resumes: the persisted cell is a memo hit.
        let campaign = run_campaign_with(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 2,
                seed: 1,
                ..ExecConfig::default()
            },
            &mut store,
            CellDomain::All,
            ExecHooks::default(),
        )
        .unwrap();
        assert_eq!(campaign.memoized, 1);
        assert_eq!(campaign.executed, 5);
        assert_eq!(store.len(), 6);
    }

    fn run_reps(reps: u32, keep: bool, seed: u64, store: &mut ResultStore) -> Campaign {
        run_campaign(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 2,
                seed,
                replicates: reps,
                keep_replicates: keep,
            },
            store,
        )
        .unwrap()
    }

    #[test]
    fn one_replicate_is_byte_identical_to_no_replicates() {
        let mut plain_store = ResultStore::new();
        let plain = run(2, 42, &mut plain_store);
        let mut rep_store = ResultStore::new();
        let rep = run_reps(1, false, 42, &mut rep_store);
        assert_eq!(plain.cells, rep.cells);
        assert_eq!(
            plain_store.to_json().pretty(),
            rep_store.to_json().pretty(),
            "replicates=1 must not perturb the store"
        );
    }

    #[test]
    fn zero_replicates_are_rejected() {
        let err = run_campaign(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 0,
                replicates: 0,
                keep_replicates: false,
            },
            &mut ResultStore::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("replicates"), "got: {err}");
    }

    #[test]
    fn replicated_campaign_folds_to_one_distribution_cell_per_base() {
        let mut store = ResultStore::new();
        let campaign = run_reps(8, false, 7, &mut store);
        // 6 base cells, each folded from 8 replicates.
        assert_eq!(campaign.cells.len(), 6);
        assert_eq!(campaign.executed, 48);
        assert_eq!(store.len(), 6, "raw replicates dropped by default");
        for cell in &campaign.cells {
            assert!(cell.params.get("rep").is_err(), "fold keys base params");
            let names: Vec<&str> = cell
                .result
                .metrics
                .iter()
                .map(|(n, _)| n.as_str())
                .collect();
            let expected: Vec<String> = crate::expect::DERIVED_SUFFIXES
                .iter()
                .map(|s| format!("value.{s}"))
                .collect();
            assert_eq!(names, expected, "derived columns in declaration order");
            assert_eq!(cell.result.metric("value.n"), Some(8.0));
            // Toy's metric depends on the seed, so 8 distinct replicate
            // seeds must spread the distribution.
            let std = cell.result.metric("value.std").unwrap();
            assert!(std > 0.0, "replicate seeds must vary the metric");
            let (mean, p05, p95) = (
                cell.result.metric("value.mean").unwrap(),
                cell.result.metric("value.p05").unwrap(),
                cell.result.metric("value.p95").unwrap(),
            );
            assert!(p05 <= mean && mean <= p95, "{p05} <= {mean} <= {p95}");
        }
    }

    #[test]
    fn keep_replicates_retains_raw_cells_and_memoizes_reruns() {
        let mut store = ResultStore::new();
        let first = run_reps(4, true, 3, &mut store);
        assert_eq!(first.executed, 24);
        assert_eq!(store.len(), 24 + 6, "raws plus one fold per base");
        // Rerun: every raw replicate resolves from the store.
        let second = run_reps(4, true, 3, &mut store);
        assert_eq!(second.executed, 0);
        assert_eq!(second.memoized, 24);
        assert_eq!(
            first
                .cells
                .iter()
                .map(|c| (&c.params, c.seed, &c.result))
                .collect::<Vec<_>>(),
            second
                .cells
                .iter()
                .map(|c| (&c.params, c.seed, &c.result))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn fold_cell_is_keyed_by_the_base_fingerprint() {
        let mut plain_store = ResultStore::new();
        run(1, 11, &mut plain_store);
        let mut rep_store = ResultStore::new();
        run_reps(4, false, 11, &mut rep_store);
        let plain_fps: Vec<&str> = plain_store.iter().map(|(fp, _)| fp).collect();
        let rep_fps: Vec<&str> = rep_store.iter().map(|(fp, _)| fp).collect();
        assert_eq!(plain_fps, rep_fps, "fold cells reuse the base identity");
        assert!(rep_store.iter().all(|(_, c)| c.fold));
        assert!(plain_store.iter().all(|(_, c)| !c.fold));
    }

    #[test]
    fn replicates_reject_scenarios_declaring_the_rep_axis() {
        struct RepAxis;
        impl Scenario for RepAxis {
            fn spec(&self) -> ScenarioSpec {
                ScenarioSpec {
                    id: "rep-axis",
                    version: 1,
                    title: "rep collision",
                    source_crate: "harness",
                    property: "p",
                    uncertainty: "u",
                    quality: "q",
                    catalog_id: None,
                    content_digest: None,
                    axes: vec![Axis::new("rep", [1, 2])],
                    headline_metric: "v",
                    smaller_is_better: true,
                }
            }
            fn run(&self, _: &Params, _: u64) -> Result<CellResult, ScenarioError> {
                Ok(CellResult::new(vec![("v", 0.0)]))
            }
        }
        let mut r = Registry::empty();
        r.register(Box::new(RepAxis));
        let err = run_campaign(
            &r,
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 0,
                replicates: 2,
                keep_replicates: false,
            },
            &mut ResultStore::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("rep"), "got: {err}");
        // Without replication the axis name is unreserved.
        run_campaign(
            &r,
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 0,
                ..ExecConfig::default()
            },
            &mut ResultStore::new(),
        )
        .unwrap();
    }

    #[test]
    fn replicated_filters_keep_whole_groups() {
        let mut store = ResultStore::new();
        let campaign = run_campaign(
            &registry(),
            &[],
            &Filter::all().with("a", "2"),
            &ExecConfig {
                threads: 2,
                seed: 5,
                replicates: 4,
                keep_replicates: false,
            },
            &mut store,
        )
        .unwrap();
        assert_eq!(campaign.cells.len(), 2, "two base cells survive the filter");
        assert_eq!(campaign.executed, 8);
        assert!(campaign
            .cells
            .iter()
            .all(|c| c.params.get("a").unwrap() == "2"));
    }
}
