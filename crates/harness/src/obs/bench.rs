//! Engine micro-benchmarks: the measured perf trajectory behind the
//! committed `BENCH_exec.json` / `BENCH_store.json` /
//! `BENCH_serve.json` files.
//!
//! Each bench is a parameterized micro-campaign over the *engine*, not
//! a workload: executor throughput over a synthetic trivially-cheap
//! scenario at N worker threads (so the measured cost is decode +
//! fingerprint + memo-check + assembly, i.e. engine overhead per
//! cell), fully-memoized re-scan rate, journal replay rate, and store
//! save/load/merge times at growing cell-count tiers. One row times a
//! real workload cell instead: `mem/evict-fill/policy=mru,assoc=4`,
//! the default campaign's costliest cell. Every bench runs
//! `repeats` times and is committed as mean/min/max over the repeats —
//! the midynet-exemplar shape (statistics over replicates, never a
//! single sample).
//!
//! Cell counts and worker tiers are fixed per mode so numbers stay
//! comparable across PRs: `quick` (the CI gate) trims repeats and
//! tiers but keeps every bench name it runs identical to the full
//! mode's, so `campaign bench --check` can compare a quick rerun
//! against the committed full-mode files. Executor benches take their
//! cell counts from the live [`crate::obs::Obs`] summary the run
//! produced, so what the files report is exactly what the
//! instrumentation layer counted.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::exec::{run_campaign_with, CellDomain, ExecConfig, ExecHooks};
use crate::json::Json;
use crate::matrix::Filter;
use crate::obs::{monotonic_ns, Obs};
use crate::registry::Registry;
use crate::scenario::{Axis, CellResult, Params, Scenario, ScenarioError, ScenarioSpec};
use crate::scenarios::cache::CacheEvictFill;
use crate::store::{fingerprint, Journal, ResultStore, StoreFormat, StoredCell};

/// Schema version stamped into every `BENCH_*.json`; bump when the
/// file's shape (not its numbers) changes.
pub const BENCH_SCHEMA: u32 = 1;

/// The regression guard band `campaign bench --check` enforces: a
/// quick rerun may be up to this factor worse than the committed
/// number before the gate fails. Generous on purpose — CI machines are
/// noisy; the gate exists to catch order-of-magnitude regressions and
/// stale schemas, not single-digit percentages.
pub const GUARD_BAND: f64 = 3.0;

/// What one bench family measures and how hard to push it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchConfig {
    /// Quick mode: fewer repeats/tiers, same bench names.
    pub quick: bool,
    /// Samples per bench.
    pub repeats: usize,
    /// Cells in the synthetic executor sweep (identical in both modes,
    /// so cells/sec is comparable between quick and full runs).
    pub exec_cells: usize,
    /// Executor worker-thread tiers.
    pub worker_tiers: Vec<usize>,
    /// Store cell-count tiers for save/load/merge.
    pub store_tiers: Vec<usize>,
    /// Cells in the store the serve benches query (identical in both
    /// modes, so req/sec is comparable between quick and full runs).
    pub serve_cells: usize,
    /// Total request round trips per serve bench sample.
    pub serve_queries: usize,
    /// Concurrent-client tiers for the serve query bench.
    pub serve_client_tiers: Vec<usize>,
}

impl BenchConfig {
    /// The committed-trajectory mode (`campaign bench`).
    pub fn full(repeats: Option<usize>) -> BenchConfig {
        BenchConfig {
            quick: false,
            repeats: repeats.unwrap_or(5).max(1),
            exec_cells: 10_000,
            worker_tiers: vec![1, 2, 4, 8],
            store_tiers: vec![1_000, 10_000, 100_000],
            serve_cells: 1_000,
            serve_queries: 2_000,
            serve_client_tiers: vec![1, 2, 4],
        }
    }

    /// The CI-gate mode (`campaign bench --quick` / `--check`): a
    /// strict subset of the full mode's bench names.
    pub fn quick(repeats: Option<usize>) -> BenchConfig {
        BenchConfig {
            quick: true,
            repeats: repeats.unwrap_or(3).max(1),
            exec_cells: 10_000,
            worker_tiers: vec![1, 4],
            store_tiers: vec![1_000, 10_000],
            serve_cells: 1_000,
            serve_queries: 2_000,
            serve_client_tiers: vec![1, 4],
        }
    }
}

/// One bench's collected samples.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable bench name (`exec/run/workers=4`, `store/save/cells=1000`).
    pub name: String,
    /// Unit of every sample (`cells/sec` or `ms`).
    pub unit: &'static str,
    /// Whether larger sample values are better (throughputs) or worse
    /// (times).
    pub higher_is_better: bool,
    /// One sample per repeat.
    pub samples: Vec<f64>,
}

impl BenchResult {
    /// Mean over the repeat samples — the number the gate compares.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len().max(1) as f64
    }
}

/// The synthetic executor workload: one axis, trivially cheap cells
/// (one splitmix round), so a sweep over it measures the engine around
/// the cells rather than any simulator.
struct BenchScenario {
    cells: usize,
}

/// The synthetic scenario's id (kept out of the builtin registry; the
/// bench builds its own [`Registry::empty`]).
const BENCH_SCENARIO: &str = "bench/synthetic";

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Scenario for BenchScenario {
    fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            id: BENCH_SCENARIO,
            version: 1,
            title: "synthetic engine-overhead sweep",
            source_crate: "harness",
            property: "engine overhead per cell",
            uncertainty: "none (trivial arithmetic cell)",
            quality: "cells/sec",
            catalog_id: None,
            content_digest: None,
            axes: vec![Axis::new("i", 0..self.cells as u64)],
            headline_metric: "v",
            smaller_is_better: false,
        }
    }

    fn run(&self, params: &Params, seed: u64) -> Result<CellResult, ScenarioError> {
        let i = params.get_u64("i")?;
        Ok(CellResult::new(vec![(
            "v",
            (splitmix(seed ^ i) % 1_000_000) as f64,
        )]))
    }
}

fn bench_registry(cells: usize) -> Registry {
    let mut registry = Registry::empty();
    registry.register(Box::new(BenchScenario { cells }));
    registry
}

/// A scratch directory for the file-backed benches; unique per call so
/// concurrent test threads never collide.
fn scratch_dir() -> Result<PathBuf, ScenarioError> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "harness-bench-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| ScenarioError::Store(format!("rm {}: {e}", dir.display())))?;
    }
    std::fs::create_dir_all(&dir)
        .map_err(|e| ScenarioError::Store(format!("mkdir {}: {e}", dir.display())))?;
    Ok(dir)
}

fn elapsed_secs(start_ns: u64) -> f64 {
    (monotonic_ns().saturating_sub(start_ns)).max(1) as f64 / 1e9
}

fn elapsed_ms(start_ns: u64) -> f64 {
    (monotonic_ns().saturating_sub(start_ns)) as f64 / 1e6
}

/// Reads a counter back out of an [`Obs::summary`] document — the
/// bench consumes the aggregated summary rather than re-deriving
/// counts, so the committed numbers are exactly what obs measured.
fn summary_counter(summary: &Json, name: &str) -> f64 {
    summary
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Executor-side benches (`BENCH_exec.json`): fresh-sweep throughput
/// per worker tier, the fully-memoized re-scan rate, the replicate fold,
/// and the wall time of the campaign's costliest real cell (the
/// evict/fill exploration of MRU at associativity 4). `progress` is
/// called once per bench with a live status line.
pub fn run_exec_benches(
    config: &BenchConfig,
    progress: &mut dyn FnMut(&str),
) -> Result<Vec<BenchResult>, ScenarioError> {
    let registry = bench_registry(config.exec_cells);
    let select = vec![BENCH_SCENARIO.to_string()];
    let exec = |threads: usize, store: &mut ResultStore| -> Result<(f64, f64), ScenarioError> {
        let obs = Obs::new();
        let hooks = ExecHooks {
            obs: Some(&obs),
            ..Default::default()
        };
        let start = monotonic_ns();
        run_campaign_with(
            &registry,
            &select,
            &Filter::all(),
            &ExecConfig {
                threads,
                seed: 42,
                ..ExecConfig::default()
            },
            store,
            CellDomain::All,
            hooks,
        )?;
        let secs = elapsed_secs(start);
        let summary = obs.summary();
        let executed = summary_counter(&summary, "cells/executed");
        let hits = summary_counter(&summary, "memo/hit");
        Ok((executed / secs, hits / secs))
    };
    let mut results = Vec::new();
    for &threads in &config.worker_tiers {
        let name = format!("exec/run/workers={threads}");
        progress(&name);
        let mut samples = Vec::new();
        for _ in 0..config.repeats {
            let mut store = ResultStore::new();
            samples.push(exec(threads, &mut store)?.0);
        }
        results.push(BenchResult {
            name,
            unit: "cells/sec",
            higher_is_better: true,
            samples,
        });
    }
    // The memoized re-scan: every cell resolves from the store, so the
    // measured rate is pure decode + fingerprint + lookup.
    let name = "exec/memo/workers=4".to_string();
    progress(&name);
    let mut store = ResultStore::new();
    exec(4, &mut store)?; // prefill
    let mut samples = Vec::new();
    for _ in 0..config.repeats {
        samples.push(exec(4, &mut store)?.1);
    }
    results.push(BenchResult {
        name,
        unit: "cells/sec",
        higher_is_better: true,
        samples,
    });
    // The replicate-fold lane: the same total executed cell count as
    // the fresh sweep, but decoded as exec_cells/16 base cells × 16
    // replicate seeds and Welford-folded into one distribution cell
    // per base. Committed beside `exec/run/workers=4`, the pair pins
    // what the streaming fold costs per cell (expected: noise).
    const FOLD_REPS: u32 = 16;
    let base_cells = (config.exec_cells / FOLD_REPS as usize).max(1);
    let fold_registry = bench_registry(base_cells);
    let name = "exec/replicate-fold/workers=4".to_string();
    progress(&name);
    let mut samples = Vec::new();
    for _ in 0..config.repeats {
        let mut store = ResultStore::new();
        let start = monotonic_ns();
        run_campaign_with(
            &fold_registry,
            &select,
            &Filter::all(),
            &ExecConfig {
                threads: 4,
                seed: 42,
                replicates: FOLD_REPS,
                keep_replicates: false,
            },
            &mut store,
            CellDomain::All,
            ExecHooks::default(),
        )?;
        let secs = elapsed_secs(start);
        samples.push((base_cells * FOLD_REPS as usize) as f64 / secs);
    }
    results.push(BenchResult {
        name,
        unit: "cells/sec",
        higher_is_better: true,
        samples,
    });
    // The paper's own kernel: the default campaign's costliest
    // `cache-evict-fill` cell, run alone (one exploration per sample).
    let name = "mem/evict-fill/policy=mru,assoc=4".to_string();
    progress(&name);
    let params = Params::new(vec![
        ("policy".to_string(), "mru".to_string()),
        ("assoc".to_string(), "4".to_string()),
    ]);
    let mut samples = Vec::new();
    for _ in 0..config.repeats {
        let start = monotonic_ns();
        std::hint::black_box(CacheEvictFill.run(&params, 42)?);
        samples.push(elapsed_ms(start));
    }
    results.push(BenchResult {
        name,
        unit: "ms",
        higher_is_better: false,
        samples,
    });
    Ok(results)
}

/// Builds a synthetic store of `cells` memoized results (deterministic
/// contents, so merge benches see realistic fingerprint-ordered maps).
fn build_store(cells: usize) -> ResultStore {
    let mut store = ResultStore::new();
    for i in 0..cells as u64 {
        let params = Params::new(vec![("i".into(), i.to_string())]);
        let fp = fingerprint(BENCH_SCENARIO, 1, &params, i);
        store.insert_cell(
            fp,
            StoredCell {
                scenario: BENCH_SCENARIO.to_string(),
                version: 1,
                params_key: params.key(),
                seed: i,
                fold: false,
                result: CellResult::new(vec![("v", (splitmix(i) % 1_000_000) as f64)]),
            },
        );
    }
    store
}

/// Builds a synthetic store of `cells` *fold* cells — each carrying
/// the seven derived distribution columns a replicate fold emits — so
/// the save-fold bench times the wide-metric row shape.
fn build_fold_store(cells: usize) -> ResultStore {
    let mut store = ResultStore::new();
    for i in 0..cells as u64 {
        let params = Params::new(vec![("i".into(), i.to_string())]);
        let fp = fingerprint(BENCH_SCENARIO, 1, &params, i);
        let v = (splitmix(i) % 1_000_000) as f64;
        let metrics: Vec<(String, f64)> = crate::expect::DERIVED_SUFFIXES
            .iter()
            .map(|suffix| (format!("v.{suffix}"), v))
            .collect();
        store.insert_cell(
            fp,
            StoredCell {
                scenario: BENCH_SCENARIO.to_string(),
                version: 1,
                params_key: params.key(),
                seed: i,
                fold: true,
                result: CellResult { metrics },
            },
        );
    }
    store
}

/// Store-side benches (`BENCH_store.json`): save/load/merge times per
/// cell-count tier — once through the JSON interchange format and once
/// through the binary columnar checkpoint (`store/*-bin/*`) — plus the
/// journal replay rate (the crash-resume path).
pub fn run_store_benches(
    config: &BenchConfig,
    progress: &mut dyn FnMut(&str),
) -> Result<Vec<BenchResult>, ScenarioError> {
    let dir = scratch_dir()?;
    let mut results = Vec::new();
    let outcome = store_benches_in(&dir, config, progress, &mut results);
    let _ = std::fs::remove_dir_all(&dir); // best-effort scratch cleanup
    outcome?;
    Ok(results)
}

fn store_benches_in(
    dir: &std::path::Path,
    config: &BenchConfig,
    progress: &mut dyn FnMut(&str),
    results: &mut Vec<BenchResult>,
) -> Result<(), ScenarioError> {
    for &cells in &config.store_tiers {
        let store = build_store(cells);
        let path = dir.join(format!("store-{cells}.json"));
        let bin_path = dir.join(format!("store-{cells}.bin"));
        let mut save = Vec::new();
        let mut load = Vec::new();
        let mut merge = Vec::new();
        let mut save_bin = Vec::new();
        let mut load_bin = Vec::new();
        let mut merge_bin = Vec::new();
        let mut save_fold = Vec::new();
        progress(&format!("store/*/cells={cells}"));
        // Two half-stores for the merge bench: alternating cells, the
        // shape a two-shard campaign produces.
        let mut half_a = ResultStore::new();
        let mut half_b = ResultStore::new();
        for (n, (fp, cell)) in store.iter().enumerate() {
            let half = if n % 2 == 0 { &mut half_a } else { &mut half_b };
            half.insert_cell(fp.to_string(), cell.clone());
        }
        let halves = [half_a, half_b];
        // One untimed warmup round per tier before the timed repeats:
        // the first iteration otherwise pays one-off costs (allocator
        // growth, cold page cache, file creation) the rest never see —
        // the committed 100k-cell save once spread 242..932ms across
        // its repeats for exactly this reason.
        store.save(&path)?;
        store.save_as(&bin_path, StoreFormat::Binary)?;
        ResultStore::load(&path)?;
        ResultStore::load(&bin_path)?;
        crate::dist::merge_stores(&halves).map_err(|e| ScenarioError::Store(e.to_string()))?;
        // The fold-store lane: same cell count, but every cell carries
        // the seven derived distribution columns and the fold flag —
        // the row shape a replicated campaign checkpoints.
        let fold_store = build_fold_store(cells);
        let fold_path = dir.join(format!("store-{cells}-fold.json"));
        fold_store.save(&fold_path)?;
        for _ in 0..config.repeats {
            let start = monotonic_ns();
            store.save(&path)?;
            save.push(elapsed_ms(start));
            let start = monotonic_ns();
            let loaded = ResultStore::load(&path)?;
            load.push(elapsed_ms(start));
            assert_eq!(loaded.len(), cells);
            let start = monotonic_ns();
            let (fused, _) = crate::dist::merge_stores(&halves)
                .map_err(|e| ScenarioError::Store(e.to_string()))?;
            merge.push(elapsed_ms(start));
            assert_eq!(fused.len(), cells);
            // The binary columnar lane: same store, same halves. Save
            // and load sniff the format from the `.bin` path / magic;
            // merge-bin times the owned zero-clone fuse of two stores
            // (the clones sit outside the timed region, as they do for
            // a real `campaign merge`, which moves freshly loaded
            // shard stores straight into the fuse).
            let start = monotonic_ns();
            store.save_as(&bin_path, StoreFormat::Binary)?;
            save_bin.push(elapsed_ms(start));
            let start = monotonic_ns();
            let loaded = ResultStore::load(&bin_path)?;
            load_bin.push(elapsed_ms(start));
            assert_eq!(loaded.len(), cells);
            let owned = halves.to_vec();
            let start = monotonic_ns();
            let (fused, _) = crate::dist::merge_stores_owned(owned)
                .map_err(|e| ScenarioError::Store(e.to_string()))?;
            merge_bin.push(elapsed_ms(start));
            assert_eq!(fused.len(), cells);
            let start = monotonic_ns();
            fold_store.save(&fold_path)?;
            save_fold.push(elapsed_ms(start));
        }
        for (op, samples) in [
            ("save", save),
            ("load", load),
            ("merge", merge),
            ("save-bin", save_bin),
            ("load-bin", load_bin),
            ("merge-bin", merge_bin),
            ("save-fold", save_fold),
        ] {
            results.push(BenchResult {
                name: format!("store/{op}/cells={cells}"),
                unit: "ms",
                higher_is_better: false,
                samples,
            });
        }
    }
    // Journal replay: the crash-resume rate. One journal of
    // `exec_cells` lines, replayed through `open_resumable` per repeat.
    let name = "journal/replay".to_string();
    progress(&name);
    let cells = config.exec_cells;
    let store_path = dir.join("replay-store.json");
    let replay_source = build_store(cells);
    let mut journal = Journal::open(&store_path, 1024)?;
    for (fp, cell) in replay_source.iter() {
        journal.append(fp, cell);
    }
    journal.finish()?;
    let mut samples = Vec::new();
    for _ in 0..config.repeats {
        let start = monotonic_ns();
        let (replayed, count) = ResultStore::open_resumable(&store_path)?;
        let secs = elapsed_secs(start);
        assert_eq!((replayed.len(), count), (cells, cells));
        samples.push(cells as f64 / secs);
    }
    results.push(BenchResult {
        name,
        unit: "cells/sec",
        higher_is_better: true,
        samples,
    });
    Ok(())
}

/// Serve-side benches (`BENCH_serve.json`): request/response round
/// trips per second against a live in-process daemon over real TCP —
/// the protocol floor (ping) and point queries against the hot
/// interned index, per concurrent-client tier. What the committed
/// numbers pin is the cost of one served request end to end: socket
/// round trip, line framing, JSON parse, index lookup, render. The
/// `serve/metrics-on` / `serve/metrics-off` pair runs the same query
/// workload with the always-on metrics registry and with a no-op
/// sink, pinning the per-request recording overhead.
pub fn run_serve_benches(
    config: &BenchConfig,
    progress: &mut dyn FnMut(&str),
) -> Result<Vec<BenchResult>, ScenarioError> {
    let dir = scratch_dir()?;
    let mut results = Vec::new();
    let outcome = serve_benches_in(&dir, config, progress, &mut results);
    let _ = std::fs::remove_dir_all(&dir); // best-effort scratch cleanup
    outcome?;
    Ok(results)
}

fn serve_benches_in(
    dir: &std::path::Path,
    config: &BenchConfig,
    progress: &mut dyn FnMut(&str),
    results: &mut Vec<BenchResult>,
) -> Result<(), ScenarioError> {
    let cells = config.serve_cells;
    let store_path = dir.join("serve-store.json");
    build_store(cells).save(&store_path)?;
    let max_clients = config
        .serve_client_tiers
        .iter()
        .copied()
        .max()
        .unwrap_or(1)
        .max(1);
    let handle = crate::serve::Server::bind(
        &store_path,
        crate::serve::ServeOptions {
            accept_pool: max_clients + 1,
            quiet: true,
            ..crate::serve::ServeOptions::default()
        },
        None,
    )?;
    let addr = handle.addr();
    // One bench client: `count` strict request/response round trips.
    let client =
        |addr: std::net::SocketAddr, request: &str, count: usize| -> Result<(), ScenarioError> {
            use std::io::{BufRead, BufReader, Write};
            let io_err =
                |e: std::io::Error| ScenarioError::Store(format!("serve bench client: {e}"));
            let mut stream = std::net::TcpStream::connect(addr).map_err(io_err)?;
            stream.set_nodelay(true).ok();
            let mut reader = BufReader::new(stream.try_clone().map_err(io_err)?);
            let mut line = String::new();
            for _ in 0..count {
                stream.write_all(request.as_bytes()).map_err(io_err)?;
                line.clear();
                reader.read_line(&mut line).map_err(io_err)?;
                if !line.contains("\"ok\":true") {
                    return Err(ScenarioError::Store(format!(
                        "serve bench: unexpected response {line}"
                    )));
                }
            }
            Ok(())
        };
    // The protocol floor: one client, bare ping round trips.
    let name = "serve/ping/clients=1".to_string();
    progress(&name);
    let mut samples = Vec::new();
    for _ in 0..config.repeats {
        let start = monotonic_ns();
        client(addr, "{\"op\":\"ping\"}\n", config.serve_queries)?;
        samples.push(config.serve_queries as f64 / elapsed_secs(start));
    }
    results.push(BenchResult {
        name,
        unit: "req/sec",
        higher_is_better: true,
        samples,
    });
    // Point queries against the hot index, per concurrent-client tier.
    // Each client hammers its own cell so tiers measure contention on
    // the shared index snapshot, not client-side formatting.
    for &clients in &config.serve_client_tiers {
        let name = format!("serve/query/clients={clients}");
        progress(&name);
        let per_client = (config.serve_queries / clients.max(1)).max(1);
        let mut samples = Vec::new();
        for repeat in 0..config.repeats {
            let start = monotonic_ns();
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..clients)
                    .map(|c| {
                        let client = &client;
                        scope.spawn(move || {
                            let i = (repeat * clients + c) % cells.max(1);
                            let request = format!(
                                "{{\"op\":\"query\",\"scenario\":\"{BENCH_SCENARIO}\",\
                                 \"params\":{{\"i\":\"{i}\"}}}}\n"
                            );
                            client(addr, &request, per_client)
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .try_for_each(|w| w.join().expect("serve bench client panicked"))
            })?;
            samples.push((per_client * clients) as f64 / elapsed_secs(start));
        }
        results.push(BenchResult {
            name,
            unit: "req/sec",
            higher_is_better: true,
            samples,
        });
    }
    // Metrics recording overhead: the identical single-client query
    // workload against the always-on registry, then against a daemon
    // whose metric sink is a no-op. The committed pair pins the cost
    // of the wait-free recording path per request (expected: within
    // noise of each other).
    let name = "serve/metrics-on/clients=1".to_string();
    progress(&name);
    let query_line = |repeat: usize| {
        let i = repeat % cells.max(1);
        format!(
            "{{\"op\":\"query\",\"scenario\":\"{BENCH_SCENARIO}\",\
             \"params\":{{\"i\":\"{i}\"}}}}\n"
        )
    };
    let mut samples = Vec::new();
    for repeat in 0..config.repeats {
        let start = monotonic_ns();
        client(addr, &query_line(repeat), config.serve_queries)?;
        samples.push(config.serve_queries as f64 / elapsed_secs(start));
    }
    results.push(BenchResult {
        name,
        unit: "req/sec",
        higher_is_better: true,
        samples,
    });
    handle.shutdown();
    handle.wait()?;

    let name = "serve/metrics-off/clients=1".to_string();
    progress(&name);
    let handle = crate::serve::Server::bind(
        &store_path,
        crate::serve::ServeOptions {
            accept_pool: max_clients + 1,
            metrics_noop: true,
            quiet: true,
            ..crate::serve::ServeOptions::default()
        },
        None,
    )?;
    let addr = handle.addr();
    let mut samples = Vec::new();
    for repeat in 0..config.repeats {
        let start = monotonic_ns();
        client(addr, &query_line(repeat), config.serve_queries)?;
        samples.push(config.serve_queries as f64 / elapsed_secs(start));
    }
    results.push(BenchResult {
        name,
        unit: "req/sec",
        higher_is_better: true,
        samples,
    });
    handle.shutdown();
    handle.wait()?;
    Ok(())
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Renders one bench family (`kind` is `"exec"` or `"store"`) as the
/// schema-versioned document committed at the repo root. Deliberately
/// carries no timestamps or host info: regenerating on comparable
/// hardware should produce a small, reviewable diff.
pub fn render(kind: &str, config: &BenchConfig, results: &[BenchResult]) -> Json {
    let benches = results
        .iter()
        .map(|r| {
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            for &s in &r.samples {
                min = min.min(s);
                max = max.max(s);
            }
            (
                r.name.clone(),
                Json::Obj(vec![
                    ("unit".into(), Json::str(r.unit)),
                    (
                        "better".into(),
                        Json::str(if r.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        }),
                    ),
                    ("mean".into(), Json::Num(round3(r.mean()))),
                    ("min".into(), Json::Num(round3(min))),
                    ("max".into(), Json::Num(round3(max))),
                    ("samples".into(), Json::Num(r.samples.len() as f64)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Num(BENCH_SCHEMA as f64)),
        ("kind".into(), Json::str(kind)),
        (
            "mode".into(),
            Json::str(if config.quick { "quick" } else { "full" }),
        ),
        ("repeats".into(), Json::Num(config.repeats as f64)),
        ("benches".into(), Json::Obj(benches)),
    ])
}

/// The committed file name of one bench family.
pub fn bench_file(kind: &str) -> String {
    format!("BENCH_{kind}.json")
}

/// Compares a fresh (quick) rerun against a committed document.
/// Returns the gate's failure list — empty means the gate passes.
/// Failures: committed schema drift, a fresh bench name the committed
/// file lacks, unit/direction drift, or a mean worse than the
/// committed mean by more than [`GUARD_BAND`]. Committed benches the
/// quick mode doesn't rerun (higher tiers) are fine and skipped.
pub fn check_against(kind: &str, committed: &Json, fresh: &[BenchResult]) -> Vec<String> {
    let mut failures = Vec::new();
    let schema = committed
        .get("schema")
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u32;
    if schema != BENCH_SCHEMA {
        failures.push(format!(
            "BENCH_{kind}: committed schema {schema}, expected {BENCH_SCHEMA} — regenerate with `campaign bench`"
        ));
        return failures;
    }
    for result in fresh {
        let Some(committed_bench) = committed.get("benches").and_then(|b| b.get(&result.name))
        else {
            failures.push(format!(
                "BENCH_{kind}: bench `{}` missing from committed file — regenerate with `campaign bench`",
                result.name
            ));
            continue;
        };
        let field = |key: &str| {
            committed_bench
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or("")
        };
        if field("unit") != result.unit {
            failures.push(format!(
                "BENCH_{kind}: `{}` unit drifted ({} committed, {} measured)",
                result.name,
                field("unit"),
                result.unit
            ));
            continue;
        }
        let better_higher = field("better") == "higher";
        if better_higher != result.higher_is_better {
            failures.push(format!("BENCH_{kind}: `{}` direction drifted", result.name));
            continue;
        }
        let committed_mean = committed_bench
            .get("mean")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let fresh_mean = result.mean();
        let regressed = if better_higher {
            fresh_mean * GUARD_BAND < committed_mean
        } else {
            fresh_mean > committed_mean * GUARD_BAND
        };
        if regressed {
            failures.push(format!(
                "BENCH_{kind}: `{}` regressed beyond the {GUARD_BAND}x guard band \
                 (committed mean {committed_mean} {unit}, measured {fresh:.3} {unit})",
                result.name,
                unit = result.unit,
                fresh = fresh_mean,
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig {
            quick: true,
            repeats: 2,
            exec_cells: 50,
            worker_tiers: vec![1, 2],
            store_tiers: vec![10],
            serve_cells: 10,
            serve_queries: 20,
            serve_client_tiers: vec![1, 2],
        }
    }

    #[test]
    fn quick_bench_names_are_a_subset_of_full() {
        let full = BenchConfig::full(None);
        let quick = BenchConfig::quick(None);
        assert_eq!(quick.exec_cells, full.exec_cells);
        assert!(quick
            .worker_tiers
            .iter()
            .all(|t| full.worker_tiers.contains(t)));
        assert!(quick
            .store_tiers
            .iter()
            .all(|t| full.store_tiers.contains(t)));
        assert_eq!(quick.serve_cells, full.serve_cells);
        assert_eq!(quick.serve_queries, full.serve_queries);
        assert!(quick
            .serve_client_tiers
            .iter()
            .all(|t| full.serve_client_tiers.contains(t)));
    }

    #[test]
    fn exec_benches_measure_nonzero_throughput() {
        let mut lines = Vec::new();
        let results = run_exec_benches(&tiny(), &mut |l| lines.push(l.to_string())).unwrap();
        assert_eq!(results.len(), 5); // two tiers + memo + replicate-fold + mem kernel
        for r in &results {
            assert_eq!(r.samples.len(), 2);
            assert!(
                r.samples.iter().all(|&s| s > 0.0),
                "{}: {:?}",
                r.name,
                r.samples
            );
        }
        assert!(lines.iter().any(|l| l.contains("exec/memo")));
        assert!(lines.iter().any(|l| l.contains("exec/replicate-fold")));
        let kernel = results.last().unwrap();
        assert_eq!(kernel.name, "mem/evict-fill/policy=mru,assoc=4");
        assert_eq!((kernel.unit, kernel.higher_is_better), ("ms", false));
    }

    #[test]
    fn store_benches_cover_every_op() {
        let results = run_store_benches(&tiny(), &mut |_| {}).unwrap();
        let names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
        for expected in [
            "store/save/cells=10",
            "store/load/cells=10",
            "store/merge/cells=10",
            "store/save-bin/cells=10",
            "store/load-bin/cells=10",
            "store/merge-bin/cells=10",
            "store/save-fold/cells=10",
            "journal/replay",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        assert!(results.iter().all(|r| r.samples.iter().all(|&s| s >= 0.0)));
    }

    #[test]
    fn serve_benches_measure_nonzero_request_rates() {
        let results = run_serve_benches(&tiny(), &mut |_| {}).unwrap();
        let names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
        for expected in [
            "serve/ping/clients=1",
            "serve/query/clients=1",
            "serve/query/clients=2",
            "serve/metrics-on/clients=1",
            "serve/metrics-off/clients=1",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        for r in &results {
            assert_eq!(r.unit, "req/sec");
            assert!(
                r.samples.iter().all(|&s| s > 0.0),
                "{}: {:?}",
                r.name,
                r.samples
            );
        }
    }

    #[test]
    fn render_shape_and_schema() {
        let config = tiny();
        let results = vec![BenchResult {
            name: "exec/run/workers=1".into(),
            unit: "cells/sec",
            higher_is_better: true,
            samples: vec![100.0, 200.0],
        }];
        let doc = render("exec", &config, &results);
        assert_eq!(doc.get("schema").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("quick"));
        let bench = doc
            .get("benches")
            .and_then(|b| b.get("exec/run/workers=1"))
            .unwrap();
        assert_eq!(bench.get("mean").and_then(Json::as_f64), Some(150.0));
        assert_eq!(bench.get("min").and_then(Json::as_f64), Some(100.0));
        assert_eq!(bench.get("max").and_then(Json::as_f64), Some(200.0));
        assert_eq!(bench.get("samples").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn check_flags_schema_drift_and_regressions() {
        let config = tiny();
        let fresh = vec![BenchResult {
            name: "exec/run/workers=1".into(),
            unit: "cells/sec",
            higher_is_better: true,
            samples: vec![100.0],
        }];
        // Matching committed file: clean.
        let committed = render("exec", &config, &fresh);
        assert!(check_against("exec", &committed, &fresh).is_empty());
        // 4x slower than committed: beyond the 3x band.
        let slow = vec![BenchResult {
            samples: vec![25.0],
            ..fresh[0].clone()
        }];
        let failures = check_against("exec", &committed, &slow);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("guard band"));
        // Schema drift.
        let old = Json::Obj(vec![("schema".into(), Json::Num(0.0))]);
        assert!(check_against("exec", &old, &fresh)[0].contains("schema"));
        // Missing bench.
        let empty = Json::Obj(vec![
            ("schema".into(), Json::Num(BENCH_SCHEMA as f64)),
            ("benches".into(), Json::Obj(vec![])),
        ]);
        assert!(check_against("exec", &empty, &fresh)[0].contains("missing"));
        // A faster rerun is never a failure.
        let fast = vec![BenchResult {
            samples: vec![10_000.0],
            ..fresh[0].clone()
        }];
        assert!(check_against("exec", &committed, &fast).is_empty());
        // Lower-is-better direction: 4x slower save time fails.
        let save = vec![BenchResult {
            name: "store/save/cells=10".into(),
            unit: "ms",
            higher_is_better: false,
            samples: vec![1.0],
        }];
        let committed = render("store", &config, &save);
        let slow_save = vec![BenchResult {
            samples: vec![4.0],
            ..save[0].clone()
        }];
        assert_eq!(check_against("store", &committed, &slow_save).len(), 1);
        assert!(check_against("store", &committed, &save).is_empty());
    }
}
