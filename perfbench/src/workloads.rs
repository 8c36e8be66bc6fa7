//! The two workloads. Each runs the same user session over a
//! different campaign shape — set up, run the campaign, run it again
//! over the saved store, read results, submit small follow-up jobs —
//! so every workload reports every end-to-end metric, while each one
//! loads a different layer:
//!
//! * `paper-campaign` — the default 102-cell campaign, the paper's
//!   evidence run: cell time in `mem` dominates, store/dist/serve idle.
//! * `replicated-sweep` — 11 cheap scenarios × 16 replicates, journaled:
//!   executor dispatch, the `expect` fold, journal and store, no mem
//!   kernel. Its traced runs add two phases with per-layer metrics
//!   only: the same campaign as 2 work-stealing shards, merged and
//!   folded (the only user of `dist`), and a daemon over the same sweep
//!   with raw replicates kept, read by one connection while another
//!   submits (the only user of the `serve` daemon).

use crate::reads::{self, Client, Kind, Mix, Query, SUBMIT_SCENARIO};
use crate::stats;
use crate::trace::{SpanCtx, Tracer};
use harness::dist::{self, LeaseDir, Manifest};
use harness::exec::CellTiming;
use harness::gen::DEFAULT_CORPUS_SIZE;
use harness::json::Json;
use harness::matrix::split_rep;
use harness::serve::index::StoreIndex;
use harness::store::{journal_path, StoredCell};
use harness::{
    fold_results, run_campaign_with, Campaign, CellDomain, CellResult, CompactingJournal,
    ExecConfig, ExecHooks, Filter, GenOptions, Obs, Params, Registry, ResultStore, ServeOptions,
    Server, StoreFormat,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub type R<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub const WORKLOADS: [&str; 2] = ["paper-campaign", "replicated-sweep"];

/// Everything except `cache-evict-fill` and `pipeline-sipr`, the two
/// scenarios with expensive cells.
const CHEAP: [&str; 11] = [
    "pipeline-domino",
    "dram-refresh",
    "dram-controller",
    "bus-arbitration",
    "branch-mispredict",
    "wcet-tightness",
    "singlepath-iipr",
    "dynsys-horizon",
    "gen/pipeline",
    "gen/cache",
    "gen/wcet",
];

/// Campaign seeds with committed baseline stores; `paper-campaign`
/// alternates them, and the parity of `--seed` picks which leads.
const PAPER_SEEDS: [u64; 2] = [42, 7];
/// Executor threads of every campaign (the two shards of the sharded
/// phase run one each). On a 2-vCPU host two busy threads often share
/// one vCPU: two copies of a fixed CPU loop, run side by side, each saw
/// its upper quartile double, while one copy alone stayed within 6%.
const EXEC_THREADS: usize = 1;
const REPLICATES: u32 = 16;
const SWEEP_CORPUS: u32 = 8;
/// The sweeps' generated-program corpus is fixed: its programs set how
/// much work a gen cell does, so a corpus drawn from `--seed` would
/// make the amount of work, not only the cell seeds, vary by seed.
const SWEEP_CORPUS_SEED: u64 = 42;
/// Follow-up jobs run on these seeds, fixed for the same reason (each
/// job builds a registry over a corpus drawn from its seed).
const JOB_SEED_BASE: u64 = 1 << 40;
/// Journal fsync batch of journaled runs (`--checkpoint-every`). Large,
/// so a campaign's time is not dominated by the latency of a shared
/// disk's fsyncs (at 16, 232 fsyncs per sweep made `campaign_s` vary
/// 2.5× between runs; at 1024 a sweep makes 4).
const CHECKPOINT_EVERY: usize = 1024;
const LAYER_REPEATS: usize = 5;
const JOB_POLL: Duration = Duration::from_millis(2);
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// One benchmark run: budget, tracer, tallies and results.
pub struct Bench {
    pub seed: u64,
    pub budget: Duration,
    pub dir: PathBuf,
    pub tracer: Tracer,
    /// Stands in for `tracer` on the untraced repeats of a traced run.
    off: Tracer,
    /// The program's own counters, attached only in a traced run.
    obs: Option<Obs>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values with the samples behind them.
    pub e2e: BTreeMap<&'static str, (f64, Vec<f64>)>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Per-layer values measured outside spans, one per repeat.
    layer_samples: BTreeMap<&'static str, Vec<f64>>,
    /// Campaign repeats as (traced, seconds).
    campaigns: Vec<(bool, f64)>,
    /// Peak resident memory of each campaign repeat, in MiB.
    peak_rss: Vec<f64>,
}

impl Bench {
    pub fn new(seed: u64, budget: Duration, dir: PathBuf, traced: bool) -> Bench {
        Bench {
            seed,
            budget,
            dir,
            tracer: Tracer::new(traced),
            off: Tracer::new(false),
            obs: traced.then(Obs::new),
            attempted: 0,
            failed: 0,
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            layer_samples: BTreeMap::new(),
            campaigns: Vec::new(),
            peak_rss: Vec::new(),
        }
    }

    fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// The tracer and program hook of one repeat.
    fn observe(&self, traced: bool) -> (&Tracer, Option<&Obs>) {
        if traced {
            (&self.tracer, self.obs.as_ref())
        } else {
            (&self.off, None)
        }
    }

    /// Counts one operation; a false `ok` counts it as failed.
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), what);
    }

    fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("perfbench: FAILED ({failed}×): {}", what());
        }
    }

    fn share(&self, fraction: f64) -> Duration {
        self.budget.mul_f64(fraction)
    }

    fn median(&mut self, name: &'static str, samples: Vec<f64>) -> R<()> {
        let value = stats::median(&samples).ok_or(format!("{name}: no samples"))?;
        self.e2e.insert(name, (value, samples));
        Ok(())
    }

    /// Reports a time metric as the [`stats::quiet`] percentile of its
    /// samples.
    fn quiet(&mut self, name: &'static str, samples: Vec<f64>) -> R<()> {
        let value = stats::quiet(&samples).ok_or(format!("{name}: no samples"))?;
        self.e2e.insert(name, (value, samples));
        Ok(())
    }

    fn layer_sample(&mut self, name: &'static str, value: f64) {
        self.layer_samples.entry(name).or_default().push(value);
    }

    fn exec_counters(&self) -> [u64; 3] {
        self.obs.as_ref().map_or([0; 3], |o| {
            ["memo/hit", "memo/miss", "cells/executed"].map(|c| o.counter(c))
        })
    }

    /// Executor counters of one traced rerun, read through `Obs`.
    fn rerun_counters(&mut self, before: [u64; 3]) {
        if !self.traced() {
            return;
        }
        let [hit, miss, executed] = self.exec_counters();
        let (hit, miss) = (hit - before[0], miss - before[1]);
        self.layer_sample("exec.cells_scanned", (hit + miss) as f64);
        self.layer_sample("exec.cells_executed", (executed - before[2]) as f64);
        self.layer_sample(
            "exec.memo_hit_ratio",
            hit as f64 / (hit + miss).max(1) as f64,
        );
    }
}

/// Restarts the kernel's peak-resident-memory count of this process.
fn reset_peak_rss() -> R<()> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Peak resident memory (`VmHWM`) since the last reset, in MiB.
fn peak_rss_mb() -> R<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

/// A campaign shape.
struct Spec {
    select: Vec<String>,
    gen: GenOptions,
    config: ExecConfig,
    /// Journaled with checkpoints, like `run --checkpoint-every`.
    journal: bool,
}

impl Spec {
    fn paper(seed: u64) -> Spec {
        Spec {
            select: Vec::new(),
            gen: GenOptions {
                corpus_size: DEFAULT_CORPUS_SIZE,
                corpus_seed: seed,
            },
            config: ExecConfig {
                threads: EXEC_THREADS,
                seed,
                replicates: 1,
                keep_replicates: false,
            },
            journal: false,
        }
    }

    /// A small follow-up job: the 8 cells of one scenario on a fresh
    /// seed, one worker, journaled — a daemon `submit` or its batch twin.
    fn job(seed: u64) -> Spec {
        Spec {
            select: vec![SUBMIT_SCENARIO.to_string()],
            gen: GenOptions {
                corpus_size: DEFAULT_CORPUS_SIZE,
                corpus_seed: seed,
            },
            config: ExecConfig {
                threads: 1,
                seed,
                replicates: 1,
                keep_replicates: false,
            },
            journal: true,
        }
    }

    fn sweep(seed: u64, keep_replicates: bool) -> Spec {
        Spec {
            select: CHEAP.iter().map(|s| s.to_string()).collect(),
            gen: GenOptions {
                corpus_size: SWEEP_CORPUS,
                corpus_seed: SWEEP_CORPUS_SEED,
            },
            config: ExecConfig {
                threads: EXEC_THREADS,
                seed,
                replicates: REPLICATES,
                keep_replicates,
            },
            journal: !keep_replicates,
        }
    }
}

pub fn run(workload: &str, b: &mut Bench) -> R<()> {
    match workload {
        "paper-campaign" => paper_campaign(b),
        "replicated-sweep" => replicated_sweep(b),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    let untraced: Vec<f64> = b.campaigns.iter().filter(|c| !c.0).map(|c| c.1).collect();
    let traced: Vec<f64> = b.campaigns.iter().filter(|c| c.0).map(|c| c.1).collect();
    if let (Some(plain), Some(with)) = (stats::quiet(&untraced), stats::quiet(&traced)) {
        b.layer
            .insert("obs.trace_overhead_pct", (with / plain - 1.0) * 100.0);
    }
    b.quiet("campaign_s", untraced)?;
    // The smallest per-campaign peak: the campaign's own working set.
    // Larger peaks add memory the allocator kept from earlier repeats.
    let peak_rss = std::mem::take(&mut b.peak_rss);
    let floor = peak_rss.iter().copied().fold(f64::INFINITY, f64::min);
    b.e2e.insert("peak_rss_mb", (floor, peak_rss));
    if b.traced() {
        layer_metrics(b);
    }
    Ok(())
}

/// What one step of a round does; the step returns the seconds it
/// measured.
#[derive(Clone, Copy)]
enum Step {
    Setup,
    Campaign,
    Rerun,
}

/// How much of each operation one round of a batch workload runs.
struct Per {
    /// Set-ups and follow-up jobs per round.
    short: usize,
    reruns: usize,
    /// Read batches per round, each over a freshly built index.
    read_batches: usize,
    /// Time spent reading per batch.
    read_slice: Duration,
}

/// paper-campaign rounds last ~2 s (one campaign).
const PAPER_PER: Per = Per {
    short: 10,
    reruns: 10,
    read_batches: 5,
    read_slice: Duration::from_millis(30),
};
/// Sweep rounds last ~0.5 s.
const SWEEP_PER: Per = Per {
    short: 4,
    reruns: 1,
    read_batches: 1,
    read_slice: Duration::from_millis(30),
};
/// A traced run needs two untraced and two traced campaign rounds.
const MIN_ROUNDS: usize = 4;
/// Share of `--seconds` the rounds of a batch workload fill.
const ROUNDS_SHARE: f64 = 0.9;

/// One of paper-campaign's two committed campaigns.
struct PaperRun {
    spec: Spec,
    baseline: Vec<u8>,
    baseline_path: String,
    path: PathBuf,
}

fn paper_campaign(b: &mut Bench) -> R<()> {
    // Both committed campaigns, alternating; `--seed` picks which leads.
    let lead = (b.seed % 2) as usize;
    let mut runs = Vec::new();
    for seed in [PAPER_SEEDS[lead], PAPER_SEEDS[1 - lead]] {
        let baseline_path = format!("baselines/campaign-seed{seed}.json");
        runs.push(PaperRun {
            spec: Spec::paper(seed),
            baseline: std::fs::read(&baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?,
            baseline_path,
            path: b.dir.join(format!("campaign-seed{seed}.json")),
        });
    }
    let mut registries = build_registries(b, runs.iter().map(|r| &r.spec))?.1;
    let check = |b: &mut Bench, run: &PaperRun, what: &str| -> R<()> {
        let same = std::fs::read(&run.path).map_err(err)? == run.baseline;
        b.op(same, || {
            format!("{what} store differs from {}", run.baseline_path)
        });
        Ok(())
    };
    let op = |b: &mut Bench, step: Step, i: usize| -> R<f64> {
        let run = &runs[i % 2];
        match step {
            Step::Setup => {
                let (secs, built) = build_registries(b, runs.iter().map(|r| &r.spec))?;
                registries = built;
                Ok(secs)
            }
            Step::Campaign => {
                let secs = campaign_repeat(b, &registries[i % 2], &run.spec, &run.path, i)?.0;
                check(b, run, "campaign")?;
                Ok(secs)
            }
            Step::Rerun => {
                let secs = rerun(b, &registries[i % 2], &run.spec, &run.path)?.0;
                check(b, run, "rerun")?;
                Ok(secs)
            }
        }
    };
    rounds(b, &PAPER_PER, op, |i| runs[i % 2].path.clone())
}

fn replicated_sweep(b: &mut Bench) -> R<()> {
    let spec = Spec::sweep(b.seed, false);
    let path = b.dir.join("sweep.json");
    let mut registry = build_registries(b, [&spec])?.1.remove(0);
    let mut check = sweep_check(&path);
    let op = |b: &mut Bench, step: Step, i: usize| -> R<f64> {
        let (secs, campaign) = match step {
            Step::Setup => {
                let (secs, mut built) = build_registries(b, [&spec])?;
                registry = built.remove(0);
                return Ok(secs);
            }
            Step::Campaign => campaign_repeat(b, &registry, &spec, &path, i)?,
            Step::Rerun => rerun(b, &registry, &spec, &path)?,
        };
        check(b, &campaign)?;
        Ok(secs)
    };
    rounds(b, &SWEEP_PER, op, |_| path.clone())?;
    if b.traced() {
        sharded_phase(b, &registry, &spec)?;
        serve_phase(b)?;
    }
    Ok(())
}

/// A sweep store must hold every replicate's outcome and equal the
/// bytes of the run's first store.
fn sweep_check(path: &Path) -> impl FnMut(&mut Bench, &Campaign) -> R<()> + '_ {
    let mut reference: Option<Vec<u8>> = None;
    move |b: &mut Bench, campaign: &Campaign| {
        let bytes = std::fs::read(path).map_err(err)?;
        let reference = reference.get_or_insert_with(|| bytes.clone());
        let cells = campaign.cells.len();
        b.op(
            bytes == *reference
                && campaign.executed + campaign.memoized == cells * REPLICATES as usize,
            || format!("sweep store or cell counts differ ({cells} fold cells)"),
        );
        Ok(())
    }
}

/// In a traced `replicated-sweep` run: the same campaign planned into
/// 2 shards, run as 2 work-stealing shards, merged, coverage-checked
/// and folded, then re-run over the saved raw union — the only caller
/// of `dist`. Its spans hang under `sharded` roots, apart from the
/// single-process campaigns. Every merged store must equal the
/// single-process store of the same campaign.
fn sharded_phase(b: &mut Bench, registry: &Registry, spec: &Spec) -> R<()> {
    let mut single = ResultStore::new();
    run_campaign_with(
        registry,
        &spec.select,
        &Filter::all(),
        &spec.config,
        &mut single,
        CellDomain::All,
        ExecHooks::default(),
    )
    .map_err(err)?;
    let reference = single.to_json().pretty().into_bytes();
    let path = b.dir.join("merged.json");
    let union = b.dir.join("union.json");
    let check = |b: &mut Bench, what: &str| -> R<()> {
        let same = std::fs::read(&path).map_err(err)? == reference;
        b.op(same, || {
            format!("{what} store differs from the single-process store")
        });
        Ok(())
    };
    for i in 0..LAYER_REPEATS {
        let stolen_before = b.obs.as_ref().map_or(0, |o| o.counter("steal/stolen"));
        let keep_union = (i == 0).then_some(union.as_path());
        let (tr, obs) = b.observe(true);
        let manifest = sharded_run(tr, obs, &b.dir, registry, spec, &path, i, keep_union)?;
        let stolen = b.obs.as_ref().map_or(0, |o| o.counter("steal/stolen"));
        b.layer_sample("dist.stolen_chunks", (stolen - stolen_before) as f64);
        check(b, "merged")?;
        let (tr, obs) = b.observe(true);
        sharded_rerun(tr, obs, registry, &manifest, &union, &path)?;
        check(b, "re-merged")?;
    }
    Ok(())
}

/// Reading time per daemon lifetime, with one job submitted a quarter
/// into it.
const SERVE_SLICE: Duration = Duration::from_millis(400);
/// A daemon read slice is cut into batches this long.
const SERVE_BATCH: Duration = Duration::from_millis(100);

/// In a traced `replicated-sweep` run: the same sweep with raw
/// replicates kept, served by the daemon — the only user of `serve`.
/// Each repeat runs a fresh campaign, binds the daemon over its store
/// (the set-up), reads over one connection while another submits a
/// job, and shuts the daemon down; its store must then equal a batch
/// run of the same job over the same starting store.
fn serve_phase(b: &mut Bench) -> R<()> {
    let spec = Spec::sweep(b.seed, true);
    let registry = Registry::builtin_with(&spec.gen);
    let path = b.dir.join("served.json");
    let options = ServeOptions {
        exec_threads: 1,
        quiet: true,
        ..ServeOptions::default()
    };
    let mut check = sweep_check(&path);
    let mut reads = Reads::default();
    let mut jobs = Jobs::default();
    let mut pool = None;
    for i in 0..LAYER_REPEATS {
        let (tr, obs) = b.observe(false);
        let campaign = batch_run(tr, obs, &registry, &spec, &path, true, "campaign")?.campaign;
        check(b, &campaign)?;
        let store = ResultStore::load(&path).map_err(err)?;
        // Every repeat's store is the same campaign's: one pool serves all.
        let pool = pool.get_or_insert_with(|| reads::pool(&store));
        let mut mix = Mix::new(pool, b.seed.wrapping_add(i as u64));
        serve_round(b, &path, &store, &options, &mut mix, &mut reads, &mut jobs)?;
    }
    b.tally(reads.attempted, reads.failed, || {
        "wrong or missing daemon replies".into()
    });
    for (name, values) in [
        ("serve.queue_wait_ms", jobs.queue_wait_ms),
        ("serve.job_ms", jobs.job_ms),
        ("serve.handle_p50_us.query", jobs.handle_p50_us[0].clone()),
        (
            "serve.handle_p50_us.query_range",
            jobs.handle_p50_us[1].clone(),
        ),
    ] {
        for v in values {
            b.layer_sample(name, v);
        }
    }
    Ok(())
}

/// Per-layer values the daemon reports through its `jobs` and `metrics`
/// ops, one per round.
#[derive(Default)]
struct Jobs {
    queue_wait_ms: Vec<f64>,
    job_ms: Vec<f64>,
    /// Point, then range.
    handle_p50_us: [Vec<f64>; 2],
}

/// One daemon lifetime under spans: bind and first `ping` (the set-up),
/// a slice of reads beside one submitted job, a `metrics` scrape,
/// shutdown and the store check.
fn serve_round(
    b: &mut Bench,
    path: &Path,
    store: &ResultStore,
    options: &ServeOptions,
    mix: &mut Mix<'_>,
    reads: &mut Reads,
    jobs: &mut Jobs,
) -> R<()> {
    let root = b.tracer.root("setup");
    let handle = {
        let _span = b.tracer.child(root.ctx(), "serve.bind");
        Server::bind(path, options.clone(), b.obs.clone()).map_err(err)?
    };
    let addr = handle.addr();
    let mut client = Client::connect(addr).map_err(err)?;
    let ping = client.call(&op_doc("ping")).map_err(err)?;
    drop(root);
    b.op(is_ok(&ping), || "daemon did not answer ping".into());
    let seed = job_seed(0);
    let busy = AtomicBool::new(false);
    let begin = Instant::now();
    let (read, submitted) = std::thread::scope(|s| {
        let tracer = &b.tracer;
        let writer = s.spawn(|| submit_job(tracer, addr, seed, begin + SERVE_SLICE / 4, &busy));
        let read = read_slice(
            tracer,
            &mut client,
            addr,
            mix,
            reads,
            begin + SERVE_SLICE,
            &busy,
        );
        (
            read,
            writer
                .join()
                .map_err(|_| "submit client panicked".to_string()),
        )
    });
    read?;
    let submitted = submitted??;
    let metrics = client.call(&op_doc("metrics")).map_err(err)?;
    drop(client);
    handle.shutdown();
    let summary = handle.wait().map_err(err)?;
    b.op(submitted.is_some() && summary.jobs_done == 1, || {
        format!(
            "job on seed {seed} did not finish ({} done)",
            summary.jobs_done
        )
    });
    if let Some(job) = &submitted {
        jobs.queue_wait_ms.push(job.queue_wait_ms);
        jobs.job_ms.push(job.job_ms);
    }
    for (side, op) in ["query", "query_range"].into_iter().enumerate() {
        let series = format!("harness_serve_request_latency_seconds{{op=\"{op}\"}}");
        let p50 = metrics
            .get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(|h| h.get(&series))
            .and_then(|h| h.get("p50_us"))
            .and_then(Json::as_f64);
        b.op(p50.is_some(), || format!("metrics op lacks {series}"));
        jobs.handle_p50_us[side].extend(p50);
    }
    // The same job as a batch run over the same starting store.
    let mut batch = store.clone();
    let job = Spec::job(seed);
    run_campaign_with(
        &Registry::builtin_with(&job.gen),
        &job.select,
        &Filter::all(),
        &job.config,
        &mut batch,
        CellDomain::All,
        ExecHooks::default(),
    )
    .map_err(err)?;
    let same = std::fs::read(path).map_err(err)? == batch.to_json().pretty().into_bytes();
    b.op(same, || {
        "daemon store differs from the batch run of its submit".into()
    });
    Ok(())
}

/// Set-up of the batch workloads: building the registries (and with
/// them the generated-program corpora) the campaigns run over.
fn build_registries<'a>(
    b: &mut Bench,
    specs: impl IntoIterator<Item = &'a Spec>,
) -> R<(f64, Vec<Registry>)> {
    let root = b.tracer.root("setup");
    let start = Instant::now();
    let registries = specs
        .into_iter()
        .map(|spec| {
            let _span = b.tracer.child(root.ctx(), "gen.registry");
            Registry::builtin_with(&spec.gen)
        })
        .collect();
    Ok((start.elapsed().as_secs_f64(), registries))
}

/// Runs rounds until their share of the budget has passed. A round is
/// `per.short` set-ups, one campaign, `per.reruns` reruns, one batch
/// of reads over the round's store and `per.short` follow-up jobs
/// into it. Interleaving the phases makes every median sample the
/// whole run, so a burst of host or disk noise moves a few samples of
/// each metric instead of all samples of one.
fn rounds(
    b: &mut Bench,
    per: &Per,
    mut op: impl FnMut(&mut Bench, Step, usize) -> R<f64>,
    store_path: impl Fn(usize) -> PathBuf,
) -> R<()> {
    let (mut setups, mut reruns, mut submits, mut sizes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reads = Reads::default();
    let mut last_store = None;
    let budget = b.share(ROUNDS_SHARE);
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_ROUNDS || start.elapsed() < budget {
        for _ in 0..per.short {
            setups.push(op(b, Step::Setup, i)?);
        }
        op(b, Step::Campaign, i)?;
        for _ in 0..per.reruns {
            reruns.push(op(b, Step::Rerun, i)?);
        }
        let path = store_path(i);
        sizes.push(std::fs::metadata(&path).map_err(err)?.len() as f64);
        let store = ResultStore::load(&path).map_err(err)?;
        for k in 0..per.read_batches {
            let seed = b.seed.wrapping_add((i * per.read_batches + k) as u64);
            read_batch(b, &store, &mut reads, per.read_slice, seed);
        }
        for k in 0..per.short {
            submits.push(submit_once(b, &path, job_seed(k))?);
        }
        let cells = ResultStore::load(&path).map_err(err)?.len();
        b.op(cells == store.len() + 8 * per.short, || {
            format!("store holds {cells} cells after the follow-up jobs")
        });
        last_store = Some(store);
        i += 1;
    }
    b.median("setup_s", setups)?;
    b.quiet("rerun_s", reruns)?;
    b.quiet("submit_s", submits)?;
    b.median("store_bytes", sizes)?;
    reads.report(b)?;
    store_formats(b, &last_store.expect("MIN_ROUNDS > 0"))
}

/// Whether repeat `i` of a campaign phase is traced: a traced run
/// alternates pairs of untraced and traced repeats, so that
/// alternating inputs (paper-campaign's two seeds) fall on both sides.
/// The untraced ones alone make `campaign_s`; the two sets together
/// give the tracing overhead.
fn traced_repeat(b: &Bench, i: usize) -> bool {
    b.traced() && (i / 2) % 2 == 1
}

/// One fresh campaign, with its peak resident memory.
fn campaign_repeat(
    b: &mut Bench,
    registry: &Registry,
    spec: &Spec,
    path: &Path,
    i: usize,
) -> R<(f64, Campaign)> {
    let traced = traced_repeat(b, i);
    reset_peak_rss()?;
    let facts = {
        let (tr, obs) = b.observe(traced);
        batch_run(tr, obs, registry, spec, path, true, "campaign")?
    };
    b.campaigns.push((traced, facts.secs));
    b.peak_rss.push(peak_rss_mb()?);
    if traced {
        let bytes = std::fs::metadata(path).map_err(err)?.len() as f64;
        let journal = facts.journal_bytes as f64;
        b.layer_sample("store.journal_bytes", journal);
        b.layer_sample("store.write_amp", (journal + bytes) / bytes);
        if !facts.raws.is_empty() {
            fold_check(b, &facts.store, facts.raws)?;
        }
    }
    Ok((facts.secs, facts.campaign))
}

/// A run over the saved store.
fn rerun(b: &mut Bench, registry: &Registry, spec: &Spec, path: &Path) -> R<(f64, Campaign)> {
    let before = b.exec_counters();
    let facts = {
        let (tr, obs) = b.observe(b.traced());
        batch_run(tr, obs, registry, spec, path, false, "rerun")?
    };
    b.rerun_counters(before);
    Ok((facts.secs, facts.campaign))
}

struct RunFacts {
    secs: f64,
    campaign: Campaign,
    store: ResultStore,
    journal_bytes: u64,
    /// Raw replicate cells, collected on traced fresh runs.
    raws: Vec<StoredCell>,
}

/// One batch campaign over `path`, traced under a `root` span: fresh
/// (the file removed first) or over the saved store, journaled and
/// checkpointed or saved plainly.
fn batch_run(
    tr: &Tracer,
    obs: Option<&Obs>,
    registry: &Registry,
    spec: &Spec,
    path: &Path,
    fresh: bool,
    root: &'static str,
) -> R<RunFacts> {
    if fresh {
        for stale in [path.to_path_buf(), journal_path(path)] {
            if stale.exists() {
                std::fs::remove_file(&stale).map_err(err)?;
            }
        }
    }
    let collect = tr.enabled() && fresh && spec.config.replicates > 1;
    let raws = Mutex::new(Vec::new());
    let root = tr.root(root);
    let ctx = root.ctx();
    let start = Instant::now();
    let mut store = if fresh {
        ResultStore::new()
    } else {
        let _span = tr.child(ctx, "store.load");
        match spec.journal {
            true => ResultStore::open_resumable(path).map_err(err)?.0,
            false => ResultStore::load(path).map_err(err)?,
        }
    };
    let journal = match spec.journal {
        true => {
            let mut journal =
                CompactingJournal::open(path, CHECKPOINT_EVERY, None, &store).map_err(err)?;
            if let Some(obs) = obs {
                journal.observe(obs);
            }
            Some(Mutex::new(journal))
        }
        false => None,
    };
    let on_result = |fp: &str, cell: &StoredCell| {
        if let Some(journal) = &journal {
            journal.lock().expect("journal lock").append(fp, cell);
        }
        if collect {
            raws.lock().expect("raw cell lock").push(cell.clone());
        }
    };
    let exec = tr.child(ctx, "exec.run");
    let on_timing = cell_sink(tr, exec.ctx());
    let campaign = run_campaign_with(
        registry,
        &spec.select,
        &Filter::all(),
        &spec.config,
        &mut store,
        CellDomain::All,
        ExecHooks {
            on_result: (journal.is_some() || collect)
                .then_some(&on_result as &(dyn Fn(&str, &StoredCell) + Sync)),
            on_timing: tr
                .enabled()
                .then_some(&on_timing as &(dyn Fn(CellTiming<'_>) + Sync)),
            obs,
            ..ExecHooks::default()
        },
    )
    .map_err(err)?;
    drop(exec);
    let mut journal_bytes = 0;
    match journal {
        Some(journal) => {
            journal
                .into_inner()
                .expect("journal lock")
                .finish()
                .map_err(err)?;
            journal_bytes = std::fs::metadata(journal_path(path)).map_or(0, |m| m.len());
            let _span = tr.child(ctx, "store.checkpoint");
            store.checkpoint(path).map_err(err)?;
        }
        None => {
            let _span = tr.child(ctx, "store.save");
            store.save(path).map_err(err)?;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    drop(root);
    Ok(RunFacts {
        secs,
        campaign,
        store,
        journal_bytes,
        raws: raws.into_inner().expect("raw cell lock"),
    })
}

/// Per-cell spans from the executor's timing hook, under `parent`,
/// named by the scenario group the cell belongs to.
fn cell_sink(tr: &Tracer, parent: SpanCtx) -> impl Fn(CellTiming<'_>) + Sync + '_ {
    move |timing: CellTiming<'_>| {
        if let Some(wall) = timing.wall {
            let end = tr.now_ns();
            let name = match timing.scenario {
                "cache-evict-fill" => "exec.cell.cache-evict-fill",
                "pipeline-sipr" => "exec.cell.pipeline-sipr",
                s if s.starts_with("gen/") => "exec.cell.gen",
                _ => "exec.cell.rest",
            };
            tr.record(
                parent,
                name,
                end.saturating_sub(wall.as_nanos() as u64),
                end,
            );
        }
    }
}

/// Times `fold_results` over the raw replicates of a run and checks
/// each fold against the fold cell the executor stored.
fn fold_check(b: &mut Bench, store: &ResultStore, raws: Vec<StoredCell>) -> R<()> {
    let mut groups: BTreeMap<(String, String), Vec<(u32, CellResult)>> = BTreeMap::new();
    for cell in raws {
        let params = Params::new(reads::split_params(&cell.params_key));
        let (base, rep) = split_rep(&params).ok_or("raw cell without a rep axis")?;
        groups
            .entry((cell.scenario, base.key()))
            .or_default()
            .push((rep, cell.result));
    }
    let folded: Vec<_> = {
        let _span = b.tracer.root("expect.fold");
        groups
            .iter_mut()
            .map(|(key, group)| {
                group.sort_by_key(|(rep, _)| *rep);
                let results: Vec<&CellResult> = group.iter().map(|(_, r)| r).collect();
                (key, fold_results(&results))
            })
            .collect()
    };
    let stored: BTreeMap<(&str, &str), &CellResult> = store
        .iter()
        .filter(|(_, c)| c.fold)
        .map(|(_, c)| ((c.scenario.as_str(), c.params_key.as_str()), &c.result))
        .collect();
    let right = folded.len() == stored.len()
        && folded.iter().all(|((scenario, params), fold)| {
            matches!(fold, Ok(f) if stored.get(&(scenario.as_str(), params.as_str())) == Some(&f))
        });
    b.op(right, || {
        "fold_results disagrees with the stored fold cells".into()
    });
    Ok(())
}

const SHARD_SPANS: [&str; 2] = ["dist.shard.0", "dist.shard.1"];

/// Plan into 2 shards, run both with work stealing (one executor thread
/// each), merge, verify coverage, fold, save. With `keep_union` the
/// merged raw replicates are also saved there.
#[allow(clippy::too_many_arguments)]
fn sharded_run(
    tr: &Tracer,
    obs: Option<&Obs>,
    dir: &Path,
    registry: &Registry,
    spec: &Spec,
    path: &Path,
    i: usize,
    keep_union: Option<&Path>,
) -> R<Manifest> {
    let root = tr.root("sharded");
    let ctx = root.ctx();
    let manifest = {
        let _span = tr.child(ctx, "dist.plan");
        dist::plan_calibrated_with(
            registry,
            &spec.select,
            &[],
            spec.config.seed,
            2,
            REPLICATES,
            None,
            None,
        )
        .map_err(err)?
        .0
    };
    let leases = LeaseDir::open(&dir.join(format!("leases-{i}")), &manifest).map_err(err)?;
    let stores = run_shards(tr, obs, ctx, |index, hooks| {
        let mut store = ResultStore::new();
        dist::run_shard_stealing(registry, &manifest, index, 1, &mut store, &leases, hooks)
            .map_err(err)?;
        Ok(store)
    })?;
    let merge = tr.child(ctx, "dist.merge");
    let (mut fused, _) = dist::merge_stores_owned(stores).map_err(err)?;
    dist::merge::verify_coverage(registry, &manifest, &fused).map_err(err)?;
    if let Some(union) = keep_union {
        fused.save(union).map_err(err)?;
    }
    dist::merge::fold_replicates(registry, &manifest, &mut fused, false).map_err(err)?;
    drop(merge);
    {
        let _span = tr.child(ctx, "store.save");
        fused.save(path).map_err(err)?;
    }
    Ok(manifest)
}

/// Both shards re-run their static partition over their own copy of
/// the saved raw union, then merge and fold again.
fn sharded_rerun(
    tr: &Tracer,
    obs: Option<&Obs>,
    registry: &Registry,
    manifest: &Manifest,
    union: &Path,
    path: &Path,
) -> R<()> {
    let root = tr.root("sharded.rerun");
    let ctx = root.ctx();
    let stores = run_shards(tr, obs, ctx, |index, hooks| {
        let mut store = ResultStore::load(union).map_err(err)?;
        dist::run_shard_with(registry, manifest, index, 1, &mut store, hooks).map_err(err)?;
        Ok(store)
    })?;
    {
        let _span = tr.child(ctx, "dist.merge");
        let (mut fused, _) = dist::merge_stores_owned(stores).map_err(err)?;
        dist::merge::verify_coverage(registry, manifest, &fused).map_err(err)?;
        dist::merge::fold_replicates(registry, manifest, &mut fused, false).map_err(err)?;
        let _save = tr.child(ctx, "store.save");
        fused.save(path).map_err(err)?;
    }
    Ok(())
}

/// Runs shards 0 and 1 on two threads under one `exec.run` span.
fn run_shards<F>(tr: &Tracer, obs: Option<&Obs>, ctx: SpanCtx, shard: F) -> R<Vec<ResultStore>>
where
    F: Fn(u32, ExecHooks<'_>) -> R<ResultStore> + Sync,
{
    let exec = tr.child(ctx, "exec.run");
    let exec_ctx = exec.ctx();
    let on_timing = cell_sink(tr, exec_ctx);
    let hooks = ExecHooks {
        on_timing: tr
            .enabled()
            .then_some(&on_timing as &(dyn Fn(CellTiming<'_>) + Sync)),
        obs,
        ..ExecHooks::default()
    };
    let shard = &shard;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u32)
            .map(|index| {
                s.spawn(move || {
                    let _span = tr.child(exec_ctx, SHARD_SPANS[index as usize]);
                    shard(index, hooks)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "shard thread panicked".to_string())?)
            .collect()
    })
}

/// In a traced run: both checkpoint formats' save and load times, with
/// a lossless round trip through each.
fn store_formats(b: &mut Bench, store: &ResultStore) -> R<()> {
    if !b.traced() {
        return Ok(());
    }
    let canonical = store.to_json().compact();
    for i in 0..LAYER_REPEATS {
        for (format, file, save, load) in [
            (
                StoreFormat::Json,
                "formats.json",
                "store.save.json",
                "store.load.json",
            ),
            (
                StoreFormat::Binary,
                "formats.bin",
                "store.save.bin",
                "store.load.bin",
            ),
        ] {
            let file = b.dir.join(file);
            {
                let _span = b.tracer.root(save);
                store.save_as(&file, format).map_err(err)?;
            }
            let opened = {
                let _span = b.tracer.root(load);
                ResultStore::open_any(&file).map_err(err)?
            };
            if i == 0 {
                let same = opened.store.to_json().compact() == canonical;
                b.op(same, || format!("{format} round trip changed the store"));
            }
        }
    }
    Ok(())
}

/// One batch of in-process reads over a freshly built index. Where the
/// index lands in memory moves a batch's percentiles by up to a third,
/// so every metric is taken over many batches, that is, many layouts.
fn read_batch(b: &mut Bench, store: &ResultStore, reads: &mut Reads, slice: Duration, seed: u64) {
    let pool = reads::pool(store);
    let mut mix = Mix::new(&pool, seed);
    let index = {
        let _span = b.tracer.root("serve.index_build");
        StoreIndex::build(store)
    };
    // Warm-up, untimed: every query once, after the campaign before it
    // has flushed the caches.
    for query in &pool {
        let right = reads::answer_is_right(query, reads::ask_index(&index, query));
        b.op(right, || "wrong in-process read".into());
    }
    reads.next_batch();
    // One span per batch: a span per sub-microsecond read would be most
    // of the trace and of the traced time.
    let _span = b.tracer.root("read.batch");
    let start = Instant::now();
    while start.elapsed() < slice {
        let query = mix.next();
        let begin = Instant::now();
        let rows = reads::ask_index(&index, query);
        let us = begin.elapsed().as_secs_f64() * 1e6;
        reads.record(query, us, reads::answer_is_right(query, rows));
    }
}

/// Names of the per-read spans: the op, and whether a submitted job was
/// in flight when the read was sent.
fn read_span(kind: Kind, during_submit: bool) -> &'static str {
    match (kind, during_submit) {
        (Kind::Point, false) => "read.query.idle",
        (Kind::Point, true) => "read.query.during_submit",
        (Kind::Range, false) => "read.range.idle",
        (Kind::Range, true) => "read.range.during_submit",
    }
}

/// Latencies of answered reads, in contiguous batches, by op.
#[derive(Default)]
struct Reads {
    /// Per batch: point then range latencies, in µs.
    batches: Vec<[Vec<f64>; 2]>,
    attempted: u64,
    failed: u64,
}

impl Reads {
    fn next_batch(&mut self) {
        self.batches.push(Default::default());
    }

    fn record(&mut self, query: &Query, us: f64, right: bool) {
        self.attempted += 1;
        if !right {
            self.failed += 1;
            return;
        }
        let batch = self.batches.last_mut().expect("a batch was started");
        batch[matches!(query.kind, Kind::Range) as usize].push(us);
    }

    /// Each read metric is taken over the batches with enough samples
    /// for it, of the batch's percentile: the quiet percentile for the
    /// end-to-end p50s, the median for the per-layer p90s. A burst of
    /// host noise moves one batch, not the metric.
    fn report(self, b: &mut Bench) -> R<()> {
        b.tally(self.attempted, self.failed, || {
            "wrong or missing read replies".into()
        });
        // The p90s are per-layer: across runs they moved 2-3x as much as
        // the p50s over TCP, more than any bound allows.
        for (metric, side, p, end_to_end) in [
            ("query_p50_us", 0, 50.0, true),
            ("read.query_p90_us", 0, 90.0, false),
            ("range_p50_us", 1, 50.0, true),
            ("read.range_p90_us", 1, 90.0, false),
        ] {
            let per_batch: Vec<f64> = self
                .batches
                .iter()
                .map(|batch| &batch[side])
                .filter(|us| stats::tail_percentile(us.len()).is_some_and(|deepest| deepest >= p))
                .filter_map(|us| stats::percentile(us, p))
                .collect();
            let reads: usize = self.batches.iter().map(|batch| batch[side].len()).sum();
            let value = match end_to_end {
                true => stats::quiet(&per_batch),
                false => stats::median(&per_batch),
            }
            .ok_or(format!("{metric}: no batch"))?;
            eprintln!(
                "  {metric}: {value:.3} us, {reads} reads in {} batches",
                per_batch.len()
            );
            if end_to_end {
                b.quiet(metric, per_batch)?;
            } else {
                for v in per_batch {
                    b.layer_sample(metric, v);
                }
            }
        }
        Ok(())
    }
}

/// The seed of follow-up job `k`: fresh, unless `--seed` is one of them.
fn job_seed(k: usize) -> u64 {
    JOB_SEED_BASE + k as u64
}

/// One small follow-up job appended to the saved store the way
/// `run --checkpoint-every` does it, including the registry its corpus
/// seed asks for.
fn submit_once(b: &mut Bench, path: &Path, seed: u64) -> R<f64> {
    let start = Instant::now();
    let job = Spec::job(seed);
    let registry = Registry::builtin_with(&job.gen);
    let facts = {
        let (tr, obs) = b.observe(b.traced());
        batch_run(tr, obs, &registry, &job, path, false, "submit")?
    };
    let secs = start.elapsed().as_secs_f64();
    let campaign = facts.campaign;
    b.op(campaign.executed == 8 && campaign.memoized == 0, || {
        format!("job on seed {seed}: {} executed", campaign.executed)
    });
    Ok(secs)
}

fn op_doc(op: &str) -> Json {
    Json::Obj(vec![("op".into(), Json::str(op))])
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok") == Some(&Json::Bool(true))
}

/// Closed-loop reads over connection A until `deadline`, into a new
/// batch of `reads` every [`SERVE_BATCH`]. A failed exchange counts as
/// a failed read and reconnects.
fn read_slice(
    tr: &Tracer,
    client: &mut Client,
    addr: SocketAddr,
    mix: &mut Mix<'_>,
    reads: &mut Reads,
    deadline: Instant,
    busy: &AtomicBool,
) -> R<()> {
    let mut batch_end = Instant::now();
    while Instant::now() < deadline {
        if Instant::now() >= batch_end {
            reads.next_batch();
            batch_end += SERVE_BATCH;
        }
        let query = mix.next();
        let during_submit = busy.load(Ordering::SeqCst);
        let span = tr.root(read_span(query.kind, during_submit));
        let begin = Instant::now();
        let reply = client.send(query.line()).map(str::to_string);
        let us = begin.elapsed().as_secs_f64() * 1e6;
        drop(span);
        let right = match reply {
            Ok(line) => Json::parse(&line)
                .ok()
                .and_then(|doc| reads::rows_of_reply(query.kind, &doc))
                .is_some_and(|rows| reads::answer_is_right(query, rows)),
            Err(e) => {
                eprintln!("perfbench: read failed: {e}");
                *client = Client::connect(addr).map_err(err)?;
                false
            }
        };
        reads.record(query, us, right);
    }
    Ok(())
}

/// A finished job as connection B saw it.
struct SubmittedJob {
    queue_wait_ms: f64,
    job_ms: f64,
}

/// Connection B: at `due`, submits one 8-cell job and polls `jobs`
/// until it is done. `None` when it failed or timed out.
fn submit_job(
    tr: &Tracer,
    addr: SocketAddr,
    seed: u64,
    due: Instant,
    busy: &AtomicBool,
) -> R<Option<SubmittedJob>> {
    let mut client = Client::connect(addr).map_err(err)?;
    std::thread::sleep(due.saturating_duration_since(Instant::now()));
    busy.store(true, Ordering::SeqCst);
    let span = tr.root("submit");
    let begin = Instant::now();
    let submitted_ms = harness::telemetry::now_ms();
    let request = Json::Obj(vec![
        ("op".into(), Json::str("submit")),
        (
            "scenarios".into(),
            Json::Arr(vec![Json::str(SUBMIT_SCENARIO)]),
        ),
        ("seed".into(), Json::Num(seed as f64)),
    ]);
    let job = client
        .call(&request)
        .map_err(err)?
        .get("job")
        .and_then(Json::as_f64);
    let started_ms = match job {
        Some(job) => wait_for_job(&mut client, job, begin)?,
        None => None,
    };
    let secs = begin.elapsed().as_secs_f64();
    drop(span);
    busy.store(false, Ordering::SeqCst);
    Ok(started_ms.map(|started_ms| SubmittedJob {
        queue_wait_ms: started_ms.saturating_sub(submitted_ms) as f64,
        job_ms: submitted_ms as f64 + secs * 1e3 - started_ms as f64,
    }))
}

/// Polls `jobs` until `job` is terminal; its start time (daemon wall
/// clock, ms) when it is done, `None` when it failed or timed out.
fn wait_for_job(client: &mut Client, job: f64, begin: Instant) -> R<Option<u64>> {
    while begin.elapsed() < JOB_TIMEOUT {
        let reply = client.call(&op_doc("jobs")).map_err(err)?;
        let record = reply.get("jobs").and_then(Json::as_arr).and_then(|jobs| {
            jobs.iter()
                .find(|j| j.get("job").and_then(Json::as_f64) == Some(job))
        });
        let status = record.and_then(|r| r.get("status")).and_then(Json::as_str);
        match status {
            Some("done") => {
                let started = record
                    .and_then(|r| r.get("started_ms"))
                    .and_then(Json::as_f64);
                return Ok(started.map(|s| s as u64));
            }
            Some("queued" | "running") => std::thread::sleep(JOB_POLL),
            _ => return Ok(None),
        }
    }
    Ok(None)
}

/// Per span name within one traced campaign: total and longest duration, ms.
type Sums = BTreeMap<&'static str, (f64, f64)>;

/// The per-layer metrics of a traced run, from the recorded spans and
/// the values sampled beside them.
fn layer_metrics(b: &mut Bench) {
    let spans = b.tracer.spans();
    let roots: BTreeMap<u64, &'static str> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.request, s.name))
        .collect();
    let in_root = |root: &'static str| {
        let roots = &roots;
        spans
            .iter()
            .filter(move |s| roots.get(&s.request).copied() == Some(root))
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let durations = |name: &str, root: &'static str| -> Vec<f64> {
        in_root(root)
            .filter(|s| s.name == name)
            .map(|s| ms(s.dur_ns()))
            .collect()
    };
    let put = |b: &mut Bench, name: &'static str, samples: &[f64]| {
        b.layer.insert(name, stats::median(samples).unwrap_or(0.0));
    };
    for (span, root, metric) in [
        ("gen.registry", "setup", "gen.registry_ms"),
        ("expect.fold", "expect.fold", "expect.fold_ms"),
        ("store.save.json", "store.save.json", "store.save_ms.json"),
        ("store.save.bin", "store.save.bin", "store.save_ms.bin"),
        ("store.load.json", "store.load.json", "store.load_ms.json"),
        ("store.load.bin", "store.load.bin", "store.load_ms.bin"),
        ("store.checkpoint", "campaign", "store.checkpoint_ms"),
        ("dist.plan", "sharded", "dist.plan_ms"),
        ("dist.shard.0", "sharded", "dist.shard_ms.0"),
        ("dist.shard.1", "sharded", "dist.shard_ms.1"),
        ("dist.merge", "sharded", "dist.merge_ms"),
        ("serve.bind", "setup", "serve.bind_ms"),
        (
            "serve.index_build",
            "serve.index_build",
            "serve.index_build_ms",
        ),
    ] {
        put(b, metric, &durations(span, root));
    }
    // Per traced campaign: cell time by scenario group, the longest
    // cell and executor time outside cells; per sharded run, the shard
    // balance.
    let sums = |root: &'static str| {
        let mut per: BTreeMap<u64, Sums> = BTreeMap::new();
        for span in in_root(root) {
            let entry = per
                .entry(span.request)
                .or_default()
                .entry(span.name)
                .or_default();
            entry.0 += ms(span.dur_ns());
            entry.1 = entry.1.max(ms(span.dur_ns()));
        }
        per
    };
    let (per, sharded) = (sums("campaign"), sums("sharded"));
    let column =
        |f: &dyn Fn(&Sums) -> Option<f64>| -> Vec<f64> { per.values().filter_map(f).collect() };
    let cells = |m: &Sums| -> (f64, f64) {
        m.iter()
            .filter(|(name, _)| name.starts_with("exec.cell."))
            .fold((0.0, 0.0), |(sum, max), (_, (s, x))| {
                (sum + s, f64::max(max, *x))
            })
    };
    for (group, metric) in [
        (
            "exec.cell.cache-evict-fill",
            "exec.cell_ms.cache-evict-fill",
        ),
        ("exec.cell.pipeline-sipr", "exec.cell_ms.pipeline-sipr"),
        ("exec.cell.gen", "exec.cell_ms.gen"),
        ("exec.cell.rest", "exec.cell_ms.rest"),
    ] {
        put(
            b,
            metric,
            &column(&|m| Some(m.get(group).map_or(0.0, |v| v.0))),
        );
    }
    put(b, "exec.critical_cell_ms", &column(&|m| Some(cells(m).1)));
    put(
        b,
        "exec.non_cell_ms",
        &column(&|m| Some(EXEC_THREADS as f64 * m.get("exec.run")?.0 - cells(m).0)),
    );
    let skews: Vec<f64> = sharded
        .values()
        .filter_map(|m| {
            let (a, c) = (m.get("dist.shard.0")?.0, m.get("dist.shard.1")?.0);
            Some(a.max(c) / ((a + c) / 2.0))
        })
        .collect();
    put(b, "dist.shard_skew", &skews);
    // Client-side point-read tails, split by whether a job was running.
    for (span, metric) in [
        (
            "read.query.during_submit",
            "serve.query_p90_us.during_submit",
        ),
        ("read.query.idle", "serve.query_p90_us.idle"),
    ] {
        let us: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        b.layer
            .insert(metric, stats::percentile(&us, 90.0).unwrap_or(0.0));
    }
    let sampled = std::mem::take(&mut b.layer_samples);
    for (name, samples) in sampled {
        put(b, name, &samples);
    }
}
