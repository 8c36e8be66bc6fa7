//! The campaign CLI: list scenarios, run filtered matrices, print the
//! evidence summary — and drive distributed campaigns end-to-end
//! (plan → shard → merge → diff), with crash-resumable checkpointed
//! execution and work-stealing shard workers.
//!
//! ```text
//! cargo run -p harness --bin campaign -- <command> [options]
//! ```
//!
//! Running `campaign` with no arguments prints [`USAGE`], the prose
//! help for every command and flag. The commands are listed once, in
//! [`COMMANDS`], and each flag is declared once, in [`FLAGS`]: its
//! value kind, whether it may repeat, and the commands that read it. A
//! flag that a command does not read is rejected, never silently
//! ignored.
//!
//! `run` prints per-cell metrics; `report` prints the Table-1/2-style
//! evidence summary joined against `predictability_core::catalog`.
//! Both memoize through `--store` (results persist across invocations).
//! With `--checkpoint-every N` every completed cell is appended to an
//! append-only journal beside the store (fsync'd every N cells), and a
//! campaign killed mid-run resumes with `--resume` from the last
//! completed cell — zero recompute. `shard --steal` executes through
//! the lease-file work-stealing protocol instead of the static
//! partition.
//!
//! Exit status: 0 on success; 1 when `diff` finds differences; 2 on
//! any error (bad usage, unknown scenario id, bad filter or tolerance
//! clause, unreadable store or manifest, merge conflict).

use harness::dist;
use harness::exec::{run_campaign_with, Campaign, CellDomain, ExecConfig, ExecHooks, ExecProgress};
use harness::gen::{GenOptions, DEFAULT_CORPUS_SIZE};
use harness::json::Json;
use harness::matrix::Filter;
use harness::obs::bench;
use harness::obs::{trace as obs_trace, Obs};
use harness::registry::Registry;
use harness::report;
use harness::serve::{lock as serve_lock, top as serve_top, ServeOptions, Server};
use harness::store::{self, CompactingJournal, ResultStore};
use harness::telemetry::{self, Telemetry, TelemetryLog};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;

/// `diff` found differences (distinct from errors, like `diff(1)`).
const EXIT_DIFFERENCES: u8 = 1;
/// Any error: usage, unknown scenario, unreadable artifact, conflict.
const EXIT_ERROR: u8 = 2;

/// Command outcome: an exit status, or an error reported on stderr
/// with [`EXIT_ERROR`].
type CliResult<T> = Result<T, Box<dyn std::error::Error>>;

/// How a flag's value is read.
#[derive(Clone, Copy)]
enum Kind {
    /// Takes no value: present or absent.
    Switch,
    /// A filesystem path.
    Path,
    /// Free text (an address, a format name, a clause).
    Text,
    /// An integer `>= min`.
    Int(u64),
    /// A `u32 >= min`: an out-of-range value errors instead of
    /// truncating to a different shard, index or count.
    U32(u32),
    /// A number `>= 0`.
    NonNegative,
}

impl Kind {
    fn accepts(self, raw: &str) -> bool {
        match self {
            Kind::Switch | Kind::Path | Kind::Text => true,
            Kind::Int(min) => raw.parse::<u64>().is_ok_and(|n| n >= min),
            Kind::U32(min) => raw.parse::<u32>().is_ok_and(|n| n >= min),
            Kind::NonNegative => raw.parse::<f64>().is_ok_and(|x| x >= 0.0),
        }
    }

    /// What a rejected value should have been.
    fn expected(self) -> String {
        match self {
            Kind::Int(0) => "an integer".into(),
            Kind::U32(0) => "a small integer".into(),
            Kind::Int(min) => format!("an integer >= {min}"),
            Kind::U32(min) => format!("an integer >= {min}"),
            Kind::NonNegative => "a number >= 0".into(),
            Kind::Switch | Kind::Path | Kind::Text => unreachable!("accepts every value"),
        }
    }
}

/// One row of the flag table.
struct Flag {
    name: &'static str,
    kind: Kind,
    /// Whether the flag may be given more than once (its values
    /// accumulate); any other flag given twice is an error.
    repeats: bool,
    /// The commands that read the flag. Every other command rejects
    /// it rather than silently ignoring it — `shard --seed 7` runs with
    /// the *manifest's* seed, and accepting the flag would misattribute
    /// the results.
    commands: &'static [&'static str],
}

const fn flag(name: &'static str, kind: Kind, commands: &'static [&'static str]) -> Flag {
    Flag {
        name,
        kind,
        repeats: false,
        commands,
    }
}

const fn repeated(name: &'static str, kind: Kind, commands: &'static [&'static str]) -> Flag {
    Flag {
        name,
        kind,
        repeats: true,
        commands,
    }
}

/// Runs one command to its exit status.
type Command = fn(&Args) -> CliResult<u8>;

/// Every command and the function that runs it.
const COMMANDS: &[(&str, Command)] = &[
    ("list", list),
    ("run", run_or_report),
    ("report", run_or_report),
    ("gen", gen),
    ("plan", plan),
    ("shard", shard),
    ("merge", merge),
    ("diff", diff),
    ("gc", gc),
    ("convert", convert),
    ("bench", bench_cmd),
    ("trace", trace_cmd),
    ("serve", serve_cmd),
    ("top", top_cmd),
];
/// The commands that take path arguments besides flags.
const TAKES_PATHS: &[&str] = &["merge", "diff", "trace"];

/// Every flag of every command, declared once.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    repeated("--scenario", Kind::Text, &["run", "report", "plan"]),
    repeated("--filter", Kind::Text, &["run", "report", "gen", "plan"]),
    flag("--threads", Kind::Int(0), &["run", "report", "shard", "serve"]),
    flag("--seed", Kind::Int(0), &["list", "run", "report", "gen", "plan", "gc"]),
    flag("--corpus-size", Kind::U32(1), &["list", "run", "report", "gen", "plan", "gc"]),
    flag("--store", Kind::Path, &["run", "report", "shard", "gc", "convert", "serve"]),
    flag("--json", Kind::Path, &["run", "report", "shard"]),
    flag("--csv", Kind::Path, &["run", "report", "shard"]),
    flag("--quiet", Kind::Switch, &[
        "run", "report", "plan", "shard", "merge", "diff", "gc", "convert", "bench", "serve",
    ]),
    flag("--resume", Kind::Switch, &["run", "report", "shard"]),
    flag("--checkpoint-every", Kind::Int(1), &["run", "report", "shard", "serve"]),
    flag("--compact-journal-over", Kind::Int(1), &["run", "report", "shard", "serve"]),
    flag("--progress", Kind::Switch, &["run", "report", "shard"]),
    flag("--telemetry", Kind::Switch, &["run", "report", "shard"]),
    flag("--trace", Kind::Path, &["run", "report", "shard", "merge", "serve"]),
    flag("--replicates", Kind::U32(1), &["run", "report", "plan"]),
    flag("--keep-replicates", Kind::Switch, &["run", "report", "merge"]),
    flag("--disasm", Kind::Switch, &["gen"]),
    flag("--shards", Kind::U32(0), &["plan"]),
    flag("--manifest", Kind::Path, &["plan", "shard", "merge"]),
    flag("--calibrate", Kind::Path, &["plan"]),
    flag("--index", Kind::U32(0), &["shard"]),
    flag("--steal", Kind::Switch, &["shard"]),
    flag("--leases", Kind::Path, &["shard", "merge"]),
    flag("--out", Kind::Path, &["merge", "bench", "convert"]),
    flag("--report", Kind::Switch, &["merge"]),
    repeated("--tol", Kind::Text, &["diff"]),
    flag("--tol-default", Kind::NonNegative, &["diff"]),
    flag("--rel", Kind::NonNegative, &["diff"]),
    flag("--sigmas", Kind::NonNegative, &["diff"]),
    flag("--dry-run", Kind::Switch, &["gc"]),
    flag("--max-cells", Kind::Int(0), &["gc"]),
    flag("--max-age-days", Kind::Int(0), &["gc"]),
    flag("--compact-journal", Kind::Switch, &["gc"]),
    flag("--to", Kind::Text, &["convert"]),
    flag("--quick", Kind::Switch, &["bench"]),
    flag("--repeats", Kind::Int(1), &["bench"]),
    flag("--check", Kind::Switch, &["bench"]),
    flag("--addr", Kind::Text, &["serve", "top"]),
    flag("--accept-pool", Kind::Int(1), &["serve"]),
    flag("--slowlog-over-us", Kind::Int(0), &["serve"]),
    flag("--port-file", Kind::Path, &["serve", "top"]),
    flag("--interval-ms", Kind::Int(50), &["top"]),
    flag("--once", Kind::Switch, &["top"]),
];

/// A parsed command line: the command, every given flag's values
/// (checked against its [`Kind`] by [`parse`]) and the path arguments.
/// The typed getters read a value back by flag name.
struct Args {
    command: &'static str,
    run: Command,
    given: BTreeMap<&'static str, Vec<String>>,
    positional: Vec<PathBuf>,
}

impl Args {
    fn values(&self, name: &str) -> &[String] {
        debug_assert!(FLAGS.iter().any(|f| f.name == name), "no flag {name}");
        self.given.get(name).map_or(&[], Vec::as_slice)
    }

    fn switch(&self, name: &str) -> bool {
        !self.values(name).is_empty()
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.values(name).first().map(String::as_str)
    }

    fn path(&self, name: &str) -> Option<&Path> {
        self.text(name).map(Path::new)
    }

    /// A value [`parse`] already checked against the flag's kind.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.text(name)
            .map(|raw| raw.parse().ok().expect("checked by parse"))
    }

    fn u64(&self, name: &str) -> Option<u64> {
        self.parsed(name)
    }

    fn usize(&self, name: &str) -> Option<usize> {
        self.u64(name).map(|n| n as usize)
    }

    fn u32(&self, name: &str) -> Option<u32> {
        self.parsed(name)
    }

    fn f64(&self, name: &str) -> Option<f64> {
        self.parsed(name)
    }

    fn seed(&self) -> u64 {
        self.u64("--seed").unwrap_or(0)
    }

    fn threads(&self) -> usize {
        self.usize("--threads")
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
    }

    fn quiet(&self) -> bool {
        self.switch("--quiet")
    }

    /// The generated-program corpus of the campaign seed and
    /// `--corpus-size`.
    fn corpus(&self) -> GenOptions {
        GenOptions {
            corpus_size: self.u32("--corpus-size").unwrap_or(DEFAULT_CORPUS_SIZE),
            corpus_seed: self.seed(),
        }
    }

    /// The registry the campaign-building commands run against: the
    /// built-ins plus the gen scenarios over [`Self::corpus`].
    fn registry(&self) -> Registry {
        Registry::builtin_with(&self.corpus())
    }
}

const USAGE: &str = "\
usage: campaign <list|run|report|gen|plan|shard|merge|diff|gc|convert|bench|trace|serve|top> [options]

options (run/report):
  --scenario ID      run only this scenario (repeatable; default: all)
  --filter A=V       keep only cells with axis A = value V (repeatable;
                     several values for one axis union, axes intersect)
  --threads N        worker threads (default: available parallelism)
  --seed S           campaign seed (default 0); also the corpus seed of
                     the gen/* scenarios' generated-program population
  --corpus-size N    generated kernels per shape for gen/* scenarios
                     (default 2; multiplies every gen matrix)
  --store PATH       memoize results in PATH (created if missing; a .bin
                     path gets the binary columnar format, anything else
                     JSON — an existing file keeps whichever format its
                     magic bytes say it has)
  --json PATH        write the campaign as deterministic JSON
  --csv PATH         write the campaign as long-format CSV (a replicated
                     campaign switches to the wide distribution schema:
                     mean,std,ci95,p05,p50,p95,n per base metric)
  --quiet            suppress per-cell output

replicates & distributions (run/report; also plan):
  --replicates N     fan every scenario cell over N replicate seeds
                     (seed r = splitmix of the cell seed and r) and fold
                     the group into one distribution cell per base cell:
                     derived metrics <m>.mean/.std/.ci95/.p05/.p50/
                     .p95/.n in declaration order. N=1 (the default) is
                     byte-identical to a pre-replicate campaign
  --keep-replicates  keep the raw per-replicate cells in the store next
                     to the fold (default: only the fold survives);
                     on merge, keep raws in the fused store too

crash-resumable execution (run/report/shard; all need --store):
  --checkpoint-every N  append every completed cell to an append-only
                     journal beside the store, fsync'd every N cells;
                     on success the journal is compacted into the store
  --resume           replay the journal before running: a campaign
                     killed mid-run continues from the last completed
                     cell with zero recompute
  --progress         live progress heartbeats on stderr
  --compact-journal-over N  (needs --checkpoint-every) fold the journal
                     into the checkpoint mid-run whenever it exceeds N
                     lines, so a very long campaign's replay cost stays
                     bounded; the final store bytes are identical with
                     and without it

wall-clock telemetry (run/report/shard; needs --store):
  --telemetry        append per-cell wall-clock durations and last-hit
                     access timestamps to a sidecar beside the store
                     (<store>.telemetry, JSON lines, fsync-batched like
                     the journal). The store itself stays byte-identical
                     to a run without telemetry; the sidecar feeds
                     `plan --calibrate` (measured cost weights),
                     `merge --report` (wall-clock balance) and
                     `gc --max-age-days` (age-based eviction)

observability (run/report/shard/merge):
  --trace FILE       record named monotonic-clock spans (plan, decode,
                     memo lookup, cell, journal append/fsync,
                     checkpoint, steal-lease claim, merge) and engine
                     counters to FILE as a Chrome trace-event stream —
                     open in Perfetto (ui.perfetto.dev) or validate
                     with `campaign trace FILE`. Purely observational:
                     the store bytes are identical with and without it
  trace  FILE        validate a --trace file (torn final lines from a
                     crash are tolerated; anything else is an error)
                     and print its per-span event counts and totals
  bench  [--quick] [--repeats R] [--out DIR] [--check]
         run the engine micro-benchmarks (executor throughput per
         worker tier, memoized re-scan rate, store save/load/merge per
         cell tier, journal replay rate, served queries/sec per client
         tier) R times each and write the schema-versioned
         BENCH_exec.json / BENCH_store.json / BENCH_serve.json to DIR
         (default .) — the committed perf trajectory; --quick trims
         repeats and tiers for CI; --check reruns in quick mode and
         gates against the committed files (exit 1 past the 3x guard
         band or on schema drift)

generated-program corpora:
  gen    [--seed S] [--corpus-size N] [--filter A=V]... [--disasm]
         list the corpus the gen/* scenarios would sweep (one row per
         kernel: coordinates, generator seed, size, digest); --disasm
         additionally prints each matching kernel's disassembly

distributed campaigns:
  plan   --shards N --manifest PATH [--scenario]... [--filter]...
         [--seed S] [--corpus-size N] [--replicates N]
         [--calibrate STORE]
         partition the campaign into N shards; write the manifest
         (records per-scenario digests, cost weights, the replicate
         multiplier and the corpus identity); shards run the raw
         replicate cells and `merge --manifest` folds them, so the
         merged store is byte-identical to a single-process
         `run --replicates N`; --calibrate derives the cost weights
         from a prior
         (e.g. committed baseline) store — from its *measured* per-cell
         wall-clock telemetry when a <STORE>.telemetry sidecar
         accompanies it, falling back to the metric-magnitude proxy
  shard  --manifest PATH --index I [--store PATH] [--threads N]
         [--steal] [--leases DIR]
         run exactly shard I against its own store (the registry and
         corpus are rebuilt from the manifest; drift errors name the
         drifted scenarios); --steal turns the static assignment into
         an initial lease and steals unleased chunks through lease
         files (default DIR: <manifest>.leases next to the manifest).
         Leases belong to one campaign attempt: a stale lease dir from
         an earlier plan is rejected, and after a crashed attempt you
         remove the dir and re-run all shards with --resume (journaled
         cells replay; only the dead shard's unfinished chunks
         recompute)
  merge  --out PATH [--manifest PATH] [--report] [--leases DIR]
         [--keep-replicates] STORE...
         fuse shard stores (conflict = determinism violation -> exit 2);
         with --manifest, also verify exact planned-cell coverage and,
         for a replicated manifest, fold each replicate group into its
         distribution cell (drop the raws unless --keep-replicates) —
         byte-identical to a single-process run; --report (needs
         --manifest) prints the steal-aware summary — which shard won
         which chunk, from the lease files (--leases DIR, default
         <manifest>.leases), and the realized per-shard wall-clock
         balance from each input's telemetry sidecar
  diff   BASELINE COMPARED [--tol METRIC=EPS]... [--tol-default EPS]
         [--rel EPS] [--sigmas S]
         compare two stores cell-by-cell; exit 1 if they differ.
         A drifted metric is admitted (reported, not fatal) by the
         first rule that covers it: per-metric/default absolute
         tolerance, --rel EPS relative tolerance
         (|delta| <= EPS * max|value|), or --sigmas S for fold cells'
         .mean metrics (|delta| <= S standard errors, pooled from the
         sibling .std/.n columns); the summary names the admitting
         rule per near miss

result-store lifecycle:
  gc     --store PATH [--dry-run] [--seed S] [--corpus-size N]
         [--max-cells N] [--max-age-days N] [--compact-journal]
         drop cells the current registry can no longer serve (stale
         schema, unregistered scenario, old implementation version);
         --max-age-days evicts cells whose last telemetry-recorded
         access is older than N days (cells with no telemetry entry
         are treated as oldest); --max-cells additionally evicts down
         to N cells (oldest implementation version first, then stable
         fingerprint order); --dry-run reports without rewriting the
         store. A store with a journal sidecar is refused (a later
         --resume would replay evicted cells right back); pass
         --compact-journal to fold the journal into the store first
  convert --store PATH --to bin|json [--out PATH]
         rewrite a result store in the other checkpoint format: `bin`
         is the binary columnar layout (interned strings, fixed-width
         cell records, f64 metric columns, content digest in the
         header) that large stores load an order of magnitude faster;
         `json` is the readable interchange format. Conversion is
         canonical and lossless — json -> bin -> json reproduces the
         original checkpoint byte-identically. Default --out is the
         store path itself (in place). Every command sniffs the format
         by magic, so either format works anywhere a store is accepted;
         journal sidecars stay JSON-lines in both cases

always-on campaign serving:
  serve  --store PATH [--addr HOST:PORT] [--accept-pool N] [--threads N]
         [--checkpoint-every N] [--compact-journal-over N]
         [--slowlog-over-us N] [--port-file PATH] [--trace FILE]
         [--quiet]
         run the campaign daemon: open the store resumably (journal
         replay included), build a hot in-memory index over its cells
         and answer a line-delimited JSON protocol over TCP — one
         compact JSON object per line, ops: ping, stats, query
         (point lookup by scenario + axis assignment), query_range
         (axis-filtered scan returning metric columns), report (the
         evidence summary over the wire), submit (enqueue a campaign;
         it runs on the streaming executor with journaling and lands
         in the live index atomically), metrics (per-op latency
         histograms, counters and windowed rates as compact JSON plus
         Prometheus text exposition), jobs (per-job status, live
         cells_done/cells_total progress and failure error strings),
         slowlog (the ring of requests slower than --slowlog-over-us,
         default 10000) and shutdown (drain, checkpoint, fsync,
         release the lock). Default --addr 127.0.0.1:0 binds an
         ephemeral port; --port-file writes the bound address for
         scripts. A live daemon holds <store>.lock: gc and merge
         refuse its store until shutdown, while a dead daemon's lock
         is detected as stale and broken automatically
  top    (--addr HOST:PORT | --port-file PATH) [--interval-ms N]
         [--once]
         live terminal view of a running daemon: polls stats, metrics
         and jobs every --interval-ms (default 1000) and redraws a
         screen with endpoint latency percentiles (p50/p90/p99/max
         per op), windowed qps, index size and running-job progress
         bars; --once prints one plain screen to stdout and exits
         (for scripts). Exits 0 with a note when the daemon goes away
         mid-watch; errors only if the first connection fails

exit status: 0 success; 1 diff found differences; 2 error
";

/// Parses argv against [`FLAGS`]: an unknown command or flag, a flag
/// the command does not read, a missing or ill-typed value, a second
/// value for a flag that does not repeat, and a stray path argument are
/// all errors.
fn parse(mut argv: impl Iterator<Item = String>) -> CliResult<Args> {
    let _argv0 = argv.next();
    let name = argv.next().ok_or(USAGE)?;
    let Some(&(command, run)) = COMMANDS.iter().find(|(command, _)| *command == name) else {
        return Err(format!("unknown command `{name}`\n\n{USAGE}").into());
    };
    let mut args = Args {
        command,
        run,
        given: BTreeMap::new(),
        positional: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        if !arg.starts_with("--") {
            if !TAKES_PATHS.contains(&args.command) {
                return Err(format!("unexpected argument `{arg}`\n\n{USAGE}").into());
            }
            args.positional.push(PathBuf::from(arg));
            continue;
        }
        let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
            return Err(format!("unknown flag `{arg}`\n\n{USAGE}").into());
        };
        if !flag.commands.contains(&args.command) {
            return Err(format!("`{arg}` does not apply to `{}`\n\n{USAGE}", args.command).into());
        }
        let value = match flag.kind {
            Kind::Switch => String::new(),
            kind => {
                // A value never starts with `--`: `--store --quiet` is a
                // missing store path, not a store named `--quiet`.
                let raw = argv
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or(format!("{arg} needs a value"))?;
                if !kind.accepts(&raw) {
                    return Err(format!("{arg} needs {}", kind.expected()).into());
                }
                raw
            }
        };
        let values = args.given.entry(flag.name).or_default();
        if !values.is_empty() && !flag.repeats {
            return Err(format!("{arg} given twice (it takes one value)").into());
        }
        values.push(value);
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse(std::env::args()).and_then(|args| (args.run)(&args)) {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("campaign: {message}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

fn list(args: &Args) -> CliResult<u8> {
    print!("{}", report::list_scenarios(&args.registry()));
    Ok(0)
}

fn gen(args: &Args) -> CliResult<u8> {
    let filter = Filter::parse(args.values("--filter"))?;
    let corpus = args.corpus().corpus();
    // Same typo guard as campaign runs: a clause on an axis the corpus
    // does not declare would be vacuously satisfied and silently print
    // the full (wrong) listing.
    let known: Vec<&str> = corpus.axes().iter().map(|a| a.name).collect();
    for axis in filter.constrained_axes() {
        if !known.contains(&axis) {
            return Err(format!(
                "filter axis `{axis}` is not a corpus axis ({})",
                known.join(", ")
            )
            .into());
        }
    }
    print!(
        "{}",
        report::corpus_summary(&corpus, &filter, args.switch("--disasm"))
    );
    Ok(0)
}

fn gc(args: &Args) -> CliResult<u8> {
    let registry = args.registry();
    let path = args.path("--store").ok_or("gc needs --store PATH")?;
    if !path.exists() {
        return Err(format!("no such store: {}", path.display()).into());
    }
    // A live `campaign serve` checkpoints this store on its own
    // schedule: rewriting it underneath the daemon would race. A dead
    // daemon's lock is stale — report it and proceed.
    report_stale_lock(serve_lock::refuse_if_live(path, "gc")?, path);
    // A journal sidecar holds cells the store file does not: gc'ing the
    // store alone would be silently undone by the next `--resume`,
    // which replays every journaled cell — evicted ones included —
    // straight back. Refuse, or fold the pair together first.
    let journal = store::journal_path(path);
    let mut doc = load_store_doc(path)?;
    if journal.exists() {
        if !args.switch("--compact-journal") {
            return Err(format!(
                "store has a journal sidecar ({}): gc would be undone by a later --resume \
                 replaying evicted cells back in — pass --compact-journal to fold the journal \
                 into the store first, or finish the campaign it belongs to",
                journal.display()
            )
            .into());
        }
        // An old-schema checkpoint loads *empty* through
        // open_resumable: compacting it would overwrite the file with
        // nothing before gc could report its cells as stale-schema
        // drops. Leave that store to the plain gc path.
        let schema = doc.get("schema").and_then(Json::as_f64).unwrap_or(0.0) as u32;
        if schema != store::SCHEMA_VERSION {
            return Err(format!(
                "store {} has schema {schema} (current {}): compacting would silently \
                 discard its cells before gc could report them — remove the journal ({}) \
                 by hand, then re-run gc",
                path.display(),
                store::SCHEMA_VERSION,
                journal.display()
            )
            .into());
        }
        let (resumed, replayed) = ResultStore::open_resumable(path)?;
        // The gc report below must describe the real store + journal
        // union, not the stale checkpoint alone.
        doc = resumed.to_json();
        if args.switch("--dry-run") {
            if !args.quiet() {
                println!(
                    "journal would be compacted into {} ({replayed} cells) — dry run, \
                     nothing written",
                    path.display()
                );
            }
        } else {
            resumed.checkpoint(path)?;
            if !args.quiet() {
                println!(
                    "journal compacted into {} ({replayed} cells replayed)",
                    path.display()
                );
            }
        }
    } else if args.switch("--compact-journal") && !args.quiet() {
        println!("no journal sidecar to compact");
    }
    let age_policy = match args.u64("--max-age-days") {
        None => None,
        Some(days) => {
            let sidecar = telemetry::telemetry_path(path);
            if !sidecar.exists() && !args.quiet() {
                eprintln!(
                    "note: no telemetry sidecar at {} — every cell counts as oldest \
                     under --max-age-days {days}",
                    sidecar.display()
                );
            }
            Some((Telemetry::load(&sidecar)?, days))
        }
    };
    let limits = store::GcLimits {
        max_cells: args.usize("--max-cells"),
        max_age: age_policy.as_ref().map(|(telemetry, days)| store::MaxAge {
            telemetry,
            now_ms: telemetry::now_ms(),
            max_age_ms: (*days as f64 * store::MS_PER_DAY) as u64,
        }),
    };
    let (kept, outcome) = store::gc(&doc, &registry, &limits)?;
    if !args.quiet() || !outcome.dropped.is_empty() {
        print!("{}", report::gc_summary(&outcome, args.switch("--dry-run")));
    }
    if !args.switch("--dry-run") {
        kept.save(path)?;
        if !args.quiet() {
            println!("store rewritten: {}", path.display());
        }
        // Prune the telemetry sidecar alongside the store: entries of
        // evicted cells are dead weight (and would resurrect their
        // last-hit ages if the cells ever recompute under the same
        // fingerprint).
        let sidecar = telemetry::telemetry_path(path);
        if sidecar.exists() && !outcome.dropped.is_empty() {
            let mut telemetry = Telemetry::load(&sidecar)?;
            telemetry.retain(|fp| kept.contains(fp));
            telemetry.save_compacted(&sidecar)?;
            if !args.quiet() {
                println!("telemetry sidecar compacted: {}", sidecar.display());
            }
        }
    }
    Ok(0)
}

/// Parses a checkpoint in either format into the JSON document `gc`
/// walks. A binary columnar store is decoded and re-rendered under its
/// own recorded schema number, so an old-schema binary checkpoint is
/// still reported cell-by-cell as stale-schema drops instead of
/// vanishing into the empty store `load` would return.
fn load_store_doc(path: &Path) -> Result<Json, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if store::columnar::is_columnar(&bytes) {
        let decoded =
            store::columnar::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        return Ok(decoded.store.to_json_with_schema(decoded.schema));
    }
    let text = String::from_utf8(bytes).map_err(|_| {
        format!(
            "store {} is neither binary columnar nor UTF-8 JSON — the file is corrupt or in a \
             foreign format",
            path.display()
        )
    })?;
    Json::parse(&text).map_err(|e| format!("json store {}: {e}", path.display()))
}

/// `campaign convert --store PATH --to bin|json [--out PATH]`: rewrite
/// a checkpoint in the other format. Lossless and canonical in both
/// directions — `json -> bin -> json` reproduces the original bytes.
fn convert(args: &Args) -> CliResult<u8> {
    let path = args.path("--store").ok_or("convert needs --store PATH")?;
    let target = match args.text("--to") {
        Some("bin") => store::StoreFormat::Binary,
        Some("json") => store::StoreFormat::Json,
        Some(other) => return Err(format!("--to must be `bin` or `json`, not `{other}`").into()),
        None => return Err("convert needs --to bin|json".into()),
    };
    if !path.exists() {
        return Err(format!("no such store: {}", path.display()).into());
    }
    let out = args.path("--out").unwrap_or(path);
    // Rewriting a store a live daemon owns would race its checkpoints;
    // same rule as gc/merge. A dead daemon's lock is stale — report it
    // and proceed.
    report_stale_lock(serve_lock::refuse_if_live(path, "convert")?, path);
    if out != path {
        report_stale_lock(serve_lock::refuse_if_live(out, "convert")?, out);
    }
    let opened = ResultStore::open_any(path)?;
    opened.store.save_as(out, target)?;
    if !args.quiet() {
        println!(
            "converted {} ({} cells, {} -> {}) into {}",
            path.display(),
            opened.store.len(),
            opened.format,
            target,
            out.display()
        );
    }
    Ok(0)
}

/// The store-and-sidecar state around one campaign execution: with
/// `--resume` the journal is replayed into the store before running;
/// with journaling active every fresh cell is appended as it completes
/// and the journal is compacted into the checkpoint on success; with
/// `--telemetry` every cell's wall clock and last-hit timestamp is
/// appended to the telemetry sidecar (which never touches the store's
/// bytes).
struct Session {
    store: ResultStore,
    /// Journal cells replayed by `--resume`.
    replayed: usize,
    journal: Option<Mutex<CompactingJournal>>,
    telemetry: Option<Mutex<TelemetryLog>>,
    /// Span/counter recorder behind `--trace FILE`: threaded through
    /// the executor hooks and the journal/telemetry sidecars, streamed
    /// out as a Chrome trace-event file on close. Purely observational
    /// — the store bytes are identical with and without it.
    obs: Option<Obs>,
    store_path: Option<PathBuf>,
}

impl Session {
    fn open(args: &Args) -> CliResult<Session> {
        let journaling = args.switch("--resume") || args.usize("--checkpoint-every").is_some();
        if journaling && args.path("--store").is_none() {
            return Err("--resume and --checkpoint-every need --store PATH".into());
        }
        // The threshold only means something against an active journal:
        // accepting it alone would silently run without any journaling.
        if args.usize("--compact-journal-over").is_some()
            && args.usize("--checkpoint-every").is_none()
        {
            return Err(
                "--compact-journal-over needs --checkpoint-every (it bounds the journal \
                 that flag appends to)"
                    .into(),
            );
        }
        if args.switch("--telemetry") && args.path("--store").is_none() {
            return Err("--telemetry needs --store PATH (the sidecar lives beside it)".into());
        }
        // The recorder opens first so store load / journal replay below
        // already appear in the trace.
        let obs = args.path("--trace").map(Obs::with_trace).transpose()?;
        let (store, replayed) = match (args.path("--store"), args.switch("--resume")) {
            (Some(path), true) => {
                ResultStore::open_resumable_full(path, obs.as_ref()).map(|(o, n)| (o.store, n))?
            }
            (Some(path), false) => (ResultStore::load(path)?, 0),
            (None, _) => (ResultStore::new(), 0),
        };
        let journal = match (args.path("--store"), journaling) {
            (Some(path), true) => {
                let mut journal = CompactingJournal::open(
                    path,
                    args.usize("--checkpoint-every").unwrap_or(1),
                    args.usize("--compact-journal-over"),
                    &store,
                )?;
                if let Some(obs) = &obs {
                    journal.observe(obs);
                }
                Some(Mutex::new(journal))
            }
            _ => None,
        };
        let telemetry = match (args.path("--store"), args.switch("--telemetry")) {
            (Some(path), true) => {
                let mut log = TelemetryLog::open(
                    path,
                    args.usize("--checkpoint-every")
                        .unwrap_or(telemetry::DEFAULT_TELEMETRY_BATCH),
                )?;
                if let Some(obs) = &obs {
                    log.observe(obs);
                }
                Some(Mutex::new(log))
            }
            _ => None,
        };
        Ok(Session {
            store,
            replayed,
            journal,
            telemetry,
            obs,
            store_path: args.path("--store").map(Path::to_path_buf),
        })
    }

    /// Persists the final store: journaling sessions compact the
    /// journal into the checkpoint; plain sessions save atomically.
    /// The telemetry sidecar, if any, gets its final fsync — but a
    /// sidecar I/O failure is a *warning*, never a reason to discard
    /// the campaign's results: telemetry is advisory, and the store
    /// save below must happen regardless.
    fn close(self, quiet: bool) -> CliResult<()> {
        let telemetry_warning = self.telemetry.and_then(|log| {
            let log = log.into_inner().expect("telemetry lock poisoned");
            let path = log.path().to_path_buf();
            match log.finish() {
                Ok(()) => {
                    if !quiet {
                        println!("telemetry appended: {}", path.display());
                    }
                    None
                }
                Err(e) => Some(e.to_string()),
            }
        });
        if let Some(warning) = telemetry_warning {
            eprintln!("campaign: warning: telemetry sidecar incomplete: {warning}");
        }
        match (self.journal, &self.store_path) {
            (Some(journal), Some(path)) => {
                let compactions = journal
                    .into_inner()
                    .expect("journal lock poisoned")
                    .finish()?;
                self.store.checkpoint_observed(path, self.obs.as_ref())?;
                if !quiet {
                    if compactions > 0 {
                        println!(
                            "checkpoint written: {} ({compactions} mid-run journal compactions)",
                            path.display()
                        );
                    } else {
                        println!("checkpoint written: {}", path.display());
                    }
                }
            }
            (None, Some(path)) => self.store.save_observed(path, self.obs.as_ref())?,
            _ => {}
        }
        finish_trace(self.obs.as_ref(), quiet);
        Ok(())
    }
}

/// Flushes the `--trace` file, if one was requested. Like telemetry,
/// the trace is advisory: an incomplete trace is a warning on stderr,
/// never a reason to fail a campaign whose store was already saved.
fn finish_trace(obs: Option<&Obs>, quiet: bool) {
    let Some(obs) = obs else { return };
    match obs.finish_trace() {
        Ok(Some((path, events))) => {
            if !quiet {
                println!("trace written: {} ({events} events)", path.display());
            }
        }
        Ok(None) => {}
        Err(e) => eprintln!("campaign: warning: trace incomplete: {e}"),
    }
}

/// Builds the executor hooks for a session: the journal sink (when
/// journaling), the telemetry sink (when `--telemetry`) and the
/// `--progress` stderr heartbeat.
macro_rules! session_hooks {
    ($session:expr, $args:expr, $hooks:ident) => {
        let journal_sink = |fp: &str, cell: &store::StoredCell| {
            if let Some(journal) = &$session.journal {
                journal
                    .lock()
                    .expect("journal lock poisoned")
                    .append(fp, cell);
            }
        };
        let timing_sink = |t: harness::exec::CellTiming<'_>| {
            if let Some(log) = &$session.telemetry {
                let mut log = log.lock().expect("telemetry lock poisoned");
                match t.wall {
                    Some(wall) => {
                        log.record_fresh(t.fingerprint, t.scenario, wall, telemetry::now_ms())
                    }
                    None => log.record_hit(t.fingerprint, t.scenario, telemetry::now_ms()),
                }
            }
        };
        let progress_line = |p: ExecProgress| {
            let mut err = std::io::stderr().lock();
            let _ = write!(
                err,
                "\r  {} cells executed, {} memoized (domain: {})",
                p.executed, p.memoized, p.total
            );
            let _ = err.flush();
        };
        let $hooks = ExecHooks {
            progress: if $args.switch("--progress") {
                Some(&progress_line as &(dyn Fn(ExecProgress) + Sync))
            } else {
                None
            },
            on_result: if $session.journal.is_some() {
                Some(&journal_sink as &(dyn Fn(&str, &store::StoredCell) + Sync))
            } else {
                None
            },
            on_timing: if $session.telemetry.is_some() {
                Some(&timing_sink as &(dyn Fn(harness::exec::CellTiming<'_>) + Sync))
            } else {
                None
            },
            obs: $session.obs.as_ref(),
            cancel: None,
        };
    };
}

/// Ends the `--progress` carriage-return line, if one was printed.
fn end_progress(args: &Args) {
    if args.switch("--progress") {
        eprintln!();
    }
}

fn run_or_report(args: &Args) -> CliResult<u8> {
    let registry = &args.registry();
    let filter = Filter::parse(args.values("--filter"))?;
    let mut session = Session::open(args)?;
    session_hooks!(session, args, hooks);
    let campaign = run_campaign_with(
        registry,
        args.values("--scenario"),
        &filter,
        &ExecConfig {
            threads: args.threads(),
            seed: args.seed(),
            replicates: args.u32("--replicates").unwrap_or(1),
            keep_replicates: args.switch("--keep-replicates"),
        },
        &mut session.store,
        CellDomain::All,
        hooks,
    )?;
    end_progress(args);
    write_artifacts(&campaign, args)?;
    let replayed = session.replayed;
    session.close(args.quiet())?;
    if args.command == "report" {
        print!("{}", report::evidence_summary(&campaign, registry));
        if campaign.replicates > 1 {
            print!("{}", report::distribution_summary(&campaign, registry));
        }
        return Ok(0);
    }
    print_cells(&campaign, args.quiet());
    println!(
        "{} cells: {} executed, {} memoized (seed {}){}",
        campaign.cells.len(),
        campaign.executed,
        campaign.memoized,
        campaign.seed,
        if args.switch("--resume") {
            format!(" — resumed, {replayed} journal cells replayed")
        } else {
            String::new()
        }
    );
    Ok(0)
}

fn plan(args: &Args) -> CliResult<u8> {
    let registry = &args.registry();
    let shards = args.u32("--shards").ok_or("plan needs --shards N")?;
    let path = args
        .path("--manifest")
        .ok_or("plan needs --manifest PATH")?;
    // The baseline store, and — when a telemetry sidecar accompanies it
    // — the measured durations that outrank the metric proxy.
    let (baseline, baseline_telemetry) = match args.path("--calibrate") {
        Some(p) => (
            Some(ResultStore::load_required(p)?),
            Some(Telemetry::load_for_store(p)?),
        ),
        None => (None, None),
    };
    let (manifest, shard_counts, source) = dist::plan_calibrated_with(
        registry,
        args.values("--scenario"),
        args.values("--filter"),
        args.seed(),
        shards,
        args.u32("--replicates").unwrap_or(1),
        baseline.as_ref(),
        baseline_telemetry.as_ref(),
    )?;
    manifest.save(path)?;
    if !args.quiet() {
        print!("{}", report::plan_summary(&manifest, &shard_counts));
        match source {
            dist::WeightSource::WallClock => println!(
                "  weights calibrated from wall-clock telemetry ({})",
                telemetry::telemetry_path(args.path("--calibrate").unwrap_or(Path::new("")))
                    .display()
            ),
            dist::WeightSource::MetricProxy => {
                println!("  weights calibrated from the metric-magnitude proxy")
            }
            dist::WeightSource::Unit => {}
        }
    }
    println!("manifest written to {}", path.display());
    Ok(0)
}

fn shard(args: &Args) -> CliResult<u8> {
    let path = args
        .path("--manifest")
        .ok_or("shard needs --manifest PATH")?;
    let index = args.u32("--index").ok_or("shard needs --index I")?;
    if args.path("--leases").is_some() && !args.switch("--steal") {
        return Err("--leases needs --steal (the static partition uses no lease files)".into());
    }
    let manifest = dist::Manifest::load(path)?;
    // The registry (and its generated corpus) is rebuilt from the
    // manifest, not from local flags: every worker must claim shards of
    // the exact campaign that was planned.
    let registry = dist::registry_for(&manifest);
    let mut session = Session::open(args)?;
    session_hooks!(session, args, hooks);
    let (campaign, steal_stats) = if args.switch("--steal") {
        let lease_dir = args
            .path("--leases")
            .map_or_else(|| dist::LeaseDir::for_manifest(path), Path::to_path_buf);
        // `open` stamps the directory with this campaign's digest and
        // refuses stale lease directories from an earlier plan.
        let leases = dist::LeaseDir::open(&lease_dir, &manifest)?;
        let (campaign, stats) = dist::run_shard_stealing(
            &registry,
            &manifest,
            index,
            args.threads(),
            &mut session.store,
            &leases,
            hooks,
        )?;
        (campaign, Some(stats))
    } else {
        let campaign = dist::run_shard_with(
            &registry,
            &manifest,
            index,
            args.threads(),
            &mut session.store,
            hooks,
        )?;
        (campaign, None)
    };
    end_progress(args);
    write_artifacts(&campaign, args)?;
    session.close(args.quiet())?;
    print_cells(&campaign, args.quiet());
    print!(
        "shard {index}/{}: {} cells: {} executed, {} memoized (seed {})",
        manifest.shards,
        campaign.cells.len(),
        campaign.executed,
        campaign.memoized,
        campaign.seed
    );
    match steal_stats {
        Some(stats) => println!(
            " — steal: {} chunks claimed ({} stolen), lease {} lazy cells, executed {}",
            stats.claimed_chunks, stats.stolen_chunks, stats.lease_cells, stats.executed_lazy_cells
        ),
        None => println!(),
    }
    Ok(0)
}

fn merge(args: &Args) -> CliResult<u8> {
    let out = args.path("--out").ok_or("merge needs --out PATH")?;
    if args.positional.is_empty() {
        return Err("merge needs at least one input store".into());
    }
    if args.switch("--report") && args.path("--manifest").is_none() {
        return Err("--report needs --manifest PATH (the chunk map comes from it)".into());
    }
    if args.path("--leases").is_some() && !args.switch("--report") {
        return Err("--leases needs --report (plain merges read no lease files)".into());
    }
    if args.switch("--keep-replicates") && args.path("--manifest").is_none() {
        return Err(
            "--keep-replicates needs --manifest PATH (the replicate fold it modulates is \
             driven by the manifest)"
                .into(),
        );
    }
    // A live daemon both reads (inputs) and writes (--out) its store on
    // its own schedule; merging against either end races it.
    for path in args
        .positional
        .iter()
        .chain(std::iter::once(&out.to_path_buf()))
    {
        report_stale_lock(serve_lock::refuse_if_live(path, "merge")?, path);
    }
    let obs = args.path("--trace").map(Obs::with_trace).transpose()?;
    let stores = args
        .positional
        .iter()
        .map(|p| ResultStore::load_required(p))
        .collect::<Result<Vec<_>, _>>()?;
    let inputs_merged = stores.len();
    let (mut fused, stats) = dist::merge_stores_owned_observed(stores, obs.as_ref())?;
    let mut folded = 0usize;
    if let Some(path) = args.path("--manifest") {
        let manifest = dist::Manifest::load(path)?;
        let registry = dist::registry_for(&manifest);
        dist::merge::verify_coverage(&registry, &manifest, &fused)?;
        // A replicated campaign's shards carry raw replicate cells;
        // folding them here (after coverage proved every replicate
        // present) makes the merged store byte-identical to the
        // single-process run's.
        folded = dist::merge::fold_replicates(
            &registry,
            &manifest,
            &mut fused,
            args.switch("--keep-replicates"),
        )?;
        if args.switch("--report") {
            let lease_dir = args
                .path("--leases")
                .map_or_else(|| dist::LeaseDir::for_manifest(path), Path::to_path_buf);
            if !lease_dir.is_dir() {
                return Err(format!(
                    "no lease directory at {} — --report needs the lease files of a \
                     `shard --steal` campaign (or pass theirs via --leases DIR)",
                    lease_dir.display()
                )
                .into());
            }
            let leases = dist::LeaseDir::open(&lease_dir, &manifest)?;
            let inputs: Vec<(String, Option<Telemetry>)> = args
                .positional
                .iter()
                .map(|p| {
                    let sidecar = telemetry::telemetry_path(p);
                    let telemetry = sidecar.exists().then(|| Telemetry::load(&sidecar));
                    Ok((p.display().to_string(), telemetry.transpose()?))
                })
                .collect::<CliResult<Vec<_>>>()?;
            let report = dist::steal_report(&registry, &manifest, &leases, &inputs)?;
            print!("{}", report::steal_summary(&report, &manifest));
        }
    }
    fused.save_observed(out, obs.as_ref())?;
    finish_trace(obs.as_ref(), args.quiet());
    // --quiet mutes the summary line; an explicitly requested --report
    // still prints (asking for a report and silencing it would be a
    // contradiction).
    if !args.quiet() {
        println!(
            "merged {} stores into {}: {} cells ({} duplicate){}",
            inputs_merged,
            out.display(),
            fused.len(),
            stats.duplicates,
            if folded > 0 {
                format!(", {folded} replicate groups folded")
            } else {
                String::new()
            }
        );
    }
    Ok(0)
}

fn diff(args: &Args) -> CliResult<u8> {
    let [baseline, compared] = args.positional.as_slice() else {
        return Err("diff needs exactly two store paths (BASELINE COMPARED)".into());
    };
    let mut tol = dist::Tolerances::parse(args.values("--tol"))?;
    if let Some(eps) = args.f64("--tol-default") {
        tol = tol.with_default(eps);
    }
    if let Some(rel) = args.f64("--rel") {
        tol = tol.with_rel(rel);
    }
    if let Some(sigmas) = args.f64("--sigmas") {
        tol = tol.with_sigmas(sigmas);
    }
    let load = |p: &Path| ResultStore::load_required(p);
    let (a, b) = (load(baseline)?, load(compared)?);
    let report = dist::diff_stores(&a, &b, &tol);
    if !args.quiet() || !report.is_empty() {
        print!("{}", report::diff_summary(&report));
    }
    Ok(if report.is_empty() {
        0
    } else {
        EXIT_DIFFERENCES
    })
}

/// `campaign bench`: runs the engine micro-benchmarks and either
/// writes the schema-versioned `BENCH_exec.json` / `BENCH_store.json`
/// / `BENCH_serve.json` documents (the committed perf trajectory) or,
/// with `--check`, gates a quick rerun against the committed files.
fn bench_cmd(args: &Args) -> CliResult<u8> {
    let out_dir = args.path("--out").unwrap_or(Path::new("."));
    if !out_dir.is_dir() {
        return Err(format!("no such directory: {}", out_dir.display()).into());
    }
    // --check always measures in quick mode: same bench names, CI-sized
    // repeats; the committed full-mode files carry every name quick runs.
    let quick = args.switch("--quick") || args.switch("--check");
    let config = if quick {
        bench::BenchConfig::quick(args.usize("--repeats"))
    } else {
        bench::BenchConfig::full(args.usize("--repeats"))
    };
    // Fail the gate before minutes of measurement if there is nothing
    // committed to gate against.
    if args.switch("--check") {
        for kind in ["exec", "store", "serve"] {
            let path = out_dir.join(bench::bench_file(kind));
            if !path.exists() {
                return Err(format!(
                    "no committed {} — run `campaign bench` and commit the result",
                    path.display()
                )
                .into());
            }
        }
    }
    let quiet = args.quiet();
    let mut progress = |name: &str| {
        if !quiet {
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err, "  bench: {name} x{}", config.repeats);
            let _ = err.flush();
        }
    };
    let families: Vec<(&str, Vec<bench::BenchResult>)> = vec![
        ("exec", bench::run_exec_benches(&config, &mut progress)?),
        ("store", bench::run_store_benches(&config, &mut progress)?),
        ("serve", bench::run_serve_benches(&config, &mut progress)?),
    ];
    if args.switch("--check") {
        let mut failures = Vec::new();
        for (kind, results) in &families {
            let committed = Json::parse_file(&out_dir.join(bench::bench_file(kind)))?;
            failures.extend(bench::check_against(kind, &committed, results));
        }
        if failures.is_empty() {
            if !quiet {
                println!(
                    "bench gate: {} benches within the {}x guard band",
                    families.iter().map(|(_, r)| r.len()).sum::<usize>(),
                    bench::GUARD_BAND
                );
            }
            return Ok(0);
        }
        for failure in &failures {
            eprintln!("bench gate: {failure}");
        }
        return Ok(EXIT_DIFFERENCES);
    }
    for (kind, results) in &families {
        let path = out_dir.join(bench::bench_file(kind));
        let doc = bench::render(kind, &config, results);
        std::fs::write(&path, doc.pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        if !quiet {
            println!("{}:", path.display());
            for r in results {
                println!("  {:<28} {:>14.3} {}", r.name, r.mean(), r.unit);
            }
        }
    }
    Ok(0)
}

/// Prints the remediation note for a stale (dead-owner) store lock a
/// command decided to ignore — so the operator learns the lock exists
/// and why it did not block.
fn report_stale_lock(stale: Option<serve_lock::LockInfo>, store: &Path) {
    if let Some(info) = stale {
        eprintln!(
            "note: ignoring stale store lock at {} (dead pid {}) — remove it, or let the \
             next `campaign serve` break it automatically",
            serve_lock::lock_path(store).display(),
            info.pid,
        );
    }
}

/// `campaign serve`: the always-on query/submit daemon over a store.
fn serve_cmd(args: &Args) -> CliResult<u8> {
    let store_path = args.path("--store").ok_or("serve needs --store PATH")?;
    let obs = args.path("--trace").map(Obs::with_trace).transpose()?;
    let defaults = ServeOptions::default();
    let handle = Server::bind(
        store_path,
        ServeOptions {
            addr: args.text("--addr").map_or(defaults.addr, str::to_string),
            accept_pool: args.usize("--accept-pool").unwrap_or(defaults.accept_pool),
            exec_threads: args.threads(),
            checkpoint_every: args
                .usize("--checkpoint-every")
                .unwrap_or(defaults.checkpoint_every),
            compact_journal_over: args.usize("--compact-journal-over"),
            slowlog_over_us: args
                .u64("--slowlog-over-us")
                .unwrap_or(defaults.slowlog_over_us),
            metrics_noop: false,
            quiet: args.quiet(),
        },
        obs.clone(),
    )?;
    report_stale_lock(handle.broke_stale_lock.clone(), store_path);
    let addr = handle.addr();
    if let Some(port_file) = args.path("--port-file") {
        // Written via a rename so a poller never reads a half-written
        // address.
        let tmp = port_file.with_extension("tmp");
        std::fs::write(&tmp, format!("{addr}\n"))
            .and_then(|()| std::fs::rename(&tmp, port_file))
            .map_err(|e| format!("write {}: {e}", port_file.display()))?;
    }
    if !args.quiet() {
        println!(
            "serve: listening on {addr} ({} cells{})",
            handle.cells(),
            if handle.replayed > 0 {
                format!(", {} journal cells replayed", handle.replayed)
            } else {
                String::new()
            }
        );
    }
    let summary = handle.wait()?;
    finish_trace(obs.as_ref(), args.quiet());
    if !args.quiet() {
        println!(
            "serve: shut down after {} ms — {} cells checkpointed; {} connections, \
             {} requests ({} queries: {} hits, {} misses), {} submits \
             ({} done, {} failed, {} cancelled, {} dropped)",
            summary.uptime_ms,
            summary.cells,
            summary.connections,
            summary.requests,
            summary.queries,
            summary.query_hits,
            summary.query_misses,
            summary.submits,
            summary.jobs_done,
            summary.jobs_failed,
            summary.jobs_cancelled,
            summary.jobs_dropped,
        );
    }
    Ok(0)
}

/// One `top` poll: a fresh connection, one request/response round trip
/// per op. A fresh connection per poll keeps the daemon's accept-pool
/// slot free between polls and makes "daemon gone" detection trivial.
fn top_poll(addr: &str) -> std::io::Result<[Json; 3]> {
    use std::io::{BufRead, BufReader};
    let stream = std::net::TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let mut responses = Vec::with_capacity(3);
    for op in ["stats", "metrics", "jobs"] {
        writeln!(stream, "{{\"op\":\"{op}\"}}")?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let doc = Json::parse(line.trim())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        responses.push(doc);
    }
    Ok(responses.try_into().expect("three ops, three responses"))
}

/// `campaign top`: live terminal view of a running daemon. The screen
/// itself is rendered by [`harness::serve::top`]; this loop only
/// polls, clears and reprints.
fn top_cmd(args: &Args) -> CliResult<u8> {
    let addr = match (args.text("--addr"), args.path("--port-file")) {
        (Some(addr), None) => addr.to_string(),
        (None, Some(path)) => std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?
            .trim()
            .to_string(),
        (Some(_), Some(_)) => return Err("top takes --addr or --port-file, not both".into()),
        (None, None) => return Err("top needs --addr HOST:PORT or --port-file PATH".into()),
    };
    let interval = std::time::Duration::from_millis(args.u64("--interval-ms").unwrap_or(1_000));
    let mut first = true;
    loop {
        let [stats, metrics, jobs] = match top_poll(&addr) {
            Ok(responses) => responses,
            // The first connection failing is an operator error (wrong
            // address, daemon not up); later failures mean the daemon
            // shut down mid-watch, which is a clean exit.
            Err(e) if first => return Err(format!("connect {addr}: {e}").into()),
            Err(_) => {
                println!("campaign top: daemon at {addr} is gone");
                return Ok(0);
            }
        };
        let screen = serve_top::render(&addr, &stats, &metrics, &jobs);
        if args.switch("--once") {
            print!("{screen}");
            return Ok(0);
        }
        // ANSI clear + home, then the fresh frame.
        print!("\x1b[2J\x1b[H{screen}");
        let _ = std::io::stdout().flush();
        first = false;
        std::thread::sleep(interval);
    }
}

/// `campaign trace FILE`: validates a `--trace` output file and prints
/// its per-span totals — the quick sanity check CI runs before anyone
/// loads the file into Perfetto.
fn trace_cmd(args: &Args) -> CliResult<u8> {
    let [path] = args.positional.as_slice() else {
        return Err("trace needs exactly one trace file path".into());
    };
    let stats = obs_trace::load_trace(path)?;
    println!(
        "{}: {} events{}",
        path.display(),
        stats.events,
        if stats.torn_tail {
            " (torn final line tolerated)"
        } else {
            ""
        }
    );
    for (name, span) in &stats.spans {
        println!(
            "  {:<20} {:>8} x {:>14.1} us",
            name, span.count, span.total_us
        );
    }
    Ok(0)
}

/// Writes the campaign-shaped artifacts (JSON/CSV). The store itself
/// is persisted by [`Session::close`] — checkpoint-compacted when
/// journaling, atomically saved otherwise.
fn write_artifacts(campaign: &Campaign, args: &Args) -> CliResult<()> {
    if let Some(path) = args.path("--json") {
        std::fs::write(path, report::campaign_json(campaign))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if let Some(path) = args.path("--csv") {
        std::fs::write(path, report::campaign_csv(campaign))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn print_cells(campaign: &Campaign, quiet: bool) {
    if quiet {
        return;
    }
    for cell in &campaign.cells {
        let metrics: Vec<String> = cell
            .result
            .metrics
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!(
            "{:<20} {:<44} {}{}",
            cell.scenario,
            cell.params.key(),
            metrics.join(" "),
            if cell.memoized { "  (memoized)" } else { "" }
        );
    }
}
