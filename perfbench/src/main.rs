//! perfbench — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the harness in-process through its public API (and the serve
//! daemon through its TCP protocol), checks every output, and prints as
//! its last stdout line one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — every end-to-end metric with `--trace 0`,
//! every per-layer metric (from a traced run) with `--trace 1`. A
//! readable report goes to stderr. Run it from the repository root;
//! scratch files live under `.perfbench-work/`, and a traced run leaves
//! its spans there. See `perfbench/README.md`.

mod reads;
mod stats;
mod trace;
mod workloads;

use harness::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Bench, WORKLOADS};

/// End-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("rerun_s", "s"),
    ("query_p50_us", "us"),
    ("range_p50_us", "us"),
    ("submit_s", "s"),
    ("peak_rss_mb", "MB"),
    ("store_bytes", "bytes"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them. A layer a
/// workload never enters reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("gen.registry_ms", "ms"),
    ("exec.cell_ms.cache-evict-fill", "ms"),
    ("exec.cell_ms.pipeline-sipr", "ms"),
    ("exec.cell_ms.gen", "ms"),
    ("exec.cell_ms.rest", "ms"),
    ("exec.critical_cell_ms", "ms"),
    ("exec.non_cell_ms", "ms"),
    ("exec.cells_scanned", "count"),
    ("exec.cells_executed", "count"),
    ("exec.memo_hit_ratio", "ratio"),
    ("expect.fold_ms", "ms"),
    ("store.save_ms.json", "ms"),
    ("store.save_ms.bin", "ms"),
    ("store.checkpoint_ms", "ms"),
    ("store.load_ms.json", "ms"),
    ("store.load_ms.bin", "ms"),
    ("store.journal_bytes", "bytes"),
    ("store.write_amp", "ratio"),
    ("dist.plan_ms", "ms"),
    ("dist.shard_ms.0", "ms"),
    ("dist.shard_ms.1", "ms"),
    ("dist.shard_skew", "ratio"),
    ("dist.stolen_chunks", "count"),
    ("dist.merge_ms", "ms"),
    ("serve.bind_ms", "ms"),
    ("serve.index_build_ms", "ms"),
    ("serve.handle_p50_us.query", "us"),
    ("serve.handle_p50_us.query_range", "us"),
    ("read.query_p90_us", "us"),
    ("read.range_p90_us", "us"),
    ("serve.query_p90_us.during_submit", "us"),
    ("serve.query_p90_us.idle", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.job_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench-work");
    let dir = root.join(format!(
        "{}-{}-{}",
        args.workload.replace('/', "_"),
        args.seed,
        std::process::id()
    ));
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))
        .and_then(|()| measure(&args, &root, dir.clone()));
    std::fs::remove_dir_all(&dir).ok();
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload and renders the result line.
fn measure(args: &Args, root: &Path, dir: PathBuf) -> Result<String, String> {
    let mut bench = Bench::new(
        args.seed,
        Duration::from_secs(args.seconds),
        dir,
        args.traced,
    );
    workloads::run(&args.workload, &mut bench)?;
    report(args, &bench);
    let metrics = if args.traced {
        let path = root.join(format!("trace-{}.jsonl", args.workload));
        bench
            .tracer
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written: {}", path.display());
        listed(&PER_LAYER, |name| {
            Some(bench.layer.get(name).copied().unwrap_or(0.0))
        })?
    } else {
        listed(&END_TO_END, |name| bench.e2e.get(name).map(|v| v.0))?
    };
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(bench.failed == 0)),
        ("attempted".into(), Json::Num(bench.attempted as f64)),
        ("failed".into(), Json::Num(bench.failed as f64)),
        ("metrics".into(), metrics),
    ])
    .compact())
}

fn listed(names: &[(&str, &str)], value: impl Fn(&str) -> Option<f64>) -> Result<Json, String> {
    let mut out = Vec::new();
    for &(name, unit) in names {
        let v = value(name).ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        out.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(v)),
                ("unit".into(), Json::str(unit)),
            ]),
        ));
    }
    Ok(Json::Obj(out))
}

/// The readable report on stderr: each end-to-end metric with its
/// sample count, quartiles and the deepest tail its samples support;
/// in a traced run also the per-layer values and span self times.
fn report(args: &Args, bench: &Bench) {
    eprintln!(
        "{} seed {} ({} s{}): {} operations, {} failed (failed_ratio {:.6})",
        args.workload,
        args.seed,
        args.seconds,
        if args.traced { ", traced" } else { "" },
        bench.attempted,
        bench.failed,
        bench.failed as f64 / bench.attempted.max(1) as f64
    );
    for (name, unit) in END_TO_END {
        let Some((value, samples)) = bench.e2e.get(name) else {
            continue;
        };
        let quartiles = match (stats::quartiles(samples), stats::spread(samples)) {
            (Some([q1, _, q3]), Some(spread)) => {
                format!("  q1 {q1:.6} q3 {q3:.6} iqr/median {spread:.4}")
            }
            _ => String::new(),
        };
        let tail = stats::tail_percentile(samples.len()).map_or("none".into(), |p| format!("p{p}"));
        eprintln!(
            "  {name:<16} {value:>14.6} {unit:<5} n={:<7} deepest tail {tail}{quartiles}",
            samples.len()
        );
    }
    if args.traced {
        for (name, unit) in PER_LAYER {
            let value = bench.layer.get(name).copied().unwrap_or(0.0);
            eprintln!("  {name:<34} {value:>14.4} {unit}");
        }
        eprintln!("  span self time (ms, total / self):");
        for (name, (total, own)) in trace::self_times(&bench.tracer.spans()) {
            eprintln!(
                "    {name:<30} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this program must name the same metrics.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse_file(&path).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), ours(&END_TO_END));
        assert_eq!(names("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = args("--workload replicated-sweep --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.traced), (7, 10, true));
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload replicated-sweep --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--workload replicated-sweep --seconds 10 --trace 0").is_err());
        assert!(args("--workload replicated-sweep --seed").is_err());
    }
}
