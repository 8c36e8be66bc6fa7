//! Criterion benches regenerating (and timing) every paper artifact:
//! one bench group per figure/equation/table, plus the §4 metrics.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_fig1(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1_distribution");
    for samples in [4u64, 16] {
        g.bench_with_input(BenchmarkId::from_parameter(samples), &samples, |b, &s| {
            b.iter(|| repro_bench::fig1::distribution(black_box(s)));
        });
    }
    g.finish();
}

fn bench_eq4(c: &mut Criterion) {
    let mut g = c.benchmark_group("eq4_domino");
    for n in [16u32, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| repro_bench::eq4::rows(black_box(n)));
        });
    }
    g.finish();
}

fn bench_table1(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_evidence");
    g.sample_size(10);
    g.bench_function("branch_static", |b| {
        b.iter(repro_bench::evidence::branch_static)
    });
    g.bench_function("preschedule", |b| {
        b.iter(repro_bench::evidence::preschedule)
    });
    g.bench_function("smt", |b| b.iter(repro_bench::evidence::smt));
    g.bench_function("compsoc", |b| b.iter(repro_bench::evidence::compsoc));
    g.bench_function("pret", |b| b.iter(repro_bench::evidence::pret));
    g.bench_function("vtrace", |b| b.iter(repro_bench::evidence::vtrace));
    g.bench_function("future_arch", |b| {
        b.iter(repro_bench::evidence::future_arch)
    });
    g.finish();
}

fn bench_table2(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2_evidence");
    g.sample_size(10);
    g.bench_function("method_cache", |b| {
        b.iter(repro_bench::evidence::method_cache)
    });
    g.bench_function("split_cache", |b| {
        b.iter(repro_bench::evidence::split_cache)
    });
    g.bench_function("locking", |b| b.iter(repro_bench::evidence::locking));
    g.bench_function("dram_ctrl", |b| b.iter(repro_bench::evidence::dram_ctrl));
    g.bench_function("refresh", |b| b.iter(repro_bench::evidence::refresh));
    g.bench_function("single_path", |b| {
        b.iter(repro_bench::evidence::single_path)
    });
    g.finish();
}

fn bench_cache_metrics(c: &mut Criterion) {
    use mem_hierarchy::metrics::{compute_metrics, PolicyKind};
    let mut g = c.benchmark_group("cache_metrics");
    g.sample_size(10);
    for k in [2usize, 3, 4] {
        for (name, policy) in [("lru", PolicyKind::Lru), ("fifo", PolicyKind::Fifo)] {
            g.bench_with_input(BenchmarkId::new(name, k), &k, |b, &k| {
                b.iter(|| compute_metrics(policy, k, 3 * k as u32 + 2));
            });
        }
    }
    g.finish();
}

fn bench_dynsys(c: &mut Criterion) {
    c.bench_function("dynsys_horizons", |b| {
        b.iter(repro_bench::dynsys_horizon::rows)
    });
}

criterion_group!(
    benches,
    bench_fig1,
    bench_eq4,
    bench_table1,
    bench_table2,
    bench_cache_metrics,
    bench_dynsys
);
criterion_main!(benches);
