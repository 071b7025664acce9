//! Real (wall-clock) scoring throughput of the functional backends — this
//! benchmarks the library's own execution engines, not the modelled times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mlscore_backend::{score_once, OnnxCpu, ScoringBackend, SklearnCpu};
use mlscore_bench::cpu_bench::naive_predict;
use mlscore_data::Dataset;
use mlscore_exec::{
    score_forest_batch, score_simd_batch, ExecPool, FlatImage, RunConfig, SimdLevel,
};
use mlscore_forest::{ForestConfig, RandomForest};
use mlscore_fpga::FpgaBackend;
use mlscore_gpu::HummingbirdGpu;

fn bench(c: &mut Criterion) {
    let forest =
        RandomForest::synthetic_full(&ForestConfig::classification(64, 28, 2).with_depth(10), 7);
    let data = Dataset::higgs(2_000, 3).normalized();
    let n = data.frame().n_rows() as u64;

    let backends: Vec<(&str, Box<dyn ScoringBackend>)> = vec![
        ("sklearn_1t", Box::new(SklearnCpu::with_threads(1))),
        ("sklearn_8t", Box::new(SklearnCpu::with_threads(8))),
        ("onnx_flat", Box::new(OnnxCpu::single_thread())),
        ("fpga_engine", Box::new(FpgaBackend::paper_default())),
        ("hummingbird_gemm", Box::new(HummingbirdGpu::p100())),
    ];
    let mut g = c.benchmark_group("functional_scoring");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n));
    for (name, backend) in &backends {
        g.bench_with_input(BenchmarkId::from_parameter(name), backend, |b, backend| {
            b.iter(|| score_once(backend, &forest, data.frame()).unwrap())
        });
    }
    g.finish();

    // The executor kernels against the seed's naive per-record path, on the
    // same model/frame — the criterion view of the `repro bench` sweep.
    let image = FlatImage::from_forest(&forest, forest.max_depth()).unwrap();
    let level = SimdLevel::detect();
    let mut g = c.benchmark_group("blocked_kernel");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n));
    g.bench_function("naive_per_record", |b| {
        b.iter(|| naive_predict(&forest, data.frame().as_slice()))
    });
    for threads in [1usize, 4] {
        let pool = ExecPool::new(threads);
        let cfg = RunConfig::for_threads(threads);
        g.bench_function(&format!("flat_simd_{threads}t"), |b| {
            b.iter(|| score_simd_batch(&image, data.frame(), &pool, &cfg, level))
        });
        g.bench_function(&format!("forest_blocked_{threads}t"), |b| {
            b.iter(|| score_forest_batch(&forest, data.frame(), &pool, &cfg))
        });
    }
    g.finish();

    // Model preparation costs: flat-layout encoding and bundle (de)serialization.
    let mut g = c.benchmark_group("model_prep");
    g.bench_function("flat_encode_64x10", |b| {
        b.iter(|| mlscore_forest::FlatForest::from_forest(&forest, 10).unwrap())
    });
    let bundle = mlscore_forest::ModelBundle::serialize(&forest);
    g.bench_function("bundle_serialize", |b| {
        b.iter(|| mlscore_forest::ModelBundle::serialize(&forest))
    });
    g.bench_function("bundle_deserialize", |b| {
        b.iter(|| bundle.deserialize().unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
