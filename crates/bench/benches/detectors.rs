//! Micro-benchmarks of all 14 source UAD models: fit + score throughput
//! on one suite dataset (the practical cost behind the paper's "no
//! universal winner" argument — assumption families differ hugely in
//! compute, too).

use criterion::{criterion_group, criterion_main, Criterion};
use uadb_bench::setup::Settings;
use uadb_data::suite::{generate_by_name, SuiteScale};
use uadb_detectors::DetectorKind;

fn bench(c: &mut Criterion) {
    let seed = Settings::from_env().unwrap_or_else(|e| panic!("{e}")).seed;
    let d = generate_by_name("12_glass", SuiteScale::Quick, seed).unwrap().standardized();
    let mut g = c.benchmark_group("detectors_fit_score");
    g.sample_size(10);
    for kind in DetectorKind::ALL {
        g.bench_function(kind.name(), |b| b.iter(|| kind.build(0).fit_score(&d.x).unwrap()));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
