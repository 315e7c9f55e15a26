//! E2 — fused copy+checksum vs two serial passes, across working-set sizes
//! (the ILP memory-pass argument of §4).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ct_bench::byte_workload;
use ct_wire::checksum::internet_checksum;
use ct_wire::copy::copy_bytes;
use ct_wire::fused::copy_and_checksum;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    for (label, size) in [("4kB", 4000usize), ("8MB", 8 << 20)] {
        let src = byte_workload(size);
        let mut dst = vec![0u8; size];
        let mut g = c.benchmark_group(format!("e2_fusion/{label}"));
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function("serial_copy_then_checksum", |b| {
            b.iter(|| {
                copy_bytes(black_box(&src), black_box(&mut dst));
                black_box(internet_checksum(black_box(&dst)))
            })
        });
        g.bench_function("fused_copy_and_checksum", |b| {
            b.iter(|| black_box(copy_and_checksum(black_box(&src), black_box(&mut dst))))
        });
        g.finish();
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(200))
}

criterion_group! { name = benches; config = config(); targets = bench }
criterion_main!(benches);
