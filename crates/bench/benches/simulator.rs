//! Simulator micro-benchmarks: core cycle throughput per ISA, accelerator
//! throughput, cache and PRF hot paths, checkpoint clone cost, and
//! single-injection-run latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use marvel_accel::FuConfig;
use marvel_bench::golden;
use marvel_core::{run_one, CampaignConfig, FaultMask, FaultModel};
use marvel_cpu::{Cache, CacheConfig, PhysRegFile};
use marvel_isa::Isa;
use marvel_soc::Target;
use marvel_workloads::accel::design;

fn core_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("core_cycles");
    g.sample_size(10);
    for isa in Isa::ALL {
        let gold = golden("crc32", isa);
        g.throughput(Throughput::Elements(20_000));
        g.bench_with_input(BenchmarkId::from_parameter(isa.name()), &gold, |b, gold| {
            b.iter(|| {
                let mut sys = gold.ckpt.clone();
                for _ in 0..20_000 {
                    sys.tick();
                }
                sys.cycle
            })
        });
    }
    g.finish();
}

fn accel_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("accel_cycles");
    g.sample_size(10);
    let d = design("FFT");
    let h = (d.make)(FuConfig::default());
    g.throughput(Throughput::Elements(20_000));
    g.bench_function("fft_dsa", |b| {
        b.iter(|| {
            let mut h = h.clone();
            h.run(None, 20_000)
        })
    });
    g.finish();
}

fn checkpoint_clone(c: &mut Criterion) {
    let gold = golden("qsort", Isa::RiscV);
    c.bench_function("checkpoint_clone", |b| b.iter(|| gold.ckpt.clone()));
}

fn injection_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("one_injection_run");
    g.sample_size(10);
    let gold = golden("qsort", Isa::RiscV);
    let cc = CampaignConfig { n_faults: 1, ..Default::default() };
    let mask = FaultMask {
        target: Target::PrfInt,
        bits: vec![1234],
        model: FaultModel::Transient { cycle: gold.ckpt_cycle + gold.exec_cycles / 2 },
    };
    g.bench_function("prf_transient", |b| b.iter(|| run_one(&gold, &mask, &cc)));
    g.finish();
}

fn cache_hot_path(c: &mut Criterion) {
    let mut cache = Cache::new(CacheConfig { size: 32 * 1024, assoc: 4, line: 64, latency: 2 });
    for i in 0..512u64 {
        cache.fill(0x4000_0000 + i * 64, &[0u8; 64], &mut [0u8; 64]);
    }
    c.bench_function("cache_lookup_read", |b| {
        let mut a = 0x4000_0000u64;
        b.iter(|| {
            a = 0x4000_0000 + ((a + 64) & 0x7FFF);
            let way = cache.lookup(a & !63).unwrap();
            cache.read(a & !7, 8, way)
        })
    });
}

fn prf_hot_path(c: &mut Criterion) {
    let mut prf = PhysRegFile::new(128);
    c.bench_function("prf_write_read", |b| {
        let mut i = 0u16;
        b.iter(|| {
            i = (i + 1) % 128;
            prf.write(i, i as u64 * 3);
            prf.read(i)
        })
    });
}

criterion_group!(
    benches,
    core_throughput,
    accel_throughput,
    checkpoint_clone,
    injection_run,
    cache_hot_path,
    prf_hot_path
);
criterion_main!(benches);
