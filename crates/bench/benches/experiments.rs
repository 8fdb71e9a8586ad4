//! Criterion benches that regenerate every experiment (table/figure) at a
//! reduced scale, so `cargo bench` exercises the full reproduction matrix.
//! The human-readable tables come from the `exp_*` binaries; these benches
//! time the same computations end to end.

use commchar_apps::AppId;
use commchar_bench::{run_and_characterize, run_suite, ExpOptions};
use commchar_core::synthesize;
use commchar_mesh::{IncrementalFlit, MeshConfig, NetEngine, OnlineWormhole};
use commchar_sp2::{run_mp, Sp2Config};
use commchar_stats::linreg::fit_line;
use commchar_traffic::patterns::uniform_poisson;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn tiny() -> ExpOptions {
    ExpOptions { procs: 4, scale: commchar_apps::Scale::Tiny, jobs: 1 }
}

/// T1/T2/T3/F-IAT/F-SPAT/T-NET all reduce to: run the suite, characterize
/// every application (tables are just views over the signatures).
fn exp_suite_characterization(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    group.bench_function("t1_t2_t3_suite_characterize_tiny", |b| {
        b.iter(|| run_suite(black_box(tiny())))
    });
    group.finish();
}

/// F9: 3D-FFT count-vs-volume distributions.
fn exp_f9(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    group.bench_function("f9_fft3d_volume_tiny", |b| {
        b.iter(|| {
            let (w, sig) = run_and_characterize(AppId::Fft3d, tiny());
            let counts = w.netlog.spatial_counts(sig.nprocs);
            let bytes = w.netlog.volume_bytes(sig.nprocs);
            black_box((counts, bytes))
        })
    });
    group.finish();
}

/// T-SP2: overhead regression.
fn exp_sp2(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    group.bench_function("tsp2_overhead_regression", |b| {
        b.iter(|| {
            let cfg = Sp2Config::new(2);
            let mut points = Vec::new();
            for &bytes in &[8usize, 256, 4096] {
                let words = bytes / 8;
                let out = run_mp(cfg, move |r| {
                    let data = vec![1.0f64; words];
                    for _ in 0..4 {
                        if r.rank() == 0 {
                            r.send(1, &data, 1);
                            let _ = r.recv(1, 2);
                        } else {
                            let d = r.recv(0, 1);
                            r.send(0, &d, 2);
                        }
                    }
                });
                let one_way = out.exec_ticks as f64 / 8.0 / cfg.ticks_per_us;
                let wire = cfg.wire_ticks(bytes as u32) as f64 / cfg.ticks_per_us;
                points.push((bytes as f64, one_way - wire));
            }
            black_box(fit_line(&points))
        })
    });
    group.finish();
}

/// V1: fitted-model synthesis plus replay against the mesh.
fn exp_v1(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    group.bench_function("v1_validation_is_tiny", |b| {
        b.iter(|| {
            let (w, sig) = run_and_characterize(AppId::Is, tiny());
            let span = w.netlog.summary().span.max(1);
            let model = synthesize(&sig, w.mesh);
            let synth = model.generate(span, 7);
            let msgs = synth.net_messages();
            black_box(OnlineWormhole::new(w.mesh).simulate(&msgs).unwrap().summary())
        })
    });
    group.finish();
}

/// A1: network model cross-validation.
fn exp_a1(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    let mesh = MeshConfig::for_nodes(8);
    let trace = uniform_poisson(8, 0.002, 32).generate(20_000, 5);
    let msgs = trace.net_messages();
    group.bench_function("a1_model_crosscheck", |b| {
        b.iter(|| {
            let a = OnlineWormhole::new(mesh).simulate(black_box(&msgs)).unwrap().summary();
            let f = IncrementalFlit::new(mesh).simulate(black_box(&msgs)).unwrap().summary();
            black_box((a, f))
        })
    });
    group.finish();
}

criterion_group!(benches, exp_suite_characterization, exp_f9, exp_sp2, exp_v1, exp_a1);
criterion_main!(benches);
