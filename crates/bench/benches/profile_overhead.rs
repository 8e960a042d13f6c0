//! Measures what droop profiling costs the scheduling service: the
//! same job stream is run unprofiled (the baseline the service pays
//! unconditionally), with profiling but no tracer, and with profiling
//! plus full tracing (window spans + droop events). Profiling adds
//! per-cycle ring-buffer maintenance on every chip, so — unlike the
//! disabled tracer — it is expected to cost; the bench quantifies how
//! much, and `tests/profile_guard.rs` enforces that *not* profiling
//! stays free.

use criterion::{criterion_group, criterion_main, Criterion};
use vsmooth::profile::ProfileConfig;
use vsmooth::sched::OnlineDroop;
use vsmooth::serve::{synthetic_jobs, Service, ServiceConfig};
use vsmooth::trace::Tracer;
use vsmooth::Instruments;

fn bench(c: &mut Criterion) {
    let lab = vsmooth_bench::lab();
    let cfg = lab.config();
    let slice = (cfg.fidelity.cycles_per_interval() / 8).clamp(500, 4_000);
    let mut service_cfg = ServiceConfig::new(vsmooth::chip::ChipConfig::core2_duo(
        vsmooth::pdn::DecapConfig::proc100(),
    ));
    service_cfg.slice_cycles = slice;
    let service = Service::new(service_cfg).expect("valid config");
    let jobs = synthetic_jobs(2010, 120, slice);
    let workers = cfg.threads;

    for (name, traced, profiled) in [
        ("profile_overhead/unprofiled", false, false),
        ("profile_overhead/profiled", false, true),
        ("profile_overhead/profiled+traced", true, true),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let tracer = if traced {
                    Tracer::enabled()
                } else {
                    Tracer::disabled()
                };
                let mut inst = Instruments::new().traced(&tracer);
                if profiled {
                    inst = inst.profiled(ProfileConfig::default());
                }
                service
                    .run_with(&jobs, &OnlineDroop, workers, &inst)
                    .expect("service run")
            })
        });
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
