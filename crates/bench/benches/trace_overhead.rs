//! Measures what structured tracing costs the scheduling service: the
//! same job stream is run with the tracer disabled (the hot-path
//! guard), recording spans only, and recording spans plus per-cycle
//! droop-event capture. The disabled case is the budget the service
//! pays unconditionally and must stay within noise of the untraced
//! baseline (see `tests/trace_guard.rs` for the enforced bound).

use criterion::{criterion_group, criterion_main, Criterion};
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

    for (name, tracer) in [
        (
            "trace_overhead/disabled",
            Tracer::disabled as fn() -> Tracer,
        ),
        ("trace_overhead/spans", Tracer::spans_only),
        ("trace_overhead/spans+droops", Tracer::enabled),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let tracer = tracer();
                let inst = Instruments::new().traced(&tracer);
                service
                    .run_with(&jobs, &OnlineDroop, workers, &inst)
                    .expect("service run")
            })
        });
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
