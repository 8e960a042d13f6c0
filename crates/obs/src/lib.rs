//! # vsmooth-obs — live operational endpoints for the vsmooth service
//!
//! Every other observability artifact in this workspace (Prometheus
//! render, `vsmooth-health-v1`, trace rings, attribution profiles) is
//! written to a file *after* the run ends. This crate is the live
//! surface: an embedded, dependency-free HTTP/1.1 server on a
//! loopback `TcpListener` that serves the state of a run *while jobs
//! are executing* — the prerequisite for the ROADMAP's
//! service-that-never-stops soak and the closed-loop load-shedding
//! work that builds on it.
//!
//! Two pieces:
//!
//! * [`TelemetryHub`] — the lock-light snapshot exchange. The service
//!   coordinator publishes immutable [`ObsSnapshot`]s (`Arc` swap
//!   under a mutex held for one pointer operation); scrape threads
//!   clone the current `Arc`. A stuck scraper can never hold a lock
//!   the epoch loop needs (DESIGN.md §14).
//! * [`ObsServer`] — the scrape server: `GET /metrics` (Prometheus
//!   text), `/healthz` (503 while a paging-severity alert fires),
//!   `/readyz` (503 until the first publish), `/status`
//!   (`vsmooth-obs-v1` JSON: service progress and health),
//!   `/trace/recent?n=N` (last N droop crossings), `/profile`
//!   (latest `vsmooth-profile-v1` JSON),
//!   `/shards` (`vsmooth-obs-shards-v2` JSON, the live shard-runtime
//!   introspection), `/decisions?n=N` (the scheduler decision audit
//!   ring). The server self-observes: `obs_scrapes_total
//!   {endpoint,status}`, a scrape latency histogram, a snapshot
//!   staleness gauge, and the per-shard introspection gauges ride
//!   along in the `/metrics` exposition.
//!
//! The serving side never touches the run's own `MetricsRegistry` or
//! `ServiceReport`: self-observation lives in a separate registry and
//! the live shard-runtime counters ([`ShardsStatus`]) exist only in
//! the published snapshot, so attaching an [`ObsConfig`] cannot
//! perturb the byte-determinism contract the service tests pin down.
//!
//! # Example
//!
//! ```
//! use vsmooth_obs::{http_get, ObsServer, ObsSnapshot};
//!
//! let server = ObsServer::bind("127.0.0.1:0")?;
//! let hub = server.hub(); // hand this to ObsConfig::new(...)
//! hub.publish(ObsSnapshot::default());
//! let resp = http_get(server.local_addr(), "/readyz")?;
//! assert_eq!(resp.status, 200);
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod hub;
mod server;

pub use hub::{
    LatencyStats, ObsConfig, ObsSnapshot, ServiceStatus, ShardStatus, ShardsStatus, TelemetryHub,
};
pub use server::{
    http_get, http_send_raw, HttpResponse, ObsServer, OBS_DECISIONS_SCHEMA, OBS_SHARDS_SCHEMA,
    OBS_STATUS_SCHEMA, OBS_TRACE_SCHEMA,
};
