//! The embedded scrape server: a dependency-free HTTP/1.1 responder
//! on a loopback `TcpListener`, serving whatever the [`TelemetryHub`]
//! currently holds.
//!
//! The server is deliberately minimal: one accept-loop thread,
//! connections handled serially (scrapers are few and loopback is
//! fast), `Connection: close` on every response, and a hand-rolled
//! request parser good for exactly the `GET <path> HTTP/1.x` requests
//! a scraper sends. Malformed requests get 400, unknown paths 404,
//! non-GET methods 405 — and none of them kill the accept loop.
//!
//! Endpoints:
//!
//! | path               | body                                            |
//! |--------------------|-------------------------------------------------|
//! | `/metrics`         | Prometheus text: published snapshot + obs self-metrics |
//! | `/healthz`         | health verdict; 503 while a paging alert fires  |
//! | `/readyz`          | 200 once a snapshot has been published, else 503 |
//! | `/status`          | `vsmooth-obs-v1` JSON: service progress, health |
//! | `/trace/recent?n=N`| `vsmooth-obs-trace-v1` JSON: last N droops      |
//! | `/profile`         | latest `vsmooth-profile-v1` JSON, 404 until one |
//! | `/shards`          | `vsmooth-obs-shards-v1` JSON: live shard-runtime introspection |
//! | `/decisions?n=N`   | `vsmooth-obs-decisions-v1` JSON: last N audit decisions |

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vsmooth_stats::MetricsRegistry;

use crate::hub::{ObsSnapshot, ShardsStatus, TelemetryHub};
use vsmooth_trace::json::{escape, json_f64};
use vsmooth_trace::{DecisionEvent, DroopEvent};

/// Schema tag on the `/status` JSON document.
pub const OBS_STATUS_SCHEMA: &str = "vsmooth-obs-v1";
/// Schema tag on the `/trace/recent` JSON document.
pub const OBS_TRACE_SCHEMA: &str = "vsmooth-obs-trace-v1";
/// Schema tag on the `/shards` JSON document.
pub const OBS_SHARDS_SCHEMA: &str = "vsmooth-obs-shards-v1";
/// Schema tag on the `/decisions` JSON document.
pub const OBS_DECISIONS_SCHEMA: &str = "vsmooth-obs-decisions-v1";

/// Droop records `/trace/recent` returns when no `n` is given.
const DEFAULT_RECENT: usize = 32;
/// Cap on the request head (request line + headers) we will buffer.
const MAX_REQUEST_HEAD: usize = 8 * 1024;
/// How long one connection may dawdle before we give up on it.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// The embedded scrape server. Bind it first (port 0 picks a free
/// loopback port), hand its [`TelemetryHub`] to the publisher, then
/// scrape `local_addr()` from any HTTP client.
///
/// # Examples
///
/// ```
/// use vsmooth_obs::{http_get, ObsServer};
///
/// let server = ObsServer::bind("127.0.0.1:0").expect("bind loopback");
/// let addr = server.local_addr();
/// // Nothing published yet: /readyz says 503, /metrics still serves.
/// assert_eq!(http_get(addr, "/readyz").unwrap().status, 503);
/// assert_eq!(http_get(addr, "/metrics").unwrap().status, 200);
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct ObsServer {
    hub: Arc<TelemetryHub>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds a fresh hub and starts the accept loop. Use
    /// `"127.0.0.1:0"` for an ephemeral loopback port.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let hub = Arc::new(TelemetryHub::new());
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let hub = Arc::clone(&hub);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("vsmooth-obs".into())
                .spawn(move || serve_loop(listener, &hub, &stop))?
        };
        Ok(Self {
            hub,
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hub this server renders; hand a clone to the publisher.
    pub fn hub(&self) -> Arc<TelemetryHub> {
        Arc::clone(&self.hub)
    }

    /// Stops the accept loop and joins the server thread. Also runs
    /// on drop; calling it explicitly just surfaces the join point.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Unblock the accept() call with one throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One parsed HTTP response from [`http_get`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 404, 503, …).
    pub status: u16,
    /// The `Content-Type` header value, if present.
    pub content_type: Option<String>,
    /// Response body.
    pub body: String,
}

/// A tiny std-`TcpStream` HTTP GET client — the probe used by the
/// integration tests, `obs_demo`, `ci.sh`, and the bench (no curl in
/// the container).
pub fn http_get<A: ToSocketAddrs>(addr: A, path: &str) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: vsmooth\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

/// Sends raw bytes and returns the status code of whatever comes
/// back — for probing how the server treats malformed requests.
pub fn http_send_raw<A: ToSocketAddrs>(addr: A, request: &[u8]) -> std::io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(request)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw)
        .map(|r| r.status)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

fn parse_response(raw: &str) -> Option<HttpResponse> {
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let mut lines = head.lines();
    let status_line = lines.next()?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    let status: u16 = parts.next()?.parse().ok()?;
    let content_type = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-type"))
        .map(|(_, v)| v.trim().to_string());
    Some(HttpResponse {
        status,
        content_type,
        body: body.to_string(),
    })
}

fn serve_loop(listener: TcpListener, hub: &TelemetryHub, stop: &AtomicBool) {
    // Self-observation lives in its own registry so it never touches
    // the published (determinism-checked) snapshot; it is appended to
    // the /metrics exposition after the snapshot's series.
    let mut metrics = MetricsRegistry::new();
    metrics.describe(
        "obs_scrapes_total",
        "HTTP requests served by the obs endpoint, per path and status.",
    );
    metrics.describe(
        "obs_scrape_latency_us",
        "Wall time to parse, route and answer one scrape, microseconds.",
    );
    metrics.describe(
        "obs_snapshot_staleness_ms",
        "Milliseconds since the coordinator last published a snapshot.",
    );
    metrics.describe(
        "obs_snapshot_publishes",
        "Snapshots published into the telemetry hub so far.",
    );
    metrics.declare_buckets(
        "obs_scrape_latency_us",
        &[
            10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0,
        ],
    );
    let mut cache = MetricsCache::default();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let started = Instant::now();
        let (endpoint, status) = handle_connection(stream, hub, &mut metrics, &mut cache);
        metrics.counter_with(
            "obs_scrapes_total",
            &[("endpoint", endpoint), ("status", status)],
            1,
        );
        metrics.observe(
            "obs_scrape_latency_us",
            started.elapsed().as_micros() as f64,
        );
    }
}

/// Memoizes the Prometheus render of the published snapshot, keyed by
/// snapshot identity: its metrics, and the shard-runtime gauges of its
/// live `shards` section (empty without one). Snapshots are immutable,
/// so between publishes every `/metrics` scrape can reuse one render
/// instead of re-walking the whole series set — what keeps
/// scrape-under-load overhead flat when clients poll faster than the
/// coordinator publishes.
#[derive(Default)]
struct MetricsCache {
    entry: Option<(Arc<ObsSnapshot>, String, String)>,
}

impl MetricsCache {
    /// The snapshot's metrics and shard gauges, rendered.
    fn render(&mut self, snap: &Arc<ObsSnapshot>) -> (&str, &str) {
        let hit = matches!(&self.entry, Some((key, ..)) if Arc::ptr_eq(key, snap));
        if !hit {
            let shards = snap.shards.as_ref().map(render_shard_gauges);
            self.entry = Some((
                Arc::clone(snap),
                snap.metrics.render_prometheus(),
                shards.unwrap_or_default(),
            ));
        }
        let (_, metrics, shards) = self.entry.as_ref().expect("entry just filled");
        (metrics, shards)
    }
}

/// Reads, routes and answers one connection; returns the
/// `(endpoint, status)` labels for the scrape counter.
fn handle_connection(
    mut stream: TcpStream,
    hub: &TelemetryHub,
    metrics: &mut MetricsRegistry,
    cache: &mut MetricsCache,
) -> (&'static str, &'static str) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let head = match read_request_head(&mut stream) {
        Some(head) => head,
        None => {
            let _ = write_response(&mut stream, 400, "text/plain", "malformed request\n");
            return ("invalid", "400");
        }
    };
    let (endpoint, status, content_type, body) = route(&head, hub, metrics, cache);
    let _ = write_response(&mut stream, status, content_type, &body);
    (endpoint, status_text(status).0)
}

/// Buffers the request head (through the blank line). `None` on
/// timeout, oversized head, connection reset, or non-UTF-8 bytes —
/// all answered with 400 by the caller.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if buf.len() > MAX_REQUEST_HEAD {
            return None;
        }
    }
    String::from_utf8(buf).ok()
}

/// Parses the request line out of `head`: `(method, path)`, or
/// `None` when it is not `METHOD SP PATH SP HTTP/1.x`.
fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split(' ');
    let method = parts.next()?;
    let path = parts.next()?;
    let version = parts.next()?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") || !path.starts_with('/') {
        return None;
    }
    Some((method, path))
}

type Routed = (&'static str, u16, &'static str, String);

fn route(
    head: &str,
    hub: &TelemetryHub,
    metrics: &mut MetricsRegistry,
    cache: &mut MetricsCache,
) -> Routed {
    let (method, target) = match parse_request_line(head) {
        Some(parts) => parts,
        None => {
            return ("invalid", 400, "text/plain", "malformed request\n".into());
        }
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let endpoint = match path {
        "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        "/status" => "/status",
        "/trace/recent" => "/trace/recent",
        "/profile" => "/profile",
        "/shards" => "/shards",
        "/decisions" => "/decisions",
        _ => {
            return ("unknown", 404, "text/plain", "not found\n".into());
        }
    };
    if method != "GET" {
        return (endpoint, 405, "text/plain", "method not allowed\n".into());
    }
    let snap = hub.latest();
    match endpoint {
        "/metrics" => {
            if let Some(ms) = hub.staleness_ms() {
                metrics.gauge_set("obs_snapshot_staleness_ms", ms as f64);
            }
            metrics.gauge_set("obs_snapshot_publishes", hub.publishes() as f64);
            // The big half of the body (the published snapshot and its
            // shard gauges) comes from the per-snapshot cache; only the
            // small self-metrics registry is re-rendered per scrape
            // (its counters move with every request).
            let (rendered, shards) = cache.render(&snap);
            let mut body = String::with_capacity(rendered.len() + shards.len() + 1_024);
            body.push_str(rendered);
            body.push_str(&metrics.snapshot().render_prometheus());
            body.push_str(shards);
            (endpoint, 200, "text/plain; version=0.0.4", body)
        }
        "/healthz" => match &snap.health {
            Some(health) if !health.healthy() => (endpoint, 503, "text/plain", health.render()),
            Some(health) => (endpoint, 200, "text/plain", health.render()),
            None => (
                endpoint,
                200,
                "text/plain",
                "OK (no monitor attached)\n".into(),
            ),
        },
        "/readyz" => {
            if hub.ready() {
                (endpoint, 200, "text/plain", "ready\n".into())
            } else {
                (
                    endpoint,
                    503,
                    "text/plain",
                    "no snapshot published yet\n".into(),
                )
            }
        }
        "/status" => (endpoint, 200, "application/json", status_json(hub, &snap)),
        "/trace/recent" | "/decisions" => {
            let Ok(n) = query_recent_n(query) else {
                return (
                    endpoint,
                    400,
                    "text/plain",
                    "bad query: want n=<count>\n".into(),
                );
            };
            let body = if endpoint == "/decisions" {
                let push = DecisionEvent::push_json;
                ring_json(OBS_DECISIONS_SCHEMA, "events", &snap.decisions, n, push)
            } else {
                let push = |d: &Arc<DroopEvent>, out: &mut String| d.push_json(out);
                ring_json(OBS_TRACE_SCHEMA, "droops", &snap.recent_droops, n, push)
            };
            (endpoint, 200, "application/json", body)
        }
        "/profile" => match &snap.profile_json {
            Some(json) => (endpoint, 200, "application/json", json.as_ref().clone()),
            None => (endpoint, 404, "text/plain", "no profile published\n".into()),
        },
        "/shards" => match &snap.shards {
            Some(shards) => (endpoint, 200, "application/json", shards_json(shards)),
            None => (
                endpoint,
                404,
                "text/plain",
                "no shard runtime published\n".into(),
            ),
        },
        _ => unreachable!("endpoint matched above"),
    }
}

/// Parses `n=<count>` out of the query string (`DEFAULT_RECENT` when
/// absent); `Err` on anything else.
fn query_recent_n(query: Option<&str>) -> Result<usize, ()> {
    let query = match query {
        None | Some("") => return Ok(DEFAULT_RECENT),
        Some(q) => q,
    };
    let mut n = None;
    for pair in query.split('&') {
        match pair.split_once('=') {
            Some(("n", value)) => n = Some(value.parse().map_err(|_| ())?),
            _ => return Err(()),
        }
    }
    n.map(Ok).unwrap_or(Ok(DEFAULT_RECENT))
}

fn status_json(hub: &TelemetryHub, snap: &ObsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "{{\n  \"schema\": \"{OBS_STATUS_SCHEMA}\",\n  \"build\": {{\"package\": \"{}\", \"version\": \"{}\"}},\n",
        env!("CARGO_PKG_NAME"),
        env!("CARGO_PKG_VERSION"),
    ));
    out.push_str(&format!("  \"uptime_ms\": {},\n", hub.uptime_ms()));
    out.push_str(&format!("  \"publishes\": {},\n", hub.publishes()));
    match hub.staleness_ms() {
        Some(ms) => out.push_str(&format!("  \"staleness_ms\": {ms},\n")),
        None => out.push_str("  \"staleness_ms\": null,\n"),
    }
    match &snap.service {
        Some(s) => {
            out.push_str("  \"service\": {\n");
            out.push_str(&format!("    \"epoch\": {},\n", s.epoch));
            out.push_str(&format!("    \"virtual_cycles\": {},\n", s.virtual_cycles));
            out.push_str(&format!("    \"queue_depth\": {},\n", s.queue_depth));
            out.push_str(&format!("    \"running_jobs\": {},\n", s.running_jobs));
            out.push_str(&format!("    \"jobs_submitted\": {},\n", s.jobs_submitted));
            out.push_str(&format!("    \"jobs_admitted\": {},\n", s.jobs_admitted));
            out.push_str(&format!("    \"jobs_completed\": {},\n", s.jobs_completed));
            out.push_str(&format!("    \"droops\": {},\n", s.droops));
            out.push_str(&format!("    \"done\": {}\n  }},\n", s.done));
        }
        None => out.push_str("  \"service\": null,\n"),
    }
    match &snap.health {
        Some(h) => {
            out.push_str("  \"health\": {\n");
            out.push_str(&format!("    \"verdict\": \"{}\",\n", h.verdict()));
            out.push_str(&format!("    \"epochs\": {},\n", h.epochs));
            out.push_str(&format!("    \"alerts_fired\": {},\n", h.alerts_fired));
            out.push_str(&format!(
                "    \"alerts_resolved\": {},\n",
                h.alerts_resolved
            ));
            out.push_str(&format!("    \"pages_firing\": {},\n", h.pages_firing()));
            out.push_str("    \"firing\": [");
            for (i, (rule, severity)) in h.firing.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"rule\": \"{}\", \"severity\": \"{}\"}}",
                    escape(rule),
                    severity.label()
                ));
            }
            out.push_str("],\n");
            out.push_str(&format!(
                "    \"droop_rate_per_kilocycle\": {}\n  }}\n",
                json_f64(h.last.droop_rate_per_kilocycle)
            ));
        }
        None => out.push_str("  \"health\": null\n"),
    }
    out.push_str("}\n");
    out
}

/// Renders a snapshot's live shard section as introspection gauges,
/// with their HELP lines. They come from the section alone — never the
/// run's registry, since steal splits, queue high-water marks and
/// wall-clock latency are execution facts, not schedule facts — so a
/// snapshot without a section, or with fewer shards, serves none of an
/// earlier snapshot's series.
fn render_shard_gauges(shards: &ShardsStatus) -> String {
    let mut metrics = MetricsRegistry::new();
    metrics.describe(
        "serve_shard_slices",
        "Slices executed per shard, split by claim origin (kind=owned|stolen).",
    );
    metrics.describe(
        "serve_shard_lane_occupancy_hwm",
        "High-water mark of each shard's event-lane occupancy, in pending slice records.",
    );
    metrics.describe(
        "serve_cell_queue_hwm",
        "High-water mark of each chip cell's command-queue depth.",
    );
    metrics.describe(
        "serve_ownership_churn",
        "Times a chip's slice ran on a different shard than its previous slice.",
    );
    metrics.describe(
        "serve_grants",
        "Quantum grants issued by the scheduler decision loop.",
    );
    metrics.describe(
        "serve_merge_lag_epochs",
        "Epochs the decision loop is ahead of the merge layer.",
    );
    metrics.describe(
        "serve_decision_latency_us",
        "Decision-loop wall latency summary, microseconds (stat=mean|max).",
    );
    for s in &shards.shards {
        let shard = s.shard.to_string();
        let shard = shard.as_str();
        metrics.gauge_with(
            "serve_shard_slices",
            &[("shard", shard), ("kind", "owned")],
            s.slices_owned as f64,
        );
        metrics.gauge_with(
            "serve_shard_slices",
            &[("shard", shard), ("kind", "stolen")],
            s.slices_stolen as f64,
        );
        metrics.gauge_with(
            "serve_shard_lane_occupancy_hwm",
            &[("shard", shard)],
            s.lane_occupancy_hwm as f64,
        );
    }
    for (chip, hwm) in shards.cell_queue_hwm.iter().enumerate() {
        let chip = chip.to_string();
        metrics.gauge_with(
            "serve_cell_queue_hwm",
            &[("chip", chip.as_str())],
            *hwm as f64,
        );
    }
    metrics.gauge_set("serve_ownership_churn", shards.ownership_churn as f64);
    metrics.gauge_set("serve_grants", shards.grants as f64);
    metrics.gauge_set("serve_merge_lag_epochs", shards.merge_lag_epochs as f64);
    metrics.gauge_with(
        "serve_decision_latency_us",
        &[("stat", "mean")],
        shards.decision_latency.mean_us(),
    );
    metrics.gauge_with(
        "serve_decision_latency_us",
        &[("stat", "max")],
        shards.decision_latency.max_us as f64,
    );
    metrics.snapshot().render_prometheus()
}

fn shards_json(shards: &ShardsStatus) -> String {
    let mut out = String::with_capacity(512 + shards.shards.len() * 96);
    out.push_str(&format!("{{\n  \"schema\": \"{OBS_SHARDS_SCHEMA}\",\n"));
    out.push_str(&format!("  \"grants\": {},\n", shards.grants));
    out.push_str(&format!(
        "  \"epochs_decided\": {},\n",
        shards.epochs_decided
    ));
    out.push_str(&format!(
        "  \"merge_lag_epochs\": {},\n",
        shards.merge_lag_epochs
    ));
    out.push_str(&format!(
        "  \"ownership_churn\": {},\n",
        shards.ownership_churn
    ));
    out.push_str(&format!(
        "  \"decision_latency\": {{\"count\": {}, \"mean_us\": {}, \"max_us\": {}}},\n",
        shards.decision_latency.count,
        json_f64(shards.decision_latency.mean_us()),
        shards.decision_latency.max_us
    ));
    let hwm: Vec<String> = shards.cell_queue_hwm.iter().map(u64::to_string).collect();
    out.push_str(&format!("  \"cell_queue_hwm\": [{}],\n", hwm.join(", ")));
    out.push_str("  \"shards\": [\n");
    for (i, s) in shards.shards.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shard\": {}, \"slices_owned\": {}, \"slices_stolen\": {}, \
             \"lane_occupancy_hwm\": {}}}{}\n",
            s.shard,
            s.slices_owned,
            s.slices_stolen,
            s.lane_occupancy_hwm,
            if i + 1 < shards.shards.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the newest `n` entries of `ring` (oldest first) as a
/// `{schema, available, returned, <key>: [...]}` document, each entry
/// written by `push`.
fn ring_json<T>(
    schema: &str,
    key: &str,
    ring: &[T],
    n: usize,
    push: impl Fn(&T, &mut String),
) -> String {
    let available = ring.len();
    let recent = &ring[available.saturating_sub(n)..];
    let mut out = String::with_capacity(256 + recent.len() * 128);
    out.push_str(&format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"available\": {available},\n  \"returned\": {},\n  \"{key}\": [\n",
        recent.len()
    ));
    for (i, entry) in recent.iter().enumerate() {
        out.push_str("    ");
        push(entry, &mut out);
        out.push_str(if i + 1 < recent.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Every status the server answers with: code, scrape-counter label
/// and reason phrase.
const STATUSES: [(u16, &str, &str); 5] = [
    (200, "200", "OK"),
    (400, "400", "Bad Request"),
    (404, "404", "Not Found"),
    (405, "405", "Method Not Allowed"),
    (503, "503", "Service Unavailable"),
];

/// The scrape-counter label and reason phrase of `status`.
fn status_text(status: u16) -> (&'static str, &'static str) {
    STATUSES
        .iter()
        .find(|(code, ..)| *code == status)
        .map_or(("other", "Unknown"), |&(_, label, reason)| (label, reason))
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(status).1,
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::{LatencyStats, ServiceStatus, ShardStatus};
    use vsmooth_monitor::{HealthStatus, Severity, WindowSnapshot};
    use vsmooth_trace::{parse_json, DecisionEvent, DecisionKind, DroopEvent};

    fn sample_snapshot() -> ObsSnapshot {
        let mut metrics = MetricsRegistry::new();
        metrics.counter_add("serve_jobs_completed_total", 7);
        metrics.gauge_set("chip_utilization", 0.75);
        let mut snap = ObsSnapshot {
            metrics: metrics.snapshot(),
            ..ObsSnapshot::default()
        };
        snap.service = Some(ServiceStatus {
            epoch: 12,
            virtual_cycles: 7_200,
            queue_depth: 3,
            running_jobs: 2,
            jobs_submitted: 16,
            jobs_admitted: 9,
            jobs_completed: 7,
            droops: 41,
            done: false,
        });
        snap.shards = Some(ShardsStatus {
            shards: vec![
                ShardStatus {
                    shard: 0,
                    slices_owned: 10,
                    slices_stolen: 2,
                    lane_occupancy_hwm: 3,
                    stream_dropped: 0,
                },
                ShardStatus {
                    shard: 1,
                    slices_owned: 12,
                    slices_stolen: 0,
                    lane_occupancy_hwm: 2,
                    stream_dropped: 0,
                },
            ],
            cell_queue_hwm: vec![2, 2, 1],
            ownership_churn: 4,
            grants: 24,
            epochs_decided: 12,
            merge_lag_epochs: 1,
            decision_latency: LatencyStats {
                count: 12,
                total_us: 600,
                max_us: 90,
            },
        });
        snap.decisions = (0..4)
            .map(|i| DecisionEvent {
                epoch: i,
                cycle: i * 600,
                kind: if i % 2 == 0 {
                    DecisionKind::Admit
                } else {
                    DecisionKind::Grant
                },
                job: Some(i),
                chip: Some(0),
                core: None,
                reason: if i % 2 == 0 { "arrival" } else { "quantum" },
            })
            .collect();
        snap.recent_droops = (0..5)
            .map(|i| {
                Arc::new(DroopEvent {
                    chip: 0,
                    core: 0,
                    cycle: 600 * (i as u64 + 1),
                    depth_pct: 3.5,
                    workloads: ["482.sphinx3".into()].into(),
                    label: "482.sphinx3".into(),
                    phase: format!("epoch{i}").into(),
                })
            })
            .collect();
        snap
    }

    #[test]
    fn endpoints_serve_parseable_payloads() {
        let server = ObsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        server.hub().publish(sample_snapshot());

        let metrics = http_get(addr, "/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.contains("serve_jobs_completed_total 7"));
        // The live shard section rides along as introspection gauges,
        // each with HELP metadata.
        assert!(metrics.body.contains("# HELP serve_shard_slices"));
        assert!(metrics.body.contains("serve_shard_slices{"));
        assert!(metrics.body.contains("# HELP serve_merge_lag_epochs"));
        assert!(metrics.body.contains("serve_merge_lag_epochs 1"));
        assert!(metrics.body.contains("# HELP serve_decision_latency_us"));
        assert!(metrics
            .content_type
            .as_deref()
            .unwrap()
            .starts_with("text/plain"));

        let status = http_get(addr, "/status").unwrap();
        assert_eq!(status.status, 200);
        let doc = parse_json(&status.body).expect("status JSON parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(OBS_STATUS_SCHEMA)
        );
        let service = doc.get("service").unwrap();
        assert_eq!(service.get("epoch").and_then(|v| v.as_f64()), Some(12.0));
        // The service is the only publisher: no fleet section.
        assert!(doc.get("fleet").is_none());

        let shards = http_get(addr, "/shards").unwrap();
        assert_eq!(shards.status, 200);
        let doc = parse_json(&shards.body).expect("shards JSON parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(OBS_SHARDS_SCHEMA)
        );
        let per_shard = doc.get("shards").and_then(|v| v.as_array()).unwrap();
        assert_eq!(per_shard.len(), 2);
        assert_eq!(
            per_shard[0].get("slices_owned").and_then(|v| v.as_f64()),
            Some(10.0)
        );
        assert_eq!(doc.get("grants").and_then(|v| v.as_f64()), Some(24.0));
        let latency = doc.get("decision_latency").unwrap();
        assert_eq!(latency.get("mean_us").and_then(|v| v.as_f64()), Some(50.0));

        let decisions = http_get(addr, "/decisions?n=2").unwrap();
        assert_eq!(decisions.status, 200);
        let doc = parse_json(&decisions.body).expect("decisions JSON parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(OBS_DECISIONS_SCHEMA)
        );
        assert_eq!(doc.get("available").and_then(|v| v.as_f64()), Some(4.0));
        let events = doc.get("events").and_then(|v| v.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        // Tail of the ring: the newest decisions.
        assert_eq!(events[1].get("epoch").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(
            events[1].get("kind").and_then(|v| v.as_str()),
            Some("grant")
        );

        let trace = http_get(addr, "/trace/recent?n=3").unwrap();
        assert_eq!(trace.status, 200);
        let doc = parse_json(&trace.body).expect("trace JSON parses");
        assert_eq!(doc.get("available").and_then(|v| v.as_f64()), Some(5.0));
        let droops = doc.get("droops").and_then(|v| v.as_array()).unwrap();
        assert_eq!(droops.len(), 3);
        // Tail of the ring: the newest records.
        assert_eq!(
            droops[2].get("cycle").and_then(|v| v.as_f64()),
            Some(3_000.0)
        );

        assert_eq!(http_get(addr, "/readyz").unwrap().status, 200);
        // No profile in this snapshot.
        assert_eq!(http_get(addr, "/profile").unwrap().status, 404);
        server.shutdown();
    }

    #[test]
    fn shard_gauges_follow_the_published_snapshot() {
        let server = ObsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let with_shards = |n: usize| {
            let mut snap = sample_snapshot();
            let section = snap.shards.as_mut().unwrap();
            section.shards = (0..n)
                .map(|shard| ShardStatus {
                    shard,
                    slices_owned: 5,
                    slices_stolen: 1,
                    lane_occupancy_hwm: 2,
                    stream_dropped: 0,
                })
                .collect();
            snap
        };
        let metrics = || http_get(addr, "/metrics").unwrap().body;

        server.hub().publish(with_shards(4));
        let body = metrics();
        assert!(body.contains("serve_shard_slices{kind=\"owned\",shard=\"3\"} 5"));
        assert!(body.contains("# HELP serve_shard_lane_occupancy_hwm"));

        // A run with no shard runtime (a coordinator run) leaves no
        // shard series behind.
        server.hub().publish(ObsSnapshot {
            metrics: sample_snapshot().metrics,
            ..ObsSnapshot::default()
        });
        let body = metrics();
        assert!(body.contains("serve_jobs_completed_total 7"));
        assert!(!body.contains("serve_shard"), "{body}");
        assert!(!body.contains("serve_cell_queue_hwm"), "{body}");
        assert!(!body.contains("serve_merge_lag_epochs"), "{body}");
        assert_eq!(http_get(addr, "/shards").unwrap().status, 404);

        server.hub().publish(with_shards(2));
        let body = metrics();
        assert!(body.contains("serve_shard_slices{kind=\"stolen\",shard=\"1\"} 1"));
        assert!(!body.contains("shard=\"2\""), "{body}");
        assert!(!body.contains("shard=\"3\""), "{body}");
        server.shutdown();
    }

    #[test]
    fn healthz_maps_paging_alerts_to_503() {
        let server = ObsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        // Unmonitored snapshot: healthz is 200.
        server.hub().publish(ObsSnapshot::default());
        assert_eq!(http_get(addr, "/healthz").unwrap().status, 200);

        let healthy = HealthStatus {
            epochs: 4,
            alerts_fired: 1,
            alerts_resolved: 1,
            firing: vec![],
            last: WindowSnapshot::default(),
        };
        server.hub().publish(ObsSnapshot {
            health: Some(healthy.clone()),
            ..ObsSnapshot::default()
        });
        let resp = http_get(addr, "/healthz").unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body.starts_with("OK"));

        // A firing warning still answers 200; a critical pages.
        server.hub().publish(ObsSnapshot {
            health: Some(HealthStatus {
                firing: vec![("droop_rate_anomaly".into(), Severity::Warning)],
                ..healthy.clone()
            }),
            ..ObsSnapshot::default()
        });
        assert_eq!(http_get(addr, "/healthz").unwrap().status, 200);

        server.hub().publish(ObsSnapshot {
            health: Some(HealthStatus {
                firing: vec![("recovery_budget_burn".into(), Severity::Critical)],
                ..healthy
            }),
            ..ObsSnapshot::default()
        });
        let resp = http_get(addr, "/healthz").unwrap();
        assert_eq!(resp.status, 503);
        assert!(resp.body.starts_with("FIRING"));
        server.shutdown();
    }

    #[test]
    fn malformed_and_unknown_requests_do_not_kill_the_server() {
        let server = ObsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        server.hub().publish(ObsSnapshot::default());

        assert_eq!(http_send_raw(addr, b"garbage\r\n\r\n").unwrap(), 400);
        assert_eq!(
            http_send_raw(addr, b"GET /metrics SPURIOUS HTTP/1.1\r\n\r\n").unwrap(),
            400
        );
        assert_eq!(
            http_send_raw(addr, b"GET relative-path HTTP/1.1\r\n\r\n").unwrap(),
            400
        );
        assert_eq!(http_get(addr, "/nope").unwrap().status, 404);
        assert_eq!(http_get(addr, "/trace/recent?n=many").unwrap().status, 400);
        // No shard runtime in the default snapshot; bad /decisions query.
        assert_eq!(http_get(addr, "/shards").unwrap().status, 404);
        assert_eq!(http_get(addr, "/decisions?n=many").unwrap().status, 400);
        assert_eq!(
            http_send_raw(addr, b"POST /metrics HTTP/1.1\r\n\r\n").unwrap(),
            405
        );

        // The accept loop survived all of that and self-observed it.
        let resp = http_get(addr, "/metrics").unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp
            .body
            .contains("obs_scrapes_total{endpoint=\"invalid\",status=\"400\"}"));
        assert!(resp
            .body
            .contains("obs_scrapes_total{endpoint=\"unknown\",status=\"404\"}"));
        assert!(resp.body.contains("# HELP obs_scrapes_total"));
        server.shutdown();
    }

    #[test]
    fn trace_recent_defaults_and_bounds() {
        let server = ObsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        server.hub().publish(sample_snapshot());
        // Default n returns everything available (5 < 32).
        let doc = parse_json(&http_get(addr, "/trace/recent").unwrap().body).unwrap();
        assert_eq!(doc.get("returned").and_then(|v| v.as_f64()), Some(5.0));
        // n larger than available clamps.
        let doc = parse_json(&http_get(addr, "/trace/recent?n=99").unwrap().body).unwrap();
        assert_eq!(doc.get("returned").and_then(|v| v.as_f64()), Some(5.0));
        // n=0 returns an empty, still-valid document.
        let doc = parse_json(&http_get(addr, "/trace/recent?n=0").unwrap().body).unwrap();
        assert_eq!(doc.get("returned").and_then(|v| v.as_f64()), Some(0.0));
        server.shutdown();
    }

    #[test]
    fn profile_round_trips_verbatim() {
        let server = ObsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let profile = "{\"schema\": \"vsmooth-profile-v1\"}\n".to_string();
        server.hub().publish(ObsSnapshot {
            profile_json: Some(Arc::new(profile.clone())),
            ..ObsSnapshot::default()
        });
        let resp = http_get(addr, "/profile").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, profile);
        assert_eq!(resp.content_type.as_deref(), Some("application/json"));
        server.shutdown();
    }
}
