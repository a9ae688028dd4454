//! Shared pieces of the two service workloads: seeded matrices, in-process
//! daemons, warm-up, STATS/METRICS deltas and the hit-path layer timings.

use crate::checks::{check_ordering, Tally};
use crate::stats;
use se_order::{order, Algorithm};
use se_service::cache::{pattern_key, OrderingMeta, ShardedOrderingCache};
use se_service::json::Json;
use se_service::proto::{
    decode_request, decode_response, encode_request, encode_response_framed, MatrixFormat,
    MatrixSource, OrderRequest, OrderResponse, PermPayload, Request, Response,
};
use se_service::{serve, Client, Config, FrameMode, ServerHandle};
use sparsemat::envelope::EnvelopeStats;
use sparsemat::io::{read_chaco_str, write_chaco_string};
use sparsemat::SymmetricPattern;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Socket timeout for every benchmark connection: far above any expected
/// latency, so it only turns a hang into a counted failure.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// `count` sizes spaced evenly on a log scale from `lo` to `hi`.
pub fn log_ladder(count: usize, lo: f64, hi: f64) -> Vec<usize> {
    (0..count)
        .map(|i| {
            let t = i as f64 / (count - 1).max(1) as f64;
            (lo * (hi / lo).powf(t)).round() as usize
        })
        .collect()
}

/// A seeded matrix of about `n` vertices: a 2-D grid of the given aspect
/// ratio with seed-scrambled labels, or (with `aspect` `None`) a random
/// geometric graph on seeded points. Its mean degree of about twelve keeps
/// it above the connectivity threshold (ln n ≤ 9.4 here), like a mesh.
pub fn matrix(n: usize, aspect: Option<f64>, seed: u64) -> SymmetricPattern {
    match aspect {
        Some(aspect) => {
            let w = ((n as f64 * aspect).sqrt().round() as usize).max(2);
            let h = (n / w).max(2);
            meshgen::grid2d(w, h)
                .permute(&meshgen::random::scramble(w * h, seed))
                .expect("a scramble of the grid's own size")
        }
        None => {
            let radius = (12.0 / (std::f64::consts::PI * n as f64)).sqrt();
            meshgen::random_geometric(n, radius, seed)
        }
    }
}

/// The aspect ratio of the `i`-th grid of a working set: fixed per slot,
/// between 1 and 4, so the seed moves labels and points but not shapes.
pub fn grid_aspect(i: usize) -> f64 {
    1.0 + 3.0 * (i as f64 * 0.618_033_988_75).fract()
}

/// What the warm-up returned for an entry; every later hit must match it.
pub struct Expected {
    pub order: Vec<usize>,
    pub stats: EnvelopeStats,
    pub degraded: bool,
}

/// One matrix of a working set with its request in wire form.
pub struct Entry {
    pub g: SymmetricPattern,
    pub alg: Algorithm,
    pub req: Request,
    /// The exact request line sent (no id, no newline).
    pub line: String,
    pub gps_envelope: u64,
    pub expected: Option<Expected>,
}

impl Entry {
    pub fn new(g: SymmetricPattern, alg: Algorithm) -> Entry {
        let req = Request::Order(OrderRequest {
            alg,
            source: MatrixSource::Inline {
                format: MatrixFormat::Chaco,
                payload: write_chaco_string(&g),
            },
            timeout_ms: None,
            include_perm: true,
            threads: None,
            compressed: false,
            trace: false,
            id: None,
            progress: false,
            hop: false,
        });
        let line = encode_request(&req);
        let gps_envelope = order(&g, Algorithm::Gps)
            .expect("GPS is combinatorial and cannot fail")
            .stats
            .envelope_size;
        Entry {
            g,
            alg,
            req,
            line,
            gps_envelope,
            expected: None,
        }
    }

    /// The request line tagged with a protocol-v2 id. The encoder writes
    /// `id` as the last member, so splicing it before the closing brace
    /// gives the same bytes as encoding the request with the id set.
    pub fn line_with_id(&self, id: u64) -> String {
        let body = self
            .line
            .strip_suffix('}')
            .expect("request is a JSON object");
        format!("{body},\"id\":{id}}}")
    }

    pub fn payload(&self) -> &str {
        match &self.req {
            Request::Order(OrderRequest {
                source: MatrixSource::Inline { payload, .. },
                ..
            }) => payload,
            _ => unreachable!("entries are inline ORDER requests"),
        }
    }

    /// Checks the response to the first request for this matrix (a miss)
    /// and returns what later hits must repeat.
    pub fn check_fresh(&self, resp: &OrderResponse) -> Result<Expected, String> {
        if resp.cache_hit {
            return Err(format!(
                "n = {}: a fresh key was answered as a hit",
                self.g.n()
            ));
        }
        let order = resp.perm.as_ref().map_or(&[][..], PermPayload::order);
        check_ordering(&self.g, order, &resp.stats)
            .map_err(|e| format!("n = {}: {e}", self.g.n()))?;
        Ok(Expected {
            order: order.to_vec(),
            stats: resp.stats,
            degraded: resp.degraded.is_some(),
        })
    }

    /// Checks a hit against the warm-up response: same permutation, stats
    /// and degradation marker.
    pub fn check_hit(&self, resp: &OrderResponse) -> Result<(), String> {
        let exp = self.expected.as_ref().ok_or("entry was never warmed")?;
        if !resp.cache_hit {
            return Err(format!("n = {}: a hit was answered as a miss", self.g.n()));
        }
        let order = resp.perm.as_ref().map_or(&[][..], PermPayload::order);
        if order != exp.order || resp.stats != exp.stats || resp.degraded.is_some() != exp.degraded
        {
            return Err(format!(
                "n = {}: hit differs from the warm-up response",
                self.g.n()
            ));
        }
        Ok(())
    }

    /// Envelope of the warmed ordering ÷ GPS envelope.
    pub fn gps_ratio(&self) -> Option<f64> {
        let exp = self.expected.as_ref()?;
        Some(exp.stats.envelope_size as f64 / self.gps_envelope as f64)
    }
}

/// A connection with the benchmark's socket timeout.
pub fn connect(addr: SocketAddr) -> Client {
    let c = Client::connect(addr).expect("connect to the in-process daemon");
    c.set_io_timeout(Some(IO_TIMEOUT))
        .expect("set socket timeout");
    c
}

/// Starts an in-process daemon.
pub fn daemon(cfg: Config) -> ServerHandle {
    serve(cfg).expect("start the in-process daemon")
}

/// Drains and stops a daemon, waiting for its threads.
pub fn stop(handle: ServerHandle) {
    connect(handle.local_addr())
        .shutdown()
        .expect("SHUTDOWN the in-process daemon");
    handle.join();
}

/// Times of one warm-up.
pub struct Warm {
    /// Process CPU time of each spectral miss, in entry order, in µs.
    pub spectral_cpu_us: Vec<f64>,
    /// Process CPU time of each TraceMin miss, in entry order, in µs.
    pub tracemin_cpu_us: Vec<f64>,
    /// Client-observed latency of each miss, in µs.
    pub miss_wall_us: Vec<f64>,
}

/// Orders every entry once over one connection, spectral entries first
/// and TraceMin entries second, checking each response. One request is in
/// flight at a time, so the process's CPU time across a request is that
/// request's cost.
pub fn warm(addr: SocketAddr, entries: &mut [Entry], tally: &mut Tally) -> Warm {
    let mut client = connect(addr);
    let mut miss_wall_us = Vec::new();
    let mut phase = |alg: Algorithm, tally: &mut Tally| -> Vec<f64> {
        let mut cpu_us = Vec::new();
        for e in entries.iter_mut().filter(|e| e.alg == alg) {
            let (t, c) = (Instant::now(), crate::host::cpu_s());
            let r = client.roundtrip(&e.req);
            miss_wall_us.push(t.elapsed().as_secs_f64() * 1e6);
            cpu_us.push((crate::host::cpu_s() - c) * 1e6);
            let outcome = match r {
                Ok(Response::Order(o)) => {
                    tally.degraded += u64::from(o.degraded.is_some());
                    e.check_fresh(&o).map(|exp| e.expected = Some(exp))
                }
                Ok(_) => Err("warm-up got a non-ORDER response".into()),
                Err(err) => Err(format!("warm-up: {err}")),
            };
            tally.record(outcome);
        }
        cpu_us
    };
    let spectral_cpu_us = phase(Algorithm::Spectral, tally);
    let tracemin_cpu_us = phase(Algorithm::TraceMin, tally);
    Warm {
        spectral_cpu_us,
        tracemin_cpu_us,
        miss_wall_us,
    }
}

/// A STATS + METRICS snapshot of one daemon.
pub struct Snapshot {
    stats: Json,
    metrics: String,
}

impl Snapshot {
    pub fn take(client: &mut Client) -> Snapshot {
        Snapshot {
            stats: client.stats().expect("STATS"),
            metrics: client.metrics().expect("METRICS"),
        }
    }

    /// A top-level numeric STATS field.
    pub fn stat(&self, key: &str) -> f64 {
        self.stats.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    /// Total µs the daemon's solver spent in pipeline stage `stage`.
    pub fn stage_us(&self, stage: &str) -> f64 {
        let prefix = format!("se_stage_latency_microseconds_sum{{stage=\"{stage}\"}} ");
        self.metrics
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    }
}

/// Adds the solver's stage times between two snapshots (summed over the
/// given daemons) to the per-layer metrics, in ms.
pub fn stage_deltas(run: &mut crate::Run, pairs: &[(&Snapshot, &Snapshot)]) {
    let delta = |stages: &[&str]| -> f64 {
        pairs
            .iter()
            .map(|(a, b)| {
                stages
                    .iter()
                    .map(|s| b.stage_us(s) - a.stage_us(s))
                    .sum::<f64>()
            })
            .sum::<f64>()
            / 1e3
    };
    run.metric("graph.coarsen_ms", delta(&["coarsen"]));
    run.metric("eigen.fiedler_ms", delta(&["fiedler"]));
    run.metric("eigen.coarsest_ms", delta(&["coarsest_solve"]));
    run.metric("eigen.interpolate_ms", delta(&["interpolate"]));
    run.metric("eigen.smooth_ms", delta(&["smooth"]));
    run.metric("eigen.rqi_ms", delta(&["rqi"]));
    run.metric("order.sort_ms", delta(&["sort", "envelope_eval"]));
    run.metric("sparsemat.envelope_ms", delta(&["stats"]));
    run.metric("tracemin.ms", delta(&["tracemin"]));
}

/// Median seconds of one call of `f`, repeated for at least `min_time`
/// and `min_reps` calls.
fn time_median<R>(mut f: impl FnMut() -> R) -> f64 {
    const MIN_REPS: usize = 5;
    const MIN_TIME: Duration = Duration::from_millis(3);
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < MIN_REPS || start.elapsed() < MIN_TIME {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    stats::median(&times)
}

/// Times each hit-path layer on the exact bytes the workload sends and
/// receives, and adds the per-request means (uniform over `entries`) to
/// the per-layer metrics. Returns their sum in µs, without the key hash:
/// `ShardedOrderingCache::get` hashes the pattern itself, so the lookup
/// time already holds it.
pub fn hit_layers(run: &mut crate::Run, entries: &[Entry]) -> f64 {
    let cfg = Config::default();
    let cache = ShardedOrderingCache::new(cfg.cache_budget_bytes, cfg.cache_shards);
    for e in entries {
        let exp = e
            .expected
            .as_ref()
            .expect("layers are timed on warmed entries");
        let meta = OrderingMeta {
            stats: exp.stats,
            compression_ratio: None,
            degraded: exp.degraded.then_some("not_converged"),
        };
        cache.insert(&e.g, e.alg, false, &exp.order, meta);
    }
    let (mut decode, mut parse, mut key, mut lookup, mut encode, mut client) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut bytes = 0usize;
    for e in entries {
        decode += time_median(|| decode_request(&e.line).expect("own request decodes"));
        parse += time_median(|| read_chaco_str(e.payload()).expect("own payload parses"));
        bytes += e.payload().len();
        key += time_median(|| pattern_key(&e.g, e.alg, false));
        lookup += time_median(|| cache.get(&e.g, e.alg, false));
        let hit = cache
            .get(&e.g, e.alg, false)
            .expect("inserted entry is cached");
        let resp = Response::Order(OrderResponse {
            alg: e.alg.name().to_string(),
            n: e.g.n(),
            nnz: e.g.nnz_lower_with_diagonal(),
            stats: hit.stats,
            perm: Some(PermPayload::Cached(hit.payload)),
            cache_hit: true,
            micros: 1000,
            compression_ratio: None,
            degraded: hit.degraded.map(|r| r.to_string()),
            trace: None,
        });
        encode += time_median(|| encode_response_framed(&resp, FrameMode::Ndjson));
        let (line, _) = encode_response_framed(&resp, FrameMode::Ndjson);
        client += time_median(|| decode_response(&line).expect("own response decodes"));
    }
    let k = entries.len() as f64;
    run.metric("service.proto.decode_us", decode / k * 1e6);
    run.metric("sparsemat.io.parse_us", parse / k * 1e6);
    run.metric("sparsemat.io.parse_ns_per_byte", parse * 1e9 / bytes as f64);
    run.metric("service.cache.key_us", key / k * 1e6);
    run.metric("service.cache.lookup_us", lookup / k * 1e6);
    run.metric("service.proto.encode_us", encode / k * 1e6);
    run.metric("service.client.decode_us", client / k * 1e6);
    (decode + parse + lookup + encode + client) / k * 1e6
}
