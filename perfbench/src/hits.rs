//! `hits`: one in-process daemon with the default configuration and one
//! closed-loop client connection asking uniformly for a warmed working
//! set, so every timed request is a cache hit. With one request in flight
//! at a time, the process's CPU time across a request is what that request
//! cost the client and the daemon together.
//!
//! A run makes `SETUPS` set-ups, each in a child process of its own (see
//! `child.rs`) with a working set drawn from its own sub-seed, and gives
//! each a third of the window; the figures pool the three.

use crate::checks::Tally;
use crate::service::{self, Entry, Snapshot, Warm};
use crate::Run;
use crate::{host, stats};
use se_order::Algorithm;
use se_prng::SmallRng;
use se_service::json::Json;
use se_service::proto::Response;
use se_service::{Config, ServerHandle};
use se_trace::Tracer;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const WORKING_SET: usize = 32;
const N_MIN: f64 = 100.0;
const N_MAX: f64 = 12_000.0;
/// Working-set slots requested with TraceMin instead of spectral, so both
/// solvers' entries share the cache (small and mid sizes).
const TRACEMIN_SLOTS: [usize; 3] = [3, 11, 19];

/// The seeded working set: grids and random geometric graphs alternating
/// along a fixed log-spaced size ladder, so the seed changes the matrices
/// but not the payload-size mix or the grid shapes.
fn working_set(seed: u64) -> Vec<Entry> {
    service::log_ladder(WORKING_SET, N_MIN, N_MAX)
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            let aspect = (i % 2 == 0).then(|| service::grid_aspect(i));
            let g = service::matrix(n, aspect, seed.wrapping_mul(1_000_003) ^ i as u64);
            let alg = if TRACEMIN_SLOTS.contains(&i) {
                Algorithm::TraceMin
            } else {
                Algorithm::Spectral
            };
            Entry::new(g, alg)
        })
        .collect()
}

struct Setup {
    entries: Vec<Entry>,
    handle: ServerHandle,
    warm: Warm,
}

fn setup(seed: u64, tally: &mut Tally) -> Setup {
    let mut entries = working_set(seed);
    let handle = service::daemon(Config::default());
    let warm = service::warm(handle.local_addr(), &mut entries, tally);
    Setup {
        entries,
        handle,
        warm,
    }
}

/// What a closed-loop window measured.
struct Window {
    /// The working-set slot of each request.
    slots: Vec<usize>,
    latencies_us: Vec<f64>,
    /// Process CPU time per request.
    cpu_us: Vec<f64>,
    /// Client latency minus the response's own `micros`, per request.
    rest_us: Vec<f64>,
    server_us: Vec<f64>,
}

/// One connection, one request in flight, for `seconds`. With `traced`,
/// each request is also recorded as a client-side span.
fn closed_loop(
    addr: SocketAddr,
    entries: &[Entry],
    seconds: f64,
    seed: u64,
    traced: bool,
    tally: &mut Tally,
) -> Window {
    let deadline = Duration::from_secs_f64(seconds);
    let mut client = service::connect(addr);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37);
    let tracer = if traced {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let mut w = Window {
        slots: Vec::new(),
        latencies_us: Vec::new(),
        cpu_us: Vec::new(),
        rest_us: Vec::new(),
        server_us: Vec::new(),
    };
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        let slot = rng.gen_range(0..entries.len());
        let e = &entries[slot];
        let mut span = tracer.span("client.order");
        let (t, c) = (Instant::now(), host::cpu_s());
        let r = client.roundtrip(&e.req);
        let (us, cpu_us) = (t.elapsed().as_secs_f64() * 1e6, (host::cpu_s() - c) * 1e6);
        let outcome = match r {
            Ok(Response::Order(o)) => {
                tally.degraded += u64::from(o.degraded.is_some());
                span.attr("server_us", o.micros as f64);
                w.slots.push(slot);
                w.latencies_us.push(us);
                w.cpu_us.push(cpu_us);
                w.server_us.push(o.micros as f64);
                w.rest_us.push(us - o.micros as f64);
                e.check_hit(&o)
            }
            Ok(_) => Err("a non-ORDER response".into()),
            Err(err) => Err(format!("request failed: {err}")),
        };
        drop(span);
        tally.record(outcome);
    }
    // The spans are only recorded to measure their cost.
    drop(tracer.finish());
    w
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Run {
    if trace {
        return traced_run(seed, seconds);
    }
    let mut run = Run::default();
    let args = |k: usize| -> Vec<String> {
        [
            "--child",
            "hits",
            "--seed",
            &crate::sub_seed(seed, k).to_string(),
            "--seconds",
            &(seconds / crate::SETUPS as f64).to_string(),
        ]
        .map(str::to_string)
        .to_vec()
    };
    let mut children = Vec::new();
    for k in 0..crate::SETUPS {
        match crate::child::run(&args(k)) {
            Ok(j) => {
                run.tally.merge(crate::child::tally_from(&j));
                children.push(j);
            }
            Err(e) => run.tally.record(Err(e)),
        }
    }
    if children.is_empty() {
        return run;
    }
    let nums = |j: &Json, k: &str| crate::child::nums(j.get(k));
    let pooled = |k: &str| -> Vec<f64> { children.iter().flat_map(|j| nums(j, k)).collect() };
    let one = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let (cpu_us, wall_us, slots) = (pooled("cpu_us"), pooled("wall_us"), pooled("slots"));
    let ratios = pooled("ratios");
    // Each slot's hit, as the median over every request for it; summed over
    // the spectral and the TraceMin slots, the CPU time to answer each
    // entry once from the cache.
    let slot_sum = |tracemin: bool| -> f64 {
        (0..WORKING_SET)
            .filter(|i| TRACEMIN_SLOTS.contains(i) == tracemin)
            .filter_map(|i| {
                let xs: Vec<f64> = slots
                    .iter()
                    .zip(&cpu_us)
                    .filter(|(s, _)| **s as usize == i)
                    .map(|(_, c)| *c)
                    .collect();
                (!xs.is_empty()).then(|| stats::median(&xs))
            })
            .sum::<f64>()
            * 1e-6
    };
    // The warm-ups' solves: each slot's miss as the median over the
    // set-ups, since a seed draws a slow outlier solve now and then.
    let warm_sum = |k: &str| -> f64 {
        let per_child: Vec<Vec<f64>> = children.iter().map(|j| nums(j, k)).collect();
        let len = per_child.iter().map(Vec::len).min().unwrap_or(0);
        (0..len)
            .map(|i| stats::median(&per_child.iter().map(|v| v[i]).collect::<Vec<_>>()))
            .sum::<f64>()
            * 1e-6
    };
    let setup_s: Vec<f64> = children.iter().map(|j| one(j, "setup_s")).collect();
    let misses_cpu: Vec<f64> = pooled("warm_spectral_cpu_us")
        .into_iter()
        .chain(pooled("warm_tracemin_cpu_us"))
        .collect();
    if cpu_us.len() < 2 || misses_cpu.len() < 2 || ratios.is_empty() {
        run.tally
            .fail("the children measured too little to report".into());
        return run;
    }
    let (tail_p, p99) = stats::tail(&cpu_us, 0.99, 10);
    run.note("children", children.len().to_string());
    run.note("op_samples", cpu_us.len().to_string());
    run.note("op_cpu_quartiles_us", stats::quartiles_json(&cpu_us));
    run.note("op_cpu_p99_us_percentile", tail_p.to_string());
    run.note("miss_samples", misses_cpu.len().to_string());
    run.note("miss_cpu_quartiles_us", stats::quartiles_json(&misses_cpu));
    run.note(
        "warm_sweep_cpu_s",
        warm_sum("warm_spectral_cpu_us").to_string(),
    );
    run.note(
        "warm_tracemin_cpu_s",
        warm_sum("warm_tracemin_cpu_us").to_string(),
    );
    // Wall-clock counterparts, for reading a run; they follow the host's
    // load, so they are not metrics.
    run.note("op_wall_quartiles_us", stats::quartiles_json(&wall_us));
    run.note(
        "miss_wall_quartiles_us",
        stats::quartiles_json(&pooled("miss_wall_us")),
    );
    run.metric("setup_s", stats::median(&setup_s));
    run.metric("sweep_cpu_s", slot_sum(false));
    run.metric("tracemin_cpu_s", slot_sum(true));
    run.metric("envelope_vs_gps", stats::geomean(&ratios));
    run.metric(
        "envelope_worst_vs_gps",
        ratios.iter().copied().fold(0.0, f64::max),
    );
    run.metric(
        "ops_per_cpu_s",
        cpu_us.len() as f64 / (cpu_us.iter().sum::<f64>() * 1e-6),
    );
    run.metric("op_cpu_p50_us", stats::median(&cpu_us));
    run.metric("op_cpu_p99_us", p99);
    run.metric(
        "peak_rss_mb",
        children
            .iter()
            .map(|j| one(j, "rss_mb"))
            .fold(0.0, f64::max),
    );
    run
}

/// A child's share of a `hits` run: one set-up from `seed` and a closed
/// loop of `seconds`; returns the result line.
pub fn child(seed: u64, seconds: f64) -> String {
    use crate::child::{nums_json, tally_json};
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let s = setup(seed, &mut tally);
    let setup_s = t0.elapsed().as_secs_f64();
    let w = closed_loop(
        s.handle.local_addr(),
        &s.entries,
        seconds,
        seed,
        false,
        &mut tally,
    );
    service::stop(s.handle);
    let ratios: Vec<f64> = s.entries.iter().filter_map(Entry::gps_ratio).collect();
    let slots: Vec<f64> = w.slots.iter().map(|&i| i as f64).collect();
    format!(
        "{{\"tally\":{},\"setup_s\":{setup_s:?},\"rss_mb\":{:?},\"ratios\":{},\
         \"slots\":{},\"cpu_us\":{},\"wall_us\":{},\"warm_spectral_cpu_us\":{},\
         \"warm_tracemin_cpu_us\":{},\"miss_wall_us\":{}}}",
        tally_json(&tally),
        host::peak_rss_mb(),
        nums_json(&ratios),
        nums_json(&slots),
        nums_json(&w.cpu_us),
        nums_json(&w.latencies_us),
        nums_json(&s.warm.spectral_cpu_us),
        nums_json(&s.warm.tracemin_cpu_us),
        nums_json(&s.warm.miss_wall_us),
    )
}

/// The traced run, in this process: `SETUPS` set-ups, the last one
/// traced, then a `mesh_mixed` stream.
fn traced_run(seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let mut last: Option<Setup> = None;
    for k in 0..crate::SETUPS {
        if let Some(old) = last.take() {
            service::stop(old.handle);
        }
        last = Some(setup(crate::sub_seed(seed, k), &mut run.tally));
    }
    let s = last.expect("at least one set-up");
    traced(&s, seed, seconds, &mut run);
    service::stop(s.handle);
    // The forward hop and the miss path, from a mesh_mixed stream.
    crate::mesh::probe(seed, seconds, &mut run);
    run
}

/// The traced run: an untraced and a traced window back to back, STATS and
/// METRICS deltas across the traced one, and the hit-path layers timed on
/// the working set's own bytes.
fn traced(s: &Setup, seed: u64, seconds: f64, run: &mut Run) {
    let addr = s.handle.local_addr();
    let mut admin = service::connect(addr);
    let base = closed_loop(addr, &s.entries, seconds / 2.0, seed, false, &mut run.tally);
    let before = Snapshot::take(&mut admin);
    let w = closed_loop(
        addr,
        &s.entries,
        seconds / 2.0,
        seed ^ 1,
        true,
        &mut run.tally,
    );
    let after = Snapshot::take(&mut admin);
    let d = |k: &str| after.stat(k) - before.stat(k);
    let layers_us = service::hit_layers(run, &s.entries);
    run.metric("service.engine.server_us", stats::median(&w.server_us));
    run.metric("reactor.rest_us", stats::median(&w.rest_us));
    // Each request line is one request; the STATS/METRICS asks are not
    // in the window.
    run.metric(
        "reactor.wakeups_per_req",
        d("reactor_wakeups") / d("requests"),
    );
    run.metric(
        "service.cache.hit_ratio",
        d("cache_hits") / (d("cache_hits") + d("cache_misses")),
    );
    service::stage_deltas(run, &[(&before, &after)]);
    run.metric("trace.coverage", layers_us / stats::mean(&w.latencies_us));
    run.metric(
        "trace.overhead",
        stats::median(&w.latencies_us) / stats::median(&base.latencies_us),
    );
}
