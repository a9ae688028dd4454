//! The `mesh_mixed` stream: a two-node in-process mesh (one replica,
//! default heartbeats) driven open loop over one protocol-v2 connection to
//! node A: hits on a warmed set split between the two owners, and misses on
//! fresh matrices, sent on a seeded fixed-rate schedule.
//!
//! Its hit latencies move with the hypervisor's steal time by far more than
//! any bound the benchmark may set (see `perfbench/README.md`), so it is not
//! a workload of its own: [`probe`] runs one stream inside the `hits` traced
//! run, so that the forward-hop and miss-path layers are measured.

use crate::checks::Tally;
use crate::service::{self, Entry, Snapshot};
use crate::stats;
use crate::Run;
use se_order::Algorithm;
use se_prng::SmallRng;
use se_service::cache::pattern_key;
use se_service::proto::OrderResponse;
use se_service::proto::{
    decode_response, decode_tagged_response, encode_request, Request, Response,
};
use se_service::{Config, FrameMode, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const HIT_SET: usize = 24;
const N_MIN: f64 = 100.0;
const N_MAX: f64 = 3_000.0;
/// TraceMin slots; odd slots are owned by node B, even ones by node A.
const TRACEMIN_SLOTS: [usize; 3] = [4, 11, 18];
/// Requests per second. One in five is a miss costing about 80 ms of
/// solver time, so solves occupy about a third of one core: each node's two
/// workers stay far from saturation on two cores.
const RATE: f64 = 20.0;
const MISS_SHARE: f64 = 0.2;
/// Miss matrices are random geometric graphs of 1,000 to 3,000 vertices.
const MISS_N: (f64, f64) = (1_000.0, 3_000.0);
/// How far ahead of the first due time the schedule starts.
const LEAD: Duration = Duration::from_millis(50);

#[derive(Clone, Copy)]
enum Kind {
    Hit(usize),
    Miss(usize),
}

struct Slot {
    due_s: f64,
    kind: Kind,
    /// The request line with its id and newline.
    line: String,
}

struct Setup {
    nodes: Vec<ServerHandle>,
    hits: Vec<Entry>,
    /// Whether node B owns each hit-set key (so node A forwards it).
    remote: Vec<bool>,
    misses: Vec<Entry>,
    slots: Vec<Slot>,
}

/// Starts nodes A and B as each other's peers and waits until both have
/// finished their start-up warm pull.
fn start_mesh() -> Vec<ServerHandle> {
    let reserved: Vec<std::net::TcpListener> = (0..2)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("reserve a loopback port"))
        .collect();
    let addrs: Vec<String> = reserved
        .iter()
        .map(|l| l.local_addr().expect("bound").to_string())
        .collect();
    drop(reserved);
    let nodes: Vec<ServerHandle> = (0..2)
        .map(|i| {
            service::daemon(Config {
                addr: addrs[i].clone(),
                peers: vec![addrs[1 - i].clone()],
                replicas: 1,
                ..Config::default()
            })
        })
        .collect();
    let t0 = Instant::now();
    while !nodes.iter().all(|n| n.engine().mesh_warmed()) {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "mesh never warmed up"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    nodes
}

/// The hit set: grids and random geometric graphs along a fixed size
/// ladder, with ownership alternating between A and B (a seeded matrix is
/// redrawn until its key lands on the wanted node).
fn hit_set(seed: u64, a: &ServerHandle) -> (Vec<Entry>, Vec<bool>) {
    let ring = a.engine().mesh().expect("node A is a mesh member").ring();
    let a_name = a.local_addr().to_string();
    let mut entries = Vec::new();
    let mut remote = Vec::new();
    for (i, n) in service::log_ladder(HIT_SET, N_MIN, N_MAX)
        .into_iter()
        .enumerate()
    {
        let alg = if TRACEMIN_SLOTS.contains(&i) {
            Algorithm::TraceMin
        } else {
            Algorithm::Spectral
        };
        let want_remote = i % 2 == 1;
        let aspect = ((i / 2) % 2 == 0).then(|| service::grid_aspect(i));
        let g = (0u64..)
            .map(|k| {
                service::matrix(
                    n,
                    aspect,
                    seed.wrapping_mul(7_919) ^ (i as u64) << 8 ^ k << 32,
                )
            })
            .find(|g| (ring.owner(pattern_key(g, alg, false)) != a_name) == want_remote)
            .expect("some draw lands on each node");
        entries.push(Entry::new(g, alg));
        remote.push(want_remote);
    }
    (entries, remote)
}

/// The seeded fixed-rate schedule and the fresh miss matrices it sends.
fn schedule(seed: u64, seconds: f64, hits: &[Entry]) -> (Vec<Slot>, Vec<Entry>) {
    let count = ((RATE * seconds).round() as usize).max(1);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6d65_7368);
    // Exactly MISS_SHARE of the slots are misses, at seeded positions.
    let mut is_miss: Vec<bool> = (0..count)
        .map(|i| (i as f64) < MISS_SHARE * count as f64)
        .collect();
    rng.shuffle(&mut is_miss);
    let mut misses = Vec::new();
    let mut kinds = Vec::with_capacity(count);
    // Hits are dealt from shuffled decks of the whole hit set, so every
    // entry is asked equally often and the size mix does not vary by seed.
    let mut deck: Vec<usize> = Vec::new();
    for miss in is_miss {
        if miss {
            let j = misses.len();
            // A low-discrepancy walk over the size range keeps the size mix
            // the same for every seed.
            let frac = (j as f64 * 0.618_033_988_75).fract();
            let n = (MISS_N.0 + (MISS_N.1 - MISS_N.0) * frac).round() as usize;
            let g = service::matrix(n, None, seed.wrapping_mul(104_729) ^ (j as u64 + 1) << 20);
            misses.push(Entry::new(g, Algorithm::Spectral));
            kinds.push(Kind::Miss(j));
        } else {
            if deck.is_empty() {
                deck = (0..hits.len()).collect();
                rng.shuffle(&mut deck);
            }
            kinds.push(Kind::Hit(deck.pop().expect("a refilled deck")));
        }
    }
    let slots = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let e = match kind {
                Kind::Hit(h) => &hits[h],
                Kind::Miss(m) => &misses[m],
            };
            Slot {
                due_s: i as f64 / RATE,
                kind,
                line: e.line_with_id(i as u64 + 1) + "\n",
            }
        })
        .collect();
    (slots, misses)
}

fn setup(seed: u64, seconds: f64, tally: &mut Tally) -> Setup {
    let nodes = start_mesh();
    let (mut hits, remote) = hit_set(seed, &nodes[0]);
    service::warm(nodes[0].local_addr(), &mut hits, tally);
    let (slots, misses) = schedule(seed, seconds, &hits);
    Setup {
        nodes,
        hits,
        remote,
        misses,
        slots,
    }
}

fn stop(s: Setup) {
    for node in s.nodes {
        service::stop(node);
    }
}

/// One answered slot.
struct Answer {
    latency_us: f64,
    resp: OrderResponse,
}

/// What the open-loop stream measured.
struct Stream {
    /// Per slot: the answer, an error response, or nothing (timed out).
    answers: Vec<Option<Result<Answer, String>>>,
    lateness_us: Vec<f64>,
}

/// Sends every slot at its due time from one thread while another reads
/// the id-tagged responses; latency runs from each request's due time.
fn open_loop(addr: SocketAddr, slots: &[Slot], tally: &mut Tally) -> Stream {
    let stream = TcpStream::connect(addr).expect("connect to node A");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(service::IO_TIMEOUT))
        .expect("set read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the socket"));
    let mut writer = stream;
    let hello = Request::Hello {
        frames: FrameMode::Ndjson,
        proto: 2,
    };
    writeln!(writer, "{}", encode_request(&hello)).expect("send HELLO");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read HELLO ack");
    match decode_response(line.trim_end()) {
        Ok(Response::Hello { proto: 2, .. }) => {}
        other => panic!("node A did not negotiate protocol v2: {other:?}"),
    }
    let start = Instant::now() + LEAD;
    let due = |s: &Slot| start + Duration::from_secs_f64(s.due_s);
    let (lateness_us, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late = Vec::with_capacity(slots.len());
            for s in slots {
                let at = due(s);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e6);
                if writer.write_all(s.line.as_bytes()).is_err() {
                    break;
                }
            }
            late
        });
        let receiver = scope.spawn(|| {
            let mut got: Vec<(u64, Instant, Result<OrderResponse, String>)> = Vec::new();
            let mut line = String::new();
            while got.len() < slots.len() {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let at = Instant::now();
                match decode_tagged_response(line.trim_end()) {
                    Ok((Some(id), Response::Order(o))) => got.push((id, at, Ok(o))),
                    Ok((Some(id), Response::Error(e))) => got.push((id, at, Err(e.error))),
                    Ok((_, Response::Progress(_))) => {}
                    other => {
                        let msg = format!("unexpected line: {other:?}");
                        got.push((0, at, Err(msg)));
                    }
                }
            }
            got
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let mut answers: Vec<Option<Result<Answer, String>>> = (0..slots.len()).map(|_| None).collect();
    for (id, at, r) in received {
        let slot = (id as usize).checked_sub(1).filter(|&i| i < slots.len());
        match (slot, r) {
            (Some(i), Ok(resp)) => {
                let latency_us = at.saturating_duration_since(due(&slots[i])).as_secs_f64() * 1e6;
                answers[i] = Some(Ok(Answer { latency_us, resp }));
            }
            (Some(i), Err(e)) => answers[i] = Some(Err(e)),
            (None, r) => tally.fail(format!("a response with a bad id {id}: {r:?}")),
        }
    }
    Stream {
        answers,
        lateness_us,
    }
}

/// Checks every answer against its slot; returns latencies by class.
struct Classes {
    local_hit: Vec<f64>,
    remote_hit: Vec<f64>,
    miss: Vec<f64>,
    /// `micros` of each miss response and its client latency.
    miss_server: Vec<(f64, f64)>,
    degraded: u64,
}

fn classify(s: &Setup, stream: &Stream, tally: &mut Tally) -> Classes {
    let mut c = Classes {
        local_hit: vec![],
        remote_hit: vec![],
        miss: vec![],
        miss_server: vec![],
        degraded: 0,
    };
    for (i, (slot, answer)) in s.slots.iter().zip(&stream.answers).enumerate() {
        let a = match answer {
            Some(Ok(a)) => a,
            Some(Err(e)) => {
                tally.record(Err(format!("slot {i}: error response: {e}")));
                continue;
            }
            None => {
                tally.record(Err(format!(
                    "slot {i}: no response before the socket timeout"
                )));
                continue;
            }
        };
        let outcome = match slot.kind {
            Kind::Hit(h) => {
                let r = s.hits[h].check_hit(&a.resp);
                if s.remote[h] {
                    c.remote_hit.push(a.latency_us);
                } else {
                    c.local_hit.push(a.latency_us);
                }
                r
            }
            Kind::Miss(m) => {
                let e = &s.misses[m];
                c.miss.push(a.latency_us);
                c.miss_server.push((a.resp.micros as f64, a.latency_us));
                e.check_fresh(&a.resp).map(drop)
            }
        };
        c.degraded += u64::from(a.resp.degraded.is_some());
        tally.degraded += u64::from(a.resp.degraded.is_some());
        tally.record(outcome.map_err(|e| format!("slot {i}: {e}")));
    }
    c
}

/// The stream run once with STATS/METRICS snapshots of both nodes around
/// it.
struct Observed {
    stream: Stream,
    classes: Classes,
    before: Vec<Snapshot>,
    after: Vec<Snapshot>,
}

fn observe(s: &Setup, tally: &mut Tally) -> Observed {
    let mut admins: Vec<_> = s
        .nodes
        .iter()
        .map(|n| service::connect(n.local_addr()))
        .collect();
    let before: Vec<Snapshot> = admins.iter_mut().map(Snapshot::take).collect();
    let stream = open_loop(s.nodes[0].local_addr(), &s.slots, tally);
    let after: Vec<Snapshot> = admins.iter_mut().map(Snapshot::take).collect();
    let classes = classify(s, &stream, tally);
    Observed {
        stream,
        classes,
        before,
        after,
    }
}

/// The forward hop and the miss path: the per-layer metrics only a mesh
/// stream with misses exercises.
fn mesh_layers(o: &Observed, run: &mut Run) {
    let c = &o.classes;
    let d = |node: usize, k: &str| o.after[node].stat(k) - o.before[node].stat(k);
    run.metric(
        "service.mesh.forward_us",
        stats::median(&c.remote_hit) - stats::median(&c.local_hit),
    );
    run.metric("service.mesh.forwards", d(0, "peer_forwards"));
    let miss_server: Vec<f64> = c.miss_server.iter().map(|m| m.0 / 1e3).collect();
    let queue: Vec<f64> = c.miss_server.iter().map(|m| (m.1 - m.0) / 1e3).collect();
    run.metric("service.engine.miss_server_ms", stats::median(&miss_server));
    run.metric("service.engine.queue_ms", stats::median(&queue));
    run.metric(
        "service.cache.inserts",
        d(0, "cached_orderings") + d(1, "cached_orderings"),
    );
    run.metric("service.engine.degraded", c.degraded as f64);
    run.metric(
        "loadgen.late_p99_ms",
        stats::tail(&o.stream.lateness_us, 0.99, 10).1 / 1e3,
    );
}

/// One `mesh_mixed` stream (one set-up, no client spans) inside another
/// workload's traced run, for the forward-hop and miss-path layers; its
/// requests count as operations of that run.
pub fn probe(seed: u64, seconds: f64, run: &mut Run) {
    let s = setup(crate::sub_seed(seed, 0), seconds, &mut run.tally);
    let o = observe(&s, &mut run.tally);
    mesh_layers(&o, run);
    run.note(
        "mesh_fwd_hit_p50_us",
        stats::median(&o.classes.remote_hit).to_string(),
    );
    run.note(
        "mesh_miss_p50_ms",
        (stats::median(&o.classes.miss) / 1e3).to_string(),
    );
    stop(s);
}
