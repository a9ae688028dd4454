//! Composition root of the `spectral-orderd` TCP server.
//!
//! Wires the layers together: the `se-reactor` event loop accepts sockets
//! and enforces the connection limit, [`crate::rsession`] speaks the
//! protocol per connection, and [`crate::engine`] computes orderings on a
//! bounded worker pool behind the sharded (optionally persistent) cache.
//! This module holds the configuration, its one command-line parser
//! ([`Config::from_args`], shared by `spectral-orderd` and `spectral-order
//! serve`), and the thread that ties the layers' lifetimes together.

use crate::engine::Engine;
use crate::metrics::Metrics;
use crate::rsession::{RateLimiter, Session};
use se_faults::FaultPlane;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// Default bind address of the daemon's command line.
const DEFAULT_ADDR: &str = "127.0.0.1:7654";

/// The daemon's command-line options, as printed by `--help`.
pub const SERVE_USAGE: &str = "\
options:
  --addr HOST:PORT        bind address (default 127.0.0.1:7654; port 0 = ephemeral)
  --workers N             worker threads computing orderings (default min(cores, 8))
  --queue N               bounded job-queue capacity (default 64)
  --cache-mb N            ordering-cache budget in MiB (default 32; 0 disables)
  --shards N              cache shard count (default 8)
  --cache-dir PATH        persist the cache to PATH (reloaded at startup)
  --cache-dir-budget BYTES
                          bound the spill directory; oldest files go first
  --max-conns N           connection limit; excess clients get a retriable
                          \"server busy\" error (default 1024)
  --timeout-ms N          default per-request wall-clock timeout (default 30000)
  --threads N             default solver threads per job (0 = all cores; needs
                          the `parallel` feature; results are bit-identical)
  --log-requests          print one line per completed ORDER on stderr
  --rate-limit RPS[:BURST]
                          per-client-IP token bucket; over-rate requests get a
                          fatal \"rate limited\" error (BURST defaults to 2*RPS)
  --io-timeout MS         per-connection socket read/write timeout against
                          slow-loris clients (default off)
  --reactor-threads N     event-loop threads (default 1)
  --peers HOST:PORT,...   join a consistent-hash mesh with these peers; every
                          member must list the same textual addresses
  --replicas N            mesh replication factor: entries this node owns go
                          to N-1 ring successors (default 1)
  --peer-dial-timeout-ms N
                          dial deadline for one peer connection (default 250)
  --peer-io-timeout-ms N  read/write deadline on peer connections, heartbeats
                          included (default 2000)
  --peer-heartbeat-ms N   failure-detector heartbeat period (default 1000)
  --peer-suspect-after-ms N
                          silence before a member turns Suspect (default 3000)
  --peer-dead-after-ms N  silence before a Suspect member turns Dead and is
                          routed around (default 10000)
  --antientropy-every N   anti-entropy digest exchange every N heartbeat
                          rounds (default 8; 0 disables)
  --hint-cap N            hinted-handoff queue depth per unreachable peer
                          (default 512)
  -h, --help              print this help and exit
";

/// Server configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads computing orderings.
    pub workers: usize,
    /// Bounded job-queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Byte budget of the content-addressed ordering cache, split evenly
    /// across its shards.
    pub cache_budget_bytes: usize,
    /// Key-range shards of the ordering cache (≥ 1); more shards means less
    /// lock contention between concurrent requests.
    pub cache_shards: usize,
    /// Spill directory for cache persistence; `None` keeps the cache purely
    /// in memory. Entries in the directory are reloaded at startup.
    pub cache_dir: Option<PathBuf>,
    /// On-disk byte budget for the spill directory; `None` leaves the
    /// directory bounded only by the in-memory budget's evictions. When
    /// set, inserting a spill file deletes the oldest files first until the
    /// directory fits the budget again.
    pub cache_dir_budget: Option<u64>,
    /// Maximum simultaneously connected clients; connections beyond the
    /// limit get one retriable `server busy` error line and are closed.
    pub max_conns: usize,
    /// Default per-request wall-clock timeout (ms); requests may override.
    pub default_timeout_ms: u64,
    /// Default solver threads per ordering job (`0` = all cores); requests
    /// may override with their `"threads"` field. Orderings are bit-identical
    /// for every value, so this only affects wall-clock time — which is why
    /// the cache key deliberately ignores it. Effective only with the
    /// `parallel` feature; otherwise every job runs serially.
    pub solver_threads: usize,
    /// Emit one log line per completed ORDER (id, algorithm, n/nnz, cache
    /// hit/miss, total µs) on stderr.
    pub log_requests: bool,
    /// Deterministic fault-injection plane threaded through the engine,
    /// the solvers and the spill writer. [`FaultPlane::disabled`] (the
    /// default) is a strict no-op: responses are bit-identical to a build
    /// without the plane.
    pub faults: FaultPlane,
    /// Per-client token-bucket rate limit as `(requests_per_second,
    /// burst)`; `None` disables limiting. ORDER costs one token, BATCH one
    /// per member; a client that runs dry gets a fatal `rate limited`
    /// error line.
    pub rate_limit: Option<(u64, u64)>,
    /// Per-connection socket read/write timeout (ms); `None` waits
    /// forever. Bounds how long a slow-loris client can pin a connection
    /// slot while trickling bytes.
    pub io_timeout_ms: Option<u64>,
    /// Event-loop threads for the reactor transport (clamped to ≥ 1). Each
    /// loop multiplexes its share of the connections with `poll(2)`, so
    /// even one thread serves thousands of idle keep-alive connections.
    pub reactor_threads: usize,
    /// Mesh peers as `host:port` strings (`--peers`). Empty (the default)
    /// runs a plain single node. When non-empty, this node joins a
    /// consistent-hash ring ([`crate::ring`]) together with the peers and
    /// its own bound address, forwards ORDER requests for keys another
    /// peer owns, and replicates its own hot entries to successors. Every
    /// member must be started with the same textual addresses (each
    /// omitting or including itself — the node's own bound address is
    /// always added) or the ring views will disagree. Because the bound
    /// address *is* the node's ring identity, a mesh member must bind the
    /// routable address its peers list — [`serve`] refuses `--peers`
    /// combined with an unspecified bind address (`0.0.0.0`/`[::]`).
    pub peers: Vec<String>,
    /// Mesh replication factor: entries this node owns are pushed to the
    /// `replicas - 1` ring successors after the owner (so `1`, the
    /// default, keeps a single copy and `2` means owner + one replica).
    /// Clamped to ≥ 1; ignored without peers.
    pub replicas: usize,
    /// Dial deadline for one peer connection, ms
    /// (`--peer-dial-timeout-ms`, default 250). Bounds how long a
    /// blackholed peer can stall a forward, a replication push or a
    /// heartbeat before the mesh moves on.
    pub peer_dial_timeout_ms: u64,
    /// Socket read/write deadline on peer connections, ms
    /// (`--peer-io-timeout-ms`, default 2000). Wider than the dial
    /// deadline so a forwarded cache *miss* has time to compute at the
    /// owner; also the deadline on heartbeat and membership exchanges.
    pub peer_io_timeout_ms: u64,
    /// Failure-detector heartbeat period, ms (`--peer-heartbeat-ms`,
    /// default 1000). Each round PINGs every known member with seeded
    /// jitter; suspicion windows are measured against the acks.
    pub peer_heartbeat_ms: u64,
    /// Silence before an `Alive` member turns `Suspect`, ms
    /// (`--peer-suspect-after-ms`, default 3000 — three missed
    /// heartbeats at the default period).
    pub peer_suspect_after_ms: u64,
    /// Silence before a `Suspect` member turns `Dead`, ms
    /// (`--peer-dead-after-ms`, default 10000). Clamped to at least the
    /// suspect window.
    pub peer_dead_after_ms: u64,
    /// Run the anti-entropy digest exchange every N heartbeat rounds
    /// (default 8); 0 disables anti-entropy.
    pub antientropy_every: u32,
    /// Hinted-handoff queue depth per unreachable peer (default 512);
    /// past the cap the oldest hint is dropped and counted.
    pub hint_cap: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism().map_or(2, |p| p.get().min(8)),
            queue_capacity: 64,
            cache_budget_bytes: 32 << 20,
            cache_shards: 8,
            cache_dir: None,
            cache_dir_budget: None,
            max_conns: 1024,
            default_timeout_ms: 30_000,
            solver_threads: 1,
            log_requests: false,
            faults: FaultPlane::disabled(),
            rate_limit: None,
            io_timeout_ms: None,
            reactor_threads: 1,
            peers: Vec::new(),
            replicas: 1,
            peer_dial_timeout_ms: 250,
            peer_io_timeout_ms: 2_000,
            peer_heartbeat_ms: 1_000,
            peer_suspect_after_ms: 3_000,
            peer_dead_after_ms: 10_000,
            antientropy_every: 8,
            hint_cap: crate::hints::DEFAULT_HINT_CAP,
        }
    }
}

/// Why [`Config::from_args`] produced no configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help` or `-h`: print [`SERVE_USAGE`] and exit successfully.
    Help,
    /// An unknown flag, a missing value, or a value out of range.
    Invalid(String),
}

impl Config {
    /// Parses the daemon's command-line flags (listed in [`SERVE_USAGE`])
    /// on top of [`Config::default`], binding `127.0.0.1:7654` unless
    /// `--addr` says otherwise.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Config, ArgsError> {
        let mut cfg = Config {
            addr: DEFAULT_ADDR.to_string(),
            ..Config::default()
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| ArgsError::Invalid(format!("{flag} needs a value")))
            };
            match flag.as_str() {
                "-h" | "--help" => return Err(ArgsError::Help),
                "--addr" => cfg.addr = value()?,
                "--workers" => cfg.workers = positive(&flag, &value()?)?,
                "--queue" => cfg.queue_capacity = positive(&flag, &value()?)?,
                "--cache-mb" => {
                    let mb: usize = parse(&flag, &value()?)?;
                    cfg.cache_budget_bytes = mb
                        .checked_mul(1 << 20)
                        .ok_or_else(|| ArgsError::Invalid(format!("{flag}: {mb} MiB overflows")))?;
                }
                "--shards" => cfg.cache_shards = positive(&flag, &value()?)?,
                "--cache-dir" => cfg.cache_dir = Some(value()?.into()),
                "--cache-dir-budget" => cfg.cache_dir_budget = Some(parse(&flag, &value()?)?),
                "--max-conns" => cfg.max_conns = positive(&flag, &value()?)?,
                "--timeout-ms" => cfg.default_timeout_ms = positive(&flag, &value()?)?,
                "--threads" => cfg.solver_threads = parse(&flag, &value()?)?,
                "--log-requests" => cfg.log_requests = true,
                "--rate-limit" => {
                    let v = value()?;
                    let limit = parse_rate_limit(&v)
                        .ok_or_else(|| ArgsError::Invalid(format!("{flag}: bad value '{v}'")))?;
                    cfg.rate_limit = Some(limit);
                }
                "--io-timeout" => cfg.io_timeout_ms = Some(positive(&flag, &value()?)?),
                "--reactor-threads" => cfg.reactor_threads = positive(&flag, &value()?)?,
                "--peers" => {
                    let v = value()?;
                    if v.is_empty() {
                        return Err(ArgsError::Invalid(format!("{flag} needs a value")));
                    }
                    cfg.peers = v.split(',').map(str::to_string).collect();
                }
                "--replicas" => cfg.replicas = positive(&flag, &value()?)?,
                "--peer-dial-timeout-ms" => cfg.peer_dial_timeout_ms = positive(&flag, &value()?)?,
                "--peer-io-timeout-ms" => cfg.peer_io_timeout_ms = positive(&flag, &value()?)?,
                "--peer-heartbeat-ms" => cfg.peer_heartbeat_ms = positive(&flag, &value()?)?,
                "--peer-suspect-after-ms" => {
                    cfg.peer_suspect_after_ms = positive(&flag, &value()?)?;
                }
                "--peer-dead-after-ms" => cfg.peer_dead_after_ms = positive(&flag, &value()?)?,
                "--antientropy-every" => cfg.antientropy_every = parse(&flag, &value()?)?,
                "--hint-cap" => cfg.hint_cap = positive(&flag, &value()?)?,
                _ => return Err(ArgsError::Invalid(format!("unknown option '{flag}'"))),
            }
        }
        Ok(cfg)
    }
}

/// Parses one flag value.
fn parse<T: FromStr>(flag: &str, v: &str) -> Result<T, ArgsError> {
    v.parse()
        .map_err(|_| ArgsError::Invalid(format!("{flag}: bad value '{v}'")))
}

/// Parses one flag value that must be greater than zero.
fn positive<T: FromStr + Default + PartialOrd>(flag: &str, v: &str) -> Result<T, ArgsError> {
    let n: T = parse(flag, v)?;
    if n > T::default() {
        Ok(n)
    } else {
        Err(ArgsError::Invalid(format!("{flag} must be positive")))
    }
}

/// Parses `RPS` or `RPS:BURST`; a missing burst defaults to `2 * RPS`.
fn parse_rate_limit(v: &str) -> Option<(u64, u64)> {
    let (rps, burst) = match v.split_once(':') {
        Some((r, b)) => (r.parse().ok()?, b.parse().ok()?),
        None => {
            let r: u64 = v.parse().ok()?;
            (r, r.saturating_mul(2))
        }
    };
    (rps > 0 && burst > 0).then_some((rps, burst))
}

/// The daemon's command line, shared by `spectral-orderd` and
/// `spectral-order serve`: parses `args` with [`Config::from_args`],
/// serves in the foreground (printing `listening on ADDR (N workers)` once
/// ready) and returns after a client's SHUTDOWN drained the server. Exits
/// 0 on `--help`, 2 on a usage error, 1 when the server cannot start.
pub fn serve_cli<I: IntoIterator<Item = String>>(prog: &str, args: I) -> ExitCode {
    let cfg = match Config::from_args(args) {
        Ok(cfg) => cfg,
        Err(ArgsError::Help) => {
            println!("usage: {prog} [options]\n{SERVE_USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(ArgsError::Invalid(msg)) => {
            eprintln!("{prog}: {msg}\nusage: {prog} [options]\n{SERVE_USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = cfg.workers;
    let handle = match serve(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("{prog}: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {} ({} workers)", handle.local_addr(), workers);
    handle.join();
    eprintln!("{prog}: drained and stopped");
    ExitCode::SUCCESS
}

/// A running server; dropping the handle does not stop it — send SHUTDOWN.
pub struct ServerHandle {
    engine: Arc<Engine>,
    addr: SocketAddr,
    supervisor: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics (shared with the server).
    pub fn metrics(&self) -> &Metrics {
        self.engine.metrics()
    }

    /// The engine (shared with the server; exposed for tests).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Blocks until the server has stopped (i.e. after SHUTDOWN).
    pub fn join(self) {
        let _ = self.supervisor.join();
    }
}

/// Binds `cfg.addr`, builds the engine (loading any persisted cache), and
/// starts serving on the `se-reactor` event loop in background threads.
pub fn serve(cfg: Config) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    // A mesh member's ring identity is its textual bound address, which
    // its peers must be able to list verbatim. An unspecified bind
    // (0.0.0.0 / [::]) can never appear in anyone's --peers, so the node
    // would join as a phantom member, ring views would disagree, and it
    // could forward to itself over the network. Refuse outright.
    if !cfg.peers.is_empty() && addr.ip().is_unspecified() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "--peers requires a routable --addr: this node would join the ring as \
                 \"{addr}\", which no peer can list; bind the address the peers know it by"
            ),
        ));
    }
    let engine = Arc::new(Engine::new(&cfg, addr)?);
    // With a mesh configured, announce/warm/heartbeat in the background;
    // a plain single node spawns nothing.
    engine.start_mesh_tasks(&cfg);
    let rate = cfg
        .rate_limit
        .map(|(rps, burst)| Arc::new(RateLimiter::new(rps, burst)));
    let rcfg = se_reactor::ReactorConfig {
        threads: cfg.reactor_threads.max(1),
        max_conns: cfg.max_conns.max(1),
        io_timeout: cfg.io_timeout_ms.map(Duration::from_millis),
        busy_line: busy_line(),
        wakeups: Some(Arc::clone(&engine.metrics().reactor_wakeups)),
        rejects: Some(Arc::clone(&engine.metrics().busy_rejections)),
        ..se_reactor::ReactorConfig::default()
    };
    let factory_engine = Arc::clone(&engine);
    let group = se_reactor::start(listener, rcfg, move |token, peer, handle| {
        Session::new(
            Arc::clone(&factory_engine),
            rate.clone(),
            token,
            peer,
            handle,
        )
    })?;
    // The supervisor exits only after the SHUTDOWN drain finished and the
    // ack went out, so "joined" means "fully stopped".
    let supervisor_engine = Arc::clone(&engine);
    let supervisor = std::thread::Builder::new()
        .name("orderd-supervisor".to_string())
        .spawn(move || {
            group.join();
            supervisor_engine.wait_shutdown_complete();
        })
        .expect("spawn reactor supervisor thread");
    Ok(ServerHandle {
        engine,
        addr,
        supervisor,
    })
}

/// The wire bytes an over-cap connection receives before being dropped: one
/// retriable `server busy` error line.
fn busy_line() -> Vec<u8> {
    use crate::proto::{encode_response, ErrorResponse, Response};
    let resp = Response::Error(ErrorResponse::retriable(
        "server busy: connection limit reached, retry later",
    ));
    let mut bytes = encode_response(&resp).into_bytes();
    bytes.push(b'\n');
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn from_args_defaults_bind_the_daemon_address() {
        let parsed = Config::from_args(Vec::new()).unwrap();
        let expected = Config {
            addr: DEFAULT_ADDR.to_string(),
            ..Config::default()
        };
        assert_eq!(format!("{parsed:?}"), format!("{expected:?}"));
    }

    #[test]
    fn from_args_sets_every_flag() {
        type Check = fn(&Config) -> bool;
        let cases: &[(&str, Check)] = &[
            ("--addr 10.0.0.1:9", |c| c.addr == "10.0.0.1:9"),
            ("--workers 3", |c| c.workers == 3),
            ("--queue 5", |c| c.queue_capacity == 5),
            ("--cache-mb 2", |c| c.cache_budget_bytes == 2 << 20),
            ("--cache-mb 0", |c| c.cache_budget_bytes == 0),
            ("--shards 4", |c| c.cache_shards == 4),
            ("--cache-dir /var/cache/se", |c| {
                c.cache_dir.as_deref() == Some(Path::new("/var/cache/se"))
            }),
            ("--cache-dir-budget 1000000", |c| {
                c.cache_dir_budget == Some(1_000_000)
            }),
            ("--max-conns 7", |c| c.max_conns == 7),
            ("--timeout-ms 1500", |c| c.default_timeout_ms == 1500),
            ("--threads 0", |c| c.solver_threads == 0),
            ("--log-requests", |c| c.log_requests),
            ("--rate-limit 10", |c| c.rate_limit == Some((10, 20))),
            ("--rate-limit 10:3", |c| c.rate_limit == Some((10, 3))),
            ("--io-timeout 250", |c| c.io_timeout_ms == Some(250)),
            ("--reactor-threads 2", |c| c.reactor_threads == 2),
            ("--peers a:1,b:2", |c| c.peers == ["a:1", "b:2"]),
            ("--replicas 2", |c| c.replicas == 2),
            ("--peer-dial-timeout-ms 11", |c| {
                c.peer_dial_timeout_ms == 11
            }),
            ("--peer-io-timeout-ms 12", |c| c.peer_io_timeout_ms == 12),
            ("--peer-heartbeat-ms 13", |c| c.peer_heartbeat_ms == 13),
            ("--peer-suspect-after-ms 14", |c| {
                c.peer_suspect_after_ms == 14
            }),
            ("--peer-dead-after-ms 15", |c| c.peer_dead_after_ms == 15),
            ("--antientropy-every 0", |c| c.antientropy_every == 0),
            ("--antientropy-every 4294967295", |c| {
                c.antientropy_every == u32::MAX
            }),
            ("--hint-cap 9", |c| c.hint_cap == 9),
        ];
        for (line, check) in cases {
            let cfg = Config::from_args(args(line)).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert!(check(&cfg), "{line}");
        }

        // The table covers exactly the flags the usage text lists.
        let tested: BTreeSet<&str> = cases
            .iter()
            .map(|(line, _)| line.split_whitespace().next().unwrap())
            .collect();
        let listed: BTreeSet<&str> = SERVE_USAGE
            .lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with("--"))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(tested, listed);
        assert_eq!(listed.len(), 23);

        // Flags combine; a later repeat wins.
        let cfg = Config::from_args(args("--workers 2 --log-requests --workers 5")).unwrap();
        assert_eq!((cfg.workers, cfg.log_requests), (5, true));
    }

    #[test]
    fn from_args_rejects_bad_values() {
        let rejected = [
            "--addr",
            "--workers 0",
            "--workers x",
            "--workers",
            "--queue 0",
            "--cache-mb -1",
            // 2^44 MiB is 2^64 bytes: the shift used to wrap to a 0-byte cache.
            "--cache-mb 17592186044416",
            "--shards 0",
            "--cache-dir",
            "--cache-dir-budget -5",
            "--max-conns 0",
            "--timeout-ms 0",
            "--threads -1",
            "--rate-limit 0",
            "--rate-limit 5:0",
            "--rate-limit fast",
            "--io-timeout 0",
            "--reactor-threads 0",
            "--peers",
            "--replicas 0",
            "--peer-dial-timeout-ms 0",
            "--peer-io-timeout-ms 0",
            "--peer-heartbeat-ms 0",
            "--peer-suspect-after-ms 0",
            "--peer-dead-after-ms 0",
            // One past u32::MAX used to truncate to 0 and turn anti-entropy off.
            "--antientropy-every 4294967296",
            "--antientropy-every -1",
            "--hint-cap 0",
            "--bogus",
            "serve",
        ];
        for line in rejected {
            assert!(
                matches!(Config::from_args(args(line)), Err(ArgsError::Invalid(_))),
                "{line} must be rejected"
            );
        }
        let empty_peers = vec!["--peers".to_string(), String::new()];
        assert!(matches!(
            Config::from_args(empty_peers),
            Err(ArgsError::Invalid(_))
        ));
    }

    #[test]
    fn from_args_help_wins_over_other_flags() {
        for line in ["--help", "-h", "--workers 2 --help", "--help --bogus"] {
            assert_eq!(Config::from_args(args(line)).unwrap_err(), ArgsError::Help);
        }
    }
}
