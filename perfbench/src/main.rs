//! End-to-end and per-layer benchmark of the spectral envelope-reduction
//! system.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|hits --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last stdout line carries every end-to-end metric,
//! timed with tracing off; with `--trace 1` it carries every per-layer
//! metric instead. The line before it is a report with the host and build
//! fingerprint, the seed and the sample counts. See `perfbench/README.md`.

mod checks;
mod child;
mod hits;
mod host;
mod mesh;
mod service;
mod stats;
mod sweep;

use checks::Tally;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The seed of a run's `k`-th set-up. The service workloads draw a fresh
/// working set for every set-up, so the solve times they report from the
/// warm-ups average over three sets; the last set is the one timed.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(SETUPS as u64).wrapping_add(k as u64)
}

/// End-to-end metrics: every workload reports each of them. The timings
/// other than `setup_s` are the process's CPU time (`host::cpu_s`), which
/// a host busy with other guests does not inflate the way it does wall
/// time; the wall-clock figures go to the report line.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sweep_cpu_s", "s"),
    ("tracemin_cpu_s", "s"),
    ("envelope_vs_gps", "ratio"),
    ("envelope_worst_vs_gps", "ratio"),
    ("ops_per_cpu_s", "1/s"),
    ("op_cpu_p50_us", "us"),
    ("op_cpu_p99_us", "us"),
];

/// Per-layer metrics of the traced run. A workload whose timed window
/// does not run a layer reports 0 for it and names it under
/// `not_exercised` in the report line.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.coarsen_ms", "ms"),
    ("graph.levels", "count"),
    ("graph.first_ratio_max", "ratio"),
    ("eigen.fiedler_ms", "ms"),
    ("eigen.coarsest_ms", "ms"),
    ("eigen.interpolate_ms", "ms"),
    ("eigen.smooth_ms", "ms"),
    ("eigen.rqi_ms", "ms"),
    ("eigen.lanczos_iters", "count"),
    ("eigen.rqi_outer", "count"),
    ("eigen.minres_iters", "count"),
    ("eigen.unconverged", "count"),
    ("eigen.residual_max", "ratio"),
    ("tracemin.ms", "ms"),
    ("tracemin.outer_iters", "count"),
    ("tracemin.inner_matvecs", "count"),
    ("par.regions", "count"),
    ("par.chunks", "count"),
    ("par.steals", "count"),
    ("par.parks", "count"),
    ("par.speedup", "ratio"),
    ("order.sort_ms", "ms"),
    ("sparsemat.envelope_ms", "ms"),
    ("service.proto.decode_us", "us"),
    ("sparsemat.io.parse_us", "us"),
    ("sparsemat.io.parse_ns_per_byte", "ns/B"),
    ("service.cache.key_us", "us"),
    ("service.cache.lookup_us", "us"),
    ("service.proto.encode_us", "us"),
    ("service.client.decode_us", "us"),
    ("service.engine.server_us", "us"),
    ("reactor.rest_us", "us"),
    ("reactor.wakeups_per_req", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.mesh.forward_us", "us"),
    ("service.mesh.forwards", "count"),
    ("service.engine.miss_server_ms", "ms"),
    ("service.engine.queue_ms", "ms"),
    ("service.cache.inserts", "count"),
    ("service.engine.degraded", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    pub tally: Tally,
    metrics: BTreeMap<&'static str, f64>,
    /// Report members: key and JSON value.
    notes: Vec<(String, String)>,
}

impl Run {
    fn known(name: &str) -> bool {
        END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name)
    }

    /// Sets a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(Self::known(name), "unknown metric {name}");
        self.metrics.insert(name, value);
    }

    /// Adds to a metric (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        assert!(Self::known(name), "unknown metric {name}");
        *self.metrics.entry(name).or_insert(0.0) += value;
    }

    /// Adds a report member; `json` is its JSON value.
    pub fn note(&mut self, key: &str, json: String) {
        self.notes.push((key.to_string(), json));
    }

    /// Appends a name to a report member holding a list of names.
    pub fn push_note_list(&mut self, key: &str, item: &str) {
        let item = host::json_str(item);
        match self.notes.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => {
                v.pop();
                v.push_str(&format!(",{item}]"));
            }
            None => self.notes.push((key.to_string(), format!("[{item}]"))),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process: what part of a run it measures.
    child: Option<String>,
    /// A `sweep-round` child's jobs.
    jobs: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut child, mut jobs) = (None, String::new());
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--child" => child = Some(value.clone()),
            "--jobs" => jobs = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    if child.is_some() {
        workload = workload.or(Some(String::new()));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        child,
        jobs,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload sweep|hits --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match args.child.as_deref() {
        Some("sweep-round") => {
            println!("{}", sweep::child_round(&args.jobs));
            return ExitCode::SUCCESS;
        }
        Some("hits") => {
            println!("{}", hits::child(args.seed, args.seconds));
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("perfbench: unknown child {other}");
            return ExitCode::from(2);
        }
        None => {}
    }
    let steal0 = host::steal_s();
    let mut run = match args.workload.as_str() {
        "sweep" => sweep::run(args.seed, args.seconds, args.trace),
        "hits" => hits::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    run.note("steal_s", format!("{:.2}", host::steal_s() - steal0));
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut not_exercised = Vec::new();
    for (name, _) in wanted {
        if !run.metrics.contains_key(name) {
            assert!(args.trace, "end-to-end metric {name} was not measured");
            not_exercised.push(*name);
        }
    }
    for name in not_exercised {
        run.metric(name, 0.0);
        run.push_note_list("not_exercised", name);
    }
    for (name, value) in &run.metrics {
        if !value.is_finite() {
            run.tally
                .fail(format!("metric {name} is not finite ({value})"));
        }
    }
    let correct = run.tally.failed == 0;
    let notes: String = run
        .notes
        .iter()
        .map(|(k, v)| format!(",{}:{v}", host::json_str(k)))
        .collect();
    let messages: Vec<String> = run
        .tally
        .messages
        .iter()
        .map(|m| host::json_str(m))
        .collect();
    println!(
        "{{\"report\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},{},\
         \"degraded\":{},\"failures\":[{}]{notes}}}}}",
        host::json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        host::fingerprint(),
        run.tally.degraded,
        messages.join(","),
    );
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let v = run.metrics[name];
            let v = if v.is_finite() { v } else { -1.0 };
            format!(
                "{}:{{\"value\":{v:?},\"unit\":{}}}",
                host::json_str(name),
                host::json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.tally.attempted.max(1),
        run.tally.failed,
        metrics.join(","),
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};
    use se_service::json::{parse, Json};

    fn read(rel: &str) -> Json {
        let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("read a benchmark manifest");
        parse(&text).expect("valid JSON")
    }

    fn names(list: &Json, field: &str) -> Vec<(String, String)> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|m| {
                let get = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (get("name"), get(field))
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_program_prints() {
        let bench = read("../BENCHMARK.json");
        let e2e = bench.get("end_to_end").expect("end_to_end");
        assert_eq!(names(e2e, "unit"), ours(END_TO_END));
        let layers = bench.get("per_layer").expect("per_layer");
        assert_eq!(names(layers, "unit"), ours(PER_LAYER));
        let workloads: Vec<String> = names(bench.get("workloads").expect("workloads"), "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, ["sweep", "hits"]);
    }

    #[test]
    fn layer_map_covers_every_per_layer_metric_once_and_names_known_metrics() {
        let map = read("layer_map.json");
        let Some(Json::Obj(layers)) = map.get("layers") else {
            panic!("layer_map.json has a layers object");
        };
        let mut mapped: Vec<String> = layers
            .iter()
            .flat_map(|(_, l)| l.get("metrics").and_then(Json::as_arr).unwrap_or(&[]))
            .filter_map(|m| m.as_str().map(str::to_string))
            .collect();
        mapped.sort();
        let mut want: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        want.sort();
        assert_eq!(mapped, want);
        for (layer, l) in layers {
            for key in ["moves", "still"] {
                for e in l.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
                    let metric = e.get("metric").and_then(Json::as_str).unwrap_or("");
                    let workload = e.get("workload").and_then(Json::as_str).unwrap_or("");
                    assert!(
                        END_TO_END.iter().any(|(n, _)| *n == metric),
                        "{layer}: {metric} is not an end-to-end metric"
                    );
                    assert!(
                        ["sweep", "hits"].contains(&workload),
                        "{layer}: {workload} is not a workload"
                    );
                }
            }
        }
    }
}
