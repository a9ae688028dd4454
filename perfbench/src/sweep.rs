//! `sweep`: the paper's stand-in matrices, and a fixed slice of random
//! geometric graphs near the connectivity threshold, ordered offline
//! through `se_order::order_with`, one caller, the solver pool at `nproc`
//! threads.

use crate::checks::{check_ordering, Tally};
use crate::child;
use crate::Run;
use crate::{host, stats};
use meshgen::standins::{standin, ALL_NAMES};
use se_eigen::multilevel::fiedler;
use se_eigen::solver_opts::DEFAULT_FIEDLER_TOL;
use se_graph::bfs::{connected_components, induced_subgraph};
use se_order::spectral::order_by_vector;
use se_order::{order, order_with, Algorithm, OrderError, SolverOpts};
use se_prng::SmallRng;
use se_service::json::Json;
use se_trace::{SpanNode, Tracer};
use sparsemat::envelope::envelope_stats;
use sparsemat::par::TaskPool;
use sparsemat::{Permutation, SymmetricPattern};
use std::time::Instant;

/// IN3C alone takes about as long as the rest of the sweep, so it is left
/// out to keep one pass within a run.
const LEFT_OUT: &str = "IN3C";
/// Stand-ins also ordered with the TraceMin-Fiedler solver.
const TRACEMIN_SET: [&str; 3] = ["BARTH4", "SHUTTLE", "SKIRT"];
/// A job is short if its first call used less than this much CPU time.
/// After one call of every job, a run orders the short ones again, round
/// after round, each round in a child process of its own (see
/// `child.rs`), so that a short solve is measured over several calls and
/// several address-space layouts. A solve of seconds averages the
/// host's noise out by itself and runs once.
const SHORT_CPU_S: f64 = 0.8;
/// Calls of a short job at most.
const MAX_CALLS: usize = 9;
/// Stand-ins rerun on one thread in the traced run.
const SPEEDUP_SET: [&str; 3] = ["BARTH4", "SKIRT", "BCSSTK29"];
/// Random geometric graphs of 1,000 to 3,000 vertices with a mean degree
/// of about eight, near the connectivity threshold, so most are
/// disconnected. About one in twenty such graphs takes the spectral solver
/// over a second against a median near 60 ms; generator seeds 0 to 19 are
/// fixed, so every run orders the same ones.
const NEAR_THRESHOLD: u64 = 20;
const NEAR_THRESHOLD_DEGREE: f64 = 8.0;

struct Case {
    name: String,
    g: SymmetricPattern,
    /// The GPS envelope of a stand-in; the quality metrics cover only the
    /// stand-ins.
    gps_envelope: Option<u64>,
}

/// The `i`-th near-threshold graph; sizes follow a low-discrepancy walk
/// over the range.
fn near_threshold(i: u64) -> Case {
    let frac = (i as f64 * 0.618_033_988_75).fract();
    let n = (1_000.0 + 2_000.0 * frac).round() as usize;
    let radius = (NEAR_THRESHOLD_DEGREE / (std::f64::consts::PI * n as f64)).sqrt();
    Case {
        name: format!("RGG8-{i:02}"),
        g: meshgen::random_geometric(n, radius, i),
        gps_envelope: None,
    }
}

struct Setup {
    cases: Vec<Case>,
    /// Indices into `cases` of the TraceMin slice.
    tracemin: Vec<usize>,
    pool: TaskPool,
    opts: SolverOpts,
}

/// Builds the stand-ins, their GPS reference envelopes and the
/// near-threshold graphs in a seed-shuffled order, and the `nproc`-thread
/// solver pool.
fn setup(seed: u64) -> Setup {
    let mut cases: Vec<Case> = ALL_NAMES
        .iter()
        .filter(|&&name| name != LEFT_OUT)
        .map(|&name| {
            let g = standin(name).expect("every listed stand-in exists").pattern;
            let gps = order(&g, Algorithm::Gps).expect("GPS is combinatorial and cannot fail");
            Case {
                name: name.to_string(),
                g,
                gps_envelope: Some(gps.stats.envelope_size),
            }
        })
        .chain((0..NEAR_THRESHOLD).map(near_threshold))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    rng.shuffle(&mut cases);
    let mut tm_names = TRACEMIN_SET;
    rng.shuffle(&mut tm_names);
    let tracemin = tm_names.iter().map(|n| index_of(&cases, n)).collect();
    let pool = TaskPool::new(0);
    let opts = SolverOpts::with_pool(pool.clone());
    Setup {
        cases,
        tracemin,
        pool,
        opts,
    }
}

fn index_of(cases: &[Case], name: &str) -> usize {
    cases
        .iter()
        .position(|c| c.name == name)
        .expect("named stand-in is in the sweep")
}

/// What one `order_with` call took.
#[derive(Clone, Copy)]
struct Took {
    wall_s: f64,
    /// CPU time of the whole process (the caller and the solver pool).
    cpu_s: f64,
}

/// One timed `order_with` call plus its output check.
fn timed_order(
    case: &Case,
    alg: Algorithm,
    opts: &SolverOpts,
    tally: &mut Tally,
) -> (Took, Option<Vec<usize>>) {
    let (t0, c0) = (Instant::now(), host::cpu_s());
    let r = order_with(&case.g, alg, opts);
    let took = Took {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: host::cpu_s() - c0,
    };
    match r {
        Ok(o) => {
            let order = o.perm.order().to_vec();
            tally.record(
                check_ordering(&case.g, &order, &o.stats)
                    .map_err(|e| format!("{} {}: {e}", case.name, alg.name())),
            );
            (took, Some(order))
        }
        Err(e) => {
            tally.record(Err(format!("{} {}: {e}", case.name, alg.name())));
            (took, None)
        }
    }
}

/// One case ordered with one algorithm, with every call's time.
struct Job {
    /// Index into `Setup::cases`.
    case: usize,
    alg: Algorithm,
    calls: Vec<Took>,
    /// The first call's ordering; every later call must repeat it.
    order: Option<Vec<usize>>,
}

impl Job {
    /// The median over the calls of one of their times.
    fn median(&self, f: impl Fn(&Took) -> f64) -> f64 {
        stats::median(&self.calls.iter().map(f).collect::<Vec<_>>())
    }
}

/// The outputs and times of one pass over the sweep.
struct Pass {
    /// The spectral jobs in case order, then the TraceMin slice.
    jobs: Vec<Job>,
    spectral: usize,
}

impl Pass {
    fn spectral(&self) -> &[Job] {
        &self.jobs[..self.spectral]
    }

    fn tracemin(&self) -> &[Job] {
        &self.jobs[self.spectral..]
    }
}

/// Sums a per-job median time over `jobs`.
fn sum(jobs: &[Job], f: impl Fn(&Took) -> f64 + Copy) -> f64 {
    jobs.iter().map(|j| j.median(f)).sum()
}

/// Orders every case once, spectral then the TraceMin slice, and then the
/// short jobs again, one round per child process, until `seconds` have
/// passed since the pass began or each has had `MAX_CALLS` calls.
fn pass(s: &Setup, seconds: f64, tally: &mut Tally) -> Pass {
    let t0 = Instant::now();
    let mut jobs: Vec<Job> = (0..s.cases.len())
        .map(|i| (i, Algorithm::Spectral))
        .chain(s.tracemin.iter().map(|&i| (i, Algorithm::TraceMin)))
        .map(|(case, alg)| {
            let (t, order) = timed_order(&s.cases[case], alg, &s.opts, tally);
            Job {
                case,
                alg,
                calls: vec![t],
                order,
            }
        })
        .collect();
    let short: Vec<usize> = (0..jobs.len())
        .filter(|&k| jobs[k].calls[0].cpu_s < SHORT_CPU_S)
        .collect();
    let specs: Vec<String> = short
        .iter()
        .map(|&k| job_spec(&s.cases[jobs[k].case].name, jobs[k].alg))
        .collect();
    let args = vec![
        "--child".to_string(),
        "sweep-round".to_string(),
        "--jobs".to_string(),
        specs.join(","),
    ];
    for _ in 1..MAX_CALLS {
        if short.is_empty() || t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let reply = match child::run(&args) {
            Ok(j) => j,
            Err(e) => {
                tally.record(Err(e));
                break;
            }
        };
        tally.merge(child::tally_from(&reply));
        let got = reply.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
        if got.len() != short.len() {
            tally.fail(format!(
                "a sweep round returned {} of {} jobs",
                got.len(),
                short.len()
            ));
            break;
        }
        for (&k, r) in short.iter().zip(got) {
            let job = &mut jobs[k];
            let num = |key: &str| r.get(key).and_then(Json::as_f64);
            if let (Some(cpu_s), Some(wall_s)) = (num("cpu_s"), num("wall_s")) {
                job.calls.push(Took { wall_s, cpu_s });
            }
            let hash = r.get("hash").and_then(Json::as_str);
            if let Some(order) = &job.order {
                if hash != Some(order_hash(order).as_str()) {
                    tally.fail(format!(
                        "{} {}: ordering changed between calls",
                        s.cases[job.case].name,
                        job.alg.name()
                    ));
                }
            }
        }
    }
    Pass {
        jobs,
        spectral: s.cases.len(),
    }
}

/// A job as a child's `--jobs` item: the case name and `s` (spectral) or
/// `t` (TraceMin).
fn job_spec(name: &str, alg: Algorithm) -> String {
    let tag = if alg == Algorithm::TraceMin { "t" } else { "s" };
    format!("{name}:{tag}")
}

/// FNV-1a over an ordering, in hex: children send this instead of the
/// ordering itself.
fn order_hash(order: &[usize]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in order {
        for b in (v as u64).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The case named `name` without its GPS reference.
fn case_named(name: &str) -> Option<Case> {
    if let Some(i) = name.strip_prefix("RGG8-") {
        return i
            .parse()
            .ok()
            .filter(|&i| i < NEAR_THRESHOLD)
            .map(near_threshold);
    }
    standin(name).map(|st| Case {
        name: name.to_string(),
        g: st.pattern,
        gps_envelope: None,
    })
}

/// A child's round: orders each job of `jobs` (comma-separated
/// `job_spec`s) once on an `nproc`-thread pool, checking each ordering,
/// and returns the result line: each job's CPU and wall time and its
/// ordering's hash.
pub fn child_round(jobs: &str) -> String {
    let opts = SolverOpts::with_pool(TaskPool::new(0));
    let mut tally = Tally::default();
    let mut out = Vec::new();
    for spec in jobs.split(',') {
        let (name, tag) = spec.rsplit_once(':').unwrap_or((spec, "s"));
        let alg = if tag == "t" {
            Algorithm::TraceMin
        } else {
            Algorithm::Spectral
        };
        let Some(case) = case_named(name) else {
            tally.record(Err(format!("{name}: no such case")));
            out.push("null".to_string());
            continue;
        };
        let (t, order) = timed_order(&case, alg, &opts, &mut tally);
        let hash = order.as_deref().map_or("none".to_string(), order_hash);
        out.push(format!(
            "{{\"cpu_s\":{:?},\"wall_s\":{:?},\"hash\":\"{hash}\"}}",
            t.cpu_s, t.wall_s
        ));
    }
    format!(
        "{{\"tally\":{},\"jobs\":[{}]}}",
        child::tally_json(&tally),
        out.join(",")
    )
}

/// Envelope ÷ GPS envelope for every stand-in the pass ordered, with
/// names.
fn gps_ratios<'a>(p: &Pass, s: &'a Setup) -> Vec<(&'a str, f64)> {
    p.spectral()
        .iter()
        .filter_map(|job| {
            let case = &s.cases[job.case];
            let gps = case.gps_envelope?;
            let perm = Permutation::from_new_to_old(job.order.as_ref()?.clone()).ok()?;
            let env = envelope_stats(&case.g, &perm).envelope_size;
            Some((case.name.as_str(), env as f64 / gps as f64))
        })
        .collect()
}

/// Sets up `SETUPS` times, keeping the last; returns it with the median
/// set-up time.
fn timed_setups(seed: u64) -> (Setup, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..crate::SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Run {
    let (s, setup_s) = timed_setups(seed);
    let mut run = Run::default();
    run.note("cases", s.cases.len().to_string());
    run.note(
        "order",
        host::json_str(
            &s.cases
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>()
                .join(","),
        ),
    );
    if trace {
        traced(&s, &mut run);
        return run;
    }
    let p = pass(&s, seconds, &mut run.tally);
    let ratios = gps_ratios(&p, &s);
    // One figure per job: the median over its calls.
    let cpu_us: Vec<f64> = p.jobs.iter().map(|j| j.median(|t| t.cpu_s) * 1e6).collect();
    let wall_us: Vec<f64> = p
        .jobs
        .iter()
        .map(|j| j.median(|t| t.wall_s) * 1e6)
        .collect();
    let p50 = stats::median(&cpu_us);
    let (tail_p, p99) = stats::tail(&cpu_us, 0.99, 10);
    let worst = ratios
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or(("none", f64::NAN));
    let job_ms: Vec<String> = p
        .jobs
        .iter()
        .zip(&cpu_us)
        .map(|(j, us)| {
            let name = format!("{} {}", s.cases[j.case].name, j.alg.name());
            format!(
                "{}:[{:.1},{}]",
                host::json_str(&name),
                us / 1e3,
                j.calls.len()
            )
        })
        .collect();
    run.note("cpu_ms_and_calls", format!("{{{}}}", job_ms.join(",")));
    run.note(
        "calls",
        p.jobs
            .iter()
            .map(|j| j.calls.len())
            .sum::<usize>()
            .to_string(),
    );
    run.note("op_samples", cpu_us.len().to_string());
    run.note("op_cpu_quartiles_us", stats::quartiles_json(&cpu_us));
    run.note("op_cpu_p99_us_percentile", tail_p.to_string());
    // Wall-clock counterparts, for reading a run; they follow the host's
    // load, so they are not metrics.
    run.note("sweep_wall_s", sum(p.spectral(), |t| t.wall_s).to_string());
    run.note(
        "tracemin_wall_s",
        sum(p.tracemin(), |t| t.wall_s).to_string(),
    );
    run.note("op_wall_quartiles_us", stats::quartiles_json(&wall_us));
    run.note("worst_vs_gps", host::json_str(worst.0));
    run.metric("setup_s", setup_s);
    run.metric("sweep_cpu_s", sum(p.spectral(), |t| t.cpu_s));
    run.metric("tracemin_cpu_s", sum(p.tracemin(), |t| t.cpu_s));
    let only: Vec<f64> = ratios.iter().map(|r| r.1).collect();
    run.metric("envelope_vs_gps", stats::geomean(&only));
    run.metric("envelope_worst_vs_gps", worst.1);
    run.metric(
        "ops_per_cpu_s",
        cpu_us.len() as f64 / (cpu_us.iter().sum::<f64>() * 1e-6),
    );
    run.metric("op_cpu_p50_us", p50);
    run.metric("op_cpu_p99_us", p99);
    run.metric("peak_rss_mb", host::peak_rss_mb());
    run
}

/// What the traced replay of one case produced.
struct Replay {
    order: Vec<usize>,
    tree: SpanNode,
    /// Each solved component with its Fiedler vector.
    vectors: Vec<(SymmetricPattern, Vec<f64>)>,
}

/// `spectral_ordering` decomposed into its public layers, each call inside
/// a benchmark span; the solver's own spans nest under `fiedler`.
fn replay(g: &SymmetricPattern, opts: &SolverOpts) -> Result<Replay, OrderError> {
    let tracer = Tracer::enabled();
    let mut fo = opts.fiedler_options();
    fo.trace = tracer.clone();
    let mut vectors = Vec::new();
    let order = {
        let _root = tracer.span("replay");
        let comps = {
            let _s = tracer.span("graph.components");
            connected_components(g)
        };
        let mut order = Vec::with_capacity(g.n());
        for members in &comps.members {
            let (sub, map) = {
                let _s = tracer.span("graph.subgraph");
                induced_subgraph(g, members)
            };
            let local = if sub.n() <= 2 {
                (0..sub.n()).collect()
            } else {
                let fr = fiedler(&sub, &fo)?;
                let local = {
                    let _s = tracer.span("order.sort");
                    order_by_vector(&sub, &fr.vector)
                };
                vectors.push((sub, fr.vector));
                local
            };
            order.extend(local.into_iter().map(|l| map[l]));
        }
        let perm = Permutation::from_new_to_old(order)
            .map_err(|e| OrderError::Internal(format!("replayed order: {e}")))?;
        {
            let _s = tracer.span("sparsemat.envelope");
            std::hint::black_box(envelope_stats(g, &perm));
        }
        perm.order().to_vec()
    };
    let tree = tracer.finish().expect("enabled tracer recorded the replay");
    Ok(Replay {
        order,
        tree,
        vectors,
    })
}

/// ‖Lx − (xᵀLx)x‖ / ‖L‖ for a unit vector `x`, with ‖L‖ bounded by twice
/// the largest degree (the bound the solver's own tolerance uses).
pub fn relative_residual(g: &SymmetricPattern, x: &[f64]) -> f64 {
    let lx: Vec<f64> = (0..g.n())
        .map(|v| {
            let nb = g.neighbors(v);
            nb.len() as f64 * x[v] - nb.iter().map(|&u| x[u]).sum::<f64>()
        })
        .collect();
    let xx: f64 = x.iter().map(|v| v * v).sum();
    let rho = x.iter().zip(&lx).map(|(a, b)| a * b).sum::<f64>() / xx;
    let res = lx
        .iter()
        .zip(x)
        .map(|(l, v)| (l - rho * v).powi(2))
        .sum::<f64>()
        .sqrt()
        / xx.sqrt();
    let max_degree = (0..g.n()).map(|v| g.neighbors(v).len()).max().unwrap_or(0);
    res / (2.0 * (max_degree as f64).max(0.5))
}

/// Nodes named `name` anywhere in the tree.
fn find<'a>(node: &'a SpanNode, name: &str, out: &mut Vec<&'a SpanNode>) {
    if node.name == name {
        out.push(node);
    }
    for c in &node.children {
        find(c, name, out);
    }
}

fn nodes<'a>(tree: &'a SpanNode, name: &str) -> Vec<&'a SpanNode> {
    let mut out = Vec::new();
    find(tree, name, &mut out);
    out
}

fn ms(micros: u64) -> f64 {
    micros as f64 / 1e3
}

/// The traced run: an untraced pass for the reference orderings and pool
/// counters, the decomposed replay, a traced TraceMin slice and 1-thread
/// reruns.
fn traced(s: &Setup, run: &mut Run) {
    let pool0 = s.pool.stats();
    // Every case once: no repeat rounds.
    let base = pass(s, 0.0, &mut run.tally);
    let pool1 = s.pool.stats();
    run.metric("par.regions", (pool1.regions - pool0.regions) as f64);
    run.metric("par.chunks", (pool1.chunks - pool0.chunks) as f64);
    run.metric("par.steals", (pool1.steals - pool0.steals) as f64);
    run.metric("par.parks", (pool1.parks - pool0.parks) as f64);

    // Decomposed spectral pass.
    let mut wall_us = 0.0;
    let (mut levels, mut first_ratio_max) = (0.0, 0.0f64);
    let (mut unconverged, mut residual_max) = (0.0, 0.0f64);
    let mut layers_us = 0.0;
    for (case, reference) in s.cases.iter().zip(base.spectral().iter().map(|j| &j.order)) {
        let t0 = Instant::now();
        let r = replay(&case.g, &s.opts);
        wall_us += t0.elapsed().as_secs_f64() * 1e6;
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                run.tally.record(Err(format!("{} replay: {e}", case.name)));
                continue;
            }
        };
        run.tally.record(match reference {
            Some(o) if *o == r.order => Ok(()),
            _ => Err(format!(
                "{}: replayed permutation differs from order_with",
                case.name
            )),
        });
        let t = &r.tree;
        let coarsen = t.stage_micros("coarsen");
        let fiedler = t.stage_micros("fiedler");
        let graph = t.stage_micros("graph.components") + t.stage_micros("graph.subgraph") + coarsen;
        let sort = t.stage_micros("order.sort");
        let env = t.stage_micros("sparsemat.envelope");
        // Layer self-times: graph, the solver without its coarsening, the
        // sort and the envelope evaluation cover the replay between them.
        layers_us += (graph + fiedler - coarsen + sort + env) as f64;
        run.add("graph.coarsen_ms", ms(coarsen));
        run.add("eigen.fiedler_ms", ms(fiedler));
        run.add("eigen.coarsest_ms", ms(t.stage_micros("coarsest_solve")));
        run.add("eigen.interpolate_ms", ms(t.stage_micros("interpolate")));
        run.add("eigen.smooth_ms", ms(t.stage_micros("smooth")));
        run.add("eigen.rqi_ms", ms(t.stage_micros("rqi")));
        run.add("order.sort_ms", ms(sort));
        run.add("sparsemat.envelope_ms", ms(env));
        let attr_sum = |name: &str, attr: &str| -> f64 {
            nodes(t, name).iter().filter_map(|n| n.attr(attr)).sum()
        };
        run.add("eigen.lanczos_iters", attr_sum("lanczos", "iterations"));
        run.add("eigen.rqi_outer", attr_sum("rqi", "outer_iterations"));
        run.add("eigen.minres_iters", attr_sum("rqi", "inner_iterations"));
        for c in nodes(t, "coarsen") {
            levels += c.attr("levels").unwrap_or(0.0);
            if let Some(first) = c.children.iter().find(|k| k.index == Some(0)) {
                let fine = first.attr("n_fine").unwrap_or(0.0);
                let coarse = first.attr("n_coarse").unwrap_or(f64::INFINITY);
                first_ratio_max = first_ratio_max.max(fine / coarse);
            }
        }
        let worst = r
            .vectors
            .iter()
            .map(|(sub, x)| relative_residual(sub, x))
            .fold(0.0f64, f64::max);
        residual_max = residual_max.max(worst);
        if worst > DEFAULT_FIEDLER_TOL {
            unconverged += 1.0;
            run.push_note_list("unconverged", &case.name);
        }
    }
    run.metric("graph.levels", levels);
    run.metric("graph.first_ratio_max", first_ratio_max);
    run.metric("eigen.unconverged", unconverged);
    run.metric("eigen.residual_max", residual_max);
    run.metric("trace.coverage", layers_us / wall_us);
    run.metric(
        "trace.overhead",
        wall_us / (sum(base.spectral(), |t| t.wall_s) * 1e6),
    );

    // Traced TraceMin slice.
    let (mut tm_us, mut outer, mut matvecs) = (0u64, 0.0, 0.0);
    for (&i, reference) in s
        .tracemin
        .iter()
        .zip(base.tracemin().iter().map(|j| &j.order))
    {
        let case = &s.cases[i];
        let mut opts = s.opts.clone();
        opts.trace = Tracer::enabled();
        match order_with(&case.g, Algorithm::TraceMin, &opts) {
            Ok(o) => run
                .tally
                .record(if reference.as_deref() == Some(o.perm.order()) {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: traced TraceMin permutation differs",
                        case.name
                    ))
                }),
            Err(e) => run
                .tally
                .record(Err(format!("{} traced TraceMin: {e}", case.name))),
        }
        if let Some(t) = opts.trace.finish() {
            tm_us += t.stage_micros("tracemin");
            for n in nodes(&t, "tracemin") {
                outer += n.attr("iterations").unwrap_or(0.0);
                matvecs += n.attr("matvecs").unwrap_or(0.0);
            }
        }
    }
    run.metric("tracemin.ms", ms(tm_us));
    run.metric("tracemin.outer_iters", outer);
    run.metric("tracemin.inner_matvecs", matvecs);

    // One-thread reruns: bit-identical to the nproc orderings, and the
    // speed-up of nproc threads over one.
    let serial = SolverOpts::default();
    let (mut t1, mut tn) = (0.0, 0.0);
    for name in SPEEDUP_SET {
        let i = index_of(&s.cases, name);
        let (took, order) = timed_order(&s.cases[i], Algorithm::Spectral, &serial, &mut run.tally);
        t1 += took.wall_s;
        tn += base.jobs[i].calls[0].wall_s;
        if order.is_some() && order != base.jobs[i].order {
            run.tally.fail(format!(
                "{name}: 1-thread permutation differs from nproc threads"
            ));
        }
    }
    run.metric("par.speedup", t1 / tn);
}
