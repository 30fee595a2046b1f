//! The repository's benchmark: three seeded closed-loop workloads over the
//! Xheal stack, each driven by this single-threaded process.
//!
//! ```text
//! xheal-perfbench --workload <churn-100k|traffic-100k|dist-10k> --seed <n>
//!                 --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Every pass builds the workload from scratch (timed as set-up) and
//! replays the seed's tape, which is built once before any clock starts;
//! passes repeat until `--seconds` of replay have been measured. With
//! `--trace 0` the passes are untraced and the run reports the end-to-end
//! metrics; with `--trace 1` untraced and traced passes alternate and the
//! run reports per-layer self times, counts, and the tracing overhead.
//! Every pass checks its outputs. The last stdout line is one JSON object;
//! the exit code is non-zero when any check failed.

mod churn;
mod dist;
mod pass;
mod probe;
mod tape;
mod traffic;

use std::process::ExitCode;

use pass::Pass;
use probe::Tag;

/// End-to-end metrics, printed by `--trace 0` on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("step_p50_us", "us"),
    ("step_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by `--trace 1` on every workload (0 where a
/// workload never enters the layer). Self times are shares of the traced
/// replay wall; the shares and `bench.residual_share` sum to 1. The time
/// spent recording spans is `bench.instrumentation_share`, not a layer's.
const PER_LAYER: &[(&str, &str)] = &[
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.residual_share", "share"),
    ("bench.instrumentation_share", "share"),
    ("bench.harness_share", "share"),
    ("core.plan_share", "share"),
    ("core.exec_share", "share"),
    ("graph.apply_share", "share"),
    ("graph.csr_view_share", "share"),
    ("monitor.ingest_share", "share"),
    ("monitor.policy_share", "share"),
    ("monitor.checkpoint_share", "share"),
    ("monitor.snapshot_share", "share"),
    ("spectral.lanczos_share", "share"),
    ("spectral.sweep_share", "share"),
    ("sim.send_share", "share"),
    ("sim.step_share", "share"),
    ("sim.drain_share", "share"),
    ("workload.route_share", "share"),
    ("dist.protocol_share", "share"),
    ("core.repairs", "count"),
    ("core.insertions", "count"),
    ("core.combines", "count"),
    ("core.shares", "count"),
    ("core.secondaries_built", "count"),
    ("core.edges_added", "count"),
    ("core.edges_removed", "count"),
    ("core.clouds", "count"),
    ("core.max_cloud", "count"),
    ("core.deltas", "count"),
    ("core.allocs", "count"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.csr_views", "count"),
    ("monitor.deltas", "count"),
    ("monitor.compactions", "count"),
    ("monitor.tombstones", "count"),
    ("monitor.checkpoints", "count"),
    ("monitor.allocs", "count"),
    ("monitor.degree_increase", "ratio"),
    ("spectral.restarts", "count"),
    ("spectral.lambda2", "eigenvalue"),
    ("sim.sends", "count"),
    ("sim.delivered", "count"),
    ("sim.dropped", "count"),
    ("sim.rounds", "count"),
    ("sim.in_flight_max", "count"),
    ("sim.allocs", "count"),
    ("workload.next_hops", "count"),
    ("workload.hops_mean", "hops"),
    ("workload.req_p99_ticks", "rounds"),
    ("workload.lost_to_churn", "count"),
    ("dist.msgs.probe", "count"),
    ("dist.msgs.grant", "count"),
    ("dist.msgs.link", "count"),
    ("dist.msgs.unlink", "count"),
    ("dist.msgs.splice", "count"),
    ("dist.msgs.splice_ack", "count"),
    ("dist.rounds", "count"),
    ("dist.msgs_per_repair", "msgs"),
    ("dist.rounds_per_repair", "rounds"),
    ("dist.allocs", "count"),
];

/// Set-up is reported as a median, so every run sets up at least this often.
const MIN_PASSES: usize = 3;

/// Tapes per run: pass `i` replays tape `i % TAPES`, so a run averages
/// over several adversaries instead of one seed's luck in cloud growth.
const TAPES: u64 = 4;

enum Workload {
    Churn(Vec<churn::Spec>),
    Traffic(Vec<traffic::Spec>),
    Dist(Vec<dist::Spec>),
}

impl Workload {
    fn new(name: &str, seed: u64, smoke: bool) -> Option<Self> {
        let seeds = (0..TAPES).map(|k| seed.wrapping_mul(TAPES).wrapping_add(k));
        Some(match name {
            "churn-100k" => Workload::Churn(seeds.map(|s| churn::spec(s, smoke)).collect()),
            "traffic-100k" => Workload::Traffic(seeds.map(|s| traffic::spec(s, smoke)).collect()),
            "dist-10k" => Workload::Dist(seeds.map(|s| dist::spec(s, smoke)).collect()),
            _ => return None,
        })
    }

    fn pass(&self, tape: usize, traced: bool) -> Pass {
        let tape = tape % TAPES as usize;
        let mut p = match self {
            Workload::Churn(s) => churn::pass(&s[tape], traced),
            Workload::Traffic(s) => traffic::pass(&s[tape], traced),
            Workload::Dist(s) => dist::pass(&s[tape], traced),
        };
        p.tape = tape;
        p
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds {seconds}: expected a non-negative number"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xheal-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::new(&args.workload, args.seed, args.smoke) else {
        eprintln!("xheal-perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    println!("host: {}", host());

    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut measured = 0.0;
    loop {
        let enough = if args.trace {
            !untraced.is_empty() && !traced.is_empty()
        } else {
            untraced.len() >= MIN_PASSES
        };
        if enough && measured >= args.seconds {
            break;
        }
        // Traced passes replay the tapes the untraced ones did, in order.
        let trace_next = args.trace && traced.len() < untraced.len();
        let p = workload.pass(
            if trace_next {
                traced.len()
            } else {
                untraced.len()
            },
            trace_next,
        );
        measured += p.loop_s;
        println!(
            "pass {}: tape {} {} set-up {:.3} s, replay {:.3} s, {} ops",
            untraced.len() + traced.len(),
            p.tape,
            if trace_next { "traced" } else { "untraced" },
            p.setup_s,
            p.loop_s,
            p.ops
        );
        if trace_next {
            traced.push(p);
        } else {
            untraced.push(p);
        }
    }

    // A run too short to replay any tape twice replays tape 0 once more,
    // for the output checks only.
    let mut check_only = Vec::new();
    if !args.trace && untraced.len() <= TAPES as usize {
        let p = workload.pass(0, false);
        println!(
            "pass {}: tape 0 untraced, replayed for the output checks only",
            untraced.len()
        );
        check_only.push(p);
    }
    let all: Vec<&Pass> = untraced.iter().chain(&traced).chain(&check_only).collect();
    let mut attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = all.iter().map(|p| p.failed).sum();
    let mut failures: Vec<String> = all.iter().flat_map(|p| p.failures.clone()).collect();
    // Replays of one tape must end identically, traced or not.
    for (i, p) in all.iter().enumerate() {
        let Some(q) = all[..i].iter().find(|q| q.tape == p.tape) else {
            println!(
                "fingerprint: workload={} seed={} tape={} edges=0x{:016x}",
                args.workload, args.seed, p.tape, p.fingerprint
            );
            continue;
        };
        attempted += 1;
        if p.fingerprint != q.fingerprint || p.counts != q.counts {
            failed += 1;
            failures.push(format!("two replays of tape {} disagree", p.tape));
        }
    }
    for f in &failures {
        println!("FAILED: {f}");
    }

    let metrics = if args.trace {
        per_layer(&untraced, &traced)
    } else {
        end_to_end(&untraced)
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        println!("{name:<26} {value:>18.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            finite(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        json.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn end_to_end(passes: &[Pass]) -> Vec<(&'static str, f64)> {
    let mut steps: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.steps_us.iter().copied())
        .collect();
    steps.sort_by(f64::total_cmp);
    println!(
        "samples: {} steps over {} passes ({} beyond p99)",
        steps.len(),
        passes.len(),
        steps.len() - quantile_rank(steps.len(), 0.99) - 1
    );
    vec![
        (
            "setup_s",
            median(passes.iter().map(|p| p.setup_s).collect()),
        ),
        (
            "throughput_per_s",
            median(passes.iter().map(|p| p.ops as f64 / p.loop_s).collect()),
        ),
        ("step_p50_us", quantile(&steps, 0.5)),
        ("step_p99_us", quantile(&steps, 0.99)),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

fn per_layer(untraced: &[Pass], traced: &[Pass]) -> Vec<(&'static str, f64)> {
    let wall: f64 = traced.iter().map(|p| p.loop_s).sum();
    let median_loop = |ps: &[Pass]| median(ps.iter().map(|p| p.loop_s).collect());
    let nanos = |metric: &str| {
        traced
            .iter()
            .map(|p| p.attribution.get(metric))
            .sum::<u64>()
    };
    let share = |metric: &str| nanos(metric) as f64 * 1e-9 / wall;
    let attributed: u64 = traced.iter().map(|p| p.attribution.total()).sum();
    let unmapped = nanos("bench.unmapped");
    let mut out = vec![
        ("bench.traced_wall_s", wall),
        (
            "bench.untraced_wall_s",
            untraced.iter().map(|p| p.loop_s).sum(),
        ),
        (
            "bench.trace_overhead",
            median_loop(traced) / median_loop(untraced),
        ),
        (
            "bench.residual_share",
            1.0 - (attributed - unmapped) as f64 * 1e-9 / wall,
        ),
    ];
    for &(name, _) in PER_LAYER {
        if let Some(metric) = name.strip_suffix("_share") {
            if metric != "bench.residual" {
                out.push((name, share(metric)));
            }
        }
    }
    // Counts are tape 0's (its replays agree, checked in main), with the
    // allocations its traced replay charged to each layer.
    let p = &traced[0];
    out.extend(p.counts.iter().chain(&p.traced_counts).copied());
    out.extend([
        ("core.allocs", p.allocs[Tag::Core as usize] as f64),
        ("dist.allocs", p.allocs[Tag::Dist as usize] as f64),
        ("monitor.allocs", p.allocs[Tag::Monitor as usize] as f64),
        ("sim.allocs", p.allocs[Tag::Sim as usize] as f64),
    ]);
    if unmapped > 0 {
        println!("note: {unmapped} ns in spans with no layer (counted as residual)");
    }
    out
}

/// Index of the order statistic for quantile `q` of `n` sorted samples.
fn quantile_rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n) - 1
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[quantile_rank(sorted.len(), q)]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// JSON has no NaN or infinity.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host the figures were measured on.
fn host() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .find(|w| w.starts_with('['))
                .map(|w| w.trim_matches(['[', ']']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("nproc={nproc} cpu=\"{cpu}\" thp={thp}")
}
