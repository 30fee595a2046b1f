//! `dist-10k`: the distributed Xheal protocol over the async transport on
//! a 10k-node chord ring, under seeded single deletions and 16-victim
//! outages, with a `Monitor` subscribed and a full health checkpoint
//! (λ₂ included) every 100 events. The actor protocol drives the same
//! transport as `traffic-100k`, with bursty repair traffic instead of
//! steady routing, on a cache-resident graph.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use xheal_core::{Event, HealingEngine, TopologySink};
use xheal_dist::{DistXheal, Msg};
use xheal_graph::{generators, NodeId};
use xheal_monitor::{component_count, sampled_stretch, Monitor, MonitorConfig};
use xheal_sim::{AsyncConfig, AsyncNetwork, NetworkEngine};
use xheal_spectral::sweep_cut_csr;
use xheal_trace::{Layer, SharedTracer};

use crate::pass::{micros, Pass, Stopwatch, KAPPA, LINK_SEED, PLANNER_SEED};
use crate::probe::{self, span, Attribution, Tag, TimedNet, TimedSink};
use crate::tape;

const CHECKPOINT_EVERY: usize = 100;

pub struct Spec {
    pub n: usize,
    pub events: Vec<Event>,
}

pub fn spec(seed: u64, smoke: bool) -> Spec {
    let (n, len) = if smoke { (1_000, 200) } else { (10_000, 400) };
    Spec {
        n,
        events: tape::outages(seed, n, len, 25, 16),
    }
}

pub fn pass(spec: &Spec, traced: bool) -> Pass {
    let transport = AsyncNetwork::<Msg>::new(AsyncConfig::uniform(1, 3, LINK_SEED));
    if !traced {
        return run(spec, transport, None).0;
    }
    let tracer = probe::new_tracer();
    let timed = TimedNet::new(transport, tracer.clone());
    let (mut p, net) = run(spec, timed, Some(tracer));
    p.traced_counts
        .push(("sim.in_flight_max", net.engine().in_flight_max as f64));
    p
}

fn run<N: NetworkEngine<Msg>>(
    spec: &Spec,
    transport: N,
    tracer: Option<SharedTracer>,
) -> (Pass, DistXheal<N>) {
    let deltas = Rc::new(Cell::new(0u64));
    let t0 = Instant::now();
    let g0 = generators::ring_with_chords(spec.n);
    let monitor = Rc::new(RefCell::new(Monitor::new(&g0, MonitorConfig::default())));
    let sink: Box<dyn TopologySink> = match &tracer {
        Some(t) => Box::new(TimedSink::new(
            Rc::clone(&monitor),
            t.clone(),
            Rc::clone(&deltas),
        )),
        None => Box::new(Rc::clone(&monitor)),
    };
    let mut net = DistXheal::builder()
        .kappa(KAPPA)
        .seed(PLANNER_SEED)
        .engine(transport)
        .sink(sink)
        .build(&g0);
    drop(g0);
    // The first checkpoint runs λ₂ cold; a long-running service pays that
    // once, so it belongs to set-up and the timed ones start warm.
    monitor.borrow_mut().checkpoint();
    let mut p = Pass {
        setup_s: t0.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    net.set_tracer(tracer.clone());

    let mut attribution = if tracer.is_some() {
        Attribution::calibrated()
    } else {
        Attribution::default()
    };
    if tracer.is_some() {
        probe::start_counting();
    }
    let mut checkpoints = 0u64;
    let mut restarts = 0u64;
    let mut lambda2 = 0.0;
    let mut clock = Stopwatch::start();
    for (i, ev) in spec.events.iter().enumerate() {
        let t = Instant::now();
        let r = span(&tracer, Layer::Protocol, "bench.dist", Tag::Dist, || {
            net.apply(ev)
        });
        let dt = t.elapsed();
        span(&tracer, Layer::Monitor, "mon.policy", Tag::Monitor, || {
            monitor.borrow_mut().evaluate_policy()
        });
        p.steps_us.push(micros(dt));
        p.op(r);
        let checkpoint = (i + 1) % CHECKPOINT_EVERY == 0;
        if checkpoint {
            let report = span(
                &tracer,
                Layer::Monitor,
                "mon.checkpoint",
                Tag::Monitor,
                || monitor.borrow_mut().checkpoint(),
            );
            checkpoints += 1;
            restarts += report.spectral_gap.restarts as u64;
            lambda2 = report.spectral_gap.lambda;
            p.check(report.components == 1, || {
                format!(
                    "checkpoint {checkpoints} saw {} components",
                    report.components
                )
            });
        }
        if let Some(t) = &tracer {
            clock.pause();
            let before = attribution.get("monitor.checkpoint");
            attribution.drain(t);
            if checkpoint {
                let total = attribution.get("monitor.checkpoint") - before;
                split_checkpoint(&monitor.borrow(), &mut attribution, total);
            }
            clock.resume();
        }
    }
    p.loop_s = clock.secs();
    p.ops = spec.events.len() as u64;
    if tracer.is_some() {
        p.allocs = probe::stop_counting();
        p.attribution = attribution;
        p.traced_counts.push(("core.deltas", deltas.get() as f64));
    }

    let m = monitor.borrow();
    let g = net.graph();
    p.check_graph(g);
    p.check(m.csr().validate().is_ok(), || {
        "monitor CSR failed validation".into()
    });
    p.check(
        m.node_count() == g.node_count() && m.edge_count() == g.edge_count(),
        || "monitor counts differ from the engine graph".into(),
    );
    p.check(net.mirrors_graph(), || {
        "transport membership differs from the graph".into()
    });
    p.count_planner(net.planner());
    let c = net.counters();
    let costs = net.costs();
    let repairs = costs.len().max(1) as f64;
    let (labels, kinds) = net.message_breakdown();
    p.check(labels.len() == 6, || "message breakdown is empty".into());
    for (label, &count) in labels.iter().zip(kinds) {
        p.counts.push((msg_metric(label), count as f64));
    }
    p.counts.extend([
        ("dist.rounds", c.rounds as f64),
        (
            "dist.msgs_per_repair",
            costs.iter().map(|r| r.messages).sum::<u64>() as f64 / repairs,
        ),
        (
            "dist.rounds_per_repair",
            costs.iter().map(|r| r.rounds).sum::<u64>() as f64 / repairs,
        ),
        ("sim.sends", kinds.iter().sum::<u64>() as f64),
        ("sim.delivered", c.messages as f64),
        ("sim.dropped", c.dropped as f64),
        ("sim.rounds", c.rounds as f64),
        ("monitor.deltas", m.generation() as f64),
        ("monitor.compactions", m.csr().compactions() as f64),
        ("monitor.tombstones", m.csr().tombstones() as f64),
        ("monitor.degree_increase", m.degree_increase()),
        ("monitor.checkpoints", checkpoints as f64),
        ("spectral.restarts", restarts as f64),
        ("spectral.lambda2", lambda2),
    ]);
    drop(m);
    (p, net)
}

fn msg_metric(label: &str) -> &'static str {
    match label {
        "probe" => "dist.msgs.probe",
        "grant" => "dist.msgs.grant",
        "link" => "dist.msgs.link",
        "unlink" => "dist.msgs.unlink",
        "splice" => "dist.msgs.splice",
        "splice_ack" => "dist.msgs.splice_ack",
        _ => "dist.msgs.other",
    }
}

/// Splits one checkpoint's self time by re-timing its read-only parts on
/// the same topology: the CSR snapshot, the sweep cut (a cold Fiedler
/// solve), and components plus sampled stretch. What remains is the
/// warm-started Lanczos λ₂ chase, which cannot be re-run without moving
/// the tracker's state. The stretch sample is 16 evenly spaced live
/// nodes, the reservoir's capacity; the reservoir itself is private.
fn split_checkpoint(m: &Monitor, attribution: &mut Attribution, total: u64) {
    let nanos = |t: Instant| t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let view = m.csr().snapshot();
    let snapshot = nanos(t);
    let t = Instant::now();
    std::hint::black_box(sweep_cut_csr(&view));
    let sweep = nanos(t);
    let step = (view.len() / 16).max(1);
    let sample: Vec<NodeId> = view
        .nodes()
        .iter()
        .step_by(step)
        .take(16)
        .copied()
        .collect();
    let t = Instant::now();
    std::hint::black_box(component_count(&view));
    std::hint::black_box(sampled_stretch(&view, m.gprime(), &sample));
    let rest = nanos(t);
    let lanczos = total.saturating_sub(snapshot + sweep + rest);
    attribution.shift("monitor.checkpoint", "monitor.snapshot", snapshot);
    attribution.shift("monitor.checkpoint", "spectral.sweep", sweep);
    attribution.shift("monitor.checkpoint", "spectral.lanczos", lanczos);
}
