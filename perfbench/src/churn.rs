//! `churn-100k`: sequential Xheal on a 100k-node chord ring under a
//! closed-loop insert/delete/rack-outage tape, with a live `Monitor`
//! subscribed as a sink and the cheap health policy evaluated after every
//! event. Planner, delta apply, delta emission and monitor CSR patching do
//! all the work; there is no transport.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use xheal_core::{Event, HealingEngine, TopologySink, Xheal};
use xheal_graph::generators;
use xheal_monitor::{Monitor, MonitorConfig};
use xheal_trace::Layer;

use crate::pass::{micros, Pass, Stopwatch, KAPPA, PLANNER_SEED};
use crate::probe::{self, span, Attribution, Tag, TimedSink};
use crate::tape;

pub struct Spec {
    pub n: usize,
    pub events: Vec<Event>,
}

pub fn spec(seed: u64, smoke: bool) -> Spec {
    let (n, len) = if smoke {
        (2_000, 400)
    } else {
        (100_000, 6_000)
    };
    Spec {
        n,
        events: tape::churn(seed, n, len, 100, 32),
    }
}

pub fn pass(spec: &Spec, traced: bool) -> Pass {
    let tracer = traced.then(probe::new_tracer);
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
    let mut net = Xheal::builder()
        .kappa(KAPPA)
        .seed(PLANNER_SEED)
        .sink(sink)
        .build(&g0);
    drop(g0);
    let mut p = Pass {
        setup_s: t0.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    net.set_tracer(tracer.clone());

    let mut attribution = if traced {
        Attribution::calibrated()
    } else {
        Attribution::default()
    };
    if traced {
        probe::start_counting();
    }
    let mut clock = Stopwatch::start();
    for ev in &spec.events {
        let t = Instant::now();
        let r = span(&tracer, Layer::Executor, "bench.xheal", Tag::Core, || {
            net.apply(ev)
        });
        let dt = t.elapsed();
        span(&tracer, Layer::Monitor, "mon.policy", Tag::Monitor, || {
            monitor.borrow_mut().evaluate_policy()
        });
        // Insertions heal nothing (a few µs each); latency is the repairs'.
        if ev.is_delete() {
            p.steps_us.push(micros(dt));
        }
        p.op(r);
        if let Some(t) = &tracer {
            clock.pause();
            attribution.drain(t);
            clock.resume();
        }
    }
    p.loop_s = clock.secs();
    p.ops = spec.events.len() as u64;
    if traced {
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
    p.count_planner(net.planner());
    p.counts.extend([
        ("monitor.deltas", m.generation() as f64),
        ("monitor.compactions", m.csr().compactions() as f64),
        ("monitor.tombstones", m.csr().tombstones() as f64),
        ("monitor.degree_increase", m.degree_increase()),
    ]);
    p
}
