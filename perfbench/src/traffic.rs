//! `traffic-100k`: greedy-routed requests over a 100k-node chord ring,
//! forwarded hop by hop as `AsyncNetwork` messages (uniform 1–2 round
//! links plus 1 round of jitter, TTL 128) with a window of 8192 requests
//! in flight, while processors are deleted mid-flight and sequential Xheal
//! heals around them, each heal followed by a fresh `csr_view` snapshot.
//! Transport and routing dominate; the planner barely runs.

use std::time::Instant;

use xheal_core::Xheal;
use xheal_graph::{generators, CsrView, NodeId};
use xheal_sim::{AsyncConfig, AsyncNetwork, Envelope, NetworkEngine};
use xheal_trace::{Layer, SharedTracer};
use xheal_workload::{greedy_next_hop, RoutingRequest};

use crate::pass::{micros, Pass, Stopwatch, KAPPA, LINK_SEED, PLANNER_SEED};
use crate::probe::{self, span, Attribution, Tag, TimedNet};
use crate::tape::{self, TrafficTape};

const WINDOW: u64 = 8_192;
const TTL: u32 = 128;
/// Tick-latency histogram width; the last bucket absorbs any tail.
const LAT_HIST: usize = 4_096;

pub struct Spec {
    pub n: usize,
    pub tape: TrafficTape,
}

pub fn spec(seed: u64, smoke: bool) -> Spec {
    // One deletion per 25k requests, as in the 1.2M-request / 48-deletion
    // routed run this workload is cut from.
    let (n, requests, victims) = if smoke {
        (2_000, 20_000, 4)
    } else {
        (100_000, 400_000, 16)
    };
    Spec {
        n,
        tape: tape::traffic(seed, n, requests, victims),
    }
}

pub fn pass(spec: &Spec, traced: bool) -> Pass {
    if !traced {
        return run(spec, None, |net| net).0;
    }
    let tracer = probe::new_tracer();
    let t = tracer.clone();
    let (mut p, net) = run(spec, Some(tracer), |net| TimedNet::new(net, t));
    p.traced_counts
        .push(("sim.in_flight_max", net.in_flight_max as f64));
    p
}

struct Routing<'a, N> {
    engine: N,
    csr: CsrView,
    ring: u64,
    tracer: Option<SharedTracer>,
    tape: &'a TrafficTape,
    with_mail: Vec<NodeId>,
    mail: Vec<Envelope<RoutingRequest>>,
    dropped: Vec<Envelope<RoutingRequest>>,
    injected: u64,
    open: u64,
    steps: u64,
    completed: u64,
    /// Requests dropped because churn deleted their next hop in flight or
    /// their destination: the cost of the outage, not a routing failure.
    lost_to_churn: u64,
    /// Requests that ran out of TTL or found no next hop.
    failed: u64,
    next_hops: u64,
    hops: u64,
    lat_hist: Vec<u64>,
}

impl<N: NetworkEngine<RoutingRequest>> Routing<'_, N> {
    fn route(&mut self, at: usize, dst: usize, salt: u64) -> Option<usize> {
        self.next_hops += 1;
        let csr = &self.csr;
        let ring = self.ring;
        span(
            &self.tracer,
            Layer::Harness,
            "workload.route",
            Tag::Workload,
            || greedy_next_hop(csr, at, dst, ring, salt),
        )
    }

    fn inject(&mut self) {
        let (si, di) = tape::pair_in(self.tape.pairs[self.injected as usize], self.csr.len());
        self.injected += 1;
        match self.route(si, di, 1) {
            Some(next) => {
                let req = RoutingRequest {
                    dst: self.csr.node(di),
                    hops: 1,
                    ttl: TTL,
                    born: self.steps,
                };
                self.engine
                    .send(self.csr.node(si), self.csr.node(next), req);
                self.open += 1;
            }
            None => self.failed += 1,
        }
    }

    /// One engine round: deliver, then complete, forward, or lose every
    /// delivered request.
    fn round(&mut self) {
        self.engine.step();
        self.steps += 1;
        self.engine.nodes_with_mail_into(&mut self.with_mail);
        let with_mail = std::mem::take(&mut self.with_mail);
        let mut mail = std::mem::take(&mut self.mail);
        for &at in &with_mail {
            self.engine.drain_inbox_into(at, &mut mail);
            for env in mail.drain(..) {
                self.deliver(env.to, env.payload);
            }
        }
        self.with_mail = with_mail;
        self.mail = mail;
        self.engine.drain_dropped_into(&mut self.dropped);
        self.lost_to_churn += self.dropped.len() as u64;
        self.open -= self.dropped.len() as u64;
        self.dropped.clear();
    }

    fn deliver(&mut self, at: NodeId, req: RoutingRequest) {
        if at == req.dst {
            self.completed += 1;
            self.open -= 1;
            self.hops += u64::from(req.hops);
            self.lat_hist[((self.steps - req.born) as usize).min(LAT_HIST - 1)] += 1;
            return;
        }
        let (Some(ai), Some(di)) = (self.csr.index_of(at), self.csr.index_of(req.dst)) else {
            self.lost_to_churn += 1; // the destination was deleted in flight
            self.open -= 1;
            return;
        };
        let next = if req.ttl == 0 {
            None
        } else {
            self.route(ai, di, u64::from(req.hops))
        };
        match next {
            Some(next) => {
                let fwd = RoutingRequest {
                    hops: req.hops + 1,
                    ttl: req.ttl - 1,
                    ..req
                };
                self.engine.send(at, self.csr.node(next), fwd);
            }
            None => {
                self.failed += 1;
                self.open -= 1;
            }
        }
    }
}

/// Sets up on the bare transport, then replays through `wrap(transport)`.
fn run<N: NetworkEngine<RoutingRequest>>(
    spec: &Spec,
    tracer: Option<SharedTracer>,
    wrap: impl FnOnce(AsyncNetwork<RoutingRequest>) -> N,
) -> (Pass, N) {
    let t0 = Instant::now();
    let links = AsyncConfig::uniform(1, 2, LINK_SEED).with_jitter(1);
    let settle = links.worst_case_delay();
    let mut engine = AsyncNetwork::new(links);
    let g0 = generators::ring_with_chords(spec.n);
    let mut healer = Xheal::builder().kappa(KAPPA).seed(PLANNER_SEED).build(&g0);
    for v in g0.nodes() {
        engine.add_node(v);
    }
    // Warm sweep: every inbox allocates on its first delivery, so one
    // self-addressed message per processor, drained and discarded, keeps
    // those one-time allocations out of the timed loop.
    let warm = RoutingRequest {
        dst: NodeId::new(u64::MAX),
        hops: 0,
        ttl: 0,
        born: 0,
    };
    for v in g0.nodes() {
        engine.send(v, v, warm);
    }
    let mut with_mail = Vec::new();
    let mut mail = Vec::new();
    while engine.has_pending() {
        engine.step();
        engine.nodes_with_mail_into(&mut with_mail);
        for &v in &with_mail {
            engine.drain_inbox_into(v, &mut mail);
        }
    }
    mail.reserve(1024);
    let c0 = engine.counters();
    let csr = healer.graph().csr_view();
    drop(g0);
    let mut p = Pass {
        setup_s: t0.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    healer.set_tracer(tracer.clone());

    let requests = spec.tape.pairs.len() as u64;
    let victims = spec.tape.victims.len() as u64;
    let churn_every = requests / (victims + 1);
    let mut r = Routing {
        engine: wrap(engine),
        csr,
        ring: spec.n as u64,
        tracer: tracer.clone(),
        tape: &spec.tape,
        with_mail,
        mail,
        dropped: Vec::with_capacity(1024),
        injected: 0,
        open: 0,
        steps: 0,
        completed: 0,
        lost_to_churn: 0,
        failed: 0,
        next_hops: 0,
        hops: 0,
        lat_hist: vec![0; LAT_HIST],
    };
    let mut attribution = if tracer.is_some() {
        Attribution::calibrated()
    } else {
        Attribution::default()
    };
    if tracer.is_some() {
        probe::start_counting();
    }
    let mut churned = 0u64;
    let mut csr_views = 1u64;
    let mut clock = Stopwatch::start();
    while r.injected < requests || r.open > 0 {
        let t = Instant::now();
        span(
            &tracer,
            Layer::Harness,
            "bench.inject",
            Tag::Harness,
            || {
                while r.injected < requests && r.open < WINDOW {
                    r.inject();
                }
            },
        );
        span(&tracer, Layer::Harness, "bench.round", Tag::Harness, || {
            r.round()
        });
        if churned < victims && r.injected >= (churned + 1) * churn_every {
            let victim = spec.tape.victims[churned as usize];
            span(&tracer, Layer::Harness, "bench.churn", Tag::Harness, || {
                let healed = span(&tracer, Layer::Executor, "bench.xheal", Tag::Core, || {
                    healer.heal_delete(victim)
                });
                p.op(healed);
                r.engine.remove_node(victim);
                r.csr = span(
                    &tracer,
                    Layer::Harness,
                    "graph.csr_view",
                    Tag::Graph,
                    || healer.graph().csr_view(),
                );
                // Let traffic already addressed to the victim drain.
                for _ in 0..settle {
                    r.round();
                }
            });
            churned += 1;
            csr_views += 1;
        }
        p.steps_us.push(micros(t.elapsed()));
        if let Some(t) = &tracer {
            clock.pause();
            attribution.drain(t);
            clock.resume();
        }
    }
    p.loop_s = clock.secs();
    let c = r.engine.counters().since(c0);
    p.ops = c.messages + c.dropped;
    if tracer.is_some() {
        p.allocs = probe::stop_counting();
        p.attribution = attribution;
    }

    p.attempted += requests;
    p.failed += r.failed;
    if r.failed > 0 {
        p.failures
            .push(format!("{} requests found no route", r.failed));
    }
    p.check(
        r.completed + r.lost_to_churn + r.failed == r.injected && r.injected == requests,
        || "request accounting leaked".into(),
    );
    p.check_graph(healer.graph());
    p.count_planner(healer.planner());
    p.counts.extend([
        ("graph.csr_views", csr_views as f64),
        ("sim.sends", p.ops as f64),
        ("sim.delivered", c.messages as f64),
        ("sim.dropped", c.dropped as f64),
        ("sim.rounds", c.rounds as f64),
        ("workload.next_hops", r.next_hops as f64),
        (
            "workload.hops_mean",
            r.hops as f64 / r.completed.max(1) as f64,
        ),
        (
            "workload.req_p99_ticks",
            hist_quantile(&r.lat_hist, r.completed, 0.99) as f64,
        ),
        ("workload.lost_to_churn", r.lost_to_churn as f64),
    ]);
    (p, r.engine)
}

/// The smallest value whose cumulative count reaches quantile `q` of
/// `total` (bucket index = value).
fn hist_quantile(hist: &[u64], total: u64, q: f64) -> u64 {
    let target = ((total as f64 * q).ceil() as u64).max(1);
    let mut seen = 0;
    for (v, &count) in hist.iter().enumerate() {
        seen += count;
        if seen >= target {
            return v as u64;
        }
    }
    hist.len() as u64 - 1
}
