//! Traced-run instruments, all on the benchmark's side of the crates'
//! public APIs: spans recorded into the crates' own `xheal-trace` tracer
//! around every call into a layer, a layer-tagged allocation counter, a
//! timing `TopologySink`, and a timing `NetworkEngine`.
//!
//! Every span of a traced pass lands in one tracer — the benchmark's
//! spans next to the planner and executor spans the engines record
//! themselves — so one clock orders them all. [`Attribution::drain`]
//! folds the recorded spans into per-layer self times (a span's duration
//! minus the part its child spans cover) at quiet points between events.
//! Recording a span or an instant takes time inside the spans around it;
//! [`SpanCost`] measures that time once per traced pass, and the drain
//! moves it out of the layers into `bench.instrumentation`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use xheal_core::{TopologyDelta, TopologySink};
use xheal_graph::NodeId;
use xheal_sim::{AsyncNetwork, Counters, Envelope, NetworkEngine};
use xheal_trace::{hook, EvKind, Layer, SharedTracer, SpanEvent, Tracer};

// ---------------------------------------------------------------------------
// Layer-tagged allocation counting
// ---------------------------------------------------------------------------

/// The layer an allocation is charged to: the innermost instrumented call
/// running when it happens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    Harness = 0,
    Core = 1,
    Dist = 2,
    Monitor = 3,
    Sim = 4,
    Graph = 5,
    Workload = 6,
}

pub const TAGS: usize = 7;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CURRENT: AtomicUsize = AtomicUsize::new(Tag::Harness as usize);
static ALLOCS: [AtomicU64; TAGS] = [const { AtomicU64::new(0) }; TAGS];

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` guarantees are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System`; the caller's size guarantees
        // are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[inline]
fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS[CURRENT.load(Ordering::Relaxed)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Starts counting allocations from zero (traced passes only; untraced
/// passes pay one relaxed load per allocation).
pub fn start_counting() {
    for a in &ALLOCS {
        a.store(0, Ordering::Relaxed);
    }
    CURRENT.store(Tag::Harness as usize, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
}

/// Stops counting and returns the allocations charged to each tag.
pub fn stop_counting() -> [u64; TAGS] {
    COUNTING.store(false, Ordering::Relaxed);
    std::array::from_fn(|i| ALLOCS[i].load(Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Runs `f` inside a span `name` and charges its allocations to `tag`.
/// With no tracer this is a single branch around the call.
#[inline]
pub fn span<R>(
    tracer: &Option<SharedTracer>,
    layer: Layer,
    name: &'static str,
    tag: Tag,
    f: impl FnOnce() -> R,
) -> R {
    if tracer.is_none() {
        return f();
    }
    hook::begin(tracer, layer, name, 0, 0);
    let outer = CURRENT.swap(tag as usize, Ordering::Relaxed);
    let r = f();
    CURRENT.store(outer, Ordering::Relaxed);
    hook::end(tracer, layer, name, 0, 0);
    r
}

/// A tracer whose ring holds every span one event or round records
/// between drains (the drain asserts nothing was overwritten).
pub fn new_tracer() -> SharedTracer {
    Tracer::shared(1 << 20)
}

/// The per-layer self time a span is charged to. Planner spans (`plan.*`)
/// are the core planner; `exec.apply` is the plan applied into `Graph`;
/// the remaining executor spans are engine bookkeeping around them (victim
/// removal, insertions, delta emission outside apply). Everything else is
/// a span this benchmark records around a public call.
fn metric_of(layer: Layer, name: &str) -> &'static str {
    if layer == Layer::Planner {
        return "core.plan";
    }
    match name {
        "exec.apply" => "graph.apply",
        "exec.repair" | "exec.batch" | "bench.xheal" => "core.exec",
        "bench.dist" | "proto.run" => "dist.protocol",
        "mon.ingest" => "monitor.ingest",
        "mon.policy" => "monitor.policy",
        "mon.checkpoint" => "monitor.checkpoint",
        "graph.csr_view" => "graph.csr_view",
        "sim.send" => "sim.send",
        "sim.step" => "sim.step",
        "sim.drain" => "sim.drain",
        "workload.route" => "workload.route",
        "bench.round" | "bench.inject" | "bench.churn" => "bench.harness",
        _ => "bench.unmapped",
    }
}

/// What recording trace events costs the spans around them, in
/// nanoseconds, measured on the host running the benchmark.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SpanCost {
    /// Per span, inside it: the part of its begin recorded after the
    /// opening timestamp plus the part of its end recorded before the
    /// closing one.
    pub own: u64,
    /// Per child span, inside the enclosing span: the rest of the child's
    /// begin and end.
    pub parent: u64,
    /// Per instant, inside the enclosing span.
    pub instant: u64,
}

impl SpanCost {
    /// Times empty spans and instants recorded the way a traced pass
    /// records them, and takes the median over several rounds.
    pub fn measure() -> Self {
        const PER_ROUND: u64 = 10_000;
        const ROUNDS: usize = 15;
        let tracer = new_tracer();
        let t = Some(tracer.clone());
        let (mut own, mut parent, mut instant) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            span(&t, Layer::Harness, "bench.calibrate", Tag::Harness, || {
                for _ in 0..PER_ROUND {
                    span(&t, Layer::Harness, "bench.empty", Tag::Harness, || ());
                }
            });
            let (root, children) = root_and_children(&mut hook::lock(&tracer));
            own.push(children / PER_ROUND);
            parent.push(root.saturating_sub(children) / PER_ROUND);
            span(&t, Layer::Harness, "bench.calibrate", Tag::Harness, || {
                for _ in 0..PER_ROUND {
                    hook::instant(&t, Layer::Harness, "bench.empty", 0, 0);
                }
            });
            let (root, _) = root_and_children(&mut hook::lock(&tracer));
            instant.push(root / PER_ROUND);
        }
        let median = |mut v: Vec<u64>| {
            v.sort_unstable();
            v[v.len() / 2]
        };
        SpanCost {
            own: median(own),
            parent: median(parent),
            instant: median(instant),
        }
    }
}

/// The duration of the one root span in `t` and the summed durations of
/// its direct children; empties the ring.
fn root_and_children(t: &mut Tracer) -> (u64, u64) {
    let (mut root, mut children, mut depth, mut opened) = (0, 0, 0, [0u64; 2]);
    for ev in t.events() {
        match ev.kind {
            EvKind::Begin => {
                if depth < 2 {
                    opened[depth] = ev.ts_nanos;
                }
                depth += 1;
            }
            EvKind::End => {
                depth -= 1;
                let dur = ev.ts_nanos.saturating_sub(opened[depth.min(1)]);
                match depth {
                    0 => root = dur,
                    1 => children += dur,
                    _ => {}
                }
            }
            EvKind::Instant => {}
        }
    }
    t.clear();
    (root, children)
}

/// Self times per layer metric, in nanoseconds.
#[derive(Default, Debug)]
pub struct Attribution {
    pub nanos: BTreeMap<&'static str, u64>,
    /// Recording cost taken out of each span's self time (zero: none).
    pub cost: SpanCost,
}

impl Attribution {
    /// An attribution that charges recording cost, measured now, to
    /// `bench.instrumentation` instead of the layers.
    pub fn calibrated() -> Self {
        let cost = SpanCost::measure();
        println!(
            "span cost: {} ns inside a span, {} ns around it, {} ns per instant",
            cost.own, cost.parent, cost.instant
        );
        Attribution {
            cost,
            ..Attribution::default()
        }
    }

    pub fn add(&mut self, metric: &'static str, nanos: u64) {
        *self.nanos.entry(metric).or_default() += nanos;
    }

    pub fn get(&self, metric: &str) -> u64 {
        self.nanos.get(metric).copied().unwrap_or(0)
    }

    /// Moves `nanos` of `from`'s self time to `to`.
    pub fn shift(&mut self, from: &'static str, to: &'static str, nanos: u64) {
        let have = self.nanos.entry(from).or_default();
        let moved = nanos.min(*have);
        *have -= moved;
        self.add(to, moved);
    }

    pub fn total(&self) -> u64 {
        self.nanos.values().sum()
    }

    /// Folds every span recorded since the last drain into self times and
    /// empties the ring. Call only between events, when no span is open.
    /// Each span's recording cost, and that of the child spans and
    /// instants inside it, moves from its self time to
    /// `bench.instrumentation` (at most the whole self time).
    ///
    /// # Panics
    ///
    /// Panics if the ring overwrote events (the attribution would be
    /// short) or a span is still open.
    pub fn drain(&mut self, tracer: &SharedTracer) {
        let mut t = hook::lock(tracer);
        assert_eq!(t.dropped(), 0, "trace ring overflowed between drains");
        self.fold(&t.events());
        t.clear();
    }

    /// Folds a balanced run of lane-0 events into self times.
    fn fold(&mut self, events: &[SpanEvent]) {
        struct Open {
            metric: &'static str,
            start: u64,
            /// Time covered by child spans.
            covered: u64,
            /// Recording cost inside this span.
            cost: u64,
        }
        let mut open: Vec<Open> = Vec::new();
        for ev in events {
            if ev.lane != 0 {
                continue; // worker lanes nest inside a lane-0 span already
            }
            match ev.kind {
                EvKind::Begin => open.push(Open {
                    metric: metric_of(ev.layer, ev.name),
                    start: ev.ts_nanos,
                    covered: 0,
                    cost: self.cost.own,
                }),
                EvKind::End => {
                    let span = open.pop().expect("balanced spans");
                    let dur = ev.ts_nanos.saturating_sub(span.start);
                    let own = dur.saturating_sub(span.covered);
                    let cost = span.cost.min(own);
                    self.add(span.metric, own - cost);
                    self.add("bench.instrumentation", cost);
                    if let Some(parent) = open.last_mut() {
                        parent.covered += dur;
                        parent.cost += self.cost.parent;
                    }
                }
                EvKind::Instant => {
                    if let Some(parent) = open.last_mut() {
                        parent.cost += self.cost.instant;
                    }
                }
            }
        }
        assert!(open.is_empty(), "drained with a span still open");
    }
}

// ---------------------------------------------------------------------------
// Timing sink
// ---------------------------------------------------------------------------

/// A `TopologySink` that times every delivery into the sink it wraps and
/// counts the deltas delivered.
pub struct TimedSink<S> {
    inner: S,
    tracer: Option<SharedTracer>,
    deltas: Rc<Cell<u64>>,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S, tracer: SharedTracer, deltas: Rc<Cell<u64>>) -> Self {
        TimedSink {
            inner,
            tracer: Some(tracer),
            deltas,
        }
    }
}

impl<S: TopologySink> TopologySink for TimedSink<S> {
    fn on_delta(&mut self, delta: &TopologyDelta) {
        self.deltas.set(self.deltas.get() + 1);
        let inner = &mut self.inner;
        span(
            &self.tracer,
            Layer::Monitor,
            "mon.ingest",
            Tag::Monitor,
            || inner.on_delta(delta),
        );
    }

    fn on_deltas(&mut self, deltas: &[TopologyDelta]) {
        self.deltas.set(self.deltas.get() + deltas.len() as u64);
        let inner = &mut self.inner;
        span(
            &self.tracer,
            Layer::Monitor,
            "mon.ingest",
            Tag::Monitor,
            || inner.on_deltas(deltas),
        );
    }
}

// ---------------------------------------------------------------------------
// Timing transport
// ---------------------------------------------------------------------------

/// A `NetworkEngine` around `AsyncNetwork` timing sends, rounds, and
/// inbox drains, and tracking the in-flight high-water mark. Classifier
/// and tracer calls are forwarded, so per-kind message breakdowns and
/// transport instants still reach the wrapped engine.
pub struct TimedNet<M> {
    inner: AsyncNetwork<M>,
    tracer: Option<SharedTracer>,
    pub in_flight_max: usize,
}

impl<M> TimedNet<M> {
    pub fn new(inner: AsyncNetwork<M>, tracer: SharedTracer) -> Self {
        TimedNet {
            inner,
            tracer: Some(tracer),
            in_flight_max: 0,
        }
    }
}

impl<M> NetworkEngine<M> for TimedNet<M> {
    fn add_node(&mut self, v: NodeId) {
        self.inner.add_node(v);
    }

    fn remove_node(&mut self, v: NodeId) {
        self.inner.remove_node(v);
    }

    fn contains(&self, v: NodeId) -> bool {
        self.inner.contains(v)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        let inner = &mut self.inner;
        span(&self.tracer, Layer::Transport, "sim.send", Tag::Sim, || {
            inner.send(from, to, payload)
        });
        self.in_flight_max = self.in_flight_max.max(self.inner.in_flight());
    }

    fn step(&mut self) -> usize {
        let inner = &mut self.inner;
        span(&self.tracer, Layer::Transport, "sim.step", Tag::Sim, || {
            inner.step()
        })
    }

    fn has_pending(&self) -> bool {
        self.inner.has_pending()
    }

    fn nodes_with_mail_into(&self, out: &mut Vec<NodeId>) {
        let inner = &self.inner;
        span(
            &self.tracer,
            Layer::Transport,
            "sim.drain",
            Tag::Sim,
            || inner.nodes_with_mail_into(out),
        );
    }

    fn drain_inbox_into(&mut self, v: NodeId, out: &mut Vec<Envelope<M>>) {
        let inner = &mut self.inner;
        span(
            &self.tracer,
            Layer::Transport,
            "sim.drain",
            Tag::Sim,
            || inner.drain_inbox_into(v, out),
        );
    }

    fn drain_dropped_into(&mut self, out: &mut Vec<Envelope<M>>) {
        let inner = &mut self.inner;
        span(
            &self.tracer,
            Layer::Transport,
            "sim.drain",
            Tag::Sim,
            || inner.drain_dropped_into(out),
        );
    }

    fn counters(&self) -> Counters {
        self.inner.counters()
    }

    fn set_classifier(&mut self, labels: &'static [&'static str], classify: fn(&M) -> usize) {
        self.inner.set_classifier(labels, classify);
    }

    fn kind_counts(&self) -> (&'static [&'static str], &[u64]) {
        self.inner.kind_counts()
    }

    fn set_tracer(&mut self, tracer: Option<SharedTracer>) {
        self.inner.set_tracer(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root_spans() {
        let tracer = new_tracer();
        let t = Some(tracer.clone());
        span(&t, Layer::Executor, "bench.xheal", Tag::Core, || {
            hook::begin(&t, Layer::Planner, "plan.single", 1, 0);
            std::thread::sleep(std::time::Duration::from_millis(2));
            hook::end(&t, Layer::Planner, "plan.single", 1, 0);
            span(&t, Layer::Executor, "exec.apply", Tag::Core, || {
                span(&t, Layer::Monitor, "mon.ingest", Tag::Monitor, || {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                })
            });
        });
        let root = {
            let spans = hook::lock(&tracer).completed_spans();
            spans[0].dur_nanos.expect("closed")
        };
        let mut a = Attribution::default();
        a.drain(&tracer);
        assert_eq!(a.total(), root);
        assert!(a.get("core.plan") >= 2_000_000);
        assert!(a.get("monitor.ingest") >= 1_000_000);
        assert!(hook::lock(&tracer).is_empty(), "drain empties the ring");
    }

    #[test]
    fn recording_cost_moves_to_instrumentation() {
        let tracer = new_tracer();
        let t = Some(tracer.clone());
        span(&t, Layer::Harness, "bench.round", Tag::Harness, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            for _ in 0..3 {
                span(&t, Layer::Transport, "sim.send", Tag::Sim, || {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                });
            }
            hook::instant(&t, Layer::Transport, "net.step", 0, 0);
        });
        let cost = SpanCost {
            own: 1_000,
            parent: 10_000,
            instant: 100_000,
        };
        let mut plain = Attribution::default();
        let mut charged = Attribution {
            cost,
            ..Attribution::default()
        };
        let events = hook::lock(&tracer).events();
        plain.fold(&events);
        charged.fold(&events);
        assert_eq!(charged.total(), plain.total());
        // One harness span with three children and an instant; three sends.
        assert_eq!(
            charged.get("bench.instrumentation"),
            4 * 1_000 + 3 * 10_000 + 100_000
        );
        assert_eq!(charged.get("sim.send"), plain.get("sim.send") - 3 * 1_000);
    }

    #[test]
    fn measured_span_cost_is_small() {
        let cost = SpanCost::measure();
        assert!(cost.own + cost.parent < 100_000, "{cost:?}");
    }

    #[test]
    fn allocations_are_charged_to_the_innermost_tag() {
        let t = Some(new_tracer());
        start_counting();
        let v = span(&t, Layer::Transport, "sim.send", Tag::Sim, || vec![1u8; 64]);
        let counts = stop_counting();
        drop(v);
        assert!(counts[Tag::Sim as usize] >= 1);
    }
}
