//! # xheal-trace
//!
//! Cross-layer structured tracing for the healing stack: hierarchical spans
//! (repair → plan phase → action application → protocol round) recorded
//! into a reusable ring-buffer [`Tracer`], a [`MetricsRegistry`] of
//! counters/gauges/log-bucket histograms snapshot-diffable per event, a
//! repair-forensics ledger ([`ForensicsLedger`]) keyed by repair sequence
//! number, and a chrome://tracing Trace Event JSON exporter.
//!
//! The subsystem is **pay-for-what-you-use**: every instrumentation point in
//! the workspace is a branch on an `Option<`[`SharedTracer`]`>` handle (see
//! [`hook`]), so with no tracer attached nothing is locked, recorded, or
//! allocated. With a tracer attached, recording a span event is one mutex
//! lock plus one write into a preallocated ring — steady-state recording
//! never allocates (the ring overwrites its oldest events when full).
//!
//! Spans are **lane-aware** for deterministic parallel capture: worker
//! threads record into logical lanes keyed by *task identity* (e.g. dead
//! component index), not thread id, and [`Tracer::span_tree`] merges lanes
//! in `(lane, per-lane sequence)` order — so identical seeds produce
//! identical span trees at every thread count.
//!
//! # Examples
//!
//! ```
//! use xheal_trace::{Layer, Tracer};
//!
//! let mut t = Tracer::new(128);
//! t.begin(Layer::Executor, "repair", 1, 0);
//! t.begin(Layer::Planner, "plan.single", 1, 3);
//! t.instant(Layer::Planner, "plan.case", 1, 2);
//! t.end(Layer::Planner, "plan.single", 1, 3);
//! t.end(Layer::Executor, "repair", 1, 0);
//!
//! let tree = t.span_tree();
//! assert_eq!(tree.len(), 5);
//! assert_eq!(tree[1].depth, 1); // plan.single nests under repair
//! let json = t.chrome_trace_json();
//! assert!(json.contains("\"traceEvents\""));
//! assert!(json.contains("\"ph\": \"B\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod forensics;
pub mod hook;
mod metrics;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use forensics::{ForensicEntry, ForensicsLedger, RepairRecord};
pub use metrics::{CounterId, GaugeId, HistId, MetricsFrame, MetricsRegistry};

/// The architectural layer a span event belongs to. The acceptance surface
/// of a trace: a healed run shows spans from the planner, the executors,
/// the protocol/transport substrate, and the monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `RepairPlanner` decision phases.
    Planner,
    /// Healing engines (Xheal, DistXheal, DEX, baselines).
    Executor,
    /// The distributed actor protocol (per-repair message rounds).
    Protocol,
    /// The message substrate (`SyncNetwork` / calendar-queue `AsyncNetwork`).
    Transport,
    /// `xheal-monitor` checkpoints and health transitions.
    Monitor,
    /// Bench/workload harness phases.
    Harness,
}

impl Layer {
    /// Stable lower-case label (chrome-trace category, summaries).
    pub fn label(self) -> &'static str {
        match self {
            Layer::Planner => "planner",
            Layer::Executor => "executor",
            Layer::Protocol => "protocol",
            Layer::Transport => "transport",
            Layer::Monitor => "monitor",
            Layer::Harness => "harness",
        }
    }
}

/// What a recorded event marks: a span opening, a span closing, or a point
/// event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvKind {
    /// Span opens (chrome `ph: "B"`).
    Begin,
    /// Span closes (chrome `ph: "E"`).
    End,
    /// Point event (chrome `ph: "i"`).
    Instant,
}

/// One recorded trace event (fixed-size, `Copy` — the ring holds these).
#[derive(Clone, Copy, Debug)]
pub struct SpanEvent {
    /// Begin / End / Instant.
    pub kind: EvKind,
    /// Architectural layer.
    pub layer: Layer,
    /// Span name (static, allocation-free).
    pub name: &'static str,
    /// Repair sequence number this event belongs to (0 = none).
    pub repair: u64,
    /// Free-form argument (case code, action count, component index, …).
    pub arg: u64,
    /// Logical lane: 0 for the coordinating thread, task-keyed for workers.
    pub lane: u64,
    /// Position within the lane (assigned at record time; the deterministic
    /// sort key).
    pub lane_seq: u64,
    /// Nanoseconds since the tracer's epoch.
    pub ts_nanos: u64,
}

/// One event of the deterministic span-tree projection: everything a
/// [`SpanEvent`] carries except wall-clock time, plus nesting depth.
/// Two traced runs with identical seeds produce equal trees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeEvent {
    /// Logical lane.
    pub lane: u64,
    /// Nesting depth within the lane (a `Begin` is reported at the depth it
    /// opens; its `End` at the same depth).
    pub depth: u32,
    /// Begin / End / Instant.
    pub kind: EvKind,
    /// Architectural layer.
    pub layer: Layer,
    /// Span name.
    pub name: &'static str,
    /// Repair sequence number.
    pub repair: u64,
    /// Free-form argument.
    pub arg: u64,
}

/// A span paired from its Begin/End events (or a lone instant), with
/// wall-clock duration — the unit the summaries and the forensics ledger
/// aggregate over.
#[derive(Clone, Copy, Debug)]
pub struct CompletedSpan {
    /// Logical lane.
    pub lane: u64,
    /// Nesting depth within the lane.
    pub depth: u32,
    /// Architectural layer.
    pub layer: Layer,
    /// Span name.
    pub name: &'static str,
    /// Repair sequence number (0 = none).
    pub repair: u64,
    /// Free-form argument.
    pub arg: u64,
    /// Lane sequence of the opening event (ordering key).
    pub lane_seq: u64,
    /// Start, nanoseconds since epoch.
    pub start_nanos: u64,
    /// Duration in nanoseconds (`None` for instants and unclosed spans).
    pub dur_nanos: Option<u64>,
}

/// A reusable fixed-capacity span recorder plus an embedded
/// [`MetricsRegistry`]. See the [crate docs](crate) for the model.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    ring: Vec<SpanEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    wrapped: bool,
    /// Events overwritten since the last [`Tracer::clear`].
    dropped: u64,
    lane_seqs: BTreeMap<u64, u64>,
    metrics: MetricsRegistry,
}

/// The shared handle engines hold: `Arc<Mutex<Tracer>>`, so one tracer can
/// observe an engine, its planner, its transport, and its monitor at once,
/// from any thread.
pub type SharedTracer = Arc<Mutex<Tracer>>;

impl Tracer {
    /// A tracer whose ring holds `capacity` events (clamped to at least 16).
    /// All ring storage is allocated here, up front.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            ring: Vec::with_capacity(capacity.max(16)),
            head: 0,
            wrapped: false,
            dropped: 0,
            lane_seqs: BTreeMap::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// A fresh tracer behind the [`SharedTracer`] handle engines accept.
    pub fn shared(capacity: usize) -> SharedTracer {
        Arc::new(Mutex::new(Tracer::new(capacity)))
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Events overwritten by ring wraparound since the last clear.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded since the last clear.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Resets the ring, lane sequences, and drop counter for reuse (the
    /// metrics registry and its registrations survive; counters keep
    /// accumulating across clears).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.wrapped = false;
        self.dropped = 0;
        self.lane_seqs.clear();
    }

    /// The embedded metrics registry.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Read access to the embedded metrics registry.
    pub fn metrics_ref(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn record(
        &mut self,
        kind: EvKind,
        lane: u64,
        layer: Layer,
        name: &'static str,
        repair: u64,
        arg: u64,
    ) {
        let seq = self.lane_seqs.entry(lane).or_insert(0);
        let lane_seq = *seq;
        *seq += 1;
        let ev = SpanEvent {
            kind,
            layer,
            name,
            repair,
            arg,
            lane,
            lane_seq,
            ts_nanos: self.epoch.elapsed().as_nanos() as u64,
        };
        if self.ring.len() < self.ring.capacity() {
            self.ring.push(ev);
        } else {
            // Overwrite the oldest event; exporters re-balance pairs.
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.ring.len();
            self.wrapped = true;
            self.dropped += 1;
        }
    }

    /// Opens a span on lane 0 (the coordinating thread).
    pub fn begin(&mut self, layer: Layer, name: &'static str, repair: u64, arg: u64) {
        self.record(EvKind::Begin, 0, layer, name, repair, arg);
    }

    /// Closes the innermost open span on lane 0. `name`/`repair`/`arg` are
    /// recorded verbatim (exporters pair by nesting, not by name).
    pub fn end(&mut self, layer: Layer, name: &'static str, repair: u64, arg: u64) {
        self.record(EvKind::End, 0, layer, name, repair, arg);
    }

    /// Records a point event on lane 0.
    pub fn instant(&mut self, layer: Layer, name: &'static str, repair: u64, arg: u64) {
        self.record(EvKind::Instant, 0, layer, name, repair, arg);
    }

    /// Opens a span on an explicit lane. Worker threads must key `lane` on
    /// task identity (component index, cloud color), never on thread id, so
    /// the merged tree is schedule-independent.
    pub fn begin_lane(
        &mut self,
        lane: u64,
        layer: Layer,
        name: &'static str,
        repair: u64,
        arg: u64,
    ) {
        self.record(EvKind::Begin, lane, layer, name, repair, arg);
    }

    /// Closes the innermost open span on `lane`.
    pub fn end_lane(&mut self, lane: u64, layer: Layer, name: &'static str, repair: u64, arg: u64) {
        self.record(EvKind::End, lane, layer, name, repair, arg);
    }

    /// Records a point event on `lane`.
    pub fn instant_lane(
        &mut self,
        lane: u64,
        layer: Layer,
        name: &'static str,
        repair: u64,
        arg: u64,
    ) {
        self.record(EvKind::Instant, lane, layer, name, repair, arg);
    }

    /// Events oldest-first (ring order). Within a lane this is also
    /// `lane_seq` order; across lanes it is wall-clock arrival order.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        if self.wrapped {
            out.extend_from_slice(&self.ring[self.head..]);
            out.extend_from_slice(&self.ring[..self.head]);
        } else {
            out.extend_from_slice(&self.ring);
        }
        out
    }

    /// Events sorted by `(lane, lane_seq)` — the deterministic order every
    /// derived view is built from.
    fn events_deterministic(&self) -> Vec<SpanEvent> {
        let mut evs = self.events();
        evs.sort_by_key(|e| (e.lane, e.lane_seq));
        evs
    }

    /// The deterministic span-tree projection: events in `(lane, lane_seq)`
    /// order with per-lane nesting depths and no timestamps. `End` events
    /// whose `Begin` was overwritten by ring wraparound are dropped, so the
    /// tree is always balanced.
    ///
    /// Two runs with identical seeds produce equal trees, however their
    /// lanes interleaved in time.
    pub fn span_tree(&self) -> Vec<TreeEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        let mut depth: BTreeMap<u64, u32> = BTreeMap::new();
        for ev in self.events_deterministic() {
            let d = depth.entry(ev.lane).or_insert(0);
            let event_depth = match ev.kind {
                EvKind::Begin => {
                    let at = *d;
                    *d += 1;
                    at
                }
                EvKind::End => {
                    if *d == 0 {
                        continue; // orphan: opening event was overwritten
                    }
                    *d -= 1;
                    *d
                }
                EvKind::Instant => *d,
            };
            out.push(TreeEvent {
                lane: ev.lane,
                depth: event_depth,
                kind: ev.kind,
                layer: ev.layer,
                name: ev.name,
                repair: ev.repair,
                arg: ev.arg,
            });
        }
        out
    }

    /// Spans with Begin/End paired into durations, plus instants
    /// (`dur_nanos: None`), in deterministic `(lane, lane_seq)` order of
    /// their opening events. Unmatched events from ring wraparound are
    /// dropped.
    pub fn completed_spans(&self) -> Vec<CompletedSpan> {
        let mut out: Vec<CompletedSpan> = Vec::new();
        // Per-lane stack of indices into `out` awaiting their End.
        let mut stacks: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for ev in self.events_deterministic() {
            let stack = stacks.entry(ev.lane).or_default();
            match ev.kind {
                EvKind::Begin => {
                    let idx = out.len();
                    out.push(CompletedSpan {
                        lane: ev.lane,
                        depth: stack.len() as u32,
                        layer: ev.layer,
                        name: ev.name,
                        repair: ev.repair,
                        arg: ev.arg,
                        lane_seq: ev.lane_seq,
                        start_nanos: ev.ts_nanos,
                        dur_nanos: None,
                    });
                    stack.push(idx);
                }
                EvKind::End => {
                    if let Some(idx) = stack.pop() {
                        out[idx].dur_nanos = Some(ev.ts_nanos.saturating_sub(out[idx].start_nanos));
                    }
                }
                EvKind::Instant => out.push(CompletedSpan {
                    lane: ev.lane,
                    depth: stack.len() as u32,
                    layer: ev.layer,
                    name: ev.name,
                    repair: ev.repair,
                    arg: ev.arg,
                    lane_seq: ev.lane_seq,
                    start_nanos: ev.ts_nanos,
                    dur_nanos: None,
                }),
            }
        }
        out.sort_by_key(|s| (s.lane, s.lane_seq));
        out
    }

    /// Chrome Trace Event JSON (the `chrome://tracing` / Perfetto format):
    /// `{"traceEvents": [...]}` with balanced per-tid `B`/`E` duration
    /// events (lane = tid) and `i` instants, timestamps in microseconds.
    pub fn chrome_trace_json(&self) -> String {
        chrome::render(&self.events())
    }

    /// The per-repair forensics ledger derived from the recorded spans.
    pub fn forensics(&self) -> ForensicsLedger {
        ForensicsLedger::from_spans(&self.completed_spans())
    }

    /// A compact per-phase text summary: for every `(layer, name)` pair the
    /// span count, total and max duration (or the event count, for
    /// instants), sorted by total time descending.
    pub fn phase_summary(&self) -> String {
        use std::fmt::Write;
        #[derive(Default)]
        struct Agg {
            count: u64,
            total_ns: u64,
            max_ns: u64,
            instants: u64,
        }
        let mut by_phase: BTreeMap<(Layer, &'static str), Agg> = BTreeMap::new();
        for s in self.completed_spans() {
            let a = by_phase.entry((s.layer, s.name)).or_default();
            match s.dur_nanos {
                Some(d) => {
                    a.count += 1;
                    a.total_ns += d;
                    a.max_ns = a.max_ns.max(d);
                }
                None => a.instants += 1,
            }
        }
        let mut rows: Vec<_> = by_phase.into_iter().collect();
        rows.sort_by_key(|(_, a)| std::cmp::Reverse((a.total_ns, a.instants)));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<11}{:<22}{:>9}{:>12}{:>12}{:>9}",
            "layer", "span", "count", "total_us", "max_us", "events"
        );
        for ((layer, name), a) in rows {
            let _ = writeln!(
                out,
                "{:<11}{:<22}{:>9}{:>12.1}{:>12.1}{:>9}",
                layer.label(),
                name,
                a.count,
                a.total_ns as f64 / 1e3,
                a.max_ns as f64 / 1e3,
                a.instants,
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "({} events dropped by ring wraparound)", self.dropped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_rebalances() {
        let mut t = Tracer::new(16);
        for i in 0..40u64 {
            t.begin(Layer::Executor, "repair", i, 0);
            t.end(Layer::Executor, "repair", i, 0);
        }
        assert_eq!(t.len(), 16);
        assert_eq!(t.dropped(), 64);
        let evs = t.events();
        assert_eq!(evs.len(), 16);
        // Oldest-first: repair seqs ascend.
        assert!(evs.windows(2).all(|w| w[0].repair <= w[1].repair));
        // The tree stays balanced even if a Begin was overwritten mid-pair.
        let tree = t.span_tree();
        let begins = tree.iter().filter(|e| e.kind == EvKind::Begin).count();
        let ends = tree.iter().filter(|e| e.kind == EvKind::End).count();
        assert_eq!(begins, ends);
    }

    #[test]
    fn lanes_merge_deterministically() {
        let mk = |order: &[u64]| {
            let mut t = Tracer::new(64);
            t.begin(Layer::Executor, "batch", 1, 0);
            for &lane in order {
                t.begin_lane(lane, Layer::Planner, "spec.component", 1, lane - 1);
                t.end_lane(lane, Layer::Planner, "spec.component", 1, lane - 1);
            }
            t.end(Layer::Executor, "batch", 1, 0);
            t.span_tree()
        };
        // Worker arrival order differs; the merged tree does not.
        assert_eq!(mk(&[1, 2, 3]), mk(&[3, 1, 2]));
    }

    #[test]
    fn completed_spans_have_durations_and_nesting() {
        let mut t = Tracer::new(64);
        t.begin(Layer::Executor, "repair", 7, 0);
        t.begin(Layer::Planner, "plan.single", 7, 0);
        t.instant(Layer::Planner, "plan.case", 7, 3);
        t.end(Layer::Planner, "plan.single", 7, 0);
        t.end(Layer::Executor, "repair", 7, 0);
        let spans = t.completed_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "repair");
        assert_eq!(spans[0].depth, 0);
        assert!(spans[0].dur_nanos.is_some());
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].name, "plan.case");
        assert!(spans[2].dur_nanos.is_none());
        assert!(spans[0].dur_nanos >= spans[1].dur_nanos);
    }

    #[test]
    fn clear_resets_ring_but_keeps_metrics() {
        let mut t = Tracer::new(32);
        let c = t.metrics().counter("repairs");
        t.metrics().add(c, 5);
        t.begin(Layer::Executor, "repair", 1, 0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.metrics_ref().counter_value("repairs"), Some(5));
    }

    #[test]
    fn phase_summary_lists_phases() {
        let mut t = Tracer::new(32);
        t.begin(Layer::Planner, "plan.batch", 1, 4);
        t.end(Layer::Planner, "plan.batch", 1, 4);
        t.instant(Layer::Transport, "net.step", 0, 9);
        let s = t.phase_summary();
        assert!(s.contains("plan.batch"));
        assert!(s.contains("net.step"));
        assert!(s.contains("planner"));
        assert!(s.contains("transport"));
    }
}
