//! Span recording for the traced run, from outside the program.
//!
//! Coarse spans (one pass, one point, one request, one timed call into a
//! public entry point) are recorded one by one. The per-cycle calls that
//! `run_phases` makes into the fabric and the workload are far too many
//! to keep individually, so the forwarding decorators [`TracedFabric`]
//! and [`TracedWorkload`] add them up into one aggregate span per
//! (name, parent). A span's layer is its name up to the first `.`, and
//! its self time is its duration minus the time its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use noc_sim::{
    CircuitPlan, Cycle, DeliveredPacket, EnergyEvents, Fabric, FabricSnapshot, FaultEvent, Mesh,
    NetStats, NodeId, Packet, SnapshotError, TelemetryConfig, TelemetryReport, WindowSnapshot,
};
use noc_traffic::Workload;

/// One recorded span; `end_ns == 0` while it is open. Aggregates carry
/// the number of calls they stand for.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    calls: u64,
}

/// The in-memory span log of one run. A disabled tracer records nothing,
/// so the untraced path pays one branch per coarse span and nothing per
/// cycle (it hands the undecorated fabric and workload to `run_phases`).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: 0,
            calls: 1,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let at = self.open.pop().expect("end() matches a begin()");
        self.spans[at].end_ns = self.now_ns().max(self.spans[at].start_ns + 1);
    }

    /// Close the innermost open span under a name chosen once its outcome
    /// is known.
    pub fn end_as(&mut self, name: &'static str) {
        if let Some(&at) = self.open.last() {
            self.spans[at].name = name;
        }
        self.end();
    }

    /// Record `calls` calls totalling `ns` under the innermost open span.
    /// The aggregate is laid out from the parent's start, which keeps it
    /// inside the parent for every duration computed from it.
    pub fn aggregate(&mut self, name: &'static str, timer: Timer) {
        if !self.enabled || timer.calls == 0 {
            return;
        }
        let parent = *self.open.last().expect("aggregates sit under a span");
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + timer.ns,
            calls: timer.calls,
        });
    }

    /// Index of the most recently closed root span (a pass).
    pub fn last_root(&self) -> Option<usize> {
        self.spans.iter().rposition(|s| s.parent.is_none())
    }

    /// Self time and call count per span name, over the subtree rooted at
    /// `root` (inclusive).
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut in_tree = vec![false; self.spans.len()];
        in_tree[root] = true;
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = s.parent {
                if in_tree[p] {
                    in_tree[i] = true;
                    child_ns[p] += s.end_ns - s.start_ns;
                }
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if in_tree[i] {
                let e = out.entry(s.name).or_insert((0, 0));
                e.0 += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
                e.1 += s.calls;
            }
        }
        out
    }

    /// Inclusive duration of span `at`.
    pub fn duration_ns(&self, at: usize) -> u64 {
        self.spans[at].end_ns - self.spans[at].start_ns
    }

    /// The span log as JSON lines: `{"id","name","parent","start_ns",
    /// "end_ns","calls"}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.calls
            ));
        }
        out
    }
}

/// The layer a span name belongs to: the module named before the first
/// `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Call count and summed duration of one kind of call.
#[derive(Clone, Copy, Default)]
pub struct Timer {
    calls: u64,
    ns: u64,
}

impl Timer {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }
}

/// A [`Fabric`] that forwards every call to `inner` and times `step` and
/// `inject`, the two calls `run_phases` makes per cycle and per packet.
pub struct TracedFabric<'a> {
    pub inner: &'a mut dyn Fabric,
    pub step: Timer,
    pub inject: Timer,
}

impl<'a> TracedFabric<'a> {
    pub fn new(inner: &'a mut dyn Fabric) -> Self {
        TracedFabric {
            inner,
            step: Timer::default(),
            inject: Timer::default(),
        }
    }
}

impl Fabric for TracedFabric<'_> {
    fn mesh(&self) -> Mesh {
        self.inner.mesh()
    }
    fn now(&self) -> Cycle {
        self.inner.now()
    }
    fn inject(&mut self, node: NodeId, pkt: Packet) {
        let inner = &mut *self.inner;
        self.inject.time(|| inner.inject(node, pkt));
    }
    fn step(&mut self) {
        let inner = &mut *self.inner;
        self.step.time(|| inner.step());
    }
    fn begin_measurement(&mut self) {
        self.inner.begin_measurement();
    }
    fn end_measurement(&mut self) {
        self.inner.end_measurement();
    }
    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }
    fn stats_mut(&mut self) -> &mut NetStats {
        self.inner.stats_mut()
    }
    fn total_events(&self) -> EnergyEvents {
        self.inner.total_events()
    }
    fn is_drained(&self) -> bool {
        self.inner.is_drained()
    }
    fn set_collect_delivered(&mut self, on: bool) {
        self.inner.set_collect_delivered(on);
    }
    fn delivered_log(&self) -> &[DeliveredPacket] {
        self.inner.delivered_log()
    }
    fn clear_delivered_log(&mut self) {
        self.inner.clear_delivered_log();
    }
    fn set_step_threads(&mut self, threads: usize) {
        self.inner.set_step_threads(threads);
    }
    fn set_always_step(&mut self, on: bool) {
        self.inner.set_always_step(on);
    }
    fn configure_telemetry(&mut self, cfg: &TelemetryConfig) {
        self.inner.configure_telemetry(cfg);
    }
    fn telemetry_report(&mut self) -> Option<TelemetryReport> {
        self.inner.telemetry_report()
    }
    fn telemetry_window_count(&self) -> usize {
        self.inner.telemetry_window_count()
    }
    fn telemetry_windows_from(&self, from: usize) -> Vec<WindowSnapshot> {
        self.inner.telemetry_windows_from(from)
    }
    fn telemetry_metric_names(&self) -> Vec<String> {
        self.inner.telemetry_metric_names()
    }
    fn active_slots(&self) -> Option<u16> {
        self.inner.active_slots()
    }
    fn resizes(&self) -> u32 {
        self.inner.resizes()
    }
    fn run_until(&mut self, target: Cycle) {
        self.inner.run_until(target);
    }
    fn drain(&mut self, max_cycles: u64) -> bool {
        self.inner.drain(max_cycles)
    }
    fn checkpoint(&self) -> Result<FabricSnapshot, SnapshotError> {
        self.inner.checkpoint()
    }
    fn restore(&mut self, snap: &FabricSnapshot) -> Result<(), SnapshotError> {
        self.inner.restore(snap)
    }
    fn set_faults(&mut self, timeline: Vec<FaultEvent>) -> Result<(), SnapshotError> {
        self.inner.set_faults(timeline)
    }
    fn install_circuit_plan(&mut self, plan: &CircuitPlan) -> Result<u32, SnapshotError> {
        self.inner.install_circuit_plan(plan)
    }
    fn arena_live(&self) -> usize {
        self.inner.arena_live()
    }
}

/// A [`Workload`] that forwards to `inner`, timing `tick` and counting
/// the packets it generates.
pub struct TracedWorkload<'a> {
    pub inner: &'a mut dyn Workload,
    pub tick: Timer,
    pub packets: u64,
}

impl<'a> TracedWorkload<'a> {
    pub fn new(inner: &'a mut dyn Workload) -> Self {
        TracedWorkload {
            inner,
            tick: Timer::default(),
            packets: 0,
        }
    }
}

impl Workload for TracedWorkload<'_> {
    fn tick(&mut self, now: Cycle, measured: bool, sink: &mut dyn FnMut(NodeId, Packet)) {
        let (inner, packets) = (&mut *self.inner, &mut self.packets);
        self.tick.time(|| {
            inner.tick(now, measured, &mut |n, p| {
                *packets += 1;
                sink(n, p);
            })
        });
    }
    fn offered_load(&self) -> f64 {
        self.inner.offered_load()
    }
}
