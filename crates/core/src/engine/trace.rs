//! Topology-trace record/replay: one churn realization, many runs.
//!
//! The paper's proofs are **coupling arguments**: two processes driven
//! by shared randomness so their spreading times compare pathwise. The
//! dynamic engines could not express that — every run drew its own
//! topology evolution from its own RNG stream, so E20's sync-vs-async
//! comparison ran *independent* realizations. This module closes the
//! gap:
//!
//! * [`TopologyTrace`] — a recorded topology realization: the initial
//!   graph (after model `init`) plus every applied change as a diff
//!   (time, edges removed, nodes deactivated/activated, edges added),
//!   read back as borrowed [`TraceStep`] views. Traces are recorded
//!   either standalone
//!   ([`TopologyTrace::record`]: the model's event stream is driven on
//!   its own, with the informed view frozen to the source — an
//!   *oblivious* realization, the only kind a sync run can share) or
//!   from inside any engine run ([`TraceRecorder`]).
//! * [`TraceReplayer`] — the trace as a deterministic
//!   [`TopologyModel`]: replay consumes **no randomness**, so one
//!   recorded realization can drive arbitrarily many protocol runs —
//!   sequential ([`crate::dynamic::run_dynamic_model`]), sharded
//!   ([`crate::engine::run_dynamic_sharded_model`]), the cursor engine
//!   below — each with its own protocol RNG.
//! * [`run_trace_lazy`] — a queue-free cursor engine over a trace: no
//!   pending topology events at all, steps are applied when the next
//!   protocol tick passes them. It consumes the RNG in exactly the
//!   sequential replay's order, so it replays
//!   `run_dynamic_model(replayer)` **seed-for-seed** (pinned in
//!   `tests/trace_replay.rs`).
//! * [`run_sync_dynamic`] — the synchronous-rounds protocol on the
//!   *same* trace, snapshotting the evolving graph at round boundaries
//!   (round `r` sees every change up to time `r − 1`; one round = one
//!   time unit, footnote 3 of the paper). This is what makes the
//!   sync/async comparison of E23 **paired**: both protocols watch the
//!   identical topology realization.
//!
//! Storage is three flat columns — per-step times, per-step `u32` ends
//! into one shared op column, and the ops themselves — so a recorded
//! step costs 12 bytes plus 12 per changed edge or node, with no heap
//! allocation of its own (one edge flip: 24 bytes). Recording appends
//! the graph's change journal straight into the op column.
//!
//! Replay past the recorded horizon freezes the topology (no further
//! steps exist); record with a horizon comfortably above the expected
//! spreading time. No-op model events (e.g. rejected random-walk
//! steps) are dropped at recording time, so a trace's step count is
//! the number of *effective* topology changes, not the model's event
//! count.

use rumor_graph::dynamic::{GraphChange, MutableGraph};
use rumor_graph::{Graph, Node};
use rumor_sim::events::{EventQueue, RngContract};
use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::dynamic::{DynamicModel, DynamicOutcome};
use crate::engine::scheduler::TopoDriver;
use crate::engine::source::EventSource;
use crate::engine::topology::{InformedView, RateImpact, TopoEvent, TopologyModel};
use crate::engine::TickSource;
use crate::mode::Mode;
use crate::outcome::{SyncOutcome, NEVER_ROUND};

/// One applied topology change, borrowed from a [`TopologyTrace`]:
/// everything a single model event did to the graph, as a diff against
/// the state just before it.
///
/// Replay applies `ops` in order — edges removed, nodes deactivated,
/// nodes activated, edges added, each group ascending — which is valid
/// for every model in this workspace (an event never deactivates one
/// node and wires up another).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStep<'a> {
    /// Simulation time of the change.
    pub time: f64,
    /// The diff in apply order; edges are canonical `(min, max)` pairs.
    /// Never empty: no-op events are not recorded.
    pub ops: &'a [GraphChange],
}

impl TraceStep<'_> {
    /// Applies the step to a mutable graph.
    fn apply(&self, net: &mut MutableGraph) {
        for &op in self.ops {
            match op {
                GraphChange::EdgeRemoved(u, v) => {
                    let removed = net.remove_edge(u, v);
                    debug_assert!(removed, "trace removes an absent edge ({u}, {v})");
                }
                GraphChange::NodeDeactivated(v) => {
                    net.deactivate(v);
                }
                GraphChange::NodeActivated(v) => net.activate(v),
                GraphChange::EdgeAdded(u, v) => {
                    let added = net.add_edge(u, v);
                    debug_assert!(added, "trace adds a present edge ({u}, {v})");
                }
            }
        }
    }

    /// The sharded engine's rate impact of this step: the distinct
    /// nodes whose incident edges or activation changed, ascending, if
    /// there are at most 3 of them, else global.
    fn impact(&self) -> RateImpact {
        let mut touched = [0 as Node; 3];
        let mut len = 0;
        for &op in self.ops {
            let (a, b) = match op {
                GraphChange::EdgeRemoved(u, v) | GraphChange::EdgeAdded(u, v) => (u, v),
                GraphChange::NodeDeactivated(v) | GraphChange::NodeActivated(v) => (v, v),
            };
            for x in [a, b] {
                if let Err(i) = touched[..len].binary_search(&x) {
                    if len == touched.len() {
                        return RateImpact::Global;
                    }
                    touched.copy_within(i..len, i + 1);
                    touched[i] = x;
                    len += 1;
                }
            }
        }
        RateImpact::nodes(&touched[..len])
    }
}

/// Sort key of a change in a step's canonical apply order.
fn apply_order(c: &GraphChange) -> (u8, Node, Node) {
    match *c {
        GraphChange::EdgeRemoved(u, v) => (0, u, v),
        GraphChange::NodeDeactivated(v) => (1, v, 0),
        GraphChange::NodeActivated(v) => (2, v, 0),
        GraphChange::EdgeAdded(u, v) => (3, u, v),
    }
}

/// The change that undoes `c`.
fn inverse(c: GraphChange) -> GraphChange {
    match c {
        GraphChange::EdgeRemoved(u, v) => GraphChange::EdgeAdded(u, v),
        GraphChange::EdgeAdded(u, v) => GraphChange::EdgeRemoved(u, v),
        GraphChange::NodeDeactivated(v) => GraphChange::NodeActivated(v),
        GraphChange::NodeActivated(v) => GraphChange::NodeDeactivated(v),
    }
}

/// The flat step store shared by [`TopologyTrace`] and
/// [`TraceRecorder`]: step `i` happened at `times[i]` and owns
/// `ops[ends[i - 1]..ends[i]]` (from 0 for the first step).
#[derive(Debug, Clone, Default, PartialEq)]
struct StepColumns {
    times: Vec<f64>,
    ends: Vec<u32>,
    ops: Vec<GraphChange>,
}

impl StepColumns {
    fn len(&self) -> usize {
        self.times.len()
    }

    fn get(&self, i: usize) -> Option<TraceStep<'_>> {
        let time = *self.times.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        Some(TraceStep { time, ops: &self.ops[start..self.ends[i] as usize] })
    }

    /// Appends everything one model event did at time `t` — the graph's
    /// change journal, in mutation order (see
    /// [`MutableGraph::track_changes`]) — as one step in canonical
    /// apply order. An event that changed nothing records nothing.
    ///
    /// Assumes no single event both applies and undoes the same change
    /// (no model in this workspace does; the journal would faithfully
    /// record the round trip, where a before/after diff records
    /// nothing).
    ///
    /// # Panics
    ///
    /// Panics if the trace outgrows `u32::MAX` ops.
    fn push_journal(&mut self, t: f64, changes: &[GraphChange]) {
        if changes.is_empty() {
            return;
        }
        let start = self.ops.len();
        self.ops.extend_from_slice(changes);
        let step = &mut self.ops[start..];
        step.sort_unstable_by_key(apply_order);
        debug_assert!(
            step.iter().all(|c| step
                .binary_search_by_key(&apply_order(&inverse(*c)), apply_order)
                .is_err()),
            "one event must not apply and undo the same change"
        );
        let end = u32::try_from(self.ops.len()).expect("trace exceeds u32::MAX recorded ops");
        self.times.push(t);
        self.ends.push(end);
    }

    /// Releases the growth slack once recording is done.
    fn shrink_to_fit(&mut self) {
        self.times.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.ops.shrink_to_fit();
    }
}

/// A recorded topology realization: the post-`init` starting graph and
/// every effective change, in time order. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyTrace {
    initial: Graph,
    steps: StepColumns,
    horizon: f64,
}

impl TopologyTrace {
    /// Records the evolution of `model` on base graph `g` over
    /// `[0, horizon]`, standalone (no protocol interleaved): the
    /// model's event queue is driven on its own, with the informed
    /// view frozen to `{source}` — informed-state-dependent models
    /// (the frontier adversary) are recorded **obliviously**, the only
    /// semantics under which a synchronous and an asynchronous run can
    /// share one realization.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `horizon` is negative or
    /// not finite.
    pub fn record(
        g: &Graph,
        source: Node,
        model: &DynamicModel,
        rng: &mut Xoshiro256PlusPlus,
        horizon: f64,
    ) -> TopologyTrace {
        Self::record_under(RngContract::V1, g, source, model, rng, horizon)
    }

    /// [`record`](Self::record) under an explicit [`RngContract`]: `V1`
    /// drives the model's eager event queue (identical to `record`),
    /// `V2` draws the realization through the superposition scheduler —
    /// a different, contract-pinned stream of the same law.
    ///
    /// # Panics
    ///
    /// As [`record`](Self::record).
    pub fn record_under(
        contract: RngContract,
        g: &Graph,
        source: Node,
        model: &DynamicModel,
        rng: &mut Xoshiro256PlusPlus,
        horizon: f64,
    ) -> TopologyTrace {
        let mut state = model.build_state();
        Self::record_state_under(contract, g, source, state.as_mut(), rng, horizon)
    }

    /// [`record`](Self::record) over an already-built
    /// [`TopologyModel`]. Recording a [`TraceReplayer`] reproduces its
    /// trace exactly (replay-of-replay is a fixed point, pinned in
    /// `tests/trace_replay.rs`).
    pub fn record_state(
        g: &Graph,
        source: Node,
        state: &mut dyn TopologyModel,
        rng: &mut Xoshiro256PlusPlus,
        horizon: f64,
    ) -> TopologyTrace {
        Self::record_state_under(RngContract::V1, g, source, state, rng, horizon)
    }

    /// [`record_state`](Self::record_state) under an explicit
    /// [`RngContract`] (see [`record_under`](Self::record_under)).
    ///
    /// Under `V2` the recording graph is order-relaxed, like every v2
    /// engine's (see [`MutableGraph::relax_neighbor_order`]): edits skip
    /// the sorted-insert memmoves, and since the recorded diff is
    /// canonical and no v2 model draws from row order, the realization
    /// is the one a sorted graph would record.
    pub fn record_state_under(
        contract: RngContract,
        g: &Graph,
        source: Node,
        state: &mut dyn TopologyModel,
        rng: &mut Xoshiro256PlusPlus,
        horizon: f64,
    ) -> TopologyTrace {
        let n = g.node_count();
        assert!((source as usize) < n, "source out of range");
        assert!(horizon >= 0.0 && horizon.is_finite(), "horizon must be finite and >= 0");
        let mut net = MutableGraph::from_graph(g);
        if contract == RngContract::V2 {
            net.relax_neighbor_order();
        }
        let mut driver = TopoDriver::new(contract, g, &mut net, state, rng);
        if state.enable_informed_tracking() {
            // Oblivious recording: the informed set is frozen to the
            // source for the whole realization.
            state.note_informed(source, &net);
        }
        let initial = net.to_graph();
        debug_assert_eq!(net.active_count(), n, "models do not deactivate during init");
        net.track_changes(true);
        let mut steps = StepColumns::default();
        let informed = |v: Node| v == source;
        loop {
            let t = driver.next_time(rng);
            if !t.is_finite() || t > horizon {
                break;
            }
            let (te, _impact) = driver.step(state, &mut net, &informed, rng);
            steps.push_journal(te, net.changes());
            net.clear_changes();
        }
        steps.shrink_to_fit();
        TopologyTrace { initial, steps, horizon }
    }

    /// Number of nodes of the recorded network.
    pub fn node_count(&self) -> usize {
        self.initial.node_count()
    }

    /// The starting topology (after model `init` — for mobility this is
    /// the proximity graph of the drawn positions, not the base graph).
    pub fn initial(&self) -> &Graph {
        &self.initial
    }

    /// The recorded steps, in time order.
    pub fn steps(&self) -> impl ExactSizeIterator<Item = TraceStep<'_>> + '_ {
        (0..self.len()).map(|i| self.steps.get(i).expect("index below len"))
    }

    /// Number of recorded (effective) topology changes.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the realization contains no changes.
    pub fn is_empty(&self) -> bool {
        self.steps.len() == 0
    }

    /// The recorded time horizon; replay freezes the topology beyond it.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Materializes the full snapshot sequence: `snapshots()[0]` is the
    /// initial graph, `snapshots()[i + 1]` the graph after step `i`.
    /// Inactive nodes appear isolated. Every engine replaying this
    /// trace walks exactly this sequence (prefix up to where it stops).
    pub fn snapshots(&self) -> Vec<Graph> {
        let mut net = MutableGraph::from_graph(&self.initial);
        let mut out = Vec::with_capacity(self.len() + 1);
        out.push(self.initial.clone());
        for step in self.steps() {
            step.apply(&mut net);
            out.push(net.to_graph());
        }
        out
    }

    /// A deterministic [`TopologyModel`] that replays this trace.
    pub fn replayer(&self) -> TraceReplayer<'_> {
        TraceReplayer { trace: self, cursor: 0 }
    }
}

/// The trace as a [`TopologyModel`]: schedules each recorded step at
/// its recorded time and applies the recorded diff verbatim. Consumes
/// **no randomness**, so the protocol RNG stream of a replaying engine
/// is pure protocol randomness — the common-random-numbers half of the
/// coupled runs.
#[derive(Debug, Clone)]
pub struct TraceReplayer<'a> {
    trace: &'a TopologyTrace,
    cursor: usize,
}

impl TraceReplayer<'_> {
    /// Number of steps applied so far.
    pub fn applied(&self) -> usize {
        self.cursor
    }
}

impl TopologyModel for TraceReplayer<'_> {
    fn init(
        &mut self,
        g: &Graph,
        net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        _rng: &mut Xoshiro256PlusPlus,
    ) {
        assert_eq!(
            g.node_count(),
            self.trace.node_count(),
            "trace was recorded on a different node count"
        );
        // Reset the cursor so one replayer can serve several engine
        // runs back to back.
        self.cursor = 0;
        net.replace_edges_with(&self.trace.initial);
        if let Some(&first) = self.trace.steps.times.first() {
            queue.push(first, TopoEvent::Replay(0));
        }
    }

    fn apply(
        &mut self,
        event: TopoEvent,
        _t: f64,
        net: &mut MutableGraph,
        _informed: InformedView<'_>,
        queue: &mut EventQueue<TopoEvent>,
        _rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        let TopoEvent::Replay(i) = event else {
            unreachable!("a replayer schedules only replay steps");
        };
        debug_assert_eq!(i as usize, self.cursor, "replay steps fire in order");
        let step = self.trace.steps.get(i as usize).expect("replay step in range");
        step.apply(net);
        self.cursor = i as usize + 1;
        if let Some(&next) = self.trace.steps.times.get(self.cursor) {
            queue.push(next, TopoEvent::Replay(self.cursor as u32));
        }
        step.impact()
    }
}

/// Wraps any [`TopologyModel`] so that an ordinary engine run records
/// the realized topology evolution as a side effect; recover it with
/// [`into_trace`](Self::into_trace).
///
/// The recorder never reports memoryless edge rates (recording needs
/// the eager event stream), so a wrapped model always runs through the
/// event-queue path even where the lazy engine would have been
/// eligible.
pub struct TraceRecorder<'a> {
    inner: Box<dyn TopologyModel + 'a>,
    initial: Option<Graph>,
    steps: StepColumns,
    last_time: f64,
}

impl<'a> TraceRecorder<'a> {
    /// A recorder around `model`'s run state.
    pub fn new(model: &DynamicModel) -> Self {
        Self::wrap(model.build_state())
    }

    /// A recorder around an existing model state.
    pub fn wrap(inner: Box<dyn TopologyModel + 'a>) -> Self {
        Self { inner, initial: None, steps: StepColumns::default(), last_time: 0.0 }
    }

    /// The recorded trace; the horizon is the last event's time.
    ///
    /// # Panics
    ///
    /// Panics if no engine run initialized the recorder.
    pub fn into_trace(self) -> TopologyTrace {
        let Self { initial, mut steps, last_time, .. } = self;
        let initial = initial.expect("recorder was never run through an engine");
        steps.shrink_to_fit();
        TopologyTrace { initial, steps, horizon: last_time }
    }

    /// Reads the effective step of one applied/fired event off the
    /// graph's change journal.
    fn journal(&mut self, t: f64, net: &mut MutableGraph) {
        self.steps.push_journal(t, net.changes());
        net.clear_changes();
        self.last_time = t;
    }
}

impl TopologyModel for TraceRecorder<'_> {
    fn init(
        &mut self,
        g: &Graph,
        net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) {
        self.inner.init(g, net, queue, rng);
        self.initial = Some(net.to_graph());
        // Journal from here on: every applied event's step is read off
        // `net.changes()` instead of diffing against a shadow copy.
        net.track_changes(true);
    }

    fn apply(
        &mut self,
        event: TopoEvent,
        t: f64,
        net: &mut MutableGraph,
        informed: InformedView<'_>,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        let impact = self.inner.apply(event, t, net, informed, queue, rng);
        self.journal(t, net);
        impact
    }

    fn init_channels(
        &mut self,
        g: &Graph,
        net: &mut MutableGraph,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        let channels = self.inner.init_channels(g, net, queue, rng);
        self.initial = Some(net.to_graph());
        net.track_changes(true);
        channels
    }

    fn channel_weight(&self, channel: usize) -> f64 {
        self.inner.channel_weight(channel)
    }

    fn fire(
        &mut self,
        channel: usize,
        t: f64,
        net: &mut MutableGraph,
        informed: InformedView<'_>,
        queue: &mut EventQueue<TopoEvent>,
        rng: &mut Xoshiro256PlusPlus,
    ) -> RateImpact {
        let impact = self.inner.fire(channel, t, net, informed, queue, rng);
        self.journal(t, net);
        impact
    }

    fn enable_informed_tracking(&mut self) -> bool {
        self.inner.enable_informed_tracking()
    }

    fn note_informed(&mut self, v: Node, net: &MutableGraph) {
        self.inner.note_informed(v, net);
    }
}

/// Runs the asynchronous protocol over a recorded trace with a
/// **queue-free cursor**: no pending topology events exist; before each
/// protocol tick the cursor applies every recorded step up to the tick
/// time (topology winning ties, like the merged stream). RNG
/// consumption — one `Exp(n)` draw per tick, then the node and neighbor
/// draws — is exactly the sequential replay's, so this engine replays
/// `run_dynamic_model(g, …, &mut trace.replayer(), …)` **seed-for-seed**.
///
/// # Panics
///
/// Panics if `source` is out of range for the trace.
pub fn run_trace_lazy(
    trace: &TopologyTrace,
    source: Node,
    mode: Mode,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
) -> DynamicOutcome {
    run_trace_lazy_under(crate::RngContract::V1, trace, source, mode, rng, max_steps)
}

/// [`run_trace_lazy`] under an explicit RNG contract. A replayed trace
/// has no stochastic topology channels, so the scheduler half of the
/// contract is moot here — but v2 also pins the adjacency to
/// order-relaxed mode, and the neighbor draws must read the same
/// permuted rows the v2 sequential replay sees to stay seed-for-seed.
pub fn run_trace_lazy_under(
    contract: crate::RngContract,
    trace: &TopologyTrace,
    source: Node,
    mode: Mode,
    rng: &mut Xoshiro256PlusPlus,
    max_steps: u64,
) -> DynamicOutcome {
    let n = trace.node_count();
    assert!((source as usize) < n, "source out of range");

    let mut informed_time = vec![f64::INFINITY; n];
    informed_time[source as usize] = 0.0;
    let mut informed_count = 1usize;
    if n == 1 {
        return DynamicOutcome {
            time: 0.0,
            steps: 0,
            topology_events: 0,
            completed: true,
            informed_time,
        };
    }
    let mut net = MutableGraph::from_graph(&trace.initial);
    if contract == crate::RngContract::V2 {
        net.relax_neighbor_order();
    }
    let mut cursor = 0usize;
    let mut ticks = TickSource::new(n as f64);
    let mut t = 0.0;
    let mut steps = 0u64;
    let mut topology_events = 0u64;
    let mut completed = false;
    while steps < max_steps {
        let (tt, ()) = ticks.pop(rng).expect("tick stream is endless");
        while let Some(step) = trace.steps.get(cursor) {
            if step.time > tt {
                break;
            }
            step.apply(&mut net);
            cursor += 1;
            topology_events += 1;
        }
        t = tt;
        steps += 1;
        let v = rng.range_usize(n) as Node;
        if net.is_active(v) && net.degree(v) > 0 {
            let w = net.random_neighbor(v, rng);
            crate::asynchronous::exchange(mode, &mut informed_time, &mut informed_count, v, w, tt);
        }
        if informed_count == n {
            completed = true;
            break;
        }
    }
    DynamicOutcome { time: t, steps, topology_events, completed, informed_time }
}

/// Runs the **synchronous** push/pull/push–pull protocol on an evolving
/// topology given by a recorded trace: the round machinery of
/// [`crate::run_sync`], with the graph snapshotted at round boundaries
/// — round `r` runs on the topology as of time `r − 1` (one round
/// corresponds to one asynchronous time unit, footnote 3), generalizing
/// [`run_sync_rewire`](crate::dynamic::run_sync_rewire) from periodic
/// snapshots to arbitrary recorded evolutions. Nodes isolated (or
/// departed) in the current snapshot skip their contact that round.
///
/// Driving this and an asynchronous replay of the *same* trace with a
/// common protocol seed is the coupled comparison of E23.
///
/// # Panics
///
/// Panics if `source` is out of range for the trace.
pub fn run_sync_dynamic(
    trace: &TopologyTrace,
    source: Node,
    mode: Mode,
    rng: &mut Xoshiro256PlusPlus,
    max_rounds: u64,
) -> SyncOutcome {
    let n = trace.node_count();
    assert!((source as usize) < n, "source out of range");

    let mut informed_round = vec![NEVER_ROUND; n];
    informed_round[source as usize] = 0;
    let mut informed_count = 1usize;
    let mut informed_by_round = vec![1usize];
    if n == 1 {
        return SyncOutcome { rounds: 0, completed: true, informed_round, informed_by_round };
    }
    let mut net = MutableGraph::from_graph(&trace.initial);
    let mut cursor = 0usize;
    let mut rounds = 0u64;
    let mut completed = false;
    for r in 1..=max_rounds {
        rounds = r;
        let boundary = (r - 1) as f64;
        while let Some(step) = trace.steps.get(cursor) {
            if step.time > boundary {
                break;
            }
            step.apply(&mut net);
            cursor += 1;
        }
        crate::sync::exchange_round(r, mode, &mut informed_round, &mut informed_count, |v| {
            if !net.is_active(v) || net.degree(v) == 0 {
                None // isolated this snapshot: no contact this round
            } else {
                Some(net.random_neighbor(v, rng))
            }
        });
        informed_by_round.push(informed_count);
        if informed_count == n {
            completed = true;
            break;
        }
    }
    SyncOutcome { rounds, completed, informed_round, informed_by_round }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_graph::generators;

    use crate::dynamic::{
        run_dynamic_model, run_sync_rewire, Adversary, EdgeMarkov, Mobility, NodeChurn, RandomWalk,
        Rewire, SnapshotFamily,
    };
    use crate::sync::run_sync;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from(seed)
    }

    fn all_models() -> Vec<(&'static str, DynamicModel)> {
        vec![
            ("markov", DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))),
            ("rewire", DynamicModel::Rewire(Rewire::new(2.0, SnapshotFamily::Gnp { p: 0.15 }))),
            ("churn", DynamicModel::NodeChurn(NodeChurn::new(0.3, 1.0, 2))),
            ("walk", DynamicModel::RandomWalk(RandomWalk::new(1.0))),
            ("mobility", DynamicModel::Mobility(Mobility::new(1.0, 0.35, 0.15))),
            ("adversary", DynamicModel::Adversary(Adversary::new(1.0, 3, 1.0))),
        ]
    }

    #[test]
    fn recorded_steps_are_time_ordered_and_effective() {
        let g = generators::gnp_connected(32, 0.2, &mut rng(1), 100);
        for (name, model) in all_models() {
            let trace = TopologyTrace::record(&g, 0, &model, &mut rng(2), 12.0);
            assert!(!trace.is_empty(), "{name}: no steps recorded");
            assert!(trace.steps.times.is_sorted(), "{name}: out-of-order steps");
            for step in trace.steps() {
                assert!(!step.ops.is_empty(), "{name}: no-op step recorded");
                assert!(step.time > 0.0 && step.time <= trace.horizon(), "{name}: bad time");
            }
        }
    }

    #[test]
    fn steps_are_canonical_and_impacts_match_the_sorted_touched_set() {
        let g = generators::gnp_connected(32, 0.2, &mut rng(40), 100);
        for contract in [RngContract::V1, RngContract::V2] {
            for (name, model) in all_models() {
                let trace =
                    TopologyTrace::record_under(contract, &g, 0, &model, &mut rng(41), 12.0);
                for step in trace.steps() {
                    assert!(step.ops.is_sorted_by_key(apply_order), "{name}: non-canonical step");
                    let mut touched: Vec<Node> = step
                        .ops
                        .iter()
                        .flat_map(|&op| match op {
                            GraphChange::EdgeRemoved(u, v) | GraphChange::EdgeAdded(u, v) => {
                                vec![u, v]
                            }
                            GraphChange::NodeDeactivated(v) | GraphChange::NodeActivated(v) => {
                                vec![v]
                            }
                        })
                        .collect();
                    touched.sort_unstable();
                    touched.dedup();
                    let want = (touched.len() <= 3).then_some(&touched[..]);
                    assert_eq!(step.impact().touched(), want, "{name} at t = {}", step.time);
                }
            }
        }
    }

    #[test]
    fn static_trace_is_empty_and_sync_matches_run_sync() {
        let g = generators::gnp_connected(32, 0.2, &mut rng(3), 100);
        let trace = TopologyTrace::record(&g, 0, &DynamicModel::Static, &mut rng(4), 100.0);
        assert!(trace.is_empty());
        assert_eq!(trace.initial(), &g);
        let plain = run_sync(&g, 0, Mode::PushPull, &mut rng(5), 10_000);
        let traced = run_sync_dynamic(&trace, 0, Mode::PushPull, &mut rng(5), 10_000);
        assert_eq!(traced, plain, "empty trace must replay the static sync run seed-for-seed");
    }

    #[test]
    fn replay_walks_the_recorded_snapshots() {
        let g = generators::gnp_connected(32, 0.2, &mut rng(6), 100);
        for (name, model) in all_models() {
            let trace = TopologyTrace::record(&g, 0, &model, &mut rng(7), 8.0);
            let snapshots = trace.snapshots();
            assert_eq!(snapshots.len(), trace.len() + 1, "{name}");
            assert_eq!(&snapshots[0], trace.initial(), "{name}");
            // Applying steps one by one through a replayer's own
            // primitive walks the same sequence.
            let mut net = MutableGraph::from_graph(trace.initial());
            for (i, step) in trace.steps().enumerate() {
                step.apply(&mut net);
                assert_eq!(net.to_graph(), snapshots[i + 1], "{name} step {i}");
            }
        }
    }

    #[test]
    fn lazy_cursor_replays_sequential_replay_seed_for_seed() {
        let g = generators::gnp_connected(48, 0.15, &mut rng(8), 100);
        for (name, model) in all_models() {
            let trace = TopologyTrace::record(&g, 0, &model, &mut rng(9), 30.0);
            let mut a = rng(10);
            let mut replay = trace.replayer();
            let seq = run_dynamic_model(&g, 0, Mode::PushPull, &mut replay, &mut a, 1_000_000);
            let mut b = rng(10);
            let lazy = run_trace_lazy(&trace, 0, Mode::PushPull, &mut b, 1_000_000);
            assert_eq!(lazy, seq, "{name}: cursor engine diverged");
            assert_eq!(a.next_u64(), b.next_u64(), "{name}: RNG state diverged");
            assert_eq!(replay.applied() as u64, seq.topology_events, "{name}: cursor drift");
        }
    }

    #[test]
    fn sync_dynamic_on_a_rewire_trace_matches_run_sync_rewire_snapshots() {
        // A rewire trace snapshots at times k, 2k, …; run_sync_rewire
        // redraws at rounds k+1, 2k+1, …. The trace-driven sync engine
        // must apply them at the same round boundaries (the snapshots
        // themselves differ — different RNG streams — so compare the
        // *round structure* via a period longer than the run).
        let g = generators::gnp_connected(48, 0.2, &mut rng(11), 100);
        let family = SnapshotFamily::Gnp { p: 0.2 };
        // Period beyond the run length: both engines never rewire, so
        // the runs coincide with the static protocol seed-for-seed.
        let model = DynamicModel::Rewire(Rewire::new(1_000.0, family));
        let trace = TopologyTrace::record(&g, 0, &model, &mut rng(12), 100.0);
        assert!(trace.is_empty());
        let a = run_sync_dynamic(&trace, 0, Mode::PushPull, &mut rng(13), 10_000);
        let b = run_sync_rewire(&g, 0, Mode::PushPull, 1_000, family, &mut rng(13), 10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn sync_dynamic_completes_under_all_models() {
        let g = generators::gnp_connected(48, 0.2, &mut rng(14), 100);
        for (name, model) in all_models() {
            let trace = TopologyTrace::record(&g, 0, &model, &mut rng(15), 200.0);
            let out = run_sync_dynamic(&trace, 0, Mode::PushPull, &mut rng(16), 100_000);
            assert!(out.completed, "{name}: sync run censored");
            assert_eq!(*out.informed_by_round.last().unwrap(), 48, "{name}");
        }
    }

    #[test]
    fn recorder_round_trips_through_an_engine_run() {
        // Recording a replayer inside a live engine run reproduces the
        // prefix of the trace the run actually consumed.
        let g = generators::gnp_connected(32, 0.2, &mut rng(17), 100);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(2.0));
        let trace = TopologyTrace::record(&g, 0, &model, &mut rng(18), 20.0);
        let mut recorder = TraceRecorder::wrap(Box::new(trace.replayer()));
        let out = run_dynamic_model(&g, 0, Mode::PushPull, &mut recorder, &mut rng(19), 1_000_000);
        let rerecorded = trace_prefix(&trace, out.topology_events as usize);
        let got = recorder.into_trace();
        assert_eq!(got.initial(), rerecorded.initial());
        assert!(got.steps().eq(rerecorded.steps()));
    }

    fn trace_prefix(trace: &TopologyTrace, len: usize) -> TopologyTrace {
        let c = &trace.steps;
        let ops = if len == 0 { 0 } else { c.ends[len - 1] as usize };
        let steps = StepColumns {
            times: c.times[..len].to_vec(),
            ends: c.ends[..len].to_vec(),
            ops: c.ops[..ops].to_vec(),
        };
        TopologyTrace { initial: trace.initial.clone(), steps, horizon: trace.horizon }
    }

    #[test]
    fn replay_of_replay_is_a_fixed_point() {
        let g = generators::gnp_connected(32, 0.2, &mut rng(20), 100);
        for (name, model) in all_models() {
            let t1 = TopologyTrace::record(&g, 0, &model, &mut rng(21), 15.0);
            let t2 =
                TopologyTrace::record_state(&g, 0, &mut t1.replayer(), &mut rng(99), t1.horizon());
            assert_eq!(t2, t1, "{name}: replay of a replay drifted");
        }
    }

    #[test]
    fn one_replayer_serves_consecutive_engine_runs() {
        // The cursor resets on init, so a single replayer can be
        // driven through several runs back to back (regression: stale
        // cursor state leaked across runs).
        let g = generators::gnp_connected(32, 0.2, &mut rng(26), 100);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
        let trace = TopologyTrace::record(&g, 0, &model, &mut rng(27), 15.0);
        let mut replay = trace.replayer();
        let a = run_dynamic_model(&g, 0, Mode::PushPull, &mut replay, &mut rng(28), 1_000_000);
        let b = run_dynamic_model(&g, 0, Mode::PushPull, &mut replay, &mut rng(28), 1_000_000);
        assert_eq!(a, b);
        assert_eq!(replay.applied() as u64, b.topology_events);
    }

    #[test]
    fn v2_record_of_a_replay_reproduces_the_trace() {
        // A replayer consumes no randomness and reports no stochastic
        // channels, so recording it under the v2 contract walks the
        // same side-queue events as v1: the fixed point holds across
        // contracts.
        let g = generators::gnp_connected(32, 0.2, &mut rng(30), 100);
        for (name, model) in all_models() {
            let t1 = TopologyTrace::record(&g, 0, &model, &mut rng(31), 15.0);
            let t2 = TopologyTrace::record_state_under(
                RngContract::V2,
                &g,
                0,
                &mut t1.replayer(),
                &mut rng(99),
                t1.horizon(),
            );
            assert_eq!(t2, t1, "{name}: v2 replay of a replay drifted");
        }
    }

    #[test]
    fn v2_record_produces_time_ordered_effective_steps() {
        let g = generators::gnp_connected(32, 0.2, &mut rng(33), 100);
        for (name, model) in all_models() {
            let trace =
                TopologyTrace::record_under(RngContract::V2, &g, 0, &model, &mut rng(34), 12.0);
            assert!(!trace.is_empty(), "{name}: no steps recorded");
            assert!(trace.steps.times.is_sorted(), "{name}: out-of-order steps");
            for step in trace.steps() {
                assert!(!step.ops.is_empty(), "{name}: no-op step recorded");
                assert!(step.time > 0.0 && step.time <= trace.horizon(), "{name}: bad time");
            }
        }
    }

    #[test]
    fn recorder_captures_a_v2_engine_run() {
        // The recorder journals channel fires like queue events: under
        // edge-Markov every fire is one effective flip, so the trace
        // length equals the run's topology-event count.
        let g = generators::gnp_connected(32, 0.2, &mut rng(35), 100);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(2.0));
        let mut recorder = TraceRecorder::new(&model);
        let out = crate::dynamic::run_dynamic_model_under(
            RngContract::V2,
            &g,
            0,
            Mode::PushPull,
            &mut recorder,
            &mut rng(36),
            1_000_000,
        );
        assert!(out.completed);
        let trace = recorder.into_trace();
        assert_eq!(trace.len() as u64, out.topology_events);
        assert!(trace.steps.times.is_sorted());
    }

    #[test]
    fn replay_past_the_horizon_freezes_the_topology() {
        // Dense base: a handful of frozen-off edges cannot disconnect it.
        let g = generators::complete(16);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.05));
        let trace = TopologyTrace::record(&g, 0, &model, &mut rng(23), 2.0);
        let out = run_trace_lazy(&trace, 0, Mode::PushPull, &mut rng(24), 10_000_000);
        assert!(out.completed);
        assert!(out.topology_events <= trace.len() as u64);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn record_rejects_infinite_horizon() {
        let g = generators::complete(4);
        TopologyTrace::record(&g, 0, &DynamicModel::Static, &mut rng(25), f64::INFINITY);
    }
}
