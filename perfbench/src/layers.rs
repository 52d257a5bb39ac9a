//! Outside-in instrumentation of the layer boundaries.
//!
//! Nothing here reaches inside the crates: [`TracedTopology`] is a
//! [`Topology`] that delegates to a real one and times every
//! `with_neighbors` call (the `graph` layer) together with the engine
//! callback it lends the neighborhood to (the `engine` resolution path), and
//! [`JobClock`] is a [`SweepObserver`] that timestamps each sweep job (the
//! `sweep` layer). Spans are aggregated in memory as a count, a total and a
//! log2 histogram per boundary, and written out when the benchmark ends.

use broadcast::{Outcome, Scenario};
use mini_json::Json;
use radio_sim::{Graph, NodeId, Topology};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};
use sweep::{SweepJob, SweepObserver};

/// Span durations at one boundary: count, total and a log2 histogram
/// (bucket `b` holds spans of `[2^(b-1), 2^b)` nanoseconds; bucket 0 holds
/// zero-length spans).
#[derive(Clone, Debug)]
pub struct Spans {
    count: u64,
    total_ns: u64,
    hist: [u64; 64],
}

impl Default for Spans {
    fn default() -> Self {
        Spans { count: 0, total_ns: 0, hist: [0; 64] }
    }
}

impl Spans {
    /// Records one span.
    pub fn record(&mut self, span: Duration) {
        let ns = u64::try_from(span.as_nanos()).unwrap_or(u64::MAX);
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.hist[(64 - ns.leading_zeros() as usize).min(63)] += 1;
    }

    /// Folds another aggregate of the same boundary into this one.
    pub fn absorb(&mut self, other: &Spans) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        for (a, b) in self.hist.iter_mut().zip(other.hist) {
            *a += b;
        }
    }

    /// Number of spans.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total span time in seconds.
    pub fn secs(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// The aggregate as written to the trace file (histogram trimmed of its
    /// empty tail).
    pub fn to_json(&self) -> Json {
        let used = self.hist.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        Json::obj([
            ("count", Json::from(self.count)),
            ("total_ns", Json::from(self.total_ns)),
            ("log2_ns_hist", Json::from(self.hist[..used].to_vec())),
        ])
    }
}

/// What a [`TracedTopology`] saw: neighborhood queries, the entries they
/// returned, and the time split between the topology itself and the
/// caller's callback.
#[derive(Debug, Default)]
pub struct GraphRecord {
    entries: Cell<u64>,
    /// Time inside `with_neighbors` minus the callback: the graph layer's
    /// self time.
    graph: RefCell<Spans>,
    /// Time inside the callback: the engine's resolution over the lent
    /// neighborhood (and, for the one BFS per run, the BFS queue push).
    callback: RefCell<Spans>,
}

impl GraphRecord {
    /// Neighborhood queries answered.
    pub fn calls(&self) -> u64 {
        self.graph.borrow().count()
    }

    /// Neighborhood entries handed out.
    pub fn entries(&self) -> u64 {
        self.entries.get()
    }

    /// Graph-layer self time.
    pub fn graph_spans(&self) -> Spans {
        self.graph.borrow().clone()
    }

    /// Callback (resolution) time.
    pub fn callback_spans(&self) -> Spans {
        self.callback.borrow().clone()
    }
}

/// A [`Topology`] that delegates to `inner` and records every neighborhood
/// query into a shared [`GraphRecord`].
#[derive(Debug)]
pub struct TracedTopology<T> {
    inner: T,
    record: Rc<GraphRecord>,
}

impl<T: Topology> TracedTopology<T> {
    /// Wraps `inner`; the returned record fills as the wrapper is queried.
    pub fn new(inner: T) -> (Self, Rc<GraphRecord>) {
        let record = Rc::new(GraphRecord::default());
        (TracedTopology { inner, record: Rc::clone(&record) }, record)
    }
}

impl<T: Topology> Topology for TracedTopology<T> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn with_neighbors<R>(&self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        let start = Instant::now();
        let mut lent = Duration::ZERO;
        let mut len = 0;
        let out = self.inner.with_neighbors(v, |nbrs| {
            let t = Instant::now();
            len = nbrs.len();
            let out = f(nbrs);
            lent = t.elapsed();
            out
        });
        let total = start.elapsed();
        self.record.entries.set(self.record.entries.get() + len as u64);
        self.record.graph.borrow_mut().record(total.saturating_sub(lent));
        self.record.callback.borrow_mut().record(lent);
        out
    }

    fn as_graph(&self) -> Option<&Graph> {
        self.inner.as_graph()
    }

    fn replace(&mut self, graph: Graph) {
        self.inner.replace(graph);
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }
}

/// A topology of isolated nodes: every neighborhood is empty.
struct Isolated;

impl Topology for Isolated {
    fn node_count(&self) -> usize {
        1
    }

    fn with_neighbors<R>(&self, _: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        f(&[])
    }

    fn resident_bytes(&self) -> usize {
        0
    }
}

/// What the wrapper costs per call, in nanoseconds, measured by wrapping a
/// topology that does no work with a callback that does none; each figure
/// is the minimum over a few batches, since interruptions only ever add
/// time.
#[derive(Clone, Copy, Debug)]
pub struct TimerBias {
    /// Timer cost that lands in a call's graph self-time reading.
    pub graph: f64,
    /// Timer cost that lands in a call's callback reading.
    pub callback: f64,
    /// Whole wall-time cost of one wrapped call over an unwrapped one.
    pub call: f64,
}

impl TimerBias {
    /// Measures the bias on this machine.
    pub fn measure() -> Self {
        const CALLS: u32 = 20_000;
        let mut bias =
            TimerBias { graph: f64::INFINITY, callback: f64::INFINITY, call: f64::INFINITY };
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..CALLS {
                std::hint::black_box(Isolated.with_neighbors(NodeId::new(0), <[NodeId]>::len));
            }
            let bare = t.elapsed().as_secs_f64();
            let (topology, record) = TracedTopology::new(Isolated);
            let t = Instant::now();
            for _ in 0..CALLS {
                std::hint::black_box(topology.with_neighbors(NodeId::new(0), <[NodeId]>::len));
            }
            let wrapped = t.elapsed().as_secs_f64();
            let per_call = |secs: f64| secs * 1e9 / f64::from(CALLS);
            bias.graph = bias.graph.min(per_call(record.graph_spans().secs()));
            bias.callback = bias.callback.min(per_call(record.callback_spans().secs()));
            bias.call = bias.call.min(per_call(wrapped - bare));
        }
        bias
    }
}

/// One sweep job as a worker ran it: from the worker's last
/// `cancelled()` poll before the job to its `outcome()` call.
#[derive(Clone, Copy, Debug)]
pub struct JobSpan {
    /// Dense worker index (order of first poll).
    pub worker: usize,
    /// Serial position of the job in the sweep.
    pub order: u64,
    /// Job start.
    pub start: Instant,
    /// Job end.
    pub end: Instant,
}

/// A [`SweepObserver`] that timestamps jobs per worker thread. It never
/// cancels, so the sweep runs exactly as an unobserved one would.
#[derive(Debug, Default)]
pub struct JobClock {
    last_poll: Mutex<HashMap<ThreadId, (usize, Instant)>>,
    spans: Mutex<Vec<JobSpan>>,
}

impl JobClock {
    /// The recorded job spans, in completion order.
    pub fn into_spans(self) -> Vec<JobSpan> {
        self.spans.into_inner().expect("job span lock poisoned")
    }
}

impl SweepObserver for JobClock {
    fn outcome(&self, job: SweepJob, _: &Scenario, _: &Outcome) {
        let end = Instant::now();
        let (worker, start) = *self
            .last_poll
            .lock()
            .expect("job clock lock poisoned")
            .get(&std::thread::current().id())
            .expect("the pool polls cancelled() before every job");
        self.spans.lock().expect("job span lock poisoned").push(JobSpan {
            worker,
            order: job.order,
            start,
            end,
        });
    }

    fn cancelled(&self) -> bool {
        let now = Instant::now();
        let mut polls = self.last_poll.lock().expect("job clock lock poisoned");
        let next = polls.len();
        polls.entry(std::thread::current().id()).or_insert((next, now)).1 = now;
        false
    }
}
