//! Uniform instrumentation for the simulation: counters, virtual-time
//! histograms, and a structured trace-event ring.
//!
//! Every [`crate::Simulation`] owns one [`Telemetry`] registry, reachable
//! from any process via [`crate::Env::handle`]`().telemetry()`. Layers
//! (links, RPC endpoints, caches, proxies) register named metrics once and
//! then update them through lock-free atomics — a metric update on a hot
//! path is one `fetch_add`, never a registry lock. The registry lock is
//! only taken at registration and snapshot time.
//!
//! Naming convention: every metric lives under a `layer` (e.g. `"link"`,
//! `"rpc"`, `"nfs3"`, `"gvfs"`) and a dotted `name` whose first segment is
//! the component instance (e.g. `"client-proxy.read.calls"`). Components
//! that may be instantiated several times under one simulation (parallel
//! cloning spawns eight identical client proxies) disambiguate through
//! [`Telemetry::instance_name`], which yields `base`, `base#2`, `base#3`…
//! Two components that register the *same* fully-qualified metric share
//! the underlying atomic — for same-named links this is deliberate and
//! gives aggregate semantics.
//!
//! Every distribution — RPC latency, link transfer time, clone latency —
//! is one type, [`PercentileSketch`]: log-linear buckets with quantile
//! estimates within 12.5 % of the true value, and an exact count, sum and
//! maximum.
//!
//! Components register their metrics when they are built, so a report's
//! keys depend on the topology, not on which knobs were on or which
//! events happened; counters only go up (a phase delta is `after -
//! before`).
//!
//! The trace ring is off by default; [`Telemetry::set_trace`] turns it on
//! (the bench binaries map `--trace` to it). When enabled, processes
//! append [`TraceEvent`]s (virtual-time-stamped, structured) to a bounded
//! ring; overflow drops the oldest events and counts the drops.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::time::{SimDuration, SimTime};

/// Default capacity of the trace-event ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

// ---------------------------------------------------------------------------
// Counter

/// A monotonically increasing event/byte counter. Cloning is cheap and
/// clones share the same underlying cell, which is how the legacy stats
/// structs (`ProxyStats` etc.) stay in sync with the registry: both sides
/// hold the same `Counter`.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh, unregistered counter (mostly for tests).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

// ---------------------------------------------------------------------------
// Gauge

struct GaugeInner {
    value: AtomicU64,
    max: AtomicU64,
}

/// An up/down occupancy gauge with a high-water mark (e.g. in-flight RPCs
/// in a transfer window). Cloning shares the underlying cells (same
/// contract as [`Counter`]).
#[derive(Clone)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            inner: Arc::new(GaugeInner {
                value: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }
}

impl Gauge {
    /// A fresh, unregistered gauge (mostly for tests).
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Raise the gauge by `n`, updating the high-water mark. Returns the
    /// new value.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        let now = self.inner.value.fetch_add(n, Ordering::Relaxed) + n;
        self.inner.max.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Raise by one.
    #[inline]
    pub fn inc(&self) -> u64 {
        self.add(1)
    }

    /// Lower the gauge by `n`. Going below zero is an accounting bug
    /// (exact-accounting invariant): asserted in debug builds, never
    /// silently clamped.
    #[inline]
    pub fn sub(&self, n: u64) {
        let prev = self.inner.value.fetch_sub(n, Ordering::Relaxed);
        debug_assert!(prev >= n, "gauge underflow: {prev} - {n}");
    }

    /// Lower by one.
    #[inline]
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.inner.value.load(Ordering::Relaxed)
    }

    /// Highest value ever reached.
    #[inline]
    pub fn high_water(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({}, max={})", self.get(), self.high_water())
    }
}

// ---------------------------------------------------------------------------
// PercentileSketch

/// Linear sub-buckets per power-of-two octave in a [`PercentileSketch`]
/// (`2^SKETCH_SUB_BITS`). Eight sub-buckets bound the relative quantile
/// error at 1/8 = 12.5%.
pub const SKETCH_SUB_BITS: u32 = 3;

/// Number of linear sub-buckets per octave.
pub const SKETCH_SUB: usize = 1 << SKETCH_SUB_BITS;

/// Total cells in a [`PercentileSketch`]. The highest reachable index is
/// `(63 - 3 + 1) * 8 + 7 = 495`; 512 rounds up to a power of two.
pub const SKETCH_BUCKETS: usize = 512;

/// Fixed log-linear bucket index for a nanosecond value: values below
/// `2^SKETCH_SUB_BITS` map exactly; above that, the exponent selects the
/// octave and the next [`SKETCH_SUB_BITS`] mantissa bits the sub-bucket.
fn sketch_index(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    let e = 63 - ns.leading_zeros() as usize;
    let sb = SKETCH_SUB_BITS as usize;
    if e < sb {
        ns as usize
    } else {
        let sub = ((ns >> (e - sb)) & (SKETCH_SUB as u64 - 1)) as usize;
        (e - sb + 1) * SKETCH_SUB + sub
    }
}

/// Inclusive upper bound (ns) of the values sketch bucket `idx` holds.
fn sketch_upper_bound(idx: usize) -> u64 {
    let sb = SKETCH_SUB_BITS as usize;
    if idx < SKETCH_SUB {
        idx as u64
    } else {
        let e = idx / SKETCH_SUB + sb - 1;
        let sub = (idx % SKETCH_SUB) as u64;
        let width = 1u64 << (e - sb);
        // `-1` before the add: the top bucket's bound is exactly u64::MAX
        // and the other order would overflow computing it.
        (1u64 << e) - 1 + (sub + 1) * width
    }
}

struct SketchInner {
    buckets: [AtomicU64; SKETCH_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// The one distribution type (registered by [`Telemetry::histogram`]):
/// fixed log-linear buckets (8 linear sub-buckets per power-of-two
/// octave) holding nanosecond samples, with relative quantile error
/// ≤ 12.5% and exact count, sum and maximum. The record path is index
/// arithmetic plus four relaxed `fetch_add`/`fetch_max` operations — no
/// locks and no allocation, ever (the `allocation-free-record` lint rule
/// pins this).
/// Cloning shares the underlying cells (same contract as [`Counter`]).
#[derive(Clone)]
pub struct PercentileSketch {
    inner: Arc<SketchInner>,
}

impl Default for PercentileSketch {
    fn default() -> Self {
        PercentileSketch {
            inner: Arc::new(SketchInner {
                buckets: [const { AtomicU64::new(0) }; SKETCH_BUCKETS],
                count: AtomicU64::new(0),
                sum_ns: AtomicU64::new(0),
                max_ns: AtomicU64::new(0),
            }),
        }
    }
}

impl PercentileSketch {
    /// A fresh, unregistered sketch (mostly for tests).
    pub fn new() -> Self {
        PercentileSketch::default()
    }

    /// Record one duration sample. Allocation-free.
    #[inline]
    pub fn record(&self, d: SimDuration) {
        self.record_ns(d.as_nanos());
    }

    /// Record one raw nanosecond (or unit-less, e.g. queue-depth) sample.
    /// Allocation-free.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let s = &*self.inner;
        s.buckets[sketch_index(ns)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum_ns.fetch_add(ns, Ordering::Relaxed);
        s.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.inner.sum_ns.load(Ordering::Relaxed)
    }

    /// Largest recorded sample, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.inner.max_ns.load(Ordering::Relaxed)
    }

    /// Mean sample value in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns().checked_div(self.count()).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `q`-quantile (0.0–1.0),
    /// clamped to the observed maximum. Within 12.5% of the true value.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.inner.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return sketch_upper_bound(i).min(self.max_ns());
            }
        }
        self.max_ns()
    }
}

impl std::fmt::Debug for PercentileSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PercentileSketch(count={}, p50={}ns, p99={}ns)",
            self.count(),
            self.quantile_ns(0.50),
            self.quantile_ns(0.99)
        )
    }
}

// ---------------------------------------------------------------------------
// Trace events

/// One structured, virtual-time-stamped trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Virtual time at which the event completed.
    pub sim_time: SimTime,
    /// Layer that emitted it (`"link"`, `"rpc"`, `"gvfs"`, …).
    pub layer: &'static str,
    /// Event kind within the layer (`"transfer"`, `"channel-fetch"`, …).
    pub kind: &'static str,
    /// Bytes moved, if the event moves bytes.
    pub bytes: u64,
    /// Virtual time the operation took.
    pub duration: SimDuration,
    /// Free-form key/value context (instance names, procedures, files).
    pub labels: Vec<(&'static str, String)>,
}

impl TraceEvent {
    /// Start building an event stamped `at` the given virtual time.
    pub fn new(at: SimTime, layer: &'static str, kind: &'static str) -> Self {
        TraceEvent {
            sim_time: at,
            layer,
            kind,
            bytes: 0,
            duration: SimDuration::ZERO,
            labels: Vec::new(),
        }
    }

    /// Attach a byte count.
    pub fn bytes(mut self, n: u64) -> Self {
        self.bytes = n;
        self
    }

    /// Attach the operation's virtual duration.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Attach a key/value label.
    pub fn label(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.labels.push((key, value.into()));
        self
    }
}

struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

// ---------------------------------------------------------------------------
// Registry

struct TelemetryInner {
    counters: Mutex<BTreeMap<(&'static str, String), Counter>>,
    gauges: Mutex<BTreeMap<(&'static str, String), Gauge>>,
    histograms: Mutex<BTreeMap<(&'static str, String), PercentileSketch>>,
    instances: Mutex<BTreeMap<String, u64>>,
    ring: Mutex<Ring>,
    trace_enabled: AtomicBool,
    /// Debug builds count every get-or-register resolution so tests can
    /// assert that hot record paths cache their handles instead of taking
    /// this registry's locks per event (see `debug_resolutions`).
    #[cfg(debug_assertions)]
    resolutions: std::sync::atomic::AtomicU64,
}

/// The per-simulation metric registry and trace sink. Cheap to clone;
/// all clones share state.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An empty registry with tracing disabled.
    pub fn new() -> Self {
        Telemetry {
            inner: Arc::new(TelemetryInner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                instances: Mutex::new(BTreeMap::new()),
                ring: Mutex::new(Ring {
                    events: VecDeque::new(),
                    capacity: DEFAULT_TRACE_CAPACITY,
                    dropped: 0,
                }),
                trace_enabled: AtomicBool::new(false),
                #[cfg(debug_assertions)]
                resolutions: std::sync::atomic::AtomicU64::new(0),
            }),
        }
    }

    /// Get or register the counter `layer`/`name`. Registering the same
    /// pair twice returns clones of one shared cell.
    pub fn counter(&self, layer: &'static str, name: impl Into<String>) -> Counter {
        self.note_resolution();
        self.inner
            .counters
            .lock()
            .entry((layer, name.into()))
            .or_default()
            .clone()
    }

    /// Get or register the gauge `layer`/`name`.
    pub fn gauge(&self, layer: &'static str, name: impl Into<String>) -> Gauge {
        self.note_resolution();
        self.inner
            .gauges
            .lock()
            .entry((layer, name.into()))
            .or_default()
            .clone()
    }

    /// Get or register the histogram `layer`/`name`.
    pub fn histogram(&self, layer: &'static str, name: impl Into<String>) -> PercentileSketch {
        self.note_resolution();
        self.inner
            .histograms
            .lock()
            .entry((layer, name.into()))
            .or_default()
            .clone()
    }

    /// [`Telemetry::histogram`] under the name the repository benchmark's
    /// probes use.
    pub fn sketch(&self, layer: &'static str, name: impl Into<String>) -> PercentileSketch {
        self.histogram(layer, name)
    }

    #[inline]
    fn note_resolution(&self) {
        #[cfg(debug_assertions)]
        self.inner
            .resolutions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Total get-or-register resolutions performed on this registry
    /// (debug builds only; always 0 in release). Every resolution takes a
    /// global lock and allocates a key, so per-event paths must resolve
    /// their handles once at construction and hold the returned cells;
    /// tests pin that by asserting this count stays flat across a burst
    /// of recorded events.
    pub fn debug_resolutions(&self) -> u64 {
        #[cfg(debug_assertions)]
        {
            self.inner
                .resolutions
                .load(std::sync::atomic::Ordering::Relaxed)
        }
        #[cfg(not(debug_assertions))]
        {
            0
        }
    }

    /// Reserve a unique instance name derived from `base`: the first
    /// caller gets `base`, the second `base#2`, and so on. Components
    /// use the result as the first segment of their metric names so
    /// eight parallel `client-proxy` instances stay distinguishable.
    pub fn instance_name(&self, base: &str) -> String {
        let mut instances = self.inner.instances.lock();
        let n = instances.entry(base.to_string()).or_insert(0);
        *n += 1;
        if *n == 1 {
            base.to_string()
        } else {
            format!("{base}#{n}")
        }
    }

    /// Enable or disable trace-event collection.
    pub fn set_trace(&self, enabled: bool) {
        self.inner.trace_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether trace-event collection is on. Callers building expensive
    /// labels should check this first; [`Telemetry::trace`] also checks.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.inner.trace_enabled.load(Ordering::Relaxed)
    }

    /// Append an event to the ring (no-op while tracing is disabled).
    pub fn trace(&self, event: TraceEvent) {
        if !self.trace_enabled() {
            return;
        }
        let mut ring = self.inner.ring.lock();
        if ring.events.len() >= ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Change the ring capacity (drops oldest events if shrinking).
    pub fn set_trace_capacity(&self, capacity: usize) {
        let mut ring = self.inner.ring.lock();
        ring.capacity = capacity.max(1);
        while ring.events.len() > ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
    }

    /// Copy out the current metric values and trace events.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .iter()
            .map(|((layer, name), c)| CounterSample {
                layer,
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .iter()
            .map(|((layer, name), g)| GaugeSample {
                layer,
                name: name.clone(),
                value: g.get(),
                high_water: g.high_water(),
            })
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .iter()
            .map(|((layer, name), h)| HistogramSample {
                layer,
                name: name.clone(),
                count: h.count(),
                sum_ns: h.sum_ns(),
                max_ns: h.max_ns(),
                p50_ns: h.quantile_ns(0.50),
                p95_ns: h.quantile_ns(0.95),
                p99_ns: h.quantile_ns(0.99),
            })
            .collect();
        let ring = self.inner.ring.lock();
        Snapshot {
            counters,
            gauges,
            histograms,
            events: ring.events.iter().cloned().collect(),
            events_dropped: ring.dropped,
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots and JSON

/// One counter's value at snapshot time.
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Layer the counter was registered under.
    pub layer: &'static str,
    /// Dotted metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge's value and high-water mark at snapshot time.
#[derive(Debug, Clone)]
pub struct GaugeSample {
    /// Layer the gauge was registered under.
    pub layer: &'static str,
    /// Dotted metric name.
    pub name: String,
    /// Value at snapshot time (usually 0 once all work has drained).
    pub value: u64,
    /// Highest value ever reached.
    pub high_water: u64,
}

/// One histogram's summary at snapshot time.
#[derive(Debug, Clone)]
pub struct HistogramSample {
    /// Layer the histogram was registered under.
    pub layer: &'static str,
    /// Dotted metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (ns).
    pub sum_ns: u64,
    /// Largest sample (ns).
    pub max_ns: u64,
    /// Median estimate (bucket upper bound, ns).
    pub p50_ns: u64,
    /// 95th-percentile estimate (bucket upper bound, ns).
    pub p95_ns: u64,
    /// 99th-percentile estimate (bucket upper bound, ns).
    pub p99_ns: u64,
}

/// A point-in-time copy of every registered metric plus the trace ring.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All counters, sorted by (layer, name).
    pub counters: Vec<CounterSample>,
    /// All gauges, sorted by (layer, name).
    pub gauges: Vec<GaugeSample>,
    /// All histograms, sorted by (layer, name).
    pub histograms: Vec<HistogramSample>,
    /// Trace events, oldest first (empty unless tracing was enabled).
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring due to capacity.
    pub events_dropped: u64,
}

impl Snapshot {
    /// Value of counter `layer`/`name`, or 0 if absent (test helper).
    pub fn counter(&self, layer: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.layer == layer && c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Sum of all counters under `layer` whose dotted name ends with
    /// `suffix` (e.g. every instance's `read.calls`).
    pub fn counter_sum(&self, layer: &str, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.layer == layer && (c.name == suffix || c.name.ends_with(suffix)))
            .map(|c| c.value)
            .sum()
    }

    /// Sample summary of histogram `layer`/`name`, if registered.
    pub fn histogram(&self, layer: &str, name: &str) -> Option<&HistogramSample> {
        self.histograms
            .iter()
            .find(|h| h.layer == layer && h.name == name)
    }

    /// High-water mark of gauge `layer`/`name`, or 0 if absent (test
    /// helper).
    pub fn gauge_high_water(&self, layer: &str, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|g| g.layer == layer && g.name == name)
            .map_or(0, |g| g.high_water)
    }

    /// Render the metrics (and events, if any) as a JSON value.
    pub fn to_json(&self) -> JsonValue {
        let mut counters = Vec::new();
        for c in &self.counters {
            counters.push((format!("{}.{}", c.layer, c.name), JsonValue::Uint(c.value)));
        }
        let mut histograms = Vec::new();
        for h in &self.histograms {
            histograms.push((
                format!("{}.{}", h.layer, h.name),
                JsonValue::object([
                    ("count", JsonValue::Uint(h.count)),
                    ("sum_ns", JsonValue::Uint(h.sum_ns)),
                    ("max_ns", JsonValue::Uint(h.max_ns)),
                    ("p50_ns", JsonValue::Uint(h.p50_ns)),
                    ("p95_ns", JsonValue::Uint(h.p95_ns)),
                    ("p99_ns", JsonValue::Uint(h.p99_ns)),
                ]),
            ));
        }
        let mut gauges = Vec::new();
        for g in &self.gauges {
            gauges.push((
                format!("{}.{}", g.layer, g.name),
                JsonValue::object([
                    ("value", JsonValue::Uint(g.value)),
                    ("high_water", JsonValue::Uint(g.high_water)),
                ]),
            ));
        }
        let mut fields = vec![
            ("counters".to_string(), JsonValue::Object(counters)),
            ("gauges".to_string(), JsonValue::Object(gauges)),
            ("histograms".to_string(), JsonValue::Object(histograms)),
        ];
        if !self.events.is_empty() || self.events_dropped > 0 {
            fields.push((
                "events_dropped".to_string(),
                JsonValue::Uint(self.events_dropped),
            ));
            let events = self
                .events
                .iter()
                .map(|e| {
                    let mut ev = vec![
                        ("t_ns".to_string(), JsonValue::Uint(e.sim_time.as_nanos())),
                        ("layer".to_string(), JsonValue::from(e.layer)),
                        ("kind".to_string(), JsonValue::from(e.kind)),
                        ("bytes".to_string(), JsonValue::Uint(e.bytes)),
                        ("dur_ns".to_string(), JsonValue::Uint(e.duration.as_nanos())),
                    ];
                    if !e.labels.is_empty() {
                        ev.push((
                            "labels".to_string(),
                            JsonValue::Object(
                                e.labels
                                    .iter()
                                    .map(|(k, v)| (k.to_string(), JsonValue::from(v.as_str())))
                                    .collect(),
                            ),
                        ));
                    }
                    JsonValue::Object(ev)
                })
                .collect();
            fields.push(("events".to_string(), JsonValue::Array(events)));
        }
        JsonValue::Object(fields)
    }
}

/// A minimal JSON document model (the workspace builds fully offline, so
/// there is no serde; this is the one JSON producer everything shares).
/// Rendering via [`std::fmt::Display`] produces pretty-printed,
/// deterministic output: object keys keep insertion order.
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (exact).
    Uint(u64),
    /// A float, rendered with enough precision for timings.
    Float(f64),
    /// A string (escaped on output).
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An ordered key→value map.
    Object(Vec<(String, JsonValue)>),
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}
impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Uint(n)
    }
}
impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Float(x)
    }
}
impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl JsonValue {
    /// Build an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Append a field (no-op target unless this is an object).
    pub fn push_field(&mut self, key: impl Into<String>, value: JsonValue) {
        if let JsonValue::Object(fields) = self {
            fields.push((key.into(), value));
        } else {
            debug_assert!(false, "push_field on a non-object JsonValue");
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        const PAD: &str = "  ";
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Uint(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Float(x) => {
                if x.is_finite() {
                    // Round-trippable but compact: up to 6 significant
                    // decimals is plenty for second-scale timings.
                    let _ = write!(out, "{x:.6}");
                    while out.ends_with('0') {
                        out.pop();
                    }
                    if out.ends_with('.') {
                        out.push('0');
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&PAD.repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&PAD.repeat(indent));
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&PAD.repeat(indent + 1));
                    out.push('"');
                    out.push_str(&json_escape(k));
                    out.push_str("\": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&PAD.repeat(indent));
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for JsonValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let t = Telemetry::new();
        let a = t.counter("link", "wan.bytes");
        let b = t.counter("link", "wan.bytes");
        a.add(5);
        b.add(7);
        assert_eq!(a.get(), 12);
        assert_eq!(t.snapshot().counter("link", "wan.bytes"), 12);
    }

    #[test]
    fn gauges_track_occupancy_and_high_water() {
        let t = Telemetry::new();
        let g = t.gauge("gvfs", "proxy.transfer.window_inflight");
        assert_eq!(g.inc(), 1);
        assert_eq!(g.add(3), 4);
        g.sub(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 4);
        g.dec();
        g.dec();
        let snap = t.snapshot();
        assert_eq!(
            snap.gauge_high_water("gvfs", "proxy.transfer.window_inflight"),
            4
        );
        let json = snap.to_json().to_string();
        assert!(json.contains("\"high_water\": 4"));
    }

    #[test]
    fn counter_sum_matches_suffix_across_instances() {
        let t = Telemetry::new();
        t.counter("nfs3", "client-proxy.read.calls").add(3);
        t.counter("nfs3", "client-proxy#2.read.calls").add(4);
        t.counter("nfs3", "client-proxy.write.calls").add(9);
        assert_eq!(t.snapshot().counter_sum("nfs3", ".read.calls"), 7);
    }

    #[test]
    fn instance_names_disambiguate() {
        let t = Telemetry::new();
        assert_eq!(t.instance_name("client-proxy"), "client-proxy");
        assert_eq!(t.instance_name("client-proxy"), "client-proxy#2");
        assert_eq!(t.instance_name("client-proxy"), "client-proxy#3");
        assert_eq!(t.instance_name("server-proxy"), "server-proxy");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Telemetry::new().histogram("rpc", "client.nfs3.proc6");
        assert_eq!(h.quantile_ns(0.5), 0);
        for us in [1u64, 2, 4, 100, 100, 100, 10_000] {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum_ns(), 10_307_000);
        assert_eq!(h.max_ns(), 10_000_000);
        // Median sample is 100µs; the bucket upper bound holding it is
        // within 12.5% above it.
        let p50 = h.quantile_ns(0.5);
        assert!((100_000..=112_500).contains(&p50), "p50={p50}");
        // The top quantile is clamped to the observed maximum.
        assert_eq!(h.quantile_ns(1.0), 10_000_000);
    }

    #[test]
    fn sketch_index_is_monotonic_and_inverse_bounds_hold() {
        let mut last = 0usize;
        for ns in [
            0u64,
            1,
            2,
            7,
            8,
            9,
            15,
            16,
            17,
            1023,
            1024,
            1025,
            1 << 40,
            u64::MAX,
        ] {
            let b = sketch_index(ns);
            assert!(b >= last, "index must not decrease at ns={ns}");
            assert!(b < SKETCH_BUCKETS);
            assert!(
                sketch_upper_bound(b) >= ns,
                "upper bound {} below sample {ns}",
                sketch_upper_bound(b)
            );
            last = b;
        }
        // Exact region: small values get their own bucket.
        for ns in 0..SKETCH_SUB as u64 {
            assert_eq!(sketch_upper_bound(sketch_index(ns)), ns);
        }
    }

    #[test]
    fn sketch_quantiles_are_within_the_advertised_error() {
        // Each estimate is the upper bound of the bucket holding the
        // rank-`ceil(q·n)` sample: never below it, at most 12.5% above.
        fn check(samples: &mut [u64]) {
            let s = PercentileSketch::new();
            assert_eq!(s.quantile_ns(0.99), 0);
            for &ns in samples.iter() {
                s.record_ns(ns);
            }
            samples.sort_unstable();
            assert_eq!(s.count(), samples.len() as u64);
            assert_eq!(s.sum_ns(), samples.iter().sum::<u64>());
            assert_eq!(s.max_ns(), *samples.last().unwrap());
            for q in [0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0] {
                let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
                let truth = samples[rank - 1] as f64;
                let est = s.quantile_ns(q) as f64;
                let rel = (est - truth) / truth;
                assert!(
                    (0.0..=0.125).contains(&rel),
                    "q={q}: est={est} truth={truth} rel={rel}"
                );
            }
        }
        // 1000 samples: 1µs, 2µs, …, 1000µs.
        check(&mut (1..=1000u64).map(|us| us * 1_000).collect::<Vec<_>>());
        // An RPC-latency-like mix over five decades: LAN round trips of
        // 20–500µs, WAN round trips of 34–120ms, and multi-second
        // windowed transfers in the tail.
        let mut x = 7u64;
        let mut mix = Vec::new();
        for i in 0..20_000u64 {
            x = crate::fault::splitmix64(x);
            let (lo, hi) = match i % 20 {
                0 => (500_000_000, 5_000_000_000),
                1..=5 => (34_000_000, 120_000_000),
                _ => (20_000, 500_000),
            };
            mix.push(lo + x % (hi - lo));
        }
        check(&mut mix);
    }

    #[test]
    fn histograms_are_shared_by_name_and_always_snapshot() {
        let t = Telemetry::new();
        // An empty registry still renders every section: a report's keys
        // never depend on what happened to be recorded.
        let empty = t.snapshot().to_json().to_string();
        assert!(empty.contains("\"histograms\": {}"), "{empty}");
        assert!(!empty.contains("sketches"));

        let a = t.histogram("fleet", "clone.latency");
        let b = t.sketch("fleet", "clone.latency");
        a.record(SimDuration::from_millis(5));
        b.record(SimDuration::from_millis(7));
        let resolutions_before = t.debug_resolutions();
        for _ in 0..1000 {
            a.record(SimDuration::from_millis(1));
        }
        // Cached-handle discipline: a burst of records takes no registry
        // locks.
        assert_eq!(t.debug_resolutions(), resolutions_before);
        let snap = t.snapshot();
        let h = snap
            .histogram("fleet", "clone.latency")
            .expect("registered");
        assert_eq!(h.count, 1002);
        assert_eq!(h.max_ns, 7_000_000);
        let json = snap.to_json().to_string();
        assert!(json.contains("\"fleet.clone.latency\": {"), "{json}");
        assert!(json.contains("\"p95_ns\""));
    }

    #[test]
    fn trace_ring_bounds_and_drops() {
        let t = Telemetry::new();
        // Disabled: nothing recorded.
        t.trace(TraceEvent::new(SimTime::ZERO, "link", "transfer"));
        assert!(t.snapshot().events.is_empty());

        t.set_trace(true);
        t.set_trace_capacity(4);
        for i in 0..6u64 {
            t.trace(
                TraceEvent::new(SimTime::from_nanos(i), "link", "transfer")
                    .bytes(i)
                    .duration(SimDuration::from_nanos(i)),
            );
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.events_dropped, 2);
        assert_eq!(snap.events[0].sim_time.as_nanos(), 2);
        assert_eq!(snap.events[3].bytes, 5);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let t = Telemetry::new();
        t.counter("rpc", "client.nfs3.READ").add(2);
        t.histogram("rpc", "client.nfs3.READ")
            .record(SimDuration::from_millis(3));
        t.set_trace(true);
        t.trace(
            TraceEvent::new(SimTime::from_nanos(7), "rpc", "call")
                .bytes(42)
                .label("proc", "READ"),
        );
        let json = t.snapshot().to_json().to_string();
        assert!(json.contains("\"rpc.client.nfs3.READ\": 2"));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"proc\": \"READ\""));
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escaping_and_floats() {
        let v = JsonValue::object([
            ("s", JsonValue::from("a\"b\\c\nd")),
            ("f", JsonValue::Float(1.5)),
            ("g", JsonValue::Float(f64::NAN)),
            ("n", JsonValue::Uint(7)),
            ("empty", JsonValue::Array(vec![])),
        ]);
        let s = v.to_string();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""));
        assert!(s.contains("\"f\": 1.5"));
        assert!(s.contains("\"g\": null"));
        assert!(s.contains("\"empty\": []"));
    }
}
