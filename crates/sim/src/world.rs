//! The simulation world: event loop, request routing, instance lifecycle and
//! observability surfaces.
//!
//! [`World`] is the single mutable object an experiment drives. Higher layers
//! (the orchestrator's autoscalers, GRAF's controller, the load generators)
//! interleave with it through a simple contract:
//!
//! 1. schedule request arrivals with [`World::inject`],
//! 2. advance simulated time with [`World::run_until`],
//! 3. between advances, observe metrics/traces and mutate capacity with
//!    [`World::add_instances`] / [`World::remove_instances`].
//!
//! Determinism: all events are processed in `(time, schedule-order)` order and
//! all randomness derives from the seed passed to [`World::new`].

use std::collections::VecDeque;

use graf_metrics::{RateCounter, WindowedLatency};
use graf_trace::{OpenTrace, Span, SpanId, TraceId, TraceStore};

use crate::events::CalendarQueue;
use crate::frame::{Frame, FrameId, FrameState, RequestId};
use crate::loadidx;
use crate::rng::DetRng;
use crate::service::ServiceRuntime;
use crate::station::{Instance, InstanceId, InstanceState};
use crate::time::{SimDuration, SimTime};
use crate::topology::{ApiId, AppTopology, CallNode, ServiceId};

/// Finished traces a world's store retains (the oldest are evicted first).
/// Only a world that samples traces fills it: a reader opts in through
/// [`SimConfig::trace_sample`] and is expected to drain the store as it goes.
const TRACE_CAPACITY: usize = 200_000;

/// How far back a query of a service's CPU account may reach. Checkpoints
/// older than this are dropped as the run goes on, so the account's memory
/// follows the event rate, not the run length. 60 s is four 15 s control
/// windows, the span every utilization reader asks for (the HPA, the
/// FIRM-like scaler); a longer query panics.
pub const CPU_HORIZON: SimDuration = SimDuration(60_000_000);

/// Tuning knobs of the simulation.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Metric window width in µs (latency windows, arrival-rate windows).
    pub window_us: u64,
    /// Number of metric windows retained per surface.
    pub retain_windows: usize,
    /// Probability that a request is traced (Jaeger sampling rate). `0.0`
    /// by default: a world keeps traces only for a reader that asks for
    /// them (the sample collector's profiling runs, the resilient
    /// controller's coverage check). The decision draws from its own stream
    /// whatever the rate, so completions and events are the same at every
    /// rate; only the trace store and `WorldStats::spans` differ.
    pub trace_sample: f64,
    /// Client-side request timeout in µs (`None` = never). Mirrors Vegeta's
    /// 30 s default: a timed-out request is abandoned — its in-flight work is
    /// cancelled and its completion records the capped latency.
    pub request_timeout_us: Option<u64>,
    /// CPU-usage checkpoint resolution in µs: usage samples landing in the
    /// same `t / cpu_checkpoint_us` cell collapse into one stored checkpoint.
    /// `1` (default) keeps one checkpoint per distinct microsecond — exact
    /// for any query inside [`CPU_HORIZON`], beyond which checkpoints are
    /// dropped whatever the resolution. Coarser values shrink the cAdvisor
    /// account further at high event rates; integrals between checkpoints
    /// stay exact because the cumulative value is carried, only intra-cell
    /// query resolution drops.
    pub cpu_checkpoint_us: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            window_us: 1_000_000, // 1 s windows; controllers query trailing k
            retain_windows: 600,
            trace_sample: 0.0,
            request_timeout_us: Some(30_000_000),
            cpu_checkpoint_us: 1,
        }
    }
}

/// A finished end-to-end request.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Request id (doubles as trace id).
    pub request: RequestId,
    /// API invoked.
    pub api: ApiId,
    /// Injection time (front-end receive).
    pub start: SimTime,
    /// Response time (capped at the timeout for abandoned requests).
    pub end: SimTime,
    /// `true` when the client abandoned the request at the timeout.
    pub timed_out: bool,
}

impl Completion {
    /// End-to-end latency in microseconds.
    pub fn latency_us(&self) -> u64 {
        (self.end - self.start).as_micros()
    }
}

/// Aggregate counters, mostly for tests and sanity checks.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldStats {
    /// Requests injected so far.
    pub injected: u64,
    /// Requests completed so far.
    pub completed: u64,
    /// Spans recorded into the trace store.
    pub spans: u64,
    /// Spans suppressed by an injected trace fault ([`World::inject_span_drop`]).
    pub spans_dropped: u64,
    /// Requests abandoned at the client timeout.
    pub timeouts: u64,
    /// Events processed: queue pops plus client deadlines that fired. The
    /// deadline of a request that completed in time is not an event.
    pub events: u64,
    /// `JobCheck` pops that found their instance gone or its epoch moved on
    /// (a later assignment, removal or resize re-armed the check).
    pub stale_job_checks: u64,
    /// `StartFrame` pops whose frame was recycled or had already left the
    /// pending state (its request timed out first).
    pub stale_frame_starts: u64,
}

/// Flattened call-tree node of one API (index-linked for cheap runtime walks).
#[derive(Clone, Debug)]
struct PlanNode {
    service: ServiceId,
    work_scale: f64,
    repeat: u32,
    /// Child stages: executed in order; calls within a stage run in parallel.
    stages: Vec<Vec<u16>>,
    /// Cached `(spec.work_ms · 1e6 · work_scale).max(1e-6)` — the lognormal
    /// mean under no contention, precomputed so the per-assignment sampling
    /// path skips two `ln` calls (see [`World::assign_job`]).
    work_mean_mc_us: f64,
    /// Cached `ln(work_mean_mc_us) − σ²/2` for the same fast path. Bitwise
    /// identical to computing it per call: the inputs never change.
    work_mu: f64,
    /// Frames one execution of this node creates (itself + all repeated
    /// descendants). Span ids are *structural*: a node's subtree occupies a
    /// contiguous id range of this size, so a child's span id is computable
    /// from its parent's without any per-request counter.
    subtree_frames: u32,
    /// Span-id offset of each `stages[s][c]` child's first repetition,
    /// relative to this node's own span id. Repetition `r` of that child
    /// starts at `offset + r × subtree_frames(child)`.
    child_offsets: Vec<Vec<u32>>,
}

#[derive(Clone, Debug)]
struct ApiPlan {
    nodes: Vec<PlanNode>,
    root: u16,
    /// Total frames (= spans when fully sampled) one request of this API
    /// creates — fixed by the call tree's fan-outs and repeats. Used to
    /// right-size trace span buffers in one reservation.
    span_budget: u32,
}

fn flatten(tree: &CallNode) -> ApiPlan {
    fn walk(node: &CallNode, nodes: &mut Vec<PlanNode>) -> u16 {
        let idx = nodes.len() as u16;
        nodes.push(PlanNode {
            service: node.service,
            work_scale: node.work_scale,
            repeat: node.repeat,
            stages: Vec::new(),
            work_mean_mc_us: 0.0,
            work_mu: 0.0,
            subtree_frames: 0,
            child_offsets: Vec::new(),
        });
        let mut stages = Vec::with_capacity(node.stages.len());
        for stage in &node.stages {
            let mut s = Vec::with_capacity(stage.len());
            for c in stage {
                s.push(walk(c, nodes));
            }
            stages.push(s);
        }
        nodes[idx as usize].stages = stages;
        idx
    }
    // Structural span numbering: each node's subtree occupies a contiguous
    // id range in DFS-preorder, so every frame's span id is its parent's id
    // plus a precomputed offset (repetitions shift by whole subtree sizes).
    // Fills `subtree_frames`/`child_offsets`; returns the subtree size.
    fn number(nodes: &mut Vec<PlanNode>, idx: u16) -> u32 {
        let stages = nodes[idx as usize].stages.clone();
        let mut running = 1u32; // offset 0 is the node itself
        let mut offsets = Vec::with_capacity(stages.len());
        for stage in &stages {
            let mut per_call = Vec::with_capacity(stage.len());
            for &c in stage {
                per_call.push(running);
                let sub = number(nodes, c);
                running += nodes[c as usize].repeat * sub;
            }
            offsets.push(per_call);
        }
        nodes[idx as usize].subtree_frames = running;
        nodes[idx as usize].child_offsets = offsets;
        running
    }
    let mut nodes = Vec::new();
    let root = walk(tree, &mut nodes);
    let span_budget = number(&mut nodes, root);
    ApiPlan { nodes, root, span_budget }
}

/// Sentinel marking a free slot in the request slab. Real request ids are
/// assigned from a monotone counter starting at 0 and are never reused, so
/// they can never collide with the sentinel.
const FREE_REQUEST: RequestId = RequestId(u64::MAX);

/// Per-request bookkeeping while the request is in flight. Slots live in a
/// slab (`World::requests` + free-list) so the steady-state request path
/// allocates nothing: freed slots — including their `frames` buffers — are
/// reused for later requests.
#[derive(Debug)]
struct RequestSlot {
    /// Owning request, [`FREE_REQUEST`] while the slot is on the free-list.
    /// Events referencing a slot carry the id and compare against this to
    /// detect staleness after reuse.
    request: RequestId,
    api: ApiId,
    start: SimTime,
    sampled: bool,
    /// Trace-store slab handle while `sampled` (dead once the request ends).
    trace: OpenTrace,
    /// Live frames of this request: `(frame, generation)`.
    frames: Vec<(FrameId, u32)>,
}

#[derive(Debug)]
enum Event {
    Arrival { api: ApiId },
    StartFrame { frame: FrameId, generation: u32 },
    JobCheck { instance: InstanceId, epoch: u64 },
    InstanceReady { instance: InstanceId },
}

/// The simulated cluster: application, replicas, in-flight requests, metrics.
pub struct World {
    cfg: SimConfig,
    topo: AppTopology,
    plans: Vec<ApiPlan>,
    /// Per-service `√ln(1 + cv²)` — the lognormal σ of the work
    /// distribution, paired with the cached per-node mean/µ so the
    /// no-contention sampling path avoids recomputing logarithms per job.
    work_sigma: Vec<f64>,
    services: Vec<ServiceRuntime>,
    instances: Vec<Option<Instance>>,
    /// Slot of each instance in its service's [`loadidx::MinLoadTree`]
    /// (parallel to `instances`; `u32::MAX` after deletion).
    load_slots: Vec<u32>,
    frames: Vec<Frame>,
    free_frames: Vec<u32>,
    /// Request slab: iteration order is never relied on (only direct slot
    /// indexing), so the slab replaces the former ordered map.
    requests: Vec<RequestSlot>,
    free_requests: Vec<u32>,
    live_requests: usize,
    queue: CalendarQueue<Event>,
    /// Client deadlines `(request, slot, seq)` in arrival order, kept beside
    /// the queue: every deadline is its arrival time plus the one configured
    /// timeout, so arrival order is deadline order. `seq` is claimed from the
    /// queue at arrival, so a deadline ties with queue events exactly as an
    /// event scheduled at arrival would. The front entry is always live:
    /// freeing the front request trims every stale entry behind it (see
    /// [`World::trim_deadlines`]).
    deadlines: VecDeque<(RequestId, u32, u64)>,
    /// `(deadline, seq)` of the front of `deadlines`, cached for the merge in
    /// [`World::run_until`]; `None` when the FIFO is empty.
    head: Option<(SimTime, u64)>,
    /// Scratch for `Instance::take_finished_into` (reused across events).
    scratch_finished: Vec<FrameId>,
    /// Scratch instance-id list for `resize_instances`/`remove_instances`.
    scratch_ids: Vec<InstanceId>,
    now: SimTime,
    rng_work: DetRng,
    rng_trace: DetRng,
    /// Trace-fault windows `(from_us, until_us, drop_prob)` — spans completed
    /// inside a window are dropped with the given probability.
    span_faults: Vec<(u64, u64, f64)>,
    traces: TraceStore,
    completions: Vec<Completion>,
    e2e: WindowedLatency,
    api_arrivals: Vec<RateCounter>,
    next_request: u64,
    stats: WorldStats,
}

impl World {
    /// Creates a world for `topo` with the given config and seed.
    pub fn new(topo: AppTopology, cfg: SimConfig, seed: u64) -> Self {
        let root_rng = DetRng::new(seed);
        let mut plans: Vec<ApiPlan> = topo.apis.iter().map(|a| flatten(&a.tree)).collect();
        // Precompute the lognormal parameters of each plan node's work draw
        // (the values `assign_job` would otherwise derive per assignment).
        for plan in &mut plans {
            for node in &mut plan.nodes {
                let spec = &topo.services[node.service.0 as usize];
                let sigma2 = (1.0 + spec.cv * spec.cv).ln();
                node.work_mean_mc_us = (spec.work_ms * 1_000_000.0 * node.work_scale).max(1e-6);
                node.work_mu = node.work_mean_mc_us.ln() - 0.5 * sigma2;
            }
        }
        let work_sigma = topo.services.iter().map(|s| (1.0 + s.cv * s.cv).ln().sqrt()).collect();
        let services: Vec<ServiceRuntime> = topo
            .services
            .iter()
            .map(|s| {
                let mut rt = ServiceRuntime::new(s.clone(), cfg.window_us, cfg.retain_windows);
                rt.cpu.set_resolution(cfg.cpu_checkpoint_us);
                rt.cpu.set_horizon(CPU_HORIZON.as_micros());
                rt
            })
            .collect();
        let e2e = WindowedLatency::new(cfg.window_us, cfg.retain_windows);
        let api_arrivals =
            topo.apis.iter().map(|_| RateCounter::new(cfg.window_us, cfg.retain_windows)).collect();
        Self {
            plans,
            work_sigma,
            services,
            instances: Vec::new(),
            load_slots: Vec::new(),
            frames: Vec::new(),
            free_frames: Vec::new(),
            requests: Vec::new(),
            free_requests: Vec::new(),
            live_requests: 0,
            queue: CalendarQueue::new(),
            deadlines: VecDeque::new(),
            head: None,
            scratch_finished: Vec::new(),
            scratch_ids: Vec::new(),
            now: SimTime::ZERO,
            rng_work: root_rng.fork(seed ^ 0x1),
            rng_trace: root_rng.fork(seed ^ 0x2),
            span_faults: Vec::new(),
            traces: TraceStore::new(TRACE_CAPACITY),
            completions: Vec::new(),
            e2e,
            api_arrivals,
            next_request: 0,
            stats: WorldStats::default(),
            cfg,
            topo,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The application topology.
    pub fn topology(&self) -> &AppTopology {
        &self.topo
    }

    /// The simulation config.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Aggregate counters.
    pub fn stats(&self) -> WorldStats {
        self.stats
    }

    // ------------------------------------------------------------------
    // Capacity management
    // ------------------------------------------------------------------

    /// Adds `n` instances of `quota_mc` millicores to `service`, becoming
    /// ready at `ready_at` (clamped to now). Returns their ids.
    pub fn add_instances(
        &mut self,
        service: ServiceId,
        n: usize,
        quota_mc: f64,
        ready_at: SimTime,
    ) -> Vec<InstanceId> {
        let ready_at = ready_at.max(self.now);
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            let id = InstanceId(self.instances.len() as u32);
            let state = InstanceState::Starting { ready_at };
            self.instances.push(Some(Instance::new(service, quota_mc, state, self.now)));
            // Starting instances are not schedulable: they enter the load
            // index with the EMPTY key and start competing on readiness.
            self.load_slots.push(self.services[service.0 as usize].load.insert(loadidx::EMPTY));
            self.services[service.0 as usize].instances.push(id);
            self.queue.schedule(ready_at, Event::InstanceReady { instance: id });
            ids.push(id);
        }
        debug_assert_eq!(self.load_slots.len(), self.instances.len());
        ids
    }

    /// Re-derives the load-index key of `iid` from its current state: ready
    /// instances compete as `(job_count, id)`, everything else is parked on
    /// the EMPTY sentinel. Must be called after every mutation that changes
    /// an instance's job count or schedulability.
    fn refresh_load(&mut self, iid: InstanceId) {
        let slot = self.load_slots[iid.0 as usize];
        if slot == u32::MAX {
            return; // deleted
        }
        let Some(inst) = self.instances[iid.0 as usize].as_ref() else { return };
        let key = if inst.accepts_jobs() {
            loadidx::pack(inst.job_count() as u32, iid.0)
        } else {
            loadidx::EMPTY
        };
        self.services[inst.service.0 as usize].load.update(slot, key);
    }

    /// Removes up to `n` instances from `service`.
    ///
    /// Starting instances are cancelled first (they have no jobs); then ready
    /// instances with the fewest in-flight jobs are drained: they finish their
    /// jobs but accept no new ones, and their quota stops counting
    /// immediately (Kubernetes removes the endpoint from the Service when the
    /// pod begins terminating). Returns how many were removed.
    pub fn remove_instances(&mut self, service: ServiceId, n: usize) -> usize {
        let mut removed = 0;
        // Pass 1: cancel Starting instances (newest first, as k8s does).
        // The candidate list reuses the world's scratch buffer.
        let mut starting = std::mem::take(&mut self.scratch_ids);
        starting.clear();
        starting.extend(self.services[service.0 as usize].instances.iter().rev().copied().filter(
            |id| {
                matches!(
                    self.instances[id.0 as usize].as_ref().map(|i| i.state),
                    Some(InstanceState::Starting { .. })
                )
            },
        ));
        for &id in &starting {
            if removed >= n {
                break;
            }
            self.delete_instance(id);
            removed += 1;
        }
        starting.clear();
        self.scratch_ids = starting;
        // Pass 2: drain ready instances with the fewest jobs. The load index
        // holds exactly the ready instances keyed by (jobs, id), so its
        // minimum is the old linear scan's pick.
        while removed < n {
            let Some(key) = self.services[service.0 as usize].load.min_key() else { break };
            let (jobs, id) = (((key >> 32) as u32) as usize, InstanceId(key as u32));
            {
                let inst = self.instances[id.0 as usize].as_mut().expect("live instance");
                let used = inst.advance(self.now);
                inst.start_draining();
                // Draining bumped the epoch, invalidating any scheduled
                // completion check: re-arm it so in-flight jobs still finish.
                let epoch = inst.epoch;
                let next = inst.next_completion(self.now);
                self.services[service.0 as usize].cpu.add_usage(self.now.as_micros(), used);
                if let Some(t) = next {
                    self.queue.schedule(t, Event::JobCheck { instance: id, epoch });
                }
            }
            self.refresh_load(id); // no longer schedulable
            self.sync_quota(service);
            if jobs == 0 {
                self.delete_instance(id);
            }
            removed += 1;
        }
        removed
    }

    fn delete_instance(&mut self, id: InstanceId) {
        if let Some(inst) = self.instances[id.0 as usize].take() {
            let service = inst.service;
            let svc = &mut self.services[service.0 as usize];
            svc.instances.retain(|&x| x != id);
            svc.load.remove(self.load_slots[id.0 as usize]);
            self.load_slots[id.0 as usize] = u32::MAX;
            drop(inst);
            // The instance's service is known before the drop, so the quota
            // integral recompute is O(one service), not all of them.
            self.sync_quota(service);
        }
    }

    /// Recomputes the ready-quota integral for `service`.
    fn sync_quota(&mut self, service: ServiceId) {
        let total: f64 = self.services[service.0 as usize]
            .instances
            .iter()
            .filter_map(|id| self.instances[id.0 as usize].as_ref())
            .filter(|i| i.state == InstanceState::Ready)
            .map(|i| i.quota_mc)
            .sum();
        self.services[service.0 as usize].cpu.set_quota(self.now.as_micros(), total);
    }

    /// Vertically rescales every ready instance of `service` to `quota_mc`
    /// millicores (the paper's footnote-1 alternative to horizontal scaling;
    /// bounded in reality by the node's capacity, which is why GRAF scales
    /// horizontally).
    pub fn resize_instances(&mut self, service: ServiceId, quota_mc: f64) {
        assert!(quota_mc > 0.0);
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        ids.extend_from_slice(&self.services[service.0 as usize].instances);
        for &id in &ids {
            let Some(inst) = self.instances[id.0 as usize].as_mut() else { continue };
            if inst.state != InstanceState::Ready {
                continue;
            }
            let used = inst.advance(self.now);
            inst.set_quota(quota_mc);
            let epoch = inst.epoch;
            let next = inst.next_completion(self.now);
            self.services[service.0 as usize].cpu.add_usage(self.now.as_micros(), used);
            if let Some(t) = next {
                self.queue.schedule(t, Event::JobCheck { instance: id, epoch });
            }
        }
        ids.clear();
        self.scratch_ids = ids;
        self.sync_quota(service);
    }

    /// Number of instances of `service` in each state: `(starting, ready, draining)`.
    pub fn instance_counts(&self, service: ServiceId) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for id in &self.services[service.0 as usize].instances {
            if let Some(i) = self.instances[id.0 as usize].as_ref() {
                match i.state {
                    InstanceState::Starting { .. } => c.0 += 1,
                    InstanceState::Ready => c.1 += 1,
                    InstanceState::Draining => c.2 += 1,
                }
            }
        }
        c
    }

    /// Total ready quota of `service` in millicores.
    pub fn ready_quota_mc(&self, service: ServiceId) -> f64 {
        self.services[service.0 as usize]
            .instances
            .iter()
            .filter_map(|id| self.instances[id.0 as usize].as_ref())
            .filter(|i| i.state == InstanceState::Ready)
            .map(|i| i.quota_mc)
            .sum()
    }

    // ------------------------------------------------------------------
    // Load injection & the event loop
    // ------------------------------------------------------------------

    /// Schedules one request of `api` to arrive at time `t` (>= now).
    pub fn inject(&mut self, api: ApiId, t: SimTime) {
        assert!((api.0 as usize) < self.plans.len(), "unknown api {}", api.0);
        self.queue.schedule(t.max(self.now), Event::Arrival { api });
    }

    /// Processes all events up to and including `t`, then sets now = `t`.
    pub fn run_until(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot run backwards");
        // The event counter accumulates locally and lands once at the end.
        let mut n = 0u64;
        loop {
            // Merge the deadline FIFO's head into the queue's `(time, seq)`
            // order: the queue yields only what sorts before a due head.
            let due = self.head.filter(|&(ht, _)| ht <= t);
            let (bound, bound_seq) = due.unwrap_or((t, u64::MAX));
            if let Some((et, ev)) = self.queue.pop_before(bound, bound_seq) {
                debug_assert!(et >= self.now);
                self.now = et;
                n += 1;
                self.dispatch(ev);
            } else if let Some((ht, _)) = due {
                self.now = ht;
                n += 1;
                self.on_request_timeout();
            } else {
                break;
            }
        }
        self.stats.events += n;
        self.now = t;
    }

    /// Runs until no event or client deadline is pending or `limit` is
    /// reached.
    pub fn run_to_quiescence(&mut self, limit: SimTime) {
        while let Some(t) = self.next_event_time() {
            if t > limit {
                break;
            }
            self.run_until(t);
        }
        self.now = self.now.max(limit.min(self.next_event_time().unwrap_or(limit)));
    }

    /// The earlier of the queue's next event and the first live deadline.
    fn next_event_time(&self) -> Option<SimTime> {
        let deadline = self.head.map(|(ht, _)| ht);
        match (self.queue.peek_time(), deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Arrival { api } => self.on_arrival(api),
            Event::StartFrame { frame, generation } => self.on_start_frame(frame, generation),
            Event::JobCheck { instance, epoch } => self.on_job_check(instance, epoch),
            Event::InstanceReady { instance } => self.on_instance_ready(instance),
        }
    }

    fn on_arrival(&mut self, api: ApiId) {
        self.api_arrivals[api.0 as usize].record(self.now.as_micros());
        let rid = RequestId(self.next_request);
        self.next_request += 1;
        self.stats.injected += 1;
        let sampled = self.rng_trace.chance(self.cfg.trace_sample);
        let slot = self.alloc_request(rid, api, sampled);
        if let Some(to) = self.cfg.request_timeout_us {
            let seq = self.queue.take_seq();
            if self.deadlines.is_empty() {
                self.head = Some((SimTime(self.now.0 + to), seq));
            }
            self.deadlines.push_back((rid, slot, seq));
        }
        let plan = &self.plans[api.0 as usize];
        let root = plan.root;
        let root_service = plan.nodes[root as usize].service;
        let fid = self.alloc_frame(rid, slot, api, root, None, 0, None, root_service);
        self.schedule_frame_start(fid);
    }

    /// Claims a request slab slot, reusing a freed one (and its `frames`
    /// buffer) when available.
    fn alloc_request(&mut self, rid: RequestId, api: ApiId, sampled: bool) -> u32 {
        self.live_requests += 1;
        // A sampled request owns a trace-store slab slot; unsampled requests
        // carry a dead handle that is never passed back to the store.
        let span_budget = self.plans[api.0 as usize].span_budget as usize;
        let trace = if sampled { self.traces.open_trace(span_budget) } else { OpenTrace(u32::MAX) };
        let slot = if let Some(slot) = self.free_requests.pop() {
            let s = &mut self.requests[slot as usize];
            debug_assert_eq!(s.request, FREE_REQUEST, "slot on free-list must be free");
            debug_assert!(s.frames.is_empty(), "freed slot keeps a cleared frames buffer");
            s.request = rid;
            s.api = api;
            s.start = self.now;
            s.sampled = sampled;
            s.trace = trace;
            slot
        } else {
            // Slab growth: only while the in-flight high-water mark rises,
            // never in steady state.
            self.requests.push(RequestSlot {
                request: rid,
                api,
                start: self.now,
                sampled,
                trace,
                frames: Vec::new(),
            });
            (self.requests.len() - 1) as u32
        };
        // The frame list holds every frame the request will create — exactly
        // `span_budget`, fixed by the API's call tree. One up-front reservation
        // replaces the per-frame growth chain (slots recycled from the
        // free-list usually carry enough capacity already, making this free).
        let frames = &mut self.requests[slot as usize].frames;
        if frames.capacity() < span_budget {
            frames.reserve(span_budget - frames.len());
        }
        slot
    }

    /// Releases `slot` back to the slab free-list, keeping its `frames`
    /// buffer capacity for the next occupant.
    fn free_request(&mut self, slot: u32) {
        let s = &mut self.requests[slot as usize];
        s.request = FREE_REQUEST;
        s.frames.clear();
        self.free_requests.push(slot);
        self.live_requests -= 1;
        if self.deadlines.front().is_some_and(|&(_, front, _)| front == slot) {
            self.trim_deadlines();
        }
    }

    /// Drops stale entries (requests already freed) off the front of the
    /// deadline FIFO and re-caches `head` from the first live one. Entries
    /// freed behind a live front wait until they reach the front, so the FIFO
    /// holds the arrivals since the oldest in-flight request — not the last
    /// timeout's worth of arrivals.
    fn trim_deadlines(&mut self) {
        self.head = None;
        while let Some(&(request, slot, seq)) = self.deadlines.front() {
            let r = &self.requests[slot as usize];
            if r.request == request {
                let to = self.cfg.request_timeout_us.expect("deadlines imply a timeout");
                self.head = Some((SimTime(r.start.0 + to), seq));
                return;
            }
            self.deadlines.pop_front();
        }
    }

    /// `service` must be `plans[api].nodes[plan_node].service` — callers
    /// already hold the plan node, so passing it in saves the re-walk.
    /// `span_id`/`parent_span` are the frame's structural span coordinates
    /// (see [`PlanNode::subtree_frames`]); a request's root passes `(0, None)`.
    #[expect(
        clippy::too_many_arguments,
        reason = "internal slab constructor; every argument is hot-path data the caller already holds"
    )]
    fn alloc_frame(
        &mut self,
        request: RequestId,
        req_slot: u32,
        api: ApiId,
        plan_node: u16,
        parent: Option<FrameId>,
        span_id: u32,
        parent_span: Option<u32>,
        service: ServiceId,
    ) -> FrameId {
        debug_assert_eq!(service, self.plans[api.0 as usize].nodes[plan_node as usize].service);
        debug_assert_eq!(self.requests[req_slot as usize].request, request);
        let frame = Frame {
            request,
            req_slot,
            plan_node,
            service,
            parent,
            span_id,
            parent_span,
            start: self.now,
            state: FrameState::PendingInstance,
            instance: None,
            generation: 0,
        };
        let fid = if let Some(slot) = self.free_frames.pop() {
            let generation = self.frames[slot as usize].generation.wrapping_add(1);
            self.frames[slot as usize] = Frame { generation, ..frame };
            FrameId(slot)
        } else {
            self.frames.push(frame);
            FrameId((self.frames.len() - 1) as u32)
        };
        let generation = self.frames[fid.0 as usize].generation;
        self.requests[req_slot as usize].frames.push((fid, generation));
        fid
    }

    fn schedule_frame_start(&mut self, fid: FrameId) {
        let f = &self.frames[fid.0 as usize];
        let base = self.services[f.service.0 as usize].spec.base_us;
        let gen = f.generation;
        self.queue.schedule(
            SimTime(self.now.0 + base),
            Event::StartFrame { frame: fid, generation: gen },
        );
    }

    fn on_start_frame(&mut self, fid: FrameId, generation: u32) {
        let f = &self.frames[fid.0 as usize];
        if f.generation != generation || f.state != FrameState::PendingInstance {
            self.stats.stale_frame_starts += 1;
            return; // stale event
        }
        let service = f.service;
        self.services[service.0 as usize].record_arrival(self.now);
        match self.pick_instance(service) {
            Some(iid) => self.assign_job(iid, fid),
            None => self.services[service.0 as usize].pending.push_back(fid),
        }
    }

    /// Least-loaded ready instance of `service` — O(1) via the per-service
    /// min-load index, which orders exactly like the former
    /// `min_by_key((jobs, id))` linear scan.
    fn pick_instance(&self, service: ServiceId) -> Option<InstanceId> {
        self.services[service.0 as usize].load.min_key().map(|key| InstanceId(key as u32))
    }

    fn assign_job(&mut self, iid: InstanceId, fid: FrameId) {
        let (api, plan_node, service) = {
            let f = &self.frames[fid.0 as usize];
            let api = self.requests[f.req_slot as usize].api;
            (api, f.plan_node, f.service)
        };
        let node = &self.plans[api.0 as usize].nodes[plan_node as usize];
        let contention = self.services[service.0 as usize].slowdown_at(self.now.as_micros());
        // work_ms is in full-core milliseconds: convert to millicore·µs. The
        // common no-contention draw uses the parameters cached at plan build
        // (bitwise identical to deriving them here, and two `ln` cheaper);
        // an active contention window shifts the mean, so that path derives
        // them per call exactly as before.
        let work = if contention == 1.0 {
            let sigma = self.work_sigma[service.0 as usize];
            if sigma == 0.0 {
                node.work_mean_mc_us
            } else {
                (node.work_mu + sigma * self.rng_work.std_normal()).exp()
            }
        } else {
            let spec = &self.services[service.0 as usize].spec;
            let mean_mc_us = spec.work_ms * 1_000_000.0 * node.work_scale * contention;
            self.rng_work.lognormal_mean_cv(mean_mc_us.max(1e-6), spec.cv)
        };
        let inst = self.instances[iid.0 as usize].as_mut().expect("live instance");
        let used = inst.advance(self.now);
        inst.push_job(fid, work);
        let epoch = inst.epoch;
        let next = inst.next_completion(self.now);
        self.services[service.0 as usize].cpu.add_usage(self.now.as_micros(), used);
        self.frames[fid.0 as usize].state = FrameState::Working;
        self.frames[fid.0 as usize].instance = Some(iid.0);
        self.refresh_load(iid);
        if let Some(t) = next {
            self.queue.schedule(t, Event::JobCheck { instance: iid, epoch });
        }
    }

    fn on_job_check(&mut self, iid: InstanceId, epoch: u64) {
        if self.instances[iid.0 as usize].as_ref().is_none_or(|inst| inst.epoch != epoch) {
            self.stats.stale_job_checks += 1;
            return; // superseded, or the instance is gone
        }
        // Finished-frame list reuses the world scratch buffer: a burst of
        // same-timestamp completions costs zero allocations.
        let mut finished = std::mem::take(&mut self.scratch_finished);
        debug_assert!(finished.is_empty());
        let inst = self.instances[iid.0 as usize].as_mut().expect("checked above");
        let service = inst.service;
        let used = inst.advance(self.now);
        inst.take_finished_into(&mut finished);
        let drained = inst.drained();
        let epoch = inst.epoch;
        let next = inst.next_completion(self.now);
        self.services[service.0 as usize].cpu.add_usage(self.now.as_micros(), used);
        if drained {
            self.delete_instance(iid);
        } else {
            if !finished.is_empty() {
                self.refresh_load(iid);
            }
            if let Some(t) = next {
                self.queue.schedule(t, Event::JobCheck { instance: iid, epoch });
            }
        }
        for &f in &finished {
            self.frame_work_done(f);
        }
        finished.clear();
        self.scratch_finished = finished;
    }

    fn on_instance_ready(&mut self, iid: InstanceId) {
        let Some(inst) = self.instances[iid.0 as usize].as_mut() else { return };
        if !matches!(inst.state, InstanceState::Starting { .. }) {
            return;
        }
        inst.state = InstanceState::Ready;
        let service = inst.service;
        self.refresh_load(iid);
        self.sync_quota(service);
        // Admit everything that was waiting; PS stations have no admission cap.
        while let Some(fid) = self.services[service.0 as usize].pending.pop_front() {
            match self.pick_instance(service) {
                Some(target) => self.assign_job(target, fid),
                None => {
                    self.services[service.0 as usize].pending.push_front(fid);
                    break;
                }
            }
        }
    }

    /// Client timeout of the deadline FIFO's front request: the request is
    /// abandoned. All of its live frames are torn down (queued ones dequeued,
    /// running jobs cancelled — the client hung up, and upstream cancellation
    /// propagates in a service mesh), the trace is aborted, and a completion
    /// is emitted with the capped latency. Freeing the request pops it off
    /// the FIFO.
    fn on_request_timeout(&mut self) {
        let (request, slot, _) = *self.deadlines.front().expect("a due deadline");
        debug_assert_eq!(self.requests[slot as usize].request, request, "the front is live");
        // Tear down by index: nothing below appends to this slot's frame
        // list, and indexing avoids borrowing the slab across the mutations.
        let n_frames = self.requests[slot as usize].frames.len();
        for i in 0..n_frames {
            let (fid, generation) = self.requests[slot as usize].frames[i];
            let f = &self.frames[fid.0 as usize];
            if f.generation != generation || f.is_done() {
                continue;
            }
            let service = f.service;
            match f.state {
                FrameState::PendingInstance => {
                    self.services[service.0 as usize].pending.retain(|&x| x != fid);
                }
                FrameState::Working => {
                    if let Some(iid) = f.instance {
                        if let Some(inst) = self.instances[iid as usize].as_mut() {
                            let used = inst.advance(self.now);
                            let removed = inst.remove_job(fid);
                            let epoch = inst.epoch;
                            let next = inst.next_completion(self.now);
                            let drained = inst.drained();
                            self.services[service.0 as usize]
                                .cpu
                                .add_usage(self.now.as_micros(), used);
                            if removed {
                                if drained {
                                    self.delete_instance(InstanceId(iid));
                                } else {
                                    self.refresh_load(InstanceId(iid));
                                    if let Some(t) = next {
                                        self.queue.schedule(
                                            t,
                                            Event::JobCheck { instance: InstanceId(iid), epoch },
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                FrameState::Children { .. } | FrameState::Done => {}
            }
            self.frames[fid.0 as usize].state = FrameState::Done;
            self.free_frames.push(fid.0);
        }
        let (api, start, sampled, trace) = {
            let meta = &self.requests[slot as usize];
            (meta.api, meta.start, meta.sampled, meta.trace)
        };
        if sampled {
            self.traces.abort_open(trace);
        }
        self.free_request(slot);
        let completion = Completion { request, api, start, end: self.now, timed_out: true };
        self.e2e.record(self.now.as_micros(), completion.latency_us());
        self.completions.push(completion);
        self.stats.timeouts += 1;
        self.stats.completed += 1;
    }

    // ------------------------------------------------------------------
    // Frame state machine
    // ------------------------------------------------------------------

    fn frame_work_done(&mut self, fid: FrameId) {
        let (api, plan_node) = {
            let f = &self.frames[fid.0 as usize];
            let api = self.requests[f.req_slot as usize].api;
            (api, f.plan_node)
        };
        let node = &self.plans[api.0 as usize].nodes[plan_node as usize];
        if node.stages.is_empty() {
            self.complete_frame(fid);
            return;
        }
        self.start_stage(fid, 0);
    }

    /// Launches stage `stage` of frame `fid`: all calls of the stage (each
    /// child × its repeat count) start in parallel.
    fn start_stage(&mut self, fid: FrameId, stage: u16) {
        let (api, plan_node, request, req_slot) = {
            let f = &self.frames[fid.0 as usize];
            let api = self.requests[f.req_slot as usize].api;
            (api, f.plan_node, f.request, f.req_slot)
        };
        let parent_span = self.frames[fid.0 as usize].span_id;
        // Snapshot the stage's call list (child, repeat, service, span
        // offset, subtree size) into a stack buffer: the per-child loop
        // needs `&mut self` for `alloc_frame`, and without the snapshot each
        // child re-walks four levels of `self.plans` indexing. Stays
        // allocation-free either way — wider stages (rare) fall back to the
        // index re-walk.
        const STACK_CALLS: usize = 8;
        let plan = &self.plans[api.0 as usize];
        let stage_calls = &plan.nodes[plan_node as usize].stages[stage as usize];
        let n_calls = stage_calls.len();
        if n_calls <= STACK_CALLS {
            let mut calls = [(0u16, 0u32, ServiceId(0), 0u32, 0u32); STACK_CALLS];
            let mut total: u32 = 0;
            for (ci, &c) in stage_calls.iter().enumerate() {
                let node = &plan.nodes[c as usize];
                let offset = plan.nodes[plan_node as usize].child_offsets[stage as usize][ci];
                calls[ci] = (c, node.repeat, node.service, offset, node.subtree_frames);
                total += node.repeat;
            }
            debug_assert!(total > 0, "stages are non-empty by construction");
            self.frames[fid.0 as usize].state = FrameState::Children { stage, outstanding: total };
            for &(c, reps, service, offset, subtree) in &calls[..n_calls] {
                for rep in 0..reps {
                    let span = parent_span + offset + rep * subtree;
                    let child = self.alloc_frame(
                        request,
                        req_slot,
                        api,
                        c,
                        Some(fid),
                        span,
                        Some(parent_span),
                        service,
                    );
                    self.schedule_frame_start(child);
                }
            }
            return;
        }
        let mut total: u32 = 0;
        for ci in 0..n_calls {
            let plan = &self.plans[api.0 as usize];
            let c = plan.nodes[plan_node as usize].stages[stage as usize][ci];
            total += plan.nodes[c as usize].repeat;
        }
        debug_assert!(total > 0, "stages are non-empty by construction");
        self.frames[fid.0 as usize].state = FrameState::Children { stage, outstanding: total };
        for ci in 0..n_calls {
            let plan = &self.plans[api.0 as usize];
            let c = plan.nodes[plan_node as usize].stages[stage as usize][ci];
            let reps = plan.nodes[c as usize].repeat;
            let service = plan.nodes[c as usize].service;
            let offset = plan.nodes[plan_node as usize].child_offsets[stage as usize][ci];
            let subtree = plan.nodes[c as usize].subtree_frames;
            for rep in 0..reps {
                let span = parent_span + offset + rep * subtree;
                let child = self.alloc_frame(
                    request,
                    req_slot,
                    api,
                    c,
                    Some(fid),
                    span,
                    Some(parent_span),
                    service,
                );
                self.schedule_frame_start(child);
            }
        }
    }

    fn child_completed(&mut self, fid: FrameId) {
        let FrameState::Children { stage, outstanding } = self.frames[fid.0 as usize].state else {
            unreachable!("child completion outside Children state")
        };
        let outstanding = outstanding - 1;
        self.frames[fid.0 as usize].state = FrameState::Children { stage, outstanding };
        if outstanding > 0 {
            return;
        }
        let (api, plan_node) = {
            let f = &self.frames[fid.0 as usize];
            let api = self.requests[f.req_slot as usize].api;
            (api, f.plan_node)
        };
        let n_stages = self.plans[api.0 as usize].nodes[plan_node as usize].stages.len();
        if (stage as usize + 1) < n_stages {
            self.start_stage(fid, stage + 1);
        } else {
            self.complete_frame(fid);
        }
    }

    fn complete_frame(&mut self, fid: FrameId) {
        let (request, req_slot, service, parent, span_id, parent_span, start) = {
            let f = &mut self.frames[fid.0 as usize];
            f.state = FrameState::Done;
            (f.request, f.req_slot, f.service, f.parent, f.span_id, f.parent_span, f.start)
        };
        let latency = (self.now - start).as_micros();
        self.services[service.0 as usize].record_latency(self.now, latency);

        let meta = &self.requests[req_slot as usize];
        let api = meta.api;
        let sampled = meta.sampled;
        let trace = meta.trace;
        // Trace fault: drop the span with the window's probability. The
        // chance is drawn from `rng_trace` only while a window is active, so
        // runs without trace faults consume exactly the baseline draws.
        let now_us = self.now.as_micros();
        let drop_p = if self.span_faults.is_empty() {
            0.0
        } else {
            self.span_faults
                .iter()
                .filter(|&&(from, until, _)| from <= now_us && now_us < until)
                .map(|&(_, _, p)| p)
                .fold(0.0f64, f64::max)
        };
        if sampled && drop_p > 0.0 && self.rng_trace.chance(drop_p) {
            self.stats.spans_dropped += 1;
        } else if sampled {
            self.traces.push_span(
                trace,
                Span {
                    span_id: SpanId(span_id),
                    parent: parent_span.map(SpanId),
                    service: service.0,
                    start_us: start.as_micros(),
                    end_us: self.now.as_micros(),
                },
            );
            self.stats.spans += 1;
        }

        // Recycle the frame slot.
        self.free_frames.push(fid.0);

        match parent {
            // Resume the parent in the same event as the child's completion.
            Some(p) => self.child_completed(p),
            None => {
                let req_start = self.requests[req_slot as usize].start;
                self.free_request(req_slot);
                let completion =
                    Completion { request, api, start: req_start, end: self.now, timed_out: false };
                self.e2e.record(self.now.as_micros(), completion.latency_us());
                self.completions.push(completion);
                self.stats.completed += 1;
                if sampled {
                    self.traces.finish_open(trace, TraceId(request.0), api.0);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Completed requests since the last drain.
    ///
    /// Allocating convenience wrapper; steady-state callers should use
    /// [`World::drain_completions_into`] with a reused buffer.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Moves completed requests since the last drain into `out` (cleared
    /// first). The buffers swap, so a caller draining in a loop settles into
    /// two recycled allocations regardless of traffic volume.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.clear();
        std::mem::swap(out, &mut self.completions);
    }

    /// Number of requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.live_requests
    }

    /// The trace store (Jaeger analog).
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// Mutable trace store, for draining finished traces.
    pub fn traces_mut(&mut self) -> &mut TraceStore {
        &mut self.traces
    }

    /// End-to-end latency percentile over the trailing `k` metric windows.
    pub fn e2e_percentile(&self, k: usize, q: f64) -> Option<SimDuration> {
        self.e2e.percentile_trailing(self.now.as_micros(), k, q).map(SimDuration::from_micros)
    }

    /// Per-service latency percentile over the trailing `k` windows.
    pub fn service_percentile(&self, service: ServiceId, k: usize, q: f64) -> Option<SimDuration> {
        self.services[service.0 as usize]
            .latency
            .percentile_trailing(self.now.as_micros(), k, q)
            .map(SimDuration::from_micros)
    }

    /// CPU utilization of `service` over the trailing window of `dur`.
    ///
    /// # Panics
    /// If `dur` reaches further back than [`CPU_HORIZON`]: the account keeps
    /// no older checkpoints.
    pub fn service_utilization(&self, service: ServiceId, dur: SimDuration) -> Option<f64> {
        let to = self.now.as_micros();
        let from = to.saturating_sub(dur.as_micros());
        self.services[service.0 as usize].cpu.utilization(from, to)
    }

    /// Arrival rate (req/s) perceived by `service` over the trailing `k` windows.
    pub fn service_arrival_rate(&self, service: ServiceId, k: usize) -> f64 {
        let at = self.now.as_micros().saturating_sub(1);
        self.services[service.0 as usize].arrivals.rate_trailing(at, k)
    }

    /// Injects a contention anomaly (§6): between `from` and `until`, every
    /// request handled by `service` costs `factor×` its normal CPU — the
    /// latency-spike signature of noisy neighbours / cache contention. Its
    /// user is `graf-chaos`'s `latency_spike` fault class.
    pub fn inject_contention(
        &mut self,
        service: ServiceId,
        factor: f64,
        from: SimTime,
        until: SimTime,
    ) {
        assert!(factor >= 1.0, "contention can only slow work down");
        assert!(until > from);
        self.services[service.0 as usize].slowdowns.push((
            from.as_micros(),
            until.as_micros(),
            factor,
        ));
    }

    /// Injects a trace fault: between `from` and `until`, each span is
    /// dropped with probability `drop_prob` at completion time, so finished
    /// traces arrive truncated — the partial call graphs a lossy tracing
    /// pipeline delivers. Decisions draw from the seeded trace stream, so
    /// runs stay bit-reproducible; with no windows installed the stream is
    /// consumed exactly as in a fault-free run.
    pub fn inject_span_drop(&mut self, from: SimTime, until: SimTime, drop_prob: f64) {
        assert!(drop_prob > 0.0 && drop_prob <= 1.0, "drop_prob in (0, 1]");
        assert!(until > from);
        self.span_faults.push((from.as_micros(), until.as_micros(), drop_prob));
    }

    /// Front-end arrival rate (req/s) of `api` over the trailing `k` windows.
    ///
    /// This is the only workload signal GRAF's proactive controller consumes
    /// (§3.8): it is available the instant traffic changes at the front end,
    /// before any interior microservice has felt the change.
    pub fn api_arrival_rate(&self, api: ApiId, k: usize) -> f64 {
        // Query one microsecond back so a control tick landing exactly on a
        // window boundary reads k *complete* windows, not a fresh empty one.
        let at = self.now.as_micros().saturating_sub(1);
        self.api_arrivals[api.0 as usize].rate_trailing(at, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ApiSpec, ChildMode, ServiceSpec};

    fn chain2(work_a: f64, work_b: f64) -> AppTopology {
        AppTopology::new(
            "chain2",
            vec![
                ServiceSpec::new("a", work_a, 500).cv(0.0),
                ServiceSpec::new("b", work_b, 500).cv(0.0),
            ],
            vec![ApiSpec::new(
                "get",
                CallNode::new(0).children_mode(ChildMode::Sequential, vec![CallNode::new(1)]),
            )],
        )
    }

    fn ready_world(topo: AppTopology, quota: f64) -> World {
        let n = topo.num_services();
        let mut w = World::new(topo, SimConfig { trace_sample: 1.0, ..SimConfig::default() }, 42);
        for s in 0..n {
            w.add_instances(ServiceId(s as u16), 1, quota, SimTime::ZERO);
        }
        w.run_until(SimTime(1)); // process InstanceReady events
        w
    }

    #[test]
    fn single_request_end_to_end_latency() {
        // Deterministic (cv = 0): a = 2 mc·ms, b = 4 mc·ms at 1000 mc quota
        // → 2 ms + 4 ms of work + 2 hops of 0.5 ms base = 7 ms.
        let mut w = ready_world(chain2(2.0, 4.0), 1000.0);
        w.inject(ApiId(0), SimTime::from_millis(1.0));
        w.run_until(SimTime::from_secs(1.0));
        let done = w.drain_completions();
        assert_eq!(done.len(), 1);
        let lat = done[0].latency_us();
        assert!((6_900..=7_100).contains(&lat), "latency {lat} us");
        assert_eq!(w.in_flight(), 0);
    }

    #[test]
    fn requests_queue_when_no_instance_ready() {
        let topo = chain2(1.0, 1.0);
        let mut w = World::new(topo, SimConfig::default(), 1);
        // Instance for 'a' becomes ready only at t = 2 s.
        w.add_instances(ServiceId(0), 1, 1000.0, SimTime::from_secs(2.0));
        w.add_instances(ServiceId(1), 1, 1000.0, SimTime::ZERO);
        w.inject(ApiId(0), SimTime::from_millis(10.0));
        w.run_until(SimTime::from_secs(1.0));
        assert_eq!(w.in_flight(), 1, "waiting for startup");
        assert_eq!(w.stats().completed, 0);
        w.run_until(SimTime::from_secs(3.0));
        assert_eq!(w.stats().completed, 1);
        // Latency includes the wait for instance readiness (~2 s).
        let done = w.drain_completions();
        assert!(done[0].latency_us() > 1_900_000);
    }

    #[test]
    fn parallel_children_take_max_not_sum() {
        // root -> (b ∥ c); b = 10 ms, c = 30 ms at 1000 mc. Parallel e2e ≈
        // root work (1 ms) + max(10, 30) + bases, far below the 40 ms sum.
        let topo = AppTopology::new(
            "par",
            vec![
                ServiceSpec::new("root", 1.0, 100).cv(0.0),
                ServiceSpec::new("b", 10.0, 100).cv(0.0),
                ServiceSpec::new("c", 30.0, 100).cv(0.0),
            ],
            vec![ApiSpec::new(
                "get",
                CallNode::new(0)
                    .children_mode(ChildMode::Parallel, vec![CallNode::new(1), CallNode::new(2)]),
            )],
        );
        let mut w = ready_world(topo, 1000.0);
        w.inject(ApiId(0), SimTime::from_millis(1.0));
        w.run_until(SimTime::from_secs(1.0));
        let done = w.drain_completions();
        assert_eq!(done.len(), 1);
        let lat_ms = done[0].latency_us() as f64 / 1000.0;
        assert!((31.0..36.0).contains(&lat_ms), "parallel latency {lat_ms} ms");
    }

    #[test]
    fn sequential_children_sum() {
        let topo = AppTopology::new(
            "seq",
            vec![
                ServiceSpec::new("root", 1.0, 100).cv(0.0),
                ServiceSpec::new("b", 10.0, 100).cv(0.0),
                ServiceSpec::new("c", 30.0, 100).cv(0.0),
            ],
            vec![ApiSpec::new(
                "get",
                CallNode::new(0)
                    .children_mode(ChildMode::Sequential, vec![CallNode::new(1), CallNode::new(2)]),
            )],
        );
        let mut w = ready_world(topo, 1000.0);
        w.inject(ApiId(0), SimTime::from_millis(1.0));
        w.run_until(SimTime::from_secs(1.0));
        let done = w.drain_completions();
        let lat_ms = done[0].latency_us() as f64 / 1000.0;
        assert!((41.0..46.0).contains(&lat_ms), "sequential latency {lat_ms} ms");
    }

    #[test]
    fn repeat_calls_execute_repeatedly() {
        let topo = AppTopology::new(
            "rep",
            vec![ServiceSpec::new("root", 1.0, 0).cv(0.0), ServiceSpec::new("b", 5.0, 0).cv(0.0)],
            vec![ApiSpec::new(
                "get",
                CallNode::new(0)
                    .children_mode(ChildMode::Sequential, vec![CallNode::new(1).repeat(3)]),
            )],
        );
        let mut w = ready_world(topo, 1000.0);
        w.inject(ApiId(0), SimTime::from_millis(1.0));
        w.run_until(SimTime::from_secs(1.0));
        let traces = w.traces_mut().drain_finished();
        assert_eq!(traces.len(), 1);
        let b_spans = traces[0].spans.iter().filter(|s| s.service == 1).count();
        assert_eq!(b_spans, 3, "service b ran 3 spans");
        // Sequential repeats: 1 + 3×5 = 16 ms of work.
        let done = w.drain_completions();
        let lat_ms = done[0].latency_us() as f64 / 1000.0;
        assert!((15.5..17.0).contains(&lat_ms), "latency {lat_ms}");
    }

    #[test]
    fn more_quota_reduces_latency_under_load() {
        // Open-loop load at 200 qps on a 5 mc·ms service: offered load
        // 1000 mc. Quota 1250 vs 2500 → p99 must drop.
        fn p99_at(quota: f64) -> u64 {
            let topo = AppTopology::new(
                "one",
                vec![ServiceSpec::new("s", 5.0, 100)],
                vec![ApiSpec::new("get", CallNode::new(0))],
            );
            let mut w = World::new(topo, SimConfig::default(), 9);
            w.add_instances(ServiceId(0), 1, quota, SimTime::ZERO);
            for i in 0..2_000u64 {
                w.inject(ApiId(0), SimTime(i * 5_000)); // 200 qps for 10 s
            }
            w.run_until(SimTime::from_secs(20.0));
            let mut lats: Vec<u64> = w.drain_completions().iter().map(|c| c.latency_us()).collect();
            lats.sort_unstable();
            lats[(lats.len() as f64 * 0.99) as usize - 1]
        }
        let lo = p99_at(1250.0);
        let hi = p99_at(2500.0);
        assert!(hi < lo, "p99 at 2500mc ({hi}) must beat 1250mc ({lo})");
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let topo = AppTopology::new(
            "one",
            vec![ServiceSpec::new("s", 5.0, 100).cv(0.0)],
            vec![ApiSpec::new("get", CallNode::new(0))],
        );
        let mut w = World::new(topo, SimConfig::default(), 10);
        w.add_instances(ServiceId(0), 1, 2000.0, SimTime::ZERO);
        // 100 qps × 5 mc·ms = 500 mc used of 2000 → utilization ≈ 0.25.
        for i in 0..1_000u64 {
            w.inject(ApiId(0), SimTime(i * 10_000));
        }
        w.run_until(SimTime::from_secs(10.0));
        let u = w.service_utilization(ServiceId(0), SimDuration::from_secs(9.0)).unwrap();
        assert!((0.2..0.3).contains(&u), "utilization {u}");
    }

    #[test]
    fn removing_instances_prefers_starting_then_drains() {
        let topo = chain2(1.0, 1.0);
        let mut w = World::new(topo, SimConfig::default(), 3);
        w.add_instances(ServiceId(0), 2, 500.0, SimTime::ZERO);
        w.run_until(SimTime(10));
        w.add_instances(ServiceId(0), 2, 500.0, SimTime::from_secs(10.0)); // still starting
        let (starting, ready, _) = w.instance_counts(ServiceId(0));
        assert_eq!((starting, ready), (2, 2));
        let removed = w.remove_instances(ServiceId(0), 3);
        assert_eq!(removed, 3);
        let (starting, ready, draining) = w.instance_counts(ServiceId(0));
        assert_eq!(starting, 0, "starting cancelled first");
        assert_eq!(ready + draining, 1);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        fn run(seed: u64) -> Vec<u64> {
            let mut w = ready_world(chain2(2.0, 3.0), 800.0);
            let _ = seed;
            let mut rng = DetRng::new(77);
            let mut t = SimTime::ZERO;
            for _ in 0..200 {
                t += SimDuration::from_micros((rng.exp(5_000.0)) as u64 + 1);
                w.inject(ApiId(0), t);
            }
            w.run_until(SimTime::from_secs(10.0));
            w.drain_completions().iter().map(|c| c.latency_us()).collect()
        }
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn traces_have_correct_edges() {
        let mut w = ready_world(chain2(1.0, 1.0), 1000.0);
        w.inject(ApiId(0), SimTime::from_millis(1.0));
        w.run_until(SimTime::from_secs(1.0));
        let traces = w.traces_mut().drain_finished();
        assert_eq!(traces.len(), 1);
        let mut cs = graf_trace::CallStats::new();
        cs.observe_all(traces.iter());
        let edges = cs.edges();
        assert_eq!(edges.len(), 1);
        assert_eq!((edges[0].parent, edges[0].child), (0, 1));
    }

    #[test]
    fn timeouts_abandon_requests_and_free_capacity() {
        // A starved service (20 mc) cannot finish 5 core·ms requests before
        // the 1 s client timeout; abandoned jobs must leave the instance so
        // later requests start fresh.
        let topo = AppTopology::new(
            "slow",
            vec![ServiceSpec::new("s", 5.0, 0).cv(0.0)],
            vec![ApiSpec::new("get", CallNode::new(0))],
        );
        let cfg = SimConfig { request_timeout_us: Some(1_000_000), ..SimConfig::default() };
        let mut w = World::new(topo, cfg, 8);
        w.add_instances(ServiceId(0), 1, 20.0, SimTime::ZERO);
        for i in 0..10u64 {
            w.inject(ApiId(0), SimTime(i * 1_000));
        }
        w.run_until(SimTime::from_secs(5.0));
        let done = w.drain_completions();
        assert_eq!(done.len(), 10);
        assert!(done.iter().all(|c| c.timed_out), "all starved requests time out");
        assert!(done.iter().all(|c| c.latency_us() == 1_000_000), "latency capped");
        assert_eq!(w.stats().timeouts, 10);
        assert_eq!(w.in_flight(), 0, "metadata cleaned up");
        // The instance is empty again: a fresh feasible request completes.
        w.add_instances(ServiceId(0), 1, 1000.0, w.now());
        w.inject(ApiId(0), w.now());
        w.run_until(SimTime(w.now().0 + 500_000));
        let done = w.drain_completions();
        assert_eq!(done.len(), 1);
        assert!(!done[0].timed_out, "fast request completes normally");
    }

    #[test]
    fn completed_requests_do_not_time_out() {
        let topo = AppTopology::new(
            "fast",
            vec![ServiceSpec::new("s", 1.0, 0).cv(0.0)],
            vec![ApiSpec::new("get", CallNode::new(0))],
        );
        let cfg = SimConfig { request_timeout_us: Some(1_000_000), ..SimConfig::default() };
        let mut w = World::new(topo, cfg, 9);
        w.add_instances(ServiceId(0), 1, 1000.0, SimTime::ZERO);
        w.inject(ApiId(0), SimTime(0));
        w.run_until(SimTime::from_secs(3.0)); // run past the timeout event
        let done = w.drain_completions();
        assert_eq!(done.len(), 1);
        assert!(!done[0].timed_out);
        assert_eq!(w.stats().timeouts, 0);
    }

    #[test]
    fn deadline_fifo_stays_near_the_in_flight_count() {
        // 20 s of Poisson arrivals at ≈ 60 % utilisation under the default
        // 30 s timeout: no deadline ever fires, so the FIFO is kept short by
        // the head trim alone. Without it, it would hold all 20 s of arrivals.
        let topo = AppTopology::new(
            "one",
            vec![ServiceSpec::new("s", 2.0, 200).cv(0.5)],
            vec![ApiSpec::new("get", CallNode::new(0))],
        );
        let mut w = World::new(topo, SimConfig::default(), 21);
        w.add_instances(ServiceId(0), 2, 1000.0, SimTime::ZERO);
        let mut rng = DetRng::new(21);
        let mut t = 0.0;
        for seg in 1..=20u64 {
            let end = seg as f64 * 1e6;
            loop {
                t += rng.exp(1e6 / 600.0);
                if t >= end {
                    break;
                }
                w.inject(ApiId(0), SimTime(t as u64));
            }
            w.run_until(SimTime(end as u64));
            let (fifo, live) = (w.deadlines.len(), w.in_flight());
            assert!(fifo <= 4 * live, "segment {seg}: {fifo} deadlines for {live} in flight");
        }
        assert!(w.stats().injected > 11_000, "the run did work ({})", w.stats().injected);
        assert_eq!(w.stats().timeouts, 0);
    }

    #[test]
    fn superseded_pops_are_counted() {
        let topo = |base_us| {
            AppTopology::new(
                "one",
                vec![ServiceSpec::new("s", 5.0, base_us).cv(0.0)],
                vec![ApiSpec::new("get", CallNode::new(0))],
            )
        };
        // Two jobs on one instance: the second assignment re-arms the
        // completion check, stranding the first one.
        let mut w = World::new(topo(0), SimConfig::default(), 3);
        w.add_instances(ServiceId(0), 1, 1000.0, SimTime::ZERO);
        w.inject(ApiId(0), SimTime(0));
        w.inject(ApiId(0), SimTime(1));
        w.run_until(SimTime::from_secs(1.0));
        let s = w.stats();
        assert_eq!((s.completed, s.stale_job_checks, s.stale_frame_starts), (2, 1, 0));
        // A frame whose 1 s network hop outlasts its 100 ms client timeout
        // starts after its request was torn down.
        let cfg = SimConfig { request_timeout_us: Some(100_000), ..SimConfig::default() };
        let mut w = World::new(topo(1_000_000), cfg, 3);
        w.add_instances(ServiceId(0), 1, 1000.0, SimTime::ZERO);
        w.inject(ApiId(0), SimTime(0));
        w.run_until(SimTime::from_secs(2.0));
        let s = w.stats();
        assert_eq!((s.timeouts, s.stale_job_checks, s.stale_frame_starts), (1, 0, 1));
    }

    #[test]
    fn contention_injection_inflates_latency_within_its_window() {
        let topo = AppTopology::new(
            "one",
            vec![ServiceSpec::new("s", 1.0, 0).cv(0.0)],
            vec![ApiSpec::new("get", CallNode::new(0))],
        );
        let mut w = World::new(topo, SimConfig::default(), 12);
        w.add_instances(ServiceId(0), 1, 1000.0, SimTime::ZERO);
        // Contention 4x during [2s, 4s).
        w.inject_contention(ServiceId(0), 4.0, SimTime::from_secs(2.0), SimTime::from_secs(4.0));
        for i in 0..60u64 {
            w.inject(ApiId(0), SimTime(i * 100_000)); // 10 qps for 6 s
        }
        w.run_until(SimTime::from_secs(8.0));
        let done = w.drain_completions();
        let lat_at = |from: f64, to: f64| -> f64 {
            let v: Vec<f64> = done
                .iter()
                .filter(|c| {
                    let t = c.start.as_secs_f64();
                    t >= from && t < to
                })
                .map(|c| c.latency_us() as f64)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let before = lat_at(0.0, 1.9);
        let during = lat_at(2.0, 3.9);
        let after = lat_at(4.1, 6.0);
        assert!(during > before * 2.5, "contention inflates latency: {before} → {during}");
        assert!(after < during / 2.0, "latency recovers after the window: {during} → {after}");
    }

    #[test]
    fn vertical_scaling_takes_effect_mid_flight() {
        let topo = AppTopology::new(
            "one",
            vec![ServiceSpec::new("s", 10.0, 0).cv(0.0)],
            vec![ApiSpec::new("get", CallNode::new(0))],
        );
        let mut w = World::new(topo, SimConfig::default(), 13);
        w.add_instances(ServiceId(0), 1, 100.0, SimTime::ZERO);
        // A 10 core·ms job at 100 mc would take 100 ms; halfway through,
        // resize to 1000 mc and it finishes much sooner.
        w.inject(ApiId(0), SimTime(0));
        w.run_until(SimTime::from_millis(50.0));
        assert_eq!(w.stats().completed, 0);
        w.resize_instances(ServiceId(0), 1000.0);
        w.run_until(SimTime::from_millis(60.0));
        let done = w.drain_completions();
        assert_eq!(done.len(), 1, "resize accelerated the in-flight job");
        let lat = done[0].latency_us();
        assert!((54_000..58_000).contains(&lat), "≈50ms at 100mc + 5ms at 1000mc: {lat}");
        assert!((w.ready_quota_mc(ServiceId(0)) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn trace_sampling_probability_is_respected() {
        let topo = AppTopology::new(
            "one",
            vec![ServiceSpec::new("s", 0.5, 0).cv(0.0)],
            vec![ApiSpec::new("get", CallNode::new(0))],
        );
        let cfg = SimConfig { trace_sample: 0.3, ..SimConfig::default() };
        let mut w = World::new(topo, cfg, 14);
        w.add_instances(ServiceId(0), 1, 1000.0, SimTime::ZERO);
        for i in 0..1_000u64 {
            w.inject(ApiId(0), SimTime(i * 2_000));
        }
        w.run_until(SimTime::from_secs(5.0));
        let traces = w.traces_mut().drain_finished().len() as f64;
        assert!((traces / 1000.0 - 0.3).abs() < 0.06, "≈30% of requests traced, got {traces}");
        assert_eq!(w.stats().completed, 1000, "sampling never drops requests");
    }

    #[test]
    fn draining_instance_finishes_jobs_then_disappears() {
        let topo = AppTopology::new(
            "one",
            vec![ServiceSpec::new("s", 50.0, 0).cv(0.0)],
            vec![ApiSpec::new("get", CallNode::new(0))],
        );
        let mut w = World::new(topo, SimConfig::default(), 15);
        w.add_instances(ServiceId(0), 2, 1000.0, SimTime::ZERO);
        w.inject(ApiId(0), SimTime(0));
        w.inject(ApiId(0), SimTime(1));
        w.run_until(SimTime::from_millis(10.0)); // both in flight (50ms each)
        let removed = w.remove_instances(ServiceId(0), 2);
        assert_eq!(removed, 2);
        let (_, ready, draining) = w.instance_counts(ServiceId(0));
        assert_eq!(ready, 0);
        assert!(draining >= 1, "jobs keep their instance until done");
        w.run_until(SimTime::from_secs(1.0));
        assert_eq!(w.stats().completed, 2, "in-flight work still completes");
        let (s, r, d) = w.instance_counts(ServiceId(0));
        assert_eq!((s, r, d), (0, 0, 0), "drained instances are deleted");
    }

    #[test]
    fn work_is_conserved_under_load() {
        // Total CPU used ≈ requests × mean work when the system drains fully.
        let topo = AppTopology::new(
            "one",
            vec![ServiceSpec::new("s", 4.0, 0).cv(0.0)],
            vec![ApiSpec::new("get", CallNode::new(0))],
        );
        let mut w = World::new(topo, SimConfig::default(), 5);
        w.add_instances(ServiceId(0), 2, 1000.0, SimTime::ZERO);
        for i in 0..500u64 {
            w.inject(ApiId(0), SimTime(i * 2_000));
        }
        w.run_until(SimTime::from_secs(5.0));
        assert_eq!(w.stats().completed, 500);
        let used_total = w.services[0].cpu.used_in(0, w.now().as_micros());
        let expected = 500.0 * 4.0 * 1_000_000.0; // mc·us (4 core·ms each)
        let err = (used_total - expected).abs() / expected;
        assert!(err < 0.01, "used {used_total} vs expected {expected}");
    }
}
