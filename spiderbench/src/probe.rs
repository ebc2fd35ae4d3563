//! A forwarding [`Router`] that sees the scheme from the outside.
//!
//! [`Probe`] wraps the scheme a run measures. With `TIMED = false` it only
//! stamps the instant the last pre-loop hook (`initialize`, then
//! `prewarm`) returns, which is where set-up ends; every other call is
//! forwarded untouched. With `TIMED = true` it also counts and times every
//! hook the engine calls during the run. Nothing inside the simulator is
//! instrumented: the engine's own time is whatever `sim.run()` spent
//! outside these hooks.

use spider_sim::{
    NetworkView, RouteProposal, RouteRequest, Router, RouterObs, TopologyUpdate, UnitAck,
    UnitOutcome,
};
use spider_types::NodeId;
use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Time and call count of one hook.
#[derive(Default)]
pub struct Hook {
    pub time: Cell<Duration>,
    pub calls: Cell<u64>,
}

impl Hook {
    fn add(&self, since: Instant) {
        self.time.set(self.time.get() + since.elapsed());
        self.calls.set(self.calls.get() + 1);
    }

    pub fn secs(&self) -> f64 {
        self.time.get().as_secs_f64()
    }
}

/// What a [`Probe`] saw, shared with the caller (the simulation owns the
/// router, so the numbers are read through this handle after the run).
#[derive(Default)]
pub struct ProbeStats {
    /// When the last pre-loop hook returned.
    pub setup_end: Cell<Option<Instant>>,
    pub prewarm_pairs: Cell<u64>,
    pub initialize: Hook,
    pub prewarm: Hook,
    pub route: Hook,
    pub outcome: Hook,
    pub ack: Hook,
    pub topology: Hook,
    pub gauge: Hook,
}

impl ProbeStats {
    /// Host time spent inside router hooks during `sim.run()`.
    pub fn hooks_secs(&self) -> f64 {
        [
            &self.initialize,
            &self.prewarm,
            &self.route,
            &self.outcome,
            &self.ack,
            &self.topology,
            &self.gauge,
        ]
        .iter()
        .map(|h| h.secs())
        .sum()
    }
}

pub struct Probe<const TIMED: bool> {
    inner: Box<dyn Router>,
    stats: Rc<ProbeStats>,
}

impl<const TIMED: bool> Probe<TIMED> {
    pub fn new(inner: Box<dyn Router>, stats: Rc<ProbeStats>) -> Self {
        Probe { inner, stats }
    }
}

/// Runs `f`, charging its time to `hook` when timing is on.
#[inline(always)]
fn timed<const TIMED: bool, R>(hook: &Hook, f: impl FnOnce() -> R) -> R {
    if TIMED {
        let t0 = Instant::now();
        let r = f();
        hook.add(t0);
        r
    } else {
        f()
    }
}

impl<const TIMED: bool> Router for Probe<TIMED> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn configure(&mut self, queueing: bool) {
        self.inner.configure(queueing);
    }

    fn initialize(&mut self, view: &NetworkView<'_>) {
        timed::<TIMED, _>(&self.stats.initialize, || self.inner.initialize(view));
        self.stats.setup_end.set(Some(Instant::now()));
    }

    fn wants_prewarm(&self) -> bool {
        self.inner.wants_prewarm()
    }

    fn prewarm(&mut self, pairs: &[(NodeId, NodeId)], view: &NetworkView<'_>) {
        timed::<TIMED, _>(&self.stats.prewarm, || self.inner.prewarm(pairs, view));
        self.stats.prewarm_pairs.set(pairs.len() as u64);
        self.stats.setup_end.set(Some(Instant::now()));
    }

    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        timed::<TIMED, _>(&self.stats.route, || self.inner.route(req, view))
    }

    fn on_unit_outcome(&mut self, outcome: &UnitOutcome, view: &NetworkView<'_>) {
        timed::<TIMED, _>(&self.stats.outcome, || {
            self.inner.on_unit_outcome(outcome, view)
        });
    }

    fn observes_unit_outcomes(&self) -> bool {
        self.inner.observes_unit_outcomes()
    }

    fn on_unit_ack(&mut self, ack: &UnitAck, view: &NetworkView<'_>) {
        timed::<TIMED, _>(&self.stats.ack, || self.inner.on_unit_ack(ack, view));
    }

    fn on_topology_change(&mut self, update: &TopologyUpdate, view: &NetworkView<'_>) {
        timed::<TIMED, _>(&self.stats.topology, || {
            self.inner.on_topology_change(update, view)
        });
    }

    fn atomic(&self) -> bool {
        self.inner.atomic()
    }

    fn window_gauge(&self) -> Option<f64> {
        timed::<TIMED, _>(&self.stats.gauge, || self.inner.window_gauge())
    }

    fn observability(&self) -> RouterObs {
        self.inner.observability()
    }
}
