//! `metro_flows`: flow churn on a 300k-home metro city.
//!
//! The E24 churn driver's shape on [`metro`]: a standing pool of
//! `homes/20` flows, topped up every 10 ms of simulated time (two
//! thirds home→backbone, one third home→home through the tree, sizes
//! log-uniform 100 KB…51 MB, every 4th flow capped at 200 Mbps), with
//! ~2% of the pool cancelled per tick. Single-threaded, tracer off.
//! It is the only workload where the netsim allocator and calendar
//! queue do all the work, and it bypasses every service crate.
//!
//! A round builds the city, warms it up to its standing pool, and then
//! measures a fixed window of simulated time.

use crate::report::{registry_updates, Round};
use crate::spans::{self, Spans};
use crate::stats::Rng;
use crate::Workload;
use hpop_netsim::netsim::NetSim;
use hpop_netsim::presets::{metro, MetroNetwork, MetroParams};
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_netsim::topology::DirLinkId;
use hpop_netsim::units::{Bandwidth, KB};
use hpop_netsim::FlowId;
use hpop_obs::MetricsRegistry;
use std::time::Instant;

/// Driver tick: top the pool up and churn it this often.
const TICK: SimDuration = SimDuration::from_nanos(10_000_000);

struct Size {
    homes: usize,
    warm: SimDuration,
    window: SimDuration,
}

pub struct MetroFlows {
    seed: u64,
    size: Size,
    /// (flow events, bytes completed) the seed must produce: the
    /// recorded value from `fingerprints.json` when the seed is listed
    /// there, else the first round's, which every later round (same
    /// inputs) must reproduce exactly.
    fingerprint: Option<(u64, u64)>,
}

/// The recorded fingerprint of `seed` at full size, if any.
fn recorded_fingerprint(seed: u64) -> Option<(u64, u64)> {
    let table = hpop_obs::json::parse(include_str!("../fingerprints.json"))
        .expect("fingerprints.json parses");
    let entry = table.get("metro_flows")?.get(&seed.to_string())?.items()?;
    match entry {
        [events, bytes] => Some((events.as_u64()?, bytes.as_u64()?)),
        _ => None,
    }
}

impl MetroFlows {
    pub fn new(seed: u64, smoke: bool) -> MetroFlows {
        let size = if smoke {
            Size {
                homes: 2_000,
                warm: SimDuration::from_millis(200),
                window: SimDuration::from_millis(200),
            }
        } else {
            Size {
                homes: 300_000,
                warm: SimDuration::from_millis(1_000),
                window: SimDuration::from_millis(3_000),
            }
        };
        MetroFlows {
            seed,
            size,
            fingerprint: if smoke {
                None
            } else {
                recorded_fingerprint(seed)
            },
        }
    }
}

struct Driver<'a> {
    city: &'a MetroNetwork,
    rng: Rng,
    target: usize,
    ring: Vec<FlowId>,
    buf: Vec<DirLinkId>,
}

impl Driver<'_> {
    /// One tick of churn; spans around each start and cancel.
    fn tick(
        &mut self,
        sim: &mut NetSim,
        tr: &mut Option<&mut Spans>,
        req: u64,
        parent: Option<u32>,
    ) {
        let homes = self.city.home_count() as u64;
        while sim.state.net.active_count() < self.target {
            let a = self.rng.below(homes) as usize;
            let bytes = (100 * KB) << self.rng.below(10);
            let cap = (self.rng.below(4) == 0).then(|| Bandwidth::mbps(200.0));
            let id = if self.rng.below(3) == 0 {
                let mut b = self.rng.below(homes) as usize;
                if b == a {
                    b = (b + 1) % homes as usize;
                }
                self.city.path_between(a, b, &mut self.buf);
                let s = spans::begin(tr, req, "netsim.start", parent);
                let id = sim.start_transfer_on_hops(
                    self.city.homes[a],
                    self.city.homes[b],
                    &self.buf,
                    bytes,
                    cap,
                );
                spans::end(tr, s);
                id
            } else {
                let hops = self.city.up_hops(a);
                let s = spans::begin(tr, req, "netsim.start", parent);
                let id = sim.start_transfer_on_hops(
                    self.city.homes[a],
                    self.city.backbone,
                    &hops,
                    bytes,
                    cap,
                );
                spans::end(tr, s);
                id
            };
            self.ring.push(id);
        }
        // Cancelled ids may have completed already; generational ids
        // make those cancels no-ops.
        for _ in 0..(self.target / 50).max(1) {
            if self.ring.is_empty() {
                break;
            }
            let k = self.rng.below(self.ring.len() as u64) as usize;
            let id = self.ring.swap_remove(k);
            let s = spans::begin(tr, req, "netsim.cancel", parent);
            sim.cancel_transfer(id);
            spans::end(tr, s);
        }
        if self.ring.len() > 4 * self.target {
            self.ring.drain(..self.target);
        }
    }
}

/// Runs ticks until `until`, pushing each tick's wall time to `lat_ns`.
fn drive(
    sim: &mut NetSim,
    d: &mut Driver<'_>,
    until: SimTime,
    mut tr: Option<&mut Spans>,
    lat_ns: Option<&mut Vec<u64>>,
) {
    let mut lat = lat_ns;
    let mut req = 0u64;
    loop {
        let t0 = Instant::now();
        let root = spans::begin(&mut tr, req, "tick", None);
        let now = sim.now();
        d.tick(sim, &mut tr, req, root);
        let next = (now + TICK).min(until);
        let s = spans::begin(&mut tr, req, "netsim.run_until", root);
        sim.run_until(next);
        spans::end(&mut tr, s);
        spans::end(&mut tr, root);
        if let Some(l) = lat.as_mut() {
            l.push(t0.elapsed().as_nanos() as u64);
        }
        req += 1;
        if next >= until {
            return;
        }
    }
}

impl Workload for MetroFlows {
    fn round(&mut self, mut tr: Option<&mut Spans>) -> Round {
        let mut r = Round::default();
        let setup = Instant::now();
        let city = metro(&MetroParams {
            homes: self.size.homes,
            ..MetroParams::default()
        });
        let mut sim = NetSim::with_topology(city.topology.clone());
        let build_ms = setup.elapsed().as_secs_f64() * 1e3;
        let mut d = Driver {
            city: &city,
            rng: Rng::new(self.seed),
            target: (self.size.homes / 20).max(32),
            ring: Vec::new(),
            buf: Vec::new(),
        };
        let warm_end = SimTime::ZERO + self.size.warm;
        drive(&mut sim, &mut d, warm_end, None, None);
        r.setup_s = setup.elapsed().as_secs_f64();

        // A fresh registry counts the measured window alone.
        let window = MetricsRegistry::new();
        sim.use_metrics(window.clone());
        let stats0 = sim.alloc_stats();
        let engine0 = sim.events_run();
        let global0 = registry_updates(hpop_obs::metrics());
        let allocs0 = crate::alloc::count();
        let spans0 = tr.as_ref().map_or(0, |t| t.len());
        let ticks = (self.size.window.as_nanos() / TICK.as_nanos()) as usize + 1;
        let mut lat_ns = Vec::with_capacity(ticks);
        let t0 = Instant::now();
        drive(
            &mut sim,
            &mut d,
            warm_end + self.size.window,
            tr.as_deref_mut(),
            Some(&mut lat_ns),
        );
        r.wall_s = t0.elapsed().as_secs_f64();
        let allocs = crate::alloc::count() - allocs0;
        r.lat_ns = lat_ns;

        let events = window.counter("netsim.flows.started").get()
            + window.counter("netsim.flows.completed").get()
            + window.counter("netsim.flows.cancelled").get();
        let bytes = window.counter("netsim.bytes.completed").get();
        r.ops = events;
        r.fingerprint = Some((events, bytes));
        match self.fingerprint {
            None => self.fingerprint = Some((events, bytes)),
            Some(fp) => r.check(fp == (events, bytes), || {
                format!(
                    "metro_flows: round produced (events, bytes) = ({events}, {bytes}), seed fingerprint is {fp:?}"
                )
            }),
        }
        r.check(events > 0, || {
            "metro_flows: no flow events in the window".into()
        });
        let fct = window.histogram("netsim.flow.duration_us").load();
        r.set("sim.p99_ms", fct.p99() as f64 / 1e3);

        if let Some(t) = tr.as_deref() {
            let per_event = |v: u64| v as f64 / events.max(1) as f64;
            let s = sim.alloc_stats();
            let mean = |name| crate::stats::mean(&t.durations(spans0, name));
            let run_until: u64 = t.durations(spans0, "netsim.run_until").iter().sum();
            r.set("netsim.ns_per_event", per_event(run_until));
            r.set("netsim.start_ns", mean("netsim.start"));
            r.set("netsim.cancel_ns", mean("netsim.cancel"));
            r.set("netsim.build_ms", build_ms);
            r.set(
                "netsim.flows_resolved_per_event",
                per_event(s.flows_reallocated - stats0.flows_reallocated),
            );
            r.set(
                "netsim.links_per_event",
                per_event(s.links_touched - stats0.links_touched),
            );
            r.set(
                "netsim.fill_rounds_per_event",
                per_event(s.fill_rounds - stats0.fill_rounds),
            );
            r.set(
                "netsim.full_resolves",
                (s.full_resolves - stats0.full_resolves) as f64,
            );
            r.set(
                "netsim.heap_pushes_per_event",
                per_event(s.heap_pushes - stats0.heap_pushes),
            );
            r.set(
                "netsim.engine_events_per_flow_event",
                per_event(sim.events_run() - engine0),
            );
            r.set("netsim.allocs_per_event", per_event(allocs));
            let updates =
                registry_updates(&window) + registry_updates(hpop_obs::metrics()) - global0;
            r.set("obs.updates_per_op", per_event(updates));
            r.set(
                "trace.accounted_bp",
                t.layer_ns(spans0) as f64 * 1e4 / (r.wall_s * 1e9).max(1.0),
            );
        }
        r
    }
}
