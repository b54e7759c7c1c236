//! Chaos campaigns (paper §6 lists device faults/failures as a
//! prototyping dimension): execute a seeded [`FaultPlan`] against a
//! testbed, sweep it across seeds, and score each run with a
//! degradation-aware verdict — violations *during* a fault window (plus a
//! convergence grace period) are tolerated degradation; violations after
//! the last fault heals are hard failures.
//!
//! The runner drives the testbed between fault transitions with
//! [`Testbed::run_for`], so restarts and checkpoints interleave exactly as
//! they would in a plain run, and the whole campaign is a pure function of
//! (plan, seed, testbed builder): the scorecard digest is byte-identical
//! across runs.

use std::collections::BTreeMap;

use digibox_model::json::{self, ToValue};
use digibox_model::{vmap, Value};
use digibox_net::chaos::{self, FaultKind, FaultPlan, FaultWindow};
use digibox_net::{NodeId, SimDuration, SimTime};
use digibox_trace::RecordKind;

use crate::islands::{self, IslandSpec};
use crate::sweep::{self, SweepOutcome};
use crate::testbed::Testbed;

/// A fault plan bound to a seed sweep.
pub struct Campaign {
    plan: FaultPlan,
}

/// A seed that produced no report: its builder failed or the run panicked.
/// Captured per seed by the sweep engine instead of poisoning the whole
/// campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedFailure {
    /// The seed that failed.
    pub seed: u64,
    /// The builder error or panic message.
    pub error: String,
}

/// Per-seed observations.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedReport {
    /// The seed this report belongs to.
    pub seed: u64,
    /// Fraction of the run each digi was up (1.0 = never down). Digis
    /// that never crashed report 1.0.
    pub availability: BTreeMap<String, f64>,
    /// Supervised restarts per digi.
    pub restarts: BTreeMap<String, u64>,
    /// Kernel datagrams dropped by lossy/blackholed links.
    pub messages_lost: u64,
    /// Broker-side transport retransmissions (reliable-delivery repair
    /// work caused by the faults).
    pub messages_redelivered: u64,
    /// Sessions the broker reaped via keep-alive probing.
    pub broker_sessions_expired: u64,
    /// Checkpoint snapshots taken across all digis.
    pub checkpoints_taken: u64,
    /// Violations inside a fault window + convergence grace (tolerated).
    pub violations_during_fault: u64,
    /// Violations after the last heal + convergence deadline (failures).
    pub violations_post_heal: u64,
    /// Time from the last heal to the last *tolerated* violation — how
    /// long the ensemble took to reconverge (0 = instantly clean).
    pub time_to_reconverge_ms: u64,
    /// Observability counters for the seed's run (`digibox_obs` registry:
    /// kernel dispatch, broker routing, digi handlers, restarts,
    /// checkpoints). Empty when the testbed was built with
    /// `TestbedConfig::metrics` off. Keys are sorted, so the map is part
    /// of the canonical JSON and digest.
    pub metrics: BTreeMap<String, u64>,
}

/// The campaign verdict across all seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Scorecard {
    /// Name of the fault plan that ran.
    pub plan: String,
    /// Convergence deadline used for violation classification.
    pub convergence_ms: u64,
    /// One report per seed, in canonical seed order.
    pub per_seed: Vec<SeedReport>,
    /// Seeds that never produced a report (builder error or panic), in
    /// canonical seed order. Part of the canonical JSON and digest.
    pub errors: Vec<SeedFailure>,
}

impl Scorecard {
    /// Hard failures summed across all seeds.
    pub fn post_heal_violations(&self) -> u64 {
        self.per_seed.iter().map(|s| s.violations_post_heal).sum()
    }

    /// Clean = no seed produced a violation after its convergence
    /// deadline. Degradation during faults does not count against this.
    pub fn clean(&self) -> bool {
        self.post_heal_violations() == 0
    }

    /// Content digest of the canonical JSON ([`json::encode`]) — two
    /// runs of the same plan, seeds and setup must produce the same digest.
    pub fn digest(&self) -> String {
        digibox_registry::sha256(json::encode(self).as_bytes()).to_string()
    }

    /// Human-readable summary for the CLI's pretty format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos plan {:?}: {} seed(s), convergence {}ms — {}\n",
            self.plan,
            self.per_seed.len(),
            self.convergence_ms,
            if self.clean() { "CLEAN" } else { "POST-HEAL VIOLATIONS" }
        ));
        for s in &self.per_seed {
            let worst = s
                .availability
                .iter()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("availability is finite"))
                .map(|(n, a)| format!("{n} {:.1}%", a * 100.0))
                .unwrap_or_else(|| "n/a".to_string());
            out.push_str(&format!(
                "  seed {:>3}: worst availability {worst}; restarts {}; lost {}; \
                 redelivered {}; during-fault {}; post-heal {}; reconverge {}ms\n",
                s.seed,
                s.restarts.values().sum::<u64>(),
                s.messages_lost,
                s.messages_redelivered,
                s.violations_during_fault,
                s.violations_post_heal,
                s.time_to_reconverge_ms
            ));
            if let Some(events) = s.metrics.get("kernel.events") {
                out.push_str(&format!(
                    "           kernel events {events}; broker publishes {}; digi handlers {}\n",
                    s.metrics.get("broker.publishes").copied().unwrap_or(0),
                    s.metrics.get("digi.on_loop").copied().unwrap_or(0)
                        + s.metrics.get("digi.on_model").copied().unwrap_or(0)
                ));
            }
        }
        for e in &self.errors {
            out.push_str(&format!("  seed {:>3}: FAILED — {}\n", e.seed, e.error));
        }
        out.push_str(&format!("scorecard digest {}\n", &self.digest()[..12]));
        out
    }
}

impl ToValue for SeedFailure {
    fn to_value(&self) -> Value {
        vmap! { "seed" => self.seed.to_value(), "error" => self.error.to_value() }
    }
}

impl ToValue for SeedReport {
    fn to_value(&self) -> Value {
        vmap! {
            "seed" => self.seed.to_value(),
            "availability" => self.availability.to_value(),
            "restarts" => self.restarts.to_value(),
            "messages_lost" => self.messages_lost.to_value(),
            "messages_redelivered" => self.messages_redelivered.to_value(),
            "broker_sessions_expired" => self.broker_sessions_expired.to_value(),
            "checkpoints_taken" => self.checkpoints_taken.to_value(),
            "violations_during_fault" => self.violations_during_fault.to_value(),
            "violations_post_heal" => self.violations_post_heal.to_value(),
            "time_to_reconverge_ms" => self.time_to_reconverge_ms.to_value(),
            "metrics" => self.metrics.to_value(),
        }
    }
}

/// The canonical JSON: the fields plus the derived `clean` and
/// `post_heal_violations`.
impl ToValue for Scorecard {
    fn to_value(&self) -> Value {
        vmap! {
            "plan" => self.plan.to_value(),
            "convergence_ms" => self.convergence_ms.to_value(),
            "clean" => self.clean(),
            "post_heal_violations" => self.post_heal_violations().to_value(),
            "per_seed" => self.per_seed.to_value(),
            "errors" => self.errors.to_value(),
        }
    }
}

impl Campaign {
    /// Validate the plan and wrap it for execution.
    pub fn new(plan: FaultPlan) -> Result<Campaign, String> {
        plan.validate()?;
        Ok(Campaign { plan })
    }

    /// The validated fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Run the plan once per seed across `jobs` worker threads (`0` = one
    /// per core) on the [`sweep`] engine, building a fresh testbed each
    /// time via `build` (which should configure digis, properties, and —
    /// for partition plans — a broker session timeout so stale sessions
    /// clear). Every worker builds its own isolated testbed/kernel and
    /// reports are merged in canonical seed order, so the scorecard — and
    /// its digest — is byte-identical for any `jobs` value. A seed whose
    /// builder fails or whose run panics becomes a [`SeedFailure`] entry
    /// instead of aborting the sweep.
    pub fn run_jobs<F>(&self, seeds: &[u64], jobs: usize, build: F) -> Scorecard
    where
        F: Fn(u64) -> crate::Result<Testbed> + Sync,
    {
        let outcome = sweep::sweep(seeds, jobs, |seed| {
            let mut tb = build(seed).map_err(|e| e.to_string())?;
            Ok(self.run_seed(seed, &mut tb))
        });
        self.scorecard(outcome)
    }

    /// Run the plan once per seed with each run executed space-parallel
    /// on the island engine (`core::islands`, DESIGN.md §15): `specs_for`
    /// partitions the scene into islands for a seed, the engine drives
    /// them through conservative-lookahead epochs with the plan's fault
    /// windows resolved at barrier fences, and the per-island reports are
    /// merged into one [`SeedReport`] (digi maps union — island scenes
    /// must use globally unique digi names — numeric fields sum,
    /// reconvergence takes the worst island). `workers` is the island
    /// worker-thread count per run (`0` = one per core) and never changes
    /// the scorecard digest; `jobs` shards seeds exactly like
    /// [`Campaign::run_jobs`].
    pub fn run_islands<F>(
        &self,
        seeds: &[u64],
        jobs: usize,
        workers: usize,
        specs_for: F,
    ) -> Scorecard
    where
        F: Fn(u64) -> Vec<IslandSpec> + Sync,
    {
        let span = self.plan.duration() + self.plan.convergence();
        let outcome = sweep::sweep(seeds, jobs, |seed| {
            let windows = self.plan.schedule(seed);
            let run = islands::run(
                seed,
                specs_for(seed),
                workers,
                span,
                &windows,
                |_, tb, t0| {
                    // Records up to the aligned start are settle noise;
                    // epoch events are strictly after t0 (events at t0 are
                    // processed during clock alignment).
                    let seq0 = tb
                        .log()
                        .records()
                        .iter()
                        .take_while(|r| r.ts <= t0)
                        .last()
                        .map(|r| r.seq);
                    self.collect(seed, tb, t0, &windows, seq0)
                },
            )?;
            Ok(merge_island_reports(seed, run.results))
        });
        self.scorecard(outcome)
    }

    /// Merge a sweep's per-seed outcomes, in seed order, into the
    /// plan's scorecard: reports for the seeds that ran, failures for the
    /// rest.
    fn scorecard(&self, outcome: SweepOutcome<SeedReport>) -> Scorecard {
        let mut per_seed = Vec::with_capacity(outcome.runs.len());
        let mut errors = Vec::new();
        for run in outcome.runs {
            match run.result {
                Ok(report) => per_seed.push(report),
                Err(e) => errors.push(SeedFailure { seed: run.seed, error: e.to_string() }),
            }
        }
        Scorecard {
            plan: self.plan.name.clone(),
            convergence_ms: self.plan.convergence_ms,
            per_seed,
            errors,
        }
    }

    /// Execute the plan's windows against one testbed. Fault times are
    /// relative to the moment this is called (the builder may have run
    /// settle time first).
    fn run_seed(&self, seed: u64, tb: &mut Testbed) -> SeedReport {
        let windows = self.plan.schedule(seed);
        let t0 = tb.now();
        let seq0 = tb.log().records().last().map(|r| r.seq);
        let baseline = tb.sim().topology().save_links();

        let mut marks: Vec<SimTime> = windows.iter().flat_map(|w| [w.start, w.end]).collect();
        marks.sort_unstable();
        marks.dedup();
        let mut active = vec![false; windows.len()];

        for mark in marks {
            let abs = t0 + (mark - SimTime::ZERO);
            if abs > tb.now() {
                tb.run_for(abs - tb.now());
            }
            let mut topo_dirty = false;
            for (i, w) in windows.iter().enumerate() {
                if w.start != mark {
                    continue;
                }
                active[i] = true;
                tb.log().lifecycle(tb.now(), "chaos", "fault-begin", &w.kind.label());
                match &w.kind {
                    FaultKind::CrashDigi { digi } => {
                        let _ = tb.kill(digi);
                    }
                    FaultKind::NodeDown { node } => {
                        let _ = tb.fail_node(NodeId(*node));
                    }
                    FaultKind::CrashBroker => {
                        // The restart is scheduled up front: the broker
                        // stays dark for the whole window, then a fresh
                        // instance imports the exported sessions.
                        tb.kill_broker(w.end.since(w.start));
                    }
                    FaultKind::Partition { .. } | FaultKind::Degrade { .. } => topo_dirty = true,
                }
            }
            for (i, w) in windows.iter().enumerate() {
                if w.end != mark || !active[i] {
                    continue;
                }
                active[i] = false;
                tb.log().lifecycle(tb.now(), "chaos", "fault-end", &w.kind.label());
                match &w.kind {
                    FaultKind::NodeDown { node } => tb.restore_node(NodeId(*node)),
                    FaultKind::Partition { .. } | FaultKind::Degrade { .. } => topo_dirty = true,
                    // Broker rebind was scheduled by kill_broker at
                    // window start; nothing to do at heal time.
                    FaultKind::CrashDigi { .. } | FaultKind::CrashBroker => {}
                }
            }
            if topo_dirty {
                islands::reapply_links(tb.sim().topology_mut(), &baseline, &windows, &active);
            }
        }

        // Run out the plan, then the convergence grace period.
        let end_abs = t0 + self.plan.duration() + self.plan.convergence();
        if end_abs > tb.now() {
            tb.run_for(end_abs - tb.now());
        }
        self.collect(seed, tb, t0, &windows, seq0)
    }

    fn collect(
        &self,
        seed: u64,
        tb: &mut Testbed,
        t0: SimTime,
        windows: &[FaultWindow],
        seq0: Option<u64>,
    ) -> SeedReport {
        let convergence = self.plan.convergence();
        let records = tb.log().since(seq0);
        let end = tb.now();
        let total = end - t0;

        // Downtime windows from the lifecycle stream: killed → restarted.
        let mut down_since: BTreeMap<String, SimTime> = BTreeMap::new();
        let mut downtime: BTreeMap<String, SimDuration> = BTreeMap::new();
        let mut restarts: BTreeMap<String, u64> = BTreeMap::new();
        for r in &records {
            let RecordKind::Lifecycle { action, .. } = &r.kind else { continue };
            match action.as_str() {
                "killed" => {
                    down_since.entry(r.source.clone()).or_insert(r.ts);
                }
                "restarted" => {
                    *restarts.entry(r.source.clone()).or_insert(0) += 1;
                    if let Some(t) = down_since.remove(&r.source) {
                        let d = downtime.entry(r.source.clone()).or_insert(SimDuration::ZERO);
                        *d = *d + (r.ts - t);
                    }
                }
                _ => {}
            }
        }
        for (name, t) in down_since {
            let d = downtime.entry(name).or_insert(SimDuration::ZERO);
            *d = *d + (end - t);
        }
        let mut availability: BTreeMap<String, f64> = BTreeMap::new();
        for name in tb.digi_names() {
            availability.insert(name, 1.0);
        }
        for (name, d) in &downtime {
            let frac = if total > SimDuration::ZERO {
                1.0 - d.as_secs_f64() / total.as_secs_f64()
            } else {
                1.0
            };
            availability.insert(name.clone(), frac.clamp(0.0, 1.0));
        }

        // Degradation-aware violation classification, in plan time.
        let last_heal = chaos::last_heal(windows);
        let mut during_fault = 0u64;
        let mut post_heal = 0u64;
        let mut last_tolerated_after_heal: Option<SimTime> = None;
        for r in &records {
            if !matches!(r.kind, RecordKind::Violation { .. }) {
                continue;
            }
            let rel = SimTime::ZERO + (r.ts - t0);
            if chaos::tolerated(windows, convergence, rel) {
                during_fault += 1;
                if rel > last_heal {
                    last_tolerated_after_heal =
                        Some(last_tolerated_after_heal.map_or(rel, |t| t.max(rel)));
                }
            } else {
                post_heal += 1;
            }
        }
        let time_to_reconverge_ms =
            last_tolerated_after_heal.map_or(0, |t| (t - last_heal).as_millis());

        let checkpoints_taken = tb
            .checkpoints()
            .names()
            .iter()
            .filter_map(|n| tb.checkpoints().info(n))
            .map(|i| i.taken)
            .sum();
        let (messages_redelivered, broker_sessions_expired) = {
            let b = tb.broker().borrow();
            (b.transport_retransmits(), b.stats().sessions_expired)
        };
        let messages_lost = tb.sim().stats().datagrams_lost;
        let metrics: BTreeMap<String, u64> =
            tb.obs_snapshot().counters.into_iter().collect();

        SeedReport {
            seed,
            availability,
            restarts,
            messages_lost,
            messages_redelivered,
            broker_sessions_expired,
            checkpoints_taken,
            violations_during_fault: during_fault,
            violations_post_heal: post_heal,
            time_to_reconverge_ms,
            metrics,
        }
    }
}

/// Merge per-island seed reports into one: digi-keyed maps union (island
/// scenes use globally unique digi names), numeric totals sum, and
/// reconvergence time takes the slowest island.
fn merge_island_reports(seed: u64, reports: Vec<SeedReport>) -> SeedReport {
    let mut merged = SeedReport {
        seed,
        availability: BTreeMap::new(),
        restarts: BTreeMap::new(),
        messages_lost: 0,
        messages_redelivered: 0,
        broker_sessions_expired: 0,
        checkpoints_taken: 0,
        violations_during_fault: 0,
        violations_post_heal: 0,
        time_to_reconverge_ms: 0,
        metrics: BTreeMap::new(),
    };
    for r in reports {
        merged.availability.extend(r.availability);
        merged.restarts.extend(r.restarts);
        merged.messages_lost += r.messages_lost;
        merged.messages_redelivered += r.messages_redelivered;
        merged.broker_sessions_expired += r.broker_sessions_expired;
        merged.checkpoints_taken += r.checkpoints_taken;
        merged.violations_during_fault += r.violations_during_fault;
        merged.violations_post_heal += r.violations_post_heal;
        merged.time_to_reconverge_ms = merged.time_to_reconverge_ms.max(r.time_to_reconverge_ms);
        for (k, v) in r.metrics {
            *merged.metrics.entry(k).or_insert(0) += v;
        }
    }
    merged
}

#[cfg(test)]
#[allow(clippy::module_inception)] // keeps the `campaign::campaign::*` test ids
mod campaign {
    use super::*;

    fn sample() -> Scorecard {
        let mut availability = BTreeMap::new();
        availability.insert("L1".to_string(), 0.9432);
        availability.insert("R1".to_string(), 1.0);
        let mut restarts = BTreeMap::new();
        restarts.insert("L1".to_string(), 2u64);
        let mut metrics = BTreeMap::new();
        metrics.insert("kernel.events".to_string(), 400u64);
        metrics.insert("broker.publishes".to_string(), 25u64);
        Scorecard {
            plan: "demo".to_string(),
            convergence_ms: 2000,
            per_seed: vec![SeedReport {
                seed: 7,
                availability,
                restarts,
                messages_lost: 14,
                messages_redelivered: 9,
                broker_sessions_expired: 1,
                checkpoints_taken: 12,
                violations_during_fault: 3,
                violations_post_heal: 0,
                time_to_reconverge_ms: 840,
                metrics,
            }],
            errors: Vec::new(),
        }
    }

    #[test]
    fn digest_is_deterministic_and_content_sensitive() {
        let a = sample();
        let b = sample();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest().len(), 64);
        let mut c = sample();
        c.per_seed[0].messages_lost += 1;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn clean_tracks_post_heal_only() {
        let mut s = sample();
        assert!(s.clean(), "during-fault violations are tolerated");
        s.per_seed[0].violations_post_heal = 1;
        assert!(!s.clean());
        assert_eq!(s.post_heal_violations(), 1);
    }

    #[test]
    fn json_is_canonical() {
        let s = sample();
        let j = json::encode(&s);
        assert_eq!(
            j,
            "{\"clean\":true,\"convergence_ms\":2000,\"errors\":[],\"per_seed\":[{\
             \"availability\":{\"L1\":0.9432,\"R1\":1.0},\"broker_sessions_expired\":1,\
             \"checkpoints_taken\":12,\"messages_lost\":14,\"messages_redelivered\":9,\
             \"metrics\":{\"broker.publishes\":25,\"kernel.events\":400},\
             \"restarts\":{\"L1\":2},\"seed\":7,\"time_to_reconverge_ms\":840,\
             \"violations_during_fault\":3,\"violations_post_heal\":0}],\
             \"plan\":\"demo\",\"post_heal_violations\":0}"
        );
        assert_eq!(Value::from_json(&j).unwrap(), s.to_value());
        assert_eq!(j, json::encode(&s));
    }

    #[test]
    fn seed_failures_are_canonical_and_digest_sensitive() {
        let clean = sample();
        let mut failed = sample();
        failed.errors.push(SeedFailure { seed: 13, error: "panicked: boom".into() });
        assert_ne!(clean.digest(), failed.digest());
        let j = json::encode(&failed);
        assert!(
            j.contains("\"errors\":[{\"error\":\"panicked: boom\",\"seed\":13}]"),
            "{j}"
        );
        assert_eq!(Value::from_json(&j).unwrap(), failed.to_value());
        assert!(failed.render().contains("seed  13: FAILED — panicked: boom"), "{}", failed.render());
        // failures don't count as post-heal violations — clean() is about
        // property verdicts; callers surface errors separately (exit 1).
        assert!(failed.clean());
    }
}
