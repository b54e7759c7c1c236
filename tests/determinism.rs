//! Determinism regression for the substrate hot-path overhaul: the
//! hierarchical timer wheel, broker route cache, and interned
//! topics/paths must not perturb event order. A 200-mock building scene
//! run twice under one seed must produce byte-identical traces and model
//! states; a different seed must not.
//!
//! The pooled tests extend the same contract to the pool's storage:
//! a 10k-digi pooled testbed must digest byte-identically across runs
//! (tick groups and kernel-coalesced deliveries must not perturb
//! observable order), and across jobs=1 vs jobs=N sweeps (per-thread
//! intern tables must never leak into anything digested).

use digibox_integration::{laptop, no_params};
use digibox_net::SimDuration;
use digibox_registry::sha256;

const SENSORS: usize = 200;
const ROOMS: usize = 10;

/// Build the scene, run it for 30 virtual seconds, and digest everything
/// observable: the full trace archive and every digi's final model state.
fn scene_digests(seed: u64) -> (String, String) {
    let mut tb = laptop(seed);
    tb.run_with("Building", "HQ", no_params(), true).unwrap();
    for r in 0..ROOMS {
        tb.run_with("Room", &format!("R{r}"), no_params(), true).unwrap();
    }
    for s in 0..SENSORS {
        // unmanaged: the mocks' own event loops drive the kernel's
        // periodic-timer path (the wheel's hot case)
        tb.run_with("Occupancy", &format!("O{s}"), no_params(), false).unwrap();
    }
    tb.run_for(SimDuration::from_secs(2));
    for r in 0..ROOMS {
        tb.attach(&format!("R{r}"), "HQ").unwrap();
    }
    for s in 0..SENSORS {
        tb.attach(&format!("O{s}"), &format!("R{}", s % ROOMS)).unwrap();
    }
    tb.run_for(SimDuration::from_secs(30));

    let trace_digest = sha256(&digibox_trace::archive::write(&tb.log().records())).to_string();

    // Model states, serialized in a fixed (name) order.
    let mut states = String::new();
    let mut names = vec!["HQ".to_string()];
    names.extend((0..ROOMS).map(|r| format!("R{r}")));
    names.extend((0..SENSORS).map(|s| format!("O{s}")));
    for name in names {
        let model = tb.check(&name).unwrap();
        states.push_str(&name);
        states.push('=');
        states.push_str(&model.fields().to_json());
        states.push('\n');
    }
    let state_digest = sha256(states.as_bytes()).to_string();
    (trace_digest, state_digest)
}

#[test]
fn same_seed_is_bit_identical_at_200_mocks() {
    let (trace_a, state_a) = scene_digests(42);
    let (trace_b, state_b) = scene_digests(42);
    assert_eq!(trace_a, trace_b, "trace diverged between identical runs");
    assert_eq!(state_a, state_b, "model states diverged between identical runs");
}

#[test]
fn different_seed_diverges() {
    let (trace_a, _) = scene_digests(42);
    let (trace_c, _) = scene_digests(43);
    assert_ne!(trace_c, trace_a, "different seeds must produce different traces");
}

/// Build a pooled testbed (`digis` Occupancy mocks in one shared pool),
/// run it, and digest the trace plus every pooled digi's fields, in fixed
/// name order.
fn pooled_digests(seed: u64, digis: usize, secs: u64) -> (String, String) {
    let mut tb = laptop(seed);
    let names: Vec<String> = (0..digis).map(|i| format!("P{i}")).collect();
    let (pool, _) = tb.run_pool("Occupancy", &names, no_params(), false).unwrap();
    tb.run_for(SimDuration::from_secs(secs));

    let trace_digest = sha256(&digibox_trace::archive::write(&tb.log().records())).to_string();

    let p = pool.borrow();
    let mut states = String::new();
    for name in &names {
        let model = p.model(name).expect("pooled digi is hosted");
        states.push_str(name);
        states.push('=');
        states.push_str(&model.fields().to_json());
        states.push('\n');
    }
    let state_digest = sha256(states.as_bytes()).to_string();
    (trace_digest, state_digest)
}

#[test]
fn pooled_10k_is_bit_identical_across_runs() {
    let (trace_a, state_a) = pooled_digests(42, 10_000, 5);
    let (trace_b, state_b) = pooled_digests(42, 10_000, 5);
    assert_eq!(trace_a, trace_b, "10k-digi pooled trace diverged between identical runs");
    assert_eq!(state_a, state_b, "10k-digi model states diverged between identical runs");
}

#[test]
fn pooled_sweep_digests_match_at_any_jobs_count() {
    // Per-thread intern tables must never leak into digests: the same
    // seeds swept serially and in parallel across threads (each worker
    // interning paths in a different order) must merge to byte-identical
    // digest vectors.
    let seeds: Vec<u64> = (1..=4).collect();
    let run = |seed: u64| -> Result<(String, String), String> { Ok(pooled_digests(seed, 500, 10)) };
    let serial = digibox_core::sweep::sweep(&seeds, 1, run);
    let parallel = digibox_core::sweep::sweep(&seeds, 0, run);
    let unwrap_all = |o: digibox_core::SweepOutcome<(String, String)>| -> Vec<(u64, (String, String))> {
        o.runs.into_iter().map(|r| (r.seed, r.result.expect("pooled run succeeds"))).collect()
    };
    assert_eq!(
        unwrap_all(serial),
        unwrap_all(parallel),
        "jobs=1 and jobs=N pooled sweeps must digest identically"
    );
}
