//! Determinism regression for the observability layer (`digibox_obs`):
//!
//! * the stats snapshot — canonical JSON and folded stacks — must be
//!   byte-identical across two runs of the same scene and seed;
//! * turning metrics **off** must change nothing observable: the trace
//!   digest and model states are bit-identical to a metrics-on run,
//!   because recording never touches the kernel's event order or any RNG;
//! * obs writes its snapshot JSON with its own copy of the string escaper
//!   (it sits below `digibox_model`), which must agree byte for byte with
//!   the canonical writer in `digibox_model::json`.

use digibox_core::{Testbed, TestbedConfig};
use digibox_devices::full_catalog;
use std::collections::BTreeMap;

use digibox_integration::no_params;
use digibox_model::json::ToValue;
use digibox_model::{vmap, Value};
use digibox_net::{for_each_seed, Prng, SimDuration};
use digibox_obs::Snapshot;
use digibox_registry::sha256;

const SENSORS: usize = 30;
const ROOMS: usize = 3;

/// Build and run the scene, then return (trace digest, stats JSON,
/// folded stacks). `metrics` toggles the obs layer for the whole run.
fn scene(seed: u64, metrics: bool) -> (String, String, String) {
    let mut tb = Testbed::laptop(
        full_catalog(),
        TestbedConfig { seed, metrics, ..Default::default() },
    );
    tb.run_with("Building", "HQ", no_params(), true).unwrap();
    for r in 0..ROOMS {
        tb.run_with("Room", &format!("R{r}"), no_params(), true).unwrap();
    }
    for s in 0..SENSORS {
        tb.run_with("Occupancy", &format!("O{s}"), no_params(), false).unwrap();
    }
    tb.run_for(SimDuration::from_secs(2));
    for r in 0..ROOMS {
        tb.attach(&format!("R{r}"), "HQ").unwrap();
    }
    for s in 0..SENSORS {
        tb.attach(&format!("O{s}"), &format!("R{}", s % ROOMS)).unwrap();
    }
    tb.run_for(SimDuration::from_secs(20));

    let trace_digest = sha256(&digibox_trace::archive::write(&tb.log().records())).to_string();
    let snap = tb.obs_snapshot();
    (trace_digest, snap.to_json(), snap.folded())
}

#[test]
fn stats_json_is_byte_identical_across_runs() {
    let (_, json_a, folded_a) = scene(42, true);
    let (_, json_b, folded_b) = scene(42, true);
    assert_eq!(json_a, json_b, "stats JSON diverged between identical runs");
    assert_eq!(folded_a, folded_b, "folded stacks diverged between identical runs");
    assert!(json_a.contains("\"kernel.events\":"), "{json_a}");
    assert!(json_a.contains("\"broker.publishes\":"), "{json_a}");
    assert!(json_a.contains("\"digi.on_loop\":"), "{json_a}");
    assert!(json_a.contains("\"checkpoint.passes\":"), "{json_a}");
}

#[test]
fn folded_stacks_are_valid_flamegraph_input() {
    let (_, _, folded) = scene(42, true);
    assert!(!folded.is_empty(), "a running scene must record spans");
    for line in folded.lines() {
        // `path;of;frames <count>` — exactly one space, positive weight.
        let (path, count) = line.rsplit_once(' ').expect("line has a weight");
        assert!(!path.is_empty() && !path.ends_with(';'), "bad path {line:?}");
        assert!(count.parse::<u64>().expect("weight is a number") > 0, "{line:?}");
    }
    // Handler frames nest under the kernel dispatch spans.
    assert!(folded.contains("digi.on_loop"), "{folded}");
    assert!(folded.lines().any(|l| l.starts_with("kernel.")), "{folded}");
}

#[test]
fn metrics_off_changes_no_behavior() {
    let (trace_on, _, _) = scene(42, true);
    let (trace_off, json_off, folded_off) = scene(42, false);
    assert_eq!(
        trace_on, trace_off,
        "disabling metrics must not perturb the simulation"
    );
    // An off-run snapshot is empty — nothing was recorded.
    assert!(!json_off.contains("\"kernel.events\":"), "{json_off}");
    assert!(folded_off.is_empty(), "{folded_off}");
}

/// `n` distinct seeded names over `"`, `\`, every control character, DEL
/// and non-ASCII, sorted.
fn names(rng: &mut Prng, n: usize) -> Vec<String> {
    let alphabet: String = (0u8..0x20)
        .map(char::from)
        .chain(['"', '\\', '\u{7f}', 'é', '☃', '😀', 'a', ';'])
        .collect();
    let mut names: Vec<String> = (0..n).map(|_| rng.string(&alphabet, 0, 12)).collect();
    names.sort();
    names.dedup();
    names
}

#[test]
fn snapshot_json_equals_the_canonical_writer() {
    for_each_seed(64, |rng| {
        // Counters stay below 2^63: the canonical writer prints a larger
        // `u64` as the negative `i64` with the same bits.
        let mut counters: Vec<(String, u64)> =
            names(rng, 8).into_iter().map(|n| (n, rng.next_u64() >> 1)).collect();
        let mut gauges: Vec<(String, i64)> =
            names(rng, 4).into_iter().map(|n| (n, rng.next_u64() as i64)).collect();
        let mut spans: Vec<(String, u64)> =
            names(rng, 8).into_iter().map(|n| (n, rng.range_u64(1, 1000))).collect();
        // The order `obs::snapshot` gives its sections.
        counters.sort();
        gauges.sort();
        spans.sort();
        let snap = Snapshot {
            clock_ns: rng.next_u64() >> 1,
            counters,
            gauges,
            histograms: Vec::new(),
            spans,
        };
        let canonical = vmap! {
            "clock_ns" => snap.clock_ns.to_value(),
            "counters" => snap.counters.iter().cloned().collect::<BTreeMap<_, _>>().to_value(),
            "gauges" => snap.gauges.iter().cloned().collect::<BTreeMap<_, _>>().to_value(),
            "histograms" => Value::map(),
            "spans" => snap.spans.to_value(),
        };
        assert_eq!(snap.to_json(), canonical.to_json());
    });
}
