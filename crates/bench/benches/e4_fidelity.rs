//! E4 — Fig. 7 fidelity ablation: the same application observed under
//! device-centric vs scene-centric simulation. Reports the app-visible
//! ensemble-consistency rate per mode (the paper's qualitative claim made
//! quantitative).

use digibox_apps::SmartBuildingApp;
use digibox_bench::{no_params, report, with_fidelity};
use digibox_core::{FidelityMode, Testbed};
use digibox_net::SimDuration;

fn build(fidelity: FidelityMode, seed: u64) -> (Testbed, SmartBuildingApp) {
    let mut tb = with_fidelity(fidelity, seed);
    for s in ["O1", "O2"] {
        tb.run_with("Occupancy", s, no_params(), true).unwrap();
    }
    tb.run_with("Underdesk", "D1", no_params(), true).unwrap();
    tb.run_with("Room", "R1", no_params(), false).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    for s in ["O1", "O2", "D1"] {
        tb.attach(s, "R1").unwrap();
    }
    let mut app = SmartBuildingApp::new(&mut tb, 10);
    app.add_room("R1", &["O1", "O2"], &["D1"], None);
    (tb, app)
}

fn consistency_rate(fidelity: FidelityMode) -> f64 {
    let mut consistent = 0u32;
    let mut samples = 0u32;
    for seed in [1, 2, 3] {
        let (mut tb, mut app) = build(fidelity, seed);
        for _ in 0..120 {
            tb.run_for(SimDuration::from_millis(500));
            app.step(&mut tb);
            if let Some(ok) = app.sensors_consistent("R1") {
                samples += 1;
                consistent += u32::from(ok);
            }
        }
    }
    consistent as f64 / samples.max(1) as f64
}

fn main() {
    let device = consistency_rate(FidelityMode::DeviceCentric);
    let scene = consistency_rate(FidelityMode::SceneCentric);
    report(
        "E4 fidelity (Fig. 7)",
        &format!(
            "app-visible ensemble consistency: device-centric = {:.1}%, scene-centric = {:.1}%",
            device * 100.0,
            scene * 100.0
        ),
    );
    assert!(scene > 0.99, "scene-centric must hold the invariant");
    assert!(device < 0.8, "device-centric must exhibit correlation bugs");
}
