//! E11 — sweep scaling (extension): one `dbox sweep` of eight seeds over
//! a 5,000-digi pool, run at `--jobs 1` and at `--jobs 0` (one worker per
//! core), each timed in-process through `digibox_cli::invoke`.
//!
//! The gate is the one CI's `cmp` steps check: both runs exit 0 and print
//! byte-identical reports. The wall times and the speedup are reported,
//! never asserted.

use std::path::Path;
use std::time::Instant;

use digibox_bench::report;

const SWEEP: &str = "sweep --seeds 1..8 --secs 10 --pool Occupancy:P:5000 --format json";

fn main() {
    let (serial_s, serial) = time_dbox(&format!("{SWEEP} --jobs 1"));
    let (parallel_s, parallel) = time_dbox(&format!("{SWEEP} --jobs 0"));
    assert_eq!(serial, parallel, "--jobs 1 and --jobs 0 printed different reports");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report(
        "E11 sweep scaling",
        &format!(
            "dbox {SWEEP}: cores={cores} jobs1={serial_s:.2}s jobs0={parallel_s:.2}s \
             speedup={:.2}x stdout identical ({} bytes)",
            serial_s / parallel_s,
            serial.len()
        ),
    );
}

/// Run `dbox <command>` in-process and return its wall time and stdout;
/// fails unless it exits 0.
fn time_dbox(command: &str) -> (f64, String) {
    let args: Vec<String> = command.split_whitespace().map(String::from).collect();
    let t = Instant::now();
    let out = digibox_cli::invoke(Path::new("."), &args);
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(out.code, 0, "dbox {command} exited {}:\n{}", out.code, out.stdout);
    (wall, out.stdout)
}
