//! The workloads. Each returns its report and the threads it used.

use crate::host::{self, peak_rss_mb};
use crate::ledger::{self, PATTERNS};
use crate::rigs::{check_against_reference, spec, Rigs};
use crate::Report;
use lbm_lattice::D3Q19;
use lbm_serve::Scenario;

pub const NAMES: [&str; 2] = ["duct-3d", "serve-open"];

pub type Run = fn(u64, f64, bool) -> (Report, usize);

pub fn find(name: &str) -> Option<Run> {
    match name {
        "duct-3d" => Some(duct_3d),
        "serve-open" => Some(crate::serve::serve_open),
        _ => None,
    }
}

/// D3Q19 duct, 70³ with walls on the four lateral faces: the lattice of
/// every solver rig, on one device here and sharded in `serve-open`.
pub const DUCT: Scenario = Scenario::Shear3D {
    nx: 70,
    ny: 70,
    nz: 70,
};

/// Every pattern on the duct on one device with all host threads. The
/// seed is ignored: the duct is deterministic.
fn duct_3d(_seed: u64, seconds: f64, trace: bool) -> (Report, usize) {
    let threads = host::nproc();
    let mut rigs = Rigs::build(PATTERNS.map(|p| spec(DUCT, p, 1)).to_vec(), threads);
    let mut r = Report::default();
    if !trace {
        rigs.run(seconds, false);
        let rss = peak_rss_mb();
        rigs.report_mflups(&mut r);
        rigs.report_latency(&mut r);
        r.metric("setup_s", rigs.setup_s, "s", rigs.rigs.len());
        r.metric("peak_rss_mb", rss, "MB", 1);
    } else {
        // First half untraced, then hubs attached for the second half.
        rigs.run(seconds / 2.0, false);
        rigs.attach_hubs();
        rigs.run(seconds / 2.0, true);
        ledger::solver_layers(&mut rigs, &mut r);
        ledger::no_fleet(&mut r);
        let overhead = ledger::solver_overhead(&rigs);
        r.metric("obs.overhead_frac", overhead, "ratio", 1);
        r.metric("bench.samples", rigs.pairs() as f64, "count", 1);
    }

    rigs.check_health(&mut r);
    rigs.check_twins(&mut r);
    check_against_reference::<D3Q19>(&mut r, &rigs.get("st").spec, threads, 1e-12);
    (r, threads)
}
