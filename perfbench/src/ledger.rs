//! The traced per-layer ledger: counters and spans the program already
//! emits, read back from each rig's hub, plus the benchmark's own timings
//! of calls into single layers (checkpoint codec, spec build, reference
//! solver).

use crate::rigs::{ms, Rig, Rigs};
use crate::stats::{median, self_time_by_name};
use crate::Report;
use gpu_sim::roofline;
use lbm_lattice::{Lattice, D2Q9, D3Q19};
use lbm_serve::{Pattern, Scenario};
use obs::Metric;
use std::time::Instant;

/// Every pattern the ledger reports, in report order.
pub const PATTERNS: [Pattern; 7] = [
    Pattern::St,
    Pattern::MrP,
    Pattern::MrR,
    Pattern::AaSt,
    Pattern::MrTwist,
    Pattern::SparseSt,
    Pattern::SparseMr,
];

/// Checkpoint/restore repetitions per rig (median reported).
const IO_REPS: usize = 3;

/// Sum of a counter over every label set.
fn counter_sum(rig: &Rig, name: &str) -> u64 {
    let hub = rig.hub.as_ref().expect("traced rig has a hub");
    hub.metrics
        .snapshot()
        .into_iter()
        .filter(|(k, _)| k.name == name)
        .map(|(_, m)| match m {
            Metric::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// The DRAM bytes per fluid update the byte model (Table 2 and the sparse
/// model) predicts for `rig`. Single-lattice patterns move the same bytes
/// per update as their two-lattice twins; only residency halves.
fn model_bytes_per_flup(rig: &Rig) -> f64 {
    let (q, m) = match rig.spec.scenario {
        Scenario::Shear3D { .. } => (D3Q19::Q, D3Q19::M),
        _ => (D2Q9::Q, D2Q9::M),
    };
    match rig.spec.pattern {
        Pattern::St | Pattern::AaSt => roofline::bytes_per_flup_st(q),
        Pattern::MrP | Pattern::MrR | Pattern::MrTwist => roofline::bytes_per_flup_mr(m),
        Pattern::SparseSt => roofline::bytes_per_flup_sparse_st(q),
        Pattern::SparseMr => roofline::bytes_per_flup_sparse_mr(m, q),
    }
}

/// Time `IO_REPS` checkpoint → restore round trips (outside any timed
/// window); returns median ms of each and the snapshot size.
fn time_io(rig: &mut Rig, r: &mut Report) -> (f64, f64, usize) {
    let (mut ck, mut rs, mut bytes) = (Vec::new(), Vec::new(), 0);
    for _ in 0..IO_REPS {
        let t = Instant::now();
        let snap = rig.sim.checkpoint();
        ck.push(ms(t));
        bytes = snap.len();
        let t = Instant::now();
        let ok = rig.sim.restore(&snap).is_ok();
        rs.push(ms(t));
        r.check(ok, || {
            format!("{}: restore of own checkpoint failed", rig.label)
        });
    }
    (
        median(&ck).expect("IO_REPS >= 1").value,
        median(&rs).expect("IO_REPS >= 1").value,
        bytes,
    )
}

/// Per-pattern layer metrics of traced rigs, and the `core.*` reference
/// floor on the first rig's geometry. Counts are checked against the byte
/// model: a traced single-device run whose DRAM ledger disagrees with
/// Table 2 or the sparse model fails.
pub fn solver_layers(rigs: &mut Rigs, r: &mut Report) {
    let reference = rigs.rigs[0].spec.clone();
    let nproc = rigs.threads;
    let reference_mflups = |threads| match reference.scenario {
        Scenario::Shear3D { .. } => crate::rigs::reference_mflups::<D3Q19>(&reference, threads, 3),
        _ => crate::rigs::reference_mflups::<D2Q9>(&reference, threads, 9),
    };
    let ref_1t = reference_mflups(1);
    let ref_nt = reference_mflups(nproc);
    r.metric("core.ref_mflups.1t", ref_1t, "flup/us", 1);
    r.metric("core.ref_mflups.nt", ref_nt, "flup/us", 1);

    for p in PATTERNS {
        let label = p.label();
        let Some(rig) = rigs.rigs.iter_mut().find(|g| g.label == label) else {
            panic!("workload has no {label} rig");
        };
        let steps = 2.0 * rig.traced_pair_ms.len() as f64;
        let fluid = rig.sim.fluid_nodes() as f64;
        let hub = rig.hub.clone().expect("traced rig has a hub");
        let by = self_time_by_name(&hub.tracer.events());
        let self_ms = |pred: &dyn Fn(&str) -> bool| -> f64 {
            let us: u64 = by.iter().filter(|(k, _)| pred(k)).map(|(_, us)| us).sum();
            us as f64 / 1e3 / steps
        };
        let bpf = counter_sum(rig, "dram_bytes") as f64 / (fluid * steps);
        // Sharded MR drivers, dense and sparse, also update their ghost
        // planes, so their ledger reads above the model (164.57 vs 160 B
        // on the sharded duct); every other rig must equal it exactly.
        let model = model_bytes_per_flup(rig);
        let ghosts =
            rig.spec.devices > 1 && matches!(p, Pattern::MrP | Pattern::MrR | Pattern::SparseMr);
        r.check(if ghosts { bpf > model } else { bpf == model }, || {
            format!("{label}: DRAM ledger {bpf} B/flup vs model {model}")
        });
        r.metric(format!("memory.dram_bytes_per_flup.{label}"), bpf, "B", 1);
        r.metric(
            format!("exec.launches_per_step.{label}"),
            counter_sum(rig, "launches") as f64 / steps,
            "count",
            1,
        );
        let n = rig.traced_pair_ms.len();
        r.metric(
            format!("exec.kernel_self_ms_per_step.{label}"),
            self_ms(&|k| k.starts_with("kernel/")),
            "ms",
            n,
        );
        r.metric(
            format!("exec.phase_ms_per_step.{label}"),
            self_ms(&|k| k == "phase/phase"),
            "ms",
            n,
        );
        r.metric(
            format!("pool.dispatch_self_ms_per_step.{label}"),
            self_ms(&|k| k == "pool/dispatch"),
            "ms",
            n,
        );
        r.metric(
            format!("driver.step_self_ms_per_step.{label}"),
            self_ms(&|k| k == "driver/step"),
            "ms",
            n,
        );
        r.metric(
            format!("halo.bytes_per_step.{label}"),
            counter_sum(rig, "link_transfer_bytes") as f64 / steps,
            "B",
            1,
        );
        r.metric(
            format!("halo.exchange_ms_per_step.{label}"),
            self_ms(&|k| k == "halo/halo-exchange"),
            "ms",
            n,
        );
        r.metric(
            format!("tax.{label}"),
            ref_nt / rig.mflups(false),
            "ratio",
            rig.samples(),
        );
        let (ck, rs, bytes) = time_io(rig, r);
        r.metric(format!("io.checkpoint_ms.{label}"), ck, "ms", IO_REPS);
        r.metric(format!("io.restore_ms.{label}"), rs, "ms", IO_REPS);
        r.metric(
            format!("io.checkpoint_bytes_per_node.{label}"),
            bytes as f64 / fluid,
            "B",
            1,
        );
        r.metric(
            format!("footprint.resident_bytes_per_node.{label}"),
            rig.sim.resident_bytes() as f64 / fluid,
            "B",
            1,
        );
        let b = median(&rig.build_ms).expect("rigs build at least once");
        r.metric(format!("spec.build_ms.{label}"), b.value, "ms", b.samples);
    }
}

/// Tracing overhead on the solver rigs: summed median traced pair time
/// over summed median untraced pair time, minus one.
pub fn solver_overhead(rigs: &Rigs) -> f64 {
    let sum = |traced: bool| -> f64 {
        rigs.rigs
            .iter()
            .map(|g| {
                let v = if traced {
                    &g.traced_pair_ms
                } else {
                    &g.pair_ms
                };
                median(v).expect("rigs ran").value
            })
            .sum()
    };
    sum(true) / sum(false) - 1.0
}

/// Fleet metrics a workload without a fleet reports as zero: no submits,
/// no queue, no slices, no generator.
pub fn no_fleet(r: &mut Report) {
    for (name, unit) in FLEET_LAYERS {
        r.metric(name, 0.0, unit, 0);
    }
}

/// The `serve.*` and generator layer metrics, in report order.
const FLEET_LAYERS: [(&str, &str); 13] = [
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p99", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.slice_ms.p50", "ms"),
    ("serve.resume_ms.p50", "ms"),
    ("serve.evict_ms.p50", "ms"),
    ("serve.evictions_per_job", "count"),
    ("serve.busy_frac", "ratio"),
    ("serve.interactive_ms.p99", "ms"),
    ("serve.batch_ms.p99", "ms"),
    ("bench.gen_lag_ms.p99", "ms"),
    ("bench.gen_lag_ms.max", "ms"),
];
