//! Solver rigs: one driver per propagation pattern, built through
//! `JobSpec::build` and driven through the `Simulation` trait, timed one
//! whole even+odd step pair at a time, round by round.

use crate::stats::median;
use crate::Report;
use lbm_core::collision::Bgk;
use lbm_core::{Simulation, Solver};
use lbm_lattice::Lattice;
use lbm_serve::{JobSpec, Pattern, Priority, Scenario};
use obs::Obs;
use std::sync::Arc;
use std::time::Instant;

/// Builds per pattern during set-up; `spec.build_ms` is their median and
/// the last one is kept.
const BUILDS: usize = 3;
/// Rounds every timed window runs, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Relaxation time of every solver workload.
const TAU: f64 = 0.8;
/// Largest relative drift of total mass a conserving run may show.
const MASS_DRIFT: f64 = 1e-10;

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The spec a rig builds: single tenant, fixed physics.
pub fn spec(scenario: Scenario, pattern: Pattern, devices: usize) -> JobSpec {
    JobSpec {
        tenant: "bench".into(),
        priority: Priority::Batch,
        scenario,
        pattern,
        tau: TAU,
        steps: 1,
        devices,
        resilient: false,
        fault_plan: None,
        monitor: None,
    }
}

pub struct Rig {
    pub label: &'static str,
    pub spec: JobSpec,
    pub sim: Box<dyn Simulation + Send>,
    pub build_ms: Vec<f64>,
    /// The untimed first step pair after the build.
    warmup_ms: f64,
    mass0: f64,
    /// Untraced step-pair wall times.
    pub pair_ms: Vec<f64>,
    /// Step-pair wall times with the hub attached.
    pub traced_pair_ms: Vec<f64>,
    /// Observability hub, attached for the traced half of a `--trace 1`
    /// run; its counters cover only `traced_pair_ms.len()` pairs.
    pub hub: Option<Arc<Obs>>,
}

impl Rig {
    /// Fluid updates per microsecond over the median pair.
    pub fn mflups(&self, traced: bool) -> f64 {
        let pairs = if traced {
            &self.traced_pair_ms
        } else {
            &self.pair_ms
        };
        let m = median(pairs)
            .expect("every rig runs MIN_ROUNDS pairs")
            .value;
        2.0 * self.sim.fluid_nodes() as f64 / (m * 1e3)
    }

    pub fn samples(&self) -> usize {
        self.pair_ms.len()
    }
}

fn mass(sim: &dyn Simulation) -> f64 {
    sim.macro_fields().0.iter().sum()
}

pub struct Rigs {
    pub rigs: Vec<Rig>,
    pub threads: usize,
    /// Set-up cost of one pass over the rigs: per rig, the median build
    /// (geometry, compaction, allocation, `init_with`) plus its warm-up
    /// step pair.
    pub setup_s: f64,
    /// Untraced wall time of each whole round (every rig one pair).
    round_ms: Vec<f64>,
    /// Rounds run so far, over every window: the rotation continues
    /// across windows.
    rounds: usize,
}

impl Rigs {
    /// Build every spec `BUILDS` times (keeping the last) and run one
    /// untimed warm-up step pair on it.
    pub fn build(specs: Vec<JobSpec>, threads: usize) -> Self {
        let rigs: Vec<Rig> = specs
            .into_iter()
            .map(|spec| {
                spec.validate().expect("benchmark specs are valid");
                let mut build_ms = Vec::new();
                let mut sim = None;
                for _ in 0..BUILDS {
                    drop(sim.take());
                    let t = Instant::now();
                    sim = Some(spec.build(threads));
                    build_ms.push(ms(t));
                }
                let mut sim = sim.expect("BUILDS >= 1");
                let mass0 = mass(&*sim);
                let t = Instant::now();
                sim.step();
                sim.step();
                let warmup_ms = ms(t);
                Rig {
                    label: spec.pattern.label(),
                    spec,
                    sim,
                    build_ms,
                    warmup_ms,
                    mass0,
                    pair_ms: Vec::new(),
                    traced_pair_ms: Vec::new(),
                    hub: None,
                }
            })
            .collect();
        let setup_ms: f64 = rigs
            .iter()
            .map(|g| median(&g.build_ms).expect("BUILDS >= 1").value + g.warmup_ms)
            .sum();
        Rigs {
            rigs,
            threads,
            setup_s: setup_ms / 1e3,
            round_ms: Vec::new(),
            rounds: 0,
        }
    }

    /// Timed rounds for `seconds` (at least `MIN_ROUNDS`): each round steps
    /// every rig one even+odd pair, starting one rig later than the round
    /// before, so no pattern always runs first.
    pub fn run(&mut self, seconds: f64, traced: bool) {
        let t0 = Instant::now();
        let n = self.rigs.len();
        let mut round = 0;
        while round < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
            let tr = Instant::now();
            for j in 0..n {
                let rig = &mut self.rigs[(self.rounds + j) % n];
                let span = rig
                    .hub
                    .as_ref()
                    .filter(|_| traced)
                    .map(|h| h.tracer.span("bench", "pair"));
                let t = Instant::now();
                rig.sim.step();
                rig.sim.step();
                let dt = ms(t);
                drop(span);
                if traced {
                    rig.traced_pair_ms.push(dt);
                } else {
                    rig.pair_ms.push(dt);
                }
            }
            if !traced {
                self.round_ms.push(ms(tr));
            }
            round += 1;
            self.rounds += 1;
        }
    }

    /// Give every rig its own hub, so counters and spans attribute to one
    /// pattern without label filtering.
    pub fn attach_hubs(&mut self) {
        for rig in &mut self.rigs {
            let hub = Obs::shared();
            rig.sim.set_obs(hub.clone());
            rig.hub = Some(hub);
        }
    }

    /// Step pairs timed so far, traced or not.
    pub fn pairs(&self) -> usize {
        self.rigs
            .iter()
            .map(|g| g.pair_ms.len() + g.traced_pair_ms.len())
            .sum()
    }

    pub fn get(&self, label: &str) -> &Rig {
        self.rigs
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("no {label} rig"))
    }

    /// `mflups.<p>` for every rig.
    pub fn report_mflups(&self, r: &mut Report) {
        for rig in &self.rigs {
            r.metric(
                format!("mflups.{}", rig.label),
                rig.mflups(false),
                "flup/us",
                rig.samples(),
            );
        }
    }

    /// The solver workloads' latency pair: the median request (one
    /// pattern's step pair, pooled over patterns) and the median batch of
    /// requests (one whole round).
    pub fn report_latency(&self, r: &mut Report) {
        let pooled: Vec<f64> = self
            .rigs
            .iter()
            .flat_map(|g| g.pair_ms.iter().copied())
            .collect();
        let p = median(&pooled).expect("rigs ran");
        r.metric("interactive_ms.p50", p.value, "ms", p.samples);
        let b = median(&self.round_ms).expect("rigs ran");
        r.metric("batch_ms.p50", b.value, "ms", b.samples);
    }

    /// Every rig is finite, conserves mass, and sits at the same even step.
    pub fn check_health(&self, r: &mut Report) {
        let steps = self.rigs[0].sim.steps();
        for rig in &self.rigs {
            let (rho, u) = rig.sim.macro_fields();
            let finite =
                rho.iter().all(|v| v.is_finite()) && u.iter().flatten().all(|v| v.is_finite());
            r.check(finite, || format!("{}: non-finite field", rig.label));
            let drift = (rho.iter().sum::<f64>() - rig.mass0).abs() / rig.mass0;
            r.check(drift <= MASS_DRIFT, || {
                format!(
                    "{}: relative mass drift {drift:e} > {MASS_DRIFT:e}",
                    rig.label
                )
            });
            r.check(rig.sim.steps() == steps && steps.is_multiple_of(2), || {
                format!(
                    "{}: at step {} (expected even {steps})",
                    rig.label,
                    rig.sim.steps()
                )
            });
            r.check(rig.sim.halo_retries() == 0, || {
                format!("{}: {} halo retries", rig.label, rig.sim.halo_retries())
            });
        }
    }

    /// In-place and compacted patterns are bitwise twins of their dense
    /// two-lattice counterparts at every even step, sharded or not (the
    /// duct has no solid nodes, so compaction drops none): each pair ends
    /// on the same field checksum.
    pub fn check_twins(&self, r: &mut Report) {
        for (a, b) in [
            ("aa-st", "st"),
            ("mr-twist", "mr-p"),
            ("sparse-st", "st"),
            ("sparse-mr", "mr-p"),
        ] {
            let (ca, cb) = (
                self.get(a).sim.field_checksum(),
                self.get(b).sim.field_checksum(),
            );
            r.check(ca == cb, || format!("{a} FNV {ca:#x} != {b} FNV {cb:#x}"));
        }
    }
}

/// The plain CPU reference solver on `spec`'s geometry, initialised like
/// every driver.
fn reference<L: Lattice>(spec: &JobSpec, threads: usize) -> Solver<L, Bgk> {
    let mut s =
        Solver::<L, Bgk>::new(spec.scenario.geometry(), Bgk::new(spec.tau)).with_threads(threads);
    s.init_with(JobSpec::init);
    s
}

/// Reference-solver fluid updates per microsecond over the median of
/// `pairs` step pairs (after one warm-up pair).
pub fn reference_mflups<L: Lattice>(spec: &JobSpec, threads: usize, pairs: usize) -> f64 {
    let mut s = reference::<L>(spec, threads);
    s.step();
    s.step();
    let times: Vec<f64> = (0..pairs)
        .map(|_| {
            let t = Instant::now();
            s.step();
            s.step();
            ms(t)
        })
        .collect();
    let fluid = spec.scenario.geometry().fluid_count();
    2.0 * fluid as f64 / (median(&times).expect("pairs >= 1").value * 1e3)
}

/// Steps of the short trajectories the cross-checks replay on fresh builds
/// after the timed window: enough for several halo exchanges and both
/// parities, and independent of `--seconds`.
pub const CHECK_STEPS: u64 = 4;

/// A fresh build of `spec`, stepped `CHECK_STEPS` times.
pub fn short_run(spec: &JobSpec, threads: usize) -> Box<dyn Simulation + Send> {
    let mut sim = spec.build(threads);
    for _ in 0..CHECK_STEPS {
        sim.step();
    }
    sim
}

/// A fresh build of `spec` keeps its velocity field within `tol` of the
/// reference solver over `CHECK_STEPS` steps.
pub fn check_against_reference<L: Lattice>(
    r: &mut Report,
    spec: &JobSpec,
    threads: usize,
    tol: f64,
) {
    let sim = short_run(spec, threads);
    let mut s = reference::<L>(spec, threads);
    s.run(CHECK_STEPS as usize);
    let (_, u) = sim.macro_fields();
    let dev = s
        .velocity_field()
        .iter()
        .zip(&u)
        .flat_map(|(a, b)| (0..3).map(move |k| (a[k] - b[k]).abs()))
        .fold(0.0f64, f64::max);
    r.check(dev <= tol, || {
        format!(
            "{}: max |u - u_ref| = {dev:e} > {tol:e}",
            spec.pattern.label()
        )
    });
}
