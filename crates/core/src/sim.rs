//! The driver surface shared by every GPU-substrate solver in the
//! workspace, and the one shell that implements it.
//!
//! [`Simulation`] is the object-safe surface that schedulers (`lbm-serve`),
//! the recovery loop (`lbm-multi::recovery`) and tests drive through a
//! `Box<dyn Simulation + Send>` without knowing a driver's pattern,
//! lattice, or sharding. No driver implements it by hand: each one embeds a
//! [`Shell`] and implements the [`Driver`] hooks — its kernel step,
//! macroscopic fields, checkpoint payload, footprint, and device
//! forwarding — and the single blanket `impl<T: Driver> Simulation for T`
//! below supplies the rest. The shell owns what is device-agnostic: the
//! step counter, the observability hub and fleet trace context, the
//! physics monitor and its published samples, the pattern label, and the
//! checkpoint header.
//!
//! Both traits live here, below `gpu-sim` in the crate graph: the orphan
//! rule only admits the blanket impl in the crate that defines
//! `Simulation`, and `lbm_core::Simulation` is the path consumers import.
//! Interconnect failures surface as the substrate-agnostic [`StepError`] —
//! a mirror of `gpu-sim`'s `LinkError` that this crate cannot name
//! directly.

use crate::geometry::Geometry;
use crate::io::{parity_flavor, CheckpointError, CheckpointReader, CheckpointWriter};
use obs::{MonitorConfig, MonitorSample, Obs, PhysicsMonitor, TraceCtx};
use std::sync::Arc;

/// Why a timestep could not complete. Single-device drivers never fail a
/// step; sharded drivers surface halo-exchange failures that outlasted the
/// driver's retry budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepError {
    /// A device-to-device transfer failed. Transient failures may succeed
    /// if the whole step is replayed; permanent ones never will.
    Link {
        from: usize,
        to: usize,
        permanent: bool,
    },
    /// The exchange schedule asked for a transfer between non-neighbors —
    /// a programming error, never retryable.
    NoRoute { from: usize, to: usize },
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Link {
                from,
                to,
                permanent,
            } => write!(
                f,
                "link {from}->{to} failed ({})",
                if *permanent { "permanent" } else { "transient" }
            ),
            StepError::NoRoute { from, to } => {
                write!(f, "no route between devices {from} and {to}")
            }
        }
    }
}

impl std::error::Error for StepError {}

/// The uniform driver surface: advance, snapshot, restore, fingerprint,
/// observe. Object-safe — schedulers hold `Box<dyn Simulation + Send>`.
///
/// Implementations must be *deterministic*: two identically configured
/// simulations advanced the same number of steps produce bitwise-identical
/// fields (and therefore equal [`Simulation::field_checksum`]s), regardless
/// of CPU thread counts or whether the run was interrupted by a
/// checkpoint/restore round trip. Every scheduler-level guarantee in
/// `lbm-serve` (eviction transparency, recovery transparency) rests on this
/// contract.
pub trait Simulation {
    /// Advance one timestep. Panics on unrecoverable interconnect failure;
    /// use [`Simulation::try_step`] where that must be handled.
    fn step(&mut self) {
        if let Err(e) = self.try_step() {
            panic!("halo exchange failed: {e}");
        }
    }

    /// Advance one timestep, surfacing halo failures that outlasted the
    /// driver's retry budget. Single-device drivers cannot fail. On `Err`
    /// the step counter has not advanced and the step can be replayed.
    fn try_step(&mut self) -> Result<(), StepError>;

    /// Advance `steps` timesteps, then force a final monitor sample so a
    /// run that ends off the sampling cadence still has its tail checked.
    fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
        self.finish_monitor();
    }

    /// Completed timesteps.
    fn steps(&self) -> u64;

    /// Serialize the full solver state as a versioned, checksummed LBCK
    /// snapshot (lattice, step counter, traffic accumulator).
    fn checkpoint(&self) -> Vec<u8>;

    /// Restore a [`Simulation::checkpoint`] snapshot taken on an
    /// identically configured simulation; rolls the physics monitor back
    /// too. Resuming replays the exact uninterrupted trajectory.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError>;

    /// FNV-1a fingerprint of the macroscopic fields (bitwise-sensitive; two
    /// runs match iff their fields are identical to the last bit).
    fn field_checksum(&self) -> u64 {
        let (rho, u) = self.macro_fields();
        crate::io::field_checksum(&rho, &u)
    }

    /// Density and velocity fields over the global domain, in one pass
    /// (solid nodes report zero). This is what the physics monitor samples.
    fn macro_fields(&self) -> (Vec<f64>, Vec<[f64; 3]>);

    /// Velocity field (solid nodes report zero).
    fn velocity_field(&self) -> Vec<[f64; 3]> {
        self.macro_fields().1
    }

    /// Density field (solid nodes report zero).
    fn density_field(&self) -> Vec<f64> {
        self.macro_fields().0
    }

    /// Attach an observability hub: step spans, kernel spans, and launch
    /// metrics flow through it from this point on.
    fn set_obs(&mut self, obs: Arc<Obs>);

    /// Builder-style [`Simulation::set_obs`].
    fn with_obs(mut self, obs: Arc<Obs>) -> Self
    where
        Self: Sized,
    {
        self.set_obs(obs);
        self
    }

    /// Attach (or clear) the fleet trace context: the job identity the
    /// scheduler assigned this simulation. Step, halo, and kernel spans
    /// carry its args from now on, so one job's spans are filterable
    /// across executors, evictions, and resumes. Pure annotation — never
    /// affects stepping, tallies, or checksums.
    fn set_trace_ctx(&mut self, ctx: Option<TraceCtx>);

    /// Attach a physics monitor sampling the global macroscopic fields
    /// every `cfg.cadence` steps (mass/momentum/max-|u|/NaN guards).
    fn with_monitor(self, cfg: MonitorConfig) -> Self
    where
        Self: Sized;

    /// The attached physics monitor, if any.
    fn monitor(&self) -> Option<&PhysicsMonitor>;

    /// Whether the attached physics monitor (if any) has no violations.
    fn monitor_ok(&self) -> bool {
        self.monitor().is_none_or(|m| m.is_ok())
    }

    /// Force a final monitor sample at the current step (no-op without a
    /// monitor, or when the last step was already sampled). The flushed
    /// sample is published to the hub like any cadence sample, so monitor
    /// series stay gap-free across run ends *and* fleet evictions.
    fn finish_monitor(&mut self);

    /// Halo-transfer retries performed so far (0 for single-device).
    fn halo_retries(&self) -> u64;

    /// Fluid lattice nodes — the unit of MFLUPS throughput and of
    /// per-tenant residency quotas.
    fn fluid_nodes(&self) -> usize;

    /// Device-memory footprint of the resident lattices, in bytes.
    fn footprint_bytes(&self) -> usize;

    /// Resident device bytes this simulation holds for quota purposes —
    /// the number the `lbm-serve` ledger charges a tenant. Single-lattice
    /// (in-place) drivers report exactly `Q·8·n` / `M·8·n` here, half of
    /// their two-lattice counterparts.
    fn resident_bytes(&self) -> usize {
        self.footprint_bytes()
    }

    /// Health probe: every sampled field value finite and no standing
    /// monitor violation.
    fn is_healthy(&self) -> bool {
        if !self.monitor_ok() {
            return false;
        }
        let (rho, u) = self.macro_fields();
        rho.iter().all(|v| v.is_finite()) && u.iter().flatten().all(|v| v.is_finite())
    }
}

/// Device-agnostic driver state, embedded in every driver: completed
/// steps, the observability hub and fleet trace context, the physics
/// monitor, and the pattern label that names the driver in monitor gauges
/// (`pattern` label) and checkpoint flavors.
pub struct Shell {
    steps: u64,
    obs: Option<Arc<Obs>>,
    trace: Option<TraceCtx>,
    monitor: Option<PhysicsMonitor>,
    pattern: &'static str,
    parity_tagged: bool,
}

impl Shell {
    /// The shell of a driver labelled `pattern` (`"st"`, `"multi-mr2d"`, …).
    pub fn new(pattern: &'static str) -> Self {
        Shell {
            steps: 0,
            obs: None,
            trace: None,
            monitor: None,
            pattern,
            parity_tagged: false,
        }
    }

    /// The shell of an in-place driver whose storage layout depends on the
    /// step parity: its checkpoint flavor carries the parity
    /// (`"aa-st+odd"`), so a restore can only land on the matching half of
    /// the two-step cycle.
    pub fn in_place(pattern: &'static str) -> Self {
        Shell {
            parity_tagged: true,
            ..Shell::new(pattern)
        }
    }

    /// Switch to an in-place (parity-tagged) storage variant labelled
    /// `pattern` — a configuration builder such as the MR twist, before
    /// the first step.
    pub fn set_in_place(&mut self, pattern: &'static str) {
        self.pattern = pattern;
        self.parity_tagged = true;
    }

    /// The pattern label (monitor gauges, checkpoint flavor).
    pub fn pattern(&self) -> &'static str {
        self.pattern
    }

    /// Completed timesteps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Restart the step counter (a driver's `init_with`).
    pub fn reset_steps(&mut self) {
        self.steps = 0;
    }

    /// Open a span carrying the fleet trace context's args, or `None`
    /// without a hub (sharded drivers' `halo-exchange` spans).
    pub fn span(&self, cat: &str, name: &str) -> Option<obs::Span<'_>> {
        let o = self.obs.as_ref()?;
        let args = self.trace.as_ref().map(TraceCtx::args).unwrap_or_default();
        Some(o.tracer.span_args(cat, name, &args))
    }

    /// Publish a monitor sample's gauges under this driver's pattern label;
    /// returns the hub for the caller's trace instant.
    fn publish(&self, s: &MonitorSample) -> Option<&Obs> {
        let o = self.obs.as_deref()?;
        let labels = [("pattern", self.pattern)];
        o.metrics.gauge_set("monitor_mass", &labels, s.mass);
        o.metrics.gauge_set("monitor_max_u", &labels, s.max_u);
        Some(o)
    }

    /// Checkpoint flavor at step `steps`.
    fn flavor(&self, steps: u64) -> String {
        if self.parity_tagged {
            parity_flavor(self.pattern, steps)
        } else {
            self.pattern.to_string()
        }
    }

    /// Validate a snapshot's framing, flavor, and shell header against
    /// this driver; returns the payload reader and the stored step count.
    fn open<'a>(
        &self,
        bytes: &'a [u8],
        geom: &Geometry,
    ) -> Result<(CheckpointReader<'a>, u64), CheckpointError> {
        let (even, odd) = (self.flavor(0), self.flavor(1));
        let (mut r, parity) = CheckpointReader::open_any(bytes, &[&even, &odd])?;
        r.expect_u64(geom.nx as u64, "nx")?;
        r.expect_u64(geom.ny as u64, "ny")?;
        r.expect_u64(geom.nz as u64, "nz")?;
        let steps = r.take_u64()?;
        if self.parity_tagged && steps % 2 != parity as u64 {
            return Err(CheckpointError::Mismatch(format!(
                "flavor parity ({}) disagrees with stored step counter {steps}",
                if parity == 0 { "even" } else { "odd" }
            )));
        }
        Ok((r, steps))
    }
}

/// The per-driver half of a simulation: everything that depends on the
/// device, storage, or propagation pattern. Implementing it (plus
/// embedding a [`Shell`]) makes a type a [`Simulation`].
///
/// Hook names deliberately avoid the [`Simulation`] method names, so both
/// traits can be in scope at every call site without ambiguity.
pub trait Driver {
    /// The embedded shell.
    fn shell(&self) -> &Shell;

    /// The embedded shell, mutably.
    fn shell_mut(&mut self) -> &mut Shell;

    /// The global domain geometry (its fluid count is the MFLUPS and quota
    /// unit; its dimensions head every checkpoint).
    fn geom(&self) -> &Geometry;

    /// Run one timestep's launches and halo exchanges. The shell wraps it
    /// in the `driver`/`step` span, counts the step on `Ok`, and samples
    /// the monitor. On `Err` the driver must leave its state replayable:
    /// a later call redoes (or finishes) the same step.
    fn advance(&mut self) -> Result<(), StepError>;

    /// Density and velocity over the global domain (solid nodes zero).
    fn gather_fields(&self) -> (Vec<f64>, Vec<[f64; 3]>);

    /// Append the driver's checkpoint payload (configuration guards,
    /// accumulators, raw lattice words) after the shell's header.
    fn write_state(&self, w: &mut CheckpointWriter);

    /// Read back exactly what [`Driver::write_state`] wrote.
    fn read_state(&mut self, r: &mut CheckpointReader) -> Result<(), CheckpointError>;

    /// Device bytes of the resident lattices (and link tables).
    fn lattice_bytes(&self) -> usize;

    /// Forward the hub to the device(s), which nest kernel spans and
    /// publish launch and link metrics under it.
    fn attach_obs(&mut self, obs: Arc<Obs>);

    /// Forward the fleet trace context to the device(s).
    fn attach_trace_ctx(&mut self, ctx: Option<TraceCtx>);

    /// Halo-transfer retries performed so far (sharded drivers).
    fn link_retries(&self) -> u64 {
        0
    }
}

impl<T: Driver> Simulation for T {
    fn try_step(&mut self) -> Result<(), StepError> {
        let sh = self.shell();
        let obs = sh.obs.clone();
        let _span = obs.as_ref().map(|o| {
            let mut args = vec![("t", sh.steps.to_string())];
            if let Some(ctx) = &sh.trace {
                ctx.append_args(&mut args);
            }
            o.tracer.span_args("driver", "step", &args)
        });
        self.advance()?;
        self.shell_mut().steps += 1;
        let t = self.shell().steps;
        if !self.shell().monitor.as_ref().is_some_and(|m| m.due(t)) {
            return Ok(());
        }
        let (rho, u) = self.gather_fields();
        let sh = self.shell_mut();
        let m = sh.monitor.as_mut().expect("a due sample has a monitor");
        let s = m.observe(t, &rho, &u);
        if let Some(o) = sh.publish(&s) {
            if s.nonfinite > 0 {
                o.tracer.instant(
                    "monitor",
                    "nonfinite",
                    &[
                        ("step", s.step.to_string()),
                        ("count", s.nonfinite.to_string()),
                    ],
                );
            }
        }
        Ok(())
    }

    fn steps(&self) -> u64 {
        self.shell().steps
    }

    fn checkpoint(&self) -> Vec<u8> {
        let (sh, g) = (self.shell(), self.geom());
        let mut w = CheckpointWriter::new(&sh.flavor(sh.steps));
        w.put_u64(g.nx as u64)
            .put_u64(g.ny as u64)
            .put_u64(g.nz as u64)
            .put_u64(sh.steps);
        self.write_state(&mut w);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let (mut r, steps) = self.shell().open(bytes, self.geom())?;
        self.read_state(&mut r)?;
        let sh = self.shell_mut();
        sh.steps = steps;
        if let Some(m) = sh.monitor.as_mut() {
            m.rollback_to(steps);
        }
        Ok(())
    }

    fn macro_fields(&self) -> (Vec<f64>, Vec<[f64; 3]>) {
        self.gather_fields()
    }

    fn set_obs(&mut self, obs: Arc<Obs>) {
        self.attach_obs(obs.clone());
        self.shell_mut().obs = Some(obs);
    }

    fn set_trace_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.attach_trace_ctx(ctx.clone());
        self.shell_mut().trace = ctx;
    }

    fn with_monitor(mut self, cfg: MonitorConfig) -> Self {
        self.shell_mut().monitor = Some(PhysicsMonitor::new(cfg));
        self
    }

    fn monitor(&self) -> Option<&PhysicsMonitor> {
        self.shell().monitor.as_ref()
    }

    fn finish_monitor(&mut self) {
        if self.shell().monitor.is_none() {
            return;
        }
        let (rho, u) = self.gather_fields();
        let sh = self.shell_mut();
        let t = sh.steps;
        let m = sh.monitor.as_mut().expect("checked above");
        let Some(s) = m.finish(t, &rho, &u) else {
            return;
        };
        if let Some(o) = sh.publish(&s) {
            o.tracer
                .instant("monitor", "flush", &[("step", s.step.to_string())]);
        }
    }

    fn halo_retries(&self) -> u64 {
        self.link_retries()
    }

    fn fluid_nodes(&self) -> usize {
        self.geom().fluid_count()
    }

    fn footprint_bytes(&self) -> usize {
        self.lattice_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_error_displays_both_variants() {
        let e = StepError::Link {
            from: 0,
            to: 1,
            permanent: true,
        };
        assert_eq!(e.to_string(), "link 0->1 failed (permanent)");
        let e = StepError::NoRoute { from: 2, to: 0 };
        assert_eq!(e.to_string(), "no route between devices 2 and 0");
    }
}
