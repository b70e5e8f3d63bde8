//! Multi-device 3D MR: slab sharding along `x` with moment-space halo
//! exchange (`M·8` = 80 bytes per D3Q19 halo node vs ST's `Q·8` = 152).
//!
//! Same design as [`crate::mr2d`]: per-shard double-buffered shift-0
//! moment lattices (the in-place circular shift is only safe when the
//! whole step is one lockstep launch), column footprints partitioned into
//! edge strips and interior, two-phase overlap schedule.

use crate::decomp::SlabDecomp;
use crate::mr2d::MrShard;
use crate::recovery::{link_error_from_step, transfer_with_retry, HaloRetryPolicy};
use crate::st::check_boundary_widths;
use crate::stats::{device_time_s, exchange_time_s, OverlapStats};
use gpu_sim::interconnect::{LinkError, MultiGpu};
use gpu_sim::{DeviceSpec, FaultPlan};
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::io::{CheckpointError, CheckpointReader, CheckpointWriter};
use lbm_core::kernels::KernelConsts;
use lbm_core::sim::{Driver, Shell, Simulation, StepError};
use lbm_gpu::boundary::boundary_nodes;
use lbm_gpu::moment_lattice::MomentLattice;
use lbm_gpu::mr2d::launch_mr_bc;
use lbm_gpu::mr3d::{launch_mr3d_columns, pick_column_footprint};
use lbm_gpu::scheme::MrScheme;
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Mr3dShard {
    geom: Geometry,
    /// Interior fast-scatter eligibility over the local geometry (see
    /// `lbm_gpu::boundary::bulk_mask`).
    bulk: Vec<bool>,
    mom: [MomentLattice; 2],
    cur: usize,
    boundary: Vec<(usize, usize, usize)>,
    /// Footprint origins of the edge strips (x-range touches a cut).
    strip_cols: Vec<(usize, usize)>,
    /// Remaining owned footprint origins.
    interior_cols: Vec<(usize, usize)>,
    wx: usize,
    wy: usize,
}

/// Slab-sharded 3D MR simulation (MR-P or MR-R) across N devices.
pub struct MultiMrSim3D<L: Lattice> {
    shell: Shell,
    mg: MultiGpu,
    decomp: SlabDecomp,
    shards: Vec<Mr3dShard>,
    scheme: MrScheme,
    tau: f64,
    consts: KernelConsts,
    stats: OverlapStats,
    retry: HaloRetryPolicy,
    halo_retries: AtomicU64,
    _l: PhantomData<L>,
}

impl<L: Lattice> MultiMrSim3D<L> {
    /// Shard a duct-type geometry (walls on the y and z extreme faces)
    /// across `n` devices. Initialized to equilibrium at rest.
    pub fn new(device: DeviceSpec, geom: Geometry, scheme: MrScheme, tau: f64, n: usize) -> Self {
        assert!(geom.nz > 1, "MultiMrSim3D requires a 3D domain");
        assert_eq!(
            L::REACH,
            1,
            "the MR sliding window requires unit streaming reach"
        );
        assert!(
            !geom.periodic[1] && !geom.periodic[2],
            "MR requires wall-terminated y and z faces"
        );
        for y in 0..geom.ny {
            for x in 0..geom.nx {
                assert!(
                    geom.node(x, y, 0).is_solid() && geom.node(x, y, geom.nz - 1).is_solid(),
                    "MR requires walls at z = 0 and z = nz−1"
                );
            }
        }
        for z in 0..geom.nz {
            for x in 0..geom.nx {
                assert!(
                    geom.node(x, 0, z).is_solid() && geom.node(x, geom.ny - 1, z).is_solid(),
                    "MR requires walls at y = 0 and y = ny−1"
                );
            }
        }
        let decomp = SlabDecomp::new(geom, n);
        check_boundary_widths(&decomp);
        let mg = MultiGpu::ring(device.clone(), n);
        let shards = (0..n)
            .map(|r| {
                let g = decomp.local_geometry(r);
                let s = decomp.slab(r);
                let (wx, wy) = pick_column_footprint::<L>(&device, s.width, g.ny, 0, 0);
                let x_origins: Vec<usize> =
                    (0..s.width / wx).map(|k| s.owned_lo() + k * wx).collect();
                let (strip_x, interior_x) = if n == 1 {
                    (Vec::new(), x_origins)
                } else {
                    MrShard::partition(x_origins, s.ghost_l, s.ghost_r)
                };
                let with_y = |xs: &[usize]| -> Vec<(usize, usize)> {
                    xs.iter()
                        .flat_map(|&x0| (0..g.ny / wy).map(move |j| (x0, j * wy)))
                        .collect()
                };
                let ln = g.len();
                let boundary = boundary_nodes(&g);
                let bulk = lbm_gpu::boundary::bulk_mask::<L>(&g);
                Mr3dShard {
                    bulk,
                    mom: [
                        MomentLattice::new(ln, L::M, 0, 0).with_touch_tracking(),
                        MomentLattice::new(ln, L::M, 0, 0).with_touch_tracking(),
                    ],
                    cur: 0,
                    boundary,
                    strip_cols: with_y(&strip_x),
                    interior_cols: with_y(&interior_x),
                    wx,
                    wy,
                    geom: g,
                }
            })
            .collect();
        let mut sim = MultiMrSim3D {
            shell: Shell::new("multi-mr3d"),
            mg,
            decomp,
            shards,
            scheme,
            tau,
            consts: KernelConsts::new::<L>(tau),
            stats: OverlapStats::default(),
            retry: HaloRetryPolicy::default(),
            halo_retries: AtomicU64::new(0),
            _l: PhantomData,
        };
        sim.init_with(|_, _, _| (1.0, [0.0; 3]));
        sim
    }

    /// Limit each device's CPU worker threads.
    pub fn with_cpu_threads(mut self, n: usize) -> Self {
        self.mg = self.mg.with_cpu_threads(n);
        self
    }

    /// Force the scalar (per-node) reference kernels instead of the
    /// chunk-vectorized ones — the equivalence-test oracle.
    pub fn with_scalar_kernels(mut self) -> Self {
        self.consts.scalar = true;
        self
    }

    /// Override the minimum launch size dispatched to the worker pool
    /// (see `gpu_sim::Gpu::with_parallel_threshold`); `0` forces pooling
    /// for every multi-block launch.
    pub fn with_parallel_threshold(mut self, items: usize) -> Self {
        self.mg = self.mg.with_parallel_threshold(items);
        self
    }

    /// Mirror link traffic into a shared profiler.
    pub fn with_profiler(mut self, p: std::sync::Arc<gpu_sim::profiler::Profiler>) -> Self {
        self.mg = self.mg.with_profiler(p);
        self
    }

    /// Override the halo-transfer retry policy.
    pub fn with_halo_retry(mut self, policy: HaloRetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Attach a deterministic fault plan to every device, every shard's
    /// moment lattices, and the interconnect.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.mg.set_fault_plan(plan.clone());
        for sh in &mut self.shards {
            sh.mom[0].set_fault_plan(plan.clone());
            sh.mom[1].set_fault_plan(plan.clone());
        }
        self
    }

    /// Initialize every node — including ghosts — from a macroscopic field
    /// at **global** coordinates (no initial exchange needed).
    pub fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
        for (r, sh) in self.shards.iter_mut().enumerate() {
            sh.cur = 0;
            for idx in 0..sh.geom.len() {
                let (lx, y, z) = sh.geom.coords(idx);
                let gx = self.decomp.global_x(r, lx);
                let (rho, u) = match sh.geom.node_at(idx) {
                    NodeType::Inlet(u_bc) => (field(gx, y, z).0, u_bc),
                    NodeType::Outlet(rho_bc) => (rho_bc, field(gx, y, z).1),
                    _ => field(gx, y, z),
                };
                let m = Moments {
                    rho,
                    u,
                    pi: Moments::pi_eq(rho, u, L::D),
                };
                sh.mom[0].set_moments::<L>(0, idx, &m);
            }
        }
        self.shell.reset_steps();
        self.stats = OverlapStats::default();
    }

    /// [`Simulation::try_step`], surfacing the substrate's typed
    /// [`LinkError`].
    pub fn try_step(&mut self) -> Result<(), LinkError> {
        Simulation::try_step(self).map_err(link_error_from_step)
    }

    /// Moment-space halo exchange across every cut. The link tally is
    /// recorded (with bounded retries on transient link faults) *before*
    /// the copy: a failed transfer moves no data and records no bytes, so
    /// a successful retry tallies exactly once.
    fn exchange(&self) -> Result<Vec<(usize, usize, u64)>, StepError> {
        let t_next = self.shell.steps() + 1;
        let mut out = Vec::new();
        for tr in self.decomp.halo_transfers() {
            let bytes = (self.decomp.column_fluid_count(tr.gx) * L::M * 8) as u64;
            transfer_with_retry(
                &self.mg,
                tr.from,
                tr.to,
                bytes,
                &self.retry,
                &self.halo_retries,
            )?;
            let (src, dst) = (&self.shards[tr.from], &self.shards[tr.to]);
            let (sm, dm) = (&src.mom[src.cur ^ 1], &dst.mom[dst.cur ^ 1]);
            for z in 0..src.geom.nz {
                for y in 0..src.geom.ny {
                    if !src.geom.node(tr.src_lx, y, z).is_fluid_like() {
                        continue;
                    }
                    let si = src.geom.idx(tr.src_lx, y, z);
                    let di = dst.geom.idx(tr.dst_lx, y, z);
                    let m = sm.get_moments::<L>(t_next, si);
                    dm.set_moments::<L>(t_next, di, &m);
                }
            }
            out.push((tr.from, tr.to, bytes));
        }
        Ok(out)
    }

    /// The interconnect (link byte counters, report).
    pub fn interconnect(&self) -> &MultiGpu {
        &self.mg
    }

    /// Modeled overlap-schedule timing.
    pub fn stats(&self) -> &OverlapStats {
        &self.stats
    }

    /// Analytic per-step halo traffic: fluid-like halo nodes × `M·8`.
    pub fn halo_bytes_per_step(&self) -> u64 {
        (self.decomp.halo_nodes_per_step() * L::M * 8) as u64
    }

    /// Moments at a global node (owner shard, current time).
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        let r = self.decomp.owner_of(x);
        let sh = &self.shards[r];
        let lx = self.decomp.slab(r).owned_lo() + (x - self.decomp.slab(r).x0);
        sh.mom[sh.cur].get_moments::<L>(self.shell.steps(), sh.geom.idx(lx, y, z))
    }
}

impl<L: Lattice> Driver for MultiMrSim3D<L> {
    fn shell(&self) -> &Shell {
        &self.shell
    }

    fn shell_mut(&mut self) -> &mut Shell {
        &mut self.shell
    }

    fn geom(&self) -> &Geometry {
        self.decomp.global()
    }

    /// The two-phase overlap schedule. On `Err` no state has advanced
    /// (the buffer parity is unchanged) — the
    /// completed edge-strip launches are idempotent and a later retry of
    /// the whole step recomputes them bitwise-identically.
    fn advance(&mut self) -> Result<(), StepError> {
        let t = self.shell.steps();
        let n_sh = self.shards.len();
        let mut boundary_bytes = vec![0u64; n_sh];
        let mut interior_bytes = vec![0u64; n_sh];
        let mut bc_bytes = vec![0u64; n_sh];

        for (r, sh) in self.shards.iter().enumerate() {
            if !sh.strip_cols.is_empty() {
                let stats = launch_mr3d_columns::<L>(
                    self.mg.device(r),
                    &sh.mom[sh.cur],
                    &sh.mom[sh.cur ^ 1],
                    &sh.geom,
                    &self.scheme,
                    &self.consts,
                    &sh.bulk,
                    t,
                    sh.wx,
                    sh.wy,
                    &sh.strip_cols,
                );
                boundary_bytes[r] += stats.tally.dram_bytes();
            }
        }

        let halo_span = self.shell.span("halo", "halo-exchange");
        let transfers = self.exchange()?;
        drop(halo_span);

        for (r, sh) in self.shards.iter().enumerate() {
            if !sh.interior_cols.is_empty() {
                let stats = launch_mr3d_columns::<L>(
                    self.mg.device(r),
                    &sh.mom[sh.cur],
                    &sh.mom[sh.cur ^ 1],
                    &sh.geom,
                    &self.scheme,
                    &self.consts,
                    &sh.bulk,
                    t,
                    sh.wx,
                    sh.wy,
                    &sh.interior_cols,
                );
                interior_bytes[r] += stats.tally.dram_bytes();
            }
        }

        for (r, sh) in self.shards.iter().enumerate() {
            if !sh.boundary.is_empty() {
                let stats = launch_mr_bc::<L>(
                    self.mg.device(r),
                    &sh.mom[sh.cur ^ 1],
                    &sh.geom,
                    self.tau,
                    t + 1,
                    &sh.boundary,
                    64,
                );
                bc_bytes[r] += stats.tally.dram_bytes();
            }
        }

        let spec = self.mg.spec().clone();
        let max_t = |b: &[u64]| device_time_s(&spec, b.iter().copied().max().unwrap_or(0));
        self.stats.record_step(
            max_t(&boundary_bytes),
            max_t(&interior_bytes),
            exchange_time_s(&self.mg, &transfers),
            max_t(&bc_bytes),
        );

        for sh in &mut self.shards {
            sh.cur ^= 1;
        }
        Ok(())
    }

    fn gather_fields(&self) -> (Vec<f64>, Vec<[f64; 3]>) {
        let g = self.decomp.global();
        let mut rho = vec![0.0; g.len()];
        let mut u = vec![[0.0; 3]; g.len()];
        for idx in 0..g.len() {
            if g.node_at(idx).is_fluid_like() {
                let (x, y, z) = g.coords(idx);
                let m = self.moments_at(x, y, z);
                rho[idx] = m.rho;
                u[idx] = m.u;
            }
        }
        (rho, u)
    }

    /// `M`, the shard count, the overlap stats, and every shard's current
    /// moment lattice (ghost columns included, so no post-restore exchange
    /// is needed).
    fn write_state(&self, w: &mut CheckpointWriter) {
        w.put_u64(L::M as u64).put_u64(self.shards.len() as u64);
        self.stats.write(w);
        for sh in &self.shards {
            w.put_f64s(&sh.mom[sh.cur].host_snapshot());
        }
    }

    /// Bitwise: shift-0 lattices make the slot layout
    /// timestep-independent, so the snapshot lands in buffer 0 regardless
    /// of the saved parity.
    fn read_state(&mut self, r: &mut CheckpointReader) -> Result<(), CheckpointError> {
        r.expect_u64(L::M as u64, "M")?;
        r.expect_u64(self.shards.len() as u64, "shard count")?;
        self.stats = OverlapStats::read(r)?;
        for sh in &mut self.shards {
            let data = r.take_f64s(sh.mom[0].raw_len())?;
            sh.mom[0].host_restore(&data);
            sh.cur = 0;
        }
        Ok(())
    }

    /// Every shard's resident moment lattices.
    fn lattice_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.mom[0].size_bytes() + s.mom[1].size_bytes())
            .sum()
    }

    fn attach_obs(&mut self, obs: Arc<obs::Obs>) {
        self.mg.set_obs(obs);
    }

    fn attach_trace_ctx(&mut self, ctx: Option<obs::TraceCtx>) {
        self.mg.set_trace_ctx(ctx);
    }

    fn link_retries(&self) -> u64 {
        self.halo_retries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_gpu::MrSim3D;
    use lbm_lattice::D3Q19;

    fn duct(nx: usize, ny: usize, nz: usize) -> Geometry {
        // Periodic along x, walls on the four lateral faces.
        let mut g = Geometry::new(nx, ny, nz, [true, false, false]);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    if y == 0 || y == ny - 1 || z == 0 || z == nz - 1 {
                        g.set(x, y, z, lbm_core::geometry::NodeType::Wall);
                    }
                }
            }
        }
        g
    }

    fn shear_init(x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
        (
            1.0 + 0.005 * ((x + y + z) as f64 * 0.5).sin(),
            [
                0.02 * ((y + z) as f64 * 0.6).sin(),
                0.01 * (x as f64 * 0.4).cos(),
                0.01 * ((x + y) as f64 * 0.3).sin(),
            ],
        )
    }

    /// Sharded 3D MR matches the single-device run bitwise on a periodic-x
    /// duct.
    #[test]
    fn multi_matches_single_bitwise_3d() {
        let geom = duct(12, 8, 8);
        let mut single: MrSim3D<D3Q19> = MrSim3D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2);
        single.init_with(shear_init);
        let mut multi: MultiMrSim3D<D3Q19> =
            MultiMrSim3D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 3)
                .with_cpu_threads(2);
        multi.init_with(shear_init);
        single.run(6);
        multi.run(6);
        let (us, um) = (single.velocity_field(), multi.velocity_field());
        for (a, b) in us.iter().zip(&um) {
            for k in 0..3 {
                assert_eq!(a[k], b[k], "sharding changed the arithmetic");
            }
        }
    }

    /// D3Q19 halo node costs M·8 = 80 bytes in moment space (vs 152 ST).
    #[test]
    fn halo_bytes_are_m_per_node() {
        let geom = duct(8, 6, 6);
        let mut multi: MultiMrSim3D<D3Q19> =
            MultiMrSim3D::new(DeviceSpec::mi100(), geom, MrScheme::projective(), 0.8, 2)
                .with_cpu_threads(2);
        multi.run(3);
        // 4 transfers × (6−2)·(6−2) fluid nodes × 10·8 bytes.
        let per_step = 4 * 16 * 10 * 8;
        assert_eq!(multi.halo_bytes_per_step(), per_step as u64);
        assert_eq!(multi.interconnect().total_link_bytes(), 3 * per_step as u64);
    }

    /// Executor determinism across the sharded driver: identical fields and
    /// halo traffic under 1, 3, and 8 CPU threads per device.
    #[test]
    fn executor_determinism_across_thread_counts() {
        let run = |threads: usize| {
            let geom = duct(12, 8, 8);
            let mut multi: MultiMrSim3D<D3Q19> =
                MultiMrSim3D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 3)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0); // force pooled dispatch at any size
            multi.init_with(shear_init);
            multi.run(6);
            (
                multi.velocity_field(),
                multi.density_field(),
                multi.halo_bytes_per_step(),
                multi.interconnect().total_link_bytes(),
            )
        };
        let base = run(1);
        for threads in [3, 8] {
            let got = run(threads);
            assert_eq!(base, got, "sharded MR3D diverges at {threads} threads");
        }
    }
}
