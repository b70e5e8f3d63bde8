//! Multi-device AA-pattern ST: slab-sharded in-place propagation with
//! parity-aware halo exchange.
//!
//! Each shard holds **one** `Q·8`-per-node lattice (half of
//! [`crate::MultiStSim`]'s residency) and runs the same two half-steps as
//! [`lbm_gpu::AaStSim`] over its owned span:
//!
//! * **Stream half-step** (even `t`): the edge nodes *gather* from the
//!   ghost column and *push* into it, so the cut protocol is two partial
//!   exchanges around one launch. Pre-exchange: each owned edge column's
//!   cut-crossing slots (`{s : c_s·x̂ = −1}` for a left ghost, `+1` for a
//!   right ghost — the slots the neighbor's gather reads) are copied into
//!   the adjacent ghost. Post-exchange: the same slots of each ghost — now
//!   holding the neighbor-bound *pushes* — are copied back into the owner's
//!   edge column, guarded per `(cell, slot)` by "the pushing node is
//!   Fluid"; where it is not (a wall or the domain edge sits across the
//!   cut), the owner already stored the value itself through the local
//!   bounce rules and the ghost slot is stale.
//! * **Collide half-step** (odd `t`): node-local, no exchange at all.
//!
//! Only `REACH = 1` cut-crossing slots move: 3 of 9 (D2Q9) or 5 of 19
//! (D3Q19) populations, twice per two-step cycle — 2·3/9 = ⅔ of one ST
//! exchange per cycle where ST pays 2 full-`Q` exchanges, a 3× wire
//! saving on top of the halved residency. The cost: the stream launch both
//! reads and writes the cut columns, so neither exchange can overlap
//! compute (the stats record the exchange as exposed time).
//!
//! Bitwise: every per-node read resolves to the same value the
//! single-device [`lbm_gpu::AaStSim`] reads, so the sharded trajectory is
//! identical with `==`, at both parities.

use crate::decomp::SlabDecomp;
use crate::recovery::{link_error_from_step, transfer_with_retry, HaloRetryPolicy};
use crate::stats::{device_time_s, exchange_time_s, OverlapStats};
use gpu_sim::interconnect::{LinkError, MultiGpu};
use gpu_sim::{DeviceSpec, FaultPlan, GlobalBuffer};
use lbm_core::collision::Collision;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::io::{CheckpointError, CheckpointReader, CheckpointWriter};
use lbm_core::kernels::{aa_slot, KernelConsts};
use lbm_core::sim::{Driver, Shell, Simulation, StepError};
use lbm_gpu::aa::{launch_aa_collide_span, launch_aa_stream_span};
use lbm_gpu::boundary::boundary_nodes;
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct AaShard {
    geom: Geometry,
    a: GlobalBuffer<f64>,
    owned_lo: usize,
    owned_hi: usize,
}

/// Slab-sharded AA-pattern ST simulation across N simulated devices. Its
/// checkpoints carry the step parity in the flavor tag, so a restore can
/// only land on the half of the AA cycle the snapshot was taken at.
pub struct MultiAaStSim<L: Lattice, C: Collision<L>> {
    shell: Shell,
    mg: MultiGpu,
    decomp: SlabDecomp,
    shards: Vec<AaShard>,
    collision: C,
    consts: KernelConsts,
    block_size: usize,
    /// A stream half-step's post-exchange failed after the launch mutated
    /// the lattice in place; the next `try_step` must finish that exchange
    /// (idempotent: it only reads ghosts and writes edge columns) before
    /// the step can complete.
    post_pending: bool,
    stats: OverlapStats,
    retry: HaloRetryPolicy,
    halo_retries: AtomicU64,
    _l: PhantomData<L>,
}

impl<L: Lattice, C: Collision<L>> MultiAaStSim<L, C> {
    /// Shard `geom` across `n` devices of one spec, joined ring-wise with
    /// the vendor's preset link. Initialized to equilibrium at rest.
    pub fn new(device: DeviceSpec, geom: Geometry, collision: C, n: usize) -> Self {
        if L::D == 2 {
            assert_eq!(geom.nz, 1, "2D lattice on a 3D domain");
        }
        assert_eq!(L::REACH, 1, "slab ghosts are one column wide");
        assert!(
            boundary_nodes(&geom).is_empty(),
            "AA-pattern streaming does not support inlet/outlet boundaries"
        );
        let decomp = SlabDecomp::new(geom, n);
        let mg = MultiGpu::ring(device, n);
        let shards = (0..n)
            .map(|r| {
                let g = decomp.local_geometry(r);
                let s = decomp.slab(r);
                let ln = g.len();
                AaShard {
                    a: GlobalBuffer::new(L::Q * ln).with_touch_tracking(),
                    owned_lo: s.owned_lo(),
                    owned_hi: s.owned_hi(),
                    geom: g,
                }
            })
            .collect();
        let mut sim = MultiAaStSim {
            shell: Shell::in_place("multi-aa-st"),
            mg,
            decomp,
            shards,
            consts: KernelConsts::new::<L>(collision.tau()),
            collision,
            block_size: 256,
            post_pending: false,
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

    /// Set the thread-block size of the span kernels.
    pub fn with_block_size(mut self, bs: usize) -> Self {
        assert!(bs >= 1);
        self.block_size = bs;
        self
    }

    /// Override the halo-transfer retry policy.
    pub fn with_halo_retry(mut self, policy: HaloRetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Attach a deterministic fault plan to every device, every shard's
    /// lattice, and the interconnect.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.mg.set_fault_plan(plan.clone());
        for sh in &mut self.shards {
            sh.a.set_fault_plan(plan.clone());
        }
        self
    }

    /// Initialize every node — *including ghosts* — from a macroscopic
    /// field evaluated at **global** coordinates into the even-parity slot
    /// layout, so ghost columns start consistent with their owners.
    pub fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
        let mut feq = [0.0f64; 48];
        for (r, sh) in self.shards.iter_mut().enumerate() {
            let ln = sh.geom.len();
            for idx in 0..ln {
                let (lx, y, z) = sh.geom.coords(idx);
                let gx = self.decomp.global_x(r, lx);
                let (rho, u) = field(gx, y, z);
                let m = Moments {
                    rho,
                    u,
                    pi: Moments::pi_eq(rho, u, L::D),
                };
                self.collision.reconstruct(&m, &mut feq[..L::Q]);
                for (i, &v) in feq[..L::Q].iter().enumerate() {
                    sh.a.set(aa_slot::<L>(0, i) * ln + idx, v);
                }
            }
        }
        self.shell.reset_steps();
        self.post_pending = false;
        self.stats = OverlapStats::default();
    }

    /// [`Simulation::try_step`], surfacing the substrate's typed
    /// [`LinkError`].
    pub fn try_step(&mut self) -> Result<(), LinkError> {
        Simulation::try_step(self).map_err(link_error_from_step)
    }

    /// Run one exchange phase over every cut. Pre copies owned edge
    /// columns into ghosts; post copies ghosts back into the neighbor's
    /// edge columns with the pushing-node guard. Link tallies are recorded
    /// (with bounded retries) before each copy, so a failed transfer moves
    /// no data and a successful retry tallies exactly once.
    fn exchange(&self, phase: Phase) -> Result<Vec<(usize, usize, u64)>, StepError> {
        let mut out = Vec::new();
        for tr in self.decomp.halo_transfers() {
            // Ghost side determines which slots cross this cut direction.
            let ghost_left = tr.dst_lx == 0;
            let dir = if ghost_left { -1 } else { 1 };
            let slots: Vec<usize> = (0..L::Q).filter(|&s| L::C[s][0] == dir).collect();
            let bytes = (self.decomp.column_fluid_count(tr.gx) * slots.len() * 8) as u64;
            // Post reverses the roles: the ghost holder sends back to the
            // column owner.
            let (from, to) = match phase {
                Phase::Pre => (tr.from, tr.to),
                Phase::Post => (tr.to, tr.from),
            };
            transfer_with_retry(&self.mg, from, to, bytes, &self.retry, &self.halo_retries)?;
            let owner = &self.shards[tr.from];
            let holder = &self.shards[tr.to];
            let (on, hn) = (owner.geom.len(), holder.geom.len());
            for z in 0..owner.geom.nz {
                for y in 0..owner.geom.ny {
                    if !owner.geom.node(tr.src_lx, y, z).is_fluid_like() {
                        continue;
                    }
                    let oi = owner.geom.idx(tr.src_lx, y, z);
                    let hi = holder.geom.idx(tr.dst_lx, y, z);
                    for &s in &slots {
                        match phase {
                            Phase::Pre => holder.a.set(s * hn + hi, owner.a.get(s * on + oi)),
                            Phase::Post => {
                                // Only slots a Fluid node actually pushed:
                                // where the pushing cell across the cut is
                                // solid or absent, the owner stored this
                                // slot itself via the local bounce rules.
                                let c = L::C[s];
                                let pusher =
                                    holder.geom.neighbor(tr.dst_lx, y, z, [-c[0], -c[1], -c[2]]);
                                let pushed = pusher.is_some_and(|(px, py, pz)| {
                                    matches!(holder.geom.node(px, py, pz), NodeType::Fluid)
                                });
                                if pushed {
                                    owner.a.set(s * on + oi, holder.a.get(s * hn + hi));
                                }
                            }
                        }
                    }
                }
            }
            out.push((from, to, bytes));
        }
        Ok(out)
    }

    /// The interconnect (link byte counters, report).
    pub fn interconnect(&self) -> &MultiGpu {
        &self.mg
    }

    /// Modeled schedule timing (the exchange is always exposed — AA cannot
    /// overlap it with the in-place launch).
    pub fn stats(&self) -> &OverlapStats {
        &self.stats
    }

    /// Analytic interconnect traffic of one two-step AA cycle: each cut
    /// direction moves its crossing slots twice (pre + post) per stream
    /// half-step, and the collide half-step moves nothing.
    pub fn halo_bytes_per_cycle(&self) -> u64 {
        self.decomp
            .halo_transfers()
            .iter()
            .map(|tr| {
                let dir = if tr.dst_lx == 0 { -1 } else { 1 };
                let crossing = (0..L::Q).filter(|&s| L::C[s][0] == dir).count();
                2 * (self.decomp.column_fluid_count(tr.gx) * crossing * 8) as u64
            })
            .sum()
    }

    /// Distribution at a global node, un-permuted to natural direction
    /// order regardless of the current parity.
    pub fn f_at(&self, x: usize, y: usize, z: usize) -> Vec<f64> {
        let r = self.decomp.owner_of(x);
        let sh = &self.shards[r];
        let lx = sh.owned_lo + (x - self.decomp.slab(r).x0);
        let ln = sh.geom.len();
        let idx = sh.geom.idx(lx, y, z);
        let t = self.shell.steps();
        (0..L::Q)
            .map(|i| sh.a.get(aa_slot::<L>(t, i) * ln + idx))
            .collect()
    }

    /// Moments at a global node.
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        Moments::from_f::<L>(&self.f_at(x, y, z))
    }
}

impl<L: Lattice, C: Collision<L>> Driver for MultiAaStSim<L, C> {
    fn shell(&self) -> &Shell {
        &self.shell
    }

    fn shell_mut(&mut self) -> &mut Shell {
        &mut self.shell
    }

    fn geom(&self) -> &Geometry {
        self.decomp.global()
    }

    /// A failure in the *pre*-exchange leaves no owned state mutated —
    /// retrying the whole step is safe. A failure in the *post*-exchange
    /// arrives after the in-place launch, so the step is parked half-done:
    /// the next call finishes the pending exchange (and only then counts
    /// the step) instead of recomputing over clobbered inputs.
    fn advance(&mut self) -> Result<(), StepError> {
        if self.post_pending {
            let transfers = self.exchange(Phase::Post)?;
            self.post_pending = false;
            self.stats
                .record_step(0.0, 0.0, exchange_time_s(&self.mg, &transfers), 0.0);
            return Ok(());
        }
        let mut launch_bytes = vec![0u64; self.shards.len()];
        let mut exchange_s = 0.0;
        if self.shell.steps().is_multiple_of(2) {
            // Stream half-step: pre-exchange, one in-place launch per
            // shard, post-exchange. Neither exchange can overlap the
            // launch — it reads and rewrites the cut columns.
            let pre_span = self.shell.span("halo", "halo-exchange");
            let pre = self.exchange(Phase::Pre)?;
            drop(pre_span);
            for (r, sh) in self.shards.iter().enumerate() {
                let stats = launch_aa_stream_span::<L, C>(
                    self.mg.device(r),
                    &sh.a,
                    &sh.geom,
                    &self.collision,
                    &self.consts,
                    self.block_size,
                    sh.owned_lo,
                    sh.owned_hi,
                );
                launch_bytes[r] += stats.tally.dram_bytes();
            }
            let post_span = self.shell.span("halo", "halo-exchange");
            let post = match self.exchange(Phase::Post) {
                Ok(t) => t,
                Err(e) => {
                    self.post_pending = true;
                    return Err(e);
                }
            };
            drop(post_span);
            exchange_s = exchange_time_s(&self.mg, &pre) + exchange_time_s(&self.mg, &post);
        } else {
            // Collide half-step: node-local, no exchange.
            for (r, sh) in self.shards.iter().enumerate() {
                let stats = launch_aa_collide_span::<L, C>(
                    self.mg.device(r),
                    &sh.a,
                    &sh.geom,
                    &self.collision,
                    &self.consts,
                    self.block_size,
                    sh.owned_lo,
                    sh.owned_hi,
                );
                launch_bytes[r] += stats.tally.dram_bytes();
            }
        }
        let spec = self.mg.spec().clone();
        let launch_s = device_time_s(&spec, launch_bytes.iter().copied().max().unwrap_or(0));
        self.stats.record_step(0.0, launch_s, exchange_s, 0.0);
        Ok(())
    }

    /// Gathered from the owning shards through the parity slot map.
    fn gather_fields(&self) -> (Vec<f64>, Vec<[f64; 3]>) {
        let g = self.decomp.global();
        let t = self.shell.steps();
        let mut rho_out = vec![0.0; g.len()];
        let mut u_out = vec![[0.0; 3]; g.len()];
        for (idx, rho_o) in rho_out.iter_mut().enumerate() {
            if !g.node_at(idx).is_fluid_like() {
                continue;
            }
            let (x, y, z) = g.coords(idx);
            let r = self.decomp.owner_of(x);
            let sh = &self.shards[r];
            let lx = sh.owned_lo + (x - self.decomp.slab(r).x0);
            let ln = sh.geom.len();
            let lidx = sh.geom.idx(lx, y, z);
            let mut rho = 0.0;
            let mut j = [0.0f64; 3];
            for i in 0..L::Q {
                let fi = sh.a.get(aa_slot::<L>(t, i) * ln + lidx);
                let c = L::cf(i);
                rho += fi;
                j[0] += c[0] * fi;
                j[1] += c[1] * fi;
                j[2] += c[2] * fi;
            }
            let inv_rho = 1.0 / rho;
            *rho_o = rho;
            u_out[idx] = [j[0] * inv_rho, j[1] * inv_rho, j[2] * inv_rho];
        }
        (rho_out, u_out)
    }

    /// `Q`, the shard count, the overlap stats, and every shard's lattice
    /// (ghost columns included).
    fn write_state(&self, w: &mut CheckpointWriter) {
        w.put_u64(L::Q as u64).put_u64(self.shards.len() as u64);
        self.stats.write(w);
        for sh in &self.shards {
            w.put_f64s(&sh.a.snapshot());
        }
    }

    fn read_state(&mut self, r: &mut CheckpointReader) -> Result<(), CheckpointError> {
        r.expect_u64(L::Q as u64, "Q")?;
        r.expect_u64(self.shards.len() as u64, "shard count")?;
        let stats = OverlapStats::read(r)?;
        for sh in &mut self.shards {
            let data = r.take_f64s(L::Q * sh.geom.len())?;
            for (i, v) in data.iter().enumerate() {
                sh.a.set(i, *v);
            }
        }
        self.stats = stats;
        self.post_pending = false;
        Ok(())
    }

    /// Every shard's single resident lattice — half of
    /// [`crate::MultiStSim`]'s footprint shard for shard.
    fn lattice_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.a.size_bytes()).sum()
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

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Pre,
    Post,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_core::collision::{Bgk, Projective};
    use lbm_gpu::AaStSim;
    use lbm_lattice::{D2Q9, D3Q19};

    fn shear_init(x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
        (
            1.0 + 0.01 * ((x + 2 * y + z) as f64 * 0.3).sin(),
            [
                0.03 * ((y + z) as f64 * 0.6).sin(),
                0.01 * (x as f64 * 0.4).cos(),
                0.0,
            ],
        )
    }

    /// Lid-driven-style domain: periodic x, wall bottom, moving lid top —
    /// exercises the MovingWall gain rules at the cut columns.
    fn lid_geom(nx: usize, ny: usize) -> Geometry {
        let mut g = Geometry::walls_y_periodic_x(nx, ny);
        for x in 0..nx {
            g.set(x, ny - 1, 0, NodeType::MovingWall([0.05, 0.0, 0.0]));
        }
        g
    }

    /// Sharded AA is bitwise identical to single-device AA at *every* step
    /// count — both parities — including MovingWall gains at the cuts.
    #[test]
    fn multi_matches_single_bitwise_both_parities_2d() {
        for steps in [7usize, 8] {
            let geom = lid_geom(16, 8);
            let mut single: AaStSim<D2Q9, _> =
                AaStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8))
                    .with_cpu_threads(2);
            single.init_with(shear_init);
            let mut multi: MultiAaStSim<D2Q9, _> =
                MultiAaStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 3)
                    .with_cpu_threads(2);
            multi.init_with(shear_init);
            single.run(steps);
            multi.run(steps);
            assert_eq!(
                single.field_checksum(),
                multi.field_checksum(),
                "diverged at {steps} steps"
            );
            let (us, um) = (single.velocity_field(), multi.velocity_field());
            for (a, b) in us.iter().zip(&um) {
                for k in 0..3 {
                    assert_eq!(a[k], b[k], "sharding changed the arithmetic");
                }
            }
        }
    }

    /// 3D walled duct across 2 devices, odd and even step counts.
    #[test]
    fn multi_matches_single_bitwise_3d() {
        let mut geom = Geometry::new(12, 7, 7, [true, false, false]);
        for z in 0..7 {
            for x in 0..12 {
                geom.set(x, 0, z, NodeType::Wall);
                geom.set(x, 6, z, NodeType::Wall);
            }
        }
        for y in 0..7 {
            for x in 0..12 {
                geom.set(x, y, 0, NodeType::Wall);
                geom.set(x, y, 6, NodeType::Wall);
            }
        }
        for steps in [5usize, 6] {
            let mut single: AaStSim<D3Q19, _> =
                AaStSim::new(DeviceSpec::mi100(), geom.clone(), Bgk::new(0.7)).with_cpu_threads(2);
            single.init_with(shear_init);
            let mut multi: MultiAaStSim<D3Q19, _> =
                MultiAaStSim::new(DeviceSpec::mi100(), geom.clone(), Bgk::new(0.7), 2)
                    .with_cpu_threads(2);
            multi.init_with(shear_init);
            single.run(steps);
            multi.run(steps);
            assert_eq!(single.field_checksum(), multi.field_checksum());
        }
    }

    /// Per-cycle halo traffic: only the cut-crossing slots move (3 of 9
    /// for D2Q9), twice per stream step — 3× less wire than sharded ST
    /// over a two-step cycle. The link tally matches the analytic figure
    /// exactly, and the footprint is half of two-lattice sharding.
    #[test]
    fn halo_bytes_and_footprint_are_exact() {
        let geom = Geometry::walls_y_periodic_x(16, 10);
        let mut multi: MultiAaStSim<D2Q9, _> =
            MultiAaStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8), 2)
                .with_cpu_threads(2);
        multi.run(4); // two full cycles
                      // n = 2 periodic: 2 cuts → 4 directed transfers, each crossing 3
                      // slots over 8 fluid column nodes, pre + post per stream step.
        let per_cycle = 2 * 4 * 8 * 3 * 8;
        assert_eq!(multi.halo_bytes_per_cycle(), per_cycle as u64);
        assert_eq!(
            multi.interconnect().total_link_bytes(),
            2 * per_cycle as u64
        );
        // ST exchanges full-Q columns every step: 2 · 4 · 8 · 9 · 8 per
        // cycle — exactly 3× the AA wire traffic.
        let st_cycle = 2 * 4 * 8 * 9 * 8;
        assert_eq!(3 * multi.halo_bytes_per_cycle(), st_cycle as u64);
        // One lattice per shard: shard lattices total (16 + 2·2) · 10 · 9
        // doubles (each shard owns 8 columns + 2 ghosts).
        assert_eq!(multi.footprint_bytes(), 20 * 10 * 9 * 8);
    }

    /// Checkpoint at odd parity restores bitwise mid-cycle; a two-lattice
    /// multi-ST snapshot is rejected as a foreign flavor.
    #[test]
    fn checkpoint_round_trips_at_odd_parity() {
        let geom = lid_geom(12, 6);
        let mk = || {
            let mut s: MultiAaStSim<D2Q9, _> =
                MultiAaStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8), 2)
                    .with_cpu_threads(2);
            s.init_with(shear_init);
            s
        };
        let mut a = mk();
        a.run(3);
        let snap = a.checkpoint();
        a.run(4);
        let mut b = mk();
        b.restore(&snap).unwrap();
        assert_eq!(b.steps(), 3);
        b.run(4);
        assert_eq!(a.field_checksum(), b.field_checksum());

        let st: crate::MultiStSim<D2Q9, _> =
            crate::MultiStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8), 2);
        assert!(matches!(
            b.restore(&st.checkpoint()),
            Err(CheckpointError::WrongFlavor { .. })
        ));
    }

    /// Executor determinism: identical fields and link traffic under 1, 3,
    /// and 8 CPU threads per device with forced pooling.
    #[test]
    fn executor_determinism_across_thread_counts() {
        let run = |threads: usize| {
            let geom = lid_geom(16, 8);
            let mut multi: MultiAaStSim<D2Q9, _> =
                MultiAaStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 4)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0);
            multi.init_with(shear_init);
            multi.run(8);
            (
                multi.velocity_field(),
                multi.density_field(),
                multi.interconnect().total_link_bytes(),
            )
        };
        let base = run(1);
        for threads in [3, 8] {
            let got = run(threads);
            assert_eq!(base, got, "sharded AA diverges at {threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "does not support inlet/outlet")]
    fn rejects_inlet_outlet_geometries() {
        let geom = Geometry::channel_2d(12, 6, 0.04);
        let _ = MultiAaStSim::<D2Q9, _>::new(DeviceSpec::v100(), geom, Bgk::new(0.8), 2);
    }
}
