//! Sparse (indirect-addressing) moment-representation driver.
//!
//! The MR byte reduction (store `M` moments instead of `Q` populations)
//! compounds with fluid-only compaction: a porous domain stores `M·8`
//! bytes per *fluid* node plus the `u32` link table, instead of `Q·8` per
//! bounding-box node twice over. Per fluid update the byte ledger is
//!
//! ```text
//!   B/F = 2M·8 + Q·4        (132 for D2Q9, 236 for D3Q19)
//! ```
//!
//! — `M` moment reads + `M` moment writes per node (the moment lattice is
//! single-copy, updated in place under lockstep phases) plus one `u32`
//! link read per direction. Compare sparse ST's `2Q·8 + Q·4` (180/380)
//! and dense MR's `2M·8` (96/160).
//!
//! The update is the *pull-form* mirror of the dense MR drivers'
//! push-form scatter: for each direction the kernel follows the
//! precompiled link to the upstream node, recomputes that node's
//! post-collision population (`collide_and_map` on its time-`t` moments —
//! in-cache work, traded for the second lattice), and reduces the gathered
//! populations straight to time-`t+1` moments. Links encode halfway
//! bounce-back exactly as the dense scatter does (a wall link points at
//! the node's own opposite direction), so on the shared fluid nodes the
//! arithmetic — and therefore the trajectory — is **bitwise identical**
//! to the dense MR drivers.
//!
//! One grid-wide lockstep barrier separates the gather (phase 0, reads
//! only) from the in-place moment write-back (phase 1), so a single
//! moment lattice suffices; the per-tile staging slab lives in block
//! scratch, which persists across phases.

use crate::ledger::Ledger;
use crate::scheme::MrScheme;
use crate::sparse::{
    build_neighbor_table, validate_sparse_geometry, FluidIndex, SparseBuildError, Tile,
};
use gpu_sim::exec::{BlockCtx, Launch, PhasedKernel};
use gpu_sim::memory::Tally;
use gpu_sim::{DeviceSpec, GlobalBuffer, Gpu};
use lbm_core::geometry::Geometry;
use lbm_core::io::{CheckpointError, CheckpointReader, CheckpointWriter};
use lbm_core::kernels::{self, LaneBlock, LANES, MAX_M, MAX_Q};
use lbm_core::sim::{Driver, Shell, StepError};
use lbm_lattice::moments::Moments;
use lbm_lattice::{Lattice, D2Q9, D3Q19};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// Two-phase pull kernel: one block per tile.
///
/// * **Phase 0** — load the tile's moment rows, compute the tile nodes'
///   post-collision populations (vectorized lane chunks or the scalar
///   path, bitwise-identical), gather through the link table (out-of-tile
///   upstream nodes are recomputed on the fly with a per-block memo), and
///   stage each active node's new moments in block scratch.
/// * **Phase 1** — after the grid-wide barrier, write the staged moments
///   back in place.
///
/// Reads all happen in phase 0 and writes in phase 1 with each cell
/// written by exactly one block, so the kernel passes strict race
/// checking.
struct SparseMrKernel<'a, L: Lattice> {
    /// Time-`t` moments (all reads go here).
    src: &'a GlobalBuffer<f64>,
    /// Time-`t+1` moments (all writes go here). The single-device driver
    /// passes the same buffer for both — in-place, safe under the lockstep
    /// barrier; the sharded driver passes distinct buffers so a failed
    /// halo exchange can retry the whole step from unmodified `src`.
    dst: &'a GlobalBuffer<f64>,
    table: &'a GlobalBuffer<u32>,
    tiles: &'a [Tile],
    nf: usize,
    scheme: &'a MrScheme,
    tau: f64,
    /// `ω = 1 − 1/τ`, the lane-path relaxation factor (same f64 the
    /// scalar path recomputes).
    omega: f64,
    scalar: bool,
    /// Shared/scratch slab stride (max tile span).
    cap: usize,
    dirs: Vec<usize>,
    _l: PhantomData<L>,
}

impl<L: Lattice> SparseMrKernel<'_, L> {
    /// Scalar post-collision populations of one node's moment vector.
    #[inline]
    fn collide_node(&self, mm: &[f64], out: &mut [f64]) {
        let m = Moments::unpack::<L>(mm);
        self.scheme.collide_and_map::<L>(&m, self.tau, out);
    }
}

impl<L: Lattice> PhasedKernel for SparseMrKernel<'_, L> {
    fn name(&self) -> &str {
        "mr-sparse"
    }

    fn phases(&self) -> usize {
        2
    }

    fn run_phase(&self, phase: usize, ctx: &mut BlockCtx) {
        let tile = &self.tiles[ctx.block_id];
        let lo = tile.lo as usize;
        let len = (tile.hi - tile.lo) as usize;
        let stage = self.cap * L::M; // staged moments live after the row slab

        if phase == 1 {
            // Write-back: each active node's staged moments, in place.
            for (slot, &cid) in tile.active.iter().enumerate() {
                for m in 0..L::M {
                    let v = ctx.scratch()[stage + m * self.cap + slot];
                    ctx.write(self.dst, m * self.nf + cid as usize, v);
                }
            }
            return;
        }

        // Phase 0, step 1: the tile's moment rows → scratch[0 .. M·len]
        // (counted reads; every stored node's moments are touched once).
        for m in 0..L::M {
            ctx.read_span_to_scratch(self.src, m * self.nf + lo, m * len, len);
        }

        // Step 2: post-collision populations of every tile node →
        // shared[i·len + j]. The vectorized chunks are the same
        // `lbm_core::kernels` lane paths the dense MR drivers run, and are
        // bitwise-identical to the scalar fallback.
        if self.scalar {
            let mut mm = [0.0f64; MAX_M];
            let mut fstar = [0.0f64; MAX_Q];
            for j in 0..len {
                {
                    let scratch = ctx.scratch();
                    for m in 0..L::M {
                        mm[m] = scratch[m * len + j];
                    }
                }
                self.collide_node(&mm[..L::M], &mut fstar[..L::Q]);
                let shared = ctx.shared();
                for i in 0..L::Q {
                    shared[i * len + j] = fstar[i];
                }
            }
        } else {
            let mut out: LaneBlock = [[0.0; LANES]; MAX_Q];
            let mut j0 = 0;
            while j0 < len {
                {
                    let (shared, scratch) = ctx.shared_and_scratch();
                    let moms = &scratch[..L::M * len];
                    match self.scheme {
                        MrScheme::Projective => kernels::mr_p_collide_chunk::<L>(
                            moms, len, j0, self.omega, &self.dirs, &mut out,
                        ),
                        MrScheme::Recursive(basis) => kernels::mr_r_collide_chunk::<L>(
                            moms, len, j0, self.omega, basis, &self.dirs, &mut out,
                        ),
                    }
                    let cnt = LANES.min(len - j0);
                    for i in 0..L::Q {
                        for l in 0..cnt {
                            shared[i * len + j0 + l] = out[i][l];
                        }
                    }
                }
                j0 += LANES;
            }
        }

        // Step 3: gather through the link table, reduce to new moments,
        // stage in scratch. Upstream nodes outside this tile are
        // recomputed scalar (bitwise-equal) with a per-block memo; their
        // moment reads are counted like any other (repeats within the
        // launch are L2 hits under touch tracking, so the DRAM ledger
        // stays `M·8 + Q·4` read + `M·8` written per fluid node).
        let mut memo: HashMap<usize, [f64; MAX_Q]> = HashMap::new();
        let mut f_loc = [0.0f64; MAX_Q];
        let mut mm = [0.0f64; MAX_M];
        for (slot, &cid) in tile.active.iter().enumerate() {
            let cid = cid as usize;
            for i in 0..L::Q {
                let link = ctx.read(self.table, i * self.nf + cid) as usize;
                let (d, p) = (link / self.nf, link % self.nf);
                f_loc[i] = if p >= lo && p < lo + len {
                    ctx.shared()[d * len + (p - lo)]
                } else if let Some(fs) = memo.get(&p) {
                    fs[d]
                } else {
                    for m in 0..L::M {
                        mm[m] = ctx.read(self.src, m * self.nf + p);
                    }
                    let mut fs = [0.0f64; MAX_Q];
                    self.collide_node(&mm[..L::M], &mut fs[..L::Q]);
                    memo.insert(p, fs);
                    fs[d]
                };
            }
            let mnew = Moments::from_f::<L>(&f_loc[..L::Q]);
            mnew.pack::<L>(&mut mm[..L::M]);
            let scratch = ctx.scratch();
            for m in 0..L::M {
                scratch[stage + m * self.cap + slot] = mm[m];
            }
        }
    }
}

/// Launch the two-phase sparse MR kernel over every tile of `index`.
/// `src` holds time-`t` moments, `dst` receives time-`t+1` moments for the
/// active nodes; the single-device driver passes the same buffer for both
/// (in-place), the sharded drivers pass distinct ones.
#[allow(clippy::too_many_arguments)]
pub fn launch_sparse_mr<L: Lattice>(
    gpu: &Gpu,
    src: &GlobalBuffer<f64>,
    dst: &GlobalBuffer<f64>,
    table: &GlobalBuffer<u32>,
    index: &FluidIndex,
    scheme: &MrScheme,
    tau: f64,
    scalar: bool,
) -> gpu_sim::exec::LaunchStats {
    let tiles = index.tiles();
    let cap = index.tile_capacity().max(1);
    let cfg = Launch {
        blocks: tiles.len(),
        threads_per_block: cap,
        shared_doubles: L::Q * cap,
        scratch_doubles: 2 * L::M * cap,
    };
    gpu.launch_lockstep(
        &cfg,
        &SparseMrKernel::<L> {
            src,
            dst,
            table,
            tiles,
            nf: index.len(),
            scheme,
            tau,
            omega: 1.0 - 1.0 / tau,
            scalar,
            cap,
            dirs: kernels::dirs_all::<L>(),
            _l: PhantomData,
        },
    )
}

/// Driver for the sparse (fluid-compacted, indirect-addressing)
/// moment-representation simulation. Stores a single in-place moment
/// lattice of `M` doubles per fluid node plus the `u32` link table.
pub struct SparseMrSim<L: Lattice> {
    shell: Shell,
    gpu: Gpu,
    geom: Geometry,
    index: FluidIndex,
    table: GlobalBuffer<u32>,
    mom: GlobalBuffer<f64>,
    scheme: MrScheme,
    tau: f64,
    scalar: bool,
    ledger: Ledger,
    _l: PhantomData<L>,
}

/// Sparse MR on the D2Q9 lattice (M = 6: B/F 132 vs dense MR's 96).
pub type SparseMrSim2D = SparseMrSim<D2Q9>;
/// Sparse MR on the D3Q19 lattice (M = 10: B/F 236 vs dense MR's 160).
pub type SparseMrSim3D = SparseMrSim<D3Q19>;

impl<L: Lattice> SparseMrSim<L> {
    /// Build a sparse MR simulation, panicking on an unsupported geometry.
    /// Use [`SparseMrSim::try_new`] where build failures must be handled.
    pub fn new(device: DeviceSpec, geom: Geometry, scheme: MrScheme, tau: f64) -> Self {
        Self::try_new(device, geom, scheme, tau).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a sparse MR simulation. The geometry may contain only
    /// fluid/wall/periodic nodes (no inlet/outlet/moving walls).
    pub fn try_new(
        device: DeviceSpec,
        geom: Geometry,
        scheme: MrScheme,
        tau: f64,
    ) -> Result<Self, SparseBuildError> {
        validate_sparse_geometry(&geom)?;
        let index = FluidIndex::build(&geom);
        if index.is_empty() {
            return Err(SparseBuildError::NoFluidNodes);
        }
        let table =
            GlobalBuffer::from_vec(build_neighbor_table::<L>(&geom, &index)?).with_touch_tracking();
        let nf = index.len();
        let mut sim = SparseMrSim {
            shell: Shell::new("sparse-mr"),
            gpu: Gpu::new(device),
            geom,
            index,
            table,
            mom: GlobalBuffer::new(L::M * nf).with_touch_tracking(),
            scheme,
            tau,
            scalar: false,
            ledger: Ledger::default(),
            _l: PhantomData,
        };
        sim.init_with(|_, _, _| (1.0, [0.0; 3]));
        Ok(sim)
    }

    /// Limit the CPU worker threads backing the substrate.
    pub fn with_cpu_threads(mut self, n: usize) -> Self {
        self.gpu = self.gpu.with_cpu_threads(n);
        self
    }

    /// Override the minimum launch size dispatched to the worker pool.
    pub fn with_parallel_threshold(mut self, items: usize) -> Self {
        self.gpu = self.gpu.with_parallel_threshold(items);
        self
    }

    /// Force the original per-node scalar kernels (bitwise-identical to
    /// the default vectorized lane path; used by the equivalence tests).
    pub fn with_scalar_kernels(mut self) -> Self {
        self.scalar = true;
        self
    }

    /// Attach the substrate's race checker to the moment lattice. The
    /// two-phase kernel reads strictly before it writes, so even the
    /// strict checker stays quiet.
    pub fn with_racecheck_strict(mut self) -> Self {
        assert_eq!(
            self.shell.steps(),
            0,
            "attach the race checker before stepping"
        );
        let old = std::mem::replace(&mut self.mom, GlobalBuffer::new(0));
        self.mom = old.with_racecheck_strict();
        self
    }

    /// Route injected faults through the substrate and the moment lattice.
    pub fn with_fault_plan(mut self, plan: Arc<gpu_sim::FaultPlan>) -> Self {
        self.gpu.set_fault_plan(plan.clone());
        self.mom.set_fault_plan(plan);
        self
    }

    /// Initialize every fluid node's moments from a macroscopic field
    /// (`{ρ, u, Π_eq}` — the same equilibrium start as the dense MR
    /// drivers, so shared fluid nodes begin bitwise-equal).
    pub fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
        let nf = self.index.len();
        let mut packed = [0.0f64; MAX_M];
        for (cid, &idx) in self.index.nodes.iter().enumerate() {
            let (x, y, z) = self.geom.coords(idx);
            let (rho, u) = field(x, y, z);
            let m = Moments {
                rho,
                u,
                pi: Moments::pi_eq(rho, u, L::D),
            };
            m.pack::<L>(&mut packed[..L::M]);
            for mi in 0..L::M {
                self.mom.set(mi * nf + cid, packed[mi]);
            }
        }
        self.shell.reset_steps();
        self.ledger.accum = Tally::default();
    }

    /// Aggregate traffic over all steps so far.
    pub fn traffic(&self) -> Tally {
        self.ledger.accum
    }

    /// Measured DRAM bytes per fluid update — `2M·8 + Q·4` (132 for D2Q9,
    /// 236 for D3Q19). Zero before the first step (no updates yet, so
    /// there is no per-update ratio — the 0/0 guard of the ST driver).
    pub fn measured_bpf(&self) -> f64 {
        let updates = self.index.len() as u64 * self.shell.steps();
        self.ledger.bytes_per_update(updates)
    }
}

impl<L: Lattice> Driver for SparseMrSim<L> {
    fn shell(&self) -> &Shell {
        &self.shell
    }

    fn shell_mut(&mut self) -> &mut Shell {
        &mut self.shell
    }

    fn geom(&self) -> &Geometry {
        &self.geom
    }

    /// One two-phase lockstep launch.
    fn advance(&mut self) -> Result<(), StepError> {
        let stats = launch_sparse_mr::<L>(
            &self.gpu,
            &self.mom,
            &self.mom,
            &self.table,
            &self.index,
            &self.scheme,
            self.tau,
            self.scalar,
        );
        self.ledger.record(&stats, || self.index.len());
        Ok(())
    }

    fn gather_fields(&self) -> (Vec<f64>, Vec<[f64; 3]>) {
        let nf = self.index.len();
        let mut rho_out = vec![0.0; self.geom.len()];
        let mut u_out = vec![[0.0; 3]; self.geom.len()];
        for (cid, &idx) in self.index.nodes.iter().enumerate() {
            rho_out[idx] = self.mom.get(cid);
            for a in 0..L::D {
                u_out[idx][a] = self.mom.get((1 + a) * nf + cid);
            }
        }
        (rho_out, u_out)
    }

    /// `M`, the fluid count, the traffic tally, and the compacted moments.
    fn write_state(&self, w: &mut CheckpointWriter) {
        w.put_u64(L::M as u64).put_u64(self.index.len() as u64);
        self.ledger.write(w);
        w.put_f64s(&self.mom.snapshot());
    }

    fn read_state(&mut self, r: &mut CheckpointReader) -> Result<(), CheckpointError> {
        r.expect_u64(L::M as u64, "M")?;
        r.expect_u64(self.index.len() as u64, "fluid nodes")?;
        self.ledger.read(r)?;
        let raw = r.take_f64s(self.mom.len())?;
        for (i, v) in raw.iter().enumerate() {
            self.mom.set(i, *v);
        }
        Ok(())
    }

    /// One compacted moment lattice plus the link table — `M·8 + Q·4`
    /// bytes per fluid node.
    fn lattice_bytes(&self) -> usize {
        self.mom.size_bytes() + self.table.size_bytes()
    }

    fn attach_obs(&mut self, obs: Arc<obs::Obs>) {
        self.gpu.set_obs(obs);
    }

    fn attach_trace_ctx(&mut self, ctx: Option<obs::TraceCtx>) {
        self.gpu.set_trace_ctx(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MrSim2D;
    use lbm_core::geometry::NodeType;
    use lbm_core::Simulation;

    fn obstacle_2d() -> Geometry {
        Geometry::walls_y_periodic_x(20, 12).with_cylinder(8.5, 5.5, 2.4)
    }

    fn shear(_x: usize, y: usize, _z: usize) -> (f64, [f64; 3]) {
        (1.0, [0.04 * (y as f64 * 0.55).sin(), 0.0, 0.0])
    }

    /// The tentpole equivalence: sparse MR is bitwise-equal to dense MR on
    /// the shared fluid nodes (pull-form links reproduce the push-form
    /// scatter exactly), for both collision schemes.
    #[test]
    fn bitwise_equal_to_dense_mr_on_obstacle() {
        for scheme in [MrScheme::projective(), MrScheme::recursive::<D2Q9>()] {
            let geom = obstacle_2d();
            let mut dense: MrSim2D<D2Q9> =
                MrSim2D::new(DeviceSpec::v100(), geom.clone(), scheme.clone(), 0.8)
                    .with_cpu_threads(2);
            dense.init_with(shear);
            let mut sparse: SparseMrSim2D =
                SparseMrSim::new(DeviceSpec::v100(), geom, scheme, 0.8).with_cpu_threads(2);
            sparse.init_with(shear);
            dense.run(12);
            sparse.run(12);
            assert_eq!(
                dense.field_checksum(),
                sparse.field_checksum(),
                "sparse MR must be bitwise-equal to dense MR"
            );
        }
    }

    /// The vectorized lane path and the scalar path are bitwise-identical,
    /// and the strict race checker accepts the two-phase schedule.
    #[test]
    fn scalar_and_vectorized_agree() {
        let geom = obstacle_2d();
        let mut fast: SparseMrSim2D = SparseMrSim::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_racecheck_strict()
        .with_cpu_threads(2);
        fast.init_with(shear);
        let mut slow: SparseMrSim2D =
            SparseMrSim::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8)
                .with_scalar_kernels()
                .with_cpu_threads(1);
        slow.init_with(shear);
        fast.run(10);
        slow.run(10);
        assert_eq!(fast.field_checksum(), slow.field_checksum());
    }

    /// The byte ledger: B/F = 2M·8 + Q·4 per fluid update (132 for D2Q9),
    /// and the footprint is exactly (M·8 + Q·4) bytes per fluid node.
    #[test]
    fn measured_bpf_and_footprint_match_model() {
        let geom = obstacle_2d();
        let nf = geom.fluid_count();
        let mut sim: SparseMrSim2D =
            SparseMrSim::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8)
                .with_cpu_threads(2);
        sim.init_with(shear);
        assert_eq!(sim.measured_bpf(), 0.0, "no updates yet — the 0/0 guard");
        sim.run(3);
        assert!(
            (sim.measured_bpf() - 132.0).abs() < 0.5,
            "{}",
            sim.measured_bpf()
        );
        assert_eq!(sim.footprint_bytes(), nf * (6 * 8 + 9 * 4));
    }

    /// 3D sparse MR: B/F = 2·10·8 + 19·4 = 236 on a walled duct.
    #[test]
    fn measured_bpf_3d() {
        let mut g3 = Geometry::new(10, 8, 8, [true, false, false]);
        for z in 0..8 {
            for x in 0..10 {
                g3.set(x, 0, z, NodeType::Wall);
                g3.set(x, 7, z, NodeType::Wall);
            }
        }
        for y in 0..8 {
            for x in 0..10 {
                g3.set(x, y, 0, NodeType::Wall);
                g3.set(x, y, 7, NodeType::Wall);
            }
        }
        let nf = g3.fluid_count();
        let mut sim: SparseMrSim3D =
            SparseMrSim::new(DeviceSpec::mi100(), g3, MrScheme::projective(), 0.8)
                .with_cpu_threads(2);
        sim.init_with(shear);
        sim.run(2);
        assert!(
            (sim.measured_bpf() - 236.0).abs() < 0.5,
            "{}",
            sim.measured_bpf()
        );
        assert_eq!(sim.footprint_bytes(), nf * (10 * 8 + 19 * 4));
    }

    /// LBCK round-trip: a restored run continues bitwise-identically.
    #[test]
    fn checkpoint_roundtrip_is_bitwise() {
        let geom = obstacle_2d();
        let mk = || {
            let mut s: SparseMrSim2D = SparseMrSim::new(
                DeviceSpec::v100(),
                geom.clone(),
                MrScheme::projective(),
                0.8,
            )
            .with_cpu_threads(1);
            s.init_with(shear);
            s
        };
        let mut a = mk();
        a.run(5);
        let snap = a.checkpoint();
        a.run(4);

        let mut b = mk();
        b.restore(&snap).unwrap();
        assert_eq!(b.steps(), 5);
        b.run(4);
        assert_eq!(a.field_checksum(), b.field_checksum());
    }

    /// Typed build errors mirror the ST sparse driver.
    #[test]
    fn try_new_surfaces_typed_errors() {
        let geom = Geometry::channel_2d(12, 8, 0.04);
        let err =
            SparseMrSim::<D2Q9>::try_new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8)
                .err()
                .expect("inlet geometry must be rejected");
        assert!(
            matches!(err, SparseBuildError::UnsupportedNode(_)),
            "{err:?}"
        );
    }
}
