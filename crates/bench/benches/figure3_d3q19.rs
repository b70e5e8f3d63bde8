//! Figure 3 bench: wall time per timestep of the propagation patterns
//! (two-lattice ST/MR-P/MR-R and in-place ST-AA/MR-T) on the D3Q19
//! lattice. See `figure2_d2q9.rs` for caveats.
//!
//! Plain `std::time::Instant` timer (`harness = false`); the workspace is
//! offline and cannot resolve Criterion.

use gpu_sim::efficiency::Pattern;
use gpu_sim::DeviceSpec;
use lbm_bench::{bench_geometry_3d, bench_line, time_iters, TAU};
use lbm_core::collision::Bgk;
use lbm_core::Simulation;
use lbm_gpu::{AaStSim, MrScheme, MrSim3D, StSim};
use lbm_lattice::D3Q19;

const WARMUP: usize = 1;
const ITERS: usize = 5;

fn main() {
    for &(nx, ny, nz) in &[(32usize, 16usize, 16usize), (48, 32, 32)] {
        let nodes = nx * (ny - 2) * (nz - 2);
        for pattern in [
            Pattern::Standard,
            Pattern::MomentProjective,
            Pattern::MomentRecursive,
            Pattern::StandardAa,
            Pattern::MomentTwist,
        ] {
            let id = format!("{}/{nx}x{ny}x{nz}", pattern.label());
            let s = match pattern {
                Pattern::Standard => {
                    let mut sim: StSim<D3Q19, _> = StSim::new(
                        DeviceSpec::v100(),
                        bench_geometry_3d(nx, ny, nz),
                        Bgk::new(TAU),
                    );
                    time_iters(WARMUP, ITERS, || sim.step())
                }
                Pattern::MomentProjective => {
                    let mut sim: MrSim3D<D3Q19> = MrSim3D::new(
                        DeviceSpec::v100(),
                        bench_geometry_3d(nx, ny, nz),
                        MrScheme::projective(),
                        TAU,
                    );
                    time_iters(WARMUP, ITERS, || sim.step())
                }
                Pattern::MomentRecursive => {
                    let mut sim: MrSim3D<D3Q19> = MrSim3D::new(
                        DeviceSpec::v100(),
                        bench_geometry_3d(nx, ny, nz),
                        MrScheme::recursive::<D3Q19>(),
                        TAU,
                    );
                    time_iters(WARMUP, ITERS, || sim.step())
                }
                Pattern::StandardAa => {
                    let mut sim: AaStSim<D3Q19, _> = AaStSim::new(
                        DeviceSpec::v100(),
                        bench_geometry_3d(nx, ny, nz),
                        Bgk::new(TAU),
                    );
                    time_iters(WARMUP, ITERS, || sim.step())
                }
                Pattern::MomentTwist => {
                    let mut sim: MrSim3D<D3Q19> = MrSim3D::new(
                        DeviceSpec::v100(),
                        bench_geometry_3d(nx, ny, nz),
                        MrScheme::projective(),
                        TAU,
                    )
                    .with_twist();
                    time_iters(WARMUP, ITERS, || sim.step())
                }
            };
            bench_line("figure3_d3q19", &id, nodes, s);
        }
    }
}
