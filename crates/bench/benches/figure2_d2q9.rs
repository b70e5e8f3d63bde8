//! Figure 2 bench: wall time per timestep of the propagation patterns
//! (two-lattice ST/MR-P/MR-R and in-place ST-AA/MR-T) on the D2Q9
//! lattice, over a range of problem sizes.
//!
//! The substrate's wall-clock MFLUPS is CPU-bound and not comparable to the
//! paper's GPU numbers; the *ratios* between patterns reflect arithmetic
//! and access-structure differences, while the bandwidth-bound projection
//! printed by `reproduce figure2` reflects the paper's memory argument.
//!
//! Plain `std::time::Instant` timer (`harness = false`); the workspace is
//! offline and cannot resolve Criterion.

use gpu_sim::efficiency::Pattern;
use gpu_sim::DeviceSpec;
use lbm_bench::{bench_geometry_2d, bench_line, time_iters, TAU};
use lbm_core::collision::Bgk;
use lbm_core::Simulation;
use lbm_gpu::{AaStSim, MrScheme, MrSim2D, StSim};
use lbm_lattice::D2Q9;

const WARMUP: usize = 2;
const ITERS: usize = 10;

fn main() {
    for &(nx, ny) in &[(128usize, 64usize), (256, 128)] {
        let nodes = nx * (ny - 2);
        for pattern in [
            Pattern::Standard,
            Pattern::MomentProjective,
            Pattern::MomentRecursive,
            Pattern::StandardAa,
            Pattern::MomentTwist,
        ] {
            let id = format!("{}/{nx}x{ny}", pattern.label());
            let s = match pattern {
                Pattern::Standard => {
                    let mut sim: StSim<D2Q9, _> =
                        StSim::new(DeviceSpec::v100(), bench_geometry_2d(nx, ny), Bgk::new(TAU));
                    time_iters(WARMUP, ITERS, || sim.step())
                }
                Pattern::MomentProjective => {
                    let mut sim: MrSim2D<D2Q9> = MrSim2D::new(
                        DeviceSpec::v100(),
                        bench_geometry_2d(nx, ny),
                        MrScheme::projective(),
                        TAU,
                    );
                    time_iters(WARMUP, ITERS, || sim.step())
                }
                Pattern::MomentRecursive => {
                    let mut sim: MrSim2D<D2Q9> = MrSim2D::new(
                        DeviceSpec::v100(),
                        bench_geometry_2d(nx, ny),
                        MrScheme::recursive::<D2Q9>(),
                        TAU,
                    );
                    time_iters(WARMUP, ITERS, || sim.step())
                }
                Pattern::StandardAa => {
                    let mut sim: AaStSim<D2Q9, _> =
                        AaStSim::new(DeviceSpec::v100(), bench_geometry_2d(nx, ny), Bgk::new(TAU));
                    time_iters(WARMUP, ITERS, || sim.step())
                }
                Pattern::MomentTwist => {
                    let mut sim: MrSim2D<D2Q9> = MrSim2D::new(
                        DeviceSpec::v100(),
                        bench_geometry_2d(nx, ny),
                        MrScheme::projective(),
                        TAU,
                    )
                    .with_twist();
                    time_iters(WARMUP, ITERS, || sim.step())
                }
            };
            bench_line("figure2_d2q9", &id, nodes, s);
        }
    }
}
