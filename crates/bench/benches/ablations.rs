//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **3D tile height** — the paper (§3.2) reports that 3D tiles taller
//!   than one lattice point underperform; in 2D we sweep the tile height.
//! * **Circular shift vs in-place** — Algorithm 2's circular array
//!   shifting vs a plain in-place update (safe under lockstep with 1-row
//!   tiles).
//! * **ST block size** — thread-block size sweep for the bulk kernel.
//! * **Column width** — MR halo overhead shrinks as columns widen.
//!
//! The SoA-vs-AoS layout ablation is analytic (coalescing sectors); its
//! numbers are printed into the log.
//!
//! Plain `std::time::Instant` timer (`harness = false`); the workspace is
//! offline and cannot resolve Criterion.

use gpu_sim::coalesce::{aos_report, soa_report};
use gpu_sim::DeviceSpec;
use lbm_bench::{bench_geometry_2d, bench_line, time_iters, TAU};
use lbm_core::collision::Bgk;
use lbm_core::Simulation;
use lbm_gpu::{MrScheme, MrSim2D, StSim, StSparseSim, StStream};
use lbm_lattice::D2Q9;

const WARMUP: usize = 2;
const ITERS: usize = 10;
const GROUP: &str = "ablations";

fn main() {
    // SoA vs AoS: analytic coalescing report (paper §3.1's layout choice).
    let soa = soa_report(32, 8);
    for q in [9usize, 19, 27] {
        let aos = aos_report(32, 8, q as u64);
        eprintln!(
            "[soa-vs-aos] Q={q}: SoA {:.0}% efficient ({} sectors), AoS {:.0}% ({} sectors)",
            100.0 * soa.efficiency,
            soa.sectors,
            100.0 * aos.efficiency,
            aos.sectors
        );
    }

    let (nx, ny) = (128usize, 64usize);
    let nodes = nx * (ny - 2);

    // Tile height sweep (2D).
    for tile_h in [1usize, 2, 4] {
        let mut sim: MrSim2D<D2Q9> = MrSim2D::with_config(
            DeviceSpec::v100(),
            bench_geometry_2d(nx, ny),
            MrScheme::projective(),
            TAU,
            16,
            tile_h,
            tile_h, // shift ≥ tile_h − 1
        );
        let s = time_iters(WARMUP, ITERS, || sim.step());
        bench_line(GROUP, &format!("tile_height/{tile_h}"), nodes, s);
    }

    // Circular shift vs in-place.
    for (label, shift) in [("shift1", 1usize), ("inplace", 0)] {
        let mut sim: MrSim2D<D2Q9> = MrSim2D::with_config(
            DeviceSpec::v100(),
            bench_geometry_2d(nx, ny),
            MrScheme::projective(),
            TAU,
            16,
            1,
            shift,
        );
        let s = time_iters(WARMUP, ITERS, || sim.step());
        bench_line(GROUP, &format!("circular_shift/{label}"), nodes, s);
    }

    // Pull vs push streaming for ST (paper §3.1).
    for (label, stream) in [("pull", StStream::Pull), ("push", StStream::Push)] {
        let mut sim: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), bench_geometry_2d(nx, ny), Bgk::new(TAU))
                .with_stream(stream);
        let s = time_iters(WARMUP, ITERS, || sim.step());
        bench_line(GROUP, &format!("st_stream/{label}"), nodes, s);
    }

    // Single-lattice circular shift vs double-buffered MR storage.
    for (label, double) in [("single", false), ("double", true)] {
        let mut sim: MrSim2D<D2Q9> = MrSim2D::new(
            DeviceSpec::v100(),
            bench_geometry_2d(nx, ny),
            MrScheme::projective(),
            TAU,
        );
        if double {
            sim = sim.with_double_buffer();
        }
        let s = time_iters(WARMUP, ITERS, || sim.step());
        bench_line(GROUP, &format!("mr_storage/{label}"), nodes, s);
    }

    // Direct vs indirect addressing for ST (Table 3's "direct addressing"
    // qualifier; refs [4], [15]): the sparse variant pays Q·4 B/update for
    // its neighbor links.
    {
        let mut dense: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), bench_geometry_2d(nx, ny), Bgk::new(TAU));
        let s = time_iters(WARMUP, ITERS, || dense.step());
        bench_line(GROUP, "st_addressing/direct", nodes, s);
        let mut sparse: StSparseSim<D2Q9, _> =
            StSparseSim::new(DeviceSpec::v100(), bench_geometry_2d(nx, ny), Bgk::new(TAU));
        let s = time_iters(WARMUP, ITERS, || sparse.step());
        bench_line(GROUP, "st_addressing/indirect", nodes, s);
    }

    // ST block-size sweep.
    for bs in [64usize, 256, 1024] {
        let mut sim: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), bench_geometry_2d(nx, ny), Bgk::new(TAU))
                .with_block_size(bs);
        let s = time_iters(WARMUP, ITERS, || sim.step());
        bench_line(GROUP, &format!("st_block_size/{bs}"), nodes, s);
    }

    // MR column width sweep (halo overhead ∝ 2/width).
    for w in [8usize, 16, 32] {
        let mut sim: MrSim2D<D2Q9> = MrSim2D::with_config(
            DeviceSpec::v100(),
            bench_geometry_2d(nx, ny),
            MrScheme::projective(),
            TAU,
            w,
            1,
            1,
        );
        let s = time_iters(WARMUP, ITERS, || sim.step());
        bench_line(GROUP, &format!("mr_column_width/{w}"), nodes, s);
    }
}
