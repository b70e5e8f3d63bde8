//! The driver shell: every solo and sharded driver reaches the
//! object-safe [`Simulation`] surface through the one blanket impl over
//! `lbm_core::sim::Driver`, and that surface agrees with driving the
//! concrete type directly.

use lbm_mr::gpu::interconnect::LinkError;
use lbm_mr::multi::recovery::step_error_from_link;
use lbm_mr::prelude::*;

/// Every driver's per-update byte ratio is 0 (not NaN) before the first
/// step — `updates` is zero at construction, and the 0/0 would otherwise
/// leak into serve quota math and bench JSON. (The footprint/roofline
/// tables divide only by static nonzero node counts and pattern constants,
/// so drivers are the only 0/0 site.)
#[test]
fn measured_bpf_is_zero_before_first_step_in_every_driver() {
    let geom = Geometry::walls_y_periodic_x(12, 8);
    let st: StSim<D2Q9, _> = StSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8));
    assert_eq!(st.measured_bpf(), 0.0);
    let aa: AaStSim<D2Q9, _> = AaStSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8));
    assert_eq!(aa.measured_bpf(), 0.0);
    let mr2: MrSim2D<D2Q9> = MrSim2D::new(
        DeviceSpec::v100(),
        geom.clone(),
        MrScheme::projective(),
        0.8,
    );
    assert_eq!(mr2.measured_bpf(), 0.0);
    let mut g3 = Geometry::new(8, 6, 6, [true, false, false]);
    for z in 0..6 {
        for x in 0..8 {
            g3.set(x, 0, z, NodeType::Wall);
            g3.set(x, 5, z, NodeType::Wall);
        }
    }
    for y in 0..6 {
        for x in 0..8 {
            g3.set(x, y, 0, NodeType::Wall);
            g3.set(x, y, 5, NodeType::Wall);
        }
    }
    let mr3: MrSim3D<D3Q19> = MrSim3D::new(DeviceSpec::mi100(), g3, MrScheme::projective(), 0.8);
    assert_eq!(mr3.measured_bpf(), 0.0);
    let sp: StSparseSim<D2Q9, _> =
        StSparseSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8));
    assert_eq!(sp.measured_bpf(), 0.0);
    let smr = SparseMrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8);
    assert_eq!(smr.measured_bpf(), 0.0);
}

/// The trait surface drives a driver through a `dyn` object and agrees
/// with driving the concrete type.
#[test]
fn trait_object_drives_st_sim() {
    let geom = Geometry::walls_y_periodic_x(12, 6);
    let mk = || {
        let mut s: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8)).with_cpu_threads(1);
        s.init_with(|x, y, _| (1.0, [0.02 * (y as f64 * 0.7).sin(), 0.01 * x as f64, 0.0]));
        s
    };
    let mut concrete = mk();
    concrete.run(5);

    let mut boxed: Box<dyn Simulation + Send> = Box::new(mk());
    for _ in 0..5 {
        boxed.try_step().unwrap();
    }
    assert_eq!(boxed.steps(), 5);
    assert_eq!(boxed.field_checksum(), concrete.field_checksum());
    assert_eq!(boxed.fluid_nodes(), geom.fluid_count());
    assert_eq!(boxed.footprint_bytes(), concrete.footprint_bytes());
    assert!(boxed.is_healthy());

    // Checkpoint through the trait restores into a fresh boxed sim.
    let snap = boxed.checkpoint();
    let mut fresh: Box<dyn Simulation + Send> = Box::new(mk());
    fresh.restore(&snap).unwrap();
    assert_eq!(fresh.steps(), 5);
    assert_eq!(fresh.field_checksum(), concrete.field_checksum());
}

/// A sharded MR driver behind `dyn Simulation` matches its concrete run.
#[test]
fn trait_object_drives_multi_mr2d() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: MultiMrSim2D<D2Q9> = MultiMrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.9,
            2,
        )
        .with_cpu_threads(1);
        s.init_with(|x, y, _| (1.0, [0.03 * (y as f64 * 0.5).sin(), 0.01 * x as f64, 0.0]));
        s
    };
    let mut concrete = mk();
    concrete.run(4);

    let mut boxed: Box<dyn Simulation + Send> = Box::new(mk());
    for _ in 0..4 {
        boxed.try_step().unwrap();
    }
    assert_eq!(boxed.steps(), 4);
    assert_eq!(boxed.field_checksum(), concrete.field_checksum());
    assert_eq!(boxed.halo_retries(), 0);
}

#[test]
fn link_error_mirrors_into_step_error() {
    let e = step_error_from_link(LinkError::Down {
        from: 0,
        to: 1,
        permanent: true,
    });
    assert!(matches!(
        e,
        StepError::Link {
            from: 0,
            to: 1,
            permanent: true
        }
    ));
    let e = step_error_from_link(LinkError::NoRoute { from: 2, to: 0 });
    assert!(matches!(e, StepError::NoRoute { from: 2, to: 0 }));
}
