//! Reference lattice Boltzmann solvers and physics.
//!
//! This crate implements the paper's numerics independently of any GPU
//! concern:
//!
//! * [`collision`] — the three collision operators evaluated in the paper:
//!   BGK (eq. 6), projective regularization (eqs. 8–11, "MR-P"), and
//!   recursive regularization (eqs. 12–14, "MR-R"), plus the moment-space
//!   collision (eq. 10) used by the moment-representation kernels.
//! * [`boundary`] — halfway bounce-back walls, moving walls, and the
//!   Latt-2008 finite-difference inlet/outlet conditions the paper uses for
//!   its channel flows.
//! * [`geometry`] — node classification and domain builders (2D/3D channel,
//!   fully periodic box, lid-driven cavity).
//! * [`solver2d`] / [`solver3d`] — the *standard distribution representation*
//!   reference solvers (two lattices, pull scheme — Algorithm 1 of the
//!   paper), parallelized over CPU threads. These are the ground truth the
//!   GPU-substrate kernels are validated against, bit-for-bit up to
//!   floating-point roundoff.
//! * [`analytic`] — closed-form solutions (plane Poiseuille, Taylor–Green
//!   vortex) used by the validation tests and examples.
//! * [`diagnostics`] / [`io`] / [`units`] — observables, field output, and
//!   lattice-unit conversions.
//! * [`sim`] — the [`Simulation`] trait (the uniform driver surface:
//!   step/checkpoint/restore/checksum/observe, consumed by the recovery
//!   loop and the `lbm-serve` fleet scheduler) and the driver shell behind
//!   it: every GPU-substrate driver embeds a [`Shell`] and implements the
//!   [`Driver`] hooks, and one blanket impl makes it a `Simulation`.

#![allow(clippy::needless_range_loop)] // indexed loops are the idiom in stencil kernels
pub mod analytic;
pub mod boundary;
pub mod collision;
pub mod diagnostics;
pub mod geometry;
pub mod io;
pub mod kernels;
pub mod par;
pub mod sim;
pub mod solver;
pub mod solver2d;
pub mod solver3d;
pub mod units;

pub use geometry::{Geometry, NodeType};
pub use sim::{Driver, Shell, Simulation, StepError};
pub use solver::Solver;
pub use solver2d::Solver2D;
pub use solver3d::Solver3D;
