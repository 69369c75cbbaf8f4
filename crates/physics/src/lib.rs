//! Maglev physics substrate for the DHL models.
//!
//! This crate implements the physical models from §III-A, §IV-A and §IV-B of
//! the paper: cart mass budgeting, linear-induction-motor (LIM) acceleration,
//! trapezoidal trip kinematics, Halbach-array levitation with magnetic drag,
//! vacuum-tube aerodynamics, braking alternatives, and active stabilisation.
//!
//! Everything is a pure, deterministic function of its inputs, so the
//! higher-level analytical model (`dhl-core`) and the discrete-event
//! simulator (`dhl-sim`) share one source of physical truth.
//!
//! # Example: the paper's default cart
//!
//! ```rust
//! use dhl_physics::{CartMassModel, LinearInductionMotor, TimeModel, TripKinematics};
//! use dhl_units::{Metres, MetresPerSecond};
//!
//! // 32 × 5.67 g M.2 SSDs + 30 g frame; magnets 10 % and fin 15 % of total.
//! let mass = CartMassModel::paper_default().budget(32).total;
//! assert!((mass.grams() - 281.9).abs() < 0.1); // Table V: 282 g
//!
//! let lim = LinearInductionMotor::paper_default();
//! let v = MetresPerSecond::new(200.0);
//! assert!((lim.length_for(v).value() - 20.0).abs() < 1e-9); // Table V: 20 m
//! assert!((lim.accel_energy(mass, v).kilojoules() - 7.52).abs() < 0.01);
//! assert!((lim.peak_power(mass, v).kilowatts() - 75.2).abs() < 0.1); // Table VI: 75 kW
//!
//! let kin = TripKinematics::new(Metres::new(500.0), v, lim.acceleration()).unwrap();
//! assert!((kin.motion_time(TimeModel::PaperSingleRamp).seconds() - 2.6).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod braking;
mod cart;
mod error;
mod kinematics;
mod levitation;
mod lim;
mod stabilisation;
mod vacuum;

pub use braking::{BrakingSystem, REGEN_RECOVERY_RANGE};
pub use cart::{CartMassBudget, CartMassModel};
pub use error::PhysicsError;
pub use kinematics::{MotionPhases, TimeModel, TripKinematics};
pub use levitation::{LevitationModel, LiftDragCurve};
pub use lim::LinearInductionMotor;
pub use stabilisation::ActiveStabilisation;
pub use vacuum::{VacuumTube, ATMOSPHERIC_PRESSURE_MILLIBAR, SEA_LEVEL_AIR_DENSITY};
