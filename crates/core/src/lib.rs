//! The paper's primary contribution as a library: the DHL analytical model.
//!
//! - [`DhlConfig`]: a Table V design point (speed, length, cart, LIM,
//!   docking times);
//! - [`LaunchMetrics`]: the §IV-D single-launch metrics — energy, time,
//!   embodied bandwidth, peak power, GB/J efficiency (Table VI left);
//! - [`BulkTransfer`] / [`BulkComparison`]: moving a whole dataset and
//!   comparing against the optical routes A0–C (Table VI right);
//! - [`dse`]: the design-space exploration driver (serial and parallel);
//! - [`cost`]: the Table VIII commodity cost model;
//! - [`crossover`](mod@crossover): the §V-E minimum-specification analysis.
//!
//! # Quickstart
//!
//! ```rust
//! use dhl_core::{BulkComparison, DhlConfig};
//! use dhl_net::route::RouteId;
//! use dhl_units::Bytes;
//!
//! let cfg = DhlConfig::paper_default();
//! let cmp = BulkComparison::evaluate(&cfg, Bytes::from_petabytes(29.0));
//! // Table VI: the default DHL moves 29 PB ~295× faster than one 400 Gb/s
//! // link and ~88× more efficiently than the cross-aisle route C.
//! assert!(cmp.time_speedup > 290.0);
//! assert!(cmp.reduction_vs(RouteId::C) > 85.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod carbon;
pub mod config;
pub mod cost;
pub mod crossover;
pub mod dse;
pub mod fleet;
pub mod launch;
pub mod sensitivity;

pub use bulk::{paper_dataset, BulkComparison, BulkTransfer};
pub use carbon::{annualise, AnnualFootprint, GridModel};
pub use config::DhlConfig;
pub use cost::CostModel;
pub use crossover::{crossover, paper_minimal_dhl, CrossoverPoint};
pub use dse::{paper_table_vi, sweep, sweep_parallel, DsePoint, TABLE_VI_ROWS};
pub use fleet::{per_track_rate, plan_for_bandwidth, CartCostModel, FleetPlan, PipelineModel};
pub use launch::LaunchMetrics;
pub use sensitivity::{
    acceleration_for_peak_power, acceleration_sweep, density_scaling, docking_time_sweep,
};
