//! FPGA resource and power models for the ONE-SA reproduction.
//!
//! The paper evaluates ONE-SA on a Xilinx Virtex-7 XC7VX485T and reports
//! per-module resource costs (Table I), whole-array costs for three sizes
//! (Table II), resource scaling across PE/MAC counts (Fig 9) and power
//! from the Xilinx Power Estimator (Fig 10, Table IV). This crate
//! reproduces all of those numbers with a *structural* model:
//!
//! * per-module cost sheets anchored exactly on Table I
//!   ([`modules`]);
//! * an array roll-up `D²·PE + 3·L3 + overhead(D)` whose
//!   interconnect/L2/controller overhead is fitted through the three
//!   published design points, reproducing Table II to the unit
//!   ([`mod@array`]);
//! * MAC-count scaling laws for Fig 9 ([`modules`]);
//! * an XPE-style power model calibrated to the published 7.61 W at the
//!   64-PE × 16-MAC design point ([`power`]).
//!
//! # Example
//!
//! ```
//! use onesa_resources::{array::ArrayResources, Design};
//!
//! let model = ArrayResources::calibrated();
//! let cost = model.total(Design::OneSa, 8, 16);
//! assert_eq!(cost.ff, 213_042); // Table II, 8×8 ONE-SA
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
mod fit;
pub mod modules;
pub mod power;

pub use modules::{Design, ModuleCost};
