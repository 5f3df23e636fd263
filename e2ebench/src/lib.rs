//! End-to-end benchmark of the State Skip service.
//!
//! Each workload runs against real in-process `ss-server`s over
//! loopback, closed-loop, with every reply verified against an
//! in-process engine run. The untraced pass reports the end-to-end
//! metrics; the traced pass reports where a job's time goes, layer by
//! layer. See `README.md` for the workloads and the metric map.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod inputs;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod verify;

pub use inputs::Workload;
pub use metrics::{Outcome, END_TO_END, PER_LAYER};
pub use run::{run, Args};
