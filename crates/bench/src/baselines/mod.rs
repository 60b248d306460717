//! The paper's reference systems and models, kept beside the experiments
//! that use them rather than in the crates the key-holding proxy links:
//!
//! * [`paillier`] — textbook Paillier, the CryptDB/Monomi aggregation scheme
//!   of Table 1, with its [`bigint`] arithmetic and [`prime`] generation, and
//!   [`PaillierCost`], its costs measured once at 2048 bits: Table 1's
//!   Paillier rows and the estimate behind every figure's Paillier row;
//! * [`pipelines`] — the NoEnc reference `baseline_equivalence` and
//!   `differential_exec` check against, and the paper's selectivity rule
//!   ([`row_selected`], stored as a column by [`selection_key`]);
//! * [`cluster_model`] — the paper's 100-core cluster as a makespan over
//!   task times ([`ClusterModel`]), for Figure 7's `model` rows;
//! * [`netmodel`] — the bandwidth + RTT link model of §6.6 (Figure 10a).

pub mod bigint;
pub mod cluster_model;
pub mod netmodel;
pub mod paillier;
pub mod pipelines;
pub mod prime;

pub use bigint::BigUint;
pub use cluster_model::ClusterModel;
pub use netmodel::NetworkModel;
pub use paillier::{PaillierCost, PaillierKeypair, PipelineSum, PAILLIER_BITS};
pub use pipelines::{row_selected, selection_key, NoEncSystem, SELECTION_SCALE};
