//! The paper's reference systems and models, kept beside the experiments
//! that use them rather than in the crates the key-holding proxy links:
//!
//! * [`pipelines`] — the Paillier pipeline Figures 6, 7 and 9a compare Seabed
//!   against, the NoEnc reference `baseline_equivalence` and
//!   `differential_exec` check against, and the paper's selectivity rule
//!   ([`row_selected`], stored as a column by [`selection_key`]);
//! * [`paillier`] — textbook Paillier, the CryptDB/Monomi aggregation scheme
//!   of Table 1, with its [`bigint`] arithmetic and [`prime`] generation;
//! * [`cluster_model`] — the paper's 100-core cluster as a makespan over
//!   task times ([`ClusterModel`]), for Figure 7's `model` rows and the
//!   pipelines' task timing;
//! * [`netmodel`] — the bandwidth + RTT link model of §6.6 (Figure 10a).

pub mod bigint;
pub mod cluster_model;
pub mod netmodel;
pub mod paillier;
pub mod pipelines;
pub mod prime;

pub use bigint::BigUint;
pub use cluster_model::{ClusterModel, StageTimes};
pub use netmodel::NetworkModel;
pub use paillier::PaillierKeypair;
pub use pipelines::{row_selected, selection_key, NoEncSystem, PaillierSystem, SELECTION_SCALE};
