//! The paper's reference systems and models, kept beside the experiments
//! that use them rather than in the crates the key-holding proxy links:
//!
//! * [`pipelines`] — the NoEnc and Paillier pipelines Table 5 and Figures 6,
//!   7, 9a and 10a compare Seabed against, and the paper's selectivity rule
//!   ([`row_selected`]);
//! * [`paillier`] — textbook Paillier, the CryptDB/Monomi aggregation scheme
//!   of Table 1, with its [`bigint`] arithmetic and [`prime`] generation;
//! * [`cluster_model`] — the paper's 100-core cluster as a makespan over
//!   measured task times ([`ClusterModel`]), for the pipelines and Figures
//!   6, 7, 8 and 9a;
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
pub use pipelines::{row_selected, NoEncSystem, PaillierSystem};
