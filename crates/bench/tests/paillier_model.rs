//! The Paillier cost model against Paillier's real sum, at a small modulus.
//!
//! A binary of its own: the check compares two timings taken moments apart,
//! and cargo runs test binaries one after another, so no other test shares
//! the CPU with it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seabed_bench::PaillierCost;

/// The pipeline decrypts to the plaintext sum of its rows, and the model's
/// time for the same work is within a factor of two of the measured one.
#[test]
fn pipeline_sum_decrypts_the_plaintext_sum_and_the_model_predicts_its_time() {
    let mut rng = StdRng::seed_from_u64(3);
    let cost = PaillierCost::measure(&mut rng, 256);
    assert_eq!(cost.bits, 256);
    assert!(cost.add.median < cost.decrypt.median, "{cost:?}");
    let check = cost.pipeline_sum(&mut rng, 4_000);
    assert_eq!(check.sum, check.expected);
    let ratio = check.model_over_measured();
    assert!((0.5..=2.0).contains(&ratio), "model over measured {ratio}: {check:?}");
}
