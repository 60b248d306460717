//! Key management for the Seabed client proxy.
//!
//! Seabed chooses "a different secret key k for each new column" (§4.2). The
//! proxy holds a single tenant master key and derives every column key from it
//! with HMAC-based key derivation, so provisioning stays simple and revoking a
//! user never requires re-encrypting data (the proxy mediates all queries and
//! never shares the derived keys, §4.3).

use seabed_crypto::{derive_key_128, derive_key_256, wipe};

/// The proxy's key store: one master secret, many derived column keys. The
/// master secret is overwritten when the store is dropped.
#[derive(Clone)]
pub struct KeyStore {
    master: Vec<u8>,
}

impl Drop for KeyStore {
    fn drop(&mut self) {
        wipe(&mut self.master[..]);
    }
}

impl KeyStore {
    /// Creates a key store from a master secret.
    pub fn new(master: &[u8]) -> KeyStore {
        KeyStore {
            master: master.to_vec(),
        }
    }

    /// ASHE key for a measure column.
    pub fn ashe_key(&self, column: &str) -> [u8; 16] {
        derive_key_128(&self.master, &format!("ashe:{column}"))
    }

    /// Deterministic-encryption key for a dimension column.
    pub fn det_key(&self, column: &str) -> [u8; 32] {
        derive_key_256(&self.master, &format!("det:{column}"))
    }

    /// ORE key for an order-encrypted column.
    pub fn ope_key(&self, column: &str) -> [u8; 16] {
        derive_key_128(&self.master, &format!("ope:{column}"))
    }

    /// ASHE key for one splayed measure column of a SPLASHE dimension.
    pub fn splashe_measure_key(&self, dimension: &str, measure: &str, slot: usize) -> [u8; 16] {
        derive_key_128(&self.master, &format!("splashe:{dimension}:{measure}:{slot}"))
    }

    /// ASHE key for one splayed indicator column of a SPLASHE dimension.
    pub fn splashe_indicator_key(&self, dimension: &str, slot: usize) -> [u8; 16] {
        derive_key_128(&self.master, &format!("splashe-ind:{dimension}:{slot}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_keys_are_deterministic_and_distinct() {
        let ks = KeyStore::new(b"tenant-master-secret");
        assert_eq!(ks.ashe_key("salary"), ks.ashe_key("salary"));
        assert_ne!(ks.ashe_key("salary"), ks.ashe_key("bonus"));
        assert_ne!(ks.ashe_key("salary")[..], ks.ope_key("salary")[..]);
        assert_ne!(ks.det_key("country"), ks.det_key("city"));
        assert_ne!(
            ks.splashe_measure_key("country", "salary", 0),
            ks.splashe_measure_key("country", "salary", 1)
        );
        assert_ne!(
            ks.splashe_indicator_key("country", 0),
            ks.splashe_measure_key("country", "salary", 0)
        );
    }

    #[test]
    fn different_masters_give_different_keys() {
        let a = KeyStore::new(b"master-a");
        let b = KeyStore::new(b"master-b");
        assert_ne!(a.ashe_key("salary"), b.ashe_key("salary"));
    }
}
