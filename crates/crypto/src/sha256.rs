//! SHA-256 and HMAC-SHA-256.
//!
//! Section 3.1 of the paper offers two instantiations of ASHE's PRF: a
//! cryptographic hash (`F_k(i) = H(i || k) mod n`, modeled as a random
//! oracle) or AES used as a pseudo-random permutation. This module provides
//! the hash-based option plus HMAC, which is also used to derive per-column
//! sub-keys from the tenant's master key.

use crate::aes::hw::wipe;

/// SHA-256 round constants.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98,
    0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8,
    0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds more data into the hasher.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        while data.len() >= 64 {
            let block: [u8; 64] = data[..64].try_into().unwrap();
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros up to the last 8 bytes of a block, then the
        // 64-bit message length — spilling into a second block if needed.
        let mut block = self.buffer;
        block[self.buffer_len] = 0x80;
        block[self.buffer_len + 1..].fill(0);
        if self.buffer_len + 1 > 56 {
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Overwrites the chaining state and the buffered input.
    fn wipe(&mut self) {
        wipe(&mut self.state);
        wipe(&mut self.buffer);
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// A keyed HMAC-SHA-256 instance: the key's inner and outer pads are hashed
/// once, at construction, and each [`HmacSha256::mac`] resumes from those two
/// midstates — two compressions saved per short message, no allocation. The
/// midstates are as good as the key, so they are wiped on drop.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Absorbs `key` (hashed first if longer than one block, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut pad = [0u8; 64];
        if key.len() > 64 {
            pad[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            pad[..key.len()].copy_from_slice(key);
        }
        let mut mac = HmacSha256 {
            inner: Sha256::new(),
            outer: Sha256::new(),
        };
        pad.iter_mut().for_each(|b| *b ^= 0x36);
        mac.inner.update(&pad);
        pad.iter_mut().for_each(|b| *b ^= 0x36 ^ 0x5c);
        mac.outer.update(&pad);
        wipe(&mut pad);
        mac
    }

    /// `HMAC(key, message)`.
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

impl Drop for HmacSha256 {
    fn drop(&mut self) {
        self.inner.wipe();
        self.outer.wipe();
    }
}

/// One-shot HMAC-SHA-256.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacSha256::new(key).mac(message)
}

/// Derives a 16-byte sub-key from a master key and a label, via HMAC.
///
/// Seabed chooses "a different secret key k for each new column" (§4.2); the
/// key store derives those column keys deterministically from one master key
/// so that only a single secret needs to be provisioned at the client proxy.
pub fn derive_key_128(master: &[u8], label: &str) -> [u8; 16] {
    let digest = hmac_sha256(master, label.as_bytes());
    digest[..16].try_into().unwrap()
}

/// Derives a 32-byte sub-key from a master key and a label, via HMAC.
pub fn derive_key_256(master: &[u8], label: &str) -> [u8; 32] {
    hmac_sha256(master, label.as_bytes())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Renders a digest as lowercase hex; exposed for tests and diagnostics.
pub fn digest_hex(data: &[u8]) -> String {
    hex(&Sha256::digest(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            digest_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            digest_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            digest_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_input_vector() {
        // One million 'a' characters.
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let oneshot = Sha256::digest(&data);
        let mut h = Sha256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn hmac_rfc4231_case1() {
        let key = [0x0b; 20];
        let msg = b"Hi There";
        assert_eq!(
            hex(&hmac_sha256(&key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        let key = b"Jefe";
        let msg = b"what do ya want for nothing?";
        assert_eq!(
            hex(&hmac_sha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_long_key_is_hashed() {
        let key = vec![0xaa; 131];
        let msg = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex(&hmac_sha256(&key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// A keyed instance (pads hashed once, reused across messages) is RFC
    /// 2104 spelled out, across the padding boundaries (55/56 and 63/64
    /// message bytes) and the long-key rule.
    #[test]
    fn keyed_instance_matches_rfc2104_at_padding_boundaries() {
        for key_len in [0usize, 16, 64, 65, 131] {
            let key = vec![0x5a; key_len];
            let mac = HmacSha256::new(&key);
            for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 200] {
                let message: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let mut pad = [0u8; 64];
                if key_len > 64 {
                    pad[..32].copy_from_slice(&Sha256::digest(&key));
                } else {
                    pad[..key_len].copy_from_slice(&key);
                }
                let mut inner = Sha256::new();
                inner.update(&pad.map(|b| b ^ 0x36));
                inner.update(&message);
                let mut outer = Sha256::new();
                outer.update(&pad.map(|b| b ^ 0x5c));
                outer.update(&inner.finalize());
                assert_eq!(mac.mac(&message), outer.finalize(), "key {key_len} message {len}");
            }
        }
    }

    #[test]
    fn derived_keys_differ_by_label() {
        let master = b"master-secret";
        assert_ne!(derive_key_128(master, "col:a"), derive_key_128(master, "col:b"));
        assert_eq!(derive_key_128(master, "col:a"), derive_key_128(master, "col:a"));
    }
}
