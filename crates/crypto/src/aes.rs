//! AES-128 / AES-256 block cipher (encryption direction) and CTR keystream.
//!
//! Seabed evaluates its pseudo-random function `F_k` with hardware AES — that
//! is why ASHE encrypts at memory speed (§4.3) — and so does this module.
//! Every cipher instance picks one of two kernels when its key is scheduled:
//!
//! * **hardware** (`hw`): AES-NI through `std::arch::x86_64`, eight blocks
//!   in flight per round so the `aesenc` pipeline stays full. Selected
//!   whenever the CPU reports the `aes` feature. Constant-time: no
//!   secret-dependent memory access or branch.
//! * **portable** (`portable`): the word-sliced software kernel, four
//!   blocks per sweep. The fallback on every other machine. It indexes the
//!   S-box with secret bytes, so it is *not* constant-time on a CPU with a
//!   data cache; a constant-time portable kernel is still open (ROADMAP 4b).
//!
//! The choice is made from the CPU alone ([`aes_backend`] names it); there is
//! no feature flag, environment variable or configuration field. Both kernels
//! produce the FIPS-197 cipher bit for bit — the unit tests pin them to each
//! other, to the byte-wise textbook cipher kept as the test oracle, and to
//! the FIPS vectors — so ciphertexts, tags and frames do not depend on which
//! one ran.
//!
//! Round keys live in a fixed array inside the cipher (no heap), and are
//! overwritten with volatile writes when the cipher is dropped; that covers
//! [`AesCtr`] and, through it, the PRF, DET, ORE and ASHE schemes.

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9,
    0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f,
    0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07,
    0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3,
    0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58,
    0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3,
    0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f,
    0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88,
    0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac,
    0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a,
    0xae, 0x08, 0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70,
    0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf, 0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42,
    0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the key schedule.
const RCON: [u8; 11] = [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Expands a 16- or 32-byte key into `N = rounds + 1` round keys.
fn key_expansion<const N: usize>(key: &[u8]) -> [[u8; 16]; N] {
    let nk = key.len() / 4;
    let mut round_keys = [[0u8; 16]; N];
    // Word `i` of the schedule is bytes `4(i % 4)..` of round key `i / 4`.
    let word = |keys: &[[u8; 16]; N], i: usize| -> [u8; 4] {
        keys[i / 4][4 * (i % 4)..4 * (i % 4) + 4]
            .try_into()
            .expect("4-byte schedule word")
    };
    for (i, bytes) in key.chunks_exact(4).enumerate() {
        round_keys[i / 4][4 * (i % 4)..4 * (i % 4) + 4].copy_from_slice(bytes);
    }
    for i in nk..4 * N {
        let mut temp = word(&round_keys, i - 1);
        if i % nk == 0 {
            temp.rotate_left(1);
            temp = temp.map(|b| SBOX[b as usize]);
            temp[0] ^= RCON[i / nk];
        } else if nk > 6 && i % nk == 4 {
            temp = temp.map(|b| SBOX[b as usize]);
        }
        let prev = word(&round_keys, i - nk);
        for (j, (p, t)) in prev.iter().zip(temp).enumerate() {
            round_keys[i / 4][4 * (i % 4) + j] = p ^ t;
        }
    }
    round_keys
}

/// Which kernel a cipher instance dispatches to; fixed when its key is
/// scheduled.
#[derive(Clone, Copy)]
enum Backend {
    #[cfg(target_arch = "x86_64")]
    Hardware(hw::AesNi),
    Portable,
}

impl Backend {
    fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        if let Some(aesni) = hw::AesNi::detect() {
            return Backend::Hardware(aesni);
        }
        Backend::Portable
    }
}

/// Name of the AES kernel this machine's ciphers run on: `"aes-ni"` or
/// `"portable"`. Recorded in benchmark metadata so a runner that silently
/// fell back to software is visible in its results.
pub fn aes_backend() -> &'static str {
    match Backend::detect() {
        #[cfg(target_arch = "x86_64")]
        Backend::Hardware(_) => "aes-ni",
        Backend::Portable => "portable",
    }
}

/// An expanded key: `N = rounds + 1` round keys plus the kernel they feed.
#[derive(Clone)]
struct Schedule<const N: usize> {
    round_keys: [[u8; 16]; N],
    backend: Backend,
}

impl<const N: usize> Schedule<N> {
    fn new(key: &[u8]) -> Self {
        Schedule {
            round_keys: key_expansion(key),
            backend: Backend::detect(),
        }
    }

    fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Hardware(aesni) => aesni.encrypt_blocks(&self.round_keys, blocks),
            Backend::Portable => portable::encrypt_blocks(&self.round_keys, blocks),
        }
    }

    fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = [*block];
        self.encrypt_blocks(&mut out);
        out[0]
    }
}

impl<const N: usize> Drop for Schedule<N> {
    fn drop(&mut self) {
        hw::wipe(&mut self.round_keys);
    }
}

/// Everything in the crypto crate that needs `unsafe`: the AES-NI kernel and
/// the volatile wipe of key material. Safe wrappers only leave this module.
#[allow(unsafe_code)]
pub(crate) mod hw {
    use std::sync::atomic::{compiler_fence, Ordering};

    /// Overwrites `secret` with default (zero) values using volatile writes
    /// the optimizer may not elide, then fences so they are not reordered
    /// past the end of the owner's `Drop`.
    pub fn wipe<T: Copy + Default>(secret: &mut [T]) {
        for item in secret.iter_mut() {
            // SAFETY: `item` is a valid, aligned, exclusive reference, and
            // `T: Copy` has no drop glue for the overwritten value to skip.
            unsafe { std::ptr::write_volatile(item, T::default()) };
        }
        compiler_fence(Ordering::SeqCst);
    }

    #[cfg(target_arch = "x86_64")]
    pub(crate) use x86::AesNi;

    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use std::arch::x86_64::{
            __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128, _mm_xor_si128,
        };

        /// Blocks advanced together through each round: `aesenc` has a
        /// latency of several cycles and a throughput of one or two per
        /// cycle, so eight independent states keep the unit busy.
        const LANES: usize = 8;

        /// Proof that this CPU has AES-NI: the only constructor is
        /// [`AesNi::detect`], so holding a value makes the kernel safe to call.
        #[derive(Clone, Copy)]
        pub(crate) struct AesNi(());

        impl AesNi {
            pub(crate) fn detect() -> Option<AesNi> {
                (is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2")).then_some(AesNi(()))
            }

            /// Encrypts `blocks` in place under the `N` round keys.
            pub(crate) fn encrypt_blocks<const N: usize>(self, round_keys: &[[u8; 16]; N], blocks: &mut [[u8; 16]]) {
                // SAFETY: an `AesNi` exists only if `detect` saw the `aes`
                // and `sse2` CPU features the callee is compiled for.
                unsafe { encrypt_blocks(round_keys, blocks) }
            }
        }

        #[inline(always)]
        fn load(block: &[u8; 16]) -> __m128i {
            // SAFETY: `block` is 16 readable bytes and `_mm_loadu_si128` has
            // no alignment requirement; SSE2 is baseline on x86_64.
            unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
        }

        #[inline(always)]
        fn store(block: &mut [u8; 16], value: __m128i) {
            // SAFETY: `block` is 16 writable bytes and `_mm_storeu_si128` has
            // no alignment requirement; SSE2 is baseline on x86_64.
            unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), value) }
        }

        #[target_feature(enable = "aes,sse2")]
        fn encrypt_blocks<const N: usize>(round_keys: &[[u8; 16]; N], blocks: &mut [[u8; 16]]) {
            let keys = round_keys.each_ref().map(load);
            let (wide, tail) = blocks.as_chunks_mut::<LANES>();
            for chunk in wide {
                encrypt_lanes(&keys, chunk);
            }
            for block in tail {
                encrypt_lanes(&keys, std::array::from_mut(block));
            }
        }

        /// `L` blocks through all rounds together, states held in registers.
        #[target_feature(enable = "aes,sse2")]
        #[inline]
        fn encrypt_lanes<const N: usize, const L: usize>(keys: &[__m128i; N], blocks: &mut [[u8; 16]; L]) {
            let mut state = [keys[0]; L];
            for (lane, block) in state.iter_mut().zip(blocks.iter()) {
                *lane = _mm_xor_si128(load(block), keys[0]);
            }
            for key in &keys[1..N - 1] {
                for lane in state.iter_mut() {
                    *lane = _mm_aesenc_si128(*lane, *key);
                }
            }
            for (lane, block) in state.iter().zip(blocks.iter_mut()) {
                store(block, _mm_aesenclast_si128(*lane, keys[N - 1]));
            }
        }
    }
}

/// The portable kernel: word-sliced software AES. Each lane's state is four
/// packed `u32` columns held in registers for the whole round sweep,
/// SubBytes and ShiftRows are fused into diagonal S-box gathers, and
/// MixColumns is rotate/xor word arithmetic. Four independent lanes advance
/// together so their S-box loads interleave.
mod portable {
    use super::SBOX;

    const LANES: usize = 4;

    pub(super) fn encrypt_blocks<const N: usize>(round_keys: &[[u8; 16]; N], blocks: &mut [[u8; 16]]) {
        let (wide, tail) = blocks.as_chunks_mut::<LANES>();
        for chunk in wide {
            encrypt_lanes(round_keys, chunk);
        }
        for block in tail {
            encrypt_lanes(round_keys, std::array::from_mut(block));
        }
    }

    /// The state is column-major in memory (`state[4c + r]`), so each 4-byte
    /// slice loads as one packed column with row `r` at bits `8r`.
    #[inline]
    fn columns(block: &[u8; 16]) -> [u32; 4] {
        std::array::from_fn(|c| u32::from_le_bytes(block[4 * c..4 * c + 4].try_into().expect("4-byte column")))
    }

    /// Doubles every byte of a packed column in GF(2^8), reducing each byte
    /// that overflows by the AES polynomial.
    #[inline]
    fn xtime_word(w: u32) -> u32 {
        ((w & 0x7f7f_7f7f) << 1) ^ (((w >> 7) & 0x0101_0101).wrapping_mul(0x1b))
    }

    /// Fused SubBytes + ShiftRows for output column `c` of state `s`: row
    /// `r` comes from row `r` of input column `(c + r) % 4`.
    #[inline]
    fn sub_shift_word(s: &[u32; 4], c: usize) -> u32 {
        (SBOX[(s[c] & 0xff) as usize] as u32)
            | (SBOX[((s[(c + 1) % 4] >> 8) & 0xff) as usize] as u32) << 8
            | (SBOX[((s[(c + 2) % 4] >> 16) & 0xff) as usize] as u32) << 16
            | (SBOX[((s[(c + 3) % 4] >> 24) & 0xff) as usize] as u32) << 24
    }

    /// MixColumns on one packed column. With bytes `a0..a3` packed
    /// little-endian, `2·a` is [`xtime_word`], `3·a` is `xtime_word(a) ^ a`,
    /// and each byte rotation aligns the neighbour terms, giving
    /// `b_i = 2·a_i ^ 3·a_{i+1} ^ a_{i+2} ^ a_{i+3}` for all four bytes.
    #[inline]
    fn mix_word(a: u32) -> u32 {
        let x = xtime_word(a);
        x ^ (x ^ a).rotate_right(8) ^ a.rotate_right(16) ^ a.rotate_right(24)
    }

    #[inline]
    fn encrypt_lanes<const N: usize, const L: usize>(round_keys: &[[u8; 16]; N], blocks: &mut [[u8; 16]; L]) {
        let mut lanes = [[0u32; 4]; L];
        let key = columns(&round_keys[0]);
        for (lane, block) in lanes.iter_mut().zip(blocks.iter()) {
            let state = columns(block);
            *lane = std::array::from_fn(|c| state[c] ^ key[c]);
        }
        for round_key in &round_keys[1..N - 1] {
            let key = columns(round_key);
            for lane in lanes.iter_mut() {
                let s = *lane;
                *lane = std::array::from_fn(|c| mix_word(sub_shift_word(&s, c)) ^ key[c]);
            }
        }
        let key = columns(&round_keys[N - 1]);
        for (lane, block) in lanes.iter().zip(blocks.iter_mut()) {
            for c in 0..4 {
                block[4 * c..4 * c + 4].copy_from_slice(&(sub_shift_word(lane, c) ^ key[c]).to_le_bytes());
            }
        }
    }
}

/// AES-128 block cipher (encryption direction only; Seabed uses AES as a PRF
/// in counter mode, so the inverse cipher is never needed).
#[derive(Clone)]
pub struct Aes128 {
    schedule: Schedule<{ Aes128::ROUNDS + 1 }>,
}

impl Aes128 {
    /// Number of rounds for AES-128.
    pub const ROUNDS: usize = 10;

    /// Creates a cipher from a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        Aes128 {
            schedule: Schedule::new(key),
        }
    }

    /// Encrypts a single 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        self.schedule.encrypt_block(block)
    }

    /// Encrypts many blocks in place with one kernel dispatch: the round loop
    /// runs outside the block loop (8 lanes at a time in hardware, 4 in the
    /// portable kernel), so independent blocks' rounds overlap. Produces
    /// exactly the same bytes as [`Aes128::encrypt_block`] per block.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        self.schedule.encrypt_blocks(blocks);
    }
}

/// AES-256 block cipher (encryption direction only).
#[derive(Clone)]
pub struct Aes256 {
    schedule: Schedule<{ Aes256::ROUNDS + 1 }>,
}

impl Aes256 {
    /// Number of rounds for AES-256.
    pub const ROUNDS: usize = 14;

    /// Creates a cipher from a 32-byte key.
    pub fn new(key: &[u8; 32]) -> Self {
        Aes256 {
            schedule: Schedule::new(key),
        }
    }

    /// Encrypts a single 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        self.schedule.encrypt_block(block)
    }

    /// Batched counterpart of [`Aes256::encrypt_block`]; see
    /// [`Aes128::encrypt_blocks`] for the kernel shape.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        self.schedule.encrypt_blocks(blocks);
    }
}

/// AES-128 in counter mode.
///
/// This is the workhorse primitive of Seabed's client: one AES-CTR block
/// yields 128 pseudo-random bits, which the encryption module splits into two
/// 64-bit (or four 32-bit) masks — the "one AES operation generates multiple
/// ciphertexts" optimisation of Section 4.3.
#[derive(Clone)]
pub struct AesCtr {
    cipher: Aes128,
    nonce: u64,
}

impl AesCtr {
    /// Creates a CTR keystream with the given key and 64-bit nonce.
    pub fn new(key: &[u8; 16], nonce: u64) -> Self {
        AesCtr::with_cipher(Aes128::new(key), nonce)
    }

    /// A CTR keystream over an already-expanded cipher: a new nonce costs a
    /// copy of the round keys, not a key expansion.
    pub(crate) fn with_cipher(cipher: Aes128, nonce: u64) -> Self {
        AesCtr { cipher, nonce }
    }

    fn counter_block(&self, counter: u64) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&self.nonce.to_be_bytes());
        block[8..].copy_from_slice(&counter.to_be_bytes());
        block
    }

    /// Returns the 128-bit keystream block for counter value `counter`.
    pub fn keystream_block(&self, counter: u64) -> [u8; 16] {
        self.cipher.encrypt_block(&self.counter_block(counter))
    }

    /// Returns two 64-bit pseudo-random words from a single AES operation.
    pub fn keystream_u64x2(&self, counter: u64) -> [u64; 2] {
        block_words(&self.keystream_block(counter))
    }

    /// Fills `out` with the keystream blocks for consecutive counters
    /// `counter, counter + 1, …` (wrapping), encrypted in one batched kernel
    /// dispatch instead of one per block. Identical output to calling
    /// [`AesCtr::keystream_block`] per counter.
    pub fn keystream_blocks(&self, counter: u64, out: &mut [[u8; 16]]) {
        for (i, block) in out.iter_mut().enumerate() {
            *block = self.counter_block(counter.wrapping_add(i as u64));
        }
        self.cipher.encrypt_blocks(out);
    }

    /// Fills `out[i]` with the keystream block of `counters[i]` — arbitrary,
    /// not consecutive — in one batched kernel dispatch. Identical output to
    /// calling [`AesCtr::keystream_block`] per counter.
    pub fn keystream_blocks_at(&self, counters: &[u64], out: &mut [[u8; 16]]) {
        assert_eq!(counters.len(), out.len(), "one output block per counter");
        for (block, &counter) in out.iter_mut().zip(counters) {
            *block = self.counter_block(counter);
        }
        self.cipher.encrypt_blocks(out);
    }

    /// XORs the keystream into `data`, starting at block `counter` and
    /// advancing with wrapping counters like [`AesCtr::keystream_blocks`],
    /// which it dispatches through a few blocks at a time. Returns the number
    /// of blocks consumed.
    pub fn xor_keystream(&self, counter: u64, data: &mut [u8]) -> u64 {
        const BLOCKS: usize = 8;
        let mut keystream = [[0u8; 16]; BLOCKS];
        for (i, chunk) in data.chunks_mut(16 * BLOCKS).enumerate() {
            let keystream = &mut keystream[..chunk.len().div_ceil(16)];
            self.keystream_blocks(counter.wrapping_add((i * BLOCKS) as u64), keystream);
            for (byte, key) in chunk.iter_mut().zip(keystream.as_flattened()) {
                *byte ^= *key;
            }
        }
        data.len().div_ceil(16) as u64
    }
}

/// Both big-endian 64-bit words of a keystream block.
pub(crate) fn block_words(block: &[u8; 16]) -> [u64; 2] {
    [
        u64::from_be_bytes(block[..8].try_into().expect("8-byte half")),
        u64::from_be_bytes(block[8..].try_into().expect("8-byte half")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-wise textbook cipher (FIPS-197 §5.1, one state byte at a
    /// time): the oracle both production kernels are pinned against.
    mod reference {
        use super::super::SBOX;

        fn xtime(b: u8) -> u8 {
            (b << 1) ^ (((b >> 7) & 1).wrapping_mul(0x1b))
        }

        fn add_round_key(state: &mut [u8; 16], round_key: &[u8; 16]) {
            for (s, k) in state.iter_mut().zip(round_key) {
                *s ^= *k;
            }
        }

        fn sub_bytes(state: &mut [u8; 16]) {
            for b in state.iter_mut() {
                *b = SBOX[*b as usize];
            }
        }

        fn shift_rows(state: &mut [u8; 16]) {
            // state is column-major: state[4*c + r]
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[4 * c + r] = s[4 * ((c + r) % 4) + r];
                }
            }
        }

        fn mix_columns(state: &mut [u8; 16]) {
            for c in 0..4 {
                let [a0, a1, a2, a3]: [u8; 4] = state[4 * c..4 * c + 4].try_into().unwrap();
                state[4 * c] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
                state[4 * c + 1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
                state[4 * c + 2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
                state[4 * c + 3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
            }
        }

        pub fn encrypt_block<const N: usize>(round_keys: &[[u8; 16]; N], block: &[u8; 16]) -> [u8; 16] {
            let mut state = *block;
            add_round_key(&mut state, &round_keys[0]);
            for round_key in &round_keys[1..N - 1] {
                sub_bytes(&mut state);
                shift_rows(&mut state);
                mix_columns(&mut state);
                add_round_key(&mut state, round_key);
            }
            sub_bytes(&mut state);
            shift_rows(&mut state);
            add_round_key(&mut state, &round_keys[N - 1]);
            state
        }
    }

    /// Runs `blocks` through the three kernels directly — byte-wise
    /// reference, portable, and (where the CPU has it) hardware — and checks
    /// that they agree; returns the common output.
    fn all_kernels<const N: usize>(key: &[u8], blocks: &[[u8; 16]]) -> Vec<[u8; 16]> {
        let round_keys: [[u8; 16]; N] = key_expansion(key);
        let expected: Vec<[u8; 16]> = blocks
            .iter()
            .map(|b| reference::encrypt_block(&round_keys, b))
            .collect();
        let mut portable = blocks.to_vec();
        portable::encrypt_blocks(&round_keys, &mut portable);
        assert_eq!(portable, expected, "portable kernel, {} blocks", blocks.len());
        #[cfg(target_arch = "x86_64")]
        if let Some(aesni) = hw::AesNi::detect() {
            let mut hardware = blocks.to_vec();
            aesni.encrypt_blocks(&round_keys, &mut hardware);
            assert_eq!(hardware, expected, "hardware kernel, {} blocks", blocks.len());
        }
        expected
    }

    const FIPS_PLAINTEXT: [u8; 16] = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff,
    ];

    // FIPS-197 Appendix C.1 test vector, through every kernel and the front door.
    #[test]
    fn aes128_fips_vector() {
        let key: [u8; 16] = std::array::from_fn(|i| i as u8);
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a,
        ];
        assert_eq!(all_kernels::<11>(&key, &[FIPS_PLAINTEXT]), [expected]);
        assert_eq!(Aes128::new(&key).encrypt_block(&FIPS_PLAINTEXT), expected);
    }

    // FIPS-197 Appendix C.3 test vector (AES-256).
    #[test]
    fn aes256_fips_vector() {
        let key: [u8; 32] = std::array::from_fn(|i| i as u8);
        let expected: [u8; 16] = [
            0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49, 0x60, 0x89,
        ];
        assert_eq!(all_kernels::<15>(&key, &[FIPS_PLAINTEXT]), [expected]);
        assert_eq!(Aes256::new(&key).encrypt_block(&FIPS_PLAINTEXT), expected);
    }

    // FIPS-197 Appendix B vector (different key/plaintext pair).
    #[test]
    fn aes128_appendix_b_vector() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
        ];
        let plaintext: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34,
        ];
        let expected: [u8; 16] = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32,
        ];
        assert_eq!(all_kernels::<11>(&key, &[plaintext]), [expected]);
        assert_eq!(Aes128::new(&key).encrypt_block(&plaintext), expected);
    }

    proptest! {
        /// Hardware ≡ portable ≡ byte-wise reference over random keys, at
        /// every batch length across the 4- and 8-lane chunk boundaries, and
        /// the public front door agrees with whichever kernel it selected.
        #[test]
        fn kernels_agree_at_every_batch_length(
            key128 in any::<[u8; 16]>(),
            key256 in any::<[u8; 32]>(),
            seed in any::<[u8; 16]>(),
        ) {
            let blocks: Vec<[u8; 16]> = (0..33u8)
                .map(|i| std::array::from_fn(|j| seed[j].wrapping_mul(i | 1).wrapping_add(i ^ j as u8)))
                .collect();
            let (aes128, aes256) = (Aes128::new(&key128), Aes256::new(&key256));
            for len in 0..=blocks.len() {
                let expected = all_kernels::<11>(&key128, &blocks[..len]);
                let mut batched = blocks[..len].to_vec();
                aes128.encrypt_blocks(&mut batched);
                prop_assert_eq!(batched, expected);

                let expected = all_kernels::<15>(&key256, &blocks[..len]);
                let mut batched = blocks[..len].to_vec();
                aes256.encrypt_blocks(&mut batched);
                prop_assert_eq!(batched, expected);
            }
        }
    }

    #[test]
    fn backend_name_matches_the_cpu() {
        #[cfg(target_arch = "x86_64")]
        let expected = if hw::AesNi::detect().is_some() {
            "aes-ni"
        } else {
            "portable"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let expected = "portable";
        assert_eq!(aes_backend(), expected);
    }

    #[test]
    fn wipe_zeroes_every_element() {
        let mut round_keys = [[0xa5u8; 16]; 11];
        hw::wipe(&mut round_keys);
        assert_eq!(round_keys, [[0u8; 16]; 11]);
        let mut words = [0xdead_beefu32; 8];
        hw::wipe(&mut words);
        assert_eq!(words, [0u32; 8]);
    }

    #[test]
    fn ctr_is_deterministic_and_counter_dependent() {
        let ctr = AesCtr::new(&[7u8; 16], 42);
        assert_eq!(ctr.keystream_block(0), ctr.keystream_block(0));
        assert_ne!(ctr.keystream_block(0), ctr.keystream_block(1));
        let other = AesCtr::new(&[8u8; 16], 42);
        assert_ne!(ctr.keystream_block(0), other.keystream_block(0));
    }

    #[test]
    fn ctr_two_words_per_block() {
        let ctr = AesCtr::new(&[1u8; 16], 0);
        let [a, b] = ctr.keystream_u64x2(5);
        let block = ctr.keystream_block(5);
        assert_eq!(a, u64::from_be_bytes(block[..8].try_into().unwrap()));
        assert_eq!(b, u64::from_be_bytes(block[8..].try_into().unwrap()));
    }

    #[test]
    fn keystream_blocks_matches_per_counter_blocks() {
        let ctr = AesCtr::new(&[9u8; 16], 0x5eab_ed00);
        for (start, len) in [(0u64, 0usize), (7, 1), (100, 5), (u64::MAX - 2, 6)] {
            let mut run = vec![[0u8; 16]; len];
            ctr.keystream_blocks(start, &mut run);
            for (i, block) in run.iter().enumerate() {
                assert_eq!(
                    *block,
                    ctr.keystream_block(start.wrapping_add(i as u64)),
                    "start={start} i={i}"
                );
            }
        }
    }

    #[test]
    fn keystream_blocks_at_matches_per_counter_blocks() {
        let ctr = AesCtr::new(&[9u8; 16], 0x5eab_ed00);
        let counters: Vec<u64> = (0..19u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        for len in [0usize, 1, 8, 9, 19] {
            let mut out = vec![[0u8; 16]; len];
            ctr.keystream_blocks_at(&counters[..len], &mut out);
            for (block, &counter) in out.iter().zip(&counters) {
                assert_eq!(*block, ctr.keystream_block(counter), "counter={counter}");
            }
        }
    }

    #[test]
    fn ctr_xor_roundtrip() {
        let ctr = AesCtr::new(&[3u8; 16], 99);
        let mut data = b"seabed encrypts big data fast!!".to_vec();
        let original = data.clone();
        assert_eq!(ctr.xor_keystream(0, &mut data), 2);
        assert_ne!(data, original);
        ctr.xor_keystream(0, &mut data);
        assert_eq!(data, original);
    }

    /// The keystream counter wraps like `keystream_blocks`' does (it used to
    /// overflow-panic in debug builds), at every length across the internal
    /// 8-block dispatch and a ragged last block.
    #[test]
    fn ctr_xor_wraps_the_counter_and_matches_per_block_keystream() {
        let ctr = AesCtr::new(&[0x1fu8; 16], 7);
        let start = u64::MAX - 1;
        for len in [0usize, 1, 16, 17, 48, 128, 129, 200] {
            let mut data = vec![0u8; len];
            assert_eq!(ctr.xor_keystream(start, &mut data), len.div_ceil(16) as u64);
            for (i, chunk) in data.chunks(16).enumerate() {
                let block = ctr.keystream_block(start.wrapping_add(i as u64));
                assert_eq!(chunk, &block[..chunk.len()], "len={len} block={i}");
            }
        }
    }
}
