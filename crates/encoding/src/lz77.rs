//! LZ77 match finding with hash chains.
//!
//! The compressor has two profiles mirroring the "Deflate (fast)" and
//! "Deflate (compact)" configurations compared in Figure 8 of the paper:
//! the fast profile bounds the number of hash-chain probes per position, the
//! compact profile searches much deeper and enables lazy matching.
//!
//! Most inputs are the few-hundred-byte ID lists of selective queries, so
//! what a call touches is sized to its input: the chain heads (`Heads`) in
//! a table of about two slots per input byte, the `prev` links in a
//! per-thread buffer that only ever grows. Which matches are found does not
//! depend on either — the tests hold the tokens to those of a fresh 32 Ki-slot
//! direct table.

/// Size of the sliding window (32 KiB, as in DEFLATE).
pub const WINDOW_SIZE: usize = 32 * 1024;
/// Minimum match length worth emitting.
pub const MIN_MATCH: usize = 3;
/// Maximum match length.
pub const MAX_MATCH: usize = 258;

/// One LZ77 token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference: copy `length` bytes starting `distance` bytes back.
    Match {
        /// Number of bytes to copy (MIN_MATCH..=MAX_MATCH).
        length: u16,
        /// Distance back into the already-produced output (1..=WINDOW_SIZE).
        distance: u16,
    },
}

/// Compression effort profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Profile {
    /// Maximum hash-chain positions examined per input position.
    pub max_chain: usize,
    /// Stop searching once a match at least this long is found.
    pub good_match: usize,
    /// Whether to defer emitting a match by one byte if the next position has
    /// a longer one (lazy matching).
    pub lazy: bool,
}

impl Profile {
    /// Fast profile: shallow search, no lazy matching ("Deflate (fast)").
    pub const FAST: Profile = Profile {
        max_chain: 8,
        good_match: 32,
        lazy: false,
    };
    /// Compact profile: deep search with lazy matching ("Deflate (compact)").
    pub const COMPACT: Profile = Profile {
        max_chain: 256,
        good_match: MAX_MATCH,
        lazy: true,
    };
}

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// "No position" in the hash chains; block positions stay below it.
const NO_POS: u32 = u32::MAX;

fn hash3(data: &[u8], pos: usize) -> u32 {
    let a = data[pos] as u32;
    let b = data[pos + 1] as u32;
    let c = data[pos + 2] as u32;
    ((a << 16) ^ (b << 8) ^ c).wrapping_mul(2654435761) >> (32 - HASH_BITS)
}

/// What the match finder asks of the heads of its hash chains: the latest
/// position inserted under each hash, [`NO_POS`] for a hash not seen yet.
trait ChainHeads {
    /// The latest position inserted under `hash`.
    fn get(&self, hash: u32) -> u32;
    /// Makes `pos` the latest position under `hash`; returns the one before.
    fn replace(&mut self, hash: u32, pos: u32) -> u32;
}

/// The heads of the hash chains, in a table sized to the input and cleared
/// at the start of every [`tokenize`] call: open addressing with linear
/// probing, keyed by the whole 15-bit hash, so it answers exactly what a
/// direct table of all 32 Ki hashes would. An input of `n` bytes inserts at
/// most `n` hashes into `clamp(next_pow2(2n), 64, 32 Ki)` slots — at most half
/// full, and at 32 Ki slots every hash has its own slot and no probe ever
/// moves, which *is* the direct table. The hundred-byte ID lists most queries
/// answer with therefore touch a few KB that stay in L1, where a 256 KB table
/// was evicted by every scan between two calls and missed on every probe.
#[derive(Default)]
struct Heads {
    /// (hash, position); an empty slot holds [`NO_POS`].
    slots: Vec<(u32, u32)>,
}

impl Heads {
    /// Starts a call over `len` bytes of input: every hash reads as unseen.
    fn begin(&mut self, len: usize) {
        let slots = len.saturating_mul(2).next_power_of_two().clamp(64, HASH_SIZE);
        self.slots.clear();
        self.slots.resize(slots, (0, NO_POS));
    }

    /// The slot `hash` lives in, or the empty one it would take.
    fn slot_of(&self, hash: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while self.slots[at].1 != NO_POS && self.slots[at].0 != hash {
            at = (at + 1) & mask;
        }
        at
    }
}

impl ChainHeads for Heads {
    fn get(&self, hash: u32) -> u32 {
        self.slots[self.slot_of(hash)].1
    }

    fn replace(&mut self, hash: u32, pos: u32) -> u32 {
        let at = self.slot_of(hash);
        std::mem::replace(&mut self.slots[at], (hash, pos)).1
    }
}

/// The match finder's tables, kept per thread from one [`tokenize`] call to
/// the next so that a call allocates nothing but its tokens.
struct Scratch {
    heads: Heads,
    /// Previous position with the same hash. Only ever read at positions
    /// `insert` has written, so it needs no particular initial value.
    prev: Vec<u32>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = const {
        std::cell::RefCell::new(Scratch {
            heads: Heads { slots: Vec::new() },
            prev: Vec::new(),
        })
    };
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, at most
/// `max_len` (`a < b` and `b + max_len <= data.len()`), eight bytes at a time.
fn common_prefix(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let (x, y) = (&data[a..a + max_len], &data[b..b + max_len]);
    let mut len = 0usize;
    for (cx, cy) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let diff = u64::from_le_bytes(cx.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(cy.try_into().expect("8-byte chunk"));
        if diff != 0 {
            return len + diff.trailing_zeros() as usize / 8;
        }
        len += 8;
    }
    while len < max_len && x[len] == y[len] {
        len += 1;
    }
    len
}

struct Matcher<'a, H> {
    data: &'a [u8],
    heads: &'a mut H,
    prev: &'a mut [u32],
}

impl<H: ChainHeads> Matcher<'_, H> {
    fn insert(&mut self, pos: usize) {
        if pos + MIN_MATCH > self.data.len() {
            return;
        }
        self.prev[pos] = self.heads.replace(hash3(self.data, pos), pos as u32);
    }

    /// Finds the longest match for the data at `pos`, returning (length, distance).
    fn find_match(&self, pos: usize, profile: &Profile) -> Option<(usize, usize)> {
        if pos + MIN_MATCH > self.data.len() {
            return None;
        }
        let mut candidate = self.heads.get(hash3(self.data, pos));
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let max_len = MAX_MATCH.min(self.data.len() - pos);
        let mut chain = 0;
        while candidate != NO_POS && chain < profile.max_chain {
            let cand = candidate as usize;
            if pos - cand > WINDOW_SIZE {
                break;
            }
            // Only a candidate that also matches one byte past the best
            // so far can beat it.
            if cand < pos && self.data[cand + best_len] == self.data[pos + best_len] {
                let len = common_prefix(self.data, cand, pos, max_len);
                if len > best_len {
                    best_len = len;
                    best_dist = pos - cand;
                    if len >= profile.good_match || len == max_len {
                        break;
                    }
                }
            }
            candidate = self.prev[cand];
            chain += 1;
        }
        if best_len >= MIN_MATCH {
            Some((best_len, best_dist))
        } else {
            None
        }
    }
}

/// Tokenizes `data` into LZ77 literals and matches.
pub fn tokenize(data: &[u8], profile: &Profile) -> Vec<Token> {
    SCRATCH.with(|scratch| {
        let Scratch { heads, prev } = &mut *scratch.borrow_mut();
        heads.begin(data.len());
        tokenize_with(data, profile, heads, prev)
    })
}

/// [`tokenize`] over the given (cleared) chain heads and `prev` scratch.
fn tokenize_with<H: ChainHeads>(data: &[u8], profile: &Profile, heads: &mut H, prev: &mut Vec<u32>) -> Vec<Token> {
    assert!(data.len() < NO_POS as usize, "a block holds less than 4 GiB");
    if prev.len() < data.len() {
        prev.resize(data.len(), 0);
    }
    let mut tokens = Vec::with_capacity(data.len() / 2 + 16);
    let mut matcher = Matcher {
        data,
        heads,
        prev: &mut prev[..data.len()],
    };
    let mut pos = 0usize;
    while pos < data.len() {
        let current = matcher.find_match(pos, profile);
        let mut emit = current;
        if profile.lazy {
            if let Some((len, _)) = current {
                // Peek at the next position: if it has a strictly longer
                // match, emit this byte as a literal instead.
                matcher.insert(pos);
                if pos + 1 < data.len() {
                    if let Some((next_len, _)) = matcher.find_match(pos + 1, profile) {
                        if next_len > len {
                            emit = None;
                        }
                    }
                }
                match emit {
                    None => {
                        tokens.push(Token::Literal(data[pos]));
                        pos += 1;
                        continue;
                    }
                    Some((len, dist)) => {
                        for p in pos + 1..(pos + len).min(data.len()) {
                            matcher.insert(p);
                        }
                        tokens.push(Token::Match {
                            length: len as u16,
                            distance: dist as u16,
                        });
                        pos += len;
                        continue;
                    }
                }
            }
        }
        match emit {
            Some((len, dist)) => {
                for p in pos..(pos + len).min(data.len()) {
                    matcher.insert(p);
                }
                tokens.push(Token::Match {
                    length: len as u16,
                    distance: dist as u16,
                });
                pos += len;
            }
            None => {
                matcher.insert(pos);
                tokens.push(Token::Literal(data[pos]));
                pos += 1;
            }
        }
    }
    tokens
}

/// Appends the `length` bytes that start `distance` bytes before the end of
/// `out` — the copy may run into the bytes it is appending, which is how a
/// short pattern repeats. `None`, with `out` untouched, when `distance` is
/// zero or reaches back past the start of `out`.
pub fn copy_match(out: &mut Vec<u8>, length: usize, distance: usize) -> Option<()> {
    let start = out.len().checked_sub(distance)?;
    if distance == 0 {
        return None;
    }
    if distance >= length {
        out.extend_from_within(start..start + length);
    } else {
        out.reserve(length);
        for i in start..start + length {
            let byte = out[i];
            out.push(byte);
        }
    }
    Some(())
}

/// Reconstructs the original bytes from a token stream; `None` if a match
/// points before the start of the output (no [`tokenize`] output does).
pub fn detokenize(tokens: &[Token]) -> Option<Vec<u8>> {
    let mut out: Vec<u8> = Vec::new();
    for token in tokens {
        match *token {
            Token::Literal(b) => out.push(b),
            Token::Match { length, distance } => copy_match(&mut out, length as usize, distance as usize)?,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], profile: &Profile) {
        let tokens = tokenize(data, profile);
        assert_eq!(detokenize(&tokens).as_deref(), Some(data));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for profile in [Profile::FAST, Profile::COMPACT] {
            roundtrip(b"", &profile);
            roundtrip(b"a", &profile);
            roundtrip(b"ab", &profile);
            roundtrip(b"abc", &profile);
        }
    }

    #[test]
    fn repetitive_data_produces_matches() {
        let data: Vec<u8> = b"seabed".iter().cycle().take(3000).cloned().collect();
        let tokens = tokenize(&data, &Profile::COMPACT);
        assert!(
            tokens.len() < 100,
            "expected heavy matching, got {} tokens",
            tokens.len()
        );
        assert_eq!(detokenize(&tokens).as_deref(), Some(&data[..]));
    }

    #[test]
    fn overlapping_match_copy() {
        // "aaaaa..." forces distance-1 matches with overlapping copies.
        let data = vec![b'a'; 1000];
        for profile in [Profile::FAST, Profile::COMPACT] {
            roundtrip(&data, &profile);
        }
    }

    #[test]
    fn random_like_data_roundtrips() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for profile in [Profile::FAST, Profile::COMPACT] {
            roundtrip(&data, &profile);
        }
    }

    #[test]
    fn compact_never_worse_than_fast_on_structured_data() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(format!("row-{},value-{};", i % 50, i % 7).as_bytes());
        }
        let fast = tokenize(&data, &Profile::FAST);
        let compact = tokenize(&data, &Profile::COMPACT);
        assert!(compact.len() <= fast.len());
        assert_eq!(detokenize(&fast).as_deref(), Some(&data[..]));
        assert_eq!(detokenize(&compact).as_deref(), Some(&data[..]));
    }

    /// The table this module shipped before the heads were sized to the
    /// input: one slot for each of the 32 Ki hashes, kept as the oracle.
    struct DirectHeads(Vec<u32>);

    impl DirectHeads {
        fn new() -> DirectHeads {
            DirectHeads(vec![NO_POS; HASH_SIZE])
        }
    }

    impl ChainHeads for DirectHeads {
        fn get(&self, hash: u32) -> u32 {
            self.0[hash as usize]
        }

        fn replace(&mut self, hash: u32, pos: u32) -> u32 {
            std::mem::replace(&mut self.0[hash as usize], pos)
        }
    }

    /// The tokens a fresh direct table and a fresh `prev` give.
    fn tokenize_direct(data: &[u8], profile: &Profile) -> Vec<Token> {
        tokenize_with(data, profile, &mut DirectHeads::new(), &mut Vec::new())
    }

    /// Sized heads ≡ the direct 32 Ki table, token for token, at both
    /// profiles: lengths from nothing to past the window (so every table
    /// size from 64 slots to the full 32 Ki is met, growing and shrinking
    /// from one call to the next on this thread's scratch), alphabets from
    /// one symbol (one hash, long chains) to 200, and the `gap, 0, gap, 0`
    /// shape of a `RangesVbDiff` body of single-row runs.
    #[test]
    fn sized_heads_make_the_decisions_of_the_direct_table() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1277);
        let mut sizes_seen = std::collections::BTreeSet::new();
        for round in 0..3_200u32 {
            // Mostly short (the ID lists of selective queries), sometimes long.
            let len = match round % 64 {
                0 => rng.random_range(0..40_000usize),
                1..=6 => rng.random_range(0..5_000usize),
                _ => rng.random_range(0..400usize),
            };
            let alphabet = rng.random_range(1..201u32);
            let data: Vec<u8> = if round % 3 == 0 {
                // Gaps between selected rows, each followed by a zero span;
                // a gap over 127 takes two bytes.
                let mut body = Vec::with_capacity(len + 2);
                while body.len() < len {
                    crate::varint::encode_u64(1 + rng.random_range(0..alphabet as u64 * 2), &mut body);
                    body.push(0);
                }
                body.truncate(len);
                body
            } else {
                (0..len).map(|_| rng.random_range(0..alphabet) as u8).collect()
            };
            let mut heads = Heads::default();
            heads.begin(data.len());
            sizes_seen.insert(heads.slots.len());
            for profile in [Profile::FAST, Profile::COMPACT] {
                let expected = tokenize_direct(&data, &profile);
                assert_eq!(
                    tokenize(&data, &profile),
                    expected,
                    "round {round}: {len} bytes of {alphabet}"
                );
                assert_eq!(detokenize(&expected).as_deref(), Some(&data[..]));
            }
        }
        let expected_sizes: Vec<usize> = (6..=HASH_BITS).map(|bits| 1 << bits).collect();
        assert_eq!(sizes_seen.into_iter().collect::<Vec<_>>(), expected_sizes);
    }

    /// The word-at-a-time prefix length ≡ the byte loop it replaced, at
    /// every offset of the first difference against every limit.
    #[test]
    fn common_prefix_matches_the_byte_loop() {
        let bytewise = |data: &[u8], a: usize, b: usize, max_len: usize| {
            let mut len = 0usize;
            while len < max_len && data[a + len] == data[b + len] {
                len += 1;
            }
            len
        };
        for same in 0..40usize {
            for gap in [1usize, 2, 7, 8, 9] {
                // Two copies of a pattern `gap` apart, differing after `same` bytes.
                let mut data: Vec<u8> = (0..gap + 48).map(|i| (i % gap) as u8).collect();
                if gap + same < data.len() {
                    data[gap + same] ^= 0x40;
                }
                for max_len in 0..=data.len() - gap {
                    assert_eq!(
                        common_prefix(&data, 0, gap, max_len),
                        bytewise(&data, 0, gap, max_len),
                        "same {same}, gap {gap}, limit {max_len}"
                    );
                }
            }
        }
    }

    /// The per-thread scratch changes nothing a fresh table would decide:
    /// not after other (longer and shorter) inputs went through it, not from
    /// one thread to another.
    #[test]
    fn reused_head_table_makes_the_decisions_of_a_fresh_one() {
        let a: Vec<u8> = (0..6000u32).map(|i| (i.wrapping_mul(2654435761) >> 29) as u8).collect();
        let b: Vec<u8> = (0..4000u32)
            .map(|i| ((i / 3).wrapping_mul(40503) >> 13) as u8 & 7)
            .collect();
        for profile in [Profile::FAST, Profile::COMPACT] {
            let fresh = tokenize_direct(&b, &profile);
            assert!(fresh.iter().any(|t| matches!(t, Token::Match { .. })));

            tokenize(&a, &profile);
            assert_eq!(tokenize(&b, &profile), fresh, "after a longer input");
            tokenize(&b[..100], &profile);
            assert_eq!(tokenize(&b, &profile), fresh, "after a shorter input");
            let b = b.clone();
            let elsewhere = std::thread::spawn(move || tokenize(&b, &profile)).join().unwrap();
            assert_eq!(elsewhere, fresh, "another thread's table");
        }
    }

    #[test]
    fn copy_match_refuses_to_reach_before_the_output() {
        let mut out = b"abc".to_vec();
        assert_eq!(copy_match(&mut out, 3, 4), None);
        assert_eq!(copy_match(&mut out, 3, 0), None);
        assert_eq!(out, b"abc");
        assert_eq!(copy_match(&mut out, 2, 3), Some(()));
        assert_eq!(copy_match(&mut out, 5, 1), Some(()));
        assert_eq!(out, b"abcabbbbbb");
        let reaching_back = [Token::Literal(b'x'), Token::Match { length: 3, distance: 2 }];
        assert_eq!(detokenize(&reaching_back), None);
    }

    #[test]
    fn max_match_length_respected() {
        let data = vec![b'x'; 10_000];
        let tokens = tokenize(&data, &Profile::COMPACT);
        for t in &tokens {
            if let Token::Match { length, .. } = t {
                assert!(*length as usize <= MAX_MATCH);
            }
        }
        assert_eq!(detokenize(&tokens).as_deref(), Some(&data[..]));
    }
}
