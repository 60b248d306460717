//! LZ77 match finding with hash chains.
//!
//! The compressor has two profiles mirroring the "Deflate (fast)" and
//! "Deflate (compact)" configurations compared in Figure 8 of the paper:
//! the fast profile bounds the number of hash-chain probes per position, the
//! compact profile searches much deeper and enables lazy matching.

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

fn hash3(data: &[u8], pos: usize) -> usize {
    let a = data[pos] as u32;
    let b = data[pos + 1] as u32;
    let c = data[pos + 2] as u32;
    (((a << 16) ^ (b << 8) ^ c).wrapping_mul(2654435761) >> 17) as usize & (HASH_SIZE - 1)
}

const HASH_SIZE: usize = 1 << 15;
/// "No position" in the hash chains; block positions stay below it.
const NO_POS: u32 = u32::MAX;

/// The heads of the hash chains, kept per thread from one [`tokenize`] call
/// to the next. A slot belongs to the running call only if it carries that
/// call's epoch, so starting a call costs an increment rather than a refill
/// of all 32 Ki slots — which would outweigh the matching itself on the
/// hundred-byte ID lists most queries answer with. Stale slots read as empty,
/// so every match decision is what a freshly cleared table would give.
struct Heads {
    epoch: u32,
    /// (epoch the slot was written in, position).
    slots: Vec<(u32, u32)>,
}

impl Heads {
    const fn new() -> Heads {
        Heads {
            epoch: 0,
            slots: Vec::new(),
        }
    }

    /// Starts a call: after this, every slot reads as empty.
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 || self.slots.is_empty() {
            // First use on this thread, or the epochs wrapped around and a
            // slot from 2^32 calls ago could pass for current.
            self.slots.clear();
            self.slots.resize(HASH_SIZE, (0, 0));
            self.epoch = 1;
        }
    }

    fn get(&self, hash: usize) -> u32 {
        let (epoch, pos) = self.slots[hash];
        if epoch == self.epoch {
            pos
        } else {
            NO_POS
        }
    }

    fn set(&mut self, hash: usize, pos: u32) {
        self.slots[hash] = (self.epoch, pos);
    }
}

thread_local! {
    static HEADS: std::cell::RefCell<Heads> = const { std::cell::RefCell::new(Heads::new()) };
}

struct Matcher<'a> {
    data: &'a [u8],
    heads: &'a mut Heads,
    /// Previous position with the same hash. Only ever read at positions
    /// `insert` has written, so it needs no particular initial value.
    prev: Vec<u32>,
}

impl<'a> Matcher<'a> {
    fn new(data: &'a [u8], heads: &'a mut Heads) -> Self {
        assert!(data.len() < NO_POS as usize, "a block holds less than 4 GiB");
        heads.begin();
        Matcher {
            data,
            heads,
            prev: vec![0; data.len()],
        }
    }

    fn insert(&mut self, pos: usize) {
        if pos + MIN_MATCH > self.data.len() {
            return;
        }
        let h = hash3(self.data, pos);
        self.prev[pos] = self.heads.get(h);
        self.heads.set(h, pos as u32);
    }

    /// Finds the longest match for the data at `pos`, returning (length, distance).
    fn find_match(&self, pos: usize, profile: &Profile) -> Option<(usize, usize)> {
        if pos + MIN_MATCH > self.data.len() {
            return None;
        }
        let h = hash3(self.data, pos);
        let mut candidate = self.heads.get(h);
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let max_len = MAX_MATCH.min(self.data.len() - pos);
        let mut chain = 0;
        while candidate != NO_POS && chain < profile.max_chain {
            let cand = candidate as usize;
            if pos - cand > WINDOW_SIZE {
                break;
            }
            if cand < pos {
                let mut len = 0usize;
                while len < max_len && self.data[cand + len] == self.data[pos + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = pos - cand;
                    if len >= profile.good_match {
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
    HEADS.with(|heads| tokenize_with(data, profile, &mut heads.borrow_mut()))
}

fn tokenize_with(data: &[u8], profile: &Profile, heads: &mut Heads) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(data.len() / 2 + 16);
    let mut matcher = Matcher::new(data, heads);
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

    /// The per-thread head table changes nothing a freshly cleared one would
    /// decide: not after other inputs went through it, not across the epoch
    /// wrap-around, not from one thread to another.
    #[test]
    fn reused_head_table_makes_the_decisions_of_a_fresh_one() {
        let a: Vec<u8> = (0..6000u32).map(|i| (i.wrapping_mul(2654435761) >> 29) as u8).collect();
        let b: Vec<u8> = (0..4000u32)
            .map(|i| ((i / 3).wrapping_mul(40503) >> 13) as u8 & 7)
            .collect();
        for profile in [Profile::FAST, Profile::COMPACT] {
            let fresh = tokenize_with(&b, &profile, &mut Heads::new());
            assert!(fresh.iter().any(|t| matches!(t, Token::Match { .. })));

            let mut heads = Heads::new();
            tokenize_with(&a, &profile, &mut heads);
            assert_eq!(tokenize_with(&b, &profile, &mut heads), fresh, "after another input");
            // Slots stamped 1 and 2 are in the table; run the epoch over the
            // top so those numbers come round again.
            heads.epoch = u32::MAX - 1;
            tokenize_with(&a, &profile, &mut heads);
            assert_eq!(heads.epoch, u32::MAX);
            assert_eq!(tokenize_with(&b, &profile, &mut heads), fresh, "across the wrap");
            assert_eq!(heads.epoch, 1);
            assert_eq!(tokenize_with(&b, &profile, &mut heads), fresh, "after the wrap");

            tokenize(&a, &profile);
            assert_eq!(tokenize(&b, &profile), fresh, "this thread's table");
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
