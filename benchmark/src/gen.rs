//! Seeded generation of plaintext tables and operation lists.
//!
//! Everything the benchmark feeds the program is made here from `--seed`:
//! the same seed gives the same tables, the same operations in the same
//! order, and therefore the same byte counts, cache hits and PRF
//! evaluations. The generator is self-contained (SplitMix64-seeded
//! xoshiro256**) so a change to the workspace's vendored `rand` cannot move
//! the inputs under a later PR's feet.

/// Number of distinct `tag` values in every table.
pub const TAGS: u64 = 16;
/// Seconds per `hour` bucket; `hour = ts / HOUR_SECS` in every table.
pub const HOUR_SECS: u64 = 3_600;

/// xoshiro256** seeded through SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that tables, hot
    /// sets and per-segment operation lists never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut state = seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
        let mut s = [0u64; 4];
        for slot in &mut s {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *slot = z ^ (z >> 31);
        }
        Rng { s }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is far below
    /// anything a workload mix can see.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The text form of tag number `i` (`t00` … `t15`).
pub fn tag_name(i: u64) -> String {
    format!("t{i:02}")
}

/// How rows are laid out in upload order, which decides how fragmented the
/// ID lists of a selection are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `ts` ascending, `tag` in runs of 32 rows: a time window or an hour
    /// selects a few long runs of consecutive row IDs.
    TimeOrdered,
    /// `ts` and `tag` uniformly random per row: every selection is a
    /// fragmented ID list (the §6.4 / Fig. 8 regime).
    Shuffled,
}

/// One plaintext table. All workloads share this schema:
/// `hour` public u64, `tag` DET text, `ts` ORE u64, `m0`/`m1` ASHE measures.
#[derive(Clone, Debug)]
pub struct PlainTable {
    /// Table name (the `FROM` name).
    pub name: String,
    /// `ts / HOUR_SECS`.
    pub hour: Vec<u64>,
    /// Tag number, `0..TAGS`.
    pub tag: Vec<u64>,
    /// Event time in seconds, `0..hours * HOUR_SECS`.
    pub ts: Vec<u64>,
    /// First measure.
    pub m0: Vec<u64>,
    /// Second measure.
    pub m1: Vec<u64>,
}

impl PlainTable {
    /// Generates `rows` rows spanning `hours` hour buckets.
    pub fn generate(name: &str, rows: usize, hours: u64, layout: Layout, rng: &mut Rng) -> PlainTable {
        let span = hours * HOUR_SECS;
        let mut ts: Vec<u64> = match layout {
            Layout::Shuffled => (0..rows).map(|_| rng.below(span)).collect(),
            // Evenly spaced with a little jitter, so hours hold equal row
            // counts and windows cut at predictable places.
            Layout::TimeOrdered => (0..rows as u64)
                .map(|i| {
                    let step = span / rows as u64;
                    i * step + rng.below(step.max(1))
                })
                .collect(),
        };
        if layout == Layout::TimeOrdered {
            ts.sort_unstable();
        }
        let tag = match layout {
            Layout::Shuffled => (0..rows).map(|_| rng.below(TAGS)).collect(),
            Layout::TimeOrdered => (0..rows as u64).map(|i| (i / 32) % TAGS).collect(),
        };
        PlainTable {
            name: name.to_string(),
            hour: ts.iter().map(|t| t / HOUR_SECS).collect(),
            tag,
            ts,
            m0: (0..rows).map(|_| rng.below(100_000)).collect(),
            m1: (0..rows).map(|_| rng.below(1_000)).collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.ts.len()
    }

    /// Size of the plaintext in bytes: four 8-byte integers and a 3-byte tag
    /// per row (the denominator of `stored_bytes_per_plain_byte`).
    pub fn plain_bytes(&self) -> u64 {
        self.rows() as u64 * (4 * 8 + 3)
    }
}

/// A filterable column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Col {
    /// The public hour bucket.
    Hour,
    /// The DET-encrypted tag.
    Tag,
    /// The ORE-encrypted timestamp.
    Ts,
}

impl Col {
    /// SQL column name.
    pub fn name(self) -> &'static str {
        match self {
            Col::Hour => "hour",
            Col::Tag => "tag",
            Col::Ts => "ts",
        }
    }
}

/// A comparison in a `WHERE` conjunct.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `=`
    Eq,
    /// `>=`
    Ge,
    /// `<`
    Lt,
}

impl Cmp {
    fn symbol(self) -> &'static str {
        match self {
            Cmp::Eq => "=",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
        }
    }
}

/// An aggregate of the `SELECT` list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Agg {
    /// `SUM(m0)`
    SumM0,
    /// `SUM(m1)`
    SumM1,
    /// `COUNT(*)`
    Count,
}

impl Agg {
    fn sql(self) -> &'static str {
        match self {
            Agg::SumM0 => "SUM(m0)",
            Agg::SumM1 => "SUM(m1)",
            Agg::Count => "COUNT(*)",
        }
    }
}

/// The shape of a statement: everything but the literals.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Table read.
    pub table: String,
    /// Aggregates, in `SELECT` order.
    pub aggs: Vec<Agg>,
    /// Conjuncts, in `WHERE` order; each takes one literal.
    pub preds: Vec<(Col, Cmp)>,
    /// Optional single grouping column (`Hour` or `Tag`).
    pub group: Option<Col>,
}

impl Shape {
    /// A shape over `table`.
    pub fn new(table: &str, aggs: &[Agg], preds: &[(Col, Cmp)], group: Option<Col>) -> Shape {
        Shape {
            table: table.to_string(),
            aggs: aggs.to_vec(),
            preds: preds.to_vec(),
            group,
        }
    }

    /// SQL text with `?` placeholders (`literals = None`) or with the
    /// literals written inline. Tag literals are quoted tag names.
    pub fn sql(&self, literals: Option<&[u64]>) -> String {
        let mut select: Vec<String> = self.group.iter().map(|g| g.name().to_string()).collect();
        select.extend(self.aggs.iter().map(|a| a.sql().to_string()));
        let mut sql = format!("SELECT {} FROM {}", select.join(", "), self.table);
        for (i, (col, cmp)) in self.preds.iter().enumerate() {
            sql.push_str(if i == 0 { " WHERE " } else { " AND " });
            let literal = match literals {
                None => "?".to_string(),
                Some(values) if *col == Col::Tag => format!("'{}'", tag_name(values[i])),
                Some(values) => values[i].to_string(),
            };
            sql.push_str(&format!("{} {} {}", col.name(), cmp.symbol(), literal));
        }
        if let Some(group) = self.group {
            sql.push_str(&format!(" GROUP BY {}", group.name()));
        }
        sql
    }
}

/// One query operation: a statement shape plus this execution's literals
/// (one per conjunct; a tag literal is the tag number).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryOp {
    /// Index into the workload's statement shapes.
    pub shape: usize,
    /// Literal per conjunct.
    pub literals: Vec<u64>,
    /// True for the recurring bindings of a hot set (expected cache hits).
    pub hot: bool,
}

/// 64-bit FNV-1a over a stream of words: the operation-list fingerprint the
/// determinism tests compare and `results.json` records.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes one word in.
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Mixes a list of query operations in.
    pub fn ops(&mut self, ops: &[QueryOp]) {
        for op in ops {
            self.word(op.shape as u64);
            self.word(u64::from(op.hot));
            for literal in &op.literals {
                self.word(*literal);
            }
        }
    }

    /// Mixes a plaintext table in.
    pub fn table(&mut self, table: &PlainTable) {
        for column in [&table.hour, &table.tag, &table.ts, &table.m0, &table.m1] {
            for value in column {
                self.word(*value);
            }
        }
    }

    /// The fingerprint so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_table_and_different_seed_differs() {
        let make = |seed| {
            let mut fp = Fingerprint::default();
            fp.table(&PlainTable::generate(
                "t",
                500,
                8,
                Layout::Shuffled,
                &mut Rng::new(seed, 1),
            ));
            fp.value()
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7), make(8));
    }

    #[test]
    fn time_ordered_tables_are_sorted_and_hours_follow_ts() {
        let table = PlainTable::generate("t", 1_000, 10, Layout::TimeOrdered, &mut Rng::new(3, 1));
        assert!(table.ts.windows(2).all(|w| w[0] <= w[1]));
        assert!(table
            .ts
            .iter()
            .zip(&table.hour)
            .all(|(ts, hour)| ts / HOUR_SECS == *hour));
        assert!(table.hour.iter().all(|h| *h < 10));
        assert!(table.tag.iter().all(|t| *t < TAGS));
    }

    #[test]
    fn sql_renders_placeholders_and_inline_literals() {
        let shape = Shape::new(
            "dash",
            &[Agg::SumM0, Agg::Count],
            &[(Col::Tag, Cmp::Eq), (Col::Ts, Cmp::Ge), (Col::Ts, Cmp::Lt)],
            Some(Col::Hour),
        );
        assert_eq!(
            shape.sql(None),
            "SELECT hour, SUM(m0), COUNT(*) FROM dash WHERE tag = ? AND ts >= ? AND ts < ? GROUP BY hour"
        );
        assert_eq!(
            shape.sql(Some(&[3, 10, 20])),
            "SELECT hour, SUM(m0), COUNT(*) FROM dash WHERE tag = 't03' AND ts >= 10 AND ts < 20 GROUP BY hour"
        );
    }
}
