//! Metrics layer of the bench harness: the [`Row`] result shape every
//! experiment produces, the [`Timing`] of [`K_RUNS`] runs a timed row carries
//! as medians with their spread, the aligned-table text renderer, and the
//! `BENCH_<name>.json` serialization successive runs diff against. Kept
//! separate from the experiments (which *measure*) and from the
//! [`crate::runner`] (which *selects and drives*), so each layer can change
//! without touching the others.

use crate::baselines::PAILLIER_BITS;
use crate::{Scale, LOCAL_THREADS};
use std::time::Duration;

/// Timed runs behind every timed row, after one discarded warm-up.
pub const K_RUNS: usize = 5;

/// A quantity timed over several runs: its median and quartiles (nearest
/// rank). Ordered by median first, so comparing two spreads compares their
/// medians.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Spread {
    /// The median run.
    pub median: Duration,
    /// The first quartile.
    pub q1: Duration,
    /// The third quartile.
    pub q3: Duration,
}

impl Spread {
    /// The spread of `samples`.
    pub fn of(samples: impl IntoIterator<Item = Duration>) -> Spread {
        let mut sorted: Vec<Duration> = samples.into_iter().collect();
        sorted.sort_unstable();
        let at = |quarter: usize| sorted.get(sorted.len() * quarter / 4).copied().unwrap_or_default();
        Spread {
            median: at(2),
            q1: at(1),
            q3: at(3),
        }
    }

    /// Runs `f` once to warm up, discards it, then times [`K_RUNS`] runs.
    pub fn time(mut f: impl FnMut()) -> Spread {
        f();
        Spread::of((0..K_RUNS).map(|_| {
            let started = std::time::Instant::now();
            f();
            started.elapsed()
        }))
    }

    /// The interquartile range.
    pub fn iqr(&self) -> Duration {
        self.q3 - self.q1
    }

    /// `self` and `other` added quartile to quartile: the spread of an
    /// estimate built from two measured parts.
    pub fn plus(&self, other: Spread) -> Spread {
        Spread {
            median: self.median + other.median,
            q1: self.q1 + other.q1,
            q3: self.q3 + other.q3,
        }
    }

    /// The spread of `f` of the runs, for a monotone `f` (a scale factor, a
    /// model, an added constant): it maps each quartile.
    pub fn map(&self, f: impl Fn(Duration) -> Duration) -> Spread {
        Spread {
            median: f(self.median),
            q1: f(self.q1),
            q3: f(self.q3),
        }
    }
}

/// What [`K_RUNS`] runs of one operation measured on each side: §6.2's
/// server and client compute and their sum, run by run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Timing {
    /// The server's share.
    pub server: Spread,
    /// The client's share.
    pub client: Spread,
    /// Server plus client, summed per run.
    pub total: Spread,
}

impl Timing {
    /// Runs `run` once to warm up, discards it, then [`K_RUNS`] times; each
    /// run returns its server and client time.
    pub fn measure(mut run: impl FnMut() -> (Duration, Duration)) -> Timing {
        run();
        let runs: Vec<(Duration, Duration)> = (0..K_RUNS).map(|_| run()).collect();
        Timing {
            server: Spread::of(runs.iter().map(|r| r.0)),
            client: Spread::of(runs.iter().map(|r| r.1)),
            total: Spread::of(runs.iter().map(|r| r.0 + r.1)),
        }
    }
}

/// A generic result row: a label plus named numeric fields, printable as a
/// table row by the harness.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (e.g. "ASHE encryption", "sel=50%", "Q2A").
    pub label: String,
    /// Named values in presentation order.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>) -> Row {
        Row {
            label: label.into(),
            values: Vec::new(),
        }
    }

    /// Adds a named value.
    pub fn with(mut self, name: &str, value: f64) -> Row {
        self.values.push((name.to_string(), value));
        self
    }

    /// Adds a timed quantity in seconds: its median as `name` and its
    /// interquartile range as `{name}_iqr`.
    pub fn with_spread(self, name: &str, spread: Spread) -> Row {
        self.with(name, spread.median.as_secs_f64())
            .with(&format!("{name}_iqr"), spread.iqr().as_secs_f64())
    }

    /// Adds a [`Timing`]: `k`, then `response_s`, `server_s` and `client_s`
    /// with their spreads.
    pub fn with_timing(self, timing: &Timing) -> Row {
        self.with("k", K_RUNS as f64)
            .with_spread("response_s", timing.total)
            .with_spread("server_s", timing.server)
            .with_spread("client_s", timing.client)
    }

    /// Looks up a named value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Formats rows as an aligned text table.
pub fn format_rows(title: &str, rows: &[Row]) -> String {
    let mut out = format!("## {title}\n");
    for row in rows {
        out.push_str(&format!("{:<32}", row.label));
        for (name, value) in &row.values {
            if value.abs() >= 1000.0 || (*value != 0.0 && value.abs() < 0.01) {
                out.push_str(&format!("  {name}={value:.3e}"));
            } else {
                out.push_str(&format!("  {name}={value:.3}"));
            }
        }
        out.push('\n');
    }
    out
}

/// Schema-stable provenance stamped into every `BENCH_*.json` artifact:
/// when the run happened and what code produced it. Captured **once per
/// harness invocation** at the entrypoint (so every artifact of one run
/// carries the same stamp) and threaded through
/// [`crate::runner::ExperimentConfig`].
#[derive(Clone, Debug)]
pub struct RunMeta {
    /// Seconds since the UNIX epoch when the harness run started (`0` when
    /// the clock could not be read).
    pub unix_timestamp: u64,
    /// `git rev-parse HEAD` of the tree that produced the numbers, or
    /// `"unknown"` when git or the repository is unavailable.
    pub git_commit: String,
    /// [`seabed_crypto::aes_backend`] on the machine that ran: `"aes-ni"`
    /// or `"portable"`. A runner that silently fell back to software AES
    /// shows here instead of as an unexplained 50x in every crypto row.
    pub aes_backend: &'static str,
}

impl Default for RunMeta {
    fn default() -> RunMeta {
        RunMeta {
            unix_timestamp: 0,
            git_commit: "unknown".to_string(),
            aes_backend: seabed_crypto::aes_backend(),
        }
    }
}

impl RunMeta {
    /// Captures the current wall clock and git commit. Both are
    /// best-effort: a pre-epoch clock stamps `0`, a missing git binary or
    /// repository stamps `"unknown"` — an artifact is always written.
    pub fn capture() -> RunMeta {
        let unix_timestamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let git_commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        RunMeta {
            unix_timestamp,
            git_commit,
            ..RunMeta::default()
        }
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serializes experiment rows as a machine-readable JSON document:
///
/// ```json
/// {
///   "experiment": "fig6",
///   "meta": {"unix_timestamp": 1754600000, "git_commit": "abc123...", "aes_backend": "aes-ni"},
///   "scale": {"row_divisor": 1000, "partitions": 64, ..., "paillier_bits": 2048},
///   "rows": [{"label": "...", "values": {"k": 5, "response_s": 1.25, "response_s_iqr": 0.03, ...}}]
/// }
/// ```
///
/// `experiment` names the run, `meta` stamps its provenance, and `scale` is
/// the full configuration snapshot, with the Paillier modulus every Paillier
/// row is costed at — together they make every artifact self-describing for
/// trajectory diffs.
pub fn rows_to_json(experiment: &str, scale: &Scale, meta: &RunMeta, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"experiment\": \"{}\",\n", json_escape(experiment)));
    out.push_str(&format!(
        "  \"meta\": {{\"unix_timestamp\": {}, \"git_commit\": \"{}\", \"aes_backend\": \"{}\"}},\n",
        meta.unix_timestamp,
        json_escape(&meta.git_commit),
        meta.aes_backend
    ));
    out.push_str(&format!(
        "  \"scale\": {{\"row_divisor\": {}, \"partitions\": {}, \"seed\": {}, \"local_threads\": {}, \"paillier_bits\": {}}},\n",
        scale.row_divisor, scale.partitions, scale.seed, LOCAL_THREADS, PAILLIER_BITS
    ));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"values\": {{",
            json_escape(&row.label)
        ));
        for (j, (name, value)) in row.values.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", json_escape(name), json_number(*value)));
        }
        out.push_str("}}");
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes one experiment's rows to `<dir>/BENCH_<experiment>.json` so future
/// runs have a perf trajectory to diff against. Returns the file path.
pub fn write_bench_json(
    dir: &std::path::Path,
    experiment: &str,
    scale: &Scale,
    meta: &RunMeta,
    rows: &[Row],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{experiment}.json"));
    std::fs::write(&path, rows_to_json(experiment, scale, meta, rows))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spread_is_the_quartiles_of_its_runs_and_orders_by_median() {
        let ms = Duration::from_millis;
        let spread = Spread::of([5, 1, 4, 2, 3].map(ms));
        assert_eq!((spread.q1, spread.median, spread.q3), (ms(2), ms(3), ms(4)));
        assert_eq!(spread.iqr(), ms(2));
        assert_eq!(spread.map(|d| d * 2).iqr(), ms(4));
        assert!(
            Spread::of([1, 2, 9].map(ms)) < Spread::of([0, 3, 3].map(ms)),
            "the median decides"
        );
        assert_eq!(Spread::of([]), Spread::default());
    }
}
