//! The experiment matrix runner.
//!
//! Separates the three concerns the old harness `main` interleaved:
//!
//! * **experiments** (`exp_*` in the crate root) *measure* and return
//!   [`Row`]s;
//! * **metrics** ([`crate::metrics`]) *render* rows as text and
//!   `BENCH_<name>.json`;
//! * the **runner** (this module) *selects and drives*: it holds the
//!   registered experiment matrix, resolves requested names (including
//!   aliases like `fig8` → `fig8ab` + `fig8c` and the `all` wildcard), runs
//!   each selected experiment at the configured [`Scale`], and emits its
//!   table and JSON artifact.
//!
//! ```no_run
//! use seabed_bench::runner::{ExperimentConfig, ExperimentRunner};
//! use seabed_bench::{exp_table3, Scale};
//!
//! let mut runner = ExperimentRunner::new(ExperimentConfig::new(Scale::smoke()).json_dir("bench_results"));
//! runner.register("table3", "Table 3: ID-list encodings", |_| exp_table3());
//! for report in runner.run(&["all".to_string()]) {
//!     println!("{}", report.rendered);
//! }
//! ```

use crate::metrics::{format_rows, write_bench_json, Row, RunMeta};
use crate::Scale;
use std::path::PathBuf;

/// Configuration shared by every experiment of one harness invocation.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// The scale every experiment runs at.
    pub scale: Scale,
    /// Where `BENCH_<name>.json` artifacts go; `None` skips JSON emission.
    pub json_dir: Option<PathBuf>,
    /// Provenance stamped into every artifact of this invocation (the
    /// entrypoint captures it once via [`RunMeta::capture`]).
    pub meta: RunMeta,
}

impl ExperimentConfig {
    /// A configuration running at `scale` with JSON emission disabled and a
    /// default (unstamped) [`RunMeta`].
    pub fn new(scale: Scale) -> ExperimentConfig {
        ExperimentConfig {
            scale,
            json_dir: None,
            meta: RunMeta::default(),
        }
    }

    /// Returns the configuration with JSON artifacts written to `dir`.
    pub fn json_dir(mut self, dir: impl Into<PathBuf>) -> ExperimentConfig {
        self.json_dir = Some(dir.into());
        self
    }

    /// Returns the configuration with the artifact provenance stamp replaced.
    pub fn meta(mut self, meta: RunMeta) -> ExperimentConfig {
        self.meta = meta;
        self
    }
}

type ExperimentFn = Box<dyn Fn(&Scale) -> Vec<Row>>;

struct Experiment {
    name: &'static str,
    title: &'static str,
    /// Extra request names selecting this experiment (e.g. `fig8` selects
    /// both `fig8ab` and `fig8c`).
    aliases: &'static [&'static str],
    run: ExperimentFn,
}

/// What running one experiment produced.
pub struct ExperimentReport {
    /// The experiment's registered name (also its JSON artifact name).
    pub name: &'static str,
    /// The measured rows.
    pub rows: Vec<Row>,
    /// The rows rendered as an aligned text table under the title.
    pub rendered: String,
    /// Where the JSON artifact was written, if emission was configured.
    pub json_path: Option<PathBuf>,
    /// The error that prevented JSON emission, if any.
    pub json_error: Option<std::io::Error>,
}

/// The experiment matrix: registered experiments, run by request.
pub struct ExperimentRunner {
    config: ExperimentConfig,
    experiments: Vec<Experiment>,
}

impl ExperimentRunner {
    /// An empty matrix under `config`.
    pub fn new(config: ExperimentConfig) -> ExperimentRunner {
        ExperimentRunner {
            config,
            experiments: Vec::new(),
        }
    }

    /// Registers an experiment selectable by `name` (or `all`).
    pub fn register(&mut self, name: &'static str, title: &'static str, run: impl Fn(&Scale) -> Vec<Row> + 'static) {
        self.register_aliased(name, &[], title, run);
    }

    /// Registers an experiment additionally selectable by any of `aliases`.
    pub fn register_aliased(
        &mut self,
        name: &'static str,
        aliases: &'static [&'static str],
        title: &'static str,
        run: impl Fn(&Scale) -> Vec<Row> + 'static,
    ) {
        self.experiments.push(Experiment {
            name,
            title,
            aliases,
            run: Box::new(run),
        });
    }

    /// Every name and alias the matrix accepts, in registration order,
    /// without duplicates.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for exp in &self.experiments {
            for candidate in std::iter::once(&exp.name).chain(exp.aliases) {
                if !names.contains(candidate) {
                    names.push(candidate);
                }
            }
        }
        names
    }

    /// The requested names no experiment answers to (`all` always resolves).
    pub fn unknown<'a>(&self, requested: &'a [String]) -> Vec<&'a str> {
        let names = self.names();
        requested
            .iter()
            .map(String::as_str)
            .filter(|r| *r != "all" && !names.contains(r))
            .collect()
    }

    /// Runs every experiment matching `requested` (name, alias, or `all`) in
    /// registration order, rendering each and writing its JSON artifact when
    /// a directory is configured.
    pub fn run(&self, requested: &[String]) -> Vec<ExperimentReport> {
        let wanted = |exp: &Experiment| {
            requested
                .iter()
                .any(|r| r == "all" || r == exp.name || exp.aliases.contains(&r.as_str()))
        };
        self.experiments
            .iter()
            .filter(|exp| wanted(exp))
            .map(|exp| {
                let rows = (exp.run)(&self.config.scale);
                let rendered = format_rows(exp.title, &rows);
                let (json_path, json_error) = match &self.config.json_dir {
                    Some(dir) => match write_bench_json(dir, exp.name, &self.config.scale, &self.config.meta, &rows) {
                        Ok(path) => (Some(path), None),
                        Err(err) => (None, Some(err)),
                    },
                    None => (None, None),
                };
                ExperimentReport {
                    name: exp.name,
                    rows,
                    rendered,
                    json_path,
                    json_error,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> ExperimentRunner {
        let mut runner = ExperimentRunner::new(ExperimentConfig::new(Scale::smoke()));
        runner.register("alpha", "Alpha", |scale| {
            vec![Row::new("a").with("divisor", scale.row_divisor as f64)]
        });
        runner.register_aliased("beta1", &["beta"], "Beta part 1", |_| vec![Row::new("b1")]);
        runner.register_aliased("beta2", &["beta"], "Beta part 2", |_| vec![Row::new("b2")]);
        runner
    }

    #[test]
    fn selects_by_name_alias_and_all() {
        let runner = matrix();
        let names = |reports: Vec<ExperimentReport>| reports.into_iter().map(|r| r.name).collect::<Vec<_>>();
        assert_eq!(names(runner.run(&["alpha".to_string()])), ["alpha"]);
        // One alias fans out to both halves, mirroring the fig8 convention.
        assert_eq!(names(runner.run(&["beta".to_string()])), ["beta1", "beta2"]);
        assert_eq!(names(runner.run(&["all".to_string()])), ["alpha", "beta1", "beta2"]);
        assert!(runner.run(&["nope".to_string()]).is_empty());
    }

    #[test]
    fn reports_carry_rows_rendered_at_the_configured_scale() {
        let runner = matrix();
        let reports = runner.run(&["alpha".to_string()]);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].rows[0].value("divisor"), Some(20_000.0));
        assert!(reports[0].rendered.contains("## Alpha"));
        assert!(reports[0].json_path.is_none(), "no json dir configured");
    }

    #[test]
    fn unknown_names_are_reported_and_aliases_accepted() {
        let runner = matrix();
        let requested = vec!["beta".to_string(), "nope".to_string(), "all".to_string()];
        assert_eq!(runner.unknown(&requested), ["nope"]);
        assert_eq!(runner.names(), ["alpha", "beta1", "beta", "beta2"]);
    }

    #[test]
    fn json_artifacts_land_in_the_configured_dir() {
        let dir = std::env::temp_dir().join("seabed_bench_runner_test");
        let _ = std::fs::remove_dir_all(&dir);
        let stamp = RunMeta {
            unix_timestamp: 1_754_600_000,
            git_commit: "deadbeef".to_string(),
            ..RunMeta::default()
        };
        let mut runner = ExperimentRunner::new(ExperimentConfig::new(Scale::smoke()).json_dir(&dir).meta(stamp));
        runner.register("gamma", "Gamma", |_| vec![Row::new("g").with("v", 1.0)]);
        let reports = runner.run(&["gamma".to_string()]);
        let path = reports[0].json_path.as_ref().expect("json written");
        assert!(path.ends_with("BENCH_gamma.json"));
        let content = std::fs::read_to_string(path).expect("read back");
        assert!(content.contains("\"experiment\": \"gamma\""));
        assert!(content.contains("\"unix_timestamp\": 1754600000"));
        assert!(content.contains("\"git_commit\": \"deadbeef\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
