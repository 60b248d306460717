//! Structural query plans for `EXPLAIN` / `EXPLAIN ANALYZE`.
//!
//! A [`PlanNode`] tree describes *what the server will do* for a translated
//! query — scan, SPLASHE splay expansion, the filter chain in its chosen
//! execution order (cheapest [`FilterClass`] first — the same table the
//! server's scan sorts by), group-by, and the aggregate root — without ever
//! executing anything. `EXPLAIN` renders exactly this tree; `EXPLAIN ANALYZE`
//! executes the query and annotates each node with its measured
//! [`PlanProfile`] (rows in, selection survivors, batches, nanoseconds),
//! matched back onto the tree by operator label.
//!
//! # Redaction guarantees
//!
//! Plan nodes are redacted **by construction**: a node names the operator
//! class and the *physical* column it touches (`filter det:dept__det`),
//! never a predicate literal, a ciphertext, or raw SQL text — the same
//! discipline as [`TranslatedQuery::describe`]. A plan tree (and therefore a
//! query event built from one) can cross the observability surface — logs,
//! metrics scrapes, uploaded CI artifacts — without disclosing what was
//! queried for, only how.
//!
//! The filter labels (`filter:det:dept__det`) are the ones the core execution
//! layer records into its per-operator profiles — both sides format them with
//! [`FilterClass::label`] — which is what lets `EXPLAIN ANALYZE` attach
//! measured profiles to structural nodes without guessing. A class is a fact
//! of the *bound* plan (a plain `?` compares integers or strings depending on
//! the literal), so an analyzed tree is built from the plan that ran.

use crate::translate::{encnames, FilterClass, ServerAggregate, ServerFilter, TranslatedQuery};
use serde::{Deserialize, Serialize};

/// Measured annotation of one plan node: the per-operator profile attached
/// by `EXPLAIN ANALYZE`. A query-local twin of the engine's
/// `OperatorProfile` counters (the query crate sits below the engine in the
/// dependency order, so it carries its own copy of the four counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanProfile {
    /// Rows the operator looked at.
    pub rows_in: u64,
    /// Rows that survived the operator (groups for the aggregate node).
    pub rows_out: u64,
    /// Batches / passes the operator ran.
    pub batches: u64,
    /// Wall-clock nanoseconds spent inside the operator.
    pub nanos: u64,
}

/// One node of a structural query plan.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanNode {
    /// Structural operator name: `scan`, `splashe-expand`, `filter`,
    /// `group-by`, `aggregate` — or a coordinator stage
    /// (`scatter`, `shard`, `gather`, `merge`) on a stitched distributed
    /// plan.
    pub op: String,
    /// Redacted operator detail: filter class and physical column, group
    /// keys, aggregate kinds. Never a literal and never SQL text.
    pub detail: String,
    /// Input operators (rendered below this node; the deepest child executes
    /// first).
    pub children: Vec<PlanNode>,
    /// Measured profile, present only on `EXPLAIN ANALYZE` plans.
    pub profile: Option<PlanProfile>,
}

/// Redacted description of one server aggregate (the node detail fragment).
fn aggregate_detail(agg: &ServerAggregate) -> String {
    match agg {
        ServerAggregate::AsheSum { column } => format!("sum ASHE({column})"),
        ServerAggregate::CountRows => "count ids".to_string(),
        ServerAggregate::OpeMin { column } => format!("min OPE({column})"),
        ServerAggregate::OpeMax { column } => format!("max OPE({column})"),
    }
}

impl PlanNode {
    /// A leaf node with no children and no profile.
    pub fn new(op: impl Into<String>, detail: impl Into<String>) -> PlanNode {
        PlanNode {
            op: op.into(),
            detail: detail.into(),
            children: Vec::new(),
            profile: None,
        }
    }

    /// Returns the node with `child` appended.
    pub fn with_child(mut self, child: PlanNode) -> PlanNode {
        self.children.push(child);
        self
    }

    /// Returns the node with its measured profile set.
    pub fn with_profile(mut self, profile: PlanProfile) -> PlanNode {
        self.profile = Some(profile);
        self
    }

    /// Builds the structural plan of a translated query: the tree `EXPLAIN`
    /// renders and `EXPLAIN ANALYZE` annotates. The chain mirrors server
    /// execution bottom-up — scan, SPLASHE expansion, filters in chosen
    /// (cheapest-first) order, group-by, aggregate root — so the deepest node
    /// is what executes first.
    pub fn from_translated(translated: &TranslatedQuery) -> PlanNode {
        let mut node = PlanNode::new("scan", translated.base_table.clone());

        // SPLASHE splay expansion: the translator absorbed an equality filter
        // into the choice of splayed measure / indicator columns.
        let splayed: Vec<&str> = translated
            .aggregates
            .iter()
            .filter_map(|agg| match agg {
                ServerAggregate::AsheSum { column } if encnames::is_splayed(column) => Some(column.as_str()),
                _ => None,
            })
            .collect();
        if !splayed.is_empty() {
            node = PlanNode::new("splashe-expand", splayed.join(", ")).with_child(node);
        }

        // Filters in execution order: a stable sort by class rank, exactly as
        // the vectorized scan orders its kernels. The first (cheapest) filter
        // sits deepest, directly over the scan. An unbound plain `?` has no
        // class yet: it renders as `?:column`, after the filters whose place
        // is known.
        let mut ordered: Vec<&ServerFilter> = translated.filters.iter().collect();
        ordered.sort_by_key(|f| f.class().map_or(u8::MAX, FilterClass::cost_rank));
        for filter in ordered {
            let tag = filter.class().map_or("?", FilterClass::tag);
            node = PlanNode::new("filter", format!("{tag}:{}", filter.column())).with_child(node);
        }

        if !translated.group_by.is_empty() {
            let keys: Vec<&str> = translated.group_by.iter().map(|g| g.physical_column.as_str()).collect();
            node = PlanNode::new("group-by", keys.join(", ")).with_child(node);
        }

        let aggs: Vec<String> = translated.aggregates.iter().map(aggregate_detail).collect();
        PlanNode::new("aggregate", aggs.join(", ")).with_child(node)
    }

    /// The operator label this node matches measured profiles under, if any:
    /// `filter:{class}:{column}` for filter nodes, `aggregate` for the
    /// aggregate root, `scan:scalar` for the scan leaf (the scalar path
    /// profiles as one fused scan operator). Structural-only nodes
    /// (`group-by`, `splashe-expand`) have no label of their own —
    /// their work is measured inside the aggregate slot.
    pub fn operator_label(&self) -> Option<String> {
        match self.op.as_str() {
            "filter" => Some(format!("filter:{}", self.detail)),
            "aggregate" => Some("aggregate".to_string()),
            "scan" => Some("scan:scalar".to_string()),
            _ => None,
        }
    }

    /// Annotates the tree with measured per-operator profiles, matching each
    /// `(label, profile)` pair onto the first unannotated node whose
    /// [`PlanNode::operator_label`] equals the label. Pairs that match no
    /// node (a stage the structural plan does not model) are appended as
    /// `operator` children of this node, so no measurement is ever dropped.
    pub fn annotate(&mut self, operators: &[(String, PlanProfile)]) {
        for (label, profile) in operators {
            if !self.annotate_one(label, *profile) {
                self.children
                    .push(PlanNode::new("operator", label.clone()).with_profile(*profile));
            }
        }
    }

    fn annotate_one(&mut self, label: &str, profile: PlanProfile) -> bool {
        if self.profile.is_none() && self.operator_label().as_deref() == Some(label) {
            self.profile = Some(profile);
            return true;
        }
        self.children.iter_mut().any(|c| c.annotate_one(label, profile))
    }

    /// Renders the plan as an indented tree, one node per line, annotated
    /// nodes carrying their measured counters:
    ///
    /// ```text
    /// aggregate sum ASHE(revenue__ashe), count ids
    ///   group-by dept__det
    ///     filter det:dept__det (rows_in=240 rows_out=48 batches=4 0.031ms)
    ///       scan sales
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.op);
        if !self.detail.is_empty() {
            out.push(' ');
            out.push_str(&self.detail);
        }
        if let Some(p) = &self.profile {
            out.push_str(&format!(
                " (rows_in={} rows_out={} batches={} {:.3}ms)",
                p.rows_in,
                p.rows_out,
                p.batches,
                p.nanos as f64 / 1e6
            ));
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(depth + 1, out);
        }
    }

    /// Renders the plan as a JSON object (hand-rolled, like the metrics
    /// snapshot JSON: no JSON dependency in the tree).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.json_into(&mut out);
        out
    }

    fn json_into(&self, out: &mut String) {
        out.push_str("{\"op\":");
        push_json_string(out, &self.op);
        out.push_str(",\"detail\":");
        push_json_string(out, &self.detail);
        if let Some(p) = &self.profile {
            out.push_str(&format!(
                ",\"profile\":{{\"rows_in\":{},\"rows_out\":{},\"batches\":{},\"nanos\":{}}}",
                p.rows_in, p.rows_out, p.batches, p.nanos
            ));
        }
        out.push_str(",\"children\":[");
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.json_into(out);
        }
        out.push_str("]}");
    }
}

/// Appends `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CompareOp, Literal, Predicate};
    use crate::translate::{GroupByColumn, SupportCategory};

    fn translated() -> TranslatedQuery {
        TranslatedQuery {
            base_table: "sales".to_string(),
            filters: vec![
                ServerFilter::OpeCompare {
                    column: "ts__ope".to_string(),
                    op: CompareOp::GtEq,
                    value: 7,
                },
                ServerFilter::DetEquals {
                    column: "dept__det".to_string(),
                    value: "engineering".to_string(),
                },
                ServerFilter::Plain(Predicate {
                    column: "region".to_string(),
                    op: CompareOp::Eq,
                    value: Literal::Text("emea".to_string()),
                }),
            ],
            aggregates: vec![
                ServerAggregate::AsheSum {
                    column: "revenue__ashe".to_string(),
                },
                ServerAggregate::CountRows,
            ],
            group_by: vec![GroupByColumn {
                column: "dept".to_string(),
                physical_column: "dept__det".to_string(),
                encrypted: true,
            }],
            client_post: vec![],
            preserve_row_ids: true,
            category: SupportCategory::ServerOnly,
            params: vec![],
        }
    }

    #[test]
    fn plan_orders_filters_cheapest_first_and_chains_stages() {
        let plan = PlanNode::from_translated(&translated());
        assert_eq!(plan.op, "aggregate");
        assert_eq!(plan.detail, "sum ASHE(revenue__ashe), count ids");
        let group = &plan.children[0];
        assert_eq!(group.op, "group-by");
        assert_eq!(group.detail, "dept__det");
        // Filters render last-executed first (the tree is read bottom-up):
        // ORE (rank 2) on top, then text (rank 1), DET (rank 0) nearest the scan.
        let ore = &group.children[0];
        assert_eq!((ore.op.as_str(), ore.detail.as_str()), ("filter", "ore:ts__ope"));
        let text = &ore.children[0];
        assert_eq!((text.op.as_str(), text.detail.as_str()), ("filter", "text:region"));
        let det = &text.children[0];
        assert_eq!((det.op.as_str(), det.detail.as_str()), ("filter", "det:dept__det"));
        let scan = &det.children[0];
        assert_eq!((scan.op.as_str(), scan.detail.as_str()), ("scan", "sales"));
        assert!(scan.children.is_empty());
        // No node was annotated.
        assert!(plan.profile.is_none() && scan.profile.is_none());
    }

    /// A plain `?` has no class until a literal is bound — the class is not
    /// guessed: the node says so and sits after the filters whose place in
    /// the execution order is known.
    #[test]
    fn an_unbound_plain_placeholder_has_no_class_yet() {
        let mut t = translated();
        t.filters.insert(
            0,
            ServerFilter::Plain(Predicate {
                column: "region".to_string(),
                op: CompareOp::Eq,
                value: Literal::Param(0),
            }),
        );
        let plan = PlanNode::from_translated(&t);
        let last_executed = &plan.children[0].children[0];
        assert_eq!(
            (last_executed.op.as_str(), last_executed.detail.as_str()),
            ("filter", "?:region")
        );
        assert_eq!(last_executed.children[0].detail, "ore:ts__ope");
    }

    #[test]
    fn splayed_aggregates_get_an_expansion_node() {
        let mut t = translated();
        t.aggregates = vec![ServerAggregate::AsheSum {
            column: "m__spl_dept_0".to_string(),
        }];
        t.filters.clear();
        t.group_by.clear();
        let plan = PlanNode::from_translated(&t);
        assert_eq!(plan.op, "aggregate");
        let splay = &plan.children[0];
        assert_eq!(splay.op, "splashe-expand");
        assert_eq!(splay.detail, "m__spl_dept_0");
        assert_eq!(splay.children[0].op, "scan");
    }

    #[test]
    fn annotate_matches_labels_and_keeps_strays() {
        let mut plan = PlanNode::from_translated(&translated());
        let profile = |rows_in: u64| PlanProfile {
            rows_in,
            rows_out: rows_in / 2,
            batches: 1,
            nanos: 1000,
        };
        plan.annotate(&[
            ("filter:det:dept__det".to_string(), profile(240)),
            ("filter:text:region".to_string(), profile(120)),
            ("filter:ore:ts__ope".to_string(), profile(60)),
            ("aggregate".to_string(), profile(30)),
            ("gather".to_string(), profile(8)),
        ]);
        assert_eq!(plan.profile, Some(profile(30)), "aggregate root annotated");
        let rendered = plan.render();
        assert!(rendered.contains("filter det:dept__det (rows_in=240"), "{rendered}");
        assert!(rendered.contains("filter ore:ts__ope (rows_in=60"), "{rendered}");
        // The unmatched stage was kept as an extra operator node.
        assert!(rendered.contains("operator gather (rows_in=8"), "{rendered}");
    }

    #[test]
    fn plans_are_redacted_by_construction() {
        let plan = PlanNode::from_translated(&translated());
        for payload in [plan.render(), plan.to_json()] {
            assert!(!payload.contains("engineering"), "DET literal leaked: {payload}");
            assert!(!payload.contains("emea"), "text literal leaked: {payload}");
            assert!(!payload.contains('7'), "ORE literal leaked: {payload}");
            assert!(!payload.contains("SELECT"), "SQL text leaked: {payload}");
        }
    }

    #[test]
    fn json_rendering_escapes_and_nests() {
        let node = PlanNode::new("scan", "we\"ird\ntable").with_child(PlanNode::new("filter", "plain:x").with_profile(
            PlanProfile {
                rows_in: 1,
                rows_out: 1,
                batches: 1,
                nanos: 42,
            },
        ));
        let json = node.to_json();
        assert!(json.contains("we\\\"ird\\ntable"), "{json}");
        assert!(json.contains("\"profile\":{\"rows_in\":1"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
