//! The study harness behind every `BENCH_*.json`-writing experiment.
//!
//! A study declares each output column once ([`col`]: key, value, and
//! how — or whether — it shows in the CSV/markdown table) and each
//! headline once ([`Headlines::metric`], [`Headlines::criterion`]: key,
//! value, and for criteria the condition `--validate` enforces).
//! [`Study::finish`] turns the declarations into the [`Table`], the
//! `{experiment, <meta…>, points, headline}` JSON document and the
//! assertions, and is the only code that knows where artifacts go:
//! full runs write `BENCH_<artifact>.json` at the repository root (the
//! committed behavioural contract), `--smoke` runs write it under
//! [`RunCfg::out_dir`] and never touch the committed files.
//!
//! The serving-study fixtures several experiments share (tenant DAGs,
//! nominal bounds, the class-mixed trace, the saturating capacity probe)
//! live here too.

use crate::{RunCfg, Table};
use hios_core::bounds;
use hios_cost::AnalyticCostModel;
use hios_graph::{LayeredDagConfig, generate_layered_dag};
use hios_serve::{
    ClassMix, ClassStats, Request, ServeConfig, ServedModel, WorkloadConfig,
    generate_trace_with_classes, serve,
};
use hios_sim::FaultPlan;
use serde::Serialize;
use serde_json::Value;
use std::fmt::Display;
use std::path::Path;

/// One declared column of a [`Row`]: a JSON field of the point, a cell of
/// the table, or (by default) both under the same name.
pub(crate) struct Col {
    key: &'static str,
    value: Value,
    cell: String,
    in_json: bool,
    csv_name: Option<&'static str>,
}

/// Declares a column.  The table cell defaults to the JSON scalar's own
/// text (strings unquoted, integers without a fraction).
pub(crate) fn col(key: &'static str, value: impl Serialize) -> Col {
    let value = value.to_value();
    let cell = match &value {
        Value::Str(s) => s.clone(),
        other => serde_json::to_string(other).expect("JSON rendering"),
    };
    Col {
        key,
        value,
        cell,
        in_json: true,
        csv_name: Some(key),
    }
}

impl Col {
    /// Renders the table cell with `decimals` fixed decimals.
    ///
    /// # Panics
    /// Panics when the column is not numeric.
    pub(crate) fn dp(self, decimals: usize) -> Self {
        let Value::Num(x) = self.value else {
            panic!("column {} is not numeric", self.key);
        };
        self.cell(format!("{x:.decimals$}"))
    }

    /// Overrides the table cell text.
    pub(crate) fn cell(mut self, text: String) -> Self {
        self.cell = text;
        self
    }

    /// Names the table column differently from the JSON key.
    pub(crate) fn csv_as(mut self, name: &'static str) -> Self {
        self.csv_name = Some(name);
        self
    }

    /// Keeps the column out of the table.
    pub(crate) fn json_only(mut self) -> Self {
        self.csv_name = None;
        self
    }

    /// Keeps the column out of the JSON point.
    pub(crate) fn csv_only(mut self) -> Self {
        self.in_json = false;
        self
    }
}

/// One grid cell's output, in declaration order.
pub(crate) type Row = Vec<Col>;

/// A per-class breakdown: the class's six statistics as a nested JSON
/// object, its on-time count as the table cell.
pub(crate) fn class_col(key: &'static str, s: &ClassStats) -> Col {
    let fields: [(&str, Value); 6] = [
        ("total", s.total.to_value()),
        ("on_time", s.on_time.to_value()),
        ("shed", s.shed.to_value()),
        ("p99_ms", s.p99_ms.to_value()),
        ("miss_rate", s.miss_rate.to_value()),
        ("goodput_rps", s.goodput_rps.to_value()),
    ];
    let object = Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect());
    col(key, object).cell(s.on_time.to_string())
}

/// A study's headline block: informational metrics and the acceptance
/// criteria `--validate` enforces, in declaration order.
#[derive(Default)]
pub(crate) struct Headlines {
    entries: Vec<(String, Value)>,
    failed: Vec<String>,
}

impl Headlines {
    /// Declares an informational headline value.
    pub(crate) fn metric(&mut self, key: &str, value: impl Serialize) -> &mut Self {
        self.entries.push((key.into(), value.to_value()));
        self
    }

    /// Declares a headline value together with the condition it must
    /// satisfy.
    pub(crate) fn metric_must(
        &mut self,
        key: &str,
        value: impl Serialize,
        holds: bool,
        must: impl Display,
    ) -> &mut Self {
        if !holds {
            self.failed.push(format!("{key}: {must}"));
        }
        self.metric(key, value)
    }

    /// Declares a boolean acceptance criterion: the headline records
    /// whether it held.
    pub(crate) fn criterion(&mut self, key: &str, holds: bool, must: impl Display) -> &mut Self {
        self.metric_must(key, holds, holds, must)
    }

    /// Asserts that every declared condition held.
    ///
    /// # Panics
    /// Panics naming each failed headline and what it must satisfy.
    pub(crate) fn assert_hold(&self) {
        assert!(
            self.failed.is_empty(),
            "headline criteria failed: {}",
            self.failed.join("; ")
        );
    }
}

/// A study's identity and top-level metadata.
pub(crate) struct Study {
    experiment: &'static str,
    table_name: &'static str,
    artifact: &'static str,
    title: &'static str,
    meta: Vec<(String, Value)>,
}

impl Study {
    /// A study whose CLI name, table stem and artifact stem coincide.
    pub(crate) fn new(experiment: &'static str, title: &'static str) -> Self {
        Study {
            experiment,
            table_name: experiment,
            artifact: experiment,
            title,
            meta: Vec::new(),
        }
    }

    /// Overrides the table stem (`<table>.csv`) and the artifact stem
    /// (`BENCH_<artifact>.json`) where they differ from the CLI name.
    pub(crate) fn files(mut self, table: &'static str, artifact: &'static str) -> Self {
        self.table_name = table;
        self.artifact = artifact;
        self
    }

    /// Appends a top-level metadata field (emitted between `experiment`
    /// and `points`, in call order).
    pub(crate) fn meta(mut self, key: &str, value: impl Serialize) -> Self {
        self.meta.push((key.into(), value.to_value()));
        self
    }

    /// Asserts the headline criteria under `--validate`, writes the JSON
    /// artifact and returns the table.
    ///
    /// # Panics
    /// Panics when a criterion failed under `--validate`, when rows
    /// disagree on their table columns, or on I/O errors.
    pub(crate) fn finish(
        self,
        rows: impl IntoIterator<Item = Row>,
        headline: Headlines,
        cfg: &RunCfg,
    ) -> Table {
        if cfg.validate {
            headline.assert_hold();
        }
        let mut table: Option<Table> = None;
        let mut points = Vec::new();
        for row in rows {
            let names: Vec<&str> = row.iter().filter_map(|c| c.csv_name).collect();
            let table =
                table.get_or_insert_with(|| Table::new(self.table_name, self.title, &names));
            assert!(table.columns == names, "ragged row in {}", self.table_name);
            let (mut cells, mut fields) = (Vec::new(), Vec::new());
            for c in row {
                if c.csv_name.is_some() {
                    cells.push(c.cell);
                }
                if c.in_json {
                    fields.push((c.key.to_string(), c.value));
                }
            }
            table.push(cells);
            points.push(Value::Object(fields));
        }

        let mut doc = vec![("experiment".to_string(), self.experiment.to_value())];
        doc.extend(self.meta);
        doc.push(("points".into(), Value::Array(points)));
        doc.push(("headline".into(), Value::Object(headline.entries)));
        let dir = if cfg.smoke {
            cfg.out_dir.clone()
        } else {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
        };
        let file = format!("BENCH_{}.json", self.artifact);
        let rendered = serde_json::to_string_pretty(&Value::Object(doc)).expect("JSON rendering");
        std::fs::create_dir_all(&dir).expect("create artifact dir");
        std::fs::write(dir.join(&file), rendered + "\n")
            .unwrap_or_else(|e| panic!("write {file}: {e}"));
        table.expect("a study has at least one grid cell")
    }
}

/// Layers of every tenant DAG.
const TENANT_LAYERS: usize = 6;

/// Tenant models for the serving studies: one layered random DAG per
/// `(seed, ops)` pair, priced on the A40/NVLink analytic model.
pub(crate) fn layered_tenants(specs: &[(u64, usize)]) -> Vec<ServedModel> {
    specs
        .iter()
        .map(|&(seed, ops)| {
            let graph = generate_layered_dag(&LayeredDagConfig {
                ops,
                layers: TENANT_LAYERS,
                deps: ops * 2,
                seed,
            })
            .expect("feasible tenant workload");
            let cost = AnalyticCostModel::a40_nvlink().build_table(&graph);
            ServedModel {
                name: format!("tenant{seed}"),
                graph,
                cost,
            }
        })
        .collect()
}

/// Each model's admission bound on `gpus` GPUs (the nominal latency that
/// deadline factors multiply).
pub(crate) fn nominal_bounds(models: &[ServedModel], gpus: usize) -> Vec<f64> {
    models
        .iter()
        .map(|m| bounds::combined_bound(&m.graph, &m.cost, gpus))
        .collect()
}

/// The class-mixed (default Gold/Silver/Bronze mix) Poisson trace of a
/// workload, with deadlines scaled from the models' nominal bounds.
pub(crate) fn class_trace(
    models: &[ServedModel],
    gpus: usize,
    workload: &WorkloadConfig,
) -> Vec<Request> {
    generate_trace_with_classes(
        workload,
        &nominal_bounds(models, gpus),
        &ClassMix::default(),
    )
}

/// Sustained service rate (requests/s) of one fault-free `gpus`-GPU
/// backend, measured with a saturating probe: arrivals far faster than
/// service, deadlines effectively infinite.  Deterministic — the probe
/// runs on the virtual clock like every other cell — so load axes
/// pinned to a fraction of it are honest on any cost model.
pub(crate) fn probe_capacity_rps(
    models: &[ServedModel],
    gpus: usize,
    requests: usize,
    seed: u64,
) -> f64 {
    let trace = class_trace(
        models,
        gpus,
        &WorkloadConfig {
            requests,
            arrival_rate_rps: 20_000.0,
            deadline_factor: 1.0e6,
            seed,
        },
    );
    let out = serve(models, &trace, &FaultPlan::none(), &ServeConfig::new(gpus))
        .expect("well-formed probe setup");
    1000.0 * out.report.completed as f64 / out.report.horizon_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finish_sample(tag: &str, validate: bool) -> (Table, String) {
        let out_dir = std::env::temp_dir().join(format!("hios_bench_study_{tag}"));
        let _ = std::fs::remove_dir_all(&out_dir);
        let cfg = RunCfg {
            smoke: true,
            validate,
            out_dir,
            ..Default::default()
        };
        let rows = (0..2u32).map(|i| {
            vec![
                col("name", format!("cell{i}")),
                col("hidden", i).json_only(),
                col("latency_ms", 1.5 * f64::from(i)).dp(3).csv_as("lat"),
                col("label", "x").csv_only(),
            ]
        });
        let mut h = Headlines::default();
        h.criterion("ok", false, "must hold").metric("n", 2u64);
        let table = Study::new("sample", "A sample study")
            .meta("gpus", 3usize)
            .meta("smoke", true)
            .finish(rows, h, &cfg);
        let json = std::fs::read_to_string(cfg.out_dir.join("BENCH_sample.json"))
            .expect("smoke artifact lands under out_dir");
        std::fs::remove_dir_all(&cfg.out_dir).unwrap();
        (table, json)
    }

    #[test]
    fn one_declaration_yields_table_and_json() {
        let (t, json) = finish_sample("decl", false);
        assert_eq!(t.to_csv(), "name,lat,label\ncell0,0.000,x\ncell1,1.500,x\n");
        let doc: Value = serde_json::from_str(&json).unwrap();
        let Value::Object(fields) = &doc else {
            panic!("object expected");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["experiment", "gpus", "smoke", "points", "headline"]);
        assert_eq!(
            doc["points"][1],
            Value::Object(vec![
                ("name".into(), Value::Str("cell1".into())),
                ("hidden".into(), Value::Num(1.0)),
                ("latency_ms".into(), Value::Num(1.5)),
            ])
        );
        // Without `--validate` a failed criterion is recorded, not fatal.
        assert_eq!(doc["headline"]["ok"], Value::Bool(false));
        assert_eq!(doc["headline"]["n"], Value::Num(2.0));
    }

    #[test]
    #[should_panic(expected = "ok: must hold")]
    fn validate_asserts_failed_criteria() {
        finish_sample("fail", true);
    }

    #[test]
    fn probe_capacity_is_positive_and_finite() {
        let models = layered_tenants(&[(41, 36), (42, 48)]);
        let rate = probe_capacity_rps(&models, 3, 120, 13);
        assert!(rate.is_finite() && rate > 0.0, "rate {rate}");
    }
}
