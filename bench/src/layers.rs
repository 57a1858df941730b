//! Metric registries: every end-to-end and per-layer metric the
//! benchmark can print, by name and unit, in the order BENCHMARK.json
//! lists them.  A per-layer metric a workload does not exercise reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), printed by every workload.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
    ("gold_ok_frac", "ratio"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("sim_goodput_rps", "1/s"),
    ("sim_speedup_vs_seq", "ratio"),
];

/// Per-layer metrics (`--trace 1`).  Layers are crates or `hios-serve`
/// modules; counts come from the public reports, times from the traced
/// repetition and its outside-in replay.
pub const PER_LAYER: [(&str, &str); 77] = [
    ("graph.build_s", "s"),
    ("cost.build_table_s", "s"),
    ("workload.gen_s", "s"),
    ("sim.fault_compile_s", "s"),
    ("store.open_s", "s"),
    ("sim.simulate_scaled.calls", "count"),
    ("sim.simulate_scaled.us_per_call", "us"),
    ("sim.simulate_scaled.busy_s", "s"),
    ("sim.simulate_scaled.share_of_wall", "ratio"),
    ("core.bound.calls", "count"),
    ("core.bound.ns_per_call", "ns"),
    ("core.sched.lp.calls", "count"),
    ("core.sched.lp.ms_per_call", "ms"),
    ("core.sched.inter_lp.calls", "count"),
    ("core.sched.inter_lp.ms_per_call", "ms"),
    ("core.sched.mr.calls", "count"),
    ("core.sched.mr.ms_per_call", "ms"),
    ("core.sched.inter_mr.calls", "count"),
    ("core.sched.inter_mr.ms_per_call", "ms"),
    ("core.sched.seq.calls", "count"),
    ("core.sched.seq.ms_per_call", "ms"),
    ("core.sched.greedy.calls", "count"),
    ("core.sched.greedy.ms_per_call", "ms"),
    ("core.sched.ios.ms_per_call", "ms"),
    ("core.validate.calls", "count"),
    ("core.validate.us_per_call", "us"),
    ("core.repair.calls", "count"),
    ("core.repair.us_per_call", "us"),
    ("ladder.rung.cached", "count"),
    ("ladder.rung.store", "count"),
    ("ladder.rung.full_lp", "count"),
    ("ladder.rung.inter_lp", "count"),
    ("ladder.rung.greedy", "count"),
    ("ladder.cache_hit_ratio", "ratio"),
    ("ladder.evictions", "count"),
    ("ladder.upgrades", "count"),
    ("ladder.upgrades_per_model", "ratio"),
    ("ladder.decide_hit.us_per_call", "us"),
    ("ladder.decide_miss.us_per_call", "us"),
    ("store.get.calls", "count"),
    ("store.get.us_per_call", "us"),
    ("store.hit_ratio", "ratio"),
    ("store.put.calls", "count"),
    ("store.put.us_per_call", "us"),
    ("store.log_bytes", "B"),
    ("store.recovered_records", "count"),
    ("serve.wall_s", "s"),
    ("serve.self_s", "s"),
    ("serve.dispatches", "count"),
    ("serve.retries", "count"),
    ("serve.breaker_opens", "count"),
    ("serve.shed.queue", "count"),
    ("serve.shed.deadline", "count"),
    ("serve.shed.retries", "count"),
    ("serve.shed.brownout", "count"),
    ("serve.shed.retry_budget", "count"),
    ("serve.brownout_transitions", "count"),
    ("serve.recalibrations", "count"),
    ("serve.drift_alarms", "count"),
    ("report.summarize_s", "s"),
    ("report.digest_s", "s"),
    ("router.choose.calls", "count"),
    ("router.choose.ns_per_call", "ns"),
    ("health.heartbeat.calls", "count"),
    ("health.heartbeat.ns_per_call", "ns"),
    ("fleet.wall_s", "s"),
    ("fleet.self_s", "s"),
    ("fleet.rerouted", "count"),
    ("fleet.hedges_issued", "count"),
    ("fleet.hedge_wasted_ratio", "ratio"),
    ("fleet.failover_sheds", "count"),
    ("fleet.backpressure_sheds", "count"),
    ("sim_slo_load_frac", "ratio"),
    ("harness.threads", "count"),
    ("harness.rep_spread", "ratio"),
    ("harness.cpu_us_per_req", "us"),
    ("harness.trace_overhead_ratio", "ratio"),
];

/// Per-layer values collected during one invocation.
#[derive(Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers::default()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unregistered per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        let old = self.get(name);
        self.set(name, old + value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Copies every entry of `other` over this one.
    pub fn merge(&mut self, other: &Layers) {
        for (&k, &v) in &other.0 {
            self.0.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` must list exactly these metrics, in this order,
    /// with these units: the driver reads the names from there.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        let listed = |section: &str| -> Vec<(String, String)> {
            let from = spec
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &spec[from..];
            let body = &body[..body.find(']').expect("section closes")];
            let field = |entry: &str, key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field present");
                let rest = &entry[at + key.len() + 2..];
                let open = rest.find('"').expect("string opens") + 1;
                let len = rest[open..].find('"').expect("string closes");
                rest[open..open + len].to_owned()
            };
            body.split('{')
                .skip(1)
                .map(|entry| (field(entry, "name"), field(entry, "unit")))
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }
}
