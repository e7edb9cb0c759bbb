//! The metric catalogue and the result of one run.
//!
//! Every run reports every metric of its mode: the end-to-end metrics
//! untraced, the per-layer metrics traced. A per-layer metric the
//! workload cannot measure — its layer is bypassed, or a tail percentile
//! has fewer than ten samples beyond it — is reported as 0 and listed
//! under `not_measured` in the run record.

use crate::calib::Reference;
use crate::stats::median;
use crate::table1::PHASES;
use fuiov_lab::Json;
use fuiov_obs::Snapshot;
use fuiov_storage::HistoryStore;
use std::collections::BTreeMap;

/// `(name, unit, better, bound)` of each end-to-end metric.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("op_ms_p50", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("ok_share", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit)` of each per-layer metric, grouped by layer.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    fn add(v: &mut Vec<(String, &'static str)>, names: &[&str], unit: &'static str) {
        v.extend(names.iter().map(|n| (n.to_string(), unit)));
    }
    add(
        &mut v,
        &["lab.trial_s", "lab.run_trial_s", "lab.phase_sum_s"],
        "s",
    );
    for p in PHASES {
        v.push((format!("lab.{p}_s"), "s"));
        v.push((format!("lab.{p}_share"), "ratio"));
    }
    add(
        &mut v,
        &[
            "fl.round_ms_p50",
            "fl.round_ms_p90",
            "fl.local_train_ms",
            "fl.server_ms",
        ],
        "ms",
    );
    add(&mut v, &["fl.local_train_calls"], "count");
    add(
        &mut v,
        &["fl.local_train_parallel_eff", "fl.thread_scaling"],
        "ratio",
    );
    for l in ["conv1", "pool1", "conv2", "pool2", "fc1", "fc2", "relu"] {
        v.push((format!("nn.{l}.fwd_us"), "us"));
        v.push((format!("nn.{l}.bwd_us"), "us"));
    }
    add(
        &mut v,
        &["nn.loss_us", "nn.layer_sum_us", "nn.loss_and_grad_us"],
        "us",
    );
    add(
        &mut v,
        &[
            "core.backtrack_ms",
            "core.replay_init_ms",
            "core.replay_round_ms_p50",
            "core.replay_round_ms_p90",
            "forget.latency_ms_p90",
        ],
        "ms",
    );
    add(&mut v, &["core.estimated_share"], "ratio");
    add(
        &mut v,
        &[
            "core.estimator_fallbacks",
            "core.hvp_fused_sweeps",
            "core.stack_rebuilds",
            "core.pair_refreshes",
            "core.clip_activations",
        ],
        "count",
    );
    add(&mut v, &["storage.round_view_ms_p50"], "ms");
    add(
        &mut v,
        &[
            "storage.spill_loads",
            "storage.decode_cache_hits",
            "storage.spill_writes",
            "storage.evictions",
            "storage.decode_errors",
        ],
        "count",
    );
    add(
        &mut v,
        &["storage.cache_hit_ratio", "storage.gradient_savings_ratio"],
        "ratio",
    );
    add(
        &mut v,
        &["storage.resident_bytes", "storage.spilled_bytes"],
        "bytes",
    );
    add(
        &mut v,
        &[
            "net.round_ms_p50",
            "net.round_ms_p99",
            "net.vehicle_wait_ms",
        ],
        "ms",
    );
    add(
        &mut v,
        &[
            "net.encode_round_model_us",
            "net.decode_round_model_us",
            "net.encode_sign_upload_us",
            "net.decode_sign_upload_us",
        ],
        "us",
    );
    add(
        &mut v,
        &[
            "net.payload_bytes_per_round",
            "net.overhead_bytes_per_round",
        ],
        "bytes",
    );
    add(&mut v, &["obs.trace_overhead_pct"], "%");
    for l in [
        "lab",
        "fl",
        "core",
        "storage",
        "net",
        "baselines",
        "eval",
        "attacks",
    ] {
        v.push((format!("{l}.self_ms"), "ms"));
    }
    add(&mut v, &["acc.ours", "acc.retraining"], "ratio");
    v
}

/// Resets this process's peak resident set (`VmHWM`) to its current RSS.
pub fn reset_peak_rss() {
    // Best effort: without the reset the sample is the process peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) since the last reset, MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (trials, requests, rounds, reads).
    pub attempted: u64,
    /// Operations that failed, plus failed output checks.
    pub failed: u64,
    /// Output checks, in order: `(what, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Measured metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Extra figures for the run record.
    pub record: Vec<(String, Json)>,
    /// Observability counters at the start of the run.
    obs_start: Snapshot,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: BTreeMap::new(),
            record: Vec::new(),
            obs_start: Snapshot::capture(),
        }
    }
}

impl Outcome {
    /// Sets a metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Reports `peak_rss_mb`: the median over operations of the peak
    /// resident set reached while serving one operation.
    pub fn peak_rss(&mut self, per_op: &[f64]) {
        if let Some(m) = median(per_op) {
            self.metric("peak_rss_mb", m);
        }
    }

    /// Adds a figure to the run record.
    pub fn record(&mut self, name: &str, value: f64) {
        self.record.push((name.to_string(), Json::Num(value)));
    }

    /// Adds a list of samples to the run record.
    pub fn record_samples(&mut self, name: &str, values: &[f64]) {
        let v = values.iter().map(|&x| Json::Num(x)).collect();
        self.record.push((name.to_string(), Json::Arr(v)));
    }

    /// Records the wall-clock figures behind the scaled `op_ms_p50`,
    /// `ops_per_s` and `setup_s`, and the reference kernel's median time.
    pub fn record_wall(&mut self, op_ms: &[f64], ops_per_s: f64, setup_s: &[f64], r: &Reference) {
        self.record("wall.op_ms_p50", median(op_ms).unwrap_or(0.0));
        self.record("wall.ops_per_s", ops_per_s);
        self.record("wall.setup_s", median(setup_s).unwrap_or(0.0));
        self.record("ref_ms_p50", median(&r.samples).unwrap_or(0.0));
    }

    /// Records an output check; a failed check also counts as a failure.
    pub fn check(&mut self, what: &str, passed: bool) {
        if !passed {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
        self.checks.push((what.to_string(), passed));
    }

    /// Counts a failed operation.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("perfbench: operation failed: {what}");
    }

    /// `storage.*` metrics of `history`, cumulative over its lifetime,
    /// with the decode-cache hits the run saw. Decode errors count as
    /// failures.
    pub fn storage_metrics(&mut self, history: &HistoryStore) {
        let tier = history.tier_stats();
        let hits = Snapshot::capture()
            .delta(&self.obs_start)
            .counter("storage.decode_cache_hits") as f64;
        let loads = tier.spill_loads as f64;
        self.metric("storage.spill_loads", loads);
        self.metric("storage.decode_cache_hits", hits);
        self.metric(
            "storage.cache_hit_ratio",
            if hits + loads > 0.0 {
                hits / (hits + loads)
            } else {
                0.0
            },
        );
        self.metric("storage.spill_writes", tier.spill_writes as f64);
        self.metric("storage.evictions", tier.evictions as f64);
        self.metric("storage.decode_errors", tier.decode_errors as f64);
        self.metric("storage.resident_bytes", history.resident_bytes() as f64);
        self.metric("storage.spilled_bytes", history.spilled_bytes() as f64);
        self.metric(
            "storage.gradient_savings_ratio",
            history.gradient_savings_ratio(),
        );
        self.failed += tier.decode_errors as u64;
    }

    /// `core.*` counters since `since`: `client_rounds` is the number of
    /// client-rounds replayed, `fallbacks` how many of them used the raw
    /// stored direction.
    pub fn core_counters(&mut self, since: &Snapshot, client_rounds: usize, fallbacks: usize) {
        let d = Snapshot::capture().delta(since);
        for c in [
            "hvp_fused_sweeps",
            "stack_rebuilds",
            "pair_refreshes",
            "clip_activations",
        ] {
            self.metric(&format!("core.{c}"), d.counter(&format!("core.{c}")) as f64);
        }
        self.metric("core.estimator_fallbacks", fallbacks as f64);
        if client_rounds > 0 {
            self.metric(
                "core.estimated_share",
                1.0 - fallbacks as f64 / client_rounds as f64,
            );
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result object: `correct`, `attempted`, `failed` and the
    /// metrics of the mode, each `{value, unit}`, plus the run record.
    /// Metrics of the mode that were not measured are reported as 0 and
    /// listed in the record.
    pub fn to_json(&self, traced: bool, record: Vec<(String, Json)>) -> Json {
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u, _, _)| (n.to_string(), u))
                .collect()
        };
        let mut missing = Vec::new();
        let metrics = catalogue
            .into_iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(&name).copied().unwrap_or_else(|| {
                    missing.push(Json::Str(name.clone()));
                    0.0
                });
                let m = Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]);
                (name, m)
            })
            .collect();
        let mut record = record;
        record.extend(self.record.iter().cloned());
        record.push(("not_measured".into(), Json::Arr(missing)));
        record.push((
            "failed_checks".into(),
            Json::Arr(
                self.checks
                    .iter()
                    .filter(|(_, ok)| !ok)
                    .map(|(w, _)| Json::Str(w.clone()))
                    .collect(),
            ),
        ));
        record.push(("checks".into(), Json::Num(self.checks.len() as f64)));
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
            ("record".into(), Json::Obj(record)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly this
    /// catalogue, in this order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let src = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = Json::parse(&src).expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u, _, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(list("per_layer"), layers);
        for m in doc.get("end_to_end").and_then(Json::as_arr).expect("list") {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let (_, _, better, bound) = END_TO_END.iter().find(|e| e.0 == name).expect("known");
            assert_eq!(m.get("better").and_then(Json::as_str), Some(*better));
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(*bound));
        }
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(n <= 128);
    }
}
