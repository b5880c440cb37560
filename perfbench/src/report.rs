//! Metric names and units, and the printed report: a table with the
//! median, high percentile, sample count and failed share of every
//! metric, then the one-line JSON result the benchmark contract asks for.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fedclust_nn::models::ModelSpec;
use fedclust_tensor::rng::derive;

use crate::ops::Tally;
use crate::stats::{summarize, Summary};
use crate::timed::build_timed;

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("samples_per_s", "samples/s"),
    ("peak_rss_mb", "MB"),
    ("comm_mb", "MB"),
    ("final_acc", "fraction"),
];

/// Per-layer metrics other than the per-model-layer `nn.<L>.*` ones.
const STAGES: &[(&str, &str)] = &[
    ("data.build_s", "s"),
    ("nn.step_other_s", "s"),
    ("fl.sample_s", "s"),
    ("fl.train_s", "s"),
    ("fl.train_calls", "count"),
    ("fl.train_parallel_eff", "fraction"),
    ("fl.aggregate_s", "s"),
    ("fl.eval_s", "s"),
    ("fl.broadcast_s", "s"),
    ("fl.receive_s", "s"),
    ("fl.up_bytes", "bytes"),
    ("fl.down_bytes", "bytes"),
    ("fl.checkpoint.write_s", "s"),
    ("fl.checkpoint.bytes", "bytes"),
    ("fl.checkpoint.writes", "count"),
    ("core.warmup_s", "s"),
    ("core.proximity_s", "s"),
    ("core.cluster_s", "s"),
    ("core.snapshot_s", "s"),
    ("core.snapshot_bytes", "bytes"),
    ("core.num_clusters", "count"),
    ("cluster.hac_s", "s"),
    ("proto.frames.pull", "count"),
    ("proto.frames.work", "count"),
    ("proto.frames.wait", "count"),
    ("proto.frames.push", "count"),
    ("proto.frames.ack", "count"),
    ("proto.bytes_up", "bytes"),
    ("proto.bytes_down", "bytes"),
    ("net.pull_to_work_s", "s"),
    ("net.push_to_ack_s", "s"),
    ("net.worker_idle_share", "fraction"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

/// `<index>-<kind>` of every top-level layer of LeNet-5, then those of
/// ResNet-9 that LeNet-5 does not share.
pub fn model_layer_labels() -> Vec<String> {
    let mut labels: Vec<String> = Vec::new();
    for spec in [ModelSpec::LeNet5, ModelSpec::ResNet9] {
        let timed = build_timed(spec, 3, 16, 16, 10, &mut derive(0, &[0]))
            .expect("both workload architectures have timed builders");
        for slot in timed.slots {
            if !labels.contains(&slot.label) {
                labels.push(slot.label);
            }
        }
    }
    labels
}

/// Every per-layer metric, in report order, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for label in model_layer_labels() {
        for pass in ["fwd_train_s", "bwd_s", "fwd_eval_s"] {
            out.push((format!("nn.{}.{}", label, pass), "s"));
        }
    }
    out.extend(STAGES.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// One metric's samples.
pub struct Measured {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

fn fmt_num(x: f64) -> String {
    // Shortest representation that reads back to the same f64.
    let s = format!("{}", x);
    if s.contains(['.', 'e', 'E']) || !x.is_finite() {
        s
    } else {
        format!("{}.0", s)
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The human-readable table: one row per metric.
pub fn table(metrics: &[Measured], tally: &Tally) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>14} {:>20} {:>6} {:>8}",
        "metric", "unit", "median", "high pct", "n", "failed"
    );
    for m in metrics {
        let (median, high, n) = match summarize(&m.samples) {
            Some(Summary {
                median,
                high,
                count,
            }) => (
                format!("{:.6}", median),
                high.map_or("n<11: none".to_string(), |(p, v)| {
                    format!("p{} {:.6}", p, v)
                }),
                count,
            ),
            None => ("-".to_string(), "-".to_string(), 0),
        };
        let _ = writeln!(
            out,
            "{:<34} {:>10} {:>14} {:>20} {:>6} {:>7.1}%",
            m.name,
            m.unit,
            median,
            high,
            n,
            100.0 * tally.failed_share()
        );
    }
    out
}

/// The detailed report as one JSON object: every metric's median, high
/// percentile, sample count and samples, the failure reasons, and the environment
/// (whose values are JSON text already).
pub fn details(metrics: &[Measured], tally: &Tally, env: &BTreeMap<&str, String>) -> String {
    let mut out = String::from("{\"report\":{\"metrics\":{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let s = summarize(&m.samples);
        let _ = write!(
            out,
            "{}:{{\"unit\":{},\"median\":{},\"high_percentile\":{},\"high_value\":{},\"samples\":{},\"values\":[{}]}}",
            json_str(&m.name),
            json_str(m.unit),
            s.as_ref().map_or("null".into(), |s| fmt_num(s.median)),
            s.as_ref().and_then(|s| s.high).map_or("null".into(), |(p, _)| p.to_string()),
            s.as_ref().and_then(|s| s.high).map_or("null".into(), |(_, v)| fmt_num(v)),
            m.samples.len(),
            m.samples.iter().map(|&v| fmt_num(v)).collect::<Vec<_>>().join(",")
        );
    }
    let _ = write!(
        out,
        "}},\"attempted\":{},\"failed\":{},\"failed_share\":{},\"failures\":[{}],\"env\":{{",
        tally.attempted,
        tally.failed,
        fmt_num(tally.failed_share()),
        tally
            .reasons
            .iter()
            .map(|r| json_str(r))
            .collect::<Vec<_>>()
            .join(",")
    );
    for (i, (k, v)) in env.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_str(k), v);
    }
    out.push_str("}}}");
    out
}

/// The result line: `correct`, `attempted`, `failed`, and each metric's
/// median with its unit.
pub fn result_line(correct: bool, metrics: &[Measured], tally: &Tally) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        correct, tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let median = summarize(&m.samples)
            .map(|s| s.median)
            .ok_or_else(|| format!("no sample of {}", m.name))?;
        if !median.is_finite() {
            return Err(format!("{} is not finite", m.name));
        }
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(&m.name),
            fmt_num(median),
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_valid() {
        let names = per_layer();
        assert!(names.len() <= 128, "{} per-layer metrics", names.len());
        for (i, (n, u)) in names.iter().enumerate() {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                n
            );
            assert!(u.len() <= 16);
            assert!(names[..i].iter().all(|(o, _)| o != n), "duplicate {}", n);
        }
        assert!(names.iter().any(|(n, _)| n == "nn.0-conv2d.fwd_train_s"));
        assert!(names.iter().any(|(n, _)| n == "nn.3-residual.bwd_s"));
    }

    #[derive(serde::Deserialize)]
    struct Named {
        name: String,
    }

    #[derive(serde::Deserialize)]
    struct MetricSpec {
        name: String,
        unit: String,
    }

    #[derive(serde::Deserialize)]
    struct Spec {
        workloads: Vec<Named>,
        end_to_end: Vec<MetricSpec>,
        per_layer: Vec<MetricSpec>,
    }

    /// The metric and workload lists in BENCHMARK.json are these lists,
    /// in this order.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec: Spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let pairs = |ms: &[MetricSpec]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(pairs(&spec.end_to_end), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(pairs(&spec.per_layer), layers);
        let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut tally = Tally::default();
        tally.attempt("a", || Ok::<_, String>(()));
        let metrics = vec![Measured {
            name: "run_s".into(),
            unit: "s",
            samples: vec![1.5, 0.5, 1.0],
        }];
        let line = result_line(true, &metrics, &tally).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"run_s\":{\"value\":1.0,\"unit\":\"s\"}}}"
        );
        let empty = vec![Measured {
            name: "x".into(),
            unit: "s",
            samples: vec![],
        }];
        assert!(result_line(true, &empty, &tally).is_err());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
