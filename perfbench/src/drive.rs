//! The untraced and traced runs of each kind of workload.
//!
//! Untraced runs measure the end-to-end metrics through the program's
//! entry points: `FlMethod::run` (or `run_resumable` for a workload that
//! checkpoints) in this process, and `fedclustd` plus workers for the
//! networked workload. Traced runs first repeat a few untraced runs, for
//! the untraced wall time the trace is compared with, then run the traced
//! loop (or the observed networked run) and report per-layer numbers.
//!
//! An untraced run cycles through several datasets derived from its seed
//! (see [`data_seeds`]), so its medians do not hang on one draw of the
//! data; a traced run uses the first of them only.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fedclust::FedClust;
use fedclust_cli::find_method;
use fedclust_cluster::hac::agglomerative;
use fedclust_fl::checkpoint::Checkpointer;
use fedclust_fl::metrics::RunResult;
use fedclust_fl::FlMethod;
use fedclust_tensor::rng::{derive, streams};

use crate::net::{self, Bins, NetRun};
use crate::ops::{Tally, Window};
use crate::report::{per_layer, Measured, END_TO_END};
use crate::stats::median;
use crate::timed::{build_timed, LayerTimes};
use crate::trace::Tracer;
use crate::traced::{run_traced, CkptPlan, Method};
use crate::workload::{chance, local_samples, set_up, Inputs, Mode, Workload};

/// Set-ups per run, cycling over the run's datasets: at least
/// `MIN_SETUPS`, and more while they take less than `SETUP_BUDGET` in all,
/// up to `MAX_SETUPS`. `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 40;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Share of a traced run's window spent on untraced repeats.
const UNTRACED_SHARE: f64 = 0.4;

pub struct Opts {
    pub seed: u64,
    pub budget: Duration,
    pub work_dir: PathBuf,
    pub bin_dir: PathBuf,
}

pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Measured>,
    /// The dataset seeds the run used.
    pub data_seeds: Vec<u64>,
    /// Where the traced run wrote its spans.
    pub spans_file: Option<PathBuf>,
}

/// The dataset seeds of a run with `--seed seed`: `k` consecutive seeds,
/// disjoint from those of every other `--seed`.
pub fn data_seeds(seed: u64, k: usize) -> Result<Vec<u64>, String> {
    let k64 = k as u64;
    let base = seed
        .checked_mul(k64)
        .ok_or_else(|| format!("--seed {} is too large", seed))?;
    (0..k64)
        .map(|j| {
            base.checked_add(j)
                .ok_or_else(|| format!("--seed {} is too large", seed))
        })
        .collect()
}

/// The output checks every run's result must pass.
fn check(result: &RunResult, chance: f64) -> Result<(), String> {
    let acc = result.final_acc;
    if !acc.is_finite() || !(0.0..=1.0).contains(&acc) {
        return Err(format!("final_acc {} is not a fraction", acc));
    }
    if acc <= chance {
        return Err(format!("final_acc {} is not above chance {}", acc, chance));
    }
    if !(result.total_mb.is_finite() && result.total_mb > 0.0) {
        return Err(format!("total_mb {} is not positive", result.total_mb));
    }
    Ok(())
}

/// The `--json` text `fedclust-cli run` prints for `result`.
fn result_json(result: &RunResult) -> String {
    serde_json::to_string_pretty(result).expect("a RunResult serializes")
}

/// One dataset of a run.
struct Case {
    inputs: Inputs,
    samples: u64,
    seen: Seen,
}

/// The checks on one dataset's results, and the first result seen: its
/// `--json` text, final accuracy and communication.
struct Seen {
    seed: u64,
    chance: f64,
    first: Option<(String, f64, f64)>,
}

impl Seen {
    /// Check `result`, and that it repeats the first result on this
    /// dataset (or make it the first).
    fn accept(&mut self, result: &RunResult) -> Result<(), String> {
        check(result, self.chance)?;
        let json = result_json(result);
        match &self.first {
            Some((first, _, _)) if *first != json => Err(format!(
                "RunResult differs from the first run at seed {}",
                self.seed
            )),
            Some(_) => Ok(()),
            None => {
                self.first = Some((json, result.final_acc, result.total_mb));
                Ok(())
            }
        }
    }
}

struct Cases {
    cases: Vec<Case>,
    setup_s: Vec<f64>,
    data_s: Vec<f64>,
}

impl Cases {
    fn seeds(&self) -> Vec<u64> {
        self.cases.iter().map(|c| c.seen.seed).collect()
    }

    /// `final_acc` and `comm_mb` of each dataset's result: one sample per
    /// dataset, so their medians depend on the seed alone, not on how
    /// many runs fit in the window.
    fn outputs(&self, e2e: &mut EndToEnd) {
        for (_, acc, mb) in self.cases.iter().filter_map(|c| c.seen.first.as_ref()) {
            e2e.final_acc.push(*acc);
            e2e.comm_mb.push(*mb);
        }
    }
}

/// Build each dataset of the run, timing every set-up.
fn set_up_cases(wl: &Workload, seeds: &[u64]) -> Result<Cases, String> {
    let mut cases = Vec::with_capacity(seeds.len());
    let (mut setup_s, mut data_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for i in 0..MAX_SETUPS.max(seeds.len()) {
        let enough = i >= MIN_SETUPS.max(seeds.len()) && started.elapsed() >= SETUP_BUDGET;
        if enough {
            break;
        }
        let seed = seeds[i % seeds.len()];
        let (inputs, s, d) = set_up(&wl.args(seed)?)?;
        setup_s.push(s);
        data_s.push(d);
        if i < seeds.len() {
            cases.push(Case {
                samples: local_samples(&inputs, wl.is_fedclust()),
                seen: Seen {
                    seed,
                    chance: chance(&inputs),
                    first: None,
                },
                inputs,
            });
        }
    }
    Ok(Cases {
        cases,
        setup_s,
        data_s,
    })
}

fn method_of(wl: &Workload) -> Result<Box<dyn FlMethod>, String> {
    find_method(wl.method_name()).ok_or_else(|| format!("unknown method {}", wl.method_name()))
}

/// End-to-end samples, in `END_TO_END` order.
#[derive(Default)]
struct EndToEnd {
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    samples_per_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    comm_mb: Vec<f64>,
    final_acc: Vec<f64>,
}

impl EndToEnd {
    fn push_run(&mut self, run_s: f64, samples: u64) {
        self.run_s.push(run_s);
        self.samples_per_s.push(samples as f64 / run_s);
    }

    fn into_metrics(self) -> Vec<Measured> {
        let columns = [
            self.setup_s,
            self.run_s,
            self.samples_per_s,
            self.peak_rss_mb,
            self.comm_mb,
            self.final_acc,
        ];
        END_TO_END
            .iter()
            .zip(columns)
            .map(|((name, unit), samples)| Measured {
                name: name.to_string(),
                unit,
                samples,
            })
            .collect()
    }
}

/// A checkpoint directory of this process, emptied before each run.
struct CkptDir(Option<CkptPlan>);

impl CkptDir {
    fn new(wl: &Workload, work_dir: &Path) -> CkptDir {
        CkptDir(wl.checkpoint_every.map(|every| CkptPlan {
            dir: work_dir.join(format!("ckpt-{}-{}", wl.name, std::process::id())),
            every,
        }))
    }

    fn fresh(&self) -> Result<(Checkpointer, Option<&Path>), String> {
        match &self.0 {
            None => Ok((Checkpointer::disabled(), None)),
            Some(plan) => {
                if plan.dir.exists() {
                    std::fs::remove_dir_all(&plan.dir).map_err(|e| e.to_string())?;
                }
                Ok((plan.checkpointer(), Some(plan.dir.as_path())))
            }
        }
    }
}

impl Drop for CkptDir {
    fn drop(&mut self) {
        if let Some(plan) = &self.0 {
            let _ = std::fs::remove_dir_all(&plan.dir);
        }
    }
}

/// Untraced in-process runs for `budget`, cycling over the datasets; each
/// result is checked.
fn in_process_runs(
    wl: &Workload,
    cases: &mut Cases,
    budget: Duration,
    min_ops: usize,
    ckpt: &CkptDir,
    tally: &mut Tally,
    e2e: &mut EndToEnd,
) -> Result<(), String> {
    let method = method_of(wl)?;
    // Where the peak cannot be reset, peak_rss_mb is the process's peak.
    let per_run_peak = crate::sys::reset_own_peak_rss().is_ok();
    if !per_run_peak {
        println!("peak_rss_mb: cannot reset the peak; reporting the process peak");
    }
    let mut window = Window::new(budget, min_ops);
    let mut i = 0;
    while window.has_room() {
        let n = cases.cases.len();
        let case = &mut cases.cases[i % n];
        i += 1;
        let done = window.timed(|| {
            tally.attempt(wl.name, || {
                let (mut checkpointer, dir) = ckpt.fresh()?;
                let (fd, cfg) = (&case.inputs.fd, &case.inputs.cfg);
                if per_run_peak {
                    crate::sys::reset_own_peak_rss()?;
                }
                let t = Instant::now();
                let result = match dir {
                    None => method.run(fd, cfg),
                    Some(_) => method
                        .run_resumable(fd, cfg, &mut checkpointer)
                        .map_err(|e| e.to_string())?,
                };
                let run_s = t.elapsed().as_secs_f64();
                let peak_rss_mb = crate::sys::own_peak_rss_mb()?;
                case.seen.accept(&result)?;
                Ok((run_s, peak_rss_mb))
            })
        });
        if let Some((run_s, peak_rss_mb)) = done {
            e2e.push_run(run_s, case.samples);
            e2e.peak_rss_mb.push(peak_rss_mb);
        }
    }
    Ok(())
}

pub fn untraced(wl: &Workload, opts: &Opts) -> Result<Outcome, String> {
    let seeds = data_seeds(opts.seed, wl.inputs_per_run)?;
    // One more run than datasets, so some dataset is run twice and the
    // repeat is checked against the first.
    let min_ops = seeds.len() + 1;
    match wl.mode {
        Mode::InProcess => {
            let mut cases = set_up_cases(wl, &seeds)?;
            let ckpt = CkptDir::new(wl, &opts.work_dir);
            let (mut tally, mut e2e) = (Tally::default(), EndToEnd::default());
            in_process_runs(
                wl,
                &mut cases,
                opts.budget,
                min_ops,
                &ckpt,
                &mut tally,
                &mut e2e,
            )?;
            e2e.setup_s = cases.setup_s.clone();
            cases.outputs(&mut e2e);
            Ok(Outcome {
                tally,
                metrics: e2e.into_metrics(),
                data_seeds: cases.seeds(),
                spans_file: None,
            })
        }
        Mode::Networked { workers } => {
            let mut net = NetBench::new(wl, opts, &seeds, workers)?;
            let runs = net.runs(opts.budget, min_ops, false);
            let mut e2e = net.end_to_end(&runs);
            net.cases.outputs(&mut e2e);
            Ok(Outcome {
                metrics: e2e.into_metrics(),
                data_seeds: net.cases.seeds(),
                tally: net.tally,
                spans_file: None,
            })
        }
    }
}

/// The networked workload: its datasets, their in-process reference
/// outputs, and the binaries.
struct NetBench {
    bins: Bins,
    workers: usize,
    cases: Cases,
    /// Per case: the `run` flags.
    flags: Vec<Vec<String>>,
    tally: Tally,
}

impl NetBench {
    fn new(wl: &Workload, opts: &Opts, seeds: &[u64], workers: usize) -> Result<NetBench, String> {
        let bins = Bins::in_dir(&opts.bin_dir)?;
        let mut cases = set_up_cases(wl, seeds)?;
        let method = method_of(wl)?;
        let mut tally = Tally::default();
        // The in-process result on each dataset becomes its first result,
        // which every networked run must print.
        for case in &mut cases.cases {
            tally.attempt("in-process reference", || {
                let result = method.run(&case.inputs.fd, &case.inputs.cfg);
                case.seen.accept(&result)
            });
        }
        Ok(NetBench {
            bins,
            workers,
            flags: seeds
                .iter()
                .map(|&s| wl.run_argv(s)[1..].to_vec())
                .collect(),
            cases,
            tally,
        })
    }

    /// Networked runs for `budget`, cycling over the datasets; each must
    /// print its dataset's in-process output. Returns `(case, run)` for
    /// the runs that did.
    fn runs(&mut self, budget: Duration, min_ops: usize, observe: bool) -> Vec<(usize, NetRun)> {
        let mut window = Window::new(budget, min_ops);
        let mut runs = Vec::new();
        let mut i = 0;
        while window.has_room() {
            let c = i % self.cases.cases.len();
            i += 1;
            let (bins, workers) = (&self.bins, self.workers);
            let (flags, reference) = (&self.flags[c], &self.cases.cases[c].seen.first);
            let tally = &mut self.tally;
            let done = window.timed(|| {
                tally.attempt("net-run", || {
                    let (expected, _, _) = reference.as_ref().ok_or("no in-process reference")?;
                    let run = net::run_once(bins, flags, workers, observe)?;
                    // fedclustd prints the --json text and a newline.
                    if run.stdout.strip_suffix('\n') != Some(expected.as_str()) {
                        return Err("networked --json differs from the in-process run".into());
                    }
                    Ok(run)
                })
            });
            runs.extend(done.map(|run| (c, run)));
        }
        runs
    }

    /// End-to-end samples of `runs`; `setup_s` is each run's own.
    fn end_to_end(&self, runs: &[(usize, NetRun)]) -> EndToEnd {
        let mut e2e = EndToEnd::default();
        for (c, run) in runs {
            e2e.push_run(run.run_s, self.cases.cases[*c].samples);
            e2e.setup_s.push(run.setup_s);
            e2e.peak_rss_mb.push(run.server_peak_rss_mb);
        }
        e2e
    }
}

/// Per-layer metrics of one traced in-process run.
fn traced_op_metrics(
    labels: &[String],
    before: &[LayerTimes],
    after: &[LayerTimes],
    t: &Tracer,
    threads: usize,
    hac_s: f64,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    for (label, (b, a)) in labels.iter().zip(before.iter().zip(after)) {
        let d = a.minus(b);
        m.insert(
            format!("nn.{}.fwd_train_s", label),
            d.fwd_train_ns as f64 / 1e9,
        );
        m.insert(format!("nn.{}.bwd_s", label), d.bwd_ns as f64 / 1e9);
        m.insert(
            format!("nn.{}.fwd_eval_s", label),
            d.fwd_eval_ns as f64 / 1e9,
        );
    }
    for (key, span) in [
        ("fl.sample_s", "fl.sample"),
        ("fl.train_s", "fl.train"),
        ("fl.aggregate_s", "fl.aggregate"),
        ("fl.eval_s", "fl.eval"),
        ("fl.broadcast_s", "fl.broadcast"),
        ("fl.receive_s", "fl.receive"),
        ("fl.checkpoint.write_s", "fl.checkpoint.write"),
        ("core.warmup_s", "core.warmup"),
        ("core.proximity_s", "core.proximity"),
        ("core.cluster_s", "core.cluster"),
        ("core.snapshot_s", "core.snapshot"),
    ] {
        m.insert(key.to_string(), t.self_total(span));
    }
    for key in [
        "fl.train_calls",
        "fl.up_bytes",
        "fl.down_bytes",
        "fl.checkpoint.bytes",
        "fl.checkpoint.writes",
        "core.snapshot_bytes",
        "core.num_clusters",
    ] {
        m.insert(key.to_string(), t.counter(key));
    }
    let train_layer_s = t.counter("fl.train_layer_ns") / 1e9;
    m.insert(
        "nn.step_other_s".to_string(),
        t.counter("fl.train_local_ns") / 1e9 - train_layer_s,
    );
    let train_s = t.self_total("fl.train");
    m.insert(
        "fl.train_parallel_eff".to_string(),
        if train_s > 0.0 {
            train_layer_s / (train_s * threads as f64)
        } else {
            0.0
        },
    );
    m.insert("cluster.hac_s".to_string(), hac_s);
    m.insert("trace.attributed".to_string(), t.attributed_under("run"));
    m.insert("trace.wall".to_string(), t.root_total("run"));
    m
}

/// Every per-layer metric, from per-run samples; metrics of layers the
/// workload does not exercise read 0.
fn per_layer_metrics(mut samples: BTreeMap<String, Vec<f64>>) -> Vec<Measured> {
    per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let s = samples
                .remove(&name)
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| vec![0.0]);
            Measured {
                name,
                unit,
                samples: s,
            }
        })
        .collect()
}

fn collect(samples: &mut BTreeMap<String, Vec<f64>>, op: BTreeMap<String, f64>) {
    for (k, v) in op {
        samples.entry(k).or_default().push(v);
    }
}

/// Median of `xs`, which are `what`; an error when there are none.
fn med_of(xs: &[f64], what: &str) -> Result<f64, String> {
    median(xs).ok_or_else(|| format!("no successful run measured {}", what))
}

fn med(samples: &BTreeMap<String, Vec<f64>>, key: &str) -> Result<f64, String> {
    med_of(samples.get(key).map_or(&[][..], |v| v), key)
}

pub fn traced(wl: &Workload, opts: &Opts) -> Result<Outcome, String> {
    let seeds = data_seeds(opts.seed, 1)?;
    let untraced_budget = opts.budget.mul_f64(UNTRACED_SHARE);
    let traced_budget = opts.budget - untraced_budget;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    match wl.mode {
        Mode::InProcess => {
            let mut cases = set_up_cases(wl, &seeds)?;
            let ckpt = CkptDir::new(wl, &opts.work_dir);
            let (mut tally, mut e2e) = (Tally::default(), EndToEnd::default());
            in_process_runs(
                wl,
                &mut cases,
                untraced_budget,
                2,
                &ckpt,
                &mut tally,
                &mut e2e,
            )?;
            let untraced_run_s = med_of(&e2e.run_s, "untraced run_s")?;

            let Case { inputs, seen, .. } = &mut cases.cases[0];
            let (fd, cfg) = (&inputs.fd, &inputs.cfg);
            let timed = build_timed(
                cfg.model,
                fd.channels,
                fd.height,
                fd.width,
                fd.num_classes,
                &mut derive(cfg.seed, &[streams::MODEL_INIT]),
            )?;
            let labels: Vec<String> = timed.slots.iter().map(|s| s.label.clone()).collect();
            let fc = FedClust::default();
            let method = if wl.is_fedclust() {
                Method::FedClust(fc)
            } else {
                Method::FedAvg
            };
            let threads = rayon::current_num_threads();
            let mut window = Window::new(traced_budget, 2);
            let mut run_id = 0u32;
            let mut spans = String::new();
            while window.has_room() {
                run_id += 1;
                let op = window.timed(|| {
                    tally.attempt("traced run", || {
                        let (mut checkpointer, dir) = ckpt.fresh()?;
                        let mut t = Tracer::new(run_id);
                        let before = timed.read();
                        let run =
                            run_traced(method, fd, cfg, &timed, &mut checkpointer, dir, &mut t)
                                .map_err(|e| e.to_string())?;
                        let after = timed.read();
                        // The trace must have run the program: its result
                        // is the untraced FlMethod::run result, bit for bit.
                        seen.accept(&run.result)
                            .map_err(|e| format!("traced run: {}", e))?;
                        // HAC on its own, on the matrix the run clustered,
                        // outside the run's spans.
                        let hac_s = run.matrix.as_ref().map_or(0.0, |m| {
                            let h = Instant::now();
                            std::hint::black_box(agglomerative(m, fc.linkage));
                            h.elapsed().as_secs_f64()
                        });
                        spans.push_str(&t.spans_jsonl());
                        Ok(traced_op_metrics(
                            &labels, &before, &after, &t, threads, hac_s,
                        ))
                    })
                });
                if let Some(op) = op {
                    collect(&mut samples, op);
                }
            }
            let attributed = med(&samples, "trace.attributed")?;
            let wall = med(&samples, "trace.wall")?;
            samples.insert("data.build_s".into(), cases.data_s.clone());
            samples.insert(
                "trace.unattributed_s".into(),
                vec![untraced_run_s - attributed],
            );
            samples.insert("trace.overhead_s".into(), vec![wall - untraced_run_s]);
            let spans_file = opts
                .work_dir
                .join(format!("spans-{}-seed{}.jsonl", wl.name, opts.seed));
            std::fs::write(&spans_file, spans).map_err(|e| e.to_string())?;
            Ok(Outcome {
                tally,
                metrics: per_layer_metrics(samples),
                data_seeds: cases.seeds(),
                spans_file: Some(spans_file),
            })
        }
        Mode::Networked { workers } => {
            let mut net = NetBench::new(wl, opts, &seeds, workers)?;
            let plain = net.runs(untraced_budget, 2, false);
            let untraced_run_s = med_of(&net.end_to_end(&plain).run_s, "untraced run_s")?;
            let observed = net.runs(traced_budget, 2, true);
            for (_, run) in &observed {
                let frames = run.frames.as_deref().unwrap_or(&[]);
                let mut op: BTreeMap<String, f64> = net::frame_metrics(frames)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect();
                // Training and the round trips around it, from round 0
                // start to the server's exit.
                let in_run: Vec<net::FrameEvent> = frames
                    .iter()
                    .copied()
                    .filter(|f| f.at >= run.started && f.at <= run.ended)
                    .collect();
                op.insert(
                    "trace.attributed".into(),
                    net::frame_metrics(&in_run)["net.covered_s"],
                );
                collect(&mut samples, op);
            }
            let attributed = med(&samples, "trace.attributed")?;
            let observed_run_s = med_of(&net.end_to_end(&observed).run_s, "observed run_s")?;
            samples.insert("data.build_s".into(), net.cases.data_s.clone());
            samples.insert(
                "trace.unattributed_s".into(),
                vec![untraced_run_s - attributed],
            );
            samples.insert(
                "trace.overhead_s".into(),
                vec![observed_run_s - untraced_run_s],
            );
            Ok(Outcome {
                metrics: per_layer_metrics(samples),
                data_seeds: net.cases.seeds(),
                tally: net.tally,
                spans_file: None,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_seeds_are_disjoint_across_seeds() {
        assert_eq!(data_seeds(0, 3).unwrap(), vec![0, 1, 2]);
        assert_eq!(data_seeds(1, 3).unwrap(), vec![3, 4, 5]);
        assert_eq!(data_seeds(7, 1).unwrap(), vec![7]);
        assert!(data_seeds(u64::MAX, 2).is_err());
    }
}
