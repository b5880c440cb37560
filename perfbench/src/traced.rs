//! The traced round loops: FedAvg and FedClust rebuilt from the program's
//! public pieces (`fl::engine`, `fl::faults::Transport`, `fl::checkpoint`,
//! `fedclust::{proximity, clustering, persist}`), with a span around each
//! call into a layer.
//!
//! Each loop makes the same calls in the same order as
//! `fedclust_fl::methods::FedAvg` and `fedclust::FedClust`, so its
//! `RunResult` is bit-identical to `FlMethod::run` at the same seed; the
//! tests below and every traced benchmark operation check that.
//!
//! The one piece rebuilt rather than called is `engine::train_sampled`
//! (clone the template, set the start state, `local_train`), so that each
//! client's local-training time can be measured on the thread that runs
//! it.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fedclust::clustering::{cluster_clients, ClusteringOutcome};
use fedclust::persist::SavedFederation;
use fedclust::proximity::{collect_partial_weights_for, proximity_matrix};
use fedclust::FedClust;
use fedclust_cluster::ProximityMatrix;
use fedclust_data::FederatedDataset;
use fedclust_fl::checkpoint::{generation_file, Checkpoint, CheckpointError, Checkpointer};
use fedclust_fl::engine::{
    average_accuracy, evaluate_clients, local_train, sample_clients, weighted_average, ClientUpdate,
};
use fedclust_fl::faults::Transport;
use fedclust_fl::metrics::{RoundRecord, RunResult};
use fedclust_fl::{FlConfig, MethodState};
use fedclust_nn::optim::Sgd;
use fedclust_nn::Model;
use rayon::prelude::*;

use crate::timed::TimedModel;
use crate::trace::Tracer;

/// Which method the traced loop rebuilds.
#[derive(Debug, Clone, Copy)]
pub enum Method {
    FedAvg,
    FedClust(FedClust),
}

/// Where checkpoints go, when the workload writes them.
pub struct CkptPlan {
    pub dir: PathBuf,
    pub every: usize,
}

impl CkptPlan {
    pub fn checkpointer(&self) -> Checkpointer {
        Checkpointer::new(&self.dir).every(self.every)
    }
}

/// What one traced run hands back besides its spans and counters.
pub struct TracedRun {
    pub result: RunResult,
    /// FedClust's round-0 proximity matrix, for timing HAC on its own
    /// after the run.
    pub matrix: Option<ProximityMatrix>,
}

struct Ctx<'a> {
    fd: &'a FederatedDataset,
    cfg: &'a FlConfig,
    timed: &'a TimedModel,
    ckpt_dir: Option<&'a Path>,
}

impl Ctx<'_> {
    fn template(&self) -> &Model {
        &self.timed.model
    }

    fn layer_ns(&self) -> u64 {
        self.timed.read().iter().map(|t| t.total_ns()).sum()
    }

    /// `engine::train_round` without a remote trainer: broadcast, local
    /// training of the reached clients, then the uplink path.
    fn train_round(
        &self,
        t: &mut Tracer,
        start_state: &[f32],
        sampled: &[usize],
        round: usize,
        transport: &mut Transport,
    ) -> Vec<ClientUpdate> {
        let reached = t.span("fl.broadcast", |_| {
            transport.broadcast(round, sampled, start_state.len())
        });
        let layers_before = self.layer_ns();
        let local_ns = AtomicU64::new(0);
        let updates = t.span("fl.train", |_| {
            self.train_sampled(start_state, &reached, round, &local_ns)
        });
        t.count("fl.train_calls", 1.0);
        t.count(
            "fl.train_layer_ns",
            (self.layer_ns() - layers_before) as f64,
        );
        t.count("fl.train_local_ns", local_ns.into_inner() as f64);
        t.span("fl.receive", |_| {
            transport.receive(round, updates, Some(start_state), Some(start_state))
        })
    }

    /// `engine::train_sampled` with `prox_mu = None`, timing each
    /// client's `local_train` call.
    fn train_sampled(
        &self,
        start_state: &[f32],
        clients: &[usize],
        round: usize,
        local_ns: &AtomicU64,
    ) -> Vec<ClientUpdate> {
        let (fd, cfg) = (self.fd, self.cfg);
        clients
            .par_iter()
            .map(|&client| {
                let mut model = self.template().clone();
                model.set_state_vec(start_state);
                let mut opt = Sgd::new(cfg.sgd());
                let data = &fd.clients[client];
                let start = Instant::now();
                let steps = local_train(
                    &mut model,
                    data,
                    &mut opt,
                    cfg.local_epochs,
                    cfg.batch_size,
                    cfg.seed,
                    client,
                    round,
                );
                // A statistic read after the parallel section joins.
                local_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                ClientUpdate {
                    client,
                    state: model.state_vec(),
                    weight: data.train_samples() as f32,
                    steps,
                }
            })
            .collect()
    }

    fn evaluate<'s>(
        &self,
        t: &mut Tracer,
        state_of: impl Fn(usize) -> &'s [f32] + Sync,
    ) -> Vec<f32> {
        t.span("fl.eval", |_| {
            evaluate_clients(self.fd, self.template(), state_of)
        })
    }

    /// `Checkpointer::on_round_end`, counting the generation it wrote.
    fn round_end(
        &self,
        t: &mut Tracer,
        ckpt: &mut Checkpointer,
        round: usize,
        build: impl FnOnce(&mut Tracer) -> Checkpoint,
    ) -> Result<(), CheckpointError> {
        t.span("fl.checkpoint.write", |t| {
            ckpt.on_round_end(round, || build(t))
        })?;
        self.count_generation(t, round + 1);
        Ok(())
    }

    fn count_generation(&self, t: &mut Tracer, next_round: usize) {
        let Some(dir) = self.ckpt_dir else { return };
        if let Ok(meta) = std::fs::metadata(dir.join(generation_file(next_round))) {
            t.count("fl.checkpoint.writes", 1.0);
            t.count("fl.checkpoint.bytes", meta.len() as f64);
        }
    }

    fn count_comm(&self, t: &mut Tracer, transport: &Transport) {
        t.count("fl.up_bytes", transport.meter().uplink_bytes());
        t.count("fl.down_bytes", transport.meter().downlink_bytes());
    }
}

/// Run `method` once, traced. `ckpt_dir` must be the directory `ckpt`
/// writes to (or `None` when it is disabled), and must start empty.
pub fn run_traced(
    method: Method,
    fd: &FederatedDataset,
    cfg: &FlConfig,
    timed: &TimedModel,
    ckpt: &mut Checkpointer,
    ckpt_dir: Option<&Path>,
    t: &mut Tracer,
) -> Result<TracedRun, CheckpointError> {
    let ctx = Ctx {
        fd,
        cfg,
        timed,
        ckpt_dir,
    };
    t.span("run", |t| match method {
        Method::FedAvg => fedavg(&ctx, ckpt, t),
        Method::FedClust(fc) => fedclust(&ctx, &fc, ckpt, t),
    })
}

/// `fedclust_fl::methods::global::run_global` for plain FedAvg, fresh
/// start.
fn fedavg(
    ctx: &Ctx,
    ckpt: &mut Checkpointer,
    t: &mut Tracer,
) -> Result<TracedRun, CheckpointError> {
    let (fd, cfg) = (ctx.fd, ctx.cfg);
    let mut global = ctx.template().state_vec();
    let mut transport = Transport::new(cfg);
    let mut history = Vec::new();

    for round in 0..cfg.rounds {
        let sampled = t.span("fl.sample", |_| {
            sample_clients(fd.num_clients(), cfg, round)
        });
        let updates = ctx.train_round(t, &global, &sampled, round, &mut transport);
        global = t.span("fl.aggregate", |_| {
            if updates.is_empty() {
                global.clone()
            } else {
                let items: Vec<(&[f32], f32)> = updates
                    .iter()
                    .map(|u| (u.state.as_slice(), u.weight))
                    .collect();
                weighted_average(&items)
            }
        });
        if cfg.should_eval(round) {
            let per_client = ctx.evaluate(t, |_| &global[..]);
            history.push(RoundRecord {
                round: round + 1,
                avg_acc: average_accuracy(&per_client),
                cum_mb: transport.meter().total_mb(),
            });
        }
        ctx.round_end(t, ckpt, round, |_| Checkpoint {
            method: "FedAvg".to_string(),
            seed: cfg.seed,
            next_round: round + 1,
            meter: transport.meter().clone(),
            telemetry: transport.telemetry(),
            history: history.clone(),
            state: MethodState::Global {
                state: global.clone(),
            },
            residuals: transport.codec_residuals(),
        })?;
    }

    let per_client_acc = ctx.evaluate(t, |_| &global[..]);
    ctx.count_comm(t, &transport);
    Ok(TracedRun {
        result: RunResult {
            method: "FedAvg".to_string(),
            final_acc: average_accuracy(&per_client_acc),
            per_client_acc,
            history,
            num_clusters: Some(1),
            total_mb: transport.meter().total_mb(),
            faults: transport.telemetry(),
        },
        matrix: None,
    })
}

/// The `SavedFederation` JSON a FedClust checkpoint embeds.
fn snapshot(
    t: &mut Tracer,
    cfg: &FlConfig,
    fd: &FederatedDataset,
    init_state: &[f32],
    outcome: &ClusteringOutcome,
    representatives: &[Vec<f32>],
    states: &[Vec<f32>],
) -> String {
    let json = t.span("core.snapshot", |_| {
        SavedFederation {
            model_spec: cfg.model,
            geometry: (fd.channels, fd.height, fd.width, fd.num_classes),
            init_state: init_state.to_vec(),
            labels: outcome.labels.clone(),
            cluster_states: states.to_vec(),
            representatives: representatives.to_vec(),
            outcome: outcome.clone(),
        }
        .to_json()
    });
    t.count("core.snapshot_bytes", json.len() as f64);
    json
}

/// `FedClust::run_detailed_resumable`, fresh start.
fn fedclust(
    ctx: &Ctx,
    fc: &FedClust,
    ckpt: &mut Checkpointer,
    t: &mut Tracer,
) -> Result<TracedRun, CheckpointError> {
    let (fd, cfg) = (ctx.fd, ctx.cfg);
    let template = ctx.template();
    let state_len = template.state_len();
    let init_state = template.state_vec();
    let mut transport = Transport::new(cfg);
    let name = "FedClust";

    // ---- Round 0: one-shot clustering. ----
    let upload_len = fc.selection.upload_len(template);
    let all_clients: Vec<usize> = (0..fd.num_clients()).collect();
    let reached = t.span("fl.broadcast", |_| {
        transport.broadcast(0, &all_clients, state_len)
    });
    let collected = t.span("core.warmup", |_| {
        collect_partial_weights_for(
            fd,
            cfg,
            template,
            &init_state,
            fc.warmup_epochs,
            fc.selection,
            &reached,
        )
    });
    let lost: Vec<usize> = {
        let got: BTreeSet<usize> = collected.iter().map(|(c, _)| *c).collect();
        reached
            .iter()
            .copied()
            .filter(|c| !got.contains(c))
            .collect()
    };
    transport.record_remote_losses(&lost);
    let init_partial = fc.selection.extract(template);
    let (survivors, partials) = t.span("fl.receive", |_| {
        let mut survivors: Vec<usize> = Vec::with_capacity(reached.len());
        let mut partials: Vec<Vec<f32>> = Vec::with_capacity(reached.len());
        for (client, mut partial) in collected {
            if transport.uplink(
                0,
                client,
                &mut partial,
                Some(&init_partial),
                Some(&init_partial),
            ) && transport.screen(&partial, upload_len)
            {
                survivors.push(client);
                partials.push(partial);
            }
        }
        (survivors, partials)
    });

    let mut kept_matrix = None;
    let (outcome, representatives) = if survivors.len() >= 2 {
        let matrix = t.span("core.proximity", |_| proximity_matrix(&partials, fc.metric));
        let sub = t.span("core.cluster", |_| {
            cluster_clients(&matrix, fc.linkage, fc.lambda)
        });
        kept_matrix = Some(matrix);
        let k = sub.num_clusters.max(1);
        let representatives: Vec<Vec<f32>> = t.span("fl.aggregate", |_| {
            (0..k)
                .map(|ci| {
                    let items: Vec<(&[f32], f32)> = partials
                        .iter()
                        .zip(&sub.labels)
                        .filter(|(_, &l)| l == ci)
                        .map(|(p, _)| (p.as_slice(), 1.0))
                        .collect();
                    weighted_average(&items)
                })
                .collect()
        });
        let mut sizes = vec![0usize; k];
        for &l in &sub.labels {
            sizes[l] += 1;
        }
        let largest = (0..k).max_by_key(|&ci| sizes[ci]).unwrap_or(0);
        let mut labels = vec![largest; fd.num_clients()];
        for (&client, &l) in survivors.iter().zip(&sub.labels) {
            labels[client] = l;
        }
        (
            ClusteringOutcome {
                labels,
                num_clusters: sub.num_clusters,
                lambda: sub.lambda,
            },
            representatives,
        )
    } else {
        let rep = partials.into_iter().next().unwrap_or(init_partial);
        (
            ClusteringOutcome {
                labels: vec![0; fd.num_clients()],
                num_clusters: 1,
                lambda: 0.0,
            },
            vec![rep],
        )
    };
    let k = outcome.num_clusters.max(1);
    let mut states: Vec<Vec<f32>> = vec![init_state.clone(); k];

    // The program builds this snapshot eagerly, checkpointing or not.
    let federation_json = snapshot(t, cfg, fd, &init_state, &outcome, &representatives, &states);
    let post_clustering = Checkpoint {
        method: name.to_string(),
        seed: cfg.seed,
        next_round: 0,
        meter: transport.meter().clone(),
        telemetry: transport.telemetry(),
        history: Vec::new(),
        state: MethodState::FedClust { federation_json },
        residuals: transport.codec_residuals(),
    };
    t.span("fl.checkpoint.write", |_| ckpt.save_now(&post_clustering))?;
    ctx.count_generation(t, 0);

    // ---- Rounds 1..T: per-cluster FedAvg. ----
    let mut history = Vec::new();
    for round in 0..cfg.rounds {
        let sampled = t.span("fl.sample", |_| {
            sample_clients(fd.num_clients(), cfg, round + 1)
        });
        for (ci, state) in states.iter_mut().enumerate() {
            let members: Vec<usize> = sampled
                .iter()
                .copied()
                .filter(|&c| outcome.labels[c] == ci)
                .collect();
            if members.is_empty() {
                continue;
            }
            let updates = ctx.train_round(t, state, &members, round + 1, &mut transport);
            if updates.is_empty() {
                continue;
            }
            *state = t.span("fl.aggregate", |_| {
                let items: Vec<(&[f32], f32)> = updates
                    .iter()
                    .map(|u| (u.state.as_slice(), u.weight))
                    .collect();
                weighted_average(&items)
            });
        }
        if cfg.should_eval(round) {
            let per_client = ctx.evaluate(t, |c| states[outcome.labels[c]].as_slice());
            history.push(RoundRecord {
                round: round + 1,
                avg_acc: average_accuracy(&per_client),
                cum_mb: transport.meter().total_mb(),
            });
        }
        ctx.round_end(t, ckpt, round, |t| Checkpoint {
            method: name.to_string(),
            seed: cfg.seed,
            next_round: round + 1,
            meter: transport.meter().clone(),
            telemetry: transport.telemetry(),
            history: history.clone(),
            state: MethodState::FedClust {
                federation_json: snapshot(
                    t,
                    cfg,
                    fd,
                    &init_state,
                    &outcome,
                    &representatives,
                    &states,
                ),
            },
            residuals: transport.codec_residuals(),
        })?;
    }

    let per_client_acc = ctx.evaluate(t, |c| states[outcome.labels[c]].as_slice());
    ctx.count_comm(t, &transport);
    t.count("core.num_clusters", k as f64);
    Ok(TracedRun {
        result: RunResult {
            method: name.to_string(),
            final_acc: average_accuracy(&per_client_acc),
            per_client_acc,
            history,
            num_clusters: Some(k),
            total_mb: transport.meter().total_mb(),
            faults: transport.telemetry(),
        },
        matrix: kept_matrix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::build_timed;
    use fedclust_data::{DatasetProfile, Partition};
    use fedclust_fl::methods::{FedAvg, FlMethod};
    use fedclust_fl::CodecSpec;
    use fedclust_tensor::rng::{derive, streams};

    fn small(clients: usize, seed: u64) -> FederatedDataset {
        FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.2 },
            &fedclust_data::federated::FederatedConfig {
                num_clients: clients,
                samples_per_class: 20,
                train_fraction: 0.8,
                seed,
            },
        )
    }

    fn small_cfg(seed: u64) -> FlConfig {
        FlConfig {
            rounds: 4,
            sample_rate: 0.5,
            local_epochs: 1,
            seed,
            ..FlConfig::default()
        }
    }

    fn timed_for(fd: &FederatedDataset, cfg: &FlConfig) -> TimedModel {
        build_timed(
            cfg.model,
            fd.channels,
            fd.height,
            fd.width,
            fd.num_classes,
            &mut derive(cfg.seed, &[streams::MODEL_INIT]),
        )
        .unwrap()
    }

    fn traced(method: Method, fd: &FederatedDataset, cfg: &FlConfig) -> (RunResult, Tracer) {
        let timed = timed_for(fd, cfg);
        let mut t = Tracer::new(1);
        let run = run_traced(
            method,
            fd,
            cfg,
            &timed,
            &mut Checkpointer::disabled(),
            None,
            &mut t,
        )
        .unwrap();
        (run.result, t)
    }

    fn json(r: &RunResult) -> String {
        serde_json::to_string(r).unwrap()
    }

    #[test]
    fn traced_fedavg_is_bit_identical_to_flmethod_run() {
        let fd = small(8, 5);
        let cfg = small_cfg(5);
        let (result, t) = traced(Method::FedAvg, &fd, &cfg);
        assert_eq!(json(&result), json(&FedAvg.run(&fd, &cfg)));
        assert_eq!(t.counter("fl.train_calls"), cfg.rounds as f64);
        assert!(t.self_total("fl.train") > 0.0);
        assert!(t.attributed_under("run") <= t.root_total("run"));
    }

    #[test]
    fn traced_fedclust_is_bit_identical_to_flmethod_run() {
        let fd = small(10, 6);
        let cfg = small_cfg(6);
        let fc = FedClust::default();
        let (result, t) = traced(Method::FedClust(fc), &fd, &cfg);
        assert_eq!(json(&result), json(&fc.run(&fd, &cfg)));
        assert!(t.self_total("core.warmup") > 0.0);
        assert!(t.counter("core.snapshot_bytes") > 0.0);
        assert_eq!(
            t.counter("core.num_clusters"),
            result.num_clusters.unwrap() as f64
        );
    }

    #[test]
    fn traced_fedclust_with_codec_and_checkpoints_matches_run_resumable() {
        let fd = small(8, 7);
        let mut cfg = small_cfg(7);
        cfg.codec = CodecSpec::parse("delta+q8+sr").unwrap();
        let fc = FedClust::default();
        let base = std::env::temp_dir().join(format!("perfbench-traced-{}", std::process::id()));
        let (dir_a, dir_b) = (base.join("a"), base.join("b"));
        let expected = fc
            .run_resumable(&fd, &cfg, &mut Checkpointer::new(&dir_a).every(2))
            .unwrap();
        let timed = timed_for(&fd, &cfg);
        let mut t = Tracer::new(1);
        let run = run_traced(
            Method::FedClust(fc),
            &fd,
            &cfg,
            &timed,
            &mut Checkpointer::new(&dir_b).every(2),
            Some(&dir_b),
            &mut t,
        )
        .unwrap();
        assert_eq!(json(&run.result), json(&expected));
        // Post-clustering snapshot plus rounds 2 and 4.
        assert_eq!(t.counter("fl.checkpoint.writes"), 3.0);
        for gen in [0, 2, 4] {
            let a = std::fs::read(dir_a.join(generation_file(gen))).unwrap();
            let b = std::fs::read(dir_b.join(generation_file(gen))).unwrap();
            assert_eq!(a, b, "checkpoint generation {} differs", gen);
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}
