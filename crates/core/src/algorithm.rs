//! FedClust, Algorithm 1: the full method.

use crate::clustering::{cluster_clients, ClusteringOutcome, LambdaSelect};
use crate::persist::SavedFederation;
use crate::proximity::{collect_partial_weights_for, proximity_matrix, WeightSelection};
use fedclust_cluster::hac::Linkage;
use fedclust_data::FederatedDataset;
use fedclust_fl::checkpoint::{
    check_len, run_without_checkpoints, Checkpoint, CheckpointError, Checkpointer, MethodState,
};
use fedclust_fl::engine::{
    average_accuracy, evaluate_clients, init_model, sample_clients, train_round, weighted_average,
    weighted_average_or,
};
use fedclust_fl::faults::Transport;
use fedclust_fl::methods::FlMethod;
use fedclust_fl::metrics::{RoundRecord, RunResult};
use fedclust_fl::FlConfig;
use fedclust_nn::Model;
use serde::{Deserialize, Serialize};

/// FedClust configuration (Algorithm 1's inputs beyond the shared
/// [`FlConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FedClust {
    /// Clustering threshold λ (fixed, or data-driven largest-gap).
    pub lambda: LambdaSelect,
    /// Linkage criterion for the hierarchical clustering.
    pub linkage: Linkage,
    /// Warm-up local epochs before partial weights are collected
    /// ("a few local iterations", paper §3.4).
    pub warmup_epochs: usize,
    /// Which weights clients upload for clustering. [`WeightSelection::FinalLayer`]
    /// is the paper's method; [`WeightSelection::FullModel`] is the ablation.
    pub selection: WeightSelection,
    /// Distance metric for the proximity matrix (paper: L2, Eq. 3).
    pub metric: fedclust_tensor::distance::Metric,
}

impl Default for FedClust {
    fn default() -> Self {
        FedClust {
            lambda: LambdaSelect::Auto,
            linkage: Linkage::Average,
            warmup_epochs: 2,
            selection: WeightSelection::FinalLayer,
            metric: fedclust_tensor::distance::Metric::L2,
        }
    }
}

/// Everything the server retains after a FedClust run: the trained cluster
/// models, the assignment, and the per-cluster representative partial
/// weights needed to incorporate newcomers (Algorithm 2).
pub struct TrainedFederation {
    /// The shared model template (architecture).
    pub template: Model,
    /// The model spec the template was built from (for persistence).
    pub model_spec: fedclust_nn::models::ModelSpec,
    /// Dataset geometry `(channels, height, width, classes)` the template
    /// was built for (for persistence).
    pub geometry: (usize, usize, usize, usize),
    /// The initial broadcast state θ⁰ (newcomers warm up from this).
    pub init_state: Vec<f32>,
    /// Cluster id per original client.
    pub labels: Vec<usize>,
    /// One trained state vector per cluster.
    pub cluster_states: Vec<Vec<f32>>,
    /// Per-cluster representative partial weights: the centroid of member
    /// partial weights, in the same [`WeightSelection`] space clients
    /// upload in.
    pub representatives: Vec<Vec<f32>>,
    /// The clustering outcome (λ used, cluster count).
    pub outcome: ClusteringOutcome,
}

impl FedClust {
    /// Run FedClust and keep the trained federation for post-hoc use
    /// (newcomer incorporation, cluster inspection). The returned
    /// [`RunResult`] is identical to what [`FlMethod::run`] reports.
    pub fn run_detailed(
        &self,
        fd: &FederatedDataset,
        cfg: &FlConfig,
    ) -> (RunResult, TrainedFederation) {
        run_without_checkpoints(|ckpt| self.run_detailed_resumable(fd, cfg, ckpt))
    }

    /// [`FedClust::run_detailed`] with checkpoint/resume support.
    ///
    /// FedClust's value is concentrated in its one-shot round-0 state
    /// (proximity clustering, representatives), so the checkpoint embeds a
    /// full [`SavedFederation`] snapshot and a post-clustering checkpoint
    /// is written immediately (`next_round = 0`: clustering done, no
    /// training yet) regardless of the configured cadence. A resumed run
    /// never re-clusters — it restores the assignment and continues the
    /// per-cluster training rounds bit-identically.
    pub fn run_detailed_resumable(
        &self,
        fd: &FederatedDataset,
        cfg: &FlConfig,
        ckpt: &mut Checkpointer,
    ) -> Result<(RunResult, TrainedFederation), CheckpointError> {
        let template = init_model(fd, cfg);
        let state_len = template.state_len();
        let init_state = template.state_vec();
        let mut transport = Transport::new(cfg);

        if let Some(cp) = ckpt.resume_point(self.name(), cfg.seed)? {
            let MethodState::FedClust { federation_json } = cp.state else {
                return Err(CheckpointError::WrongState(format!(
                    "FedClust cannot resume from a {} checkpoint",
                    cp.state.kind()
                )));
            };
            let saved = SavedFederation::from_json(&federation_json).map_err(|e| {
                CheckpointError::Corrupt(format!("embedded federation snapshot: {}", e))
            })?;
            let geometry = (fd.channels, fd.height, fd.width, fd.num_classes);
            if saved.geometry != geometry {
                return Err(CheckpointError::Mismatch(format!(
                    "snapshot geometry {:?} does not match this dataset's {:?}",
                    saved.geometry, geometry
                )));
            }
            check_len(
                "cluster labels",
                saved.outcome.labels.len(),
                fd.num_clients(),
            )?;
            check_len("initial state", saved.init_state.len(), state_len)?;
            let k = saved.outcome.num_clusters.max(1);
            check_len("cluster states", saved.cluster_states.len(), k)?;
            check_len("representatives", saved.representatives.len(), k)?;
            for s in &saved.cluster_states {
                check_len("cluster state", s.len(), state_len)?;
            }
            for l in &saved.outcome.labels {
                if *l >= k {
                    return Err(CheckpointError::Mismatch(format!(
                        "cluster label {} out of range for {} clusters",
                        l, k
                    )));
                }
            }
            transport.restore_comm_state(cp.meter, cp.telemetry, cp.residuals);
            return self.train_clusters(
                fd,
                cfg,
                ckpt,
                template,
                init_state,
                saved.outcome,
                saved.representatives,
                saved.cluster_states,
                cp.history,
                cp.next_round,
                transport,
            );
        }

        // ---- Round 0 (Algorithm 1, lines 2–7): one-shot clustering. ----
        // Server broadcasts θ⁰ to all clients; each the downlink reaches
        // trains briefly and uploads only the selected partial weights.
        // Clustering must tolerate missing partials: it runs over whatever
        // uploads survive the uplink and the quarantine screen.
        let upload_len = self.selection.upload_len(&template);
        let all_clients: Vec<usize> = (0..fd.num_clients()).collect();
        let reached = transport.broadcast(0, &all_clients, state_len);
        let collected = collect_partial_weights_for(
            fd,
            cfg,
            &template,
            &init_state,
            self.warmup_epochs,
            self.selection,
            &reached,
        );
        // Clients the worker fleet wrote off (networked mode only — the
        // local path returns everyone the broadcast reached) count as
        // uplink losses for telemetry.
        let lost: Vec<usize> = {
            let got: std::collections::BTreeSet<usize> =
                collected.iter().map(|(c, _)| *c).collect();
            reached
                .iter()
                .copied()
                .filter(|c| !got.contains(c))
                .collect()
        };
        transport.record_remote_losses(&lost);
        // A stale round-0 corruption replays the untrained partial weights.
        let init_partial = self.selection.extract(&template);
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

        let (outcome, representatives) = if survivors.len() >= 2 {
            let matrix = proximity_matrix(&partials, self.metric);
            let sub = cluster_clients(&matrix, self.linkage, self.lambda);
            let k = sub.num_clusters.max(1);
            // Per-cluster representative partial weights (for Algorithm 2),
            // centroids of the surviving members.
            let representatives: Vec<Vec<f32>> = (0..k)
                .map(|ci| {
                    let items: Vec<(&[f32], f32)> = partials
                        .iter()
                        .zip(&sub.labels)
                        .filter(|(_, &l)| l == ci)
                        .map(|(p, _)| (p.as_slice(), 1.0))
                        .collect();
                    weighted_average(&items)
                })
                .collect();
            // Clients with no usable partial join the largest cluster —
            // the safest default under Eq. 2's weighted aggregation.
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
            // Degenerate round 0 (≤1 usable partial): fall back to a single
            // global cluster so training can still proceed.
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
        let states: Vec<Vec<f32>> = vec![init_state.clone(); k];

        // The one-shot clustering artifact is the expensive, never-cheaply-
        // recomputable part of a FedClust run: when checkpointing is on,
        // snapshot it immediately, whatever the checkpoint cadence. When it
        // is off, the snapshot (tens of MB of JSON at 1000 clients) is not
        // built at all.
        if ckpt.is_enabled() {
            ckpt.save_now(&Checkpoint {
                method: self.name().to_string(),
                seed: cfg.seed,
                next_round: 0,
                meter: transport.meter().clone(),
                telemetry: transport.telemetry(),
                history: Vec::new(),
                state: MethodState::FedClust {
                    federation_json: federation_json(
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

        self.train_clusters(
            fd,
            cfg,
            ckpt,
            template,
            init_state,
            outcome,
            representatives,
            states,
            Vec::new(),
            0,
            transport,
        )
    }

    /// Rounds 1..T (Algorithm 1, lines 9–14): per-cluster FedAvg, shared by
    /// the fresh and resumed paths.
    #[allow(clippy::too_many_arguments)]
    fn train_clusters(
        &self,
        fd: &FederatedDataset,
        cfg: &FlConfig,
        ckpt: &mut Checkpointer,
        template: Model,
        init_state: Vec<f32>,
        outcome: ClusteringOutcome,
        representatives: Vec<Vec<f32>>,
        mut states: Vec<Vec<f32>>,
        mut history: Vec<RoundRecord>,
        start_round: usize,
        mut transport: Transport,
    ) -> Result<(RunResult, TrainedFederation), CheckpointError> {
        let k = outcome.num_clusters.max(1);
        for round in start_round..cfg.rounds {
            let sampled = sample_clients(fd.num_clients(), cfg, round + 1);
            for (ci, state) in states.iter_mut().enumerate() {
                let members: Vec<usize> = sampled
                    .iter()
                    .copied()
                    .filter(|&c| outcome.labels[c] == ci)
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let updates = train_round(
                    fd,
                    cfg,
                    &template,
                    state,
                    &members,
                    round + 1,
                    None,
                    &mut transport,
                );
                // Every upload lost or quarantined, or every member without
                // training data: the cluster carries its model forward.
                let items: Vec<(&[f32], f32)> = updates
                    .iter()
                    .map(|u| (u.state.as_slice(), u.weight))
                    .collect();
                *state = weighted_average_or(&items, state);
            }
            if cfg.should_eval(round) {
                let per_client =
                    evaluate_clients(fd, &template, |c| states[outcome.labels[c]].as_slice());
                history.push(RoundRecord {
                    round: round + 1,
                    avg_acc: average_accuracy(&per_client),
                    cum_mb: transport.meter().total_mb(),
                });
            }

            ckpt.on_round_end(round, || Checkpoint {
                method: self.name().to_string(),
                seed: cfg.seed,
                next_round: round + 1,
                meter: transport.meter().clone(),
                telemetry: transport.telemetry(),
                history: history.clone(),
                state: MethodState::FedClust {
                    federation_json: federation_json(
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

        let per_client_acc =
            evaluate_clients(fd, &template, |c| states[outcome.labels[c]].as_slice());
        let result = RunResult {
            method: self.name().to_string(),
            final_acc: average_accuracy(&per_client_acc),
            per_client_acc,
            history,
            num_clusters: Some(k),
            total_mb: transport.meter().total_mb(),
            faults: transport.telemetry(),
        };
        let federation = TrainedFederation {
            template,
            model_spec: cfg.model,
            geometry: (fd.channels, fd.height, fd.width, fd.num_classes),
            init_state,
            labels: outcome.labels.clone(),
            cluster_states: states,
            representatives,
            outcome,
        };
        Ok((result, federation))
    }
}

/// Serialize the current federation state into the [`SavedFederation`] JSON
/// a FedClust checkpoint embeds.
fn federation_json(
    cfg: &FlConfig,
    fd: &FederatedDataset,
    init_state: &[f32],
    outcome: &ClusteringOutcome,
    representatives: &[Vec<f32>],
    states: &[Vec<f32>],
) -> String {
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
}

impl FlMethod for FedClust {
    fn name(&self) -> &'static str {
        "FedClust"
    }

    fn run(&self, fd: &FederatedDataset, cfg: &FlConfig) -> RunResult {
        self.run_detailed(fd, cfg).0
    }

    fn run_resumable(
        &self,
        fd: &FederatedDataset,
        cfg: &FlConfig,
        ckpt: &mut Checkpointer,
    ) -> Result<RunResult, CheckpointError> {
        Ok(self.run_detailed_resumable(fd, cfg, ckpt)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedclust_cluster::metrics::adjusted_rand_index;
    use fedclust_data::DatasetProfile;

    fn two_group_fd(seed: u64, clients: usize) -> FederatedDataset {
        let groups: Vec<Vec<usize>> = (0..clients)
            .map(|c| {
                if c < clients / 2 {
                    (0..5).collect()
                } else {
                    (5..10).collect()
                }
            })
            .collect();
        FederatedDataset::build_grouped(
            DatasetProfile::FmnistLike,
            &groups,
            &fedclust_data::federated::FederatedConfig {
                num_clients: clients,
                samples_per_class: 40,
                train_fraction: 0.8,
                seed,
            },
        )
    }

    #[test]
    fn one_shot_clustering_recovers_ground_truth() {
        let fd = two_group_fd(0, 8);
        let mut cfg = FlConfig::tiny(0);
        cfg.local_epochs = 2;
        let (result, federation) = FedClust::default().run_detailed(&fd, &cfg);
        let truth = fd.ground_truth_groups();
        let ari = adjusted_rand_index(&federation.labels, &truth);
        assert!(
            ari > 0.8,
            "ARI {} labels {:?} truth {:?}",
            ari,
            federation.labels,
            truth
        );
        assert_eq!(result.num_clusters, Some(2));
    }

    #[test]
    fn fedclust_beats_fedavg_under_label_skew() {
        let fd = two_group_fd(1, 8);
        let mut cfg = FlConfig::tiny(1);
        cfg.rounds = 5;
        let fedclust = FedClust::default().run(&fd, &cfg);
        let fedavg = fedclust_fl::methods::FedAvg.run(&fd, &cfg);
        assert!(
            fedclust.final_acc >= fedavg.final_acc,
            "FedClust {} vs FedAvg {}",
            fedclust.final_acc,
            fedavg.final_acc
        );
    }

    #[test]
    fn clustering_round_uploads_are_partial() {
        // FedClust's round-0 uplink must be far below one full model per
        // client; downstream rounds behave like FedAvg within clusters.
        let fd = two_group_fd(2, 6);
        let mut cfg = FlConfig::tiny(2);
        cfg.rounds = 1;
        let fedclust = FedClust::default().run(&fd, &cfg);
        assert!(fedclust.total_mb > 0.0);
        // Comparable FedAvg run with one extra round (FedClust's round 0
        // costs a broadcast + partial upload, less than a full round).
        let mut cfg2 = cfg;
        cfg2.rounds = 2;
        let fedavg = fedclust_fl::methods::FedAvg.run(&fd, &cfg2);
        assert!(fedclust.total_mb < fedavg.total_mb * 2.0);
    }

    #[test]
    fn detailed_run_exposes_cluster_models_and_representatives() {
        let fd = two_group_fd(3, 6);
        let cfg = FlConfig::tiny(3);
        let (_, federation) = FedClust::default().run_detailed(&fd, &cfg);
        let k = federation.outcome.num_clusters;
        assert_eq!(federation.cluster_states.len(), k);
        assert_eq!(federation.representatives.len(), k);
        let upload = WeightSelection::FinalLayer.upload_len(&federation.template);
        for rep in &federation.representatives {
            assert_eq!(rep.len(), upload);
        }
        assert_eq!(federation.labels.len(), 6);
    }

    #[test]
    fn cluster_of_clients_without_training_data_carries_its_model_forward() {
        // Clients 6 and 7 own no samples: their warm-up leaves θ⁰'s final
        // layer untouched, so they cluster together, and every round their
        // cluster's updates all weigh 0.
        let groups: Vec<Vec<usize>> = (0..8)
            .map(|c| match c {
                0..=2 => (0..5).collect(),
                3..=5 => (5..10).collect(),
                _ => Vec::new(),
            })
            .collect();
        let fd = FederatedDataset::build_grouped(
            DatasetProfile::FmnistLike,
            &groups,
            &fedclust_data::federated::FederatedConfig {
                num_clients: 8,
                samples_per_class: 40,
                train_fraction: 0.8,
                seed: 5,
            },
        );
        assert_eq!(fd.clients[6].train_samples(), 0);
        let mut cfg = FlConfig::tiny(5);
        cfg.sample_rate = 1.0;
        let (result, federation) = FedClust::default().run_detailed(&fd, &cfg);
        let empty = federation.labels[6];
        assert_eq!(federation.labels[7], empty);
        assert!(federation.labels[..6].iter().all(|&l| l != empty));
        assert_eq!(federation.cluster_states[empty], federation.init_state);
        assert!(result.final_acc.is_finite());
    }

    #[test]
    fn full_model_ablation_runs() {
        let fd = two_group_fd(4, 6);
        let cfg = FlConfig::tiny(4);
        let ablated = FedClust {
            selection: WeightSelection::FullModel,
            ..FedClust::default()
        };
        let r = ablated.run(&fd, &cfg);
        assert!(r.final_acc.is_finite());
    }
}
