//! PACFL (Vahidian et al. 2022): one-shot clustering by principal angles
//! between client data subspaces.
//!
//! Before federation each client runs a truncated SVD on its raw local data
//! matrix (features × samples) and sends the top-`p` left singular vectors
//! to the server. The server measures client similarity by the sum of
//! principal angles between subspaces, clusters with hierarchical
//! clustering, and then trains one FedAvg model per cluster.

use crate::checkpoint::{
    check_len, run_without_checkpoints, Checkpoint, CheckpointError, Checkpointer, MethodState,
};
use crate::config::FlConfig;
use crate::engine::{
    average_accuracy, evaluate_clients, init_model, sample_clients, train_round,
    weighted_average_or,
};
use crate::faults::Transport;
use crate::methods::FlMethod;
use crate::metrics::{RoundRecord, RunResult};
use fedclust_cluster::hac::{agglomerative, Linkage};
use fedclust_cluster::ProximityMatrix;
use fedclust_data::FederatedDataset;
use fedclust_tensor::linalg::{subspace_distance_deg, truncated_left_singular_vectors};
use fedclust_tensor::Tensor;
use rayon::prelude::*;

/// PACFL with `p` principal vectors per client.
#[derive(Debug, Clone, Copy)]
pub struct Pacfl {
    /// Number of principal vectors each client transmits (paper: p = 3).
    pub p: usize,
    /// Optional fixed clustering threshold (degrees of summed principal
    /// angle). `None` uses the largest-gap heuristic on the dendrogram.
    pub threshold_deg: Option<f32>,
}

impl Default for Pacfl {
    fn default() -> Self {
        Pacfl {
            p: 3,
            threshold_deg: None,
        }
    }
}

impl Pacfl {
    /// Each client's data subspace basis: top-`p` left singular vectors of
    /// the (features × samples) matrix of its raw training data.
    pub fn client_bases(&self, fd: &FederatedDataset) -> Vec<Tensor> {
        (0..fd.num_clients())
            .into_par_iter()
            .map(|client| {
                let train = &fd.clients[client].train;
                let n = train.len();
                let d = train.sample_numel();
                // Build features × samples (each column is one flattened image).
                let mut m = vec![0.0f32; d * n];
                for s in 0..n {
                    for f in 0..d {
                        m[f * n + s] = train.images.data()[s * d + f];
                    }
                }
                truncated_left_singular_vectors(&Tensor::from_vec([d, n], m), self.p)
            })
            .collect()
    }

    /// Cluster clients from their subspace bases. Returns labels.
    pub fn cluster(&self, bases: &[Tensor]) -> Vec<usize> {
        let matrix = ProximityMatrix::from_fn(bases.len(), |i, j| {
            subspace_distance_deg(&bases[i], &bases[j])
        });
        let dendro = agglomerative(&matrix, Linkage::Average);
        match self.threshold_deg {
            Some(t) => dendro.cut_at(t),
            None => dendro.largest_gap_cut().0,
        }
    }
}

/// What a PACFL run leaves on the server: trained cluster states, the
/// client→cluster assignment, and the member subspace bases (so unseen
/// clients can be matched by principal angles, as PACFL prescribes).
pub struct PacflArtifacts {
    /// One trained state per cluster.
    pub states: Vec<Vec<f32>>,
    /// Cluster id per original client.
    pub labels: Vec<usize>,
    /// Each original client's subspace basis.
    pub bases: Vec<Tensor>,
}

impl Pacfl {
    /// Run and keep the trained federation artifacts (Table 6).
    pub fn run_detailed(
        &self,
        fd: &FederatedDataset,
        cfg: &FlConfig,
    ) -> (RunResult, PacflArtifacts) {
        run_without_checkpoints(|ckpt| self.run_detailed_resumable(fd, cfg, ckpt))
    }

    /// [`Pacfl::run_detailed`] with checkpoint/resume support. The subspace
    /// bases are recomputed on resume (they are deterministic functions of
    /// the raw client data), but the one-shot basis exchange is *not*
    /// re-charged: the restored meter already includes it.
    pub fn run_detailed_resumable(
        &self,
        fd: &FederatedDataset,
        cfg: &FlConfig,
        ckpt: &mut Checkpointer,
    ) -> Result<(RunResult, PacflArtifacts), CheckpointError> {
        let template = init_model(fd, cfg);
        let state_len = template.state_len();
        let mut transport = Transport::new(cfg);

        let bases = self.client_bases(fd);
        let mut start_round = 0;
        let (labels, k, mut states, mut history);
        if let Some(cp) = ckpt.resume_point(self.name(), cfg.seed)? {
            let MethodState::Clustered {
                states: ss,
                labels: ls,
            } = cp.state
            else {
                return Err(CheckpointError::WrongState(format!(
                    "PACFL cannot resume from a {} checkpoint",
                    cp.state.kind()
                )));
            };
            check_len("cluster labels", ls.len(), fd.num_clients())?;
            for s in &ss {
                check_len("cluster state", s.len(), state_len)?;
            }
            k = ss.len();
            for l in &ls {
                if *l >= k {
                    return Err(CheckpointError::Mismatch(format!(
                        "cluster label {} out of range for {} clusters",
                        l, k
                    )));
                }
            }
            labels = ls;
            states = ss;
            start_round = cp.next_round;
            history = cp.history;
            transport.restore_comm_state(cp.meter, cp.telemetry, cp.residuals);
        } else {
            // One-shot clustering before federation. The basis exchange is a
            // reliable pre-federation step (PACFL assumes it), charged directly.
            let feature_dim = fd.channels * fd.height * fd.width;
            for b in &bases {
                transport.meter_mut().up(b.dims()[1] * feature_dim); // p vectors of d floats
            }
            labels = self.cluster(&bases);
            k = labels.iter().copied().max().unwrap_or(0) + 1;
            states = vec![template.state_vec(); k];
            history = Vec::new();
        }

        for round in start_round..cfg.rounds {
            let sampled = sample_clients(fd.num_clients(), cfg, round);
            for (ci, state) in states.iter_mut().enumerate() {
                let members: Vec<usize> = sampled
                    .iter()
                    .copied()
                    .filter(|&c| labels[c] == ci)
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
                    round,
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
                let per_client = evaluate_clients(fd, &template, |c| states[labels[c]].as_slice());
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
                state: MethodState::Clustered {
                    states: states.clone(),
                    labels: labels.clone(),
                },
                residuals: transport.codec_residuals(),
            })?;
        }

        let per_client_acc = evaluate_clients(fd, &template, |c| states[labels[c]].as_slice());
        let result = RunResult {
            method: self.name().to_string(),
            final_acc: average_accuracy(&per_client_acc),
            per_client_acc,
            history,
            num_clusters: Some(k),
            total_mb: transport.meter().total_mb(),
            faults: transport.telemetry(),
        };
        Ok((
            result,
            PacflArtifacts {
                states,
                labels,
                bases,
            },
        ))
    }
}

impl FlMethod for Pacfl {
    fn name(&self) -> &'static str {
        "PACFL"
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
    use fedclust_data::{DatasetProfile, Partition};

    fn fd() -> FederatedDataset {
        FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.2 },
            &fedclust_data::federated::FederatedConfig {
                num_clients: 8,
                samples_per_class: 40,
                train_fraction: 0.8,
                seed: 7,
            },
        )
    }

    #[test]
    fn subspace_clustering_recovers_two_groups() {
        // Two clean groups: clients 0–3 hold classes {0..5}, 4–7 hold {5..10}.
        let groups: Vec<Vec<usize>> = (0..8)
            .map(|c| {
                if c < 4 {
                    (0..5).collect()
                } else {
                    (5..10).collect()
                }
            })
            .collect();
        let fd = FederatedDataset::build_grouped(
            DatasetProfile::FmnistLike,
            &groups,
            &fedclust_data::federated::FederatedConfig {
                num_clients: 8,
                samples_per_class: 40,
                train_fraction: 0.8,
                seed: 7,
            },
        );
        let pacfl = Pacfl::default();
        let bases = pacfl.client_bases(&fd);
        assert_eq!(bases.len(), 8);
        let labels = pacfl.cluster(&bases);
        let truth = fd.ground_truth_groups();
        // Data subspaces are driven by which classes a client holds, so the
        // recovered clustering should agree with the two-group ground truth.
        let ari = adjusted_rand_index(&labels, &truth);
        assert!(
            ari > 0.5,
            "ARI {} labels {:?} truth {:?}",
            ari,
            labels,
            truth
        );
    }

    #[test]
    fn pacfl_runs_end_to_end() {
        let fd = fd();
        let mut cfg = FlConfig::tiny(1);
        cfg.rounds = 3;
        let r = Pacfl::default().run(&fd, &cfg);
        assert!(r.final_acc.is_finite());
        assert!(r.num_clusters.unwrap() >= 1);
        assert!(r.total_mb > 0.0);
    }
}
