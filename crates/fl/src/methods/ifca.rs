//! IFCA (Ghosh et al. 2020): iterative federated clustering with a fixed
//! number of cluster models.
//!
//! The server keeps `k` models. Each round it broadcasts **all k models**
//! to every sampled client (the k× downlink cost the paper's Table 5
//! penalises); the client picks the model with the lowest loss on its own
//! training data, trains it, and uploads the result tagged with the chosen
//! cluster. The server averages per cluster.

use crate::checkpoint::{
    check_len, run_without_checkpoints, Checkpoint, CheckpointError, Checkpointer, MethodState,
};
use crate::config::FlConfig;
use crate::engine::{
    average_accuracy, init_model, local_train, sample_clients, weighted_average_or,
};
use crate::faults::Transport;
use crate::methods::FlMethod;
use crate::metrics::{RoundRecord, RunResult};
use fedclust_data::FederatedDataset;
use fedclust_nn::optim::Sgd;
use fedclust_nn::Model;
use fedclust_tensor::rng::{derive, streams};
use rayon::prelude::*;

/// IFCA with `k` cluster models.
#[derive(Debug, Clone, Copy)]
pub struct Ifca {
    /// Number of cluster models (must be fixed in advance — the
    /// inflexibility the paper criticises).
    pub k: usize,
}

impl Default for Ifca {
    fn default() -> Self {
        Ifca { k: 4 }
    }
}

impl Ifca {
    /// Pick the best cluster model for a client by training-set loss.
    pub(crate) fn best_cluster(
        template: &Model,
        states: &[Vec<f32>],
        data: &fedclust_data::ClientData,
    ) -> usize {
        let idx: Vec<usize> = (0..data.train.len()).collect();
        let (x, y) = data.train.batch(&idx);
        let mut best = 0usize;
        let mut best_loss = f32::INFINITY;
        for (ci, state) in states.iter().enumerate() {
            let mut model = template.clone();
            model.set_state_vec(state);
            let (loss, _) = model.evaluate(x.clone(), &y);
            if loss < best_loss {
                best_loss = loss;
                best = ci;
            }
        }
        best
    }
}

impl Ifca {
    /// Run and also return the k trained cluster states, for assigning
    /// unseen clients post-hoc (Table 6).
    pub fn run_detailed(
        &self,
        fd: &FederatedDataset,
        cfg: &FlConfig,
    ) -> (RunResult, Vec<Vec<f32>>) {
        run_without_checkpoints(|ckpt| self.run_detailed_resumable(fd, cfg, ckpt))
    }

    /// [`Ifca::run_detailed`] with checkpoint/resume support.
    pub fn run_detailed_resumable(
        &self,
        fd: &FederatedDataset,
        cfg: &FlConfig,
        ckpt: &mut Checkpointer,
    ) -> Result<(RunResult, Vec<Vec<f32>>), CheckpointError> {
        assert!(self.k >= 1, "IFCA needs at least one cluster");
        let template = init_model(fd, cfg);
        let state_len = template.state_len();
        // k independently initialised cluster models (IFCA random inits).
        let mut states: Vec<Vec<f32>> = (0..self.k)
            .map(|ci| {
                let mut rng = derive(cfg.seed, &[streams::MODEL_INIT, 100 + ci as u64]);
                cfg.model
                    .build(fd.channels, fd.height, fd.width, fd.num_classes, &mut rng)
                    .state_vec()
            })
            .collect();
        let mut transport = Transport::new(cfg);
        let mut history = Vec::new();
        let mut start_round = 0;

        if let Some(cp) = ckpt.resume_point(self.name(), cfg.seed)? {
            let MethodState::Ifca { states: ss } = cp.state else {
                return Err(CheckpointError::WrongState(format!(
                    "IFCA cannot resume from a {} checkpoint",
                    cp.state.kind()
                )));
            };
            check_len("cluster models", ss.len(), self.k)?;
            for s in &ss {
                check_len("cluster model", s.len(), state_len)?;
            }
            states = ss;
            start_round = cp.next_round;
            history = cp.history;
            transport.restore_comm_state(cp.meter, cp.telemetry, cp.residuals);
        }

        for round in start_round..cfg.rounds {
            let sampled = sample_clients(fd.num_clients(), cfg, round);
            // All k models go down in one bundle per client.
            let delivered = transport.broadcast(round, &sampled, self.k * state_len);
            let trained: Vec<(usize, usize, Vec<f32>, f32)> = delivered
                .par_iter()
                .map(|&client| {
                    let data = &fd.clients[client];
                    let ci = Self::best_cluster(&template, &states, data);
                    let mut model = template.clone();
                    model.set_state_vec(&states[ci]);
                    let mut opt = Sgd::new(cfg.sgd());
                    local_train(
                        &mut model,
                        data,
                        &mut opt,
                        cfg.local_epochs,
                        cfg.batch_size,
                        cfg.seed,
                        client,
                        round,
                    );
                    (client, ci, model.state_vec(), data.train_samples() as f32)
                })
                .collect();
            let mut updates: Vec<(usize, Vec<f32>, f32)> = Vec::with_capacity(trained.len());
            for (client, ci, mut state, w) in trained {
                // Stale corruption replays the cluster model the client
                // started from (still unaggregated at upload time).
                if transport.uplink(
                    round,
                    client,
                    &mut state,
                    Some(&states[ci]),
                    Some(&states[ci]),
                ) && transport.screen(&state, state_len)
                {
                    updates.push((ci, state, w));
                }
            }
            for (ci, state) in states.iter_mut().enumerate() {
                let items: Vec<(&[f32], f32)> = updates
                    .iter()
                    .filter(|(c, _, _)| *c == ci)
                    .map(|(_, s, w)| (s.as_slice(), *w))
                    .collect();
                *state = weighted_average_or(&items, state);
            }

            if cfg.should_eval(round) {
                let per_client = self.evaluate(fd, &template, &states);
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
                state: MethodState::Ifca {
                    states: states.clone(),
                },
                residuals: transport.codec_residuals(),
            })?;
        }

        let per_client_acc = self.evaluate(fd, &template, &states);
        let result = RunResult {
            method: self.name().to_string(),
            final_acc: average_accuracy(&per_client_acc),
            per_client_acc,
            history,
            num_clusters: Some(self.k),
            total_mb: transport.meter().total_mb(),
            faults: transport.telemetry(),
        };
        Ok((result, states))
    }
}

impl FlMethod for Ifca {
    fn name(&self) -> &'static str {
        "IFCA"
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

impl Ifca {
    fn evaluate(&self, fd: &FederatedDataset, template: &Model, states: &[Vec<f32>]) -> Vec<f32> {
        (0..fd.num_clients())
            .into_par_iter()
            .map(|client| {
                let data = &fd.clients[client];
                let ci = Self::best_cluster(template, states, data);
                let mut model = template.clone();
                model.set_state_vec(&states[ci]);
                let test = &data.test;
                if test.is_empty() {
                    return 0.0;
                }
                let idx: Vec<usize> = (0..test.len()).collect();
                let (x, y) = test.batch(&idx);
                model.evaluate(x, &y).1
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedclust_data::{DatasetProfile, Partition};

    #[test]
    fn ifca_downlink_is_k_times_fedavg() {
        let fd = FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.3 },
            &fedclust_data::federated::FederatedConfig {
                num_clients: 6,
                samples_per_class: 30,
                train_fraction: 0.8,
                seed: 0,
            },
        );
        let cfg = FlConfig::tiny(0);
        let ifca = Ifca { k: 3 }.run(&fd, &cfg);
        let fedavg = crate::methods::FedAvg.run(&fd, &cfg);
        // IFCA total = (k·down + up)·rounds; FedAvg = (down + up)·rounds.
        // With k=3 this is 2× FedAvg.
        let ratio = ifca.total_mb / fedavg.total_mb;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {}", ratio);
        assert_eq!(ifca.num_clusters, Some(3));
    }
}
