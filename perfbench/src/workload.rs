//! The four workloads, each written as the `fedclust-cli run` command line
//! that describes it, so the in-process runs, the networked runs and the
//! CLI agree on the exact dataset and configuration.

use std::time::Instant;

use fedclust_cli::{build_config, build_dataset, Args};
use fedclust_data::FederatedDataset;
use fedclust_fl::engine::{init_model, sample_clients};
use fedclust_fl::FlConfig;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `FlMethod::run` in this process, on a pool of `nproc` threads.
    InProcess,
    /// `fedclustd` plus worker processes over localhost TCP.
    Networked { workers: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub mode: Mode,
    /// The `run` flags, without `--seed`, separated by whitespace.
    pub flags: &'static str,
    /// Checkpoint cadence in rounds, for workloads that checkpoint.
    pub checkpoint_every: Option<usize>,
    /// Datasets an untraced run cycles through (see `drive::data_seeds`).
    pub inputs_per_run: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "silo-fedavg",
        mode: Mode::InProcess,
        flags: "--method fedavg --dataset fmnist --partition skew20 --clients 50 \
                --sample-rate 0.2 --epochs 3 --rounds 48",
        inputs_per_run: 4,
        checkpoint_every: None,
    },
    Workload {
        name: "silo-fedclust-resnet",
        mode: Mode::InProcess,
        flags: "--method fedclust --dataset cifar100 --partition skew20 --clients 40 \
                --sample-rate 0.25 --epochs 1 --rounds 5 --codec delta+q8+sr",
        inputs_per_run: 4,
        checkpoint_every: Some(5),
    },
    Workload {
        name: "device-fedclust",
        mode: Mode::InProcess,
        flags: "--method fedclust --dataset fmnist --partition skew20 --clients 1000 \
                --samples-per-class 3000 --sample-rate 0.02 --epochs 3 --rounds 6",
        inputs_per_run: 3,
        checkpoint_every: None,
    },
    Workload {
        name: "net-fedavg",
        mode: Mode::Networked { workers: 2 },
        flags: "--method fedavg --dataset fmnist --partition skew20 --clients 50 \
                --sample-rate 0.2 --epochs 3 --rounds 48",
        inputs_per_run: 2,
        checkpoint_every: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The full `run` argv for `seed`.
    pub fn run_argv(&self, seed: u64) -> Vec<String> {
        let mut argv = vec!["run".to_string()];
        argv.extend(self.flags.split_whitespace().map(str::to_string));
        argv.push("--seed".to_string());
        argv.push(seed.to_string());
        argv
    }

    pub fn args(&self, seed: u64) -> Result<Args, String> {
        Args::parse(&self.run_argv(seed)).map_err(|e| e.to_string())
    }

    pub fn method_name(&self) -> &'static str {
        let mut words = self.flags.split_whitespace();
        words.find(|w| *w == "--method");
        words.next().unwrap_or("")
    }

    pub fn is_fedclust(&self) -> bool {
        self.method_name() == "fedclust"
    }
}

/// What set-up produces: the dataset and configuration of one seed.
pub struct Inputs {
    pub fd: FederatedDataset,
    pub cfg: FlConfig,
}

/// Build the workload's inputs once: dataset synthesis and partition,
/// then `init_model`. Returns the inputs, the whole set-up time and the
/// dataset-build part of it.
pub fn set_up(args: &Args) -> Result<(Inputs, f64, f64), String> {
    let t = Instant::now();
    let fd = build_dataset(args)?;
    let data_s = t.elapsed().as_secs_f64();
    let cfg = build_config(args);
    std::hint::black_box(init_model(&fd, &cfg));
    let setup_s = t.elapsed().as_secs_f64();
    Ok((Inputs { fd, cfg }, setup_s, data_s))
}

/// Warm-up epochs of the FedClust configuration the CLI runs.
pub fn warmup_epochs() -> usize {
    fedclust::FedClust::default().warmup_epochs
}

/// Local-training samples one run processes: every sampled client's
/// training set, once per local epoch, plus FedClust's round-0 warm-up of
/// every client. None of the workloads drops clients or injects faults,
/// so every sampled client is reached and trained.
pub fn local_samples(inputs: &Inputs, fedclust: bool) -> u64 {
    let Inputs { fd, cfg } = inputs;
    let n = fd.num_clients();
    let size = |c: usize| fd.clients[c].train_samples() as u64;
    let mut total = 0u64;
    if fedclust {
        total += (0..n).map(size).sum::<u64>() * warmup_epochs() as u64;
    }
    for round in 0..cfg.rounds {
        // FedClust's training rounds are numbered from 1: round 0 clusters.
        let r = if fedclust { round + 1 } else { round };
        let sampled: u64 = sample_clients(n, cfg, r).into_iter().map(size).sum();
        total += sampled * cfg.local_epochs as u64;
    }
    total
}

/// Accuracy of guessing a class uniformly at random.
pub fn chance(inputs: &Inputs) -> f64 {
    1.0 / inputs.fd.num_classes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_parses_and_names_are_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            let args = w.args(3).expect("workload argv parses");
            assert_eq!(args.seed, 3);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(!w.method_name().is_empty());
            assert!(w.inputs_per_run >= 1);
        }
        assert!(find("device-fedclust").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn sample_count_matches_hand_count_for_fedavg() {
        let args = Args::parse(
            &[
                "run",
                "--method",
                "fedavg",
                "--dataset",
                "fmnist",
                "--clients",
                "6",
                "--rounds",
                "2",
                "--samples-per-class",
                "10",
                "--seed",
                "4",
            ]
            .map(String::from),
        )
        .unwrap();
        let (inputs, _, _) = set_up(&args).unwrap();
        let mut hand = 0u64;
        for round in 0..2 {
            for c in sample_clients(6, &inputs.cfg, round) {
                hand +=
                    inputs.fd.clients[c].train_samples() as u64 * inputs.cfg.local_epochs as u64;
            }
        }
        assert_eq!(local_samples(&inputs, false), hand);
        let all: u64 = inputs
            .fd
            .clients
            .iter()
            .map(|c| c.train_samples() as u64)
            .sum();
        assert!(local_samples(&inputs, true) >= all * warmup_epochs() as u64);
    }
}
