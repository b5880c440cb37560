//! `perfbench`: the FedClust reproduction's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --bin-dir <dir with fedclustd, fedclust-worker> --work-dir <dir>
//!           [--env-json <object>]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of one workload for
//! about `--seconds` seconds; with `--trace 1` it reports the per-layer
//! metrics of a traced run instead. It prints a table, a detailed JSON
//! report and the environment, and, as its last line, the result object.
//! `perfbench/run.py` builds the program and calls this.

mod drive;
mod net;
mod ops;
mod report;
mod stats;
mod sys;
mod timed;
mod trace;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use report::json_str;

struct Cli {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
    env_json: Option<String>,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let known = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--bin-dir",
            "--work-dir",
            "--env-json",
        ];
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {}", flag));
        }
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let need = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("{} is required", k))
    };
    let name = need("--workload")?;
    let workload = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {}; known: {}", name, names.join(", "))
    })?;
    let number = |k: &str| -> Result<u64, String> {
        need(k)?.parse::<u64>().map_err(|e| format!("{}: {}", k, e))
    };
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {}", other)),
    };
    Ok(Cli {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
        bin_dir: PathBuf::from(need("--bin-dir")?),
        work_dir: PathBuf::from(need("--work-dir")?),
        env_json: flags.get("--env-json").map(|s| s.to_string()),
    })
}

fn run(cli: &Cli) -> Result<(), String> {
    let threads = rayon::available_parallelism();
    rayon::set_num_threads(threads);
    std::fs::create_dir_all(&cli.work_dir).map_err(|e| e.to_string())?;
    let opts = drive::Opts {
        seed: cli.seed,
        budget: Duration::from_secs(cli.seconds),
        work_dir: cli.work_dir.clone(),
        bin_dir: cli.bin_dir.clone(),
    };
    let ticks_before = sys::cpu_ticks();
    let outcome = if cli.trace {
        drive::traced(cli.workload, &opts)?
    } else {
        drive::untraced(cli.workload, &opts)?
    };
    // Share of the machine's CPU time the hypervisor took during the run:
    // a high value explains slow, noisy numbers. `null` where /proc/stat
    // cannot be read.
    let steal_share = match (ticks_before, sys::cpu_ticks()) {
        (Ok((total0, steal0)), Ok((total1, steal1))) => format!(
            "{:.4}",
            (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        ),
        _ => "null".to_string(),
    };

    let mut env: BTreeMap<&str, String> = BTreeMap::new();
    env.insert("workload", json_str(cli.workload.name));
    env.insert("seed", cli.seed.to_string());
    env.insert("seconds", cli.seconds.to_string());
    env.insert("trace", (cli.trace as u8).to_string());
    env.insert("available_parallelism", threads.to_string());
    env.insert("pool_threads", rayon::current_num_threads().to_string());
    env.insert("cpu_steal_share", steal_share);
    let flags: Vec<&str> = cli.workload.flags.split_whitespace().collect();
    env.insert("run_flags", json_str(&flags.join(" ")));
    env.insert(
        "data_seeds",
        format!(
            "[{}]",
            outcome
                .data_seeds
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    if let Some(host) = &cli.env_json {
        env.insert("host", host.clone());
    }

    println!(
        "perfbench {} seed={} trace={} threads={}",
        cli.workload.name,
        cli.seed,
        cli.trace as u8,
        rayon::current_num_threads()
    );
    print!("{}", report::table(&outcome.metrics, &outcome.tally));
    if let Some(path) = &outcome.spans_file {
        println!("spans: {}", path.display());
    }
    for reason in &outcome.tally.reasons {
        println!("failed: {}", reason);
    }
    println!(
        "{}",
        report::details(&outcome.metrics, &outcome.tally, &env)
    );
    let correct = outcome.tally.failed == 0;
    println!(
        "{}",
        report::result_line(correct, &outcome.metrics, &outcome.tally)?
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {}", e);
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&cli) {
        eprintln!("perfbench: {}", e);
        std::process::exit(1);
    }
}
