//! The three workloads and the inputs each one derives from its seed.

use crate::host::ScaledTimer;
use crate::layers::prepare;
use crate::report::{median, mix};
use rescq_decoder::DecoderConfig;
use rescq_harness::{ProgressMode, RunOptions, SweepSpec};
use rescq_sim::{SimArtifacts, SimConfig};

/// Fresh preparations timed for `setup_s` (after one warm-up).
const SETUP_REPS: usize = 41;

/// Simulations one `ising_*` run cycles through, each with its own angles.
const ISING_RUNS: u64 = 16;

/// The circuits and schedulers of `compressed_sweep`, at 50% compression.
const SWEEP_CIRCUITS: [&str; 4] = ["gcm_n13", "qft_n18", "dnn_n16", "wstate_n27"];
const SWEEP_SEEDS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IsingWide,
    IsingUf,
    CompressedSweep,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::IsingWide,
        Workload::IsingUf,
        Workload::CompressedSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IsingWide => "ising_wide",
            Workload::IsingUf => "ising_uf",
            Workload::CompressedSweep => "compressed_sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One distinct circuit of a workload with its prepared artifacts.
pub struct Circuit {
    pub name: &'static str,
    pub seed: u64,
    pub art: SimArtifacts,
}

/// One simulation: an index into [`Plan::circuits`] and its configuration.
pub struct Job {
    pub circuit: usize,
    pub config: SimConfig,
}

/// Everything a workload run needs, derived from the workload seed alone.
pub struct Plan {
    pub workload: Workload,
    pub circuits: Vec<Circuit>,
    /// The simulations of the workload (harness expansion order for the
    /// sweep).
    pub jobs: Vec<Job>,
    /// The harness sweep of the workload; for `ising_*`, a one-job sweep
    /// equal to the first job.
    pub spec: SweepSpec,
    /// Harness worker threads.
    pub workers: usize,
    /// Median scaled seconds of one fresh preparation of every circuit.
    pub setup_s: f64,
    /// The same, unscaled.
    pub setup_raw_s: f64,
}

impl Plan {
    pub fn sweep_options(&self) -> RunOptions {
        RunOptions {
            threads: self.workers,
            progress: ProgressMode::Off,
            ..RunOptions::default()
        }
    }

    pub fn artifacts(&self, job: &Job) -> &SimArtifacts {
        &self.circuits[job.circuit].art
    }

    /// The first circuit of each name: the distinct fabrics and CNOT lists
    /// (`ising_*` circuits differ only in their angles).
    pub fn distinct_circuits(&self) -> impl Iterator<Item = &Circuit> {
        self.circuits
            .iter()
            .enumerate()
            .filter(|(i, c)| !self.circuits[..*i].iter().any(|d| d.name == c.name))
            .map(|(_, c)| c)
    }

    /// The configuration each circuit was prepared with (its first job's).
    pub fn config_of(&self, circuit: usize) -> &SimConfig {
        &self
            .jobs
            .iter()
            .find(|j| j.circuit == circuit)
            .expect("every circuit has a job")
            .config
    }
}

fn sweep_text(workloads: &[&str], rest: &str, base_seed: u64, circuit_seed: u64) -> String {
    let names: Vec<String> = workloads.iter().map(|w| format!("\"{w}\"")).collect();
    format!(
        "workloads = [{}]\n{rest}base_seed = {base_seed}\ncircuit_seed = {circuit_seed}\n",
        names.join(", ")
    )
}

/// Times `SETUP_REPS` fresh runs of `build` (single-threaded) after a
/// warm-up, keeping the last result. Returns it with the median scaled and
/// raw seconds.
fn timed_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64, f64), String> {
    build()?;
    let mut timer = ScaledTimer::new(1);
    let (mut scaled, mut raw) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (out, raw_ms, scaled_ms) = timer.time(&mut build);
        last = Some(out?);
        raw.push(raw_ms / 1e3);
        scaled.push(scaled_ms / 1e3);
    }
    Ok((
        last.expect("at least one setup rep"),
        median(&scaled),
        median(&raw),
    ))
}

/// Builds a workload's plan from its seed, timing its preparation.
pub fn build(workload: Workload, seed: u64) -> Result<Plan, String> {
    // Simulation seeds are a block of consecutive seeds (the harness's own
    // convention) at a base derived from the workload seed.
    let base_seed = 1 + mix(seed, 0) % 1_000_000_000;
    match workload {
        Workload::IsingWide | Workload::IsingUf => {
            let (decoder, point) = if workload == Workload::IsingWide {
                (DecoderConfig::ideal(), "ideal")
            } else {
                (DecoderConfig::union_find(1.0), "union_find:1.0")
            };
            let config = |s: u64| {
                SimConfig::builder()
                    .decoder(decoder)
                    .engine_threads(1)
                    .seed(s)
                    .build()
            };
            // Every run draws its own angles for the fixed circuit structure.
            let seeds: Vec<u64> = (0..ISING_RUNS).map(|i| mix(seed, 1 + i)).collect();
            let (arts, setup_s, setup_raw_s) = timed_setup(|| {
                seeds
                    .iter()
                    .map(|&s| prepare("ising_n420", s, &config(base_seed)))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            let spec = SweepSpec::parse(&sweep_text(
                &["ising_n420"],
                &format!("decoders = [\"{point}\"]\nseeds = 1\n"),
                base_seed,
                seeds[0],
            ))
            .map_err(|e| e.to_string())?;
            Ok(Plan {
                workload,
                circuits: seeds
                    .iter()
                    .zip(arts)
                    .map(|(&seed, art)| Circuit {
                        name: "ising_n420",
                        seed,
                        art,
                    })
                    .collect(),
                jobs: (0..ISING_RUNS)
                    .map(|i| Job {
                        circuit: i as usize,
                        config: config(base_seed + i),
                    })
                    .collect(),
                spec,
                workers: 1,
                setup_s,
                setup_raw_s,
            })
        }
        Workload::CompressedSweep => {
            let text = sweep_text(
                &SWEEP_CIRCUITS,
                &format!(
                    "schedulers = [\"rescq\", \"greedy\", \"autobraid\"]\ncompressions = [0.5]\nseeds = {SWEEP_SEEDS}\n"
                ),
                base_seed,
                seed,
            );
            let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
            let ((spec, jobs, arts), setup_s, setup_raw_s) = timed_setup(|| {
                let spec = SweepSpec::parse(&text).map_err(|e| e.to_string())?;
                let jobs = spec.expand();
                let arts = SWEEP_CIRCUITS
                    .iter()
                    .map(|&name| {
                        let first = jobs
                            .iter()
                            .find(|j| j.workload == name)
                            .ok_or_else(|| format!("sweep has no job for `{name}`"))?;
                        prepare(name, seed, &first.config)
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok((spec, jobs, arts))
            })?;
            let jobs = jobs
                .into_iter()
                .map(|j| Job {
                    circuit: SWEEP_CIRCUITS
                        .iter()
                        .position(|&w| w == j.workload)
                        .expect("expanded from SWEEP_CIRCUITS"),
                    config: j.config,
                })
                .collect();
            Ok(Plan {
                workload,
                circuits: SWEEP_CIRCUITS
                    .iter()
                    .zip(arts)
                    .map(|(&name, art)| Circuit { name, seed, art })
                    .collect(),
                jobs,
                spec,
                workers,
                setup_s,
                setup_raw_s,
            })
        }
    }
}
