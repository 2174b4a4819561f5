//! The sweep executor: a pool of scoped worker threads pulling jobs from a
//! shared atomic queue, with artifact sharing and checkpoint restore.
//!
//! Workers claim the next job index with a single `fetch_add` — the classic
//! shared-queue work-stealing arrangement — so a slow point (e.g. a heavily
//! compressed fabric) never idles the rest of the pool the way per-worker
//! chunking would. Every worker returns `(index, record)` pairs; the
//! aggregator writes them back into an index-addressed table, which makes
//! the final ordering (and therefore the CSV/JSON output) byte-identical
//! for any worker count.

use crate::cache::ArtifactCache;
use crate::checkpoint::{job_fingerprint, read_checkpoint_rows, Checkpoint};
use crate::results::{csv_row, JobMetrics, JobRecord, SweepResults};
use crate::spec::{JobSpec, SpecError, SweepSpec};
use rescq_sim::{simulate_prepared, SimArtifacts};
use rescq_telemetry::{Event, Heartbeat, Recorder};
use std::collections::HashMap;
use std::io::IsTerminal;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// When the worker pool reports periodic progress to stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// Report only when stderr is a terminal (the default; long sweeps in a
    /// terminal get a heartbeat, piped/CI runs stay clean).
    #[default]
    Auto,
    /// Never report (`sim sweep --quiet`).
    Off,
    /// Always report, terminal or not (useful under `tee`/log capture).
    Always,
}

/// A deterministic partition of the expanded job list for cross-process
/// sharding: shard `index` of `count` runs exactly the jobs whose global
/// job index `i` satisfies `i % count == index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index in `0..count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parses the CLI's `i/n` spelling (e.g. `0/4`).
    ///
    /// # Errors
    ///
    /// Returns a message when the syntax is not `i/n` or `i >= n`.
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("bad shard `{s}` (expected i/n, e.g. 0/4)"))?;
        let index: usize = i.parse().map_err(|_| format!("bad shard index in `{s}`"))?;
        let count: usize = n.parse().map_err(|_| format!("bad shard count in `{s}`"))?;
        if count == 0 || index >= count {
            return Err(format!("shard index {index} outside 0..{count}"));
        }
        Ok(Shard { index, count })
    }

    /// Whether global job index `i` belongs to this shard.
    pub fn owns(&self, i: usize) -> bool {
        i % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Execution options of one sweep run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads (`0` = available parallelism).
    pub threads: usize,
    /// Checkpoint file for resumable execution.
    pub checkpoint: Option<PathBuf>,
    /// Progress reporting policy.
    pub progress: ProgressMode,
    /// Run only this shard of the job list (cross-process sharding).
    pub shard: Option<Shard>,
}

impl RunOptions {
    /// Options with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        RunOptions {
            threads,
            ..RunOptions::default()
        }
    }

    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
}

/// Harness-level failure (spec or checkpoint I/O). Job-level simulation
/// failures are recorded per job, not raised — one diverging point must not
/// discard a thousand completed ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// The spec failed validation.
    Spec(SpecError),
    /// The checkpoint file could not be opened.
    Io(String),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Spec(e) => write!(f, "{e}"),
            HarnessError::Io(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<SpecError> for HarnessError {
    fn from(e: SpecError) -> Self {
        HarnessError::Spec(e)
    }
}

/// Runs one job end to end: resolve artifacts from the cache, restore from
/// the checkpoint if possible, otherwise simulate and checkpoint.
fn run_job(
    job: &JobSpec,
    spec: &SweepSpec,
    cache: &ArtifactCache,
    checkpoint: Option<&Checkpoint>,
) -> JobRecord {
    let (circuit, dag) = match cache.circuit(&job.workload, spec.circuit_seed) {
        Ok(pair) => pair,
        Err(e) => {
            return JobRecord {
                job: job.clone(),
                outcome: Err(e),
                resumed: false,
            }
        }
    };
    // The fingerprint hashes the whole circuit and config, so it is
    // computed only when a checkpoint will read or record it.
    let checkpoint = checkpoint.map(|c| {
        let fingerprint = job_fingerprint(job, circuit.content_hash(), spec.circuit_seed);
        (c, fingerprint)
    });
    if let Some(metrics) = checkpoint.and_then(|(c, fingerprint)| c.lookup(fingerprint)) {
        return JobRecord {
            job: job.clone(),
            outcome: Ok(metrics.clone()),
            resumed: true,
        };
    }
    let outcome = cache
        .layout(circuit.num_qubits(), &job.config)
        .and_then(|(layout, graph)| {
            let artifacts = SimArtifacts::assemble(circuit, dag, layout, graph);
            simulate_prepared(&artifacts, &job.config).map_err(|e| e.to_string())
        })
        .map(|report| JobMetrics::from_report(&report));
    if let (Some((ckpt, fingerprint)), Ok(metrics)) = (checkpoint, &outcome) {
        ckpt.record(fingerprint, &csv_row(job, metrics));
    }
    JobRecord {
        job: job.clone(),
        outcome,
        resumed: false,
    }
}

/// Executes a sweep spec on a worker pool with shared artifact caching.
///
/// Results come back in deterministic job order regardless of
/// `opts.threads`; see the crate docs for the determinism contract.
///
/// # Errors
///
/// Returns [`HarnessError`] for spec validation or checkpoint-open
/// failures. Individual job failures are recorded in the returned
/// [`SweepResults`] (check [`SweepResults::first_error`]).
pub fn run_sweep(spec: &SweepSpec, opts: &RunOptions) -> Result<SweepResults, HarnessError> {
    spec.validate()?;
    let started = Instant::now();
    let mut jobs = spec.expand();
    if let Some(shard) = opts.shard {
        // Deterministic index partition: every shard sees the same global
        // expansion, so merged shard outputs reproduce an unsharded run.
        jobs.retain(|j| shard.owns(j.index));
    }
    let cache = ArtifactCache::new();
    let checkpoint = match &opts.checkpoint {
        Some(path) => Some(Checkpoint::open(path).map_err(HarnessError::Io)?),
        None => None,
    };
    let checkpoint = checkpoint.as_ref();
    let threads = opts.resolved_threads().clamp(1, jobs.len().max(1));
    // Progress flows through the telemetry `Recorder` trait: workers time
    // each job and emit `Event::JobDone`; the `Heartbeat` recorder turns
    // that stream into throttled stderr lines. Any other recorder (a ring
    // buffer, a test stub) could observe the same events unchanged.
    let heartbeat = match opts.progress {
        ProgressMode::Off => None,
        ProgressMode::Always => Some(Heartbeat::new(jobs.len())),
        ProgressMode::Auto => std::io::stderr()
            .is_terminal()
            .then(|| Heartbeat::new(jobs.len())),
    };
    let recorder: Option<&dyn Recorder> = heartbeat.as_ref().map(|h| h as &dyn Recorder);
    let total = jobs.len() as u64;
    // Runs job `i` and reports its completion (wall-clock is 0 for
    // checkpoint-restored jobs — no simulation ran).
    let run_one = |i: usize, job: &JobSpec| -> JobRecord {
        let t0 = Instant::now();
        let record = run_job(job, spec, &cache, checkpoint);
        if let Some(r) = recorder {
            r.record(Event::JobDone {
                index: i as u64,
                total,
                wall_ns: if record.resumed {
                    0
                } else {
                    t0.elapsed().as_nanos() as u64
                },
                resumed: record.resumed,
            });
        }
        record
    };

    let mut table: Vec<Option<JobRecord>> = jobs.iter().map(|_| None).collect();
    if threads <= 1 {
        for (i, (slot, job)) in table.iter_mut().zip(&jobs).enumerate() {
            *slot = Some(run_one(i, job));
        }
    } else {
        let next = AtomicUsize::new(0);
        let collected: Vec<Vec<(usize, JobRecord)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(i) else { break };
                            local.push((i, run_one(i, job)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        for (i, record) in collected.into_iter().flatten() {
            table[i] = Some(record);
        }
    }

    Ok(SweepResults {
        spec: spec.clone(),
        records: table
            .into_iter()
            .map(|r| r.expect("every job slot filled"))
            .collect(),
        cache: cache.stats(),
        elapsed_secs: started.elapsed().as_secs_f64(),
    })
}

/// Merges shard checkpoint files back into one deterministic result set.
///
/// Every input row's fingerprint is validated: rows sharing a fingerprint
/// across inputs must be byte-identical (shards of one spec can never
/// disagree — the simulation is deterministic), and every row must match a
/// job of `spec` (a foreign row means the wrong spec or a stale file).
/// Jobs with no row anywhere are reported as per-job errors in the result
/// (`SweepResults::first_error`), so a partial merge is visible but still
/// produces the rows it can.
///
/// # Errors
///
/// Returns [`HarnessError`] for spec validation failures, unreadable
/// inputs, conflicting duplicate fingerprints, or foreign rows.
pub fn merge_checkpoints(
    spec: &SweepSpec,
    inputs: &[PathBuf],
) -> Result<SweepResults, HarnessError> {
    spec.validate()?;
    let started = Instant::now();
    let mut merged: HashMap<u64, (String, JobMetrics)> = HashMap::new();
    for path in inputs {
        for (fp, (row, metrics)) in read_checkpoint_rows(path).map_err(HarnessError::Io)? {
            match merged.get(&fp) {
                Some((existing, _)) if *existing != row => {
                    return Err(HarnessError::Io(format!(
                        "conflicting rows for fingerprint {fp:016x} (is {} from a different spec?)",
                        path.display()
                    )));
                }
                Some(_) => {}
                None => {
                    merged.insert(fp, (row, metrics));
                }
            }
        }
    }
    let cache = ArtifactCache::new();
    let mut matched = 0usize;
    let records: Vec<JobRecord> = spec
        .expand()
        .into_iter()
        .map(|job| {
            let circuit = match cache.circuit(&job.workload, spec.circuit_seed) {
                Ok((circuit, _)) => circuit,
                Err(e) => {
                    return JobRecord {
                        job,
                        outcome: Err(e),
                        resumed: false,
                    }
                }
            };
            let fp = job_fingerprint(&job, circuit.content_hash(), spec.circuit_seed);
            match merged.get(&fp) {
                Some((_, metrics)) => {
                    matched += 1;
                    JobRecord {
                        job,
                        outcome: Ok(metrics.clone()),
                        resumed: true,
                    }
                }
                None => JobRecord {
                    job,
                    outcome: Err("missing from the merged checkpoints".into()),
                    resumed: false,
                },
            }
        })
        .collect();
    if matched != merged.len() {
        return Err(HarnessError::Io(format!(
            "{} checkpoint row(s) match no job of this spec (wrong spec file?)",
            merged.len() - matched
        )));
    }
    Ok(SweepResults {
        spec: spec.clone(),
        records,
        cache: cache.stats(),
        elapsed_secs: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            workloads: vec!["decoder_stress_n4".into()],
            compressions: vec![0.0, 0.5],
            seeds: 2,
            ..SweepSpec::default()
        }
    }

    #[test]
    fn sweep_completes_every_job_in_order() {
        let spec = tiny_spec();
        let results = run_sweep(&spec, &RunOptions::with_threads(2)).unwrap();
        assert_eq!(results.records.len(), 4);
        assert!(results.first_error().is_none());
        assert!(results
            .records
            .iter()
            .enumerate()
            .all(|(i, r)| r.job.index == i));
        // One circuit build serves all four jobs; one layout per compression.
        assert_eq!(results.cache.circuit_builds, 1);
        assert_eq!(results.cache.layout_builds, 2);
    }

    #[test]
    fn unknown_workload_is_recorded_not_fatal() {
        let spec = SweepSpec {
            workloads: vec!["decoder_stress_n4".into(), "nope_n0".into()],
            seeds: 1,
            ..SweepSpec::default()
        };
        let results = run_sweep(&spec, &RunOptions::with_threads(1)).unwrap();
        assert_eq!(results.records.len(), 2);
        assert!(results.records[0].outcome.is_ok());
        assert!(results.records[1].outcome.is_err());
        assert!(results.first_error().unwrap().contains("nope_n0"));
    }

    #[test]
    fn shard_parsing_and_ownership() {
        let s = Shard::parse("1/3").unwrap();
        assert_eq!((s.index, s.count), (1, 3));
        assert_eq!(s.to_string(), "1/3");
        assert!(s.owns(1) && s.owns(4) && !s.owns(0) && !s.owns(2));
        assert!(Shard::parse("3/3").is_err());
        assert!(Shard::parse("0/0").is_err());
        assert!(Shard::parse("banana").is_err());
        assert!(Shard::parse("1").is_err());
    }

    #[test]
    fn sharded_runs_partition_the_job_list_deterministically() {
        let spec = tiny_spec(); // 4 jobs
        let full = run_sweep(&spec, &RunOptions::with_threads(1)).unwrap();
        let mut rows: Vec<String> = Vec::new();
        for index in 0..2 {
            let opts = RunOptions {
                threads: 1,
                shard: Some(Shard { index, count: 2 }),
                ..RunOptions::default()
            };
            let part = run_sweep(&spec, &opts).unwrap();
            assert_eq!(part.records.len(), 2);
            assert!(part.records.iter().all(|r| r.job.index % 2 == index));
            rows.extend(
                part.ok_rows()
                    .map(|(job, m)| (job.index, csv_row(job, m)))
                    .map(|(i, row)| format!("{i} {row}")),
            );
        }
        rows.sort();
        let full_rows: Vec<String> = full
            .ok_rows()
            .map(|(job, m)| format!("{} {}", job.index, csv_row(job, m)))
            .collect();
        assert_eq!(rows, full_rows, "shard union must reproduce the full run");
    }

    #[test]
    fn merge_checkpoints_reassembles_sharded_sweeps() {
        let dir = std::env::temp_dir().join("rescq_harness_merge_test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = tiny_spec(); // 4 jobs
        let full = run_sweep(&spec, &RunOptions::with_threads(1)).unwrap();

        let mut paths = Vec::new();
        for index in 0..2 {
            let path = dir.join(format!("shard{index}.ckpt"));
            let _ = std::fs::remove_file(&path);
            let opts = RunOptions {
                threads: 1,
                checkpoint: Some(path.clone()),
                shard: Some(Shard { index, count: 2 }),
                ..RunOptions::default()
            };
            run_sweep(&spec, &opts).unwrap();
            paths.push(path);
        }

        let merged = merge_checkpoints(&spec, &paths).unwrap();
        assert_eq!(merged.records.len(), 4);
        assert!(merged.first_error().is_none());
        assert_eq!(merged.resumed_count(), 4);
        assert_eq!(
            merged.to_csv(),
            full.to_csv(),
            "merged CSV must be byte-identical to the unsharded run"
        );
        // JSON carries wall-clock and cache stats; compare only the
        // deterministic lines (summaries and rows).
        let deterministic = |j: String| {
            j.lines()
                .filter(|l| !l.contains("\"cache\"") && !l.contains("\"elapsed_secs\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            deterministic(merged.to_json()),
            deterministic(full.to_json())
        );

        // A missing shard surfaces as per-job errors, not a hard failure.
        let partial = merge_checkpoints(&spec, &paths[..1]).unwrap();
        assert_eq!(partial.resumed_count(), 2);
        assert!(partial.first_error().unwrap().contains("missing"));

        // Foreign rows (a different spec's checkpoint) are rejected.
        let moved = SweepSpec {
            base_seed: 777,
            ..spec.clone()
        };
        let e = merge_checkpoints(&moved, &paths).unwrap_err();
        assert!(e.to_string().contains("no job"), "{e}");
        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn checkpoint_resume_skips_completed_jobs() {
        let dir = std::env::temp_dir().join("rescq_harness_run_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.ckpt");
        let _ = std::fs::remove_file(&path);

        let spec = tiny_spec();
        let opts = RunOptions {
            threads: 2,
            checkpoint: Some(path.clone()),
            ..RunOptions::default()
        };
        let first = run_sweep(&spec, &opts).unwrap();
        assert_eq!(first.resumed_count(), 0);
        let second = run_sweep(&spec, &opts).unwrap();
        assert_eq!(second.resumed_count(), 4, "all jobs restore from disk");
        assert_eq!(first.to_csv(), second.to_csv(), "restored rows identical");

        // A different base seed shares no fingerprints with the checkpoint.
        let moved = SweepSpec {
            base_seed: 100,
            ..spec
        };
        let third = run_sweep(&moved, &opts).unwrap();
        assert_eq!(third.resumed_count(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
