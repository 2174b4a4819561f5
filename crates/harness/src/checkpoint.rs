//! Resumable sweep checkpoints.
//!
//! Every completed job appends one line — `<fingerprint-hex> <csv-row>` —
//! to the checkpoint file, flushed immediately so a killed sweep loses at
//! most in-flight jobs. On restart the file is loaded into a map keyed by
//! job fingerprint; jobs whose fingerprint is present are restored instead
//! of re-run. The fingerprint covers every input that determines a job's
//! result — the workload's *content hash* (so an edited `file:` circuit
//! invalidates its old rows), the full simulation configuration and the
//! seed — making stale restores impossible without storing the whole spec.

use crate::results::{parse_csv_metrics, JobMetrics};
use crate::spec::JobSpec;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const HEADER: &str = "# rescq-harness checkpoint v1";

/// The stable fingerprint of one job given the content hash of its circuit.
///
/// Two jobs collide only if every result-determining input matches, in
/// which case their results are identical anyway (the simulation is
/// deterministic).
pub fn job_fingerprint(job: &JobSpec, circuit_hash: u64, circuit_seed: u64) -> u64 {
    // The whole config's `Debug` text, so no field can be left out; `f64`
    // debug output round-trips, so distinct values never collide.
    let canonical = format!(
        "w={}|ch={circuit_hash}|cs={circuit_seed}|{:?}",
        job.workload, job.config
    );
    rescq_circuit::fnv1a_64(canonical.bytes())
}

/// A checkpoint file: previously completed rows plus an appender for new
/// completions.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    completed: HashMap<u64, JobMetrics>,
    writer: Mutex<std::fs::File>,
}

impl Checkpoint {
    /// Opens (or creates) a checkpoint file and loads its completed rows.
    ///
    /// Malformed lines are skipped — a truncated final line from a killed
    /// run must not poison the restart.
    ///
    /// # Errors
    ///
    /// Returns an I/O error string when the file cannot be opened.
    pub fn open(path: &Path) -> Result<Self, String> {
        let mut completed = HashMap::new();
        // A kill mid-write can leave a final line without its newline; the
        // next append must not glue a fresh record onto the partial line.
        let mut needs_newline = false;
        if let Ok(text) = std::fs::read_to_string(path) {
            needs_newline = !text.is_empty() && !text.ends_with('\n');
            for (fp, (_, metrics)) in parse_checkpoint_text(&text) {
                completed.insert(fp, metrics);
            }
        }
        let fresh = !path.exists();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let ckpt = Checkpoint {
            path: path.to_path_buf(),
            completed,
            writer: Mutex::new(file),
        };
        if fresh {
            ckpt.write_line(HEADER);
        } else if needs_newline {
            ckpt.write_line("");
        }
        Ok(ckpt)
    }

    /// The metrics previously recorded for `fingerprint`, if any.
    pub fn lookup(&self, fingerprint: u64) -> Option<&JobMetrics> {
        self.completed.get(&fingerprint)
    }

    /// Number of rows loaded from disk.
    pub fn loaded(&self) -> usize {
        self.completed.len()
    }

    /// Records a completed job (flushed immediately).
    pub fn record(&self, fingerprint: u64, csv_row: &str) {
        self.write_line(&format!("{fingerprint:016x} {csv_row}"));
    }

    fn write_line(&self, line: &str) {
        let mut w = self.writer.lock().expect("checkpoint writer poisoned");
        // Best-effort: checkpoint write failures must not kill the sweep.
        if writeln!(w, "{line}").and_then(|()| w.flush()).is_err() {
            eprintln!(
                "warning: checkpoint write to {} failed",
                self.path.display()
            );
        }
    }
}

/// Parses checkpoint text into `fingerprint → (raw CSV row, metrics)`,
/// skipping headers and malformed lines (same tolerance as [`Checkpoint::open`]).
fn parse_checkpoint_text(text: &str) -> HashMap<u64, (String, JobMetrics)> {
    let mut rows = HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let Some((fp, row)) = line.split_once(' ') else {
            continue;
        };
        let Ok(fp) = u64::from_str_radix(fp, 16) else {
            continue;
        };
        if let Ok(metrics) = parse_csv_metrics(row) {
            rows.insert(fp, (row.to_string(), metrics));
        }
    }
    rows
}

/// Reads a checkpoint file into `fingerprint → (raw CSV row, metrics)` for
/// merging ([`crate::merge_checkpoints`]). Unlike [`Checkpoint::open`] this
/// never creates or appends to the file.
///
/// # Errors
///
/// Returns a message when the file cannot be read.
pub fn read_checkpoint_rows(path: &Path) -> Result<HashMap<u64, (String, JobMetrics)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(parse_checkpoint_text(&text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobSpec, SweepSpec};

    /// The jobs of a dnn_n16 spec with `seeds` seeds.
    fn jobs(seeds: u64) -> Vec<JobSpec> {
        let spec = SweepSpec {
            workloads: vec!["dnn_n16".into()],
            seeds,
            ..SweepSpec::default()
        };
        spec.expand()
    }

    /// A fresh checkpoint path in the temp dir.
    fn ckpt_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rescq_harness_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn fingerprints_separate_jobs() {
        let jobs = jobs(2);
        let a = job_fingerprint(&jobs[0], 1234, 1);
        let b = job_fingerprint(&jobs[1], 1234, 1);
        assert_ne!(a, b, "different seeds must fingerprint differently");
        assert_eq!(a, job_fingerprint(&jobs[0], 1234, 1), "stable");
        assert_ne!(
            a,
            job_fingerprint(&jobs[0], 5678, 1),
            "circuit content is part of the fingerprint"
        );
        let changed = |change: fn(&mut rescq_sim::SimConfig)| {
            let mut job = jobs[0].clone();
            change(&mut job.config);
            job_fingerprint(&job, 1234, 1)
        };
        for (what, fp) in [
            ("compression", changed(|c| c.compression = 0.5)),
            (
                "decoder",
                changed(|c| c.decoder = rescq_decoder::DecoderConfig::union_find(8.0)),
            ),
            ("max_cycles", changed(|c| c.max_cycles += 1)),
            ("calibration", changed(|c| c.calibration.c1 += 1.0)),
        ] {
            assert_ne!(a, fp, "{what} is part of the fingerprint");
        }
    }

    #[test]
    fn checkpoint_round_trip() {
        let path = ckpt_path("roundtrip.ckpt");

        let job = jobs(1).remove(0);
        let metrics = JobMetrics {
            seed: 1,
            total_cycles: 321.125,
            idle_fraction: 0.5,
            injections: 9,
            decode_growth_steps: 40,
            ..JobMetrics::default()
        };
        let fp = job_fingerprint(&job, 42, 1);
        {
            let ckpt = Checkpoint::open(&path).unwrap();
            assert_eq!(ckpt.loaded(), 0);
            ckpt.record(fp, &crate::results::csv_row(&job, &metrics));
        }
        let reopened = Checkpoint::open(&path).unwrap();
        assert_eq!(reopened.loaded(), 1);
        assert_eq!(reopened.lookup(fp), Some(&metrics));
        assert_eq!(reopened.lookup(fp ^ 1), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_final_line_does_not_swallow_next_record() {
        let path = ckpt_path("truncated.ckpt");
        // A kill mid-write left a partial line with no trailing newline.
        std::fs::write(&path, "# header\n0000000000000abc workload,trunc").unwrap();

        let job = jobs(1).remove(0);
        let metrics = JobMetrics {
            seed: 1,
            total_cycles: 10.5,
            idle_fraction: 0.25,
            injections: 1,
            preps_started: 1,
            ..JobMetrics::default()
        };
        let fp = job_fingerprint(&job, 7, 1);
        {
            let ckpt = Checkpoint::open(&path).unwrap();
            ckpt.record(fp, &crate::results::csv_row(&job, &metrics));
        }
        let reopened = Checkpoint::open(&path).unwrap();
        assert_eq!(
            reopened.lookup(fp),
            Some(&metrics),
            "the record appended after a truncated line must survive"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_skips_old_schema_rows_and_keeps_current_ones() {
        // Checkpoints written while the class-lattice columns existed hold
        // 32-column rows, and those written before the engine-thread column
        // was dropped hold 33. Resuming against them must silently drop
        // those rows (the jobs simply re-run) while current-width rows
        // restore fine.
        let path = ckpt_path("schema_resume.ckpt");

        let jobs = jobs(2);
        let metrics = JobMetrics {
            seed: 1,
            total_cycles: 55.0,
            stall_cycles: 2.0,
            decode_defects: 7,
            decode_growth_steps: 21,
            ..JobMetrics::default()
        };
        let current_row = crate::results::csv_row(&jobs[0], &metrics);
        // The class-lattice schema: a `priority` column after the decoder
        // column and a class metric after each of `waitgraph_peak_edges`
        // and `stall_route`.
        let at = |name: &str| {
            crate::results::COLUMNS
                .iter()
                .position(|c| c.0 == name)
                .unwrap()
        };
        let mut cols: Vec<&str> = current_row.split(',').collect();
        cols.insert(at("stall_route") + 1, "0");
        cols.insert(at("waitgraph_peak_edges") + 1, "0");
        cols.insert(7, "off");
        let old_row = cols.join(",");
        assert_eq!(old_row.split(',').count(), 32);
        // The engine-thread schema: a `1` column after the decoder column.
        cols.insert(7, "1");
        let threads_row = cols.join(",");
        assert_eq!(threads_row.split(',').count(), 33);
        let fp_old = job_fingerprint(&jobs[1], 42, 1);
        let fp_threads = job_fingerprint(&jobs[1], 43, 1);
        let fp_new = job_fingerprint(&jobs[0], 42, 1);
        std::fs::write(
            &path,
            format!(
                "{HEADER}\n{fp_old:016x} {old_row}\n{fp_threads:016x} {threads_row}\n\
                 {fp_new:016x} {current_row}\n"
            ),
        )
        .unwrap();

        let ckpt = Checkpoint::open(&path).unwrap();
        assert_eq!(ckpt.loaded(), 1, "only the current-width row restores");
        assert_eq!(ckpt.lookup(fp_new), Some(&metrics));
        assert_eq!(ckpt.lookup(fp_old), None, "old-schema row must re-run");
        assert_eq!(ckpt.lookup(fp_threads), None, "33-column row must re-run");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_lines_skipped() {
        let path = ckpt_path("malformed.ckpt");
        std::fs::write(&path, "# header\nnot a line\nzzzz bad,row\n").unwrap();
        let ckpt = Checkpoint::open(&path).unwrap();
        assert_eq!(ckpt.loaded(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
