//! CSV and log emission for experiment results.

use rescq_sim::{reports_csv_row, ExecutionReport, LatencyHistogram, REPORTS_CSV_HEADER};
use std::io::Write;
use std::path::Path;

/// Writes per-run reports as CSV (one row per seed).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_reports_csv(path: &Path, reports: &[ExecutionReport]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{REPORTS_CSV_HEADER}")?;
    for r in reports {
        writeln!(f, "{}", reports_csv_row(r))?;
    }
    Ok(())
}

/// Writes a latency histogram as CSV (`latency_cycles,count`).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_histogram_csv(path: &Path, hist: &LatencyHistogram) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "latency_cycles,count")?;
    for (lat, n) in hist.iter() {
        writeln!(f, "{lat},{n}")?;
    }
    Ok(())
}

/// Writes `text` to `out` and flushes. Returns `Ok(false)` when the reader
/// has closed the pipe (`sim … | head`): nothing more can be read, so the
/// caller stops printing, which is not an error.
///
/// # Errors
///
/// Propagates any other I/O error.
pub fn print_to(out: &mut impl Write, text: &str) -> std::io::Result<bool> {
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(e),
    }
}

/// Renders a one-line textual summary of a report.
pub fn summarize(r: &ExecutionReport) -> String {
    let mut s = format!(
        "{} seed={}: {:.0} cycles, idle {:.0}%, {} injections ({} failed), {} preps ({} reclaimed), {} edge rotations",
        r.scheduler,
        r.seed,
        r.total_cycles(),
        r.idle_fraction() * 100.0,
        r.counters.injections,
        r.counters.injection_failures,
        r.counters.preps_started,
        r.counters.preps_cancelled,
        r.counters.edge_rotations,
    );
    if r.counters.decoder_stall_rounds > 0 {
        s.push_str(&format!(
            ", decoder stalls {:.0}cy (backlog ≤{})",
            r.decoder_stall_cycles(),
            r.counters.decoder_peak_backlog,
        ));
    }
    if r.counters.preemptions > 0 || r.counters.preemptions_rejected_cycle > 0 {
        s.push_str(&format!(
            ", {} preemptions ({} cycle-rejected)",
            r.counters.preemptions, r.counters.preemptions_rejected_cycle,
        ));
    }
    if r.stall_cycles() > 0 {
        s.push_str(&format!(
            ", stalls {}cy (ancilla {}, decoder {}, route {})",
            r.stall_cycles(),
            r.counters.stall_ancilla_cycles,
            r.counters.stall_decoder_cycles,
            r.counters.stall_route_cycles,
        ));
    }
    if r.phase_nanos.iter().any(|&ns| ns > 0) {
        let ms = |ns: u64| ns as f64 / 1e6;
        s.push_str(&format!(
            ", phases sched {:.1}ms / start {:.1}ms / propose {:.1}ms / commit {:.1}ms",
            ms(r.phase_nanos[0]),
            ms(r.phase_nanos[1]),
            ms(r.phase_nanos[2]),
            ms(r.phase_nanos[3]),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescq_circuit::{Angle, Circuit};
    use rescq_sim::{simulate, SimConfig};

    fn sample_report() -> ExecutionReport {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).rz(1, Angle::T);
        simulate(&c, &SimConfig::default()).unwrap()
    }

    #[test]
    fn csv_round_trip_shape() {
        let dir = std::env::temp_dir().join("rescq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.csv");
        let r = sample_report();
        write_reports_csv(&path, std::slice::from_ref(&r)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("scheduler,seed"));
        assert!(text.contains("rescq"));

        let hpath = dir.join("hist.csv");
        write_histogram_csv(&hpath, &r.cnot_latency).unwrap();
        let htext = std::fs::read_to_string(&hpath).unwrap();
        assert!(htext.starts_with("latency_cycles,count"));
    }

    /// A writer whose reader is gone, or that fails some other way.
    struct Failing(std::io::ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn closed_pipe_is_a_clean_stop_and_other_errors_propagate() {
        let mut buf = Vec::new();
        assert!(print_to(&mut buf, "table\n").unwrap());
        assert_eq!(buf, b"table\n");
        let closed = print_to(&mut Failing(std::io::ErrorKind::BrokenPipe), "row\n");
        assert!(!closed.unwrap());
        let full = print_to(&mut Failing(std::io::ErrorKind::StorageFull), "row\n");
        assert_eq!(full.unwrap_err().kind(), std::io::ErrorKind::StorageFull);
    }

    #[test]
    fn summary_mentions_key_counters() {
        let s = summarize(&sample_report());
        assert!(s.contains("cycles"));
        assert!(s.contains("injections"));
    }
}
