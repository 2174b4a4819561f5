//! `sim bench` checks its flags with the sweep-spec rules: each bad value
//! exits with an error naming the spec key, never with a panic, a silent
//! run or a watchdog timeout.

use std::process::{Command, Output};

fn sim_bench(flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sim"))
        .args(["bench", "decoder_stress_n2"])
        .args(flags)
        .output()
        .expect("the sim binary runs")
}

#[test]
fn invalid_flags_are_rejected_by_key() {
    for (flags, key) in [
        (&["--distance", "0"][..], "distances"),
        (&["--distance", "1"], "distances"),
        (&["--compression", "1.5"], "compressions"),
        (&["--compression", "nan"], "compressions"),
        (
            &["--decoder", "fixed", "--decoder-throughput", "0"],
            "decoders",
        ),
        (&["--seeds", "0"], "seeds"),
        (&["--baseline", "x.json"], "unknown flag `--baseline`"),
        (&["--decoder", "adaptive"], "unknown decoder `adaptive`"),
        (&["--decoder", "triage"], "unknown decoder `triage`"),
        (
            &["--decoder-workers", "4"],
            "unknown flag `--decoder-workers`",
        ),
    ] {
        let out = sim_bench(flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(
            stderr.contains(key),
            "{flags:?} must name `{key}`: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} must not run anything");
    }
}

#[test]
fn valid_flags_run_every_scheduler() {
    let out = sim_bench(&[
        "--seeds",
        "1",
        "--decoder",
        "fixed",
        "--decoder-throughput",
        "0.5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("=> 1 runs: mean").count(), 3, "{stdout}");
}
