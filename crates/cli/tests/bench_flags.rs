//! `sim bench` checks its flags with the sweep-spec rules: each bad value
//! exits with an error naming the spec key, never with a panic, a silent
//! run or a watchdog timeout. Removed flags are rejected by name.

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
            &["--decoder", "union_find", "--decoder-throughput", "0"],
            "decoders",
        ),
        (&["--decoder", "fixed"], "unknown decoder `fixed`"),
        (&["--seeds", "0"], "seeds"),
        (&["--baseline", "x.json"], "unknown flag `--baseline`"),
        (&["--decoder", "adaptive"], "unknown decoder `adaptive`"),
        (&["--decoder", "triage"], "unknown decoder `triage`"),
        (
            &["--decoder-workers", "4"],
            "unknown flag `--decoder-workers`",
        ),
        (
            &["--priority-classes", "off"],
            "unknown flag `--priority-classes`",
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
        "union_find",
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

#[test]
fn removed_layout_cache_flag_is_rejected_by_name() {
    let dir = std::env::temp_dir().join(format!("rescq_cli_layout_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("tiny.toml");
    std::fs::write(&spec, "workloads = [\"decoder_stress_n2\"]\nseeds = 1\n").unwrap();
    let cache = dir.join("layouts");
    let out = Command::new(env!("CARGO_BIN_EXE_sim"))
        .arg("sweep")
        .arg(&spec)
        .arg("--layout-cache")
        .arg(&cache)
        .output()
        .expect("the sim binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("unknown flag `--layout-cache`"),
        "must name the flag: {stderr}"
    );
    assert!(out.stdout.is_empty(), "must not run anything");
    assert!(!cache.exists(), "must not create the cache directory");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_priority_flag_is_rejected_by_run_and_analyze() {
    for command in ["run", "analyze"] {
        let out = Command::new(env!("CARGO_BIN_EXE_sim"))
            .args([command, "point.toml", "--priority-classes", "off"])
            .output()
            .expect("the sim binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            stderr.contains("unknown flag `--priority-classes`"),
            "{command} must name the flag: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{command} must not run anything");
    }
}
