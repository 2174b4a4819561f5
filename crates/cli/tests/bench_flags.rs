//! `sim bench` checks its flags with the sweep-spec rules: each bad value
//! exits with an error naming the spec key, never with a panic, a silent
//! run or a watchdog timeout. Removed flags are rejected by name, and every
//! command rejects a flag it does not declare.

use std::process::{Command, Output, Stdio};

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

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sim"))
        .args(args)
        .output()
        .expect("the sim binary runs")
}

#[test]
fn fig_table3_and_list_reject_unknown_flags() {
    for (args, message) in [
        (&["fig", "10", "--fulll"][..], "unknown flag `--fulll`"),
        (&["fig", "3", "--seeds", "2"], "unknown flag `--seeds`"),
        (&["fig"], "usage: sim fig"),
        (&["fig", "3", "5"], "usage: sim fig"),
        (&["fig", "17"], "unknown figure `17`"),
        (&["fig", "table3"], "Table 3 is `sim table3`"),
        (&["table3", "--full"], "unknown flag `--full`"),
        (&["list", "--csv", "out"], "unknown flag `--csv`"),
    ] {
        let out = sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(message),
            "{args:?} must say `{message}`: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    }
    // `--full` may come before the figure id.
    let out = sim(&["fig", "--full", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("=== Figure 3"));
}

#[test]
fn closed_stdout_is_a_clean_exit_that_still_writes_files() {
    let json = std::env::temp_dir().join(format!("rescq_cli_closed_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&json);
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/trace_tiny.json"
    );
    let json_arg = json.to_str().unwrap();
    for args in [&["table3"][..], &["analyze", trace, "--json", json_arg]] {
        // The reader goes away before `sim` writes its first line.
        let mut child = Command::new(env!("CARGO_BIN_EXE_sim"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the sim binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("sim exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(
            stderr.is_empty(),
            "{args:?}: no panic or message expected: {stderr}"
        );
    }
    assert!(
        json.exists(),
        "`--json` must be written after stdout closed"
    );
    let _ = std::fs::remove_file(&json);
}
