//! Trace and snapshot readers never panic: a seeded mutation corpus for
//! `parse_trace`, `validate_trace`, `analyze_events` and
//! `MetricsSnapshot::parse`.
//!
//! The seeds are the golden tiny trace, a trace holding every event
//! variant, and metrics snapshots from the golden sink file. Every seed is
//! truncated at every byte, flipped at random bytes, and spliced with the
//! others and with hostile tokens (extreme and non-finite numbers, broken
//! escapes, unknown stall causes, a 200,000-deep array). Mutated bytes
//! that are not UTF-8 go in through a lossy conversion. Each input must
//! come back as `Ok` or `Err` — a trace that parses is analyzed and its
//! report rendered — and the whole corpus must finish within a time limit.

use rescq_telemetry::{
    analyze_events, normalize_timestamps, parse_trace, validate_trace, Event, MetricsSnapshot,
    Phase, Recorder, RingRecorder, StallCause,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

const TRACE_TINY: &str = include_str!("../../../tests/golden/trace_tiny.json");
const SNAPSHOTS: &str = include_str!("../../../tests/golden/sinks_snapshot.json");

/// A trace of every event variant, with values at the edges of their types.
fn every_variant_trace() -> String {
    let rec = RingRecorder::new();
    for ev in [
        Event::PhaseSpan {
            phase: Phase::Propose,
            round: 3,
            dur_ns: 1500,
        },
        Event::Claim {
            round: 4,
            task: 1,
            ancilla: u32::MAX,
        },
        Event::Preemption {
            round: 5,
            task: 2,
            ancilla: 0,
        },
        Event::PreemptionRejected {
            round: 5,
            task: 1,
            ancilla: 0,
        },
        Event::WindowEnqueued {
            round: 6,
            window: 0,
            ready_at: 9,
        },
        Event::WindowRetired {
            round: 9,
            window: 0,
            stalled_rounds: 3,
        },
        Event::RoutePlanned {
            round: 7,
            task: 2,
            hops: 4,
            replanned: true,
        },
        Event::Stall {
            round: 8,
            task: 2,
            cause: StallCause::RouteBlocked,
        },
        Event::WaitEdge {
            round: 8,
            waiter: 2,
            holder: 1,
            ancilla: 0,
        },
        Event::AncillaState {
            round: u64::MAX,
            ancilla: 0,
            depth: 2,
            busy: true,
        },
        Event::AncillaState {
            round: 1,
            ancilla: 0,
            depth: 0,
            busy: true,
        },
        Event::JobDone {
            index: 0,
            total: 1,
            wall_ns: 10,
            resumed: false,
        },
    ] {
        rec.record(ev);
    }
    rec.to_chrome_trace()
}

/// Tokens spliced into documents.
const HOSTILE: [&str; 16] = [
    "18446744073709551615",
    "184467440737095516150",
    "-1",
    "1e309",
    "-1e309",
    "NaN",
    "\"\\ud800\"",
    "\"\\u00",
    "\"cause\":\"nope\"",
    "\"busy\":1",
    "null",
    "}}]]",
    ",\n",
    "\n{\"traceEvents\":[\n",
    "\"dropped_events\":99999999999999999999999",
    "π ÿ ∅",
];

/// SplitMix64: a self-contained seeded stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The mutated inputs of one family of seed documents: the seeds, every
/// truncation, `flips` byte-flipped copies per seed and `splices`
/// splices of two random pieces with a hostile token between them.
fn corpus(seeds: &[String], seed: u64, flips: usize, splices: usize) -> Vec<String> {
    let mut st = seed;
    let mut out: Vec<String> = seeds.to_vec();
    for doc in seeds {
        let bytes = doc.as_bytes();
        for cut in 0..bytes.len() {
            out.push(String::from_utf8_lossy(&bytes[..cut]).into_owned());
        }
        for _ in 0..flips {
            let mut b = bytes.to_vec();
            for _ in 0..1 + next(&mut st) % 3 {
                let at = (next(&mut st) % b.len() as u64) as usize;
                b[at] ^= next(&mut st) as u8 | 1;
            }
            out.push(String::from_utf8_lossy(&b).into_owned());
        }
    }
    let all: Vec<&[u8]> = seeds
        .iter()
        .map(|s| s.as_bytes())
        .chain(HOSTILE.iter().map(|s| s.as_bytes()))
        .collect();
    for _ in 0..splices {
        let a = all[(next(&mut st) % all.len() as u64) as usize];
        let b = all[(next(&mut st) % all.len() as u64) as usize];
        let token = HOSTILE[(next(&mut st) % HOSTILE.len() as u64) as usize];
        let cut_a = (next(&mut st) % (a.len() as u64 + 1)) as usize;
        let cut_b = (next(&mut st) % (b.len() as u64 + 1)) as usize;
        let mut s = a[..cut_a].to_vec();
        s.extend_from_slice(token.as_bytes());
        s.extend_from_slice(&b[cut_b..]);
        out.push(String::from_utf8_lossy(&s).into_owned());
    }
    out
}

/// Every reader on one input; a trace that parses is analyzed and its
/// report rendered.
fn read_everything(text: &str) {
    drop(validate_trace(text));
    drop(normalize_timestamps(text));
    drop(MetricsSnapshot::parse(text));
    if let Ok(parsed) = parse_trace(text) {
        let report = analyze_events(&parsed.events, parsed.dropped, parsed.truncated);
        drop(report.render_text(8));
        drop(report.to_json(8));
    }
}

#[test]
fn trace_and_snapshot_readers_survive_a_mutation_corpus() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let traces = [TRACE_TINY.to_owned(), every_variant_trace()];
        // Each `## ...` section of the golden sink file is one snapshot.
        let snapshots: Vec<String> = SNAPSHOTS
            .split("## ")
            .filter_map(|s| s.split_once('\n').map(|(_, doc)| doc.to_owned()))
            .take(2)
            .collect();
        assert_eq!(snapshots.len(), 2);
        let deep = format!("{{\"traceEvents\":{}", "[".repeat(200_000));
        let mut inputs = corpus(&traces, 1, 400, 3000);
        inputs.extend(corpus(&snapshots, 2, 400, 3000));
        inputs.push(deep.clone());
        inputs.push(format!("{TRACE_TINY}{deep}"));
        inputs.push(format!("{{\"schema_version\":1,\"counters\":{deep}"));
        let failed: Vec<String> = inputs
            .iter()
            .filter(|text| catch_unwind(AssertUnwindSafe(|| read_everything(text))).is_err())
            .map(|text| text.chars().take(300).collect())
            .collect();
        tx.send((inputs.len(), failed)).unwrap();
    });
    let (count, failed) = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("the corpus finishes: no reader hangs");
    assert!(failed.is_empty(), "readers panicked on {failed:#?}");
    assert!(count > 18_000, "only {count} inputs");
}
