//! Parsers never panic: a seeded mutation corpus for `parse_qasm`,
//! `parse_circuit` and `parse_angle`.
//!
//! Every valid seed document is truncated at every byte, flipped at random
//! bytes, spliced with the others and with hostile tokens (extreme
//! integers, huge denominators, non-finite floats, multi-byte text).
//! Mutated bytes that are not UTF-8 go in through a lossy conversion, so
//! replacement characters land mid-token too. Each input must come back as
//! `Ok` or `Err`: a panic fails the test and names the input, and the whole
//! corpus must finish within a time limit, so a parser that loops forever
//! fails instead of hanging the suite.

use rescq_circuit::parse_circuit;
use rescq_circuit::parser::parse_angle;
use rescq_circuit::qasm::parse_qasm;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

const QASM: [&str; 3] = [
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\nh q[0];\n\
     cx q[0],q[1];\nrz(pi/8) q[2];\nt q[1]; sdg q[0];\nbarrier q;\n\
     measure q[0] -> c[0];\n",
    "qreg a[2];\nqreg b[2];\ncx a[1],b[0];\nswap a[0],b[1];\nu1(-3*pi/4) b[0];\n\
     rz(2*pi/3) a[1]; // generic fraction\np( 0.25 ) a[0];\n",
    "OPENQASM 2.0;\nqreg q[1];\nrz(1.5707963) q[0];\nx q[0];\nz q[0];\ntdg q[0];\n",
];

const CIRCUIT: [&str; 3] = [
    "5\nh 0\ncx 0 1\nrz 1 pi/4\nrz 2 0.123456789\nx 2\n",
    "# a comment\n3\n\nh 0   # inline\ncnot 0 1\nrz 0 -3*pi/8\n",
    "s 0\nsdg 0\nt 1\ntdg 1\nz 2\nrz 2 pi\nrz 1 2*pi\nrz 0 0\n",
];

const ANGLES: [&str; 10] = [
    "0",
    "0.0",
    "pi",
    "-pi",
    "pi/4",
    "-pi/2",
    "3*pi/8",
    "-5*pi/16",
    "1.5707963",
    "2pi/8",
];

/// Tokens spliced into documents: the edges of every integer and float a
/// parser converts.
const HOSTILE: [&str; 17] = [
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "-9223372036854775808",
    "-9223372036854775808*pi",
    "--9223372036854775808*pi",
    "9223372036854775807*pi/9223372036854775808",
    "pi/9223372036854775808",
    "pi/0",
    "-0",
    "inf",
    "NaN",
    "1e309",
    "qreg r[4294967295];",
    "[",
    "(",
    "π/4 ∅ ÿ",
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
fn corpus(seeds: &[&str], seed: u64, flips: usize, splices: usize) -> Vec<String> {
    let mut st = seed;
    let mut out: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
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

/// Runs `parse` on every input, collecting the inputs that panicked.
fn panics(inputs: &[String], parse: impl Fn(&str)) -> Vec<String> {
    inputs
        .iter()
        .filter(|text| catch_unwind(AssertUnwindSafe(|| parse(text))).is_err())
        .cloned()
        .collect()
}

#[test]
fn parsers_survive_a_mutation_corpus() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let qasm = corpus(&QASM, 1, 400, 3000);
        let circuit = corpus(&CIRCUIT, 2, 400, 3000);
        let angles = corpus(&ANGLES, 3, 60, 3000);
        let hostile_lines: Vec<String> = HOSTILE
            .iter()
            .flat_map(|t| {
                [
                    format!("h {t}\n"),
                    format!("rz 0 {t}\n"),
                    format!("cx 0 {t}\n"),
                    format!("{t}\nh 0\n"),
                    format!("qreg q[{t}];\nh q[0];\n"),
                    format!("qreg q[2];\nrz({t}) q[1];\n"),
                    format!("qreg q[2];\nh q[{t}];\n"),
                ]
            })
            .collect();
        let count = qasm.len() + circuit.len() + angles.len() + 2 * hostile_lines.len();
        let mut failed = panics(&qasm, |t| drop(parse_qasm(t)));
        failed.extend(panics(&hostile_lines, |t| drop(parse_qasm(t))));
        failed.extend(panics(&circuit, |t| {
            drop(parse_circuit(t, None));
            drop(parse_circuit(t, Some(3)));
        }));
        failed.extend(panics(&hostile_lines, |t| drop(parse_circuit(t, None))));
        failed.extend(panics(&angles, |t| drop(parse_angle(t))));
        failed.extend(panics(&HOSTILE.map(String::from), |t| drop(parse_angle(t))));
        tx.send((count, failed)).unwrap();
    });
    let (count, failed) = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("the corpus finishes: no parser hangs");
    assert!(count > 12_000, "only {count} inputs");
    assert!(failed.is_empty(), "parsers panicked on {failed:#?}");
}
