//! Parser and writer for the artifact's circuit text format (paper §B.7):
//!
//! ```text
//! <total number of gates>
//! <gate name> <qubit(s)> <rotation angle, rz only>
//! ```
//!
//! Angles accept plain radians (`0.785398…`), exact dyadic-π expressions
//! (`pi/4`, `-3*pi/8`, `pi`, `2*pi`), and `0`. The writer emits the exact form
//! whenever the angle is dyadic so that round-trips preserve ladder-termination
//! behaviour.

use crate::{Angle, Circuit, Gate};
use std::fmt;

/// Error from parsing circuit text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCircuitError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseCircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseCircuitError {}

fn err(line: usize, message: impl Into<String>) -> ParseCircuitError {
    ParseCircuitError {
        line,
        message: message.into(),
    }
}

/// Parses an angle token: radians float, `pi` expressions, or `0`.
///
/// Accepted dyadic forms: `pi`, `-pi`, `pi/DEN`, `-pi/DEN`, `NUM*pi`,
/// `NUM*pi/DEN` where `DEN` is a power of two.
///
/// # Errors
///
/// Returns a message if the token is neither a float nor a recognized
/// π-expression.
pub fn parse_angle(token: &str) -> Result<Angle, String> {
    let t = token.trim();
    if t == "0" || t == "0.0" {
        return Ok(Angle::ZERO);
    }
    if let Some(a) = parse_pi_expr(t) {
        return Ok(a);
    }
    t.parse::<f64>()
        .map(Angle::radians)
        .map_err(|_| format!("invalid angle `{t}`"))
}

fn parse_pi_expr(t: &str) -> Option<Angle> {
    if !t.contains("pi") {
        return None;
    }
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let (num_part, den_part) = match t.split_once('/') {
        Some((n, d)) => (n, Some(d)),
        None => (t, None),
    };
    let num: i64 = if num_part == "pi" {
        1
    } else {
        let n = num_part
            .strip_suffix("*pi")
            .or_else(|| num_part.strip_suffix("pi"))?;
        n.parse().ok()?
    };
    let k: u32 = match den_part {
        None => 0,
        Some(d) => {
            let den: u64 = d.parse().ok()?;
            if !den.is_power_of_two() {
                return None;
            }
            den.trailing_zeros()
        }
    };
    let num = if neg { num.checked_neg()? } else { num };
    Some(Angle::dyadic_pi(num, k))
}

/// Parses the artifact text format into a [`Circuit`].
///
/// The number of qubits is inferred as `1 + max qubit index` unless
/// `num_qubits` is given. Gate names: `rz`, `h`, `x`, `z`, `s`, `sdg`, `t`,
/// `tdg`, `cx`/`cnot`. Blank lines and `#` comments are skipped.
///
/// # Errors
///
/// Returns [`ParseCircuitError`] on malformed lines, unknown gates, or a
/// gate-count header that disagrees with the body.
pub fn parse_circuit(text: &str, num_qubits: Option<u32>) -> Result<Circuit, ParseCircuitError> {
    let mut declared: Option<usize> = None;
    let mut gates: Vec<Gate> = Vec::new();
    let mut max_qubit: u32 = 0;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if declared.is_none() && gates.is_empty() {
            if let Ok(n) = line.parse::<usize>() {
                declared = Some(n);
                continue;
            }
        }
        let mut parts = line.split_whitespace();
        let name = parts.next().ok_or_else(|| err(lineno, "empty line"))?;
        let next_qubit =
            |parts: &mut std::str::SplitWhitespace<'_>| -> Result<u32, ParseCircuitError> {
                parts
                    .next()
                    .ok_or_else(|| err(lineno, format!("missing qubit operand for `{name}`")))?
                    .parse::<u32>()
                    .map_err(|_| err(lineno, format!("invalid qubit index for `{name}`")))
            };
        let gate = match name {
            "rz" => {
                let q = next_qubit(&mut parts)?;
                let angle_tok = parts
                    .next()
                    .ok_or_else(|| err(lineno, "rz requires an angle"))?;
                let angle = parse_angle(angle_tok).map_err(|m| err(lineno, m))?;
                Gate::rz(q, angle)
            }
            "h" => Gate::h(next_qubit(&mut parts)?),
            "x" => Gate::x(next_qubit(&mut parts)?),
            "z" => Gate::z(next_qubit(&mut parts)?),
            "s" => Gate::rz(next_qubit(&mut parts)?, Angle::S),
            "sdg" => Gate::rz(next_qubit(&mut parts)?, Angle::dyadic_pi(-1, 1)),
            "t" => Gate::rz(next_qubit(&mut parts)?, Angle::T),
            "tdg" => Gate::rz(next_qubit(&mut parts)?, Angle::dyadic_pi(-1, 2)),
            "cx" | "cnot" => {
                let c = next_qubit(&mut parts)?;
                let t = next_qubit(&mut parts)?;
                Gate::cnot(c, t)
            }
            other => return Err(err(lineno, format!("unknown gate `{other}`"))),
        };
        if let Some(extra) = parts.next() {
            return Err(err(lineno, format!("unexpected trailing token `{extra}`")));
        }
        for q in gate.qubits() {
            max_qubit = max_qubit.max(q.0);
        }
        gates.push(gate);
    }

    if let Some(n) = declared {
        if n != gates.len() {
            return Err(err(
                1,
                format!("header declares {n} gates but body has {}", gates.len()),
            ));
        }
    }

    let nq = match num_qubits {
        Some(n) => n,
        None if gates.is_empty() => 0,
        None => max_qubit
            .checked_add(1)
            .ok_or_else(|| err(1, format!("qubit index {max_qubit} is too large")))?,
    };
    Circuit::from_gates(nq, gates).map_err(|e| err(1, e.to_string()))
}

/// Writes a circuit in the artifact format (same as its `Display` impl).
pub fn write_circuit(circuit: &Circuit) -> String {
    circuit.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cnot(0, 1)
            .rz(1, Angle::T)
            .rz(2, Angle::radians(0.123456789))
            .x(2)
            .rz(0, Angle::dyadic_pi(-3, 4));
        let text = write_circuit(&c);
        let parsed = parse_circuit(&text, Some(3)).unwrap();
        assert_eq!(parsed.len(), c.len());
        for (a, b) in parsed.gates().iter().zip(c.gates()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn parses_pi_expressions() {
        assert_eq!(parse_angle("pi/4").unwrap(), Angle::T);
        assert_eq!(parse_angle("-pi/2").unwrap(), Angle::dyadic_pi(-1, 1));
        assert_eq!(parse_angle("3*pi/8").unwrap(), Angle::dyadic_pi(3, 3));
        assert_eq!(parse_angle("pi").unwrap(), Angle::PI);
        assert_eq!(parse_angle("0").unwrap(), Angle::ZERO);
        // Non-power-of-two denominator falls through to float error.
        assert!(parse_angle("pi/3").is_err());
    }

    #[test]
    fn parses_floats_as_radians() {
        let a = parse_angle("1.5707963").unwrap();
        assert!(!a.is_dyadic());
    }

    #[test]
    fn header_mismatch_rejected() {
        let text = "3\nh 0\ncx 0 1\n";
        let e = parse_circuit(text, None).unwrap_err();
        assert!(e.message.contains("declares 3"));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# a comment\n2\n\nh 0   # inline\ncx 0 1\n";
        let c = parse_circuit(text, None).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.num_qubits(), 2);
    }

    #[test]
    fn named_clifford_shorthands() {
        let c = parse_circuit("s 0\nsdg 0\nt 0\ntdg 0\n", None).unwrap();
        let stats = c.stats();
        assert_eq!(stats.clifford_rz, 2);
        assert_eq!(stats.rz, 2);
    }

    #[test]
    fn unknown_gate_reports_line() {
        let e = parse_circuit("h 0\nccx 0 1 2\n", None).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("ccx"));
    }

    #[test]
    fn trailing_token_rejected() {
        let e = parse_circuit("h 0 1\n", None).unwrap_err();
        assert!(e.message.contains("trailing"));
    }
}
