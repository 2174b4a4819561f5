//! Minimal OpenQASM 2.0 subset: enough to ingest QASMBench-style files that
//! are already in (or near) the Clifford+Rz basis, and to emit circuits for
//! consumption by external toolchains.
//!
//! Supported statements: `OPENQASM 2.0;`, `include "qelib1.inc";`,
//! `qreg name[n];`, `creg name[n];` (ignored), `barrier …;` (ignored),
//! `measure …;` (ignored), and the gates `h`, `x`, `z`, `s`, `sdg`, `t`,
//! `tdg`, `rz(expr)`, `u1(expr)`, `cx`, `swap` (expanded to 3 CNOTs).
//! Angle expressions accept floats and `±a*pi/b` forms with power-of-two `b`.

use crate::parser::parse_angle;
use crate::{Angle, Circuit, Gate};
use std::fmt;

/// Error from parsing OpenQASM text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQasmError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qasm line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseQasmError {}

fn err(line: usize, message: impl Into<String>) -> ParseQasmError {
    ParseQasmError {
        line,
        message: message.into(),
    }
}

/// Parses a QASM angle expression: float, or `a*pi/b`-style with
/// power-of-two `b` (kept exact), or generic `a*pi/b` (evaluated to radians).
fn parse_qasm_angle(expr: &str, line: usize) -> Result<Angle, ParseQasmError> {
    let e = expr.trim();
    if let Ok(a) = parse_angle(e) {
        return Ok(a);
    }
    // Generic m*pi/n with non-power-of-two n → radians.
    let (neg, e2) = match e.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, e),
    };
    if let Some((num_part, den_part)) = e2.split_once('/') {
        let num: f64 = if num_part == "pi" {
            std::f64::consts::PI
        } else if let Some(n) = num_part.strip_suffix("*pi") {
            n.parse::<f64>()
                .map_err(|_| err(line, format!("bad angle `{e}`")))?
                * std::f64::consts::PI
        } else {
            num_part
                .parse()
                .map_err(|_| err(line, format!("bad angle `{e}`")))?
        };
        let den: f64 = den_part
            .parse()
            .map_err(|_| err(line, format!("bad angle `{e}`")))?;
        let v = num / den;
        return Ok(Angle::radians(if neg { -v } else { v }));
    }
    Err(err(line, format!("bad angle `{e}`")))
}

/// Parses a register operand `name[idx]` and returns the global qubit index.
fn resolve_operand(
    op: &str,
    regs: &[(String, u32, u32)],
    line: usize,
) -> Result<u32, ParseQasmError> {
    let op = op.trim();
    let (name, rest) = op
        .split_once('[')
        .ok_or_else(|| err(line, format!("operand `{op}` must be indexed like q[0]")))?;
    let idx: u32 = rest
        .trim_end_matches(']')
        .parse()
        .map_err(|_| err(line, format!("bad index in `{op}`")))?;
    for (rname, base, size) in regs {
        if rname == name.trim() {
            if idx >= *size {
                return Err(err(line, format!("index {idx} out of range for `{rname}`")));
            }
            return Ok(base + idx);
        }
    }
    Err(err(line, format!("unknown register `{name}`")))
}

/// Parses an OpenQASM 2.0 program (the supported subset) into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseQasmError`] on unsupported gates, unknown registers or
/// malformed syntax.
///
/// # Example
///
/// ```
/// let src = r#"
/// OPENQASM 2.0;
/// include "qelib1.inc";
/// qreg q[2];
/// h q[0];
/// cx q[0],q[1];
/// rz(pi/4) q[1];
/// "#;
/// let c = rescq_circuit::qasm::parse_qasm(src).unwrap();
/// assert_eq!(c.num_qubits(), 2);
/// assert_eq!(c.stats().cnot, 1);
/// ```
pub fn parse_qasm(text: &str) -> Result<Circuit, ParseQasmError> {
    let mut regs: Vec<(String, u32, u32)> = Vec::new();
    let mut total_qubits = 0u32;
    let mut gates: Vec<Gate> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            if stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("qreg") {
                let rest = rest.trim();
                let (name, size_part) = rest
                    .split_once('[')
                    .ok_or_else(|| err(lineno, "malformed qreg"))?;
                let size: u32 = size_part
                    .trim_end_matches(']')
                    .parse()
                    .map_err(|_| err(lineno, "malformed qreg size"))?;
                regs.push((name.trim().to_string(), total_qubits, size));
                total_qubits = total_qubits
                    .checked_add(size)
                    .ok_or_else(|| err(lineno, "registers exceed 2^32 qubits"))?;
                continue;
            }
            if stmt.starts_with("creg")
                || stmt.starts_with("barrier")
                || stmt.starts_with("measure")
            {
                continue;
            }

            // Gate application: `name(params)? ops`.
            let (head, ops_str) = match stmt.find(|c: char| c.is_whitespace()) {
                Some(pos) if !stmt[..pos].contains('(') || stmt[..pos].contains(')') => {
                    (&stmt[..pos], &stmt[pos..])
                }
                _ => {
                    // Parameterized with space inside parens is unusual; split
                    // at the closing paren instead.
                    match stmt.find(')') {
                        Some(p) => (&stmt[..=p], &stmt[p + 1..]),
                        None => return Err(err(lineno, format!("malformed statement `{stmt}`"))),
                    }
                }
            };
            let (gname, param) = match head.split_once('(') {
                Some((g, p)) => (g.trim(), Some(p.trim_end_matches(')').trim())),
                None => (head.trim(), None),
            };
            let ops: Vec<&str> = ops_str.split(',').map(str::trim).collect();
            let q = |i: usize| -> Result<u32, ParseQasmError> {
                resolve_operand(
                    ops.get(i)
                        .ok_or_else(|| err(lineno, format!("missing operand for `{gname}`")))?,
                    &regs,
                    lineno,
                )
            };
            match gname {
                "h" => gates.push(Gate::h(q(0)?)),
                "x" => gates.push(Gate::x(q(0)?)),
                "z" => gates.push(Gate::z(q(0)?)),
                "s" => gates.push(Gate::rz(q(0)?, Angle::S)),
                "sdg" => gates.push(Gate::rz(q(0)?, Angle::dyadic_pi(-1, 1))),
                "t" => gates.push(Gate::rz(q(0)?, Angle::T)),
                "tdg" => gates.push(Gate::rz(q(0)?, Angle::dyadic_pi(-1, 2))),
                "rz" | "u1" | "p" => {
                    let p =
                        param.ok_or_else(|| err(lineno, format!("`{gname}` needs a parameter")))?;
                    gates.push(Gate::rz(q(0)?, parse_qasm_angle(p, lineno)?));
                }
                "cx" | "CX" => gates.push(Gate::cnot(q(0)?, q(1)?)),
                "swap" => {
                    let (a, b) = (q(0)?, q(1)?);
                    gates.push(Gate::cnot(a, b));
                    gates.push(Gate::cnot(b, a));
                    gates.push(Gate::cnot(a, b));
                }
                other => return Err(err(lineno, format!("unsupported gate `{other}`"))),
            }
        }
    }

    Circuit::from_gates(total_qubits, gates).map_err(|e| err(0, e.to_string()))
}

/// Emits a circuit as an OpenQASM 2.0 program with a single register `q`.
pub fn write_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.num_qubits()));
    for g in circuit.gates() {
        match g {
            Gate::Rz { qubit, angle } => {
                out.push_str(&format!("rz({}) q[{}];\n", angle, qubit.0));
            }
            Gate::H { qubit } => out.push_str(&format!("h q[{}];\n", qubit.0)),
            Gate::X { qubit } => out.push_str(&format!("x q[{}];\n", qubit.0)),
            Gate::Z { qubit } => out.push_str(&format!("z q[{}];\n", qubit.0)),
            Gate::Cnot { control, target } => {
                out.push_str(&format!("cx q[{}],q[{}];\n", control.0, target.0));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_program() {
        let src = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/8) q[2];
t q[1]; sdg q[0];
barrier q;
measure q[0] -> c[0];
"#;
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.stats().cnot, 1);
        assert_eq!(c.stats().rz, 2); // pi/8 and t
        assert_eq!(c.stats().clifford_rz, 1); // sdg
    }

    #[test]
    fn multiple_registers_are_offset() {
        let src = "qreg a[2];\nqreg b[2];\ncx a[1],b[0];\n";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.num_qubits(), 4);
        assert_eq!(c.gates()[0], Gate::cnot(1, 2));
    }

    #[test]
    fn swap_expands() {
        let c = parse_qasm("qreg q[2];\nswap q[0],q[1];\n").unwrap();
        assert_eq!(c.stats().cnot, 3);
    }

    #[test]
    fn generic_pi_fraction_becomes_radians() {
        let c = parse_qasm("qreg q[1];\nrz(2*pi/3) q[0];\n").unwrap();
        let a = c.gates()[0].angle().unwrap();
        assert!(!a.is_dyadic());
        assert!((a.to_radians() - 2.0 * std::f64::consts::PI / 3.0).abs() < 1e-12);
    }

    #[test]
    fn round_trip_through_qasm() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).rz(1, Angle::T).x(0);
        let qasm = write_qasm(&c);
        let back = parse_qasm(&qasm).unwrap();
        assert_eq!(back.gates(), c.gates());
    }

    #[test]
    fn unsupported_gate_errors() {
        let e = parse_qasm("qreg q[3];\nccx q[0],q[1],q[2];\n").unwrap_err();
        assert!(e.message.contains("ccx"));
    }

    #[test]
    fn out_of_range_index_errors() {
        let e = parse_qasm("qreg q[2];\nh q[2];\n").unwrap_err();
        assert!(e.message.contains("out of range"));
    }
}
