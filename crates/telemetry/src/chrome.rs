//! Chrome trace-event JSON export (and a matching validator).
//!
//! [`render`] emits the [trace-event format] consumed by
//! `chrome://tracing` and Perfetto: a top-level object with a
//! `traceEvents` array of complete spans (`"ph": "X"`) for engine
//! phases and instant events (`"ph": "i"`) for everything else.
//! Timestamps are microseconds with nanosecond precision. Events are
//! grouped onto named threads (engine phases, ledger, decoder, tasks,
//! harness) so Perfetto renders one track per subsystem.
//!
//! The module also carries a [mini JSON parser](parse_json) (the crate
//! is dependency-free) used by [`validate_trace`], the trace analytics
//! and the metrics-snapshot reader, plus [`normalize_timestamps`] for
//! golden-pinning traces in tests.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::{Event, TimedEvent};
use std::fmt::Write as _;

/// The Perfetto tracks events are grouped on: the `tid` of each is its
/// position in [`Track::NAMES`], which holds the thread names the trace's
/// metadata records declare.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Track {
    Phases,
    Ledger,
    Decoder,
    Tasks,
    Harness,
    Ancilla,
}

impl Track {
    const NAMES: [&'static str; 6] = [
        "engine phases",
        "reservation ledger",
        "decoder windows",
        "tasks",
        "harness",
        "ancilla occupancy",
    ];
}

fn push_ts(out: &mut String, key: &str, ns: u64) {
    // Microseconds with fixed 3-decimal nanosecond precision: the
    // format is deterministic (no float round-trip), and
    // `normalize_timestamps` can strip it textually.
    let _ = write!(out, "\"{key}\":{}.{:03}", ns / 1000, ns % 1000);
}

/// Writes one event record: a complete span (`"ph":"X"`) for a
/// [`Event::PhaseSpan`], an instant (`"ph":"i"`) for everything else.
fn push_event(out: &mut String, te: &TimedEvent) {
    let ev = &te.event;
    let _ = write!(out, "{{\"name\":\"{}\",", ev.name());
    if let Event::PhaseSpan { dur_ns, .. } = *ev {
        // The span is recorded when the phase ends; its start is the
        // recording instant minus the measured duration.
        out.push_str("\"ph\":\"X\",");
        push_ts(out, "ts", te.at_ns.saturating_sub(dur_ns));
        out.push(',');
        push_ts(out, "dur", dur_ns);
    } else {
        out.push_str("\"ph\":\"i\",\"s\":\"t\",");
        push_ts(out, "ts", te.at_ns);
    }
    let _ = write!(out, ",\"pid\":0,\"tid\":{},\"args\":{{", ev.track() as u32);
    ev.write_args(out);
    out.push_str("}}");
}

/// Renders timed events as a Chrome trace-event JSON document.
///
/// The output is deterministic given the events: one event per line,
/// metadata records first, then the events in buffer order. `dropped`
/// (events the ring evicted) is recorded in the top-level
/// `otherData` object.
pub fn render(events: &[TimedEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    for (tid, name) in Track::NAMES.iter().enumerate() {
        if tid > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for te in events {
        out.push_str(",\n");
        push_event(&mut out, te);
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"generator\":\"rescq-telemetry\",\"dropped_events\":{dropped}}}}}\n"
    );
    out
}

/// Replaces every `"ts"`/`"dur"` value in a trace document with `0`,
/// leaving everything else byte-identical. Used to golden-pin traces:
/// wall-clock varies run to run, the event structure must not.
pub fn normalize_timestamps(trace: &str) -> String {
    let mut out = String::with_capacity(trace.len());
    let bytes = trace.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let rest = &trace[i..];
        let key = if rest.starts_with("\"ts\":") {
            Some(5)
        } else if rest.starts_with("\"dur\":") {
            Some(6)
        } else {
            None
        };
        match key {
            Some(klen) => {
                out.push_str(&rest[..klen]);
                out.push('0');
                i += klen;
                while i < bytes.len()
                    && matches!(bytes[i], b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E')
                {
                    i += 1;
                }
            }
            None => {
                let ch = rest.chars().next().expect("in-bounds");
                out.push(ch);
                i += ch.len_utf8();
            }
        }
    }
    out
}

/// A parsed JSON value (minimal internal model — the crate is
/// dependency-free).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so a deeper document is an error instead of
/// a stack overflow; the documents this crate writes nest four deep.
pub const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_JSON_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                // Bulk-copy the run of plain ASCII up to the next quote,
                // escape, or multi-byte char. Validating one bounded char
                // at a time (never the whole remaining document) keeps
                // parsing linear in the document size.
                Some(b) if b < 0x80 => {
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b < 0x80 && b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii"));
                }
                Some(b) => {
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid utf-8")),
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + width)
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    let s = std::str::from_utf8(chunk).map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos += width;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error,
/// or of the first array or object nested deeper than
/// [`MAX_JSON_DEPTH`].
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

/// Statistics of a validated trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Trace events excluding metadata records.
    pub events: usize,
    /// Complete spans (`"ph": "X"`).
    pub spans: usize,
    /// Instant events (`"ph": "i"`).
    pub instants: usize,
}

/// Parses a document and checks it is a structurally valid Chrome
/// trace: a top-level object with a `traceEvents` array whose every
/// element has a string `name`, a known `ph`, integer `pid`/`tid`, and
/// (for non-metadata events) a numeric `ts` — with `dur` additionally
/// required on complete spans.
///
/// # Errors
///
/// Returns a message naming the first offending event.
pub fn validate_trace(text: &str) -> Result<TraceStats, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut stats = TraceStats {
        events: 0,
        spans: 0,
        instants: 0,
    };
    for (i, ev) in events.iter().enumerate() {
        let fail = |msg: &str| format!("traceEvents[{i}]: {msg}");
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string `name`"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string `ph`"))?;
        for key in ["pid", "tid"] {
            ev.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| fail(&format!("missing numeric `{key}`")))?;
        }
        match ph {
            "M" => continue,
            "X" | "i" => {
                ev.get("ts")
                    .and_then(Json::as_num)
                    .ok_or_else(|| fail("missing numeric `ts`"))?;
                stats.events += 1;
                if ph == "X" {
                    ev.get("dur")
                        .and_then(Json::as_num)
                        .ok_or_else(|| fail("missing numeric `dur` on a span"))?;
                    stats.spans += 1;
                } else {
                    stats.instants += 1;
                }
            }
            other => return Err(fail(&format!("unknown phase `{other}`"))),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Phase, StallCause};

    fn sample_events() -> Vec<TimedEvent> {
        vec![
            TimedEvent {
                at_ns: 2500,
                event: Event::PhaseSpan {
                    phase: Phase::Schedule,
                    round: 7,
                    dur_ns: 1500,
                },
            },
            TimedEvent {
                at_ns: 3000,
                event: Event::Claim {
                    round: 7,
                    task: 2,
                    ancilla: 5,
                },
            },
            TimedEvent {
                at_ns: 4000,
                event: Event::Stall {
                    round: 14,
                    task: 2,
                    cause: StallCause::DecoderBacklog,
                },
            },
        ]
    }

    #[test]
    fn rendered_trace_validates() {
        let trace = render(&sample_events(), 3);
        let stats = validate_trace(&trace).unwrap();
        assert_eq!(stats.events, 3);
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.instants, 2);
        assert!(trace.contains("\"dropped_events\":3"));
        assert!(trace.contains("\"cause\":\"decoder_backlog\""));
        // Span start = record instant − duration.
        assert!(trace.contains("\"ts\":1.000,\"dur\":1.500"));
    }

    #[test]
    fn normalization_zeroes_only_timestamps() {
        let trace = render(&sample_events(), 0);
        let norm = normalize_timestamps(&trace);
        assert!(norm.contains("\"ts\":0,\"dur\":0"));
        assert!(!norm.contains("\"ts\":1.000"));
        // Event payloads survive untouched.
        assert!(norm.contains("\"round\":7"));
        assert!(norm.contains("\"ancilla\":5"));
        // Normalization is idempotent and still a valid trace.
        assert_eq!(normalize_timestamps(&norm), norm);
        validate_trace(&norm).unwrap();
    }

    #[test]
    fn json_parser_round_trips_values() {
        let v = parse_json(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": null, "d": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&deep(MAX_JSON_DEPTH)).is_ok());
        assert!(parse_json(&deep(MAX_JSON_DEPTH + 1))
            .unwrap_err()
            .contains("nesting deeper than 128 levels"));
        // 100k levels, closed and unclosed, through both document readers.
        let open = format!("{{\"traceEvents\":{}", "[".repeat(100_000));
        for doc in [deep(100_000), open] {
            assert!(parse_json(&doc).is_err());
            assert!(validate_trace(&doc).is_err());
            assert!(crate::parse_trace(&doc).is_err());
            assert!(crate::MetricsSnapshot::parse(&doc).is_err());
        }
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_trace("[]").is_err());
        assert!(validate_trace(r#"{"traceEvents": [{"ph": "X"}]}"#).is_err());
        assert!(validate_trace(
            r#"{"traceEvents": [{"name": "a", "ph": "Q", "pid": 0, "tid": 0}]}"#
        )
        .is_err());
        // A span without `dur` is rejected.
        assert!(validate_trace(
            r#"{"traceEvents": [{"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 1}]}"#
        )
        .is_err());
    }
}
