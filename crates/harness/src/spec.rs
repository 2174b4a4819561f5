//! The declarative sweep specification and its TOML-subset parser.
//!
//! A [`SweepSpec`] is a cartesian grid: every combination of workload,
//! scheduler, code distance, physical error rate, MST period `k`, grid
//! compression and decoder point is one *sweep point*, and every point runs
//! `seeds` seeded simulations. [`SweepSpec::expand`] flattens the grid into
//! a deterministic job list (seed innermost), which is what the executor,
//! the aggregator and the CSV writer all order by — results are therefore
//! independent of how many workers ran the sweep.
//!
//! The on-disk format is a small TOML subset (enough for `sim sweep` specs
//! without pulling a TOML dependency; the full grammar is documented on
//! [`SweepSpec::parse`]):
//!
//! ```toml
//! # 2 workloads x 2 compressions x 2 decoder points, 4 seeds each
//! [sweep]
//! workloads    = ["dnn_n16", "gcm_n13"]
//! schedulers   = ["rescq"]
//! compressions = [0.0, 0.5]
//! decoders     = ["ideal", "union_find:8"]
//! seeds        = 4
//! ```

use rescq_core::{KPolicy, SchedulerKind};
use rescq_decoder::{DecoderConfig, DecoderKind};
use rescq_sim::SimConfig;
use std::fmt;
use std::str::FromStr;

/// One decoder configuration of a sweep grid, with a compact, CSV-safe
/// textual form: `ideal` or `union_find:<throughput>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderPoint(pub DecoderConfig);

impl DecoderPoint {
    /// The ideal (zero-latency) decoder point.
    pub fn ideal() -> Self {
        DecoderPoint(DecoderConfig::ideal())
    }
}

impl From<DecoderConfig> for DecoderPoint {
    fn from(config: DecoderConfig) -> Self {
        DecoderPoint(config)
    }
}

impl fmt::Display for DecoderPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.kind {
            DecoderKind::Ideal => write!(f, "ideal"),
            DecoderKind::UnionFind => write!(f, "union_find:{}", self.0.throughput),
        }
    }
}

impl FromStr for DecoderPoint {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("ideal") {
            return Ok(DecoderPoint::ideal());
        }
        const POINTS: &str = "ideal | union_find:TP";
        let (kind, rest) = s
            .split_once(':')
            .ok_or_else(|| format!("bad decoder point `{s}` ({POINTS})"))?;
        match kind.to_ascii_lowercase().as_str() {
            "union_find" | "union-find" | "uf" => {
                let throughput = rest
                    .parse()
                    .map_err(|_| format!("bad throughput in `{s}`"))?;
                Ok(DecoderPoint(DecoderConfig::union_find(throughput)))
            }
            other => Err(format!(
                "unknown decoder kind `{other}` in `{s}` ({POINTS})"
            )),
        }
    }
}

/// Formats a `k` policy the way specs and CSV columns spell it.
pub fn fmt_k(k: KPolicy) -> String {
    match k {
        KPolicy::Fixed(v) => v.to_string(),
        KPolicy::Dynamic { .. } => "dynamic".to_string(),
    }
}

/// A declarative cartesian sweep over simulation configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Benchmark names ([`rescq_workloads::generate`] names, or
    /// `file:<path>` for a circuit file).
    pub workloads: Vec<String>,
    /// Schedulers swept.
    pub schedulers: Vec<SchedulerKind>,
    /// Code distances swept.
    pub distances: Vec<u32>,
    /// Physical error rates swept.
    pub error_rates: Vec<f64>,
    /// MST period policies swept (RESCQ only; baselines ignore it).
    pub k_values: Vec<KPolicy>,
    /// Grid compression fractions swept.
    pub compressions: Vec<f64>,
    /// Decoder points swept.
    pub decoders: Vec<DecoderPoint>,
    /// Seeded runs per sweep point.
    pub seeds: u64,
    /// First run seed.
    pub base_seed: u64,
    /// Seed for workload generation (angles; structure is fixed).
    pub circuit_seed: u64,
    /// Route preparation-verification outcomes through the decoder
    /// ([`DecoderConfig::decode_prep`]) on every point.
    pub decode_prep: bool,
    /// Watchdog override in cycles (None keeps the config default).
    pub max_cycles: Option<u64>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            workloads: Vec::new(),
            schedulers: vec![SchedulerKind::Rescq],
            distances: vec![7],
            error_rates: vec![1e-4],
            k_values: vec![KPolicy::Fixed(25)],
            compressions: vec![0.0],
            decoders: vec![DecoderPoint::ideal()],
            seeds: 3,
            base_seed: 1,
            circuit_seed: 1,
            decode_prep: false,
            max_cycles: None,
        }
    }
}

/// One executable job of an expanded sweep: a sweep point plus a seed.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Global job index in deterministic expansion order.
    pub index: usize,
    /// Index of the sweep point this job belongs to (`index / seeds`).
    pub point: usize,
    /// Workload name.
    pub workload: String,
    /// The decoder point (kept for compact formatting; also baked into
    /// `config.decoder`).
    pub decoder: DecoderPoint,
    /// The fully built simulation configuration, including the seed.
    pub config: SimConfig,
}

/// Error from spec parsing or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number (0 for whole-spec validation errors).
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "sweep spec: {}", self.message)
        } else {
            write!(f, "sweep spec line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for SpecError {}

fn err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError {
        line,
        message: message.into(),
    }
}

/// A scalar value of the TOML subset.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    Num(f64),
    Bool(bool),
}

impl Scalar {
    fn parse(token: &str, line: usize) -> Result<Scalar, SpecError> {
        let t = token.trim();
        if let Some(stripped) = t.strip_prefix('"') {
            let inner = stripped
                .strip_suffix('"')
                .ok_or_else(|| err(line, format!("unterminated string `{t}`")))?;
            return Ok(Scalar::Str(inner.to_string()));
        }
        match t {
            "true" => return Ok(Scalar::Bool(true)),
            "false" => return Ok(Scalar::Bool(false)),
            _ => {}
        }
        t.parse::<f64>().map(Scalar::Num).map_err(|_| {
            err(
                line,
                format!("bad value `{t}` (number, bool or \"string\")"),
            )
        })
    }

    fn as_str(&self, line: usize) -> Result<&str, SpecError> {
        match self {
            Scalar::Str(s) => Ok(s),
            other => Err(err(line, format!("expected a string, got `{other:?}`"))),
        }
    }

    fn parse_as<T: FromStr<Err = String>>(&self, line: usize) -> Result<T, SpecError> {
        self.as_str(line)?.parse().map_err(|e| err(line, e))
    }

    fn as_f64(&self, line: usize) -> Result<f64, SpecError> {
        match self {
            Scalar::Num(n) => Ok(*n),
            other => Err(err(line, format!("expected a number, got `{other:?}`"))),
        }
    }

    fn as_u64(&self, line: usize) -> Result<u64, SpecError> {
        let n = self.as_f64(line)?;
        // `u64::MAX as f64` rounds up to 2^64, the first value out of range.
        if !(0.0..u64::MAX as f64).contains(&n) || n.fract() != 0.0 {
            return Err(err(
                line,
                format!("expected a non-negative integer below 2^64, got {n}"),
            ));
        }
        Ok(n as u64)
    }
}

/// Converts every value of a list-typed key with `f`.
fn list<T>(
    values: &[Scalar],
    line: usize,
    f: impl Fn(&Scalar, usize) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    values.iter().map(|v| f(v, line)).collect()
}

/// Splits a single-line array body on top-level commas.
fn split_array(body: &str, line: usize) -> Result<Vec<&str>, SpecError> {
    let mut parts = Vec::new();
    let mut depth_quote = false;
    let mut start = 0;
    for (i, ch) in body.char_indices() {
        match ch {
            '"' => depth_quote = !depth_quote,
            ',' if !depth_quote => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth_quote {
        return Err(err(line, "unterminated string in array"));
    }
    parts.push(&body[start..]);
    Ok(parts
        .into_iter()
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .collect())
}

/// Strips a `#` comment that is not inside a string.
fn strip_comment(line: &str) -> &str {
    let mut in_quote = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_quote = !in_quote,
            '#' if !in_quote => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses a value: either a `[a, b, c]` array or a single scalar (treated
/// as a one-element array by the list-typed keys).
fn parse_value(raw: &str, line: usize) -> Result<Vec<Scalar>, SpecError> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('[') {
        let body = stripped
            .strip_suffix(']')
            .ok_or_else(|| err(line, "arrays must open and close on one line"))?;
        return split_array(body, line)?
            .into_iter()
            .map(|t| Scalar::parse(t, line))
            .collect();
    }
    Ok(vec![Scalar::parse(raw, line)?])
}

fn one_scalar(values: &[Scalar], line: usize) -> Result<&Scalar, SpecError> {
    match values {
        [v] => Ok(v),
        _ => Err(err(line, "expected a single value, not an array")),
    }
}

fn parse_k(s: &Scalar, line: usize) -> Result<KPolicy, SpecError> {
    match s {
        Scalar::Num(_) => Ok(KPolicy::Fixed(s.as_u64(line)? as u32)),
        Scalar::Str(v) if v.eq_ignore_ascii_case("dynamic") => {
            Ok(KPolicy::Dynamic { max_concurrent: 2 })
        }
        other => Err(err(
            line,
            format!("bad k `{other:?}` (integer or \"dynamic\")"),
        )),
    }
}

impl SweepSpec {
    /// Parses a sweep spec from its TOML-subset text.
    ///
    /// Supported grammar: `#` comments; an optional `[sweep]` section
    /// header; `key = value` lines where a value is a number, `true`/`false`,
    /// a `"string"`, or a single-line `[v1, v2, …]` array of those. Keys:
    ///
    /// | key | type | default |
    /// |-----|------|---------|
    /// | `workloads` | string array (required) | — |
    /// | `schedulers` | string array | `["rescq"]` |
    /// | `distances` | integer array, each ≥ 2 | `[7]` |
    /// | `error_rates` | number array, each in (0, 0.5) | `[1e-4]` |
    /// | `k` | integer-or-`"dynamic"` array | `[25]` |
    /// | `compressions` | number array, each in [0, 1] | `[0.0]` |
    /// | `decoders` | string array (`ideal`, `union_find:TP`; TP > 0) | `["ideal"]` |
    /// | `seeds` | integer ≥ 1; `base_seed + seeds` must fit in 64 bits | `3` |
    /// | `base_seed` | integer | `1` |
    /// | `circuit_seed` | integer | `1` |
    /// | `decode_prep` | bool | `false` |
    /// | `max_cycles` | integer | engine default |
    ///
    /// Unknown keys are errors so typos surface immediately.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] with the offending line number.
    pub fn parse(text: &str) -> Result<SweepSpec, SpecError> {
        let mut spec = SweepSpec::default();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') && line.ends_with(']') && !line.contains('=') {
                if line != "[sweep]" {
                    return Err(err(
                        lineno,
                        format!("unknown section `{line}` (only [sweep] is recognised)"),
                    ));
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(lineno, format!("expected `key = value`, got `{line}`")))?;
            let (key, values) = (key.trim(), parse_value(value, lineno)?);
            match key {
                "workloads" => {
                    spec.workloads = list(&values, lineno, |v, l| v.as_str(l).map(str::to_string))?;
                }
                "schedulers" => spec.schedulers = list(&values, lineno, Scalar::parse_as)?,
                "distances" => {
                    spec.distances = list(&values, lineno, |v, l| {
                        let d = v.as_u64(l)?;
                        u32::try_from(d)
                            .map_err(|_| err(l, format!("distances: {d} is out of range")))
                    })?;
                }
                "error_rates" => spec.error_rates = list(&values, lineno, Scalar::as_f64)?,
                "k" => spec.k_values = list(&values, lineno, parse_k)?,
                "compressions" => spec.compressions = list(&values, lineno, Scalar::as_f64)?,
                "decoders" => spec.decoders = list(&values, lineno, Scalar::parse_as)?,
                "seeds" => spec.seeds = one_scalar(&values, lineno)?.as_u64(lineno)?,
                "base_seed" => spec.base_seed = one_scalar(&values, lineno)?.as_u64(lineno)?,
                "circuit_seed" => {
                    spec.circuit_seed = one_scalar(&values, lineno)?.as_u64(lineno)?
                }
                "decode_prep" => {
                    spec.decode_prep = match one_scalar(&values, lineno)? {
                        Scalar::Bool(b) => *b,
                        other => return Err(err(lineno, format!("bad bool `{other:?}`"))),
                    };
                }
                "max_cycles" => {
                    spec.max_cycles = Some(one_scalar(&values, lineno)?.as_u64(lineno)?);
                }
                other => return Err(err(lineno, format!("unknown key `{other}`"))),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] (line 0) describing the first problem.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.workloads.is_empty() {
            return Err(err(0, "workloads must not be empty"));
        }
        // Workload names become unquoted CSV fields and checkpoint rows.
        if let Some(w) = self
            .workloads
            .iter()
            .find(|w| w.contains(',') || w.contains('"') || w.contains('\n'))
        {
            return Err(err(
                0,
                format!("workload `{w}` contains a character CSV rows cannot carry (`,`, `\"` or newline)"),
            ));
        }
        for field in [
            ("schedulers", self.schedulers.is_empty()),
            ("distances", self.distances.is_empty()),
            ("error_rates", self.error_rates.is_empty()),
            ("k", self.k_values.is_empty()),
            ("compressions", self.compressions.is_empty()),
            ("decoders", self.decoders.is_empty()),
        ] {
            if field.1 {
                return Err(err(0, format!("{} must not be empty", field.0)));
            }
        }
        if let Some(d) = self.distances.iter().find(|&&d| d < 2) {
            return Err(err(
                0,
                format!("distances: {d} is below the minimum code distance 2"),
            ));
        }
        if let Some(p) = self
            .error_rates
            .iter()
            .find(|&&p| p.is_nan() || p <= 0.0 || p >= 0.5)
        {
            return Err(err(0, format!("error_rates: {p} outside (0, 0.5)")));
        }
        if let Some(c) = self.compressions.iter().find(|c| !(0.0..=1.0).contains(*c)) {
            return Err(err(0, format!("compressions: {c} outside [0, 1]")));
        }
        // The ideal decoder ignores its throughput; the union-find decoder
        // divides by it.
        if let Some(d) = self.decoders.iter().find(|d| {
            d.0.kind != DecoderKind::Ideal && (d.0.throughput.is_nan() || d.0.throughput <= 0.0)
        }) {
            return Err(err(
                0,
                format!("decoders: `{d}` needs a positive throughput"),
            ));
        }
        if self.seeds == 0 {
            return Err(err(0, "seeds must be at least 1"));
        }
        if self.base_seed.checked_add(self.seeds).is_none() {
            return Err(err(0, "base_seed + seeds overflows a 64-bit seed"));
        }
        Ok(())
    }

    /// Number of sweep points (jobs = points × seeds).
    pub fn num_points(&self) -> usize {
        self.workloads.len()
            * self.schedulers.len()
            * self.distances.len()
            * self.error_rates.len()
            * self.k_values.len()
            * self.compressions.len()
            * self.decoders.len()
    }

    /// Expands the grid into the deterministic job list (seed innermost;
    /// loop order workload → scheduler → distance → error rate → k →
    /// compression → decoder → seed).
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(self.num_points() * self.seeds as usize);
        let mut point = 0;
        for workload in &self.workloads {
            for &scheduler in &self.schedulers {
                for &distance in &self.distances {
                    for &error_rate in &self.error_rates {
                        for &k in &self.k_values {
                            for &compression in &self.compressions {
                                for &decoder in &self.decoders {
                                    for i in 0..self.seeds {
                                        let mut config = SimConfig::builder()
                                            .scheduler(scheduler)
                                            .distance(distance)
                                            .physical_error_rate(error_rate)
                                            .k_policy(k)
                                            .compression(compression)
                                            .seed(self.base_seed + i)
                                            .build();
                                        config.decoder = decoder.0;
                                        // Spec-level flag turns prep
                                        // decoding ON; it never clears a
                                        // point that already opted in.
                                        config.decoder.decode_prep |= self.decode_prep;
                                        if let Some(mc) = self.max_cycles {
                                            config.max_cycles = mc;
                                        }
                                        jobs.push(JobSpec {
                                            index: jobs.len(),
                                            point,
                                            workload: workload.clone(),
                                            decoder,
                                            config,
                                        });
                                    }
                                    point += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_points_round_trip() {
        for s in ["ideal", "union_find:0.5", "union_find:16"] {
            let p: DecoderPoint = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert!("warp:1".parse::<DecoderPoint>().is_err());
        assert!("union_find".parse::<DecoderPoint>().is_err());
        assert_eq!(
            "union_find:inf"
                .parse::<DecoderPoint>()
                .unwrap()
                .0
                .throughput,
            f64::INFINITY
        );
    }

    #[test]
    fn parses_full_spec() {
        let text = r#"
# decoder sweep
[sweep]
workloads    = ["dnn_n16", "gcm_n13"]   # two densities
schedulers   = ["rescq", "greedy"]
distances    = [7, 9]
error_rates  = [1e-4]
k            = [25, "dynamic"]
compressions = [0.0, 0.5]
decoders     = ["ideal", "union_find:0.5"]
seeds        = 4
base_seed    = 10
decode_prep  = true
max_cycles   = 500000
"#;
        let spec = SweepSpec::parse(text).unwrap();
        assert_eq!(spec.workloads, vec!["dnn_n16", "gcm_n13"]);
        assert_eq!(spec.schedulers.len(), 2);
        assert_eq!(spec.distances, vec![7, 9]);
        assert_eq!(spec.k_values.len(), 2);
        assert!(matches!(spec.k_values[1], KPolicy::Dynamic { .. }));
        // 2 workloads x 2 schedulers x 2 distances x 2 k x 2 comp x 2 dec.
        assert_eq!(spec.num_points(), 64);
        assert!(spec.decode_prep);
        assert_eq!(spec.max_cycles, Some(500_000));

        let jobs = spec.expand();
        assert_eq!(jobs.len(), spec.num_points() * 4);
        // Seeds innermost: first four jobs share point 0 with seeds 10..14.
        assert!(jobs[..4].iter().all(|j| j.point == 0));
        assert_eq!(
            jobs[..4].iter().map(|j| j.config.seed).collect::<Vec<_>>(),
            vec![10, 11, 12, 13]
        );
        assert!(jobs.iter().all(|j| j.config.decoder.decode_prep));
        assert!(jobs.iter().all(|j| j.config.max_cycles == 500_000));
        // Indices are the identity permutation.
        assert!(jobs.iter().enumerate().all(|(i, j)| j.index == i));
    }

    #[test]
    fn scalar_accepted_for_lists() {
        let spec = SweepSpec::parse("workloads = \"dnn_n16\"\ndistances = 9\n").unwrap();
        assert_eq!(spec.workloads, vec!["dnn_n16"]);
        assert_eq!(spec.distances, vec![9]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = SweepSpec::parse("workloads = [\"x\"]\nwarp = 9\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("warp"));
        // The removed engine-thread axis is an unknown key, not a no-op.
        let e = SweepSpec::parse("workloads = [\"x\"]\nengine_threads = [1]\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.message, "unknown key `engine_threads`");
        // So is the removed priority-class axis.
        let e =
            SweepSpec::parse("workloads = [\"x\"]\npriority_classes = [\"off\"]\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.message, "unknown key `priority_classes`");
        let e = SweepSpec::parse("workloads = [\"x\"]\ndistances = [seven]\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn validation_rejects_empty_and_out_of_range() {
        assert!(SweepSpec::parse("").is_err()); // no workloads
        let e = SweepSpec::parse("workloads = [\"x\"]\ncompressions = [1.5]\n").unwrap_err();
        assert!(e.message.contains("outside"));
        // Comma in a file: workload would shear the CSV rows.
        let e = SweepSpec::parse("workloads = [\"file:/a,b.qasm\"]\n").unwrap_err();
        assert!(e.message.contains("CSV"));
        // seeds = 0 is an error, not a silent clamp to 1.
        let e = SweepSpec::parse("workloads = [\"x\"]\nseeds = 0\n").unwrap_err();
        assert!(e.message.contains("seeds"));
    }

    fn parse_err(body: &str) -> SpecError {
        SweepSpec::parse(&format!("workloads = \"dnn_n16\"\n{body}\n")).unwrap_err()
    }

    #[test]
    fn distance_below_two_is_rejected() {
        let e = parse_err("distances = [7, 1]");
        assert!(e.message.starts_with("distances:"), "{e}");
    }

    #[test]
    fn distance_beyond_u32_is_rejected_not_wrapped() {
        // 2^32 + 7 would wrap to d = 7 in a cast to u32.
        let e = parse_err("distances = 4294967303");
        assert_eq!(e.line, 2);
        assert!(e.message.starts_with("distances:"), "{e}");
    }

    #[test]
    fn error_rate_outside_open_interval_is_rejected() {
        for p in ["0", "0.5", "-1e-4", "nan"] {
            let e = parse_err(&format!("error_rates = [1e-4, {p}]"));
            assert!(e.message.starts_with("error_rates:"), "{p}: {e}");
        }
    }

    #[test]
    fn non_positive_decoder_throughput_is_rejected() {
        for d in ["union_find:0", "union_find:-1", "union_find:nan"] {
            let e = parse_err(&format!("decoders = \"{d}\""));
            assert!(e.message.starts_with("decoders:"), "{d}: {e}");
        }
        // An infinitely fast decoder is still a valid point.
        assert!(
            SweepSpec::parse("workloads = \"dnn_n16\"\ndecoders = \"union_find:inf\"\n").is_ok()
        );
        // `fixed:TP` is no decoder point; the error lists the ones that are.
        let e = parse_err("decoders = \"fixed:0.5\"");
        assert!(e.message.contains("unknown decoder kind `fixed`"), "{e}");
        assert!(e.message.contains("ideal | union_find:TP"), "{e}");
        // A decoder kind the harness does not model is rejected by name.
        let e = parse_err("decoders = \"adaptive:1x4\"");
        assert!(e.message.contains("unknown decoder kind `adaptive`"), "{e}");
    }

    #[test]
    fn seed_range_overflow_is_rejected() {
        let spec = SweepSpec {
            workloads: vec!["dnn_n16".into()],
            base_seed: u64::MAX - 1,
            seeds: 2,
            ..SweepSpec::default()
        };
        let e = spec.validate().unwrap_err();
        assert!(e.message.contains("base_seed + seeds"), "{e}");
        // Through the parser: 2^64 - 2048 is exact in the f64 the parser
        // reads numbers through.
        let e = parse_err("base_seed = 18446744073709549568\nseeds = 4096");
        assert!(e.message.contains("base_seed + seeds"), "{e}");
        assert!(parse_err("base_seed = 18446744073709551616")
            .message
            .contains("2^64"));
    }

    #[test]
    fn spec_flag_never_clears_point_level_prep_decoding() {
        use rescq_decoder::DecoderConfig;
        let spec = SweepSpec {
            workloads: vec!["dnn_n16".into()],
            decoders: vec![DecoderPoint::from(
                DecoderConfig::union_find(0.5).with_prep_decoding(),
            )],
            seeds: 1,
            decode_prep: false,
            ..SweepSpec::default()
        };
        assert!(spec.expand()[0].config.decoder.decode_prep);
    }

    #[test]
    fn comments_inside_strings_survive() {
        let spec = SweepSpec::parse("workloads = [\"a#b\"] # trailing\n").unwrap();
        assert_eq!(spec.workloads, vec!["a#b"]);
    }
}
