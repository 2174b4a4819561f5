//! Decoder configuration shared by the CLI, the sim engines and the benches.

use std::fmt;
use std::str::FromStr;

/// Which decoder model to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecoderKind {
    /// Zero-latency decoding: feed-forward outcomes are visible the round
    /// they are measured. This is the default and reproduces the original
    /// (decoder-less) simulation results exactly.
    #[default]
    Ideal,
    /// A real union-find syndrome decoder: every window samples a seeded
    /// error configuration on the tile's detector graph, decodes it with
    /// DSU cluster growth + peeling, and reports a latency derived from the
    /// work the decode actually performed.
    UnionFind,
}

impl fmt::Display for DecoderKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DecoderKind::Ideal => "ideal",
            DecoderKind::UnionFind => "union_find",
        })
    }
}

impl FromStr for DecoderKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ideal" | "none" => Ok(DecoderKind::Ideal),
            "union_find" | "union-find" | "uf" => Ok(DecoderKind::UnionFind),
            other => Err(format!(
                "unknown decoder `{other}` (expected ideal | union_find)"
            )),
        }
    }
}

/// Constant reaction latency in rounds that the `union_find` decoder adds
/// to every window on top of its decode cost.
pub(crate) const BASE_LATENCY: u64 = 1;

/// Full decoder configuration.
///
/// The default (`ideal`) is invisible: every window decodes instantly, so all
/// pre-existing seeded simulation outputs are unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderConfig {
    /// Which decoder to use.
    pub kind: DecoderKind,
    /// Decode work units the `union_find` decoder clears per wall-clock
    /// measurement round (ignored by `ideal`). The lower it is, the longer
    /// each window takes, and a busy tile's windows queue behind each
    /// other.
    pub throughput: f64,
    /// Route `|mθ⟩` preparation-verification outcomes through the decoder
    /// too (in hardware the verification is itself a decoded measurement).
    /// Off by default so existing runs stay bit-identical; when on, every
    /// completed preparation submits a one-cycle syndrome window and the
    /// state only becomes usable once that window is decoded.
    pub decode_prep: bool,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        DecoderConfig {
            kind: DecoderKind::Ideal,
            throughput: 1.0,
            decode_prep: false,
        }
    }
}

impl DecoderConfig {
    /// An ideal (zero-latency) decoder.
    pub fn ideal() -> Self {
        DecoderConfig::default()
    }

    /// A real union-find syndrome decoder converting decode work to rounds
    /// at `throughput` work units per round (the engines supply the error
    /// channel: physical error rate and seed).
    pub fn union_find(throughput: f64) -> Self {
        DecoderConfig {
            kind: DecoderKind::UnionFind,
            throughput,
            ..DecoderConfig::default()
        }
    }

    /// The same configuration with preparation-verification decoding on.
    pub fn with_prep_decoding(mut self) -> Self {
        self.decode_prep = true;
        self
    }
}

impl fmt::Display for DecoderConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DecoderKind::Ideal => write!(f, "ideal")?,
            DecoderKind::UnionFind => {
                write!(f, "union_find(tp={}, base={BASE_LATENCY})", self.throughput)?;
            }
        }
        if self.decode_prep {
            write!(f, "+prep")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ideal() {
        let d = DecoderConfig::default();
        assert_eq!(d.kind, DecoderKind::Ideal);
        assert!(!d.decode_prep);
    }

    #[test]
    fn prep_decoding_opt_in() {
        let d = DecoderConfig::union_find(0.5).with_prep_decoding();
        assert!(d.decode_prep);
        assert!(d.to_string().ends_with("+prep"));
        assert!(!DecoderConfig::union_find(0.5).to_string().contains("+prep"));
    }

    #[test]
    fn kind_parses_aliases() {
        assert_eq!("ideal".parse::<DecoderKind>().unwrap(), DecoderKind::Ideal);
        assert_eq!("uf".parse::<DecoderKind>().unwrap(), DecoderKind::UnionFind);
        assert_eq!(
            "union-find".parse::<DecoderKind>().unwrap(),
            DecoderKind::UnionFind
        );
        for unknown in ["warp", "adaptive", "fixed"] {
            assert!(unknown.parse::<DecoderKind>().is_err(), "{unknown}");
        }
    }

    #[test]
    fn display_round_trips_kind() {
        for k in [DecoderKind::Ideal, DecoderKind::UnionFind] {
            assert_eq!(k.to_string().parse::<DecoderKind>().unwrap(), k);
        }
    }
}
