//! Pinned output of the union-find decoder model on a seeded window stream.
//!
//! Every `decode_ready_at` return value, every `take_work()` record and the
//! final Pauli frame of every tile are folded into one FNV-1a digest. The
//! stream covers d ∈ {3, 5, 7}, window lengths 1..=2d (so windows longer
//! than `d` decode as several chunks), error rates from 0 to 1, and 41
//! tiles with three windows each (so busy tiles queue). Any change to
//! sampling, decoding, chunking, latency or frame bookkeeping moves the
//! digest; a pure speed-up must leave it alone. Re-pinned once when the
//! error channel moved from one draw per edge to geometric skip-ahead,
//! which draws a different (identically distributed) stream.

use rescq_decoder::{DecodeWork, DecoderConfig, DecoderKind, ErrorChannel, UnionFindDecoder};

const DISTANCES: [u32; 3] = [3, 5, 7];
const ERROR_RATES: [f64; 5] = [0.0, 1e-4, 0.02, 0.2, 1.0];
const TILES: u32 = 41;
const WINDOWS_PER_TILE: u32 = 3;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn work(&mut self, w: &DecodeWork) {
        for v in [
            w.defects,
            w.growth_steps,
            w.merges,
            w.peeled_edges,
            w.logical_failures,
            w.work_units,
        ] {
            self.word(v);
        }
    }
}

fn stream_digest() -> (u64, u64) {
    let cfg = DecoderConfig {
        kind: DecoderKind::UnionFind,
        ..DecoderConfig::default()
    };
    let mut digest = Digest::new();
    let mut windows = 0u64;
    for d in DISTANCES {
        for (pi, p) in ERROR_RATES.into_iter().enumerate() {
            let channel = ErrorChannel::new(p, 0x5EED ^ ((d as u64) << 8) ^ pi as u64);
            let mut model = UnionFindDecoder::new(&cfg, d, channel);
            for i in 0..TILES * WINDOWS_PER_TILE {
                let tile = (i * 7) % TILES;
                let rounds = 1 + i % (2 * d);
                let ready = model.decode_ready_at(tile, rounds, i as u64);
                digest.word(ready);
                digest.work(&model.take_work());
                windows += 1;
            }
            for tile in 0..TILES {
                let frame = model.frame(tile).expect("every tile decoded");
                digest.word(frame.total_flips());
                digest.word(frame.active_corrections() as u64);
                digest.word(frame.logical_parity() as u64);
            }
        }
    }
    (digest.0, windows)
}

#[test]
fn union_find_window_stream_is_pinned() {
    let (digest, windows) = stream_digest();
    assert_eq!(windows, 15 * 123);
    assert_eq!(digest, 0xc5b7_f320_c9bc_f1cf, "digest {digest:#018x}");
}
