//! Decoder-subsystem micro-benchmark: raw submission throughput of the
//! union-find decoder and the full runtime submit/retire cycle under the
//! ideal and union-find decoders.

use criterion::{criterion_group, criterion_main, Criterion};
use rescq_decoder::{DecoderConfig, DecoderRuntime, ErrorChannel, UnionFindDecoder};

const WINDOWS: u32 = 1024;
const TILES: u32 = 64;

/// The engines' default physical error rate (p = 1e-4), at a fixed seed.
fn channel() -> ErrorChannel {
    ErrorChannel::new(1e-4, 7)
}

fn submit_retire(config: &DecoderConfig) -> u64 {
    let mut rt = DecoderRuntime::with_channel(config, 7, channel());
    let mut consumed = 0u64;
    for i in 0..WINDOWS {
        let (id, ready) = rt.submit(i % TILES, 14, (i as u64) * 2);
        consumed += rt.retire(id, ready);
    }
    consumed
}

fn benches(c: &mut Criterion) {
    c.bench_function("model_union_find_1k_windows", |b| {
        b.iter(|| {
            let mut model = UnionFindDecoder::new(&DecoderConfig::union_find(0.5), 7, channel());
            let mut last = 0;
            for i in 0..WINDOWS {
                last = model.decode_ready_at(i % TILES, 7 + (i % 3) * 7, (i as u64) * 2);
            }
            last
        })
    });

    c.bench_function("runtime_ideal_submit_retire_1k_windows", |b| {
        b.iter(|| submit_retire(&DecoderConfig::ideal()))
    });

    c.bench_function("runtime_submit_retire_1k_windows", |b| {
        b.iter(|| submit_retire(&DecoderConfig::union_find(0.5)))
    });
}

criterion_group! {
    name = decoder;
    config = Criterion::default().sample_size(20);
    targets = benches
}
criterion_main!(decoder);
