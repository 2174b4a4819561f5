//! Decoder-subsystem micro-benchmark: raw submission throughput of the
//! latency models and the full runtime submit/retire cycle.

use criterion::{criterion_group, criterion_main, Criterion};
use rescq_decoder::{
    DecoderConfig, DecoderModel, DecoderRuntime, FixedLatencyDecoder, IdealDecoder,
};

const WINDOWS: u32 = 1024;
const TILES: u32 = 64;

fn drive_model(model: &mut dyn DecoderModel) -> u64 {
    let mut last = 0;
    for i in 0..WINDOWS {
        last = model.decode_ready_at(i % TILES, 7 + (i % 3) * 7, (i as u64) * 2);
    }
    last
}

fn benches(c: &mut Criterion) {
    c.bench_function("model_ideal_1k_windows", |b| {
        b.iter(|| drive_model(&mut IdealDecoder))
    });

    c.bench_function("model_fixed_1k_windows", |b| {
        b.iter(|| drive_model(&mut FixedLatencyDecoder::new(&DecoderConfig::fixed(0.5))))
    });

    c.bench_function("runtime_submit_retire_1k_windows", |b| {
        b.iter(|| {
            let mut rt = DecoderRuntime::new(&DecoderConfig::fixed(0.5), 7);
            let mut consumed = 0u64;
            for i in 0..WINDOWS {
                let (id, ready) = rt.submit(i % TILES, 14, (i as u64) * 2);
                consumed += rt.retire(id, ready);
            }
            consumed
        })
    });
}

criterion_group! {
    name = decoder;
    config = Criterion::default().sample_size(20);
    targets = benches
}
criterion_main!(decoder);
