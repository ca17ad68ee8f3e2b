//! The admission-service replay contract: re-answering
//! `examples/serve_requests.jsonl` reproduces the checked-in golden
//! transcript byte for byte, at any worker count, with or without the
//! caches.

use std::path::Path;

use ftsched::serve::{replay, AdmissionEngine, EngineConfig};

fn repo_file(relative: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(relative))
        .unwrap_or_else(|e| panic!("cannot read {relative}: {e}"))
}

fn transcript(log: &str, config: EngineConfig, batch_size: usize) -> String {
    let engine = AdmissionEngine::new(config);
    let mut out = Vec::new();
    let stats = replay(&engine, log, &mut out, batch_size).unwrap();
    assert_eq!(stats.requests, 9);
    assert_eq!(stats.responses, 9);
    String::from_utf8(out).unwrap()
}

// One test body covers every configuration: the worker-count env var is
// process-global, so the sweep must stay sequential.
#[test]
fn replay_reproduces_the_golden_transcript_at_any_thread_count() {
    let log = repo_file("examples/serve_requests.jsonl");
    let golden = repo_file("tests/golden/serve_transcript.jsonl");

    let saved = std::env::var_os("RAYON_NUM_THREADS");
    for threads in ["1", "2", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        for batch_size in [1, 3, 32] {
            assert_eq!(
                transcript(&log, EngineConfig::default(), batch_size),
                golden,
                "transcript diverged at {threads} threads, batch size {batch_size}"
            );
        }
        assert_eq!(
            transcript(
                &log,
                EngineConfig {
                    cache: false,
                    ..EngineConfig::default()
                },
                32
            ),
            golden,
            "caches must never change what a response contains ({threads} threads)"
        );
    }
    match saved {
        Some(value) => std::env::set_var("RAYON_NUM_THREADS", value),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }

    // Batch size 1 makes the cache traffic deterministic: request 4
    // repeats request 1's decision (one admission hit), requests 2 and
    // 3 reuse request 1's platform context (two context hits), and the
    // ±0.0 pair (requests 6 and 7) miss separately — a canonicalising
    // key would have served request 6's `overhead_bandwidth: 0` for
    // request 7's `-0`.
    let engine = AdmissionEngine::new(EngineConfig::default());
    let mut out = Vec::new();
    replay(&engine, &log, &mut out, 1).unwrap();
    let summary = engine.summary();
    assert_eq!(summary.requests, 9);
    assert_eq!(summary.admitted, 6);
    assert_eq!(summary.rejected, 1);
    assert_eq!(summary.errors, 2);
    assert_eq!(summary.admission_cache_hits, 1);
    assert_eq!(summary.admission_cache_misses, 7);
    assert_eq!(summary.context_cache_hits, 2);
    assert_eq!(summary.context_cache_misses, 5);
    // The malformed line is answered without a decision, so only the
    // 8 decided requests record a latency.
    assert_eq!(summary.latency_samples, 8);
    assert!(summary.latency_p50_us <= summary.latency_p95_us);
    assert!(summary.latency_p95_us <= summary.latency_p99_us);
}
