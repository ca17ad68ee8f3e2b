//! Protocol-robustness tests: every malformed input gets a structured
//! error response — the service never panics and never wedges.

use std::io::Cursor;

use ftsched_serve::{
    read_frame, replay, serve_stream, write_frame, AdmissionEngine, AdmissionRequest,
    AdmissionResponse, EngineConfig, TaskRequest, Verdict, DEFAULT_MAX_FRAME_BYTES,
};

fn engine() -> AdmissionEngine {
    AdmissionEngine::new(EngineConfig::default())
}

fn admissible_request(id: u64) -> AdmissionRequest {
    use ftsched_analysis::Algorithm;
    use ftsched_design::partitioner::PartitionHeuristic;
    use ftsched_design::DesignGoal;
    use ftsched_task::Mode;

    let tasks = ftsched_task::examples::paper_taskset()
        .iter()
        .map(|t| TaskRequest {
            id: t.id.0,
            wcet: t.wcet,
            period: t.period,
            deadline: t.deadline,
            mode: t.mode,
        })
        .collect::<Vec<_>>();
    assert!(tasks.iter().any(|t| t.mode == Mode::FaultTolerant));
    AdmissionRequest {
        id,
        tasks,
        algorithm: Algorithm::EarliestDeadlineFirst,
        goal: DesignGoal::MinimizeOverheadBandwidth,
        total_overhead: 0.02,
        heuristic: PartitionHeuristic::WorstFitDecreasing,
    }
}

fn decode_responses(stream: &[u8]) -> Vec<AdmissionResponse> {
    let mut cursor = Cursor::new(stream.to_vec());
    let mut responses = Vec::new();
    while let Some(payload) = read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).unwrap() {
        let text = std::str::from_utf8(&payload).unwrap();
        responses.push(serde_json::from_str(text).unwrap());
    }
    responses
}

#[test]
fn truncated_frame_gets_a_structured_error_and_closes() {
    // A valid request frame followed by a frame cut off mid-payload.
    let request = admissible_request(7);
    let mut input = Vec::new();
    write_frame(
        &mut input,
        serde_json::to_string(&request).unwrap().as_bytes(),
    )
    .unwrap();
    input.extend_from_slice(&64u32.to_be_bytes());
    input.extend_from_slice(b"{\"id\":"); // 6 of the announced 64 bytes

    let engine = engine();
    let mut reader = Cursor::new(input);
    let mut output = Vec::new();
    let stats = serve_stream(&engine, &mut reader, &mut output, DEFAULT_MAX_FRAME_BYTES).unwrap();

    let responses = decode_responses(&output);
    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0].id, 7);
    assert!(matches!(responses[0].verdict, Verdict::Admitted { .. }));
    assert_eq!(responses[1].id, 0);
    match &responses[1].verdict {
        Verdict::Error { reason } => assert!(
            reason.contains("truncated frame"),
            "unexpected reason: {reason}"
        ),
        other => panic!("expected a structured error, got {other:?}"),
    }
    assert_eq!(stats.responses, 2);
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocating() {
    // A prefix announcing u32::MAX bytes must be answered (and the
    // connection closed) without ever allocating the announced buffer.
    let mut input = u32::MAX.to_be_bytes().to_vec();
    input.extend_from_slice(&[0u8; 16]);

    let engine = engine();
    let mut reader = Cursor::new(input);
    let mut output = Vec::new();
    let stats = serve_stream(&engine, &mut reader, &mut output, 1 << 16).unwrap();

    let responses = decode_responses(&output);
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].id, 0);
    match &responses[0].verdict {
        Verdict::Error { reason } => assert!(
            reason.contains("oversized frame"),
            "unexpected reason: {reason}"
        ),
        other => panic!("expected a structured error, got {other:?}"),
    }
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn malformed_json_keeps_the_connection_alive() {
    // Framing stays synchronised on a parse failure, so the next frame
    // is still served.
    let mut input = Vec::new();
    write_frame(&mut input, b"{\"id\": not json").unwrap();
    write_frame(
        &mut input,
        serde_json::to_string(&admissible_request(11))
            .unwrap()
            .as_bytes(),
    )
    .unwrap();

    let engine = engine();
    let mut reader = Cursor::new(input);
    let mut output = Vec::new();
    let stats = serve_stream(&engine, &mut reader, &mut output, DEFAULT_MAX_FRAME_BYTES).unwrap();

    let responses = decode_responses(&output);
    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0].id, 0);
    match &responses[0].verdict {
        Verdict::Error { reason } => assert!(
            reason.contains("malformed request"),
            "unexpected reason: {reason}"
        ),
        other => panic!("expected a structured error, got {other:?}"),
    }
    assert_eq!(responses[1].id, 11);
    assert!(matches!(responses[1].verdict, Verdict::Admitted { .. }));
    assert_eq!(stats.responses, 2);
    assert_eq!(stats.protocol_errors, 1);
}

/// 50,000 `[` then 50,000 `]`: 100 KB, well under the frame cap, and
/// deep enough to overflow any thread's stack without a nesting limit.
fn deeply_nested_document() -> String {
    format!("{}{}", "[".repeat(50_000), "]".repeat(50_000))
}

fn assert_nesting_error(response: &AdmissionResponse) {
    assert_eq!(response.id, 0);
    match &response.verdict {
        Verdict::Error { reason } => assert_eq!(
            reason,
            "malformed request: nesting deeper than 128 levels at byte 128"
        ),
        other => panic!("expected a structured error, got {other:?}"),
    }
}

#[test]
fn deeply_nested_frame_is_a_structured_error_on_a_default_stack() {
    let mut input = Vec::new();
    write_frame(&mut input, deeply_nested_document().as_bytes()).unwrap();
    write_frame(
        &mut input,
        serde_json::to_string(&admissible_request(13))
            .unwrap()
            .as_bytes(),
    )
    .unwrap();

    // The 2 MiB stack `std::thread::spawn` gives `serve_unix`'s
    // per-connection threads, pinned so `RUST_MIN_STACK` cannot widen it.
    let output = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let engine = engine();
            let mut reader = Cursor::new(input);
            let mut output = Vec::new();
            let stats =
                serve_stream(&engine, &mut reader, &mut output, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(stats.responses, 2);
            assert_eq!(stats.protocol_errors, 1);
            output
        })
        .unwrap()
        .join()
        .unwrap();

    let responses = decode_responses(&output);
    assert_eq!(responses.len(), 2);
    assert_nesting_error(&responses[0]);
    assert_eq!(responses[1].id, 13);
    assert!(matches!(responses[1].verdict, Verdict::Admitted { .. }));
}

#[test]
fn replay_answers_a_deeply_nested_line() {
    let request = serde_json::to_string(&admissible_request(17)).unwrap();
    let log = format!("{}\n{request}\n", deeply_nested_document());
    let mut transcript = Vec::new();
    let stats = replay(&engine(), &log, &mut transcript, 32).unwrap();
    assert_eq!(stats.requests, 2);
    let lines: Vec<&str> = std::str::from_utf8(&transcript).unwrap().lines().collect();
    assert_eq!(lines.len(), 2);
    assert_nesting_error(&serde_json::from_str(lines[0]).unwrap());
    let second: AdmissionResponse = serde_json::from_str(lines[1]).unwrap();
    assert_eq!(second.id, 17);
    assert!(matches!(second.verdict, Verdict::Admitted { .. }));
}

#[test]
fn non_utf8_frame_is_a_structured_error() {
    let mut input = Vec::new();
    write_frame(&mut input, &[0xff, 0xfe, 0x00, 0x80]).unwrap();

    let engine = engine();
    let mut reader = Cursor::new(input);
    let mut output = Vec::new();
    serve_stream(&engine, &mut reader, &mut output, DEFAULT_MAX_FRAME_BYTES).unwrap();

    let responses = decode_responses(&output);
    assert_eq!(responses.len(), 1);
    assert!(matches!(responses[0].verdict, Verdict::Error { .. }));
}

#[cfg(unix)]
#[test]
fn two_concurrent_unix_clients_are_served_independently() {
    use std::io::{Read as _, Write as _};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("ftsched-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket_path = dir.join("admission.sock");
    let _ = std::fs::remove_file(&socket_path);
    let listener = UnixListener::bind(&socket_path).unwrap();

    let engine = Arc::new(engine());
    let accept_engine = Arc::clone(&engine);
    // Accept exactly two connections, each on its own thread — the same
    // per-connection loop `serve_unix` runs, but bounded so the test
    // terminates.
    let acceptor = std::thread::spawn(move || {
        let mut handles = Vec::new();
        for _ in 0..2 {
            let (stream, _) = listener.accept().unwrap();
            let engine = Arc::clone(&accept_engine);
            handles.push(std::thread::spawn(move || {
                let mut reader = stream.try_clone().unwrap();
                let mut writer = stream;
                serve_stream(&engine, &mut reader, &mut writer, DEFAULT_MAX_FRAME_BYTES).unwrap()
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });

    // Client A sends a well-formed request; client B sends garbage that
    // desyncs its own framing. A's service must be unaffected.
    let client_a = std::thread::spawn({
        let socket_path = socket_path.clone();
        move || {
            let mut stream = UnixStream::connect(&socket_path).unwrap();
            let request = admissible_request(21);
            write_frame(
                &mut stream,
                serde_json::to_string(&request).unwrap().as_bytes(),
            )
            .unwrap();
            let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
            let response: AdmissionResponse =
                serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "no unsolicited frames after the response");
            response
        }
    });
    let client_b = std::thread::spawn({
        let socket_path = socket_path.clone();
        move || {
            let mut stream = UnixStream::connect(&socket_path).unwrap();
            // Truncated frame: announce 512 bytes, send 3, half-close.
            stream.write_all(&512u32.to_be_bytes()).unwrap();
            stream.write_all(b"abc").unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
            let response: AdmissionResponse =
                serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
            response
        }
    });

    let response_a = client_a.join().unwrap();
    let response_b = client_b.join().unwrap();
    assert_eq!(response_a.id, 21);
    assert!(matches!(response_a.verdict, Verdict::Admitted { .. }));
    assert_eq!(response_b.id, 0);
    assert!(matches!(response_b.verdict, Verdict::Error { .. }));

    let stats = acceptor.join().unwrap();
    assert_eq!(stats.iter().map(|s| s.responses).sum::<u64>(), 2);
    assert_eq!(stats.iter().map(|s| s.protocol_errors).sum::<u64>(), 1);
    let summary = engine.summary();
    assert_eq!(
        summary.requests, 2,
        "both the decision and the protocol error are counted"
    );
    assert_eq!(summary.admitted, 1);
    assert_eq!(summary.errors, 1);

    let _ = std::fs::remove_file(&socket_path);
    let _ = std::fs::remove_dir(&dir);
}
