//! Service loops: framed streams, unix-socket fan-in and deterministic
//! replay.
//!
//! Error discipline: every protocol-level failure — truncated frame,
//! oversized length prefix, malformed JSON — is answered with a
//! structured [`Verdict::Error`](crate::protocol::Verdict::Error)
//! response (id `0`), never a panic or a silent hang. Malformed JSON in
//! an intact frame keeps the connection alive (framing is still
//! synchronised); truncation and oversized prefixes close it after the
//! error response, because the frame boundary is lost.

use std::io::{self, BufWriter, Read, Write};

use crate::engine::AdmissionEngine;
use crate::protocol::{read_frame, write_frame, AdmissionRequest, AdmissionResponse, FrameError};

/// Counters of one framed-stream session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames answered (including error responses).
    pub responses: u64,
    /// Responses that reported a protocol-level failure.
    pub protocol_errors: u64,
}

/// Counters of one replay run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Request lines replayed (including malformed ones).
    pub requests: u64,
    /// Responses written to the transcript.
    pub responses: u64,
}

fn encode(response: &AdmissionResponse) -> io::Result<String> {
    serde_json::to_string(response)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode response: {e}")))
}

/// Serves length-prefixed request frames from `reader`, writing one
/// response frame per request to `writer`, until the stream ends.
///
/// Returns the session counters on a clean or protocol-terminated end
/// of stream.
///
/// # Errors
///
/// Propagates transport failures only; protocol failures are answered
/// in-band (see the module docs).
pub fn serve_stream(
    engine: &AdmissionEngine,
    reader: &mut impl Read,
    writer: &mut impl Write,
    max_frame_bytes: usize,
) -> io::Result<StreamStats> {
    let mut stats = StreamStats::default();
    loop {
        match read_frame(reader, max_frame_bytes) {
            Ok(None) => break,
            Ok(Some(payload)) => {
                let parsed: Result<AdmissionRequest, String> = std::str::from_utf8(&payload)
                    .map_err(|e| format!("malformed request: frame is not UTF-8: {e}"))
                    .and_then(|text| {
                        serde_json::from_str(text).map_err(|e| format!("malformed request: {e}"))
                    });
                let response = match parsed {
                    Ok(request) => engine.admit(&request),
                    Err(reason) => {
                        stats.protocol_errors += 1;
                        engine.protocol_error(reason)
                    }
                };
                write_frame(writer, encode(&response)?.as_bytes())?;
                stats.responses += 1;
            }
            Err(FrameError::Io(e)) => return Err(e),
            Err(e) => {
                // The frame boundary is lost: answer once, then close.
                // The peer may already be gone, so a failed error-frame
                // write is not itself an error.
                let response = engine.protocol_error(e.to_string());
                let _ = write_frame(writer, encode(&response)?.as_bytes());
                stats.responses += 1;
                stats.protocol_errors += 1;
                break;
            }
        }
    }
    Ok(stats)
}

/// Accepts unix-socket connections forever, serving each on its own
/// thread over the shared engine. Used by `ftsched serve --socket`;
/// tests drive [`serve_stream`] against accepted connections directly.
///
/// # Errors
///
/// Propagates `accept` failures; per-connection transport errors only
/// end that connection.
#[cfg(unix)]
pub fn serve_unix(
    engine: &std::sync::Arc<AdmissionEngine>,
    listener: &std::os::unix::net::UnixListener,
    max_frame_bytes: usize,
) -> io::Result<()> {
    loop {
        let (stream, _addr) = listener.accept()?;
        let engine = std::sync::Arc::clone(engine);
        std::thread::spawn(move || {
            let mut reader = match stream.try_clone() {
                Ok(clone) => clone,
                Err(_) => return,
            };
            let mut writer = stream;
            let _ = serve_stream(&engine, &mut reader, &mut writer, max_frame_bytes);
        });
    }
}

/// Replays a JSONL request log, writing one compact JSON response per
/// line to `out` — the byte-reproducible transcript the goldens and the
/// `BENCH_serve.json` contract compare.
///
/// Lines are decided in batches of `batch_size`; responses keep request
/// order, so the transcript is identical at any batch size. Empty lines
/// are skipped; malformed lines produce in-place error responses.
///
/// # Errors
///
/// Propagates write failures to `out`.
pub fn replay(
    engine: &AdmissionEngine,
    input: &str,
    out: &mut impl Write,
    batch_size: usize,
) -> io::Result<ReplayStats> {
    fn flush_batch(
        engine: &AdmissionEngine,
        batch: &mut Vec<Result<AdmissionRequest, String>>,
        out: &mut impl Write,
        stats: &mut ReplayStats,
    ) -> io::Result<()> {
        for response in engine.admit_batch(batch) {
            out.write_all(encode(&response)?.as_bytes())?;
            out.write_all(b"\n")?;
            stats.responses += 1;
        }
        batch.clear();
        Ok(())
    }

    let mut stats = ReplayStats::default();
    let mut sink = BufWriter::new(out);
    let mut batch: Vec<Result<AdmissionRequest, String>> = Vec::new();
    for line in input.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        stats.requests += 1;
        batch.push(serde_json::from_str(line).map_err(|e| format!("malformed request: {e}")));
        if batch.len() >= batch_size.max(1) {
            flush_batch(engine, &mut batch, &mut sink, &mut stats)?;
        }
    }
    if !batch.is_empty() {
        flush_batch(engine, &mut batch, &mut sink, &mut stats)?;
    }
    sink.flush()?;
    Ok(stats)
}
