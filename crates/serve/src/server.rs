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
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread;

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
/// Lines are decided in batches of `batch_size`, on a pool of
/// `min(available_parallelism, batch_size)` workers that lives for the
/// whole call: the calling thread and scoped threads spawned once. Each
/// worker claims the batch's lines in turn and decodes, decides and
/// encodes each one it claims. The batch edge is a barrier: no line of
/// the next batch is claimed before every line of this one is answered,
/// so the batch size is the point at which the cache state settles.
/// The calling thread then writes the batch's responses in request
/// order, so the transcript is identical at any batch size and worker
/// count. With one worker (batch size 1, or one available CPU) nothing
/// is spawned and every line is decided on the calling thread. Empty
/// lines are skipped; malformed lines produce in-place error responses.
///
/// # Errors
///
/// Propagates encode and write failures to `out`; no line is decided
/// after the batch whose response failed.
pub fn replay(
    engine: &AdmissionEngine,
    input: &str,
    out: &mut impl Write,
    batch_size: usize,
) -> io::Result<ReplayStats> {
    let lines: Vec<&str> = input
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .collect();
    let pool = Pool::new(engine, &lines, batch_size);
    let mut stats = ReplayStats {
        requests: lines.len() as u64,
        responses: 0,
    };
    let mut sink = BufWriter::new(out);
    let mut outcome: thread::Result<io::Result<()>> = Ok(Ok(()));
    thread::scope(|scope| {
        for _ in 1..pool.workers {
            scope.spawn(|| pool.run(|_| true));
        }
        pool.run(|batch| {
            for i in batch {
                outcome = pool.take(i).map(|encoded| {
                    sink.write_all(encoded?.as_bytes())?;
                    sink.write_all(b"\n")
                });
                if !matches!(outcome, Ok(Ok(()))) {
                    return false;
                }
                stats.responses += 1;
            }
            true
        });
    });
    match outcome {
        Ok(written) => written?,
        Err(panic) => panic::resume_unwind(panic),
    }
    sink.flush()?;
    Ok(stats)
}

/// One replay line's encoded response, or the panic deciding it raised
/// (carried to the calling thread, which resumes it).
type Answer = thread::Result<io::Result<String>>;

/// The workers of one [`replay`] call and the state they share.
struct Pool<'a> {
    engine: &'a AdmissionEngine,
    lines: &'a [&'a str],
    batch_size: usize,
    workers: usize,
    /// The next line to claim; `usize::MAX` once the transcript cannot
    /// be completed, so claims fail and workers only cross the
    /// remaining batch edges.
    next: AtomicUsize,
    /// Each line's answer, from the worker that claimed it until the
    /// calling thread writes it.
    answers: Vec<Mutex<Option<Answer>>>,
    edge: Barrier,
}

impl<'a> Pool<'a> {
    fn new(engine: &'a AdmissionEngine, lines: &'a [&'a str], batch_size: usize) -> Self {
        let batch_size = batch_size.clamp(1, lines.len().max(1));
        let workers = thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(batch_size);
        Pool {
            engine,
            lines,
            batch_size,
            workers,
            next: AtomicUsize::new(0),
            answers: lines.iter().map(|_| Mutex::new(None)).collect(),
            edge: Barrier::new(workers),
        }
    }

    /// One worker's part: answers the lines it claims, batch by batch,
    /// and calls `at_edge` with each batch's line range once every line
    /// of it is answered. `at_edge` returns false to abort the replay.
    fn run(&self, mut at_edge: impl FnMut(Range<usize>) -> bool) {
        let _current = self.engine.enter();
        let mut writing = true;
        for start in (0..self.lines.len()).step_by(self.batch_size) {
            let end = self.lines.len().min(start + self.batch_size);
            while let Some(i) = self.claim(end) {
                let line = self.lines[i];
                let answer = panic::catch_unwind(AssertUnwindSafe(|| answer(self.engine, line)));
                *self.slot(i) = Some(answer);
            }
            if self.workers > 1 {
                self.edge.wait();
            }
            if writing && !at_edge(start..end) {
                writing = false;
                self.next.store(usize::MAX, Ordering::Relaxed);
            }
        }
    }

    /// Claims the next unclaimed line before `end`, the current batch's
    /// end.
    fn claim(&self, end: usize) -> Option<usize> {
        self.next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |i| {
                (i < end).then_some(i + 1)
            })
            .ok()
    }

    /// Takes line `i`'s answer; its batch edge has been crossed.
    fn take(&self, i: usize) -> Answer {
        self.slot(i)
            .take()
            .expect("every line of a batch is answered before its edge")
    }

    fn slot(&self, i: usize) -> MutexGuard<'_, Option<Answer>> {
        self.answers[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Decodes, decides and encodes one replay line.
fn answer(engine: &AdmissionEngine, line: &str) -> io::Result<String> {
    let response = match serde_json::from_str::<AdmissionRequest>(line) {
        Ok(request) => engine.admit(&request),
        Err(e) => engine.protocol_error(format!("malformed request: {e}")),
    };
    encode(&response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    #[test]
    fn the_pool_is_no_larger_than_the_batch_or_the_cpus() {
        let engine = AdmissionEngine::new(EngineConfig::default());
        let lines = vec!["{}"; 100];
        let cpus = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(Pool::new(&engine, &lines, 1).workers, 1);
        assert_eq!(Pool::new(&engine, &lines, 0).workers, 1);
        assert_eq!(Pool::new(&engine, &lines, 3).workers, cpus.min(3));
        assert_eq!(
            Pool::new(&engine, &lines, usize::MAX).workers,
            cpus.min(100)
        );
        assert_eq!(Pool::new(&engine, &lines[..1], 32).workers, 1);
        assert_eq!(Pool::new(&engine, &[], 32).workers, 1);
    }

    #[test]
    fn claims_stop_at_the_batch_edge() {
        let engine = AdmissionEngine::new(EngineConfig::default());
        let lines = vec!["{}"; 10];
        let pool = Pool::new(&engine, &lines, 4);
        let first: Vec<usize> = std::iter::from_fn(|| pool.claim(4)).collect();
        assert_eq!(first, [0, 1, 2, 3]);
        assert_eq!(pool.claim(8), Some(4));
        pool.next.store(usize::MAX, Ordering::Relaxed);
        assert_eq!(pool.claim(8), None);
    }

    /// A transcript destination that refuses every write.
    struct Refusing;

    impl Write for Refusing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("refused"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_write_ends_the_replay_and_its_decisions() {
        // Every line is malformed: each still gets an error response.
        let log = "not json\n".repeat(2_000);
        for batch_size in [1, 3, 32] {
            let engine = AdmissionEngine::new(EngineConfig::default());
            let error = replay(&engine, &log, &mut Refusing, batch_size).unwrap_err();
            assert_eq!(error.to_string(), "refused");
            // The transcript's buffer fills long before the log ends;
            // the batch that overflowed it is the last one written, and
            // at most one more is decided.
            assert!(engine.summary().requests < 2_000, "batch size {batch_size}");
        }
    }
}
