//! The compact columnar report format and its streaming writer/reader.
//!
//! Pretty JSON is the lossless human-readable surface of a
//! [`CampaignReport`], but it does not scale: `tests/golden/grid_sweep.json`
//! is 54k lines for a toy grid, and million-trial campaigns cannot
//! materialise a monolithic report in memory. This module adds a second,
//! byte-exact encoding of the *same* report value — line-oriented column
//! blocks, one per scenario, streamed through an FNV-1a integrity footer
//! — plus a streaming merge ([`merge_columnar`]) that folds shard files
//! block by block without ever holding more than O(one scenario) of
//! report data.
//!
//! ## File format (`v1`, conventional extension `.ftcr`)
//!
//! ```text
//! #ftsched-report-columnar v1
//! spec {…compact JSON of the campaign spec…}
//! shard 0 2                    (partial reports only: index count)
//! missing 1/4 2/4              (allow-partial merges only)
//! s <scenario index>           (one block per scenario, repeated)
//! c <6 trial counters>
//! b <5 baseline counters>
//! r <6 simulation counters>
//! o <12 per-mode outcome counters>
//! x <4 ExactSum ticks> <max response time, f64 bit-hex>
//! h <task> <bin width bit-hex> <overflow> <RLE bin counts>   (per task)
//! w <runs> <sum ticks>                  (wcet margin, when recorded)
//! wh <bin width bit-hex> <overflow> <RLE bin counts>
//! l <bin width bit-hex> <overflow> <RLE bin counts>          (latency)
//! #ftsched-report-columnar v1 end len=<payload bytes> fnv1a=<16 hex>
//! ```
//!
//! Every `f64` is its IEEE-754 bit pattern in hex and every [`ExactSum`]
//! its raw integer ticks, so decode∘encode is the identity on the struct
//! — which is what makes `JSON → columnar → JSON` reproduce the pretty
//! JSON byte for byte. Histogram columns run-length-encode zero runs
//! (`z<k>` = `k` zero bins) while preserving exact vector lengths. The
//! footer reuses `checkpoint.rs`'s length + FNV-1a pattern, fed
//! incrementally as blocks stream out; truncation, bit rot and version
//! skew all fail loudly with the reason in the error.

use std::fmt::{self, Write as _};
use std::io::{self, BufRead, Write};
use std::path::Path;

use ftsched_task::{Mode, TaskId};

use crate::checkpoint::{fnv1a64_update, FNV1A64_OFFSET};
use crate::report::{CampaignReport, MergeFold, ScenarioReport, ShardInfo};
use crate::spec::CampaignSpec;
use crate::stats::{
    ExactSum, LatencyCurve, ResponseHistogram, ScenarioStats, TaskResponse, WcetMarginStats,
};
use crate::CampaignError;

/// Magic prefix shared by every version of the columnar header.
pub const MAGIC: &str = "#ftsched-report-columnar";
/// The exact v1 header line.
const HEADER: &str = "#ftsched-report-columnar v1";
/// Prefix of the v1 integrity footer line.
const FOOTER_PREFIX: &str = "#ftsched-report-columnar v1 end ";

/// The on-disk encodings a campaign report can be written in or read
/// from — the `--format` axis of `ftsched run/merge/orchestrate` and the
/// sniffing hub of `ftsched convert`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportFormat {
    /// Pretty-printed JSON — the lossless human-readable surface.
    #[default]
    Json,
    /// The compact columnar encoding of this module.
    Columnar,
}

impl ReportFormat {
    /// Parses a CLI `--format`/`--from`/`--to` value.
    pub fn parse(text: &str) -> Option<ReportFormat> {
        match text {
            "json" => Some(ReportFormat::Json),
            "columnar" => Some(ReportFormat::Columnar),
            _ => None,
        }
    }

    /// Sniffs the format from leading file content: JSON reports open
    /// with `{`, columnar reports with the [`MAGIC`] header.
    pub fn sniff(text: &str) -> Option<ReportFormat> {
        let trimmed = text.trim_start();
        if trimmed.starts_with('{') {
            Some(ReportFormat::Json)
        } else if trimmed.starts_with(MAGIC) {
            Some(ReportFormat::Columnar)
        } else {
            None
        }
    }

    /// Human-readable name for notes and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            ReportFormat::Json => "JSON",
            ReportFormat::Columnar => "columnar",
        }
    }

    /// Conventional file extension of the format.
    pub fn extension(self) -> &'static str {
        match self {
            ReportFormat::Json => "json",
            ReportFormat::Columnar => "ftcr",
        }
    }
}

/// Why a columnar report could not be read. Every variant renders as a
/// structured one-line reason so CLI surfaces can name the file and the
/// exact failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnarError {
    /// The underlying reader failed.
    Io(String),
    /// The header carries the columnar magic but a version this build
    /// does not read.
    UnsupportedVersion(String),
    /// Anything structurally wrong: missing or foreign header, a
    /// malformed line, truncation, or an integrity-footer mismatch.
    Corrupt(String),
}

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnarError::Io(e) => write!(f, "i/o error: {e}"),
            ColumnarError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported columnar format version `{v}` (this build reads v1)"
                )
            }
            ColumnarError::Corrupt(e) => write!(f, "corrupt columnar report: {e}"),
        }
    }
}

impl std::error::Error for ColumnarError {}

fn corrupt(reason: String) -> ColumnarError {
    ColumnarError::Corrupt(reason)
}

/// Clips a line for inclusion in an error message.
fn clip(line: &str) -> &str {
    let end = line
        .char_indices()
        .nth(40)
        .map(|(i, _)| i)
        .unwrap_or(line.len());
    &line[..end]
}

/// Streaming columnar writer: header at construction, one
/// [`ColumnarWriter::write_block`] per completed scenario, footer at
/// [`ColumnarWriter::finish`]. Peak memory is one formatted block; the
/// integrity hash and payload length accumulate incrementally.
pub struct ColumnarWriter<W: Write> {
    out: W,
    hash: u64,
    len: u64,
}

impl<W: Write> ColumnarWriter<W> {
    /// Opens a columnar document on `out` and writes its header lines.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying writer.
    pub fn new(
        out: W,
        spec: &CampaignSpec,
        shard: Option<ShardInfo>,
        missing: &[ShardInfo],
    ) -> io::Result<ColumnarWriter<W>> {
        let mut writer = ColumnarWriter {
            out,
            hash: FNV1A64_OFFSET,
            len: 0,
        };
        let spec_json = serde_json::to_string(spec).expect("campaign specs always serialise");
        let mut head = format!("{HEADER}\nspec {spec_json}\n");
        if let Some(shard) = shard {
            let _ = writeln!(head, "shard {} {}", shard.index, shard.count);
        }
        if !missing.is_empty() {
            head.push_str("missing");
            for shard in missing {
                let _ = write!(head, " {shard}");
            }
            head.push('\n');
        }
        writer.put(&head)?;
        Ok(writer)
    }

    /// Appends one scenario's column block.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying writer.
    pub fn write_block(&mut self, index: usize, stats: &ScenarioStats) -> io::Result<()> {
        let mut block = String::new();
        let _ = writeln!(block, "s {index}");
        let _ = writeln!(
            block,
            "c {} {} {} {} {} {}",
            stats.trials,
            stats.generation_failures,
            stats.partition_failures,
            stats.design_rejected,
            stats.accepted,
            stats.simulation_failures
        );
        let b = &stats.baselines;
        let _ = writeln!(
            block,
            "b {} {} {} {} {}",
            b.evaluated, b.flexible, b.static_lockstep, b.static_parallel, b.primary_backup
        );
        let sim = &stats.sim;
        let _ = writeln!(
            block,
            "r {} {} {} {} {} {}",
            sim.runs,
            sim.released_jobs,
            sim.completed_jobs,
            sim.deadline_misses,
            sim.injected_faults,
            sim.effective_faults
        );
        block.push('o');
        for mode in Mode::ALL {
            let o = &sim.outcomes[mode];
            let _ = write!(
                block,
                " {} {} {} {}",
                o.correct_no_fault, o.correct_masked, o.silenced_lost, o.wrong_result
            );
        }
        block.push('\n');
        let _ = writeln!(
            block,
            "x {} {} {} {} {}",
            sim.sum_period.ticks(),
            sim.sum_slack_bandwidth.ticks(),
            sim.sum_overhead_bandwidth.ticks(),
            sim.sum_max_response_time.ticks(),
            hex_bits(sim.max_response_time)
        );
        for response in &sim.response {
            let h = &response.histogram;
            let _ = write!(
                block,
                "h {} {} {}",
                response.task.0,
                hex_bits(h.bin_width),
                h.overflow
            );
            push_counts(&mut block, &h.counts);
            block.push('\n');
        }
        // Emitted whenever the whole accumulator differs from its
        // default — stronger than the JSON surface's `runs > 0` rule, so
        // even degenerate merge artefacts round-trip struct-exact.
        if sim.wcet_margin != WcetMarginStats::default() {
            let _ = writeln!(
                block,
                "w {} {}",
                sim.wcet_margin.runs,
                sim.wcet_margin.sum.ticks()
            );
            if let Some(h) = &sim.wcet_margin.histogram {
                let _ = write!(block, "wh {} {}", hex_bits(h.bin_width), h.overflow);
                push_counts(&mut block, &h.counts);
                block.push('\n');
            }
        }
        if let Some(latency) = &sim.latency {
            let h = &latency.histogram;
            let _ = write!(block, "l {} {}", hex_bits(h.bin_width), h.overflow);
            push_counts(&mut block, &h.counts);
            block.push('\n');
        }
        self.put(&block)?;
        Ok(())
    }

    /// Writes the integrity footer and flushes, returning the underlying
    /// writer.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        let footer = format!("{FOOTER_PREFIX}len={} fnv1a={:016x}\n", self.len, self.hash);
        self.out.write_all(footer.as_bytes())?;
        self.out.flush()?;
        Ok(self.out)
    }

    fn put(&mut self, text: &str) -> io::Result<()> {
        self.out.write_all(text.as_bytes())?;
        self.hash = fnv1a64_update(self.hash, text.as_bytes());
        self.len += text.len() as u64;
        Ok(())
    }
}

/// Line source that hashes payload lines as they stream past and stops
/// at (and verifies) the integrity footer.
struct LineSource<R> {
    input: R,
    hash: u64,
    len: u64,
    done: bool,
}

impl<R: BufRead> LineSource<R> {
    /// The next payload line (without its newline), or `None` once the
    /// verified footer is reached.
    fn next(&mut self) -> Result<Option<String>, ColumnarError> {
        if self.done {
            return Ok(None);
        }
        let mut raw = String::new();
        let n = self
            .input
            .read_line(&mut raw)
            .map_err(|e| ColumnarError::Io(e.to_string()))?;
        if n == 0 {
            return Err(corrupt("no integrity footer (truncated?)".into()));
        }
        let line = raw.strip_suffix('\n').unwrap_or(&raw);
        if let Some(fields) = line.strip_prefix(FOOTER_PREFIX) {
            self.verify_footer(fields)?;
            let mut rest = String::new();
            let m = self
                .input
                .read_line(&mut rest)
                .map_err(|e| ColumnarError::Io(e.to_string()))?;
            if m != 0 {
                return Err(corrupt("trailing data after the integrity footer".into()));
            }
            self.done = true;
            return Ok(None);
        }
        self.hash = fnv1a64_update(self.hash, raw.as_bytes());
        self.len += raw.len() as u64;
        Ok(Some(line.to_string()))
    }

    fn verify_footer(&self, fields: &str) -> Result<(), ColumnarError> {
        let mut len: Option<u64> = None;
        let mut hash: Option<u64> = None;
        for field in fields.split_whitespace() {
            if let Some(v) = field.strip_prefix("len=") {
                len = v.parse().ok();
            } else if let Some(v) = field.strip_prefix("fnv1a=") {
                hash = u64::from_str_radix(v, 16).ok();
            }
        }
        let (Some(len), Some(hash)) = (len, hash) else {
            return Err(corrupt("malformed integrity footer".into()));
        };
        if len != self.len {
            return Err(corrupt(format!(
                "payload is {} bytes, footer says {len} (truncated or padded)",
                self.len
            )));
        }
        if hash != self.hash {
            return Err(corrupt(
                "payload hash does not match the footer (bit rot or torn write)".into(),
            ));
        }
        Ok(())
    }
}

/// Streaming columnar reader: header is parsed at construction, scenario
/// blocks come one at a time from [`ColumnarReader::next_block`], and the
/// integrity footer is verified before the final `None` — a corrupt or
/// truncated file always errors before the document is accepted.
pub struct ColumnarReader<R: BufRead> {
    source: LineSource<R>,
    spec: CampaignSpec,
    shard: Option<ShardInfo>,
    missing: Vec<ShardInfo>,
    pending: Option<String>,
}

impl<R: BufRead> ColumnarReader<R> {
    /// Opens a columnar document and parses its header lines.
    ///
    /// # Errors
    ///
    /// [`ColumnarError::UnsupportedVersion`] for a columnar file of
    /// another version, [`ColumnarError::Corrupt`] for anything that is
    /// not a well-formed v1 header, [`ColumnarError::Io`] for reader
    /// failures.
    pub fn new(input: R) -> Result<ColumnarReader<R>, ColumnarError> {
        let mut source = LineSource {
            input,
            hash: FNV1A64_OFFSET,
            len: 0,
            done: false,
        };
        let Some(header) = source.next()? else {
            return Err(corrupt("missing the columnar header line".into()));
        };
        if header != HEADER {
            if let Some(version) = header.strip_prefix(MAGIC) {
                return Err(ColumnarError::UnsupportedVersion(
                    version.trim().to_string(),
                ));
            }
            return Err(corrupt(format!(
                "not a columnar report (expected the `{HEADER}` header, got `{}`)",
                clip(&header)
            )));
        }
        let Some(spec_line) = source.next()? else {
            return Err(corrupt("missing the `spec` line".into()));
        };
        let Some(spec_json) = spec_line.strip_prefix("spec ") else {
            return Err(corrupt(format!(
                "expected the `spec` line, got `{}`",
                clip(&spec_line)
            )));
        };
        let spec: CampaignSpec = serde_json::from_str(spec_json)
            .map_err(|e| corrupt(format!("spec line does not parse: {e}")))?;
        let mut shard = None;
        let mut missing = Vec::new();
        let mut pending = None;
        while let Some(line) = source.next()? {
            if let Some(rest) = line.strip_prefix("shard ") {
                let mut it = rest.split_whitespace();
                let index = take_usize(&mut it, &line)?;
                let count = take_usize(&mut it, &line)?;
                if count == 0 || index >= count {
                    return Err(corrupt(format!(
                        "shard line `{}` is out of range",
                        clip(&line)
                    )));
                }
                shard = Some(ShardInfo { index, count });
            } else if let Some(rest) = line.strip_prefix("missing ") {
                for token in rest.split_whitespace() {
                    let info = ShardInfo::parse_detailed(token)
                        .map_err(|e| corrupt(format!("missing-shards line: {e}")))?;
                    missing.push(info);
                }
            } else {
                pending = Some(line);
                break;
            }
        }
        Ok(ColumnarReader {
            source,
            spec,
            shard,
            missing,
            pending,
        })
    }

    /// The embedded campaign spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The shard coordinates, `Some` for partial reports.
    pub fn shard(&self) -> Option<ShardInfo> {
        self.shard
    }

    /// Shards recorded missing by an `--allow-partial` merge.
    pub fn missing(&self) -> &[ShardInfo] {
        &self.missing
    }

    /// The next scenario block as `(grid index, stats)`, or `None` after
    /// the integrity footer verified.
    ///
    /// # Errors
    ///
    /// [`ColumnarError::Corrupt`] for malformed blocks, truncation or a
    /// failed footer check, [`ColumnarError::Io`] for reader failures.
    pub fn next_block(&mut self) -> Result<Option<(usize, ScenarioStats)>, ColumnarError> {
        let Some(first) = self.next_line()? else {
            return Ok(None);
        };
        let Some(rest) = first.strip_prefix("s ") else {
            return Err(corrupt(format!(
                "expected a scenario block (`s <index>`), got `{}`",
                clip(&first)
            )));
        };
        let index: usize = rest
            .trim()
            .parse()
            .map_err(|_| corrupt(format!("bad scenario index on line `{}`", clip(&first))))?;
        let mut stats = ScenarioStats::default();

        let line = self.tagged_line("c")?;
        {
            let mut it = skip_tag(&line);
            stats.trials = take_u64(&mut it, &line)?;
            stats.generation_failures = take_u64(&mut it, &line)?;
            stats.partition_failures = take_u64(&mut it, &line)?;
            stats.design_rejected = take_u64(&mut it, &line)?;
            stats.accepted = take_u64(&mut it, &line)?;
            stats.simulation_failures = take_u64(&mut it, &line)?;
        }
        let line = self.tagged_line("b")?;
        {
            let mut it = skip_tag(&line);
            stats.baselines.evaluated = take_u64(&mut it, &line)?;
            stats.baselines.flexible = take_u64(&mut it, &line)?;
            stats.baselines.static_lockstep = take_u64(&mut it, &line)?;
            stats.baselines.static_parallel = take_u64(&mut it, &line)?;
            stats.baselines.primary_backup = take_u64(&mut it, &line)?;
        }
        let line = self.tagged_line("r")?;
        {
            let mut it = skip_tag(&line);
            stats.sim.runs = take_u64(&mut it, &line)?;
            stats.sim.released_jobs = take_u64(&mut it, &line)?;
            stats.sim.completed_jobs = take_u64(&mut it, &line)?;
            stats.sim.deadline_misses = take_u64(&mut it, &line)?;
            stats.sim.injected_faults = take_u64(&mut it, &line)?;
            stats.sim.effective_faults = take_u64(&mut it, &line)?;
        }
        let line = self.tagged_line("o")?;
        {
            let mut it = skip_tag(&line);
            for mode in Mode::ALL {
                let o = &mut stats.sim.outcomes[mode];
                o.correct_no_fault = take_u64(&mut it, &line)?;
                o.correct_masked = take_u64(&mut it, &line)?;
                o.silenced_lost = take_u64(&mut it, &line)?;
                o.wrong_result = take_u64(&mut it, &line)?;
            }
        }
        let line = self.tagged_line("x")?;
        {
            let mut it = skip_tag(&line);
            stats.sim.sum_period = ExactSum::from_ticks(take_i64(&mut it, &line)?);
            stats.sim.sum_slack_bandwidth = ExactSum::from_ticks(take_i64(&mut it, &line)?);
            stats.sim.sum_overhead_bandwidth = ExactSum::from_ticks(take_i64(&mut it, &line)?);
            stats.sim.sum_max_response_time = ExactSum::from_ticks(take_i64(&mut it, &line)?);
            stats.sim.max_response_time = take_f64_bits(&mut it, &line)?;
        }

        let mut saw_w = false;
        while let Some(line) = self.next_line()? {
            if let Some(rest) = line.strip_prefix("h ") {
                let mut it = rest.split_whitespace();
                let task = TaskId(take_u32(&mut it, &line)?);
                let bin_width = take_f64_bits(&mut it, &line)?;
                let overflow = take_u64(&mut it, &line)?;
                let counts = parse_counts(&mut it, &line)?;
                stats.sim.response.push(TaskResponse {
                    task,
                    histogram: ResponseHistogram {
                        bin_width,
                        counts,
                        overflow,
                    },
                });
            } else if let Some(rest) = line.strip_prefix("wh ") {
                if !saw_w {
                    return Err(corrupt(
                        "`wh` histogram line without a preceding `w` line".into(),
                    ));
                }
                let mut it = rest.split_whitespace();
                let bin_width = take_f64_bits(&mut it, &line)?;
                let overflow = take_u64(&mut it, &line)?;
                let counts = parse_counts(&mut it, &line)?;
                stats.sim.wcet_margin.histogram = Some(ResponseHistogram {
                    bin_width,
                    counts,
                    overflow,
                });
            } else if let Some(rest) = line.strip_prefix("w ") {
                let mut it = rest.split_whitespace();
                stats.sim.wcet_margin.runs = take_u64(&mut it, &line)?;
                stats.sim.wcet_margin.sum = ExactSum::from_ticks(take_i64(&mut it, &line)?);
                saw_w = true;
            } else if let Some(rest) = line.strip_prefix("l ") {
                let mut it = rest.split_whitespace();
                let bin_width = take_f64_bits(&mut it, &line)?;
                let overflow = take_u64(&mut it, &line)?;
                let counts = parse_counts(&mut it, &line)?;
                stats.sim.latency = Some(LatencyCurve {
                    histogram: ResponseHistogram {
                        bin_width,
                        counts,
                        overflow,
                    },
                });
            } else {
                self.pending = Some(line);
                break;
            }
        }
        Ok(Some((index, stats)))
    }

    fn next_line(&mut self) -> Result<Option<String>, ColumnarError> {
        if let Some(line) = self.pending.take() {
            return Ok(Some(line));
        }
        self.source.next()
    }

    fn tagged_line(&mut self, tag: &str) -> Result<String, ColumnarError> {
        match self.next_line()? {
            Some(line) if line.starts_with(tag) && line[tag.len()..].starts_with(' ') => Ok(line),
            Some(line) => Err(corrupt(format!(
                "expected a `{tag}` line, got `{}`",
                clip(&line)
            ))),
            None => Err(corrupt(format!(
                "scenario block is truncated before its `{tag}` line"
            ))),
        }
    }
}

fn hex_bits(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

/// Appends histogram bin counts with zero runs collapsed to `z<k>`
/// (single zeros stay `0`), preserving exact vector length.
fn push_counts(out: &mut String, counts: &[u64]) {
    let mut i = 0;
    while i < counts.len() {
        if counts[i] == 0 {
            let mut run = 1;
            while i + run < counts.len() && counts[i + run] == 0 {
                run += 1;
            }
            if run >= 2 {
                let _ = write!(out, " z{run}");
            } else {
                out.push_str(" 0");
            }
            i += run;
        } else {
            let _ = write!(out, " {}", counts[i]);
            i += 1;
        }
    }
}

fn skip_tag(line: &str) -> std::str::SplitWhitespace<'_> {
    let mut it = line.split_whitespace();
    it.next();
    it
}

fn take_token<'a>(
    it: &mut std::str::SplitWhitespace<'a>,
    line: &str,
) -> Result<&'a str, ColumnarError> {
    it.next()
        .ok_or_else(|| corrupt(format!("truncated line `{}`", clip(line))))
}

fn take_u64(it: &mut std::str::SplitWhitespace<'_>, line: &str) -> Result<u64, ColumnarError> {
    take_token(it, line)?
        .parse()
        .map_err(|_| corrupt(format!("bad integer on line `{}`", clip(line))))
}

fn take_u32(it: &mut std::str::SplitWhitespace<'_>, line: &str) -> Result<u32, ColumnarError> {
    take_token(it, line)?
        .parse()
        .map_err(|_| corrupt(format!("bad integer on line `{}`", clip(line))))
}

fn take_i64(it: &mut std::str::SplitWhitespace<'_>, line: &str) -> Result<i64, ColumnarError> {
    take_token(it, line)?
        .parse()
        .map_err(|_| corrupt(format!("bad integer on line `{}`", clip(line))))
}

fn take_usize(it: &mut std::str::SplitWhitespace<'_>, line: &str) -> Result<usize, ColumnarError> {
    take_token(it, line)?
        .parse()
        .map_err(|_| corrupt(format!("bad integer on line `{}`", clip(line))))
}

fn take_f64_bits(it: &mut std::str::SplitWhitespace<'_>, line: &str) -> Result<f64, ColumnarError> {
    let token = take_token(it, line)?;
    u64::from_str_radix(token, 16)
        .map(f64::from_bits)
        .map_err(|_| corrupt(format!("bad f64 bit pattern on line `{}`", clip(line))))
}

fn parse_counts(
    it: &mut std::str::SplitWhitespace<'_>,
    line: &str,
) -> Result<Vec<u64>, ColumnarError> {
    let mut counts = Vec::new();
    for token in it {
        if let Some(run) = token.strip_prefix('z') {
            let run: usize = run
                .parse()
                .map_err(|_| corrupt(format!("bad zero-run token on line `{}`", clip(line))))?;
            counts.resize(counts.len() + run, 0);
        } else {
            counts.push(
                token
                    .parse()
                    .map_err(|_| corrupt(format!("bad bin count on line `{}`", clip(line))))?,
            );
        }
    }
    Ok(counts)
}

/// Streams `report` into `out` in the columnar encoding.
///
/// # Errors
///
/// Any I/O error from the underlying writer.
pub fn write_report<W: Write>(report: &CampaignReport, out: W) -> io::Result<()> {
    let mut writer = ColumnarWriter::new(out, &report.spec, report.shard, &report.missing_shards)?;
    for row in &report.scenarios {
        writer.write_block(row.scenario, &row.stats)?;
    }
    writer.finish()?;
    Ok(())
}

/// The columnar encoding of `report` as an in-memory string.
pub fn encode_report(report: &CampaignReport) -> String {
    let mut buf = Vec::new();
    write_report(report, &mut buf).expect("in-memory columnar encoding cannot fail");
    String::from_utf8(buf).expect("columnar output is ASCII")
}

/// Reads one columnar document into a full [`CampaignReport`] — the
/// exact inverse of [`write_report`] (struct equality, hence byte-equal
/// JSON/CSV renderings).
///
/// # Errors
///
/// Any [`ColumnarError`] from the reader, plus `Corrupt` when the
/// embedded spec is invalid or a block's scenario index falls outside
/// the campaign grid.
pub fn read_report<R: BufRead>(input: R) -> Result<CampaignReport, ColumnarError> {
    let mut reader = ColumnarReader::new(input)?;
    reader
        .spec()
        .validate()
        .map_err(|e| corrupt(format!("embedded campaign spec is invalid: {e}")))?;
    let spec = reader.spec().clone();
    let grid = spec.scenarios();
    let mut rows = Vec::new();
    while let Some((index, stats)) = reader.next_block()? {
        let Some(scenario) = grid.get(index) else {
            return Err(corrupt(format!(
                "scenario index {index} is outside the campaign grid"
            )));
        };
        rows.push(ScenarioReport::for_scenario(&spec, scenario, stats));
    }
    Ok(CampaignReport {
        spec,
        scenarios: rows,
        shard: reader.shard(),
        missing_shards: reader.missing().to_vec(),
    })
}

/// [`read_report`] over an in-memory string.
///
/// # Errors
///
/// See [`read_report`].
pub fn read_report_str(text: &str) -> Result<CampaignReport, ColumnarError> {
    read_report(text.as_bytes())
}

/// Streaming merge of columnar shard files: folds scenario blocks into a
/// [`MergeFold`] as they are read, so no whole `CampaignReport` is ever
/// materialised per shard — exact-merge semantics identical to
/// [`crate::merge_reports`], byte-identical output in any shard order.
///
/// # Errors
///
/// [`CampaignError::InvalidMerge`] naming the offending file for read,
/// parse or integrity failures, plus every [`MergeFold`] validation
/// error (mismatched specs, duplicate shards, trial counts, …).
pub fn merge_columnar<P: AsRef<Path>>(paths: &[P]) -> Result<CampaignReport, CampaignError> {
    let mut fold = MergeFold::new();
    for path in paths {
        let path = path.as_ref();
        let file = std::fs::File::open(path).map_err(|e| {
            CampaignError::InvalidMerge(format!(
                "cannot read columnar shard `{}`: {e}",
                path.display()
            ))
        })?;
        let mut reader = ColumnarReader::new(io::BufReader::new(file))
            .map_err(|e| CampaignError::InvalidMerge(format!("`{}`: {e}", path.display())))?;
        fold.add_header(reader.spec(), reader.shard())?;
        loop {
            match reader.next_block() {
                Ok(Some((index, stats))) => {
                    fold.add_scenario(index, &stats)?;
                }
                Ok(None) => break,
                Err(e) => {
                    return Err(CampaignError::InvalidMerge(format!(
                        "`{}`: {e}",
                        path.display()
                    )))
                }
            }
        }
    }
    fold.finish(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::fnv1a64;
    use crate::executor::{run_campaign_shard, ExecutorConfig};
    use ftsched_analysis::Algorithm;

    #[test]
    fn incremental_hash_matches_oneshot() {
        let text = b"#ftsched-report-columnar v1\nspec {}\ns 0\n";
        let mut hash = FNV1A64_OFFSET;
        for chunk in text.chunks(7) {
            hash = fnv1a64_update(hash, chunk);
        }
        assert_eq!(hash, fnv1a64(text));
    }

    #[test]
    fn zero_run_encoding_round_trips() {
        for counts in [
            vec![],
            vec![0],
            vec![0, 0],
            vec![1, 0, 0, 0, 2],
            vec![0, 0, 5, 0],
            vec![3, 4, 5],
        ] {
            let mut line = String::from("h 0 0 0");
            push_counts(&mut line, &counts);
            let mut it = skip_tag(&line);
            for _ in 0..3 {
                take_u64(&mut it, &line).unwrap();
            }
            assert_eq!(
                parse_counts(&mut it, &line).unwrap(),
                counts,
                "line `{line}`"
            );
        }
    }

    #[test]
    fn sniff_and_parse() {
        assert_eq!(ReportFormat::sniff("{\n"), Some(ReportFormat::Json));
        assert_eq!(
            ReportFormat::sniff("#ftsched-report-columnar v1\n"),
            Some(ReportFormat::Columnar)
        );
        assert_eq!(ReportFormat::sniff("algorithm,"), None);
        assert_eq!(ReportFormat::parse("json"), Some(ReportFormat::Json));
        assert_eq!(
            ReportFormat::parse("columnar"),
            Some(ReportFormat::Columnar)
        );
        assert_eq!(ReportFormat::parse("csv"), None);
    }

    #[test]
    fn tiny_report_round_trips_and_detects_tampering() {
        let spec = CampaignSpec {
            algorithms: vec![Algorithm::EarliestDeadlineFirst],
            utilizations: vec![0.5, 1.5],
            trials_per_scenario: 3,
            ..CampaignSpec::base("columnar-unit")
        };
        let exec = ExecutorConfig {
            threads: 1,
            ..ExecutorConfig::default()
        };
        let report = run_campaign_shard(&spec, &exec, None).unwrap();
        let encoded = encode_report(&report);
        let decoded = read_report_str(&encoded).unwrap();
        assert_eq!(decoded, report);
        assert_eq!(decoded.to_json(), report.to_json());

        // Truncation and bit flips both fail before the report is
        // accepted.
        assert!(read_report_str(&encoded[..encoded.len() / 2]).is_err());
        let mut flipped = encoded.clone().into_bytes();
        let i = encoded.find("s 0").unwrap();
        flipped[i + 2] ^= 1;
        assert!(read_report_str(std::str::from_utf8(&flipped).unwrap()).is_err());

        // A version bump is named as such.
        let v2 = encoded.replacen("v1", "v2", 1);
        assert!(matches!(
            read_report_str(&v2),
            Err(ColumnarError::UnsupportedVersion(_))
        ));
    }
}
