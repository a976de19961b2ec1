//! In-memory span recording and the "onion" attribution built on it.
//!
//! The benchmark measures every layer **from outside**: one operation is
//! executed once at each public entry point, innermost first (kernel ⊂
//! `Program::run` ⊂ `BatchEngine` ⊂ `WorkerHandle::run_window` ⊂
//! `ServeEngine` ticket), and each execution is one span. The spans of
//! one operation share its `op` id; `parent` names the level one step
//! further out, which is the level whose span *contains* this work when
//! the stack runs for real. A level's self time is its span minus the
//! span one level in, so the self times of an operation telescope to its
//! outermost span — by construction, not by measurement luck.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Operation id, shared by every level of the same operation.
    pub op: u64,
    /// Level name (`kernel`, `plan.exec`, `core.batch`, …).
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// The enclosing level (`None` for the outermost).
    pub parent: Option<&'static str>,
}

/// Collects spans in memory; written out once, when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or only times calls.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    /// Runs `f`, returning its result and its duration in seconds; when
    /// enabled, also records the call as a span.
    pub fn time<R>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.enabled {
            self.spans.push(Span {
                op,
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                parent,
            });
        }
        (out, (end - start).as_secs_f64())
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path` (parent directories
    /// created).
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = match s.parent {
                Some(p) => format!("\"{p}\""),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, parent
            )?;
        }
        out.flush()
    }
}

/// Self time of each level of one operation, given the level durations
/// ordered innermost → outermost: the innermost level keeps its whole
/// span, every other level keeps its span minus the span one level in.
/// The result sums to the outermost duration exactly. (A self time can
/// come out negative when an outer call happened to run faster than the
/// separately-executed inner one; it still telescopes.)
pub fn self_times(durations: &[f64]) -> Vec<f64> {
    durations
        .iter()
        .enumerate()
        .map(|(i, &d)| if i == 0 { d } else { d - durations[i - 1] })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onion_self_times_sum_to_the_outer_span() {
        let levels = [12.5e-6, 40.0e-6, 39.0e-6, 170.25e-6];
        let selfs = self_times(&levels);
        assert_eq!(selfs.len(), levels.len());
        assert_eq!(selfs[0], levels[0]);
        let sum: f64 = selfs.iter().sum();
        assert!((sum - levels[3]).abs() < 1e-18, "{sum} vs {}", levels[3]);
        // A noisy inversion (level 2 faster than level 1) goes negative
        // rather than being clamped, so the sum still holds.
        assert!(selfs[2] < 0.0);
    }

    #[test]
    fn recorder_links_levels_of_one_op_and_round_trips_to_jsonl() {
        let mut rec = Recorder::new(true);
        let (v, inner) = rec.time(7, "kernel", Some("plan.exec"), || 21 * 2);
        assert_eq!(v, 42);
        let (_, outer) = rec.time(7, "plan.exec", None, || std::hint::black_box(0));
        assert!(inner >= 0.0 && outer >= 0.0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert_eq!(spans[0].parent, Some(spans[1].name));

        let dir = std::env::temp_dir().join(format!("onesa-trace-test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("name").and_then(|v| v.as_str()), Some("kernel"));
        assert_eq!(
            first.get("parent").and_then(|v| v.as_str()),
            Some("plan.exec")
        );
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent"), Some(&crate::json::Value::Null));
        std::fs::remove_dir_all(&dir).unwrap();

        // Disabled: still times, records nothing.
        let mut off = Recorder::new(false);
        let _ = off.time(1, "kernel", None, || ());
        assert!(off.spans().is_empty());
    }
}
