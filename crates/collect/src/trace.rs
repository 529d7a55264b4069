//! Campaign traces: capture a measurement campaign once, replay it bit-exactly.
//!
//! A [`Trace`] is the JSON-serialisable record of everything a campaign
//! measured: per cell, the label, measurement geometry (page size, intervals,
//! schedule parameters) and the raw per-interval samples. Replaying a trace
//! through [`ReplayBackend`](crate::ReplayBackend) reproduces the original
//! observations bit-for-bit — floats are rendered with shortest round-tripping
//! formatting — which makes campaigns shareable artefacts: measure on one
//! machine (or one expensive simulation run), analyse anywhere.

use crate::error::CollectError;
use counterpoint_haswell::mem::PageSize;
use serde::{Deserialize, Serialize};
use std::path::Path;

use crate::backend::IntervalSamples;

/// The trace file format version this crate writes and accepts.
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// One recorded campaign cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The cell's label (workload @ page size); the replay lookup key.
    pub label: String,
    /// Page size the workload ran under.
    pub page_size: PageSize,
    /// Number of measurement intervals *requested* for the run. The actual row
    /// count (`samples.num_intervals()`) can differ by one when the workload's
    /// access count is not divisible by this, so replay validation compares
    /// requested-vs-requested, never requested-vs-rows.
    pub intervals: usize,
    /// Number of logical events the schedule programmed.
    pub num_events: usize,
    /// Physical-counter budget the schedule was planned for.
    pub physical_counters: usize,
    /// The per-interval samples the backend reported.
    pub samples: IntervalSamples,
}

/// A recorded campaign: an ordered list of [`TraceRecord`]s plus a format
/// version.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Format version (see [`TRACE_FORMAT_VERSION`]).
    pub version: u32,
    /// The recorded cells, in campaign order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace at the current format version.
    pub fn new() -> Trace {
        Trace {
            version: TRACE_FORMAT_VERSION,
            records: Vec::new(),
        }
    }

    /// Appends a record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// Number of recorded cells.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Finds the record for a label (first match).
    pub fn get(&self, label: &str) -> Option<&TraceRecord> {
        self.records.iter().find(|r| r.label == label)
    }

    /// Renders the trace as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace JSON rendering is infallible")
    }

    /// Parses a trace from JSON text, rejecting unknown format versions.
    pub fn from_json(text: &str) -> Result<Trace, CollectError> {
        let trace: Trace =
            serde_json::from_str(text).map_err(|e| CollectError::Format(e.to_string()))?;
        if trace.version != TRACE_FORMAT_VERSION {
            return Err(CollectError::Format(format!(
                "unknown trace format version {} (this build reads version {})",
                trace.version, TRACE_FORMAT_VERSION
            )));
        }
        Ok(trace)
    }

    /// Writes the trace as JSON to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CollectError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json()).map_err(|e| CollectError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })
    }

    /// Reads a JSON trace from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Trace, CollectError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| CollectError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Trace::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut trace = Trace::new();
        trace.push(TraceRecord {
            label: "linear@4k".to_string(),
            page_size: PageSize::Size4K,
            intervals: 3,
            num_events: 2,
            physical_counters: 4,
            samples: IntervalSamples::new(
                vec!["load.ret".to_string(), "load.causes_walk".to_string()],
                vec![vec![10.0, 1.5], vec![10.0, 0.25], vec![1.0 / 3.0, 0.0]],
            ),
        });
        trace
    }

    #[test]
    fn json_round_trip_is_exact() {
        let trace = sample_trace();
        let back = Trace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn lookup_by_label() {
        let trace = sample_trace();
        assert!(trace.get("linear@4k").is_some());
        assert!(trace.get("linear@2m").is_none());
        assert_eq!(trace.len(), 1);
        assert!(!trace.is_empty());
        assert!(Trace::new().is_empty());
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut trace = sample_trace();
        trace.version = 99;
        let err = Trace::from_json(&trace.to_json()).unwrap_err();
        assert!(matches!(err, CollectError::Format(_)));
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn malformed_json_is_a_format_error() {
        assert!(matches!(
            Trace::from_json("{\"version\": 1, \"records\": "),
            Err(CollectError::Format(_))
        ));
    }

    #[test]
    fn save_and_load() {
        let trace = sample_trace();
        let path = std::env::temp_dir().join("counterpoint_trace_test.json");
        trace.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, trace);
        // Missing files surface as I/O errors carrying the path.
        let missing = std::env::temp_dir().join("counterpoint_no_such_trace.json");
        assert!(matches!(
            Trace::load(&missing),
            Err(CollectError::Io { .. })
        ));
    }
}
