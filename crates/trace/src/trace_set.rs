//! Per-link condition traces over an experiment horizon.

use crate::{LinkCondition, NetworkState};
use dg_topology::{EdgeId, Micros};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path as FsPath;

/// Errors from trace construction and I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// The interval duration was zero or the shape was inconsistent.
    InvalidShape(String),
    /// A loaded trace has no monitoring interval.
    NoIntervals,
    /// A loaded trace gives a link a loss rate outside `[0, 1]` (or no
    /// number at all), at the `interval` of the `link`.
    LossOutOfRange {
        /// The link's row.
        link: usize,
        /// The interval within it.
        interval: usize,
        /// What the file says.
        loss: f64,
    },
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// (De)serialization failed.
    Format(serde_json::Error),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::InvalidShape(msg) => write!(f, "invalid trace shape: {msg}"),
            TraceError::NoIntervals => write!(f, "invalid trace shape: no interval"),
            TraceError::LossOutOfRange { link, interval, loss } => {
                write!(f, "link {link} interval {interval}: loss rate {loss} is outside [0, 1]")
            }
            TraceError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceError::Format(e) => write!(f, "trace format error: {e}"),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::InvalidShape(_)
            | TraceError::NoIntervals
            | TraceError::LossOutOfRange { .. } => None,
            TraceError::Io(e) => Some(e),
            TraceError::Format(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<serde_json::Error> for TraceError {
    fn from(e: serde_json::Error) -> Self {
        TraceError::Format(e)
    }
}

/// Recorded (or synthesized) conditions for every link of a topology
/// over a time horizon, at a fixed monitoring granularity.
///
/// # Example
///
/// ```
/// use dg_trace::{LinkCondition, TraceSet};
/// use dg_topology::{EdgeId, Micros};
///
/// let mut traces = TraceSet::clean(4, 6, Micros::from_secs(10))?;
/// traces.set_condition(EdgeId::new(1), 2, LinkCondition::new(0.5, Micros::ZERO));
/// assert!(traces
///     .condition_at(EdgeId::new(1), Micros::from_secs(25))
///     .is_problematic(0.1));
/// # Ok::<(), dg_trace::TraceError>(())
/// ```
///
/// Layout mirrors the paper's data collection: one record per link per
/// interval (10 s by default), carrying the interval's loss rate and
/// added latency. Time `t` maps to interval `t / interval_duration`;
/// queries past the end return the last interval's conditions, so a
/// simulation can safely run up to (and including) the horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSet {
    interval_duration: Micros,
    /// `links[edge][interval]` — outer index is the dense edge id.
    links: Vec<Vec<LinkCondition>>,
}

impl TraceSet {
    /// Creates a trace with every link clean for the whole horizon.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidShape`] when `interval_duration` is
    /// zero or `intervals` is zero.
    pub fn clean(
        link_count: usize,
        intervals: usize,
        interval_duration: Micros,
    ) -> Result<Self, TraceError> {
        if interval_duration == Micros::ZERO {
            return Err(TraceError::InvalidShape("interval duration must be positive".into()));
        }
        if intervals == 0 {
            return Err(TraceError::InvalidShape("at least one interval required".into()));
        }
        Ok(TraceSet {
            interval_duration,
            links: vec![vec![LinkCondition::CLEAN; intervals]; link_count],
        })
    }

    /// Number of links covered.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of monitoring intervals.
    pub fn interval_count(&self) -> usize {
        self.links.first().map_or(0, Vec::len)
    }

    /// Duration of one monitoring interval.
    pub fn interval_duration(&self) -> Micros {
        self.interval_duration
    }

    /// Total trace duration.
    pub fn duration(&self) -> Micros {
        self.interval_duration.saturating_mul(self.interval_count() as u64)
    }

    /// The interval index containing time `t` (clamped to the horizon).
    pub fn interval_at(&self, t: Micros) -> usize {
        let idx = (t.as_micros() / self.interval_duration.as_micros()) as usize;
        idx.min(self.interval_count().saturating_sub(1))
    }

    /// The times `[from, until)` that [`TraceSet::interval_at`] maps to
    /// `interval`. The last interval has no end (`until` is
    /// [`Micros::MAX`]): times past the horizon are clamped into it.
    pub fn interval_span(&self, interval: usize) -> (Micros, Micros) {
        let from = self.interval_duration.saturating_mul(interval as u64);
        let last = interval + 1 >= self.interval_count();
        (from, if last { Micros::MAX } else { from.saturating_add(self.interval_duration) })
    }

    /// Condition of `edge` at time `t`: the record of the interval `t`
    /// falls in, whatever happened before. The simulator asks with the
    /// time a packet is *at the link's tail*, not the time it was sent,
    /// so a packet in flight across an interval boundary meets the next
    /// interval's conditions on the hops it has yet to take.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn condition_at(&self, edge: EdgeId, t: Micros) -> LinkCondition {
        self.links[edge.index()][self.interval_at(t)]
    }

    /// Condition of `edge` in a specific interval.
    ///
    /// # Panics
    ///
    /// Panics if `edge` or `interval` is out of range.
    pub fn condition_in_interval(&self, edge: EdgeId, interval: usize) -> LinkCondition {
        self.links[edge.index()][interval]
    }

    /// Overwrites the condition of `edge` in `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` or `interval` is out of range.
    pub fn set_condition(&mut self, edge: EdgeId, interval: usize, c: LinkCondition) {
        self.links[edge.index()][interval] = c;
    }

    /// Applies an additional impairment on top of what is already
    /// recorded for `edge` in `interval` (see [`LinkCondition::combine`]).
    ///
    /// # Panics
    ///
    /// Panics if `edge` or `interval` is out of range.
    pub fn impair(&mut self, edge: EdgeId, interval: usize, c: LinkCondition) {
        let cur = self.links[edge.index()][interval];
        self.links[edge.index()][interval] = cur.combine(&c);
    }

    /// Snapshot of all link conditions at time `t`.
    pub fn state_at(&self, t: Micros) -> NetworkState {
        let idx = self.interval_at(t);
        NetworkState::from_conditions(t, self.links.iter().map(|l| l[idx]).collect())
    }

    /// Start times of every interval, for schedulers that react to
    /// monitoring updates.
    pub fn interval_starts(&self) -> impl Iterator<Item = Micros> + '_ {
        (0..self.interval_count() as u64).map(move |i| self.interval_duration.saturating_mul(i))
    }

    /// Writes the trace as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] / [`TraceError::Format`] on failure.
    pub fn save_json(&self, path: &FsPath) -> Result<(), TraceError> {
        let file = File::create(path)?;
        serde_json::to_writer(BufWriter::new(file), self)?;
        Ok(())
    }

    /// Reads a trace previously written by [`TraceSet::save_json`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] / [`TraceError::Format`] on failure,
    /// [`TraceError::InvalidShape`] if link rows have uneven lengths or
    /// the interval duration is zero, [`TraceError::NoIntervals`] for a
    /// trace of no interval, and [`TraceError::LossOutOfRange`] for a
    /// loss rate outside `[0, 1]`.
    pub fn load_json(path: &FsPath) -> Result<Self, TraceError> {
        let file = File::open(path)?;
        let set: TraceSet = serde_json::from_reader(BufReader::new(file))?;
        let expected = set.interval_count();
        if set.links.iter().any(|l| l.len() != expected) {
            return Err(TraceError::InvalidShape("uneven link rows".into()));
        }
        if set.interval_duration == Micros::ZERO {
            return Err(TraceError::InvalidShape("interval duration must be positive".into()));
        }
        if expected == 0 {
            return Err(TraceError::NoIntervals);
        }
        for (link, row) in set.links.iter().enumerate() {
            for (interval, c) in row.iter().enumerate() {
                check_loss(link, interval, c.loss_rate)?;
            }
        }
        Ok(set)
    }

    /// Writes the trace in the compact binary format (about 12x smaller
    /// than JSON: one `f32` loss + `u32` extra-latency pair per
    /// link-interval).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on write failure.
    pub fn save_binary(&self, path: &FsPath) -> Result<(), TraceError> {
        use std::io::Write;
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(BINARY_MAGIC)?;
        w.write_all(&(self.link_count() as u32).to_le_bytes())?;
        w.write_all(&(self.interval_count() as u32).to_le_bytes())?;
        w.write_all(&self.interval_duration.as_micros().to_le_bytes())?;
        for link in &self.links {
            for c in link {
                w.write_all(&(c.loss_rate as f32).to_le_bytes())?;
                let extra = c.extra_latency.as_micros().min(u64::from(u32::MAX)) as u32;
                w.write_all(&extra.to_le_bytes())?;
            }
        }
        w.flush()?;
        Ok(())
    }

    /// Reads a trace written by [`TraceSet::save_binary`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidShape`] for bad magic, truncation,
    /// or a zero interval duration, [`TraceError::NoIntervals`] for a
    /// trace of no interval, [`TraceError::LossOutOfRange`] for a loss
    /// rate outside `[0, 1]`, and [`TraceError::Io`] on read failure.
    pub fn load_binary(path: &FsPath) -> Result<Self, TraceError> {
        let data = std::fs::read(path)?;
        let header = BINARY_MAGIC.len() + 4 + 4 + 8;
        if data.len() < header || &data[..BINARY_MAGIC.len()] != BINARY_MAGIC {
            return Err(TraceError::InvalidShape("bad magic or truncated header".into()));
        }
        let mut at = BINARY_MAGIC.len();
        let mut take = |n: usize| {
            let s = &data[at..at + n];
            at += n;
            s
        };
        let links = u32::from_le_bytes(take(4).try_into().expect("4 bytes")) as usize;
        let intervals = u32::from_le_bytes(take(4).try_into().expect("4 bytes")) as usize;
        let interval_us = u64::from_le_bytes(take(8).try_into().expect("8 bytes"));
        if intervals == 0 {
            return Err(TraceError::NoIntervals);
        }
        if interval_us == 0 {
            return Err(TraceError::InvalidShape("interval duration must be positive".into()));
        }
        let need = header + links * intervals * 8;
        if data.len() != need {
            return Err(TraceError::InvalidShape(format!(
                "expected {need} bytes, found {}",
                data.len()
            )));
        }
        let mut set = TraceSet::clean(links, intervals, Micros::from_micros(interval_us))?;
        for l in 0..links {
            for i in 0..intervals {
                let loss = f64::from(f32::from_le_bytes(take(4).try_into().expect("4 bytes")));
                let extra = u32::from_le_bytes(take(4).try_into().expect("4 bytes"));
                check_loss(l, i, loss)?;
                set.links[l][i] = LinkCondition::new(loss, Micros::from_micros(u64::from(extra)));
            }
        }
        Ok(set)
    }
}

/// Refuses a loaded loss rate outside `[0, 1]` (NaN included) rather
/// than clamping it into a plausible one.
fn check_loss(link: usize, interval: usize, loss: f64) -> Result<(), TraceError> {
    if (0.0..=1.0).contains(&loss) {
        Ok(())
    } else {
        Err(TraceError::LossOutOfRange { link, interval, loss })
    }
}

impl TraceSet {
    /// Extracts the window of intervals `[from, to)` as a new trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidShape`] when the range is empty or
    /// out of bounds.
    pub fn slice(&self, from: usize, to: usize) -> Result<TraceSet, TraceError> {
        if from >= to || to > self.interval_count() {
            return Err(TraceError::InvalidShape(format!(
                "slice {from}..{to} out of 0..{}",
                self.interval_count()
            )));
        }
        Ok(TraceSet {
            interval_duration: self.interval_duration,
            links: self.links.iter().map(|l| l[from..to].to_vec()).collect(),
        })
    }

    /// Appends `other` after this trace in time (e.g. gluing recorded
    /// weeks together).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidShape`] when link counts or interval
    /// durations differ.
    pub fn concat(&self, other: &TraceSet) -> Result<TraceSet, TraceError> {
        if self.link_count() != other.link_count() {
            return Err(TraceError::InvalidShape(format!(
                "link counts differ: {} vs {}",
                self.link_count(),
                other.link_count()
            )));
        }
        if self.interval_duration != other.interval_duration {
            return Err(TraceError::InvalidShape("interval durations differ".into()));
        }
        Ok(TraceSet {
            interval_duration: self.interval_duration,
            links: self
                .links
                .iter()
                .zip(&other.links)
                .map(|(a, b)| {
                    let mut row = a.clone();
                    row.extend_from_slice(b);
                    row
                })
                .collect(),
        })
    }
}

/// Magic prefix of the compact binary trace format.
const BINARY_MAGIC: &[u8; 8] = b"DGTRACE1";

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TraceSet {
        TraceSet::clean(4, 6, Micros::from_secs(10)).unwrap()
    }

    #[test]
    fn shape_accessors() {
        let t = small();
        assert_eq!(t.link_count(), 4);
        assert_eq!(t.interval_count(), 6);
        assert_eq!(t.interval_duration(), Micros::from_secs(10));
        assert_eq!(t.duration(), Micros::from_secs(60));
    }

    #[test]
    fn rejects_degenerate_shapes() {
        assert!(TraceSet::clean(4, 0, Micros::from_secs(10)).is_err());
        assert!(TraceSet::clean(4, 5, Micros::ZERO).is_err());
    }

    #[test]
    fn interval_mapping_clamps_at_horizon() {
        let t = small();
        assert_eq!(t.interval_at(Micros::ZERO), 0);
        assert_eq!(t.interval_at(Micros::from_secs(9)), 0);
        assert_eq!(t.interval_at(Micros::from_secs(10)), 1);
        assert_eq!(t.interval_at(Micros::from_secs(59)), 5);
        assert_eq!(t.interval_at(Micros::from_secs(1000)), 5);
    }

    #[test]
    fn interval_spans_are_what_interval_at_maps_back() {
        let t = small();
        assert_eq!(t.interval_span(0), (Micros::ZERO, Micros::from_secs(10)));
        assert_eq!(t.interval_span(5), (Micros::from_secs(50), Micros::MAX));
        for i in 0..t.interval_count() {
            let (from, until) = t.interval_span(i);
            assert_eq!(t.interval_at(from), i);
            assert_eq!(t.interval_at(until.saturating_sub(Micros::from_micros(1))), i);
            assert!(i == 0 || t.interval_at(from.saturating_sub(Micros::from_micros(1))) == i - 1);
        }
    }

    #[test]
    fn set_and_query_conditions() {
        let mut t = small();
        let e = EdgeId::new(2);
        let bad = LinkCondition::new(0.4, Micros::from_millis(7));
        t.set_condition(e, 3, bad);
        assert_eq!(t.condition_at(e, Micros::from_secs(30)), bad);
        assert_eq!(t.condition_at(e, Micros::from_secs(20)), LinkCondition::CLEAN);
        assert_eq!(t.condition_in_interval(e, 3), bad);
        let st = t.state_at(Micros::from_secs(35));
        assert_eq!(st.condition(e), bad);
        assert_eq!(st.condition(EdgeId::new(0)), LinkCondition::CLEAN);
    }

    #[test]
    fn impair_composes_loss() {
        let mut t = small();
        let e = EdgeId::new(0);
        t.impair(e, 0, LinkCondition::new(0.5, Micros::ZERO));
        t.impair(e, 0, LinkCondition::new(0.5, Micros::from_millis(1)));
        let c = t.condition_in_interval(e, 0);
        assert!((c.loss_rate - 0.75).abs() < 1e-12);
        assert_eq!(c.extra_latency, Micros::from_millis(1));
    }

    #[test]
    fn interval_starts_enumerates_all() {
        let t = small();
        let starts: Vec<_> = t.interval_starts().collect();
        assert_eq!(starts.len(), 6);
        assert_eq!(starts[0], Micros::ZERO);
        assert_eq!(starts[5], Micros::from_secs(50));
    }

    #[test]
    fn json_round_trip() {
        let mut t = small();
        t.set_condition(EdgeId::new(1), 2, LinkCondition::new(0.2, Micros::from_millis(3)));
        let dir = std::env::temp_dir().join("dg_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        t.save_json(&path).unwrap();
        let back = TraceSet::load_json(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn slice_extracts_a_window() {
        let mut t = small();
        t.set_condition(EdgeId::new(0), 2, LinkCondition::down());
        let w = t.slice(2, 5).unwrap();
        assert_eq!(w.interval_count(), 3);
        assert_eq!(w.link_count(), 4);
        assert_eq!(w.condition_in_interval(EdgeId::new(0), 0), LinkCondition::down());
        assert_eq!(w.condition_in_interval(EdgeId::new(0), 1), LinkCondition::CLEAN);
        assert!(t.slice(3, 3).is_err());
        assert!(t.slice(0, 99).is_err());
    }

    #[test]
    fn concat_glues_weeks_together() {
        let mut a = small();
        let mut b = small();
        a.set_condition(EdgeId::new(1), 5, LinkCondition::down());
        b.set_condition(EdgeId::new(1), 0, LinkCondition::new(0.5, Micros::ZERO));
        let glued = a.concat(&b).unwrap();
        assert_eq!(glued.interval_count(), 12);
        assert_eq!(glued.condition_in_interval(EdgeId::new(1), 5), LinkCondition::down());
        assert_eq!(glued.condition_in_interval(EdgeId::new(1), 6).loss_rate, 0.5);
        // Mismatched shapes are rejected.
        let other = TraceSet::clean(3, 6, Micros::from_secs(10)).unwrap();
        assert!(a.concat(&other).is_err());
        let other = TraceSet::clean(4, 6, Micros::from_secs(5)).unwrap();
        assert!(a.concat(&other).is_err());
    }

    #[test]
    fn binary_round_trip_and_is_compact() {
        let mut t = TraceSet::clean(8, 50, Micros::from_secs(10)).unwrap();
        for l in 0..8u32 {
            for i in 0..50 {
                t.set_condition(
                    EdgeId::new(l),
                    i,
                    LinkCondition::new(
                        f64::from(l) * 0.01 + i as f64 * 0.001,
                        Micros::from_micros((l as u64) * 100 + i as u64),
                    ),
                );
            }
        }
        let dir = std::env::temp_dir().join("dg_trace_bin_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bin_path = dir.join("trace.bin");
        let json_path = dir.join("trace.json");
        t.save_binary(&bin_path).unwrap();
        t.save_json(&json_path).unwrap();
        let back = TraceSet::load_binary(&bin_path).unwrap();
        assert_eq!(back.link_count(), 8);
        assert_eq!(back.interval_count(), 50);
        assert_eq!(back.interval_duration(), Micros::from_secs(10));
        // f32 quantization: values agree to float precision.
        for l in 0..8u32 {
            for i in 0..50 {
                let a = t.condition_in_interval(EdgeId::new(l), i);
                let b = back.condition_in_interval(EdgeId::new(l), i);
                assert!((a.loss_rate - b.loss_rate).abs() < 1e-6);
                assert_eq!(a.extra_latency, b.extra_latency);
            }
        }
        let bin_size = std::fs::metadata(&bin_path).unwrap().len();
        let json_size = std::fs::metadata(&json_path).unwrap().len();
        assert!(bin_size * 4 < json_size, "binary {bin_size} vs json {json_size}");
        std::fs::remove_file(&bin_path).unwrap();
        std::fs::remove_file(&json_path).unwrap();
    }

    #[test]
    fn binary_rejects_corruption() {
        let t = small();
        let dir = std::env::temp_dir().join("dg_trace_bin_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.bin");
        t.save_binary(&path).unwrap();

        // Truncation.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(matches!(TraceSet::load_binary(&path), Err(TraceError::InvalidShape(_))));
        // Bad magic.
        let mut bad = full.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(TraceSet::load_binary(&path), Err(TraceError::InvalidShape(_))));
        std::fs::remove_file(&path).unwrap();
    }

    /// A file of `bytes` in a directory of this process's own.
    fn scratch_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dg_trace_refusals_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn json_refuses_a_loss_outside_zero_to_one() {
        let mut t = small();
        t.links[2][3].loss_rate = 1.5;
        let path = scratch_file("loss.json", serde_json::to_string(&t).unwrap().as_bytes());
        let err = TraceSet::load_json(&path).unwrap_err();
        assert!(matches!(err, TraceError::LossOutOfRange { link: 2, interval: 3, .. }), "{err}");
    }

    #[test]
    fn json_refuses_a_trace_of_no_interval() {
        let t = TraceSet { interval_duration: Micros::from_secs(10), links: vec![Vec::new(); 3] };
        let path = scratch_file("empty.json", serde_json::to_string(&t).unwrap().as_bytes());
        assert!(matches!(TraceSet::load_json(&path), Err(TraceError::NoIntervals)));
    }

    #[test]
    fn binary_refuses_a_loss_outside_zero_to_one() {
        let t = small();
        let path = scratch_file("loss.bin", b"");
        t.save_binary(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Link 1, interval 0: the seventh record after the header.
        let at = BINARY_MAGIC.len() + 16 + 6 * 8;
        bytes[at..at + 4].copy_from_slice(&(-0.25f32).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = TraceSet::load_binary(&path).unwrap_err();
        assert!(matches!(err, TraceError::LossOutOfRange { link: 1, interval: 0, .. }), "{err}");
    }

    #[test]
    fn binary_refuses_a_trace_of_no_interval() {
        let mut bytes = BINARY_MAGIC.to_vec();
        bytes.extend(4u32.to_le_bytes());
        bytes.extend(0u32.to_le_bytes());
        bytes.extend(10_000_000u64.to_le_bytes());
        let path = scratch_file("empty.bin", &bytes);
        assert!(matches!(TraceSet::load_binary(&path), Err(TraceError::NoIntervals)));
    }

    #[test]
    fn load_rejects_missing_file() {
        let err = TraceSet::load_json(FsPath::new("/nonexistent/trace.json")).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
        assert!(err.source().is_some());
    }
}
