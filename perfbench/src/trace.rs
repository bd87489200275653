//! Host-time spans recorded around the calls the benchmark makes into each
//! layer, kept in memory and written out as Chrome trace-event JSON.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Pose-level collision checks are too many to keep
//! one span each, so [`TimedChecker`] sums their time and count and the
//! enclosing span records the sums as its child time and as counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use mp_collision::{CdStats, CollisionChecker};
use mp_robot::{JointConfig, RobotModel};

/// Spans kept for the trace file; layer times keep accumulating past it.
const MAX_KEPT_SPANS: usize = 200_000;

/// The name under which pose checks are accounted.
pub const CHECK_POSE: &str = "collision.check_pose";

#[derive(Clone, Debug)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    counts: Vec<(&'static str, u64)>,
}

struct Frame {
    name: &'static str,
    start: Instant,
    kept: Option<usize>,
    child_ns: u64,
}

/// Accumulated host time of one layer over a traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    /// Spans closed.
    pub calls: u64,
    /// Summed span duration (ns).
    pub total_ns: u64,
    /// Part of `total_ns` covered by child spans and summed pose checks.
    pub child_ns: u64,
}

impl LayerTime {
    /// Span time minus the time its children cover (ns).
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// An open span; close it with [`Tracer::end`].
#[must_use]
pub struct Open(bool);

/// In-memory span recorder. When disabled every call returns at once.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<Frame>,
    layers: BTreeMap<&'static str, LayerTime>,
    request: u64,
    dropped: u64,
}

impl Tracer {
    /// A recorder, initially off.
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            layers: BTreeMap::new(),
            request: 0,
            dropped: 0,
        }
    }

    /// Turns recording on or off (between requests only).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the request id stamped on the spans that follow.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Opens a span nested in the innermost open one. A request's spans
    /// are kept for the trace file only while fewer than
    /// [`MAX_KEPT_SPANS`] are held; their times count either way.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(false);
        }
        let keep = match self.stack.last() {
            Some(parent) => parent.kept.is_some(),
            None => self.spans.len() < MAX_KEPT_SPANS,
        };
        let kept = if keep {
            self.spans.push(SpanRec {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().and_then(|f| f.kept),
                request: self.request,
                counts: Vec::new(),
            });
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        let start = Instant::now();
        if let Some(i) = kept {
            self.spans[i].start_ns = (start - self.epoch).as_nanos() as u64;
        }
        self.stack.push(Frame {
            name,
            start,
            kept,
            child_ns: 0,
        });
        Open(true)
    }

    /// Closes `open`. `poses` carries the pose checks summed inside it,
    /// charged as child time; `counts` are recorded on the span.
    pub fn end(&mut self, open: Open, poses: Option<PoseTime>, counts: &[(&'static str, u64)]) {
        if !open.0 {
            return;
        }
        let end = Instant::now();
        let mut f = self.stack.pop().expect("span closed twice");
        let dur = (end - f.start).as_nanos() as u64;
        if let Some(p) = poses {
            f.child_ns += p.ns;
            let l = self.layers.entry(CHECK_POSE).or_default();
            l.calls += p.calls;
            l.total_ns += p.ns;
        }
        if let Some(i) = f.kept {
            let span = &mut self.spans[i];
            span.end_ns = span.start_ns + dur;
            span.counts.extend_from_slice(counts);
            if let Some(p) = poses {
                span.counts.push(("check_pose_ns", p.ns));
                span.counts.push(("pose_checks", p.calls));
            }
        }
        let l = self.layers.entry(f.name).or_default();
        l.calls += 1;
        l.total_ns += dur;
        l.child_ns += f.child_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Accumulated host time per layer name.
    pub fn layer(&self, name: &str) -> LayerTime {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// The kept spans as Chrome trace-event JSON (Perfetto opens it).
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let cat = sp.name.split('.').next().unwrap_or(sp.name);
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"request\":{}",
                if i == 0 { "" } else { ",\n" },
                sp.name,
                cat,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                i,
                sp.parent.map_or(-1, |p| p as i64),
                sp.request,
            );
            for (k, v) in &sp.counts {
                let _ = write!(s, ",\"{k}\":{v}");
            }
            s.push_str("}}");
        }
        let _ = write!(
            s,
            "\n],\"otherData\":{{\"spans_dropped\":{}}}}}\n",
            self.dropped
        );
        s
    }
}

/// Summed pose-check time and count inside one span.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoseTime {
    /// Pose checks made.
    pub calls: u64,
    /// Host time inside them (ns).
    pub ns: u64,
}

/// Forwarding [`CollisionChecker`] that times every `check_pose` and
/// counts hits. Every collision path (rake blocks included) funnels into
/// `check_pose`, so this sees all CD work of the call it wraps.
pub struct TimedChecker<'a, C: CollisionChecker> {
    inner: &'a mut C,
    /// Time and count of the checks made so far.
    pub poses: PoseTime,
    /// Checks that reported a collision.
    pub hits: u64,
}

impl<'a, C: CollisionChecker> TimedChecker<'a, C> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut C) -> Self {
        TimedChecker {
            inner,
            poses: PoseTime::default(),
            hits: 0,
        }
    }
}

impl<C: CollisionChecker> CollisionChecker for TimedChecker<'_, C> {
    fn robot(&self) -> &RobotModel {
        self.inner.robot()
    }

    fn check_pose(&mut self, cfg: &JointConfig) -> bool {
        let t = Instant::now();
        let hit = self.inner.check_pose(cfg);
        self.poses.ns += t.elapsed().as_nanos() as u64;
        self.poses.calls += 1;
        self.hits += hit as u64;
        hit
    }

    fn stats(&self) -> CdStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}
