//! Planner execution traces — the interface between the motion planning
//! algorithm (running on the controller) and the accelerator.
//!
//! The original artifact drives its microarchitectural simulator with
//! traces recorded from MPNet: per planning phase, a group of motions plus
//! a function mode is sent to SAS, interleaved with neural-network
//! inferences on the DNN accelerator and controller work (Fig 11). The
//! same structure is reproduced here: `mp-planner` emits a [`PlannerTrace`]
//! and [`crate::mpaccel::MpAccelSystem`] replays it against the hardware
//! models.

use mp_robot::MotionDescriptor;

use crate::sas::FunctionMode;

/// One event in a planner's execution trace.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A neural-network inference offloaded to the DNN accelerator
    /// (Fig 11, step 2), sized in multiply-accumulates.
    NnInference {
        /// MAC operations in the inference.
        macs: u64,
    },
    /// Controller work (running the planning algorithm itself), sized in
    /// instructions.
    Controller {
        /// Executed instruction estimate.
        instructions: u64,
    },
    /// Data movement over the 5 GB/s bus between controller, DNN
    /// accelerator and SAS (Fig 11).
    BusTransfer {
        /// Bytes moved.
        bytes: u64,
    },
    /// A batch of motions dispatched to SAS for collision detection
    /// (Fig 11, step 4).
    CdBatch {
        /// The motions, in schedule order.
        motions: Vec<MotionDescriptor>,
        /// SAS function mode for the batch.
        mode: FunctionMode,
    },
}

/// A full planner execution trace for one motion-planning query.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlannerTrace {
    /// Events in program order.
    pub events: Vec<TraceEvent>,
    /// Whether the planner ultimately found a feasible path.
    pub solved: bool,
}

impl PlannerTrace {
    /// A trace with no events.
    pub fn new() -> PlannerTrace {
        PlannerTrace::default()
    }

    /// Total CD queries implied by the trace (sum of motion pose counts —
    /// an upper bound; early exits reduce the executed count).
    pub fn max_cd_poses(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::CdBatch { motions, .. } => motions.iter().map(|m| m.count as u64).sum(),
                _ => 0,
            })
            .sum()
    }

    /// Number of CD batches.
    pub fn cd_batches(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::CdBatch { .. }))
            .count()
    }

    /// Number of NN inferences.
    pub fn nn_inferences(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::NnInference { .. }))
            .count()
    }

    /// Appends an event.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// Serializes the trace to the artifact's line-based text format, so
    /// traces can be generated once (expensive planning) and replayed many
    /// times — the workflow of the original MPAccel artifact.
    ///
    /// The format is line-oriented: `solved 0|1`, then one line per event
    /// (`nn <macs>`, `ctrl <instructions>`, `bus <bytes>`,
    /// `batch <feasibility|connectivity|complete> <n-motions>` followed by
    /// `n` lines `motion <count> <dof> <start...> <delta...>`).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "solved {}", u8::from(self.solved));
        for e in &self.events {
            match e {
                TraceEvent::NnInference { macs } => {
                    let _ = writeln!(out, "nn {macs}");
                }
                TraceEvent::Controller { instructions } => {
                    let _ = writeln!(out, "ctrl {instructions}");
                }
                TraceEvent::BusTransfer { bytes } => {
                    let _ = writeln!(out, "bus {bytes}");
                }
                TraceEvent::CdBatch { motions, mode } => {
                    let mode = match mode {
                        FunctionMode::Feasibility => "feasibility",
                        FunctionMode::Connectivity => "connectivity",
                        FunctionMode::Complete => "complete",
                    };
                    let _ = writeln!(out, "batch {mode} {}", motions.len());
                    for m in motions {
                        let _ = write!(out, "motion {} {}", m.count, m.start.dof());
                        for v in m.start.as_slice() {
                            let _ = write!(out, " {v}");
                        }
                        for v in m.delta.as_slice() {
                            let _ = write!(out, " {v}");
                        }
                        out.push('\n');
                    }
                }
            }
        }
        out
    }

    /// Parses a trace from the text format of [`PlannerTrace::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseTraceError`] describing the offending line on any
    /// malformed input.
    pub fn from_text(text: &str) -> Result<PlannerTrace, ParseTraceError> {
        let mut trace = PlannerTrace::new();
        let mut lines = text.lines().enumerate().peekable();
        let err = |line: usize, what: &str| ParseTraceError {
            line: line + 1,
            message: what.to_string(),
        };
        // Header.
        let Some((ln, first)) = lines.next() else {
            return Err(err(0, "empty trace"));
        };
        let mut head = first.split_whitespace();
        if head.next() != Some("solved") {
            return Err(err(ln, "expected `solved 0|1` header"));
        }
        trace.solved = match head.next() {
            Some("0") => false,
            Some("1") => true,
            _ => return Err(err(ln, "expected `solved 0|1` header")),
        };
        while let Some((ln, line)) = lines.next() {
            let mut parts = line.split_whitespace();
            match parts.next() {
                None => continue,
                Some("nn") => trace.push(TraceEvent::NnInference {
                    macs: parse_u64(parts.next(), ln, "nn macs")?,
                }),
                Some("ctrl") => trace.push(TraceEvent::Controller {
                    instructions: parse_u64(parts.next(), ln, "ctrl instructions")?,
                }),
                Some("bus") => trace.push(TraceEvent::BusTransfer {
                    bytes: parse_u64(parts.next(), ln, "bus bytes")?,
                }),
                Some("batch") => {
                    let mode = match parts.next() {
                        Some("feasibility") => FunctionMode::Feasibility,
                        Some("connectivity") => FunctionMode::Connectivity,
                        Some("complete") => FunctionMode::Complete,
                        other => return Err(err(ln, &format!("unknown batch mode {other:?}"))),
                    };
                    // The count is untrusted: grow with the motions actually
                    // present instead of preallocating from it.
                    let n = parse_u64(parts.next(), ln, "batch size")?;
                    let mut motions = Vec::new();
                    for _ in 0..n {
                        let Some((mln, mline)) = lines.next() else {
                            return Err(err(ln, "batch truncated"));
                        };
                        motions.push(parse_motion(mline, mln)?);
                    }
                    trace.push(TraceEvent::CdBatch { motions, mode });
                }
                Some(other) => return Err(err(ln, &format!("unknown event `{other}`"))),
            }
        }
        Ok(trace)
    }
}

fn parse_u64(tok: Option<&str>, line: usize, what: &str) -> Result<u64, ParseTraceError> {
    tok.and_then(|t| t.parse().ok()).ok_or(ParseTraceError {
        line: line + 1,
        message: format!("invalid {what}"),
    })
}

fn parse_motion(line: &str, ln: usize) -> Result<MotionDescriptor, ParseTraceError> {
    let err = |what: &str| ParseTraceError {
        line: ln + 1,
        message: what.to_string(),
    };
    let mut parts = line.split_whitespace();
    if parts.next() != Some("motion") {
        return Err(err("expected `motion` line"));
    }
    let count: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err("invalid motion count"))?;
    let dof: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err("invalid motion dof"))?;
    let values: Vec<f32> = parts
        .map(|t| t.parse())
        .collect::<Result<_, _>>()
        .map_err(|_| err("invalid motion value"))?;
    if dof.checked_mul(2) != Some(values.len()) || count < 2 {
        return Err(err("motion line has wrong arity"));
    }
    Ok(MotionDescriptor {
        start: mp_robot::JointConfig::new(values[..dof].to_vec()),
        delta: mp_robot::JointConfig::new(values[dof..].to_vec()),
        count,
    })
}

/// Error parsing a serialized trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the problem.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseTraceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_robot::{JointConfig, Motion};

    fn demo_batch(n: usize) -> TraceEvent {
        let motions = (0..n)
            .map(|i| {
                Motion::new(
                    JointConfig::zeros(2),
                    JointConfig::new(vec![1.0 + i as f32, 0.0]),
                )
                .descriptor(0.1)
            })
            .collect();
        TraceEvent::CdBatch {
            motions,
            mode: FunctionMode::Complete,
        }
    }

    #[test]
    fn counters_over_events() {
        let mut t = PlannerTrace::new();
        t.push(TraceEvent::NnInference { macs: 1000 });
        t.push(demo_batch(3));
        t.push(TraceEvent::Controller { instructions: 50 });
        t.push(TraceEvent::NnInference { macs: 1000 });
        assert_eq!(t.nn_inferences(), 2);
        assert_eq!(t.cd_batches(), 1);
        assert!(t.max_cd_poses() > 0);
    }

    #[test]
    fn empty_trace() {
        let t = PlannerTrace::new();
        assert_eq!(t.max_cd_poses(), 0);
        assert_eq!(t.cd_batches(), 0);
        assert!(!t.solved);
    }

    #[test]
    fn text_roundtrip() {
        let mut t = PlannerTrace::new();
        t.solved = true;
        t.push(TraceEvent::BusTransfer { bytes: 768 });
        t.push(TraceEvent::NnInference { macs: 3_000_000 });
        t.push(demo_batch(3));
        t.push(TraceEvent::Controller { instructions: 512 });
        t.push(TraceEvent::CdBatch {
            motions: vec![],
            mode: FunctionMode::Connectivity,
        });
        let text = t.to_text();
        let back = PlannerTrace::from_text(&text).unwrap();
        assert_eq!(back.solved, t.solved);
        assert_eq!(back.events.len(), t.events.len());
        // Motion payloads survive within float-printing precision.
        let (
            TraceEvent::CdBatch {
                motions: a,
                mode: ma,
            },
            TraceEvent::CdBatch {
                motions: b,
                mode: mb,
            },
        ) = (&t.events[2], &back.events[2])
        else {
            panic!("batch event lost");
        };
        assert_eq!(ma, mb);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.count, y.count);
            for (u, v) in x.start.as_slice().iter().zip(y.start.as_slice()) {
                assert!((u - v).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(PlannerTrace::from_text("").is_err());
        assert!(PlannerTrace::from_text("solved 2").is_err());
        assert!(PlannerTrace::from_text("solved 1\nwat 3").is_err());
        assert!(PlannerTrace::from_text("solved 1\nnn notanumber").is_err());
        assert!(PlannerTrace::from_text("solved 1\nbatch feasibility 1").is_err()); // truncated
        assert!(PlannerTrace::from_text("solved 1\nbatch bogus 0").is_err());
        let e = PlannerTrace::from_text("solved 1\nnn x").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn parse_motion_arity_checked() {
        let text = "solved 0\nbatch complete 1\nmotion 5 2 0.0 1.0 0.1\n"; // missing one value
        assert!(PlannerTrace::from_text(text).is_err());
    }

    #[test]
    fn huge_batch_count_is_an_error_not_an_allocation() {
        let e = PlannerTrace::from_text("solved 1\nbatch feasibility 18446744073709551615")
            .unwrap_err();
        assert_eq!(e.message, "batch truncated");
    }

    #[test]
    fn huge_motion_dof_is_an_arity_error() {
        let dof = usize::MAX / 2 + 1;
        let text = format!("solved 0\nbatch complete 1\nmotion 5 {dof} 0.0 1.0\n");
        let e = PlannerTrace::from_text(&text).unwrap_err();
        assert_eq!(e.message, "motion line has wrong arity");
    }
}
