//! Structural program models: bulk-synchronous step sequences.

use crate::json::Json;

/// One bulk-synchronous step of a modelled program.
#[derive(Debug, Clone)]
pub enum Step {
    /// Work shared across the team: `ops` total abstract operations and
    /// `bytes` total memory traffic; the phase obeys a roofline —
    /// wall time = max(compute time of the most loaded thread, memory
    /// time at the shared bandwidth).
    Parallel {
        /// Total operations in the phase.
        ops: f64,
        /// Total bytes moved through the shared memory system.
        bytes: f64,
        /// Load imbalance: most-loaded thread's share relative to the
        /// even share (1.0 = perfectly balanced; 2.0 ≈ a triangular loop
        /// under a block schedule).
        imbalance: f64,
    },
    /// Every thread redundantly executes the same work (e.g. the pivot
    /// search each LUFact thread repeats).
    Replicated {
        /// Operations per thread.
        ops: f64,
        /// Bytes per thread.
        bytes: f64,
    },
    /// Only the master executes; the team waits (a `@Master` +
    /// barrier pattern).
    Serial {
        /// Operations on the master.
        ops: f64,
        /// Bytes moved by the master.
        bytes: f64,
    },
    /// A team barrier.
    Barrier,
    /// A parallel phase containing `entries` critical-section entries of
    /// `ops_each` operations guarded by **one** lock, overlapped with
    /// `overlap_ops` of ordinary work-shared compute. The serialised lock
    /// time can hide under the compute, but once the lock is busy a
    /// significant fraction of the time, queueing and cache-line handoffs
    /// inflate it (utilisation-dependent contention).
    Critical {
        /// Total entries across the team.
        entries: f64,
        /// Operations per entry (inside the lock).
        ops_each: f64,
        /// Work-shared compute ops overlapping the critical entries.
        overlap_ops: f64,
        /// Memory traffic of the phase.
        bytes: f64,
    },
    /// A parallel phase with fine-grained locked updates spread over
    /// `nlocks` independent locks (the per-particle locks variant):
    /// lock costs parallelise, with a collision probability
    /// ∝ threads/nlocks.
    Locked {
        /// Total locked updates across the team.
        entries: f64,
        /// Operations per update.
        ops_each: f64,
        /// Number of distinct locks.
        nlocks: f64,
        /// Work-shared compute ops overlapping the updates.
        overlap_ops: f64,
        /// Memory traffic of the phase.
        bytes: f64,
    },
}

impl Step {
    /// JSON encoding, externally tagged like the serde derive this
    /// replaced: `{"Parallel": {"ops": …}}`, `"Barrier"`.
    pub fn to_json(&self) -> Json {
        let obj = |tag: &str, fields: Vec<(&str, f64)>| {
            Json::Obj(vec![(
                tag.to_owned(),
                Json::Obj(
                    fields
                        .into_iter()
                        .map(|(k, v)| (k.to_owned(), Json::Num(v)))
                        .collect(),
                ),
            )])
        };
        match *self {
            Step::Parallel {
                ops,
                bytes,
                imbalance,
            } => obj(
                "Parallel",
                vec![("ops", ops), ("bytes", bytes), ("imbalance", imbalance)],
            ),
            Step::Replicated { ops, bytes } => {
                obj("Replicated", vec![("ops", ops), ("bytes", bytes)])
            }
            Step::Serial { ops, bytes } => obj("Serial", vec![("ops", ops), ("bytes", bytes)]),
            Step::Barrier => Json::Str("Barrier".to_owned()),
            Step::Critical {
                entries,
                ops_each,
                overlap_ops,
                bytes,
            } => obj(
                "Critical",
                vec![
                    ("entries", entries),
                    ("ops_each", ops_each),
                    ("overlap_ops", overlap_ops),
                    ("bytes", bytes),
                ],
            ),
            Step::Locked {
                entries,
                ops_each,
                nlocks,
                overlap_ops,
                bytes,
            } => obj(
                "Locked",
                vec![
                    ("entries", entries),
                    ("ops_each", ops_each),
                    ("nlocks", nlocks),
                    ("overlap_ops", overlap_ops),
                    ("bytes", bytes),
                ],
            ),
        }
    }

    /// Inverse of [`to_json`](Self::to_json).
    pub fn from_json(j: &Json) -> Result<Step, String> {
        if j.as_str() == Some("Barrier") {
            return Ok(Step::Barrier);
        }
        let (tag, body) = match j {
            Json::Obj(pairs) if pairs.len() == 1 => (&pairs[0].0, &pairs[0].1),
            _ => return Err("step must be \"Barrier\" or a single-key object".to_owned()),
        };
        match tag.as_str() {
            "Parallel" => Ok(Step::Parallel {
                ops: body.f64_field("ops")?,
                bytes: body.f64_field("bytes")?,
                imbalance: body.f64_field("imbalance")?,
            }),
            "Replicated" => Ok(Step::Replicated {
                ops: body.f64_field("ops")?,
                bytes: body.f64_field("bytes")?,
            }),
            "Serial" => Ok(Step::Serial {
                ops: body.f64_field("ops")?,
                bytes: body.f64_field("bytes")?,
            }),
            "Critical" => Ok(Step::Critical {
                entries: body.f64_field("entries")?,
                ops_each: body.f64_field("ops_each")?,
                overlap_ops: body.f64_field("overlap_ops")?,
                bytes: body.f64_field("bytes")?,
            }),
            "Locked" => Ok(Step::Locked {
                entries: body.f64_field("entries")?,
                ops_each: body.f64_field("ops_each")?,
                nlocks: body.f64_field("nlocks")?,
                overlap_ops: body.f64_field("overlap_ops")?,
                bytes: body.f64_field("bytes")?,
            }),
            other => Err(format!("unknown step kind `{other}`")),
        }
    }
}

/// A modelled program: a name plus its step sequence.
#[derive(Debug, Clone)]
pub struct Program {
    /// Display name (benchmark / variant).
    pub name: String,
    /// Bulk-synchronous steps.
    pub steps: Vec<Step>,
}

impl Program {
    /// Build a program.
    pub fn new(name: impl Into<String>, steps: Vec<Step>) -> Self {
        Self {
            name: name.into(),
            steps,
        }
    }

    /// Total modelled operations (compute volume), for sanity checks.
    pub fn total_ops(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Parallel { ops, .. } => *ops,
                Step::Replicated { ops, .. } => *ops,
                Step::Serial { ops, .. } => *ops,
                Step::Critical {
                    entries,
                    ops_each,
                    overlap_ops,
                    ..
                } => entries * ops_each + overlap_ops,
                Step::Locked {
                    entries,
                    ops_each,
                    overlap_ops,
                    ..
                } => entries * ops_each + overlap_ops,
                Step::Barrier => 0.0,
            })
            .sum()
    }

    /// JSON encoding (`{"name": …, "steps": […]}`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_owned(), Json::Str(self.name.clone())),
            (
                "steps".to_owned(),
                Json::Arr(self.steps.iter().map(Step::to_json).collect()),
            ),
        ])
    }

    /// Inverse of [`to_json`](Self::to_json).
    pub fn from_json(j: &Json) -> Result<Program, String> {
        let name = j.str_field("name")?;
        let steps = j
            .get("steps")
            .and_then(Json::as_array)
            .ok_or("missing array field `steps`")?
            .iter()
            .map(Step::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Program { name, steps })
    }

    /// Repeat a step group `times` times (iteration loops).
    pub fn repeat(name: impl Into<String>, group: Vec<Step>, times: usize) -> Self {
        let mut steps = Vec::with_capacity(group.len() * times);
        for _ in 0..times {
            steps.extend(group.iter().cloned());
        }
        Self {
            name: name.into(),
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_ops_sums_all_step_kinds() {
        let p = Program::new(
            "t",
            vec![
                Step::Parallel {
                    ops: 100.0,
                    bytes: 0.0,
                    imbalance: 1.0,
                },
                Step::Replicated {
                    ops: 10.0,
                    bytes: 0.0,
                },
                Step::Serial {
                    ops: 5.0,
                    bytes: 0.0,
                },
                Step::Critical {
                    entries: 4.0,
                    ops_each: 2.0,
                    overlap_ops: 7.0,
                    bytes: 0.0,
                },
                Step::Locked {
                    entries: 3.0,
                    ops_each: 1.0,
                    nlocks: 8.0,
                    overlap_ops: 2.0,
                    bytes: 0.0,
                },
                Step::Barrier,
            ],
        );
        assert_eq!(p.total_ops(), 100.0 + 10.0 + 5.0 + 8.0 + 7.0 + 3.0 + 2.0);
    }

    #[test]
    fn repeat_multiplies_steps() {
        let p = Program::repeat("r", vec![Step::Barrier, Step::Barrier], 5);
        assert_eq!(p.steps.len(), 10);
    }
}
