//! The failure-timeline reconstructor.
//!
//! Merges four evidence sources — the security-event ledger, the captured
//! black boxes, the flight recorder's recovery spans and its instant
//! markers (which include chaos injection records) — into one reconstructed
//! timeline, rendered both human-readable and as JSON.
//!
//! Beyond rendering, [`Timeline::check_failover`] asserts that the failover
//! phase sequence the *ledger* tells (inject → detect → trap → recover →
//! re-establish) agrees with the sequence the *span/marker stream* tells:
//! the two records are produced by different layers through different
//! plumbing, so their agreement is evidence neither was fabricated.

use std::fmt;

use cronus_obs::{FlightRecorder, Json};
use cronus_sim::SimNs;

use crate::blackbox::BlackBox;
use crate::ledger::LedgerExport;
use crate::record::SecurityEvent;

/// The canonical failover phases, in the order the paper's proceed-trap
/// design mandates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// The chaos injector fired a fault.
    Inject,
    /// Some layer detected the failure (trap conversion, sweep, deadline).
    Detect,
    /// A surviving enclave trapped on poisoned memory and was signalled.
    Trap,
    /// The failed partition was cleared and reloaded.
    Recover,
    /// Communication was re-established on a fresh stream.
    Reestablish,
}

/// All phases in canonical order.
pub const PHASES: [Phase; 5] = [
    Phase::Inject,
    Phase::Detect,
    Phase::Trap,
    Phase::Recover,
    Phase::Reestablish,
];

impl Phase {
    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Inject => "inject",
            Phase::Detect => "detect",
            Phase::Trap => "trap",
            Phase::Recover => "recover",
            Phase::Reestablish => "re-establish",
        }
    }

    fn rank(self) -> usize {
        PHASES
            .iter()
            .position(|p| *p == self)
            .unwrap_or(PHASES.len())
    }
}

/// A failover-ordering failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TimelineError {
    /// A phase appears in one evidence source but not the other.
    MissingPhase {
        /// The phase.
        phase: Phase,
        /// The source it is missing from (`"ledger"` or `"spans"`).
        missing_from: &'static str,
    },
    /// A source observed two phases in the wrong order.
    OutOfOrder {
        /// The offending source (`"ledger"` or `"spans"`).
        source: &'static str,
        /// The phase observed first.
        first: Phase,
        /// The canonically-earlier phase observed after it.
        then: Phase,
    },
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimelineError::MissingPhase {
                phase,
                missing_from,
            } => write!(
                f,
                "phase {} is missing from the {missing_from} evidence",
                phase.name()
            ),
            TimelineError::OutOfOrder {
                source,
                first,
                then,
            } => write!(
                f,
                "{source} evidence orders {} before {}",
                first.name(),
                then.name()
            ),
        }
    }
}

/// One recovery-track span lifted out of the flight recorder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoverySpan {
    /// Span name (`trap p1`, `clear p2`, `reload p2`, ...).
    pub name: String,
    /// Start instant.
    pub start: SimNs,
    /// End instant (still-open spans are clamped to their start).
    pub end: SimNs,
}

/// One instant marker lifted out of the flight recorder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MarkerEntry {
    /// Marker label (`fault-injected:kill-callee`,
    /// `failure-detected:proceed-trap`, ...).
    pub name: String,
    /// When it fired.
    pub at: SimNs,
}

/// The reconstructed failure timeline.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// The ledger, merged across chains in global append order.
    pub export: LedgerExport,
    /// Captured black boxes, in capture order.
    pub blackboxes: Vec<BlackBox>,
    /// Spans with category `"recovery"`, in start order.
    pub recovery: Vec<RecoverySpan>,
    /// Instant markers, in firing order.
    pub markers: Vec<MarkerEntry>,
}

/// Lifts recovery spans and markers out of a recorder and merges them with
/// the ledger export and black boxes into a [`Timeline`].
pub fn reconstruct(
    export: &LedgerExport,
    blackboxes: &[BlackBox],
    rec: &FlightRecorder,
) -> Timeline {
    let (mut recovery, markers) = rec.with(|r| {
        let recovery: Vec<RecoverySpan> = r
            .spans
            .spans()
            .iter()
            .filter(|s| s.cat == "recovery")
            .map(|s| RecoverySpan {
                name: s.name.clone(),
                start: s.start,
                end: s.end.unwrap_or(s.start).max(s.start),
            })
            .collect();
        let markers: Vec<MarkerEntry> = r
            .spans
            .instants()
            .iter()
            .map(|m| MarkerEntry {
                at: m.at,
                name: m.name.clone(),
            })
            .collect();
        (recovery, markers)
    });
    recovery.sort_by(|a, b| (a.start, &a.name).cmp(&(b.start, &b.name)));
    Timeline {
        export: export.clone(),
        blackboxes: blackboxes.to_vec(),
        recovery,
        markers,
    }
}

impl Timeline {
    /// The failover phase sequence told by the ledger: first occurrence of
    /// each phase, in global append (`seq`) order.
    pub fn ledger_phases(&self) -> Vec<(Phase, SimNs)> {
        let mut out: Vec<(Phase, SimNs)> = Vec::new();
        for rec in self.export.records_by_seq() {
            let phase = match &rec.event {
                SecurityEvent::FaultInjected { .. } => Phase::Inject,
                SecurityEvent::FailureDetected { .. } | SecurityEvent::StreamQuarantined { .. } => {
                    Phase::Detect
                }
                SecurityEvent::TrapHandled { .. } => Phase::Trap,
                SecurityEvent::RecoveryStep { .. } => Phase::Recover,
                SecurityEvent::StreamReopened { .. } => Phase::Reestablish,
                _ => continue,
            };
            if !out.iter().any(|(p, _)| *p == phase) {
                out.push((phase, rec.at));
            }
        }
        out
    }

    /// The failover phase sequence told by the span/marker stream: first
    /// occurrence of each phase, ordered by instant (ties broken by
    /// canonical phase order, which keeps same-virtual-instant cascades
    /// deterministic).
    pub fn span_phases(&self) -> Vec<(Phase, SimNs)> {
        let mut seen: Vec<(SimNs, usize, Phase)> = Vec::new();
        for m in &self.markers {
            // Only markers stamped on the recorder timebase participate;
            // machine-event mirrors (`fault-injected`, `failover:invalidated`
            // with no suffix) carry the machine-event clock and would not be
            // comparable with the recovery spans.
            let phase = if m.name.starts_with("fault-injected:") {
                Phase::Inject
            } else if m.name.starts_with("failure-detected") {
                Phase::Detect
            } else if m.name.starts_with("stream-reopened") {
                Phase::Reestablish
            } else {
                continue;
            };
            seen.push((m.at, phase.rank(), phase));
        }
        for s in &self.recovery {
            let phase = if s.name.starts_with("trap ") {
                Phase::Trap
            } else if s.name.starts_with("clear ") || s.name.starts_with("reload ") {
                Phase::Recover
            } else {
                continue;
            };
            seen.push((s.start, phase.rank(), phase));
        }
        seen.sort();
        let mut out: Vec<(Phase, SimNs)> = Vec::new();
        for (at, _, phase) in seen {
            if !out.iter().any(|(p, _)| *p == phase) {
                out.push((phase, at));
            }
        }
        out
    }

    /// Asserts the two evidence sources agree: the same phases are present
    /// in both, both observe them in the same order, and that order is a
    /// subsequence of the canonical inject → detect → trap → recover →
    /// re-establish sequence.
    pub fn check_failover(&self) -> Result<Vec<Phase>, TimelineError> {
        let ledger: Vec<Phase> = self.ledger_phases().into_iter().map(|(p, _)| p).collect();
        let spans: Vec<Phase> = self.span_phases().into_iter().map(|(p, _)| p).collect();
        for p in &ledger {
            if !spans.contains(p) {
                return Err(TimelineError::MissingPhase {
                    phase: *p,
                    missing_from: "spans",
                });
            }
        }
        for p in &spans {
            if !ledger.contains(p) {
                return Err(TimelineError::MissingPhase {
                    phase: *p,
                    missing_from: "ledger",
                });
            }
        }
        for (source, order) in [("ledger", &ledger), ("spans", &spans)] {
            for w in order.windows(2) {
                if w[0].rank() >= w[1].rank() {
                    return Err(TimelineError::OutOfOrder {
                        source,
                        first: w[0],
                        then: w[1],
                    });
                }
            }
        }
        // Same phase set + both canonically ordered ⇒ identical sequences.
        Ok(ledger)
    }

    /// Human-readable timeline rendering. Deterministic: two runs with the
    /// same seed produce byte-identical output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== forensics timeline (seed {}) ==\n",
            self.export.seed
        ));
        out.push_str(&format!(
            "-- ledger: {} records across {} chains --\n",
            self.export.records(),
            self.export.chains.len()
        ));
        for rec in self.export.records_by_seq() {
            out.push_str(&rec.line());
            out.push('\n');
        }
        out.push_str(&format!("-- recovery spans: {} --\n", self.recovery.len()));
        for s in &self.recovery {
            out.push_str(&format!(
                "  {} [{}..{}]\n",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            ));
        }
        out.push_str(&format!("-- markers: {} --\n", self.markers.len()));
        for m in &self.markers {
            out.push_str(&format!("  t={} {}\n", m.at.as_nanos(), m.name));
        }
        out.push_str(&format!("-- black boxes: {} --\n", self.blackboxes.len()));
        for bb in &self.blackboxes {
            for line in bb.render().lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
        out.push_str("-- failover phases --\n");
        let fmt_phases = |phases: &[(Phase, SimNs)]| -> String {
            if phases.is_empty() {
                return "(none)".to_string();
            }
            phases
                .iter()
                .map(|(p, at)| format!("{}@{}", p.name(), at.as_nanos()))
                .collect::<Vec<_>>()
                .join(" -> ")
        };
        out.push_str(&format!(
            "  ledger: {}\n",
            fmt_phases(&self.ledger_phases())
        ));
        out.push_str(&format!("  spans:  {}\n", fmt_phases(&self.span_phases())));
        match self.check_failover() {
            Ok(phases) => out.push_str(&format!(
                "  verdict: sources agree ({} phases)\n",
                phases.len()
            )),
            Err(e) => out.push_str(&format!("  verdict: DISAGREE — {e}\n")),
        }
        out
    }

    /// JSON rendering of the same content.
    pub fn to_json(&self) -> Json {
        let records: Vec<Json> = self
            .export
            .records_by_seq()
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("chain", Json::U64(r.chain as u64)),
                    ("index", Json::U64(r.index)),
                    ("seq", Json::U64(r.seq)),
                    ("at_ns", Json::U64(r.at.as_nanos())),
                    ("kind", Json::Str(r.event.kind().to_string())),
                    ("event", Json::Str(r.event.canonical())),
                    ("digest", Json::Str(r.digest().to_hex())),
                ])
            })
            .collect();
        let recovery: Vec<Json> = self
            .recovery
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::U64(s.start.as_nanos())),
                    ("end_ns", Json::U64(s.end.as_nanos())),
                ])
            })
            .collect();
        let markers: Vec<Json> = self
            .markers
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("name", Json::Str(m.name.clone())),
                    ("at_ns", Json::U64(m.at.as_nanos())),
                ])
            })
            .collect();
        let phases = |phases: Vec<(Phase, SimNs)>| {
            Json::Arr(
                phases
                    .into_iter()
                    .map(|(p, at)| {
                        Json::obj(vec![
                            ("phase", Json::Str(p.name().to_string())),
                            ("at_ns", Json::U64(at.as_nanos())),
                        ])
                    })
                    .collect(),
            )
        };
        Json::obj(vec![
            ("seed", Json::Str(self.export.seed.clone())),
            ("records", Json::Arr(records)),
            ("recovery_spans", Json::Arr(recovery)),
            ("markers", Json::Arr(markers)),
            (
                "blackboxes",
                Json::Arr(self.blackboxes.iter().map(BlackBox::to_json).collect()),
            ),
            ("ledger_phases", phases(self.ledger_phases())),
            ("span_phases", phases(self.span_phases())),
            ("ordering_agrees", Json::Bool(self.check_failover().is_ok())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Ledger;
    use cronus_obs::{Event, Work};

    fn ns(v: u64) -> SimNs {
        SimNs::from_nanos(v)
    }

    fn failover_ledger() -> Ledger {
        let ledger = Ledger::new("seed");
        ledger.append(
            crate::record::MONITOR_CHAIN,
            ns(10),
            SecurityEvent::FaultInjected {
                phase: "kernel",
                action: "kill-callee",
                stream: 1,
            },
        );
        ledger.append(
            1,
            ns(20),
            SecurityEvent::StreamQuarantined {
                stream: 1,
                channel: "proceed-trap",
            },
        );
        ledger.append(
            1,
            ns(20),
            SecurityEvent::TrapHandled {
                survivor: 1,
                ppn: 0x40,
                signalled: 9,
            },
        );
        ledger.append(
            2,
            ns(30),
            SecurityEvent::RecoveryStep {
                asid: 2,
                step: "clear",
            },
        );
        ledger.append(1, ns(40), SecurityEvent::StreamReopened { old: 1, new: 2 });
        ledger
    }

    fn failover_recorder() -> FlightRecorder {
        let rec = FlightRecorder::new();
        rec.record([
            Event::Instant("fault-injected:kill-callee", ns(10)),
            Event::Instant("failure-detected:proceed-trap", ns(20)),
            Work::spanned("recovery", "trap p1", "recovery", ns(20)..ns(25)).into(),
            Work::spanned("recovery", "clear p2", "recovery", ns(30)..ns(35)).into(),
            Event::Instant("stream-reopened", ns(40)),
        ]);
        rec
    }

    #[test]
    fn agreeing_sources_pass() {
        let tl = reconstruct(&failover_ledger().export(), &[], &failover_recorder());
        let phases = tl.check_failover().expect("sources agree");
        assert_eq!(phases.len(), 5);
        let text = tl.render();
        assert!(text.contains("verdict: sources agree (5 phases)"), "{text}");
        assert!(cronus_obs::is_well_formed(&tl.to_json().render()));
    }

    #[test]
    fn missing_span_evidence_is_flagged() {
        let rec = FlightRecorder::new();
        rec.record([Event::Instant("fault-injected:kill-callee", ns(10))]);
        let tl = reconstruct(&failover_ledger().export(), &[], &rec);
        assert_eq!(
            tl.check_failover(),
            Err(TimelineError::MissingPhase {
                phase: Phase::Detect,
                missing_from: "spans",
            })
        );
    }

    #[test]
    fn out_of_order_ledger_is_flagged() {
        let ledger = Ledger::new("seed");
        ledger.append(
            2,
            ns(5),
            SecurityEvent::RecoveryStep {
                asid: 2,
                step: "clear",
            },
        );
        ledger.append(
            crate::record::MONITOR_CHAIN,
            ns(10),
            SecurityEvent::FaultInjected {
                phase: "kernel",
                action: "kill-callee",
                stream: 1,
            },
        );
        let rec = FlightRecorder::new();
        rec.record([
            Work::spanned("recovery", "clear p2", "recovery", ns(5)..ns(6)).into(),
            Event::Instant("fault-injected:kill-callee", ns(10)),
        ]);
        let tl = reconstruct(&ledger.export(), &[], &rec);
        assert_eq!(
            tl.check_failover(),
            Err(TimelineError::OutOfOrder {
                source: "ledger",
                first: Phase::Recover,
                then: Phase::Inject,
            })
        );
    }

    #[test]
    fn render_is_deterministic() {
        let a = reconstruct(&failover_ledger().export(), &[], &failover_recorder());
        let b = reconstruct(&failover_ledger().export(), &[], &failover_recorder());
        assert_eq!(a.render(), b.render());
    }
}
