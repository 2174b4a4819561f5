//! Trace analytics: turns an event stream back into answers.
//!
//! PR 6's tracing records *what happened*; this module answers *what
//! bound the makespan*. [`analyze_events`] consumes the structured
//! [`Event`] stream (live from a `RingRecorder`, or re-parsed from a
//! `--trace-out` Chrome trace via [`parse_trace`]) and produces an
//! [`AnalyzeReport`]:
//!
//! - **Critical path** — per-task timelines are rebuilt from
//!   claim/route/stall/preemption events, then the longest blocking
//!   chain is walked backwards from the latest-finishing task. Each
//!   hop prefers a ledger wait-for predecessor (a [`Event::WaitEdge`]
//!   holder the task actually queued behind), falling back to
//!   completion order when no recorded edge reaches further back.
//!   Every link carries the task's dominant stall cause.
//! - **Utilization** — [`Event::AncillaState`] transitions are
//!   integrated over sim time into per-ancilla (and per-region)
//!   busy/contended occupancy fractions and queue-depth statistics.
//! - **Stall attribution** — per-cause stall-cycle totals and the
//!   dominant cause.
//!
//! All analysis runs on simulation rounds — wall-clock timestamps are
//! ignored, so a timestamp-normalized golden trace analyzes
//! identically to a live one. Partial inputs are *reported*, never
//! papered over: ring-buffer drops and truncated trace files surface
//! as [`AnalyzeReport::warnings`] and machine-readable flags.

use crate::chrome::{parse_json, Json};
use crate::{Event, Phase, StallCause};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

/// A trace document decoded back into structured events.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTrace {
    /// The recovered events, in recording order.
    pub events: Vec<Event>,
    /// Ring-buffer drops recorded in the trace's `otherData`.
    pub dropped: u64,
    /// The document was cut off; `events` is the recoverable prefix.
    pub truncated: bool,
}

fn as_bool(j: &Json) -> Option<bool> {
    match j {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Decodes one `traceEvents` element back into an [`Event`].
/// Metadata records and unknown names decode to `None`.
fn event_from_json(ev: &Json) -> Option<Event> {
    let name = ev.get("name").and_then(Json::as_str)?;
    let ph = ev.get("ph").and_then(Json::as_str)?;
    if ph == "M" {
        return None;
    }
    let args = ev.get("args")?;
    let num = |key: &str| args.get(key).and_then(Json::as_num).map(|v| v as u64);
    let num32 = |key: &str| args.get(key).and_then(Json::as_num).map(|v| v as u32);
    let flag = |key: &str| args.get(key).and_then(as_bool);
    if let Some(phase) = Phase::ALL.iter().find(|p| p.name() == name) {
        let dur_us = ev.get("dur").and_then(Json::as_num)?;
        return Some(Event::PhaseSpan {
            phase: *phase,
            round: num("round")?,
            dur_ns: (dur_us * 1000.0).round() as u64,
        });
    }
    Some(match name {
        "claim" => Event::Claim {
            round: num("round")?,
            task: num("task")?,
            ancilla: num32("ancilla")?,
        },
        "preemption" => Event::Preemption {
            round: num("round")?,
            task: num("task")?,
            ancilla: num32("ancilla")?,
            class_won: flag("class_won")?,
        },
        "preemption_rejected" => Event::PreemptionRejected {
            round: num("round")?,
            task: num("task")?,
            ancilla: num32("ancilla")?,
        },
        "window_enqueued" => Event::WindowEnqueued {
            round: num("round")?,
            window: num("window")?,
            ready_at: num("ready_at")?,
        },
        "window_retired" => Event::WindowRetired {
            round: num("round")?,
            window: num("window")?,
            stalled_rounds: num("stalled_rounds")?,
        },
        "route_planned" => Event::RoutePlanned {
            round: num("round")?,
            task: num("task")?,
            hops: num32("hops")?,
            replanned: flag("replanned")?,
        },
        "stall" => {
            let cause_name = args.get("cause").and_then(Json::as_str)?;
            let cause = *StallCause::ALL.iter().find(|c| c.name() == cause_name)?;
            Event::Stall {
                round: num("round")?,
                task: num("task")?,
                cause,
            }
        }
        "wait_edge" => Event::WaitEdge {
            round: num("round")?,
            waiter: num("waiter")?,
            holder: num("holder")?,
            ancilla: num32("ancilla")?,
        },
        "ancilla_state" => Event::AncillaState {
            round: num("round")?,
            ancilla: num32("ancilla")?,
            region: num32("region")?,
            depth: num32("depth")?,
            busy: flag("busy")?,
        },
        "job_done" => Event::JobDone {
            index: num("index")?,
            total: num("total")?,
            wall_ns: num("wall_ns")?,
            resumed: flag("resumed")?,
        },
        _ => return None,
    })
}

/// Parses a Chrome trace document (as written by
/// [`crate::RingRecorder::to_chrome_trace`]) back into events.
///
/// A well-formed document parses exactly. A *truncated* document
/// (interrupted run, partial upload) is recovered line by line — the
/// renderer emits one event per line — returning every decodable
/// prefix event with [`ParsedTrace::truncated`] set so downstream
/// reports can say so instead of silently presenting partial data.
///
/// # Errors
///
/// Returns a message when the text is not a trace at all (no
/// `traceEvents`, nothing recoverable).
pub fn parse_trace(text: &str) -> Result<ParsedTrace, String> {
    if let Ok(doc) = parse_json(text) {
        let events_json = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("missing `traceEvents` array")?;
        let events = events_json.iter().filter_map(event_from_json).collect();
        let dropped = doc
            .get("otherData")
            .and_then(|o| o.get("dropped_events"))
            .and_then(Json::as_num)
            .unwrap_or(0.0) as u64;
        return Ok(ParsedTrace {
            events,
            dropped,
            truncated: false,
        });
    }
    // Whole-document parse failed: recover the one-event-per-line
    // prefix. The first line is the `{"traceEvents":[` header; every
    // following line is one JSON object with the separating comma at
    // the end of the *previous* line.
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    if !header.starts_with("{\"traceEvents\":[") {
        return Err("not a trace document (no `traceEvents` header)".into());
    }
    let mut events = Vec::new();
    let mut dropped = 0;
    for line in lines {
        let obj = line.trim().trim_end_matches(',');
        if obj.starts_with('{') {
            match parse_json(obj) {
                Ok(v) => {
                    if let Some(ev) = event_from_json(&v) {
                        events.push(ev);
                    }
                }
                // The cut-off line: stop, everything before it stands.
                Err(_) => break,
            }
        } else if let Some(rest) = obj.find("\"dropped_events\":").map(|i| &obj[i + 17..]) {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            dropped = digits.parse().unwrap_or(0);
        }
    }
    Ok(ParsedTrace {
        events,
        dropped,
        truncated: true,
    })
}

/// One hop of the critical path: a task's active span plus why it
/// was not making progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLink {
    /// The task (gate index).
    pub task: u64,
    /// First round the task was observed active.
    pub from_round: u64,
    /// Last round the task was observed active.
    pub to_round: u64,
    /// The task's dominant stall cause (`None` when it never stalled).
    pub cause: Option<StallCause>,
    /// Total stall cycles attributed to the task (all causes).
    pub stall_rounds: u64,
    /// The hop to the previous link followed a recorded ledger
    /// wait-for edge (`false`: completion-order fallback).
    pub wait_for: bool,
}

impl PathLink {
    /// The link's span length in rounds.
    pub fn span(&self) -> u64 {
        self.to_round.saturating_sub(self.from_round)
    }
}

/// Occupancy summary of one ancilla over the traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AncillaUtil {
    /// Ancilla (dense index).
    pub ancilla: u32,
    /// Its region in the fabric's region partition.
    pub region: u32,
    /// Fraction of rounds the ancilla was occupied or held.
    pub busy_fraction: f64,
    /// Fraction of rounds at least two reservations were queued
    /// (someone was waiting behind the holder).
    pub contended_fraction: f64,
    /// Peak reservation-queue depth.
    pub peak_depth: u32,
}

/// The structured bottleneck report produced by [`analyze_events`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalyzeReport {
    /// Makespan: the largest round stamped on any event.
    pub total_rounds: u64,
    /// Number of events analyzed.
    pub events: usize,
    /// Number of distinct tasks observed.
    pub tasks: usize,
    /// The longest blocking chain, earliest link first.
    pub critical_path: Vec<PathLink>,
    /// Rounds covered by the path (overlap-free union of link spans).
    pub covered_rounds: u64,
    /// Stall cycles per cause, indexed by [`StallCause::index`].
    pub stall_rounds: [u64; 4],
    /// Per-ancilla occupancy, ascending by ancilla index (only
    /// ancillas that emitted at least one state transition appear).
    pub utilization: Vec<AncillaUtil>,
    /// Per-region busy fraction (region, fraction), ascending.
    pub region_busy: Vec<(u32, f64)>,
    /// Total queued reservations over time: `(round, total_depth)`
    /// at every change.
    pub queue_depth: Vec<(u64, u64)>,
    /// Events evicted from the ring before the trace was written.
    pub dropped: u64,
    /// The trace document was truncated.
    pub truncated: bool,
    /// Human-readable caveats (drops, truncation).
    pub warnings: Vec<String>,
}

impl AnalyzeReport {
    /// The stall cause with the most attributed cycles, if any task
    /// ever stalled.
    pub fn dominant_stall_cause(&self) -> Option<StallCause> {
        let (idx, &max) = self
            .stall_rounds
            .iter()
            .enumerate()
            .max_by_key(|&(i, &n)| (n, std::cmp::Reverse(i)))?;
        (max > 0).then(|| StallCause::ALL[idx])
    }

    /// Fraction of the makespan covered by the critical path.
    pub fn coverage_fraction(&self) -> f64 {
        if self.total_rounds == 0 {
            0.0
        } else {
            self.covered_rounds as f64 / self.total_rounds as f64
        }
    }

    /// The `k` busiest ancillas, descending by busy fraction (ties
    /// broken by ascending index).
    pub fn hot_ancillas(&self, k: usize) -> Vec<AncillaUtil> {
        let mut sorted = self.utilization.clone();
        sorted.sort_by(|a, b| {
            b.busy_fraction
                .partial_cmp(&a.busy_fraction)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.ancilla.cmp(&b.ancilla))
        });
        sorted.truncate(k);
        sorted
    }

    /// Peak total queue depth and the round it occurred.
    pub fn peak_queue_depth(&self) -> (u64, u64) {
        self.queue_depth.iter().fold(
            (0, 0),
            |best, &(round, depth)| {
                if depth > best.1 {
                    (round, depth)
                } else {
                    best
                }
            },
        )
    }

    /// Renders the human-readable bottleneck report, listing at most
    /// `top_k` hot ancillas.
    pub fn render_text(&self, top_k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== rescq analyze ==");
        let _ = writeln!(
            out,
            "events: {}   tasks: {}   makespan: {} rounds",
            self.events, self.tasks, self.total_rounds
        );
        for w in &self.warnings {
            let _ = writeln!(out, "WARNING: {w}");
        }

        let _ = writeln!(out, "\n-- stall attribution --");
        let total_stalls: u64 = self.stall_rounds.iter().sum();
        if total_stalls == 0 {
            let _ = writeln!(out, "no stalls recorded");
        } else {
            let dominant = self.dominant_stall_cause();
            let mut order: Vec<StallCause> = StallCause::ALL.to_vec();
            order.sort_by_key(|c| std::cmp::Reverse(self.stall_rounds[c.index()]));
            for cause in order {
                let n = self.stall_rounds[cause.index()];
                if n == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {:<20} {:>8} cycles  {:>5.1}%{}",
                    cause.name(),
                    n,
                    n as f64 / total_stalls as f64 * 100.0,
                    if dominant == Some(cause) {
                        "  <- dominant"
                    } else {
                        ""
                    }
                );
            }
        }

        let _ = writeln!(
            out,
            "\n-- critical path ({} links, covering {}/{} rounds = {:.1}%) --",
            self.critical_path.len(),
            self.covered_rounds,
            self.total_rounds,
            self.coverage_fraction() * 100.0
        );
        for link in &self.critical_path {
            let _ = writeln!(
                out,
                "  task {:<6} rounds {:>8}..{:<8} {:<20} [{}]",
                link.task,
                link.from_round,
                link.to_round,
                link.cause.map(StallCause::name).unwrap_or("no_stall"),
                if link.wait_for {
                    "wait-for"
                } else {
                    "ordering"
                }
            );
        }

        let hot = self.hot_ancillas(top_k);
        let _ = writeln!(
            out,
            "\n-- hot ancillas (top {} of {}) --",
            hot.len(),
            self.utilization.len()
        );
        for u in &hot {
            let _ = writeln!(
                out,
                "  a{:<5} region {:<3} busy {:>5.1}%  contended {:>5.1}%  peak depth {}",
                u.ancilla,
                u.region,
                u.busy_fraction * 100.0,
                u.contended_fraction * 100.0,
                u.peak_depth
            );
        }
        if !self.region_busy.is_empty() {
            let _ = writeln!(out, "\n-- region utilization --");
            for &(region, frac) in &self.region_busy {
                let _ = writeln!(out, "  region {:<3} busy {:>5.1}%", region, frac * 100.0);
            }
        }

        let _ = writeln!(
            out,
            "\n-- utilization histogram (ancillas per busy decile) --"
        );
        let mut deciles = [0usize; 10];
        for u in &self.utilization {
            let idx = ((u.busy_fraction * 10.0) as usize).min(9);
            deciles[idx] += 1;
        }
        for (i, &n) in deciles.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:>3}-{:>3}%  {}{}",
                i * 10,
                (i + 1) * 10,
                "#".repeat(n.min(60)),
                if n > 0 {
                    format!(" {n}")
                } else {
                    String::new()
                }
            );
        }

        let (peak_round, peak_depth) = self.peak_queue_depth();
        let _ = writeln!(
            out,
            "\npeak total queue depth: {peak_depth} (round {peak_round})"
        );
        out
    }

    /// Renders the machine-readable report, listing at most `top_k`
    /// hot ancillas.
    pub fn to_json(&self, top_k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"total_rounds\": {},", self.total_rounds);
        let _ = writeln!(out, "  \"events\": {},", self.events);
        let _ = writeln!(out, "  \"tasks\": {},", self.tasks);
        let _ = writeln!(out, "  \"dropped\": {},", self.dropped);
        let _ = writeln!(out, "  \"truncated\": {},", self.truncated);
        let _ = write!(out, "  \"warnings\": [");
        for (i, w) in self.warnings.iter().enumerate() {
            let comma = if i + 1 < self.warnings.len() {
                ", "
            } else {
                ""
            };
            let _ = write!(out, "\"{}\"{comma}", w.replace('"', "'"));
        }
        let _ = writeln!(out, "],");
        let _ = writeln!(
            out,
            "  \"dominant_stall_cause\": {},",
            match self.dominant_stall_cause() {
                Some(c) => format!("\"{}\"", c.name()),
                None => "null".into(),
            }
        );
        let _ = writeln!(out, "  \"stall_rounds\": {{");
        for (i, cause) in StallCause::ALL.iter().enumerate() {
            let comma = if i + 1 < StallCause::ALL.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    \"{}\": {}{comma}",
                cause.name(),
                self.stall_rounds[i]
            );
        }
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"covered_rounds\": {},", self.covered_rounds);
        let _ = writeln!(
            out,
            "  \"coverage_fraction\": {:.6},",
            self.coverage_fraction()
        );
        let _ = writeln!(out, "  \"critical_path\": [");
        for (i, link) in self.critical_path.iter().enumerate() {
            let comma = if i + 1 < self.critical_path.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"task\": {}, \"from_round\": {}, \"to_round\": {}, \"cause\": {}, \"stall_rounds\": {}, \"wait_for\": {}}}{comma}",
                link.task,
                link.from_round,
                link.to_round,
                match link.cause {
                    Some(c) => format!("\"{}\"", c.name()),
                    None => "null".into(),
                },
                link.stall_rounds,
                link.wait_for
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"hot_ancillas\": [");
        let hot = self.hot_ancillas(top_k);
        for (i, u) in hot.iter().enumerate() {
            let comma = if i + 1 < hot.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"ancilla\": {}, \"region\": {}, \"busy_fraction\": {:.6}, \"contended_fraction\": {:.6}, \"peak_depth\": {}}}{comma}",
                u.ancilla, u.region, u.busy_fraction, u.contended_fraction, u.peak_depth
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"region_busy\": [");
        for (i, &(region, frac)) in self.region_busy.iter().enumerate() {
            let comma = if i + 1 < self.region_busy.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"region\": {region}, \"busy_fraction\": {frac:.6}}}{comma}"
            );
        }
        let _ = writeln!(out, "  ],");
        let (peak_round, peak_depth) = self.peak_queue_depth();
        let _ = writeln!(out, "  \"peak_queue_depth\": {peak_depth},");
        let _ = writeln!(out, "  \"peak_queue_depth_round\": {peak_round}");
        out.push_str("}\n");
        out
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct TaskInfo {
    first_round: u64,
    last_round: u64,
    stalls: [u64; 4],
}

#[derive(Debug, Clone, Copy)]
struct AncillaAccum {
    region: u32,
    last_round: u64,
    last_busy: bool,
    last_depth: u32,
    busy_rounds: u64,
    contended_rounds: u64,
    peak_depth: u32,
}

/// Analyzes an event stream into a bottleneck report.
///
/// `dropped` and `truncated` describe the stream's provenance (ring
/// evictions, cut-off trace file); nonzero/true values become
/// warnings on the report rather than silently skewed numbers.
pub fn analyze_events(events: &[Event], dropped: u64, truncated: bool) -> AnalyzeReport {
    let mut tasks: BTreeMap<u64, TaskInfo> = BTreeMap::new();
    let mut wait_for: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut ancillas: BTreeMap<u32, AncillaAccum> = BTreeMap::new();
    let mut stall_rounds = [0u64; 4];
    let mut total_rounds = 0u64;
    let mut queue_depth: Vec<(u64, u64)> = Vec::new();
    let mut total_depth = 0u64;

    let touch = |map: &mut BTreeMap<u64, TaskInfo>, task: u64, round: u64| {
        let info = map.entry(task).or_insert(TaskInfo {
            first_round: round,
            last_round: round,
            stalls: [0; 4],
        });
        info.first_round = info.first_round.min(round);
        info.last_round = info.last_round.max(round);
    };

    for ev in events {
        let round = match *ev {
            Event::PhaseSpan { round, .. } => round,
            Event::Claim { round, task, .. } => {
                touch(&mut tasks, task, round);
                round
            }
            Event::Preemption { round, task, .. } => {
                touch(&mut tasks, task, round);
                round
            }
            Event::PreemptionRejected { round, task, .. } => {
                touch(&mut tasks, task, round);
                round
            }
            Event::WindowEnqueued { round, .. } => round,
            Event::WindowRetired { round, .. } => round,
            Event::RoutePlanned { round, task, .. } => {
                touch(&mut tasks, task, round);
                round
            }
            Event::Stall { round, task, cause } => {
                touch(&mut tasks, task, round);
                tasks.get_mut(&task).expect("touched").stalls[cause.index()] += 1;
                stall_rounds[cause.index()] += 1;
                round
            }
            Event::WaitEdge {
                round,
                waiter,
                holder,
                ..
            } => {
                touch(&mut tasks, waiter, round);
                touch(&mut tasks, holder, round);
                let holders = wait_for.entry(waiter).or_default();
                if !holders.contains(&holder) {
                    holders.push(holder);
                }
                round
            }
            Event::AncillaState {
                round,
                ancilla,
                region,
                depth,
                busy,
            } => {
                let acc = ancillas.entry(ancilla).or_insert(AncillaAccum {
                    region,
                    last_round: round,
                    last_busy: false,
                    last_depth: 0,
                    busy_rounds: 0,
                    contended_rounds: 0,
                    peak_depth: 0,
                });
                let delta = round.saturating_sub(acc.last_round);
                if acc.last_busy {
                    acc.busy_rounds += delta;
                }
                if acc.last_depth >= 2 {
                    acc.contended_rounds += delta;
                }
                total_depth = total_depth + depth as u64 - acc.last_depth as u64;
                acc.last_round = round;
                acc.last_busy = busy;
                acc.last_depth = depth;
                acc.peak_depth = acc.peak_depth.max(depth);
                match queue_depth.last_mut() {
                    Some(last) if last.0 == round => last.1 = total_depth,
                    _ => queue_depth.push((round, total_depth)),
                }
                round
            }
            Event::JobDone { .. } => 0,
        };
        total_rounds = total_rounds.max(round);
    }

    // Close every ancilla's open interval at the makespan.
    let utilization: Vec<AncillaUtil> = ancillas
        .iter()
        .map(|(&ancilla, acc)| {
            let tail = total_rounds.saturating_sub(acc.last_round);
            let busy = acc.busy_rounds + if acc.last_busy { tail } else { 0 };
            let contended = acc.contended_rounds + if acc.last_depth >= 2 { tail } else { 0 };
            let denom = total_rounds.max(1) as f64;
            AncillaUtil {
                ancilla,
                region: acc.region,
                busy_fraction: (busy as f64 / denom).clamp(0.0, 1.0),
                contended_fraction: (contended as f64 / denom).clamp(0.0, 1.0),
                peak_depth: acc.peak_depth,
            }
        })
        .collect();

    let mut region_groups: BTreeMap<u32, (f64, usize)> = BTreeMap::new();
    for u in &utilization {
        let slot = region_groups.entry(u.region).or_insert((0.0, 0));
        slot.0 += u.busy_fraction;
        slot.1 += 1;
    }
    let region_busy = region_groups
        .into_iter()
        .map(|(region, (sum, n))| (region, sum / n as f64))
        .collect();

    // Critical path: walk backwards from the latest-finishing task.
    let mut critical_path: Vec<PathLink> = Vec::new();
    let mut visited: HashSet<u64> = HashSet::new();
    let mut cursor = tasks
        .iter()
        .max_by_key(|(&id, info)| (info.last_round, std::cmp::Reverse(id)))
        .map(|(&id, _)| id);
    while let Some(task) = cursor {
        if !visited.insert(task) || critical_path.len() > tasks.len() {
            break;
        }
        let info = tasks[&task];
        let (cause_idx, &cause_max) = info
            .stalls
            .iter()
            .enumerate()
            .max_by_key(|&(i, &n)| (n, std::cmp::Reverse(i)))
            .expect("four causes");
        critical_path.push(PathLink {
            task,
            from_round: info.first_round,
            to_round: info.last_round,
            cause: (cause_max > 0).then(|| StallCause::ALL[cause_idx]),
            stall_rounds: info.stalls.iter().sum(),
            wait_for: false,
        });
        let link_idx = critical_path.len() - 1;
        // Prefer a recorded wait-for predecessor that finished before
        // this task did; otherwise fall back to completion order (the
        // latest task ending at or before this one's start).
        let pred = wait_for
            .get(&task)
            .into_iter()
            .flatten()
            .filter(|h| !visited.contains(h))
            .filter_map(|&h| tasks.get(&h).map(|i| (h, i.last_round)))
            .filter(|&(_, last)| last < info.last_round)
            .max_by_key(|&(h, last)| (last, std::cmp::Reverse(h)));
        if let Some((h, _)) = pred {
            cursor = Some(h);
            critical_path[link_idx].wait_for = true;
        } else {
            cursor = tasks
                .iter()
                .filter(|(id, _)| !visited.contains(id))
                .filter(|(_, i)| i.last_round <= info.first_round)
                .max_by_key(|(&id, i)| (i.last_round, std::cmp::Reverse(id)))
                .map(|(&id, _)| id);
        }
    }

    // Overlap-free coverage, walking latest-to-earliest.
    let mut covered_rounds = 0u64;
    let mut upper = total_rounds;
    for link in &critical_path {
        let hi = link.to_round.min(upper);
        if hi > link.from_round {
            covered_rounds += hi - link.from_round;
        }
        upper = upper.min(link.from_round);
    }
    critical_path.reverse(); // earliest link first for display

    let mut warnings = Vec::new();
    if dropped > 0 {
        warnings.push(format!(
            "ring buffer dropped {dropped} oldest events; the report covers a suffix of the run"
        ));
    }
    if truncated {
        warnings
            .push("trace document is truncated; the report covers a prefix of the run".to_owned());
    }

    AnalyzeReport {
        total_rounds,
        events: events.len(),
        tasks: tasks.len(),
        critical_path,
        covered_rounds,
        stall_rounds,
        utilization,
        region_busy,
        queue_depth,
        dropped,
        truncated,
        warnings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::render;
    use crate::TimedEvent;

    /// A three-task chain: t2 waits on t1 (recorded edge), t1 starts
    /// after t0 ends (completion order), with stalls attributed.
    fn chain_events() -> Vec<Event> {
        vec![
            Event::Claim {
                round: 0,
                task: 0,
                ancilla: 0,
            },
            Event::RoutePlanned {
                round: 0,
                task: 0,
                hops: 3,
                replanned: false,
            },
            Event::Claim {
                round: 100,
                task: 0,
                ancilla: 0,
            },
            Event::Claim {
                round: 100,
                task: 1,
                ancilla: 1,
            },
            Event::Stall {
                round: 150,
                task: 1,
                cause: StallCause::DecoderBacklog,
            },
            Event::Stall {
                round: 160,
                task: 1,
                cause: StallCause::DecoderBacklog,
            },
            Event::Claim {
                round: 300,
                task: 1,
                ancilla: 1,
            },
            Event::WaitEdge {
                round: 310,
                waiter: 2,
                holder: 1,
                ancilla: 1,
            },
            Event::Stall {
                round: 350,
                task: 2,
                cause: StallCause::AncillaContention,
            },
            Event::Claim {
                round: 500,
                task: 2,
                ancilla: 1,
            },
        ]
    }

    #[test]
    fn critical_path_follows_wait_edges_then_ordering() {
        let report = analyze_events(&chain_events(), 0, false);
        assert_eq!(report.total_rounds, 500);
        assert_eq!(report.tasks, 3);
        let path: Vec<u64> = report.critical_path.iter().map(|l| l.task).collect();
        assert_eq!(path, vec![0, 1, 2], "{:?}", report.critical_path);
        // t2 <- t1 hop came from the recorded wait-for edge.
        assert!(report.critical_path[2].wait_for);
        // t1 <- t0 hop is the completion-order fallback.
        assert!(!report.critical_path[1].wait_for);
        assert_eq!(
            report.critical_path[1].cause,
            Some(StallCause::DecoderBacklog)
        );
        assert_eq!(
            report.dominant_stall_cause(),
            Some(StallCause::DecoderBacklog)
        );
        // Coverage: [0,100] + [100,310] (the wait edge at 310 keeps
        // the holder alive) + [310,500] = all 500 rounds.
        assert_eq!(report.covered_rounds, 500);
        assert!(report.coverage_fraction() > 0.9);
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn utilization_integrates_state_transitions() {
        let events = vec![
            Event::AncillaState {
                round: 0,
                ancilla: 3,
                region: 1,
                depth: 1,
                busy: true,
            },
            Event::AncillaState {
                round: 60,
                ancilla: 3,
                region: 1,
                depth: 3,
                busy: true,
            },
            Event::AncillaState {
                round: 80,
                ancilla: 3,
                region: 1,
                depth: 0,
                busy: false,
            },
            // Makespan extends to round 100 via another event.
            Event::PhaseSpan {
                phase: Phase::Commit,
                round: 100,
                dur_ns: 10,
            },
        ];
        let report = analyze_events(&events, 0, false);
        assert_eq!(report.total_rounds, 100);
        assert_eq!(report.utilization.len(), 1);
        let u = report.utilization[0];
        assert_eq!(u.ancilla, 3);
        assert_eq!(u.region, 1);
        // Busy rounds 0..80 of 100.
        assert!((u.busy_fraction - 0.8).abs() < 1e-9, "{u:?}");
        // Depth >= 2 only in rounds 60..80.
        assert!((u.contended_fraction - 0.2).abs() < 1e-9, "{u:?}");
        assert_eq!(u.peak_depth, 3);
        assert_eq!(report.peak_queue_depth(), (60, 3));
        assert_eq!(report.region_busy, vec![(1, u.busy_fraction)]);
    }

    #[test]
    fn trace_round_trips_and_truncation_is_detected() {
        let timed: Vec<TimedEvent> = chain_events()
            .iter()
            .enumerate()
            .map(|(i, &event)| TimedEvent {
                at_ns: i as u64 * 1000,
                event,
            })
            .collect();
        let doc = render(&timed, 7);
        let parsed = parse_trace(&doc).unwrap();
        assert_eq!(parsed.events, chain_events());
        assert_eq!(parsed.dropped, 7);
        assert!(!parsed.truncated);

        // Cut the document mid-stream: recovery keeps the prefix and
        // flags truncation, and the report carries warnings.
        let cut = &doc[..doc.len() * 2 / 3];
        let partial = parse_trace(cut).unwrap();
        assert!(partial.truncated);
        assert!(!partial.events.is_empty());
        assert!(partial.events.len() < chain_events().len());
        let report = analyze_events(&partial.events, 5, partial.truncated);
        assert_eq!(report.warnings.len(), 2);
        assert!(report.to_json(4).contains("\"truncated\": true"));
        assert!(report.render_text(4).contains("WARNING"));

        assert!(parse_trace("not a trace").is_err());
    }

    #[test]
    fn old_claim_events_with_cross_shard_still_parse() {
        // Traces written before the engine became serial tag each claim
        // with `cross_shard`; the extra key is ignored.
        let doc = "{\"traceEvents\":[\n\
            {\"name\":\"claim\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1.000,\"pid\":0,\"tid\":2,\
            \"args\":{\"round\":7,\"task\":2,\"ancilla\":5,\"cross_shard\":true}}\n\
            ]}";
        let parsed = parse_trace(doc).unwrap();
        assert!(!parsed.truncated);
        assert_eq!(
            parsed.events,
            vec![Event::Claim {
                round: 7,
                task: 2,
                ancilla: 5
            }]
        );
    }

    #[test]
    fn report_renders_text_and_json() {
        let report = analyze_events(&chain_events(), 0, false);
        let text = report.render_text(8);
        assert!(text.contains("== rescq analyze =="));
        assert!(text.contains("decoder_backlog"));
        assert!(text.contains("<- dominant"));
        assert!(text.contains("critical path (3 links"));
        let json = report.to_json(8);
        assert!(json.contains("\"dominant_stall_cause\": \"decoder_backlog\""));
        assert!(json.contains("\"critical_path\": ["));
        // The JSON is itself parseable by the mini parser.
        assert!(parse_json(&json).is_ok());
    }

    #[test]
    fn empty_stream_produces_an_empty_report() {
        let report = analyze_events(&[], 0, false);
        assert_eq!(report.total_rounds, 0);
        assert!(report.critical_path.is_empty());
        assert_eq!(report.coverage_fraction(), 0.0);
        assert!(report.dominant_stall_cause().is_none());
        assert!(parse_json(&report.to_json(4)).is_ok());
    }
}
