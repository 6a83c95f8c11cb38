//! The robustness runner: replaying a wrapper over archive snapshots until it
//! breaks, and classifying why (the paper's break groups (a)–(f)).

use wi_dom::NodeId;
use wi_webgen::archive::ArchiveSimulator;
use wi_webgen::date::{Day, OBSERVATION_END, OBSERVATION_START};
use wi_webgen::tasks::WrapperTask;
use wi_xpath::{canonical_path, evaluate_with, EvalContext, Query};

// The runner drives every wrapper through the workspace-wide [`Extractor`]
// interface from `wi-induction` (implemented by `Wrapper`,
// `WrapperEnsemble`, raw `Query`s and all four baselines).
pub use wi_induction::{ExtractError, Extractor};

/// Why a wrapper's evaluation run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakReason {
    /// The wrapper still worked on the last snapshot of the window (group a).
    SurvivedFullPeriod,
    /// The wrapper stopped selecting the intended nodes (groups b/c/d).
    WrapperBroke,
    /// The archive served a broken snapshot (group e).
    ArchiveIssue,
    /// The intended targets disappeared from the page (group f).
    TargetsRemoved,
    /// The extractor itself failed (empty wrapper, stale context, corrupt
    /// artifact) rather than merely selecting the wrong nodes.
    ExtractorFailed,
}

/// The outcome of replaying one wrapper over one task's snapshots.
#[derive(Debug, Clone)]
pub struct RobustnessOutcome {
    /// Days the wrapper remained valid (from the induction snapshot).
    pub valid_days: i64,
    /// Why the run ended.
    pub reason: BreakReason,
    /// The day of the last snapshot on which the wrapper was still correct.
    pub last_valid_day: Day,
    /// Number of c-changes observed while the wrapper was valid.
    pub c_changes: usize,
    /// Number of snapshots the wrapper was evaluated on.
    pub snapshots_checked: usize,
}

/// Replays `wrapper` over the snapshots of `task` from `start` to `end` (at
/// the given interval) and reports when and why it stopped selecting the
/// intended nodes.
///
/// The intended nodes on each snapshot are re-identified by the task's
/// value-based ground-truth oracle; a wrapper is "still valid" on a snapshot
/// if it selects exactly those nodes.
pub fn run_robustness(
    task: &WrapperTask,
    wrapper: &dyn Extractor,
    start: Day,
    end: Day,
    interval: i64,
) -> RobustnessOutcome {
    let archive = ArchiveSimulator::new(task.site.clone(), task.page_index, task.kind);
    let mut last_valid = start;
    let mut reason = BreakReason::SurvivedFullPeriod;
    let mut snapshots_checked = 0usize;
    let mut canonical_tracker: Option<(Query, Vec<NodeId>)> = None;
    let mut c_changes = 0usize;
    let mut day = start;
    // One pooled context for the whole replay: the wrapper extraction and
    // the c-change probe reuse the same buffers on every snapshot.
    let mut cx = EvalContext::new();

    while day <= end {
        let snapshot = archive.snapshot(day);
        snapshots_checked += 1;
        if snapshot.broken {
            reason = BreakReason::ArchiveIssue;
            break;
        }
        let doc = &snapshot.doc;
        let truth = task.targets_in(doc, day);
        if truth.is_empty() {
            reason = BreakReason::TargetsRemoved;
            break;
        }
        let mut selected = match wrapper.extract_with(&mut cx, doc, doc.root()) {
            Ok(selected) => selected,
            Err(_) => {
                reason = BreakReason::ExtractorFailed;
                break;
            }
        };
        doc.sort_document_order(&mut selected);
        let mut expected = truth.clone();
        doc.sort_document_order(&mut expected);
        if selected != expected {
            reason = BreakReason::WrapperBroke;
            break;
        }
        // c-change tracking on the first target node (Section 2 / 6.2).
        let first_target = expected[0];
        let canon_now = canonical_path(doc, first_target);
        if let Some((prev_canon, _)) = &canonical_tracker {
            let reselected = evaluate_with(&mut cx, prev_canon, doc, doc.root());
            if reselected != vec![first_target] {
                c_changes += 1;
                canonical_tracker = Some((canon_now, vec![first_target]));
            }
        } else {
            canonical_tracker = Some((canon_now, vec![first_target]));
        }

        last_valid = day;
        day = day.plus(interval);
    }

    RobustnessOutcome {
        valid_days: start.days_until(last_valid),
        reason,
        last_valid_day: last_valid,
        c_changes,
        snapshots_checked,
    }
}

/// Convenience wrapper for the paper's standard window (2008-01-01 to
/// 2013-12-31).
pub fn run_robustness_standard(
    task: &WrapperTask,
    wrapper: &dyn Extractor,
    interval: i64,
) -> RobustnessOutcome {
    run_robustness(task, wrapper, OBSERVATION_START, OBSERVATION_END, interval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_webgen::site::{PageKind, Site};
    use wi_webgen::style::Vertical;
    use wi_webgen::tasks::TargetRole;
    use wi_xpath::parse_query;

    fn task() -> WrapperTask {
        WrapperTask::new(
            Site::new(Vertical::Movies, 42),
            0,
            PageKind::Detail,
            TargetRole::MainHeadline,
        )
    }

    #[test]
    fn human_wrapper_survives_for_a_while() {
        let t = task();
        let human = parse_query(&t.human_wrapper).unwrap();
        let outcome = run_robustness(&t, &human, Day(0), Day(400), 40);
        assert!(outcome.valid_days >= 0);
        assert!(outcome.snapshots_checked > 0);
        assert!(outcome.valid_days <= 400);
    }

    #[test]
    fn canonical_wrapper_is_less_robust_than_human() {
        // Aggregate over several tasks: canonical wrappers must not outlive
        // human ones on average.
        let mut canonical_total = 0i64;
        let mut human_total = 0i64;
        for i in 0..6 {
            let t = WrapperTask::new(
                Site::new(Vertical::News, 60 + i),
                0,
                PageKind::Detail,
                TargetRole::PrimaryValue,
            );
            let (doc, targets) = t.page_with_targets(Day(0));
            let canonical = wi_baselines::CanonicalWrapper::induce(&doc, &targets);
            let human = parse_query(&t.human_wrapper).unwrap();
            canonical_total += run_robustness(&t, &canonical, Day(0), Day(1000), 50).valid_days;
            human_total += run_robustness(&t, &human, Day(0), Day(1000), 50).valid_days;
        }
        assert!(
            human_total >= canonical_total,
            "human {human_total} vs canonical {canonical_total}"
        );
    }

    #[test]
    fn broken_wrapper_breaks_immediately() {
        let t = task();
        let nonsense = parse_query("descendant::table[@id=\"does-not-exist\"]").unwrap();
        let outcome = run_robustness(&t, &nonsense, Day(0), Day(200), 20);
        assert_eq!(outcome.reason, BreakReason::WrapperBroke);
        assert_eq!(outcome.valid_days, 0);
    }

    #[test]
    fn outcome_reports_c_changes() {
        let t = task();
        let human = parse_query(&t.human_wrapper).unwrap();
        let outcome = run_robustness(&t, &human, Day(0), Day(2191), 20);
        // c-changes are bounded by the number of snapshots checked.
        assert!(outcome.c_changes <= outcome.snapshots_checked);
    }
}
