//! Integration of the maintenance loop with the synthetic archive: real
//! webgen sites, real break classes, deterministic seeds.

use wi_induction::{Extractor, WrapperBundle, WrapperInducer};
use wi_maintain::{
    DriftClass, LastKnownGood, Maintainer, MaintenanceJob, PageVersion, Registry, VersionRecord,
    WrapperState,
};
use wi_scoring::ScoringParams;
use wi_webgen::archive::ArchiveSimulator;
use wi_webgen::date::Day;
use wi_webgen::epoch::{BlockKind, EvolutionProfile};
use wi_webgen::site::{PageKind, Site};
use wi_webgen::style::Vertical;
use wi_webgen::tasks::{TargetRole, WrapperTask};

/// Builds the archive timeline of a task at the given interval.
fn timeline_pages(task: &WrapperTask, epochs: i64, interval: i64) -> Vec<PageVersion> {
    let archive = ArchiveSimulator::new(task.site.clone(), task.page_index, task.kind);
    (0..epochs)
        .map(|i| {
            let day = Day(i * interval);
            PageVersion {
                day: day.offset(),
                doc: archive.snapshot(day).doc,
            }
        })
        .collect()
}

fn induce(task: &WrapperTask) -> (WrapperBundle, LastKnownGood) {
    let (doc, targets) = task.page_with_targets(Day(0));
    assert!(!targets.is_empty());
    let wrapper = WrapperInducer::with_k(5)
        .try_induce_best(&doc, &targets)
        .expect("induction succeeds on the first snapshot");
    let bundle = WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults())
        .with_label(task.id());
    let lkg = LastKnownGood::capture_for(&bundle, &doc, 0, &targets);
    (bundle, lkg)
}

/// A site whose timeline renames or redesigns within the window breaks the
/// wrapper; the loop must flag it, classify it as a template change and
/// repair it so the final extraction matches ground truth again.
#[test]
fn evolving_site_is_repaired_and_extracts_ground_truth_again() {
    let task = (0..200)
        .map(|i| {
            WrapperTask::new(
                Site::new(Vertical::News, i),
                0,
                PageKind::Detail,
                TargetRole::ListTitles,
            )
        })
        .find(|t| {
            let epoch = t.site.timeline.epoch_at(Day(1400));
            !epoch.renames.is_empty() || epoch.redesign_level > 0
        })
        .expect("an evolving site exists");
    let (bundle, lkg) = induce(&task);
    let pages = timeline_pages(&task, 24, 60);

    let log = Maintainer::default().run(&task.id(), bundle, &pages, Some(lkg));
    assert!(log.repairs() >= 1, "no repair over an evolving timeline");
    let repair_epoch = log.outcomes.iter().find(|o| o.repaired).unwrap();
    assert!(matches!(
        repair_epoch.drift,
        Some(DriftClass::AttributeRename) | Some(DriftClass::Redesign)
    ));
    assert!(log.bundle.revision >= 1);

    // The hot-swapped bundle extracts today's ground truth.
    let last_day = Day(23 * 60);
    let (doc, truth) = task.page_with_targets(last_day);
    if !truth.is_empty() && !task.site.timeline.snapshot_broken(last_day) {
        let mut extracted = log.bundle.extract(&doc, doc.root()).unwrap();
        let mut expected = truth.clone();
        doc.sort_document_order(&mut extracted);
        doc.sort_document_order(&mut expected);
        assert_eq!(extracted, expected);
    }
}

/// A diminishing target (the paper's group (f)) must not be "repaired" onto
/// some other element: the wrapper degrades, then retires.
#[test]
fn removed_block_retires_the_wrapper_without_a_bogus_repair() {
    let profile = EvolutionProfile {
        block_removal_prob: 1.0,
        semantic_rename_prob: 0.0,
        redesign_prob: 0.0,
        broken_snapshot_prob: 0.0,
        ..Default::default()
    };
    let site = Site::with_profile(Vertical::Travel, 3, &profile);
    let removal = site.timeline.block_removed_at(BlockKind::Sidebar).unwrap();
    let task = WrapperTask::new(site, 0, PageKind::Detail, TargetRole::RelatedLinks);
    let (bundle, lkg) = induce(&task);

    // Replay to well past the removal.
    let epochs = removal.offset() / 60 + 6;
    let pages = timeline_pages(&task, epochs, 60);
    let log = Maintainer::default().run(&task.id(), bundle, &pages, Some(lkg));

    assert_eq!(log.repairs(), 0, "revisions: {:?}", log.revisions.len());
    assert_eq!(log.bundle.revision, 0);
    let last = log.outcomes.last().unwrap();
    assert!(
        matches!(last.state, WrapperState::Degraded | WrapperState::Retired),
        "state {:?}",
        last.state
    );
    // And the wrapper extracts nothing rather than hijacking another block.
    assert!(last.extracted.is_empty());
}

/// The registry's parallel batch driver over webgen sites agrees with the
/// sequential reference and versions every repaired site.
#[test]
fn batch_maintenance_over_webgen_sites_versions_repaired_bundles() {
    let mut registry = Registry::new();
    let mut jobs = Vec::new();
    for i in 0..6u64 {
        let vertical = Vertical::ALL[i as usize % Vertical::ALL.len()];
        let task = WrapperTask::new(
            Site::new(vertical, i),
            0,
            PageKind::Detail,
            TargetRole::ListTitles,
        );
        let (bundle, lkg) = induce(&task);
        registry.install(task.id(), bundle, 0);
        jobs.push(MaintenanceJob {
            site: task.id(),
            pages: timeline_pages(&task, 12, 120),
            seed_lkg: Some(lkg),
            inducer: None,
        });
    }
    let maintainer = Maintainer::default();
    let mut sequential_registry = registry.clone();
    let parallel = registry.maintain_batch(&jobs, &maintainer);
    let sequential = sequential_registry.maintain_batch_sequential(&jobs, &maintainer);

    assert_eq!(parallel.len(), jobs.len());
    for (p, s) in parallel.iter().zip(&sequential) {
        assert_eq!(p.label, s.label);
        assert_eq!(p.repairs(), s.repairs());
        assert_eq!(p.bundle.revision, s.bundle.revision);
    }
    for job in &jobs {
        let history = registry.history(&job.site);
        assert!(!history.is_empty());
        let entries = |history: &[VersionRecord]| -> Vec<(u32, i64, String)> {
            history
                .iter()
                .map(|record| (record.revision, record.day, record.cause.clone()))
                .collect()
        };
        assert_eq!(
            entries(history),
            entries(sequential_registry.history(&job.site)),
            "parallel and sequential committed different histories for {}",
            job.site
        );
        // The newest revision is what `current` serves.
        assert_eq!(
            registry.current(&job.site).unwrap().revision,
            history.last().unwrap().revision
        );
    }
}
