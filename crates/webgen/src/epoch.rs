//! Page evolution: change events, per-site change timelines and the
//! accumulated [`Epoch`] state a page is rendered under.
//!
//! The paper tracks real pages through the Internet Archive and classifies
//! why wrappers break (Section 6.2): positional changes on the canonical
//! path, attribute-value renames (`"hp-content-block"` →
//! `"homepage-content-block"`), site-wide redesigns, disappearing targets and
//! erroneous archive snapshots.  This module generates, per site and fully
//! deterministically, a timeline of exactly these change classes; folding the
//! timeline up to a date yields the [`Epoch`] the renderer uses.

use crate::date::Day;
use crate::vocab::mix_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Template regions that can disappear from a page ("diminishing targets",
/// the paper's break group (f)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockKind {
    /// The primary label–value row (e.g. the Director row).
    PrimaryField,
    /// The page's main item list.
    MainList,
    /// The secondary people row (stars / co-authors).
    PeopleRow,
    /// The sidebar with related links.
    Sidebar,
    /// The header search form.
    SearchForm,
    /// The pagination / next link.
    NextLink,
}

impl BlockKind {
    /// All removable blocks.
    pub const ALL: &'static [BlockKind] = &[
        BlockKind::PrimaryField,
        BlockKind::MainList,
        BlockKind::PeopleRow,
        BlockKind::Sidebar,
        BlockKind::SearchForm,
        BlockKind::NextLink,
    ];
}

/// Names (classes / ids) that semantic-rename events can hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SemanticName {
    /// The id of the main content container.
    ContainerId,
    /// The class of label–value blocks.
    BlockClass,
    /// The class of the main list.
    ListClass,
    /// The versioned headline class (`headline20` → `headline16`).
    VersionedClass,
    /// The class of the label element ("inline").
    LabelClass,
    /// The class of value elements ("itemprop"-style value class).
    ValueClass,
}

/// The coarse *class* of a change, aligned with the paper's Section 6.2
/// break groups.  This is the ground truth a maintenance subsystem's drift
/// classifier is scored against: every [`ChangeEvent`] maps onto exactly one
/// class via [`ChangeEvent::change_class`], and broken snapshots / content
/// rotation (which are not timeline events) have their own classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChangeClass {
    /// Chrome churn that shifts positional indices on canonical paths
    /// (groups (b)/(c): promo blocks, nav resizes, ad slots, list length).
    Positional,
    /// A semantic class/id rename (group (b)/(d): `"hp-content-block"` →
    /// `"homepage-content-block"`).
    AttributeRename,
    /// A site-wide redesign (group (d)).
    Redesign,
    /// The wrapper's target block disappeared (group (f), diminishing
    /// targets).
    TargetRemoved,
    /// The archive served an empty or truncated capture (group (e)).  Never
    /// produced by [`ChangeEvent::change_class`]; attached by callers that
    /// consult [`Timeline::snapshot_broken`].
    BrokenSnapshot,
    /// Only the rotating page data changed (no template event).  Never
    /// produced by [`ChangeEvent::change_class`]; the class of an epoch
    /// boundary with no structural event.
    ContentOnly,
}

impl ChangeClass {
    /// A short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ChangeClass::Positional => "positional",
            ChangeClass::AttributeRename => "attribute-rename",
            ChangeClass::Redesign => "redesign",
            ChangeClass::TargetRemoved => "target-removed",
            ChangeClass::BrokenSnapshot => "broken-snapshot",
            ChangeClass::ContentOnly => "content-only",
        }
    }
}

/// A single change event in a site's timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeEvent {
    /// Insert (or remove, when `delta < 0`) promo/banner blocks before the
    /// main content — shifts positional indices on the canonical path.
    PromoDelta(i32),
    /// Resize the navigation menu.
    NavResize(i32),
    /// Change the number of advert slots in the sidebar.
    AdSlotsDelta(i32),
    /// Rename one semantic class/id to a new value.
    SemanticRename {
        /// Which name is renamed.
        name: SemanticName,
        /// The new value.
        to: String,
    },
    /// A site-wide redesign: class prefix changes, an extra wrapper level is
    /// introduced, the versioned class is bumped.
    Redesign,
    /// A template block disappears from the page.
    RemoveBlock(BlockKind),
    /// The main list gains or loses entries permanently.
    ListLengthDelta(i32),
}

impl ChangeEvent {
    /// The break-group class of this event (see [`ChangeClass`]).
    pub fn change_class(&self) -> ChangeClass {
        match self {
            ChangeEvent::PromoDelta(_)
            | ChangeEvent::NavResize(_)
            | ChangeEvent::AdSlotsDelta(_)
            | ChangeEvent::ListLengthDelta(_) => ChangeClass::Positional,
            ChangeEvent::SemanticRename { .. } => ChangeClass::AttributeRename,
            ChangeEvent::Redesign => ChangeClass::Redesign,
            ChangeEvent::RemoveBlock(_) => ChangeClass::TargetRemoved,
        }
    }
}

/// The accumulated state of a site's template at a given day.
#[derive(Debug, Clone, PartialEq)]
pub struct Epoch {
    /// The day this epoch describes.
    pub day: Day,
    /// Data-rotation epoch (changes every `content_period` days).
    pub content_epoch: u64,
    /// Number of promo blocks inserted before the main content.
    pub promo_blocks: usize,
    /// Navigation size delta relative to the style default.
    pub nav_delta: i32,
    /// Advert slots delta relative to the style default.
    pub ad_delta: i32,
    /// Accumulated renames of semantic names.
    pub renames: BTreeMap<SemanticName, String>,
    /// Number of redesigns applied so far.
    pub redesign_level: u32,
    /// Blocks removed from the template.
    pub removed_blocks: BTreeSet<BlockKind>,
    /// Permanent change to the main list length.
    pub list_len_delta: i32,
}

impl Epoch {
    /// The epoch of a pristine site at day zero.
    pub fn initial(day: Day, content_epoch: u64) -> Epoch {
        Epoch {
            day,
            content_epoch,
            promo_blocks: 0,
            nav_delta: 0,
            ad_delta: 0,
            renames: BTreeMap::new(),
            redesign_level: 0,
            removed_blocks: BTreeSet::new(),
            list_len_delta: 0,
        }
    }

    /// Returns the current value of a semantic name, falling back to the
    /// provided default and applying the redesign prefix if applicable.
    pub fn semantic(&self, name: SemanticName, default: &str) -> String {
        let base = self
            .renames
            .get(&name)
            .cloned()
            .unwrap_or_else(|| default.to_string());
        if self.redesign_level > 0 && !self.renames.contains_key(&name) {
            // A redesign re-namespaces classes that were not individually
            // renamed before.
            format!("{}-r{}", base, self.redesign_level)
        } else {
            base
        }
    }

    /// Whether a block is still present in the template.
    pub fn has_block(&self, block: BlockKind) -> bool {
        !self.removed_blocks.contains(&block)
    }

    fn apply(&mut self, event: &ChangeEvent) {
        match event {
            ChangeEvent::PromoDelta(d) => {
                self.promo_blocks = (self.promo_blocks as i32 + d).clamp(0, 4) as usize;
            }
            ChangeEvent::NavResize(d) => self.nav_delta += d,
            ChangeEvent::AdSlotsDelta(d) => self.ad_delta += d,
            ChangeEvent::SemanticRename { name, to } => {
                self.renames.insert(*name, to.clone());
            }
            ChangeEvent::Redesign => self.redesign_level += 1,
            ChangeEvent::RemoveBlock(b) => {
                self.removed_blocks.insert(*b);
            }
            ChangeEvent::ListLengthDelta(d) => self.list_len_delta += d,
        }
    }
}

/// A site's full change timeline plus the parameters needed to fold it.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Events sorted by day.
    pub events: Vec<(Day, ChangeEvent)>,
    /// How often the page's rotating data changes (days).
    pub content_period: i64,
    /// Probability that any individual snapshot is broken (served empty or
    /// truncated by the archive).
    pub broken_snapshot_prob: f64,
    seed: u64,
}

/// Tuning knobs for timeline generation.  The defaults are calibrated so the
/// survival-time distributions of canonical / induced / human wrappers have
/// the shape of Figures 3 and 4 of the paper.
#[derive(Debug, Clone)]
pub struct EvolutionProfile {
    /// Mean days between chrome-churn events (promos, nav, ads).
    pub churn_interval: (i64, i64),
    /// Per-site probability that at least one semantic rename happens.
    pub semantic_rename_prob: f64,
    /// Per-site probability of a site-wide redesign during the window.
    pub redesign_prob: f64,
    /// Per-block probability that the block is removed during the window.
    pub block_removal_prob: f64,
    /// Probability that a snapshot is broken.
    pub broken_snapshot_prob: f64,
    /// First and last day events may be scheduled on.
    pub window: (i64, i64),
}

impl Default for EvolutionProfile {
    fn default() -> Self {
        EvolutionProfile {
            churn_interval: (30, 90),
            semantic_rename_prob: 0.45,
            redesign_prob: 0.35,
            block_removal_prob: 0.38,
            broken_snapshot_prob: 0.012,
            window: (-1500, 2200),
        }
    }
}

impl Timeline {
    /// Generates a site's timeline deterministically from its seed.
    pub fn generate(seed: u64, profile: &EvolutionProfile) -> Timeline {
        let mut rng = StdRng::seed_from_u64(mix_seed(&[seed, 0xe1e17]));
        let mut events: Vec<(Day, ChangeEvent)> = Vec::new();
        let (start, end) = profile.window;

        // Chrome churn: positional changes that affect canonical paths but
        // rarely anything anchored on semantic attributes.
        let mut t = start;
        loop {
            t += rng.random_range(profile.churn_interval.0..=profile.churn_interval.1);
            if t >= end {
                break;
            }
            let event = match rng.random_range(0..4) {
                0 => ChangeEvent::PromoDelta(if rng.random_bool(0.6) { 1 } else { -1 }),
                1 => ChangeEvent::NavResize(rng.random_range(-1..=1)),
                2 => ChangeEvent::AdSlotsDelta(rng.random_range(-1..=1)),
                _ => ChangeEvent::ListLengthDelta(rng.random_range(-1..=1)),
            };
            events.push((Day(t), event));
        }

        // Semantic renames: these are what break attribute-anchored wrappers
        // (paper break-group (b)/(d): "hp-content-block" becomes
        // "homepage-content-block").
        if rng.random_bool(profile.semantic_rename_prob) {
            let count = rng.random_range(1..=2);
            for _ in 0..count {
                let day = Day(rng.random_range(80..end - 50));
                let name = match rng.random_range(0..6) {
                    0 => SemanticName::ContainerId,
                    1 => SemanticName::BlockClass,
                    2 => SemanticName::ListClass,
                    3 => SemanticName::VersionedClass,
                    4 => SemanticName::LabelClass,
                    _ => SemanticName::ValueClass,
                };
                let to = format!("renamed-{}-{}", rng.random_range(10..99), day.offset());
                events.push((day, ChangeEvent::SemanticRename { name, to }));
            }
        }

        // Site-wide redesign.
        if rng.random_bool(profile.redesign_prob) {
            let day = Day(rng.random_range(250..end - 30));
            events.push((day, ChangeEvent::Redesign));
        }

        // Diminishing targets.
        for &block in BlockKind::ALL {
            if rng.random_bool(profile.block_removal_prob) {
                let day = Day(rng.random_range(150..end));
                events.push((day, ChangeEvent::RemoveBlock(block)));
            }
        }

        events.sort_by_key(|(d, _)| *d);
        Timeline {
            events,
            content_period: rng.random_range(35..80),
            broken_snapshot_prob: profile.broken_snapshot_prob,
            seed,
        }
    }

    /// Folds the timeline up to (and including) `day` into an [`Epoch`].
    pub fn epoch_at(&self, day: Day) -> Epoch {
        let content_epoch = (day.offset() + 4000).max(0) as u64 / self.content_period as u64;
        let mut epoch = Epoch::initial(day, content_epoch);
        for (d, ev) in &self.events {
            if *d <= day {
                epoch.apply(ev);
            } else {
                break;
            }
        }
        epoch
    }

    /// Whether the archive snapshot at `day` is served broken (empty or
    /// truncated).  Deterministic per (site, day).
    pub fn snapshot_broken(&self, day: Day) -> bool {
        let mut rng = StdRng::seed_from_u64(mix_seed(&[self.seed, 0xb40c, day.offset() as u64]));
        rng.random_bool(self.broken_snapshot_prob)
    }

    /// The events scheduled strictly after `after` and up to (and including)
    /// `upto`, in day order.  This is the ground-truth window a maintenance
    /// run consults when a wrapper that was healthy at `after` is found
    /// broken at `upto`.
    pub fn events_between(&self, after: Day, upto: Day) -> &[(Day, ChangeEvent)] {
        let lo = self.events.partition_point(|(d, _)| *d <= after);
        let hi = self.events.partition_point(|(d, _)| *d <= upto);
        &self.events[lo..hi]
    }

    /// The dominant [`ChangeClass`] of the window `(after, upto]`: the class
    /// a drift classifier should report for a break observed at `upto` after
    /// a healthy check at `after`.
    ///
    /// Broken snapshots dominate everything (the page itself is not
    /// trustworthy), then removal of the wrapper's own block (once the
    /// target is gone, concurrent template churn is moot), then redesigns
    /// (which subsume renames), then renames, then positional churn.  When
    /// no structural event falls in the window the class is
    /// [`ChangeClass::ContentOnly`].
    /// `role_block` restricts removal events to the block the maintained
    /// wrapper actually targets: a sidebar removal is positional noise for a
    /// headline wrapper, not a diminishing target.
    pub fn dominant_change_between(
        &self,
        after: Day,
        upto: Day,
        role_block: Option<BlockKind>,
    ) -> ChangeClass {
        if self.snapshot_broken(upto) {
            return ChangeClass::BrokenSnapshot;
        }
        let mut best = ChangeClass::ContentOnly;
        let mut rank = 0u8;
        for (_, event) in self.events_between(after, upto) {
            let class = match event {
                ChangeEvent::RemoveBlock(b) => {
                    if role_block == Some(*b) {
                        ChangeClass::TargetRemoved
                    } else {
                        ChangeClass::Positional
                    }
                }
                other => other.change_class(),
            };
            let r = match class {
                ChangeClass::TargetRemoved => 6,
                ChangeClass::Redesign => 5,
                ChangeClass::AttributeRename => 4,
                ChangeClass::Positional => 2,
                ChangeClass::ContentOnly | ChangeClass::BrokenSnapshot => 1,
            };
            if r > rank {
                rank = r;
                best = class;
            }
        }
        best
    }

    /// The day a block disappears, if it ever does.
    pub fn block_removed_at(&self, block: BlockKind) -> Option<Day> {
        self.events.iter().find_map(|(d, e)| match e {
            ChangeEvent::RemoveBlock(b) if *b == block => Some(*d),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timelines_are_deterministic() {
        let p = EvolutionProfile::default();
        let a = Timeline::generate(5, &p);
        let b = Timeline::generate(5, &p);
        assert_eq!(a.events, b.events);
        assert_eq!(a.content_period, b.content_period);
    }

    #[test]
    fn events_are_sorted_and_windowed() {
        let p = EvolutionProfile::default();
        for seed in 0..10 {
            let t = Timeline::generate(seed, &p);
            assert!(!t.events.is_empty());
            for pair in t.events.windows(2) {
                assert!(pair[0].0 <= pair[1].0);
            }
            assert!(t
                .events
                .iter()
                .all(|(d, _)| d.offset() >= p.window.0 && d.offset() <= p.window.1));
        }
    }

    #[test]
    fn epochs_accumulate_monotonically() {
        let t = Timeline::generate(9, &EvolutionProfile::default());
        let early = t.epoch_at(Day(100));
        let late = t.epoch_at(Day(2000));
        assert!(late.removed_blocks.len() >= early.removed_blocks.len());
        assert!(late.redesign_level >= early.redesign_level);
        assert!(late.renames.len() >= early.renames.len());
        assert!(late.content_epoch >= early.content_epoch);
    }

    #[test]
    fn semantic_lookup_and_redesign_suffix() {
        let mut e = Epoch::initial(Day(0), 0);
        assert_eq!(e.semantic(SemanticName::ContainerId, "content"), "content");
        e.apply(&ChangeEvent::SemanticRename {
            name: SemanticName::ContainerId,
            to: "main-area".to_string(),
        });
        assert_eq!(
            e.semantic(SemanticName::ContainerId, "content"),
            "main-area"
        );
        e.apply(&ChangeEvent::Redesign);
        // Individually renamed names keep their value; others get namespaced.
        assert_eq!(
            e.semantic(SemanticName::ContainerId, "content"),
            "main-area"
        );
        assert_eq!(
            e.semantic(SemanticName::BlockClass, "txt-block"),
            "txt-block-r1"
        );
    }

    #[test]
    fn promo_blocks_clamped() {
        let mut e = Epoch::initial(Day(0), 0);
        for _ in 0..10 {
            e.apply(&ChangeEvent::PromoDelta(1));
        }
        assert!(e.promo_blocks <= 4);
        for _ in 0..10 {
            e.apply(&ChangeEvent::PromoDelta(-1));
        }
        assert_eq!(e.promo_blocks, 0);
    }

    #[test]
    fn block_removal_lookup() {
        let p = EvolutionProfile {
            block_removal_prob: 1.0,
            ..Default::default()
        };
        let t = Timeline::generate(3, &p);
        for &b in BlockKind::ALL {
            let day = t.block_removed_at(b).expect("block removal scheduled");
            assert!(!t.epoch_at(day).has_block(b));
            assert!(t.epoch_at(Day(day.offset() - 1)).has_block(b));
        }
    }

    #[test]
    fn events_between_is_exclusive_inclusive() {
        let t = Timeline::generate(7, &EvolutionProfile::default());
        assert!(!t.events.is_empty());
        let (first_day, _) = t.events[0];
        // A window ending exactly on an event day includes it …
        let upto_first = t.events_between(Day(i64::MIN), first_day);
        assert!(upto_first.iter().any(|(d, _)| *d == first_day));
        // … and a window starting on it excludes it.
        let after_first = t.events_between(first_day, Day(i64::MAX));
        assert!(after_first.iter().all(|(d, _)| *d > first_day));
        let total = t.events_between(Day(i64::MIN), Day(i64::MAX)).len();
        assert_eq!(total, t.events.len());
    }

    #[test]
    fn change_classes_map_break_groups() {
        assert_eq!(
            ChangeEvent::PromoDelta(1).change_class(),
            ChangeClass::Positional
        );
        assert_eq!(
            ChangeEvent::ListLengthDelta(-1).change_class(),
            ChangeClass::Positional
        );
        assert_eq!(
            ChangeEvent::SemanticRename {
                name: SemanticName::BlockClass,
                to: "x".into()
            }
            .change_class(),
            ChangeClass::AttributeRename
        );
        assert_eq!(ChangeEvent::Redesign.change_class(), ChangeClass::Redesign);
        assert_eq!(
            ChangeEvent::RemoveBlock(BlockKind::Sidebar).change_class(),
            ChangeClass::TargetRemoved
        );
    }

    #[test]
    fn dominant_change_prefers_structural_over_positional() {
        let p = EvolutionProfile {
            semantic_rename_prob: 1.0,
            ..Default::default()
        };
        let t = Timeline::generate(2, &p);
        let rename_day = t
            .events
            .iter()
            .find_map(|(d, e)| matches!(e, ChangeEvent::SemanticRename { .. }).then_some(*d))
            .expect("a rename is scheduled");
        let class = t.dominant_change_between(Day(rename_day.offset() - 1), rename_day, None);
        assert!(
            class == ChangeClass::AttributeRename
                || class == ChangeClass::Redesign
                || class == ChangeClass::BrokenSnapshot,
            "got {class:?}"
        );
        // An event-free window is content-only (pick a day far before the
        // first event).
        let quiet = t.dominant_change_between(Day(-4000), Day(-3999), None);
        assert!(
            quiet == ChangeClass::ContentOnly || quiet == ChangeClass::BrokenSnapshot,
            "got {quiet:?}"
        );
    }

    #[test]
    fn dominant_change_scopes_removals_to_the_role_block() {
        let p = EvolutionProfile {
            block_removal_prob: 1.0,
            semantic_rename_prob: 0.0,
            redesign_prob: 0.0,
            ..Default::default()
        };
        let t = Timeline::generate(11, &p);
        let day = t.block_removed_at(BlockKind::Sidebar).unwrap();
        if !t.snapshot_broken(day) {
            // For a wrapper living in the sidebar the removal is a
            // diminishing target …
            assert_eq!(
                t.dominant_change_between(Day(day.offset() - 1), day, Some(BlockKind::Sidebar)),
                ChangeClass::TargetRemoved
            );
            // … for any other wrapper it is just positional churn.
            assert_eq!(
                t.dominant_change_between(Day(day.offset() - 1), day, Some(BlockKind::SearchForm)),
                ChangeClass::Positional
            );
        }
    }

    #[test]
    fn broken_snapshots_are_rare_and_deterministic() {
        let t = Timeline::generate(12, &EvolutionProfile::default());
        let days: Vec<Day> = (0..110).map(|i| Day(i * 20)).collect();
        let broken: Vec<bool> = days.iter().map(|&d| t.snapshot_broken(d)).collect();
        let broken_again: Vec<bool> = days.iter().map(|&d| t.snapshot_broken(d)).collect();
        assert_eq!(broken, broken_again);
        let count = broken.iter().filter(|&&b| b).count();
        assert!(count <= 8, "too many broken snapshots: {count}");
    }

    #[test]
    fn some_sites_stay_stable() {
        // With the default profile a decent fraction of sites must have no
        // semantic rename, no redesign and keep their primary blocks — these
        // are the paper's group (a) full-period survivors.
        let p = EvolutionProfile::default();
        let stable = (0..40)
            .filter(|&seed| {
                let t = Timeline::generate(seed, &p);
                let final_epoch = t.epoch_at(Day(2200));
                final_epoch.redesign_level == 0
                    && final_epoch.renames.is_empty()
                    && final_epoch.has_block(BlockKind::PrimaryField)
            })
            .count();
        assert!(stable >= 3, "only {stable}/40 sites stayed stable");
    }
}
