//! Site styles: the per-site structural and naming choices that make two
//! sites of the same vertical look different.
//!
//! A [`SiteStyle`] is drawn deterministically from the site's seed and fixes
//! the things the induced wrappers will latch onto: container ids, class
//! naming scheme, whether Microdata (`itemprop`) is emitted, how item lists
//! are marked up, and how many navigation/advert slots the chrome carries.

use crate::vocab::mix_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The application domain ("vertical") of a site.  The paper's datasets span
/// "over 20 different verticals, such as Movies, News, and Travel".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Vertical {
    /// Movie database pages (IMDB-like detail pages).
    Movies,
    /// News front/article pages.
    News,
    /// Hotel / travel detail pages (Tripadvisor-like).
    Travel,
    /// Product listing / e-commerce pages.
    Shopping,
    /// Sports scores and team pages.
    Sports,
    /// Banking / finance product pages.
    Finance,
    /// Reference / encyclopedia articles.
    Reference,
    /// Video portal pages.
    Video,
    /// Job listing pages.
    Jobs,
    /// Event / ticketing pages.
    Events,
    /// Recipe pages.
    Recipes,
    /// Real-estate listing pages.
    RealEstate,
}

impl Vertical {
    /// All verticals, in a fixed order.
    pub const ALL: &'static [Vertical] = &[
        Vertical::Movies,
        Vertical::News,
        Vertical::Travel,
        Vertical::Shopping,
        Vertical::Sports,
        Vertical::Finance,
        Vertical::Reference,
        Vertical::Video,
        Vertical::Jobs,
        Vertical::Events,
        Vertical::Recipes,
        Vertical::RealEstate,
    ];

    /// A short lowercase name used in site ids.
    pub fn slug(self) -> &'static str {
        match self {
            Vertical::Movies => "movies",
            Vertical::News => "news",
            Vertical::Travel => "travel",
            Vertical::Shopping => "shopping",
            Vertical::Sports => "sports",
            Vertical::Finance => "finance",
            Vertical::Reference => "reference",
            Vertical::Video => "video",
            Vertical::Jobs => "jobs",
            Vertical::Events => "events",
            Vertical::Recipes => "recipes",
            Vertical::RealEstate => "realestate",
        }
    }
}

/// How the main item list of a page is marked up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ListKind {
    /// `<ul class="…"><li>…</li></ul>`
    UnorderedList,
    /// `<table><tr><td>…</td></tr></table>`
    Table,
    /// `<div class="grid"><div class="cell">…</div></div>`
    DivGrid,
}

/// How label–value template rows ("Director: …") are marked up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LabelStyle {
    /// `<h4 class="inline">Director:</h4> <span>…</span>`
    Heading,
    /// `<strong>Director:</strong> <span>…</span>`
    Strong,
    /// `<span class="label" title="Director">…</span>`
    TitleAttribute,
}

/// The per-site structural/naming profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteStyle {
    /// Whether `itemprop`/`itemtype` Microdata attributes are emitted.
    pub uses_microdata: bool,
    /// Markup of the main item list.
    pub list_kind: ListKind,
    /// Markup of label–value rows.
    pub label_style: LabelStyle,
    /// Prefix used when generating class names (`"hp"`, `"c"`, `"site"` …).
    pub class_prefix: String,
    /// The id of the main content container (`"content"`, `"main"` …).
    pub container_id: String,
    /// The id of the page header region.
    pub header_id: String,
    /// Number of navigation entries in the chrome.
    pub nav_items: usize,
    /// Number of advert slots in the sidebar.
    pub ad_slots: usize,
    /// Whether the search form appears in the header.
    pub has_search: bool,
    /// Number of decorative wrapper `div`s around the main content (depth
    /// padding; canonical paths are sensitive to it).
    pub wrapper_depth: usize,
    /// Class name used for class-drift experiments (it embeds a numeric
    /// suffix like `headline20` that redesigns bump to `headline16`).
    pub versioned_class: String,
}

impl SiteStyle {
    /// Draws a style deterministically from a site seed.
    pub fn from_seed(seed: u64) -> SiteStyle {
        let mut rng = StdRng::seed_from_u64(mix_seed(&[seed, 0xc0ffee]));
        let prefixes = ["hp", "c", "site", "m", "page", "app"];
        let containers = ["content", "main", "page-body", "wrapper-main", "console"];
        let headers = ["header", "masthead", "top", "site-head"];
        let class_prefix = prefixes[rng.random_range(0..prefixes.len())].to_string();
        SiteStyle {
            uses_microdata: rng.random_bool(0.45),
            list_kind: match rng.random_range(0..3) {
                0 => ListKind::UnorderedList,
                1 => ListKind::Table,
                _ => ListKind::DivGrid,
            },
            label_style: match rng.random_range(0..3) {
                0 => LabelStyle::Heading,
                1 => LabelStyle::Strong,
                _ => LabelStyle::TitleAttribute,
            },
            class_prefix,
            container_id: containers[rng.random_range(0..containers.len())].to_string(),
            header_id: headers[rng.random_range(0..headers.len())].to_string(),
            nav_items: rng.random_range(4..9),
            ad_slots: rng.random_range(1..4),
            has_search: rng.random_bool(0.85),
            wrapper_depth: rng.random_range(1..4),
            versioned_class: format!("headline{}", rng.random_range(16..24)),
        }
    }

    /// A class name with the site's prefix (`cls("title")` → `"hp-title"`).
    pub fn cls(&self, suffix: &str) -> String {
        format!("{}-{}", self.class_prefix, suffix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn styles_are_deterministic() {
        let a = SiteStyle::from_seed(17);
        let b = SiteStyle::from_seed(17);
        assert_eq!(a, b);
    }

    #[test]
    fn styles_vary_across_seeds() {
        let styles: Vec<SiteStyle> = (0..30).map(SiteStyle::from_seed).collect();
        let microdata = styles.iter().filter(|s| s.uses_microdata).count();
        assert!(
            microdata > 3 && microdata < 27,
            "microdata share {microdata}/30"
        );
        let list_kinds: std::collections::HashSet<_> = styles.iter().map(|s| s.list_kind).collect();
        assert!(list_kinds.len() >= 2);
        let prefixes: std::collections::HashSet<_> =
            styles.iter().map(|s| s.class_prefix.clone()).collect();
        assert!(prefixes.len() >= 3);
    }

    #[test]
    fn class_names_use_prefix() {
        let s = SiteStyle::from_seed(3);
        let c = s.cls("title");
        assert!(c.starts_with(&s.class_prefix));
        assert!(c.ends_with("-title"));
    }

    #[test]
    fn verticals_have_unique_slugs() {
        let slugs: std::collections::HashSet<_> = Vertical::ALL.iter().map(|v| v.slug()).collect();
        assert_eq!(slugs.len(), Vertical::ALL.len());
    }

    #[test]
    fn nav_and_ads_in_sane_ranges() {
        for seed in 0..20 {
            let s = SiteStyle::from_seed(seed);
            assert!((4..9).contains(&s.nav_items));
            assert!((1..4).contains(&s.ad_slots));
            assert!((1..4).contains(&s.wrapper_depth));
            assert!(s.versioned_class.starts_with("headline"));
        }
    }
}
