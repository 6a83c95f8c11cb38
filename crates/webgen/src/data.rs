//! Deterministic page content ("the data behind the template").
//!
//! A [`PageData`] value holds everything variable that a rendered page shows:
//! the entity (movie, hotel, product, article…), the people involved, the
//! main item list, label–value fields, prices, dates, prose.  It is a pure
//! function of `(site seed, page index, content epoch)`, which is what lets
//! the ground-truth oracle in [`crate::tasks`] re-identify target nodes *by
//! value* on any snapshot — the same way the paper's automated annotators
//! find known instances in pages.

use crate::style::Vertical;
use crate::vocab::{mix_seed, ValueGen};

/// One entry of a page's main item list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListItem {
    /// The item's title (result title, cast member role, news headline…).
    pub title: String,
    /// A person associated with the item (author, actor, agent).
    pub person: String,
    /// A price string (product lists, hotel offers).
    pub price: String,
    /// A textual date.
    pub date: String,
    /// A location string.
    pub location: String,
}

/// All variable content of one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageData {
    /// Main entity title (movie title, hotel name, product name, headline).
    pub entity_title: String,
    /// The primary person of the page (director, author, listing agent).
    pub primary_person: String,
    /// Secondary people (stars, co-authors).
    pub secondary_people: Vec<String>,
    /// The page's main item list.
    pub list_items: Vec<ListItem>,
    /// Label–value rows rendered as template fields.
    pub fields: Vec<(String, String)>,
    /// A price associated with the entity.
    pub price: String,
    /// A rating value.
    pub rating: String,
    /// A textual date (release date, publication date).
    pub date: String,
    /// The entity's location.
    pub location: String,
    /// An organisation related to the entity (studio, publisher, chain).
    pub organisation: String,
    /// Body paragraphs.
    pub paragraphs: Vec<String>,
    /// Sidebar "related" link labels.
    pub related: Vec<String>,
}

impl PageData {
    /// Generates the content of a page.
    ///
    /// `content_epoch` changes whenever the site's data is "refreshed"
    /// (articles rotate, prices change); two snapshots within the same epoch
    /// show identical data.
    pub fn generate(
        vertical: Vertical,
        site_seed: u64,
        page_index: u64,
        content_epoch: u64,
    ) -> PageData {
        let mut g = ValueGen::new(mix_seed(&[site_seed, page_index, content_epoch, 0xda7a]));
        // The entity itself is stable across content epochs (an IMDB movie
        // page keeps its movie); only the surrounding data rotates.
        let mut stable = ValueGen::new(mix_seed(&[site_seed, page_index, 0x57ab1e]));
        let entity_title = format!("The {}", stable.title());
        let primary_person = stable.person_with_initial();
        let location = stable.city();
        let organisation = stable.organisation();

        let list_len = (4
            + (mix_seed(&[site_seed, page_index]) % 6) as i64
            + (content_epoch % 3) as i64) as usize;
        let list_items = (0..list_len)
            .map(|_| ListItem {
                title: g.title(),
                person: g.person_short(),
                price: g.price(),
                date: g.textual_date(),
                location: g.city(),
            })
            .collect();

        let fields = match vertical {
            Vertical::Movies | Vertical::Video => vec![
                ("Director:".to_string(), primary_person.clone()),
                ("Country:".to_string(), stable.country()),
                ("Release Date:".to_string(), g.textual_date()),
                ("Rating:".to_string(), g.rating()),
            ],
            Vertical::Travel | Vertical::Events | Vertical::RealEstate => vec![
                ("Location:".to_string(), location.clone()),
                ("Country:".to_string(), stable.country()),
                ("Price:".to_string(), g.price()),
                ("Contact:".to_string(), primary_person.clone()),
            ],
            Vertical::Shopping | Vertical::Recipes => vec![
                ("Brand:".to_string(), organisation.clone()),
                ("Price:".to_string(), g.price()),
                ("Available:".to_string(), g.textual_date()),
                ("Seller:".to_string(), primary_person.clone()),
            ],
            Vertical::News | Vertical::Reference => vec![
                ("Author:".to_string(), primary_person.clone()),
                ("Published:".to_string(), g.textual_date()),
                ("Section:".to_string(), "Politics".to_string()),
                ("Source:".to_string(), organisation.clone()),
            ],
            Vertical::Sports | Vertical::Finance | Vertical::Jobs => vec![
                ("Organisation:".to_string(), organisation.clone()),
                ("Date:".to_string(), g.textual_date()),
                ("Location:".to_string(), location.clone()),
                ("Contact:".to_string(), primary_person.clone()),
            ],
        };

        PageData {
            entity_title,
            primary_person,
            secondary_people: g.people(4),
            list_items,
            fields,
            price: g.price(),
            rating: format!("{} / 10", g.rating()),
            date: g.textual_date(),
            location,
            organisation,
            paragraphs: (0..3).map(|_| g.sentence()).collect(),
            related: (0..5).map(|_| format!("About {}", g.title())).collect(),
        }
    }

    /// The label of the page's primary label–value field ("Director:",
    /// "Author:", "Location:" …).
    pub fn primary_label(&self) -> &str {
        &self.fields[0].0
    }

    /// All template labels of this page (used for template-only text
    /// policies in the induction configuration).
    pub fn template_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.fields.iter().map(|(l, _)| l.clone()).collect();
        labels.extend(
            [
                "Latest News",
                "Top Stories",
                "Results",
                "Cast",
                "Amenities",
                "Related",
                "Offers:",
                "Channels",
                "Next",
                "Search",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_is_deterministic() {
        let a = PageData::generate(Vertical::Movies, 7, 3, 5);
        let b = PageData::generate(Vertical::Movies, 7, 3, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn entity_is_stable_across_content_epochs() {
        let a = PageData::generate(Vertical::Movies, 7, 3, 5);
        let b = PageData::generate(Vertical::Movies, 7, 3, 9);
        assert_eq!(a.entity_title, b.entity_title);
        assert_eq!(a.primary_person, b.primary_person);
        // …but the rotating content differs.
        assert_ne!(a.list_items, b.list_items);
    }

    #[test]
    fn different_pages_have_different_entities() {
        let a = PageData::generate(Vertical::Movies, 7, 0, 0);
        let b = PageData::generate(Vertical::Movies, 7, 1, 0);
        assert!(a.entity_title != b.entity_title || a.primary_person != b.primary_person);
    }

    #[test]
    fn vertical_specific_labels() {
        let movies = PageData::generate(Vertical::Movies, 1, 0, 0);
        assert_eq!(movies.primary_label(), "Director:");
        let travel = PageData::generate(Vertical::Travel, 1, 0, 0);
        assert_eq!(travel.primary_label(), "Location:");
        let news = PageData::generate(Vertical::News, 1, 0, 0);
        assert_eq!(news.primary_label(), "Author:");
        assert!(movies.template_labels().contains(&"Director:".to_string()));
    }

    #[test]
    fn list_lengths_in_expected_range() {
        for page in 0..20 {
            let d = PageData::generate(Vertical::Shopping, 11, page, 2);
            assert!(
                (4..=12).contains(&d.list_items.len()),
                "unexpected list length {}",
                d.list_items.len()
            );
        }
    }
}
