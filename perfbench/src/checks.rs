//! Output checks.  Each returns what it found wrong; the caller counts
//! every finding as a failed operation and fails the run.

use std::collections::BTreeMap;

use wi_induction::json::{parse_json, JsonValue};
use wi_maintain::{MaintenanceLog, PersistentRegistry, WrapperState};

/// What the from-scratch reference decided for one site's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteExpect {
    pub key: String,
    /// `Debug` of the reference `MaintenanceLog` (verdicts, drift classes,
    /// repairs, extracted nodes, final bundle and last-known-good).
    pub log: String,
    /// `Debug` of the reference revision history.
    pub history: String,
    /// The lifecycle state after the last snapshot.
    pub state: Option<WrapperState>,
}

/// Compares one batch's logs and the registry they were committed to with
/// the reference.  Logs are in job order, one per expected site.
pub fn archive_mismatches(
    logs: &[MaintenanceLog],
    registry: &PersistentRegistry,
    expect: &[SiteExpect],
) -> Vec<String> {
    let mut wrong = Vec::new();
    if logs.len() != expect.len() {
        wrong.push(format!("{} logs for {} sites", logs.len(), expect.len()));
        return wrong;
    }
    for (log, want) in logs.iter().zip(expect) {
        wrong.extend(persisted_mismatch(registry, want));
        if format!("{log:?}") != want.log {
            wrong.push(format!("{}: verdicts differ from the reference", want.key));
        }
    }
    wrong
}

/// Compares a registry's persisted history and state with the reference.
pub fn persisted_mismatch(registry: &PersistentRegistry, want: &SiteExpect) -> Option<String> {
    if format!("{:?}", registry.history(&want.key)) != want.history {
        return Some(format!(
            "{}: revision history differs from the reference",
            want.key
        ));
    }
    if registry.state(&want.key) != want.state {
        return Some(format!(
            "{}: state {:?}, reference {:?}",
            want.key,
            registry.state(&want.key),
            want.state
        ));
    }
    None
}

/// A library read: the texts must equal the reference extraction.
pub fn texts_mismatch(got: &[String], expected: &[String]) -> Option<String> {
    (got != expected).then(|| format!("extracted {got:?}, expected {expected:?}"))
}

/// An `/extract` response must be a 200 whose texts equal in-process
/// `extract_texts_with` on the same bytes.
pub fn extract_response_mismatch(status: u16, body: &[u8], expected: &[String]) -> Option<String> {
    if status != 200 {
        return Some(format!("/extract answered {status}"));
    }
    let texts = std::str::from_utf8(body)
        .ok()
        .and_then(|text| parse_json(text).ok())
        .and_then(|json| {
            json.get("texts")?
                .as_array()?
                .iter()
                .map(|v| v.as_str().map(String::from))
                .collect::<Option<Vec<String>>>()
        });
    match texts {
        Some(texts) => texts_mismatch(&texts, expected),
        None => Some("/extract body has no texts array".to_string()),
    }
}

/// The revision a `/maintain` or `/induce` 200 acknowledged, checking
/// that a `/maintain` replayed exactly `snapshots` epochs (a skipped,
/// already-maintained day would replay none).
pub fn write_ack(status: u16, body: &[u8], snapshots: Option<usize>) -> Result<u32, String> {
    if status != 200 {
        return Err(format!(
            "write answered {status}: {}",
            String::from_utf8_lossy(body)
        ));
    }
    let json = std::str::from_utf8(body)
        .ok()
        .and_then(|text| parse_json(text).ok())
        .ok_or("write body is not JSON")?;
    if let Some(want) = snapshots {
        let epochs = json.get("epochs").and_then(JsonValue::as_f64);
        if epochs != Some(want as f64) {
            return Err(format!("/maintain replayed {epochs:?} epochs of {want}"));
        }
    }
    json.get("revision")
        .and_then(JsonValue::as_f64)
        .map(|r| r as u32)
        .ok_or_else(|| "write body has no revision".to_string())
}

/// Every revision acknowledged over HTTP must be in the reopened
/// registry's history, and each site's current revision must be the last
/// one acknowledged.
pub fn acked_mismatches(
    acked: &BTreeMap<String, Vec<u32>>,
    registry: &PersistentRegistry,
) -> Vec<String> {
    let mut wrong = Vec::new();
    for (site, revisions) in acked {
        let history: Vec<u32> = registry.history(site).iter().map(|r| r.revision).collect();
        for revision in revisions {
            if !history.contains(revision) {
                wrong.push(format!(
                    "{site}: acknowledged revision {revision} not persisted"
                ));
            }
        }
        let current = registry.current(site).map(|b| b.revision);
        if current != revisions.last().copied() {
            wrong.push(format!(
                "{site}: current revision {current:?}, last acknowledged {:?}",
                revisions.last()
            ));
        }
    }
    wrong
}

#[cfg(test)]
mod tests {
    //! One negative case per check: a corrupted expectation must trip it.

    use super::*;
    use crate::sites;
    use wi_dom::Document;
    use wi_maintain::{MaintainConfig, Maintainer, MaintenanceJob, PageVersion, Registry};

    /// A two-site, three-snapshot batch on a persisted registry, with the
    /// from-scratch reference.
    fn batch(
        name: &str,
    ) -> (
        Vec<MaintenanceLog>,
        PersistentRegistry,
        Vec<SiteExpect>,
        std::path::PathBuf,
    ) {
        let (inputs, _) = sites::draw_sites(sites::first_site_index(1, 0), 2);
        let setup = sites::induce_all(
            &inputs,
            &mut crate::trace::Tracer::new(false),
            crate::trace::Open::none(),
            &mut crate::host::Gauge::new(),
            &mut crate::host::Total::default(),
        );
        let jobs: Vec<MaintenanceJob> = inputs
            .iter()
            .zip(&setup.installed)
            .map(|(input, site)| MaintenanceJob {
                site: site.key.clone(),
                pages: (0..3)
                    .map(|e| PageVersion {
                        day: e * 150,
                        doc: Document::parse(&sites::snapshot_html(&input.task, e * 150)).unwrap(),
                    })
                    .collect(),
                seed_lkg: Some(site.lkg.clone()),
                inducer: None,
            })
            .collect();
        let mut reference = Registry::new();
        for site in &setup.installed {
            reference.install(site.key.clone(), site.bundle.clone(), 0);
        }
        let full = Maintainer::new(
            MaintainConfig {
                incremental: false,
                ..MaintainConfig::default()
            },
            Default::default(),
        );
        let ref_logs = reference.maintain_batch_sequential(&jobs, &full);
        let expect: Vec<SiteExpect> = ref_logs
            .iter()
            .zip(&jobs)
            .map(|(log, job)| SiteExpect {
                key: job.site.clone(),
                log: format!("{log:?}"),
                history: format!("{:?}", reference.history(&job.site)),
                state: log.outcomes.last().map(|o| o.state),
            })
            .collect();
        let dir = crate::tests::scratch(name);
        let mut registry = sites::install_all(&dir, &setup.installed).unwrap();
        let logs = registry
            .maintain_batch(&jobs, &Maintainer::default())
            .unwrap();
        (logs, registry, expect, dir)
    }

    #[test]
    fn archive_check_passes_then_trips_on_each_corruption() {
        let (logs, registry, expect, dir) = batch("checks-archive");
        assert_eq!(
            archive_mismatches(&logs, &registry, &expect),
            Vec::<String>::new()
        );

        let mut bad = expect.clone();
        bad[0].log.push('x');
        assert_eq!(archive_mismatches(&logs, &registry, &bad).len(), 1);

        let mut bad = expect.clone();
        bad[1].history = "[]".into();
        assert_eq!(archive_mismatches(&logs, &registry, &bad).len(), 1);

        let mut bad = expect.clone();
        bad[0].state = None;
        assert_eq!(archive_mismatches(&logs, &registry, &bad).len(), 1);

        assert!(!archive_mismatches(&logs[..1], &registry, &expect).is_empty());
        drop(registry);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn read_checks_trip_on_wrong_texts() {
        let want = vec!["a".to_string(), "b".to_string()];
        assert!(texts_mismatch(&want, &want).is_none());
        assert!(texts_mismatch(&want, &want[..1]).is_some());

        let body = br#"{"site":"s","revision":0,"count":2,"texts":["a","b"]}"#;
        assert!(extract_response_mismatch(200, body, &want).is_none());
        assert!(extract_response_mismatch(200, body, &["a".to_string()]).is_some());
        assert!(extract_response_mismatch(404, body, &want).is_some());
        assert!(extract_response_mismatch(200, b"{}", &want).is_some());
    }

    #[test]
    fn write_checks_trip_on_missing_or_skipped_revisions() {
        assert_eq!(
            write_ack(200, br#"{"epochs":1,"revision":2}"#, Some(1)),
            Ok(2)
        );
        assert!(write_ack(200, br#"{"epochs":0,"revision":2}"#, Some(1)).is_err());
        assert!(write_ack(409, br#"{"error":"conflict"}"#, None).is_err());

        let (_, registry, expect, dir) = batch("checks-acked");
        let mut acked: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        for want in &expect {
            let current = registry.current(&want.key).unwrap().revision;
            acked.insert(want.key.clone(), vec![current]);
        }
        assert_eq!(acked_mismatches(&acked, &registry), Vec::<String>::new());
        let first = expect[0].key.clone();
        acked.get_mut(&first).unwrap().push(99);
        assert_eq!(acked_mismatches(&acked, &registry).len(), 2);
        drop(registry);
        let _ = std::fs::remove_dir_all(dir);
    }
}
