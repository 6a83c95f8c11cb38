//! Micro-benchmarks of the substrates: HTML parsing, XPath evaluation,
//! scoring, canonical paths and single-sample induction.  These are the
//! components whose cost dominates the experiment harness.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use wi_dom::{parse_html, to_html};
use wi_induction::{Sample, WrapperInducer};
use wi_scoring::{score_query, ScoringParams};
use wi_webgen::date::Day;
use wi_webgen::site::{PageKind, Site};
use wi_webgen::style::Vertical;
use wi_xpath::{canonical_path, evaluate, parse_query};

fn sample_page_html() -> String {
    let site = Site::new(Vertical::Movies, 7);
    let doc = site.render(0, Day(0), PageKind::Detail);
    to_html(&doc)
}

fn bench_parse_html(c: &mut Criterion) {
    let html = sample_page_html();
    c.bench_function("dom_parse_html_page", |b| {
        b.iter(|| parse_html(&html).unwrap())
    });
    // Freeing a parsed page on its own (the parse bench above pays it too).
    c.bench_function("dom_drop_page", |b| {
        b.iter_batched(|| parse_html(&html).unwrap(), drop, BatchSize::SmallInput)
    });
}

fn bench_xpath_evaluate(c: &mut Criterion) {
    let html = sample_page_html();
    let doc = parse_html(&html).unwrap();
    let q = parse_query(
        r#"descendant::div[starts-with(.,"Director:")]/descendant::span[@itemprop="name"]"#,
    )
    .unwrap();
    c.bench_function("xpath_evaluate_two_steps", |b| {
        b.iter(|| evaluate(&q, &doc, doc.root()))
    });
}

fn bench_canonical_path(c: &mut Criterion) {
    let html = sample_page_html();
    let doc = parse_html(&html).unwrap();
    let span = doc
        .descendants(doc.root())
        .filter(|&n| doc.tag_name(n) == Some("span"))
        .last()
        .unwrap();
    c.bench_function("xpath_canonical_path", |b| {
        b.iter(|| canonical_path(&doc, span))
    });
}

fn bench_scoring(c: &mut Criterion) {
    let params = ScoringParams::paper_defaults();
    let q = parse_query(
        r#"descendant::div[@class="contentSmLeft"]/descendant::img[contains(@class,"adv")][1]"#,
    )
    .unwrap();
    c.bench_function("scoring_score_query", |b| {
        b.iter(|| score_query(&q, &params))
    });
}

fn bench_page_generation(c: &mut Criterion) {
    let site = Site::new(Vertical::News, 3);
    c.bench_function("webgen_render_page", |b| {
        b.iter(|| site.render(0, Day(400), PageKind::Detail))
    });
}

fn bench_single_induction(c: &mut Criterion) {
    let site = Site::new(Vertical::Movies, 11);
    let task = wi_webgen::tasks::WrapperTask::new(
        site,
        0,
        PageKind::Detail,
        wi_webgen::tasks::TargetRole::PrimaryValue,
    );
    c.bench_function("induction_single_node", |b| {
        b.iter_batched(
            || task.page_with_targets(Day(0)),
            |(doc, targets)| {
                let inducer = WrapperInducer::with_k(5);
                let sample = Sample::from_root(&doc, &targets);
                inducer.induce(&[sample])
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_multi_induction(c: &mut Criterion) {
    let site = Site::new(Vertical::News, 12);
    let task = wi_webgen::tasks::WrapperTask::new(
        site,
        0,
        PageKind::Detail,
        wi_webgen::tasks::TargetRole::ListTitles,
    );
    c.bench_function("induction_multi_node", |b| {
        b.iter_batched(
            || task.page_with_targets(Day(0)),
            |(doc, targets)| {
                let inducer = WrapperInducer::with_k(5);
                let sample = Sample::from_root(&doc, &targets);
                inducer.induce(&[sample])
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_batch_extraction(c: &mut Criterion) {
    use wi_induction::Extractor;
    let site = Site::new(Vertical::Movies, 11);
    let task = wi_webgen::tasks::WrapperTask::new(
        site.clone(),
        0,
        PageKind::Detail,
        wi_webgen::tasks::TargetRole::PrimaryValue,
    );
    let (doc, targets) = task.page_with_targets(Day(0));
    let wrapper = WrapperInducer::with_k(5)
        .try_induce_best(&doc, &targets)
        .expect("induction succeeds");
    let docs: Vec<_> = (0..64)
        .map(|step| site.render(0, Day(step * 30), PageKind::Detail))
        .collect();
    c.bench_function("extract_batch_parallel_64_docs", |b| {
        b.iter(|| wrapper.extract_batch(&docs))
    });
    c.bench_function("extract_batch_sequential_64_docs", |b| {
        b.iter(|| wrapper.extract_batch_sequential(&docs))
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_parse_html, bench_xpath_evaluate, bench_canonical_path,
              bench_scoring, bench_page_generation, bench_single_induction,
              bench_multi_induction, bench_batch_extraction
}
criterion_main!(micro);
