//! The one fan-out every batch path runs on.
//!
//! Batch extraction ([`Extractor::extract_batch`](crate::Extractor::extract_batch)),
//! per-sample candidate generation in multi-sample [`induce`](crate::induce())
//! and the registries' `maintain_batch` all apply one unit of work to many
//! independent items.  [`fan_out`] is the single policy they share:
//!
//! * fewer than 2 items, or a single core: everything runs inline on the
//!   calling thread;
//! * otherwise `min(cores, items) - 1` scoped helper threads start and the
//!   calling thread works beside them.  Every worker claims the next
//!   unclaimed index from one shared counter, so a slow item never leaves
//!   the other workers idle behind a static chunk boundary.
//!
//! Each worker builds its own scratch state with `init` the first time it
//! claims an item (an `EvalContext`, say) and reuses it for every item it
//! runs.  Results come back in input order, so a batch's output is exactly
//! that of a sequential `map`.  A panic in any item is re-raised on the
//! calling thread with its original payload.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Applies `run` to every item, spreading the items over the available
/// cores, and returns the results in input order.
///
/// `init` creates one worker's reusable state; it is called at most once
/// per worker, and not at all by a worker that claims no item.
pub fn fan_out<T, S, R>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    fan_out_with(
        cores().min(items.len()).saturating_sub(1),
        items,
        &init,
        &run,
    )
}

/// The available cores, read once: on Linux `available_parallelism` reads
/// the cgroup quota files, which costs about as much as a thread spawn.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// [`fan_out`] with an explicit number of helper threads beside the
/// calling thread.
fn fan_out_with<T, S, R>(
    helpers: usize,
    items: &[T],
    init: &(impl Fn() -> S + Sync),
    run: &(impl Fn(&mut S, &T) -> R + Sync),
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    if helpers == 0 || items.len() < 2 {
        let mut state = None;
        return items
            .iter()
            .map(|item| run(state.get_or_insert_with(init), item))
            .collect();
    }
    // The counter only hands out indices; results travel back through
    // `join`, which synchronizes, so `Relaxed` suffices.
    let next = &AtomicUsize::new(0);
    let work = move || {
        let mut state = None;
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                return done;
            };
            done.push((index, run(state.get_or_insert_with(init), item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        // A panic here propagates once the scope has joined the helpers.
        let mut done = work();
        for handle in handles {
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    /// A deterministic, uneven amount of work per item.
    fn costly(item: &u64) -> u64 {
        if item.is_multiple_of(5) {
            std::thread::sleep(Duration::from_millis(3));
        }
        (0..*item % 7 * 1000).fold(*item, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
    }

    #[test]
    fn forced_helper_counts_match_a_sequential_map() {
        let items: Vec<u64> = (0..23).collect();
        let expected: Vec<u64> = items.iter().map(costly).collect();
        for helpers in [0, 1, 2, 5, 22, 40] {
            let got = fan_out_with(helpers, &items, &|| (), &|_: &mut (), item: &u64| {
                costly(item)
            });
            assert_eq!(got, expected, "{helpers} helpers");
        }
    }

    #[test]
    fn skewed_costs_come_back_in_input_order() {
        // A few very slow items up front: workers that finish their fast
        // items early keep claiming, and the order still holds.
        let items: Vec<u64> = (0..64).map(|i| if i < 3 { 0 } else { i }).collect();
        let expected: Vec<(u64, u64)> = items.iter().map(|i| (*i, costly(i))).collect();
        let got = fan_out(&items, || (), |_, item| (*item, costly(item)));
        assert_eq!(got, expected);
        let got = fan_out_with(3, &items, &|| (), &|_: &mut (), item: &u64| {
            (*item, costly(item))
        });
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_and_single_item_batches() {
        let inits = AtomicUsize::new(0);
        let init = || inits.fetch_add(1, Ordering::Relaxed);
        let none: Vec<u64> = fan_out_with(4, &[], &init, &|_: &mut usize, item: &u64| *item);
        assert!(none.is_empty());
        assert_eq!(inits.load(Ordering::Relaxed), 0, "no item, no state");
        assert_eq!(
            fan_out_with(4, &[9u64], &init, &|_: &mut usize, item: &u64| *item + 1),
            [10]
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        assert_eq!(
            fan_out(&[] as &[u64], || (), |_, item| *item),
            Vec::<u64>::new()
        );
        assert_eq!(fan_out(&[4u64], || (), |_, item| *item * 2), [8]);
    }

    #[test]
    fn init_runs_at_most_once_per_worker() {
        let items: Vec<u64> = (0..50).collect();
        for helpers in [0, 1, 3] {
            let inits = AtomicUsize::new(0);
            // Each state is a fresh worker id.
            let got = fan_out_with(
                helpers,
                &items,
                &|| inits.fetch_add(1, Ordering::Relaxed),
                &|worker: &mut usize, item: &u64| (*worker, costly(item)),
            );
            let inits = inits.load(Ordering::Relaxed);
            assert!(
                (1..=helpers + 1).contains(&inits),
                "{inits} inits for {helpers} helpers"
            );
            let mut workers: Vec<usize> = got.iter().map(|(worker, _)| *worker).collect();
            workers.sort_unstable();
            workers.dedup();
            assert_eq!(workers.len(), inits, "every state ran at least one item");
        }
    }

    #[derive(Debug, PartialEq)]
    struct Boom(u64);

    #[test]
    fn a_panicking_item_is_re_raised_with_its_payload() {
        let items: Vec<u64> = (0..32).collect();
        for helpers in [0, 1, 3] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                fan_out_with(helpers, &items, &|| (), &|_: &mut (), item: &u64| {
                    if *item == 17 {
                        std::panic::panic_any(Boom(17));
                    }
                    costly(item)
                })
            }))
            .expect_err("the panic propagates");
            assert_eq!(
                caught.downcast_ref::<Boom>(),
                Some(&Boom(17)),
                "{helpers} helpers"
            );
        }
    }
}
