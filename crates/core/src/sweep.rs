//! Host-side fan-out for configuration sweeps.
//!
//! Sweep points are independent — each worker owns its SoC or virtual
//! platform — so the only shared state a sweep needs is a work index.
//! [`fan_out`] is that one pattern, used by `rv-nvdla sweep`, the serve
//! and fleet replays and the benchmark's sweep rows, so fixes to the
//! fan-out (ordering, panic behavior) live in exactly one place.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `task(i)` for every `i in 0..tasks` across up to `threads`
/// scoped workers, returning the results in task order.
///
/// Workers pull indices from a shared atomic counter (work stealing, so
/// uneven task costs balance out). With `threads == 1` this degrades to
/// a serial loop plus one spawn.
///
/// # Panics
///
/// Propagates a panic from any task (the scope re-raises it on join).
pub fn fan_out<T, F>(tasks: usize, threads: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, tasks.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                let result = task(i);
                *slots[i].lock().expect("result slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot").expect("task ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 7, 64] {
            let out = fan_out(13, threads, |i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_tasks_is_empty() {
        let out: Vec<u32> = fan_out(0, 4, |_| unreachable!("no tasks"));
        assert!(out.is_empty());
    }

    #[test]
    fn workers_actually_share_the_queue() {
        let hits = AtomicUsize::new(0);
        let out = fan_out(100, 4, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }
}
