//! Hierarchical timed spans.
//!
//! `let _g = span!("corpus");` opens a span that closes (and records its
//! wall time) when the guard drops. Nesting is tracked per thread: a span
//! opened while another is active on the same thread becomes its child.
//! Completed spans land in a process-wide registry; [`snapshot`] folds
//! them into a tree where same-named siblings aggregate into one node
//! with a call count and total duration.
//!
//! Two extra facilities back the trace exporter ([`crate::trace`]):
//!
//! * every record carries a small process-local **thread id** (and the
//!   thread's name, captured once), so [`events`] can reconstruct
//!   per-thread lanes of a Chrome trace;
//! * a [`SpanContext`] captured with [`context`] on one thread can be
//!   handed to [`enter_with`] on another, attaching worker spans to the
//!   spawning span instead of leaving them as orphan roots — the pattern
//!   for `std::thread::scope` fan-outs (Hogwild training, parallel
//!   HNSW build, kNN chunks).

// lint: relaxed-ok(span id/drop counters are metrics counters; trace assembly orders events by captured timestamps, not atomic ordering)

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed span occurrence.
#[derive(Clone, Debug)]
struct SpanRecord {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    /// Offset from the registry epoch at which the span opened.
    start: Duration,
    duration: Duration,
    /// Process-local id of the thread the span ran on.
    tid: u64,
}

struct Registry {
    epoch: Instant,
    records: Mutex<Vec<SpanRecord>>,
    thread_names: Mutex<BTreeMap<u64, String>>,
    next_id: AtomicUsize,
    next_tid: AtomicU64,
}

fn registry() -> &'static Registry {
    static REGISTRY: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        epoch: Instant::now(),
        records: Mutex::new(Vec::new()),
        thread_names: Mutex::new(BTreeMap::new()),
        next_id: AtomicUsize::new(0),
        next_tid: AtomicU64::new(0),
    })
}

/// The instant all span (and counter-sample) timestamps are relative to.
pub(crate) fn epoch() -> Instant {
    registry().epoch
}

thread_local! {
    /// Ids of the spans currently open on this thread, outermost first.
    static ACTIVE: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// This thread's process-local id, assigned on first span.
    static TID: RefCell<Option<u64>> = const { RefCell::new(None) };
}

/// This thread's process-local id (stable for the thread's lifetime,
/// dense from 0 in first-span order). Registers the thread's name on
/// first use.
pub fn thread_id() -> u64 {
    TID.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(tid) = *slot {
            return tid;
        }
        let reg = registry();
        let tid = reg.next_tid.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{tid}"));
        reg.thread_names
            .lock()
            .expect("thread name registry poisoned")
            .insert(tid, name);
        *slot = Some(tid);
        tid
    })
}

/// Names of every thread that has recorded a span, by thread id.
pub fn thread_names() -> BTreeMap<u64, String> {
    registry()
        .thread_names
        .lock()
        .expect("thread name registry poisoned")
        .clone()
}

/// A capturable handle to the innermost span active on the capturing
/// thread. Hand it across a thread boundary and open worker spans with
/// [`enter_with`] to keep them attached to the spawning span.
#[derive(Clone, Copy, Debug)]
pub struct SpanContext {
    parent: Option<usize>,
}

/// Captures the innermost active span of the current thread (if any).
pub fn context() -> SpanContext {
    SpanContext {
        parent: ACTIVE.with(|stack| stack.borrow().last().copied()),
    }
}

/// RAII guard for an open span; records the span on drop.
#[must_use = "a span guard that is dropped immediately records a zero-length span"]
pub struct SpanGuard {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    opened: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Robust to out-of-order drops: remove our id wherever it is.
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        let reg = registry();
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start: self.opened.duration_since(reg.epoch),
            duration: self.opened.elapsed(),
            tid: thread_id(),
        };
        reg.records
            .lock()
            .expect("span registry poisoned")
            .push(record);
    }
}

/// Opens a span; prefer the [`span!`](crate::span!) macro.
pub fn enter(name: &'static str) -> SpanGuard {
    enter_impl(name, None)
}

/// Opens a span whose parent is the span captured in `ctx` — typically on
/// a different thread — instead of this thread's innermost active span.
/// The new span still joins this thread's local stack, so spans opened
/// inside it nest normally.
pub fn enter_with(name: &'static str, ctx: SpanContext) -> SpanGuard {
    enter_impl(name, ctx.parent)
}

fn enter_impl(name: &'static str, explicit_parent: Option<usize>) -> SpanGuard {
    let reg = registry();
    let id = reg.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = ACTIVE.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = explicit_parent.or_else(|| stack.last().copied());
        stack.push(id);
        parent
    });
    SpanGuard {
        id,
        parent,
        name,
        opened: Instant::now(),
    }
}

/// Opens a [`SpanGuard`] recording wall time until the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
    ($name:expr, $ctx:expr) => {
        $crate::span::enter_with($name, $ctx)
    };
}

/// An aggregated node of the span tree: all occurrences of one span name
/// under one parent path.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanNode {
    /// Span name as given to [`enter`].
    pub name: String,
    /// Number of occurrences aggregated into this node.
    pub count: u64,
    /// Total wall time across occurrences.
    pub total: Duration,
    /// Aggregated children, ordered by first occurrence.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Finds a direct child by name.
    pub fn child(&self, name: &str) -> Option<&SpanNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Depth-first search for a descendant (or self) by name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// One raw span occurrence, as exported to trace manifests: no
/// aggregation, real thread id, timeline offsets from the process epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    /// Span name as given to [`enter`].
    pub name: &'static str,
    /// Offset from the process epoch at which the span opened.
    pub start: Duration,
    /// Wall time the span covered.
    pub duration: Duration,
    /// Process-local id of the thread the span ran on.
    pub tid: u64,
}

/// Every completed span occurrence in timeline order (by start offset).
pub fn events() -> Vec<SpanEvent> {
    let mut events: Vec<SpanEvent> = registry()
        .records
        .lock()
        .expect("span registry poisoned")
        .iter()
        .map(|r| SpanEvent {
            name: r.name,
            start: r.start,
            duration: r.duration,
            tid: r.tid,
        })
        .collect();
    events.sort_by_key(|e| e.start);
    events
}

/// Folds all completed spans into aggregated root nodes (spans whose
/// parent was still open at snapshot time surface as roots too).
pub fn snapshot() -> Vec<SpanNode> {
    let records = registry()
        .records
        .lock()
        .expect("span registry poisoned")
        .clone();
    build_tree(&records)
}

/// Drops all recorded spans (used between independent runs in one
/// process, e.g. consecutive `xp` experiments). Thread ids and names
/// survive — they identify threads, not runs.
pub fn reset() {
    registry()
        .records
        .lock()
        .expect("span registry poisoned")
        .clear();
}

fn build_tree(records: &[SpanRecord]) -> Vec<SpanNode> {
    use std::collections::{HashMap, HashSet};

    let known: HashSet<usize> = records.iter().map(|r| r.id).collect();
    // Child occurrences grouped under their parent occurrence (or root).
    let mut by_parent: HashMap<Option<usize>, Vec<&SpanRecord>> = HashMap::new();
    for r in records {
        let parent = r.parent.filter(|p| known.contains(p));
        by_parent.entry(parent).or_default().push(r);
    }

    fn fold(
        parent: Option<usize>,
        by_parent: &HashMap<Option<usize>, Vec<&SpanRecord>>,
    ) -> Vec<SpanNode> {
        let Some(occurrences) = by_parent.get(&parent) else {
            return Vec::new();
        };
        // Aggregate same-named occurrences, keeping first-seen order.
        let mut order: Vec<&'static str> = Vec::new();
        let mut grouped: BTreeMap<&'static str, (u64, Duration, Vec<SpanNode>)> = BTreeMap::new();
        let mut sorted: Vec<&&SpanRecord> = occurrences.iter().collect();
        sorted.sort_by_key(|r| r.start);
        for r in sorted {
            let entry = grouped.entry(r.name).or_insert_with(|| {
                order.push(r.name);
                (0, Duration::ZERO, Vec::new())
            });
            entry.0 += 1;
            entry.1 += r.duration;
            // Merge this occurrence's children into the aggregate node.
            for child in fold(Some(r.id), by_parent) {
                if let Some(existing) = entry.2.iter_mut().find(|c| c.name == child.name) {
                    existing.count += child.count;
                    existing.total += child.total;
                    merge_children(&mut existing.children, child.children);
                } else {
                    entry.2.push(child);
                }
            }
        }
        order
            .into_iter()
            .map(|name| {
                let (count, total, children) = grouped.remove(name).expect("grouped by name");
                SpanNode {
                    name: name.to_string(),
                    count,
                    total,
                    children,
                }
            })
            .collect()
    }

    fn merge_children(into: &mut Vec<SpanNode>, from: Vec<SpanNode>) {
        for child in from {
            if let Some(existing) = into.iter_mut().find(|c| c.name == child.name) {
                existing.count += child.count;
                existing.total += child.total;
                merge_children(&mut existing.children, child.children);
            } else {
                into.push(child);
            }
        }
    }

    fold(None, &by_parent)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs in a dedicated thread so this test's parent stack cannot see
    /// spans from concurrently running tests.
    fn in_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| s.spawn(f).join().expect("test thread panicked"))
    }

    #[test]
    fn nesting_and_aggregation() {
        in_fresh_thread(|| {
            {
                let _outer = enter("test_outer");
                for _ in 0..3 {
                    let _inner = enter("test_inner");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                let _other = enter("test_other");
            }
            let roots = snapshot();
            let outer = roots
                .iter()
                .find_map(|r| r.find("test_outer"))
                .expect("outer span");
            assert_eq!(outer.count, 1);
            let inner = outer.child("test_inner").expect("inner nested under outer");
            assert_eq!(inner.count, 3, "three occurrences aggregate into one node");
            assert!(outer.child("test_other").is_some());
            // Children appear in first-occurrence order.
            assert_eq!(outer.children[0].name, "test_inner");
        });
    }

    #[test]
    fn timing_is_monotone() {
        in_fresh_thread(|| {
            {
                let _outer = enter("test_mono_outer");
                let _inner = enter("test_mono_inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let roots = snapshot();
            let outer = roots
                .iter()
                .find_map(|r| r.find("test_mono_outer"))
                .expect("outer");
            let inner = outer.child("test_mono_inner").expect("inner");
            assert!(inner.total >= std::time::Duration::from_millis(2));
            assert!(
                outer.total >= inner.total,
                "parent {:?} must cover child {:?}",
                outer.total,
                inner.total
            );
        });
    }

    #[test]
    fn spans_on_other_threads_become_roots() {
        let handle = std::thread::spawn(|| {
            let _g = enter("test_thread_root");
        });
        handle.join().unwrap();
        let roots = snapshot();
        assert!(roots.iter().any(|r| r.name == "test_thread_root"));
    }

    #[test]
    fn context_attaches_worker_spans_to_spawning_span() {
        in_fresh_thread(|| {
            {
                let _outer = enter("test_ctx_outer");
                let ctx = context();
                std::thread::scope(|s| {
                    for _ in 0..2 {
                        s.spawn(move || {
                            let _w = enter_with("test_ctx_worker", ctx);
                            // A span opened inside the worker span nests
                            // under it through the local stack.
                            let _inner = enter("test_ctx_worker_inner");
                        });
                    }
                });
            }
            let roots = snapshot();
            let outer = roots
                .iter()
                .find_map(|r| r.find("test_ctx_outer"))
                .expect("outer span");
            let worker = outer
                .child("test_ctx_worker")
                .expect("worker spans attach to the captured parent");
            assert_eq!(worker.count, 2, "both workers aggregate");
            assert_eq!(
                worker.child("test_ctx_worker_inner").map(|n| n.count),
                Some(2),
                "nested spans chain under the worker span"
            );
            assert!(
                !roots.iter().any(|r| r.name == "test_ctx_worker"),
                "no orphan worker roots"
            );
        });
    }

    #[test]
    fn events_carry_distinct_thread_ids() {
        let main_tid = thread_id();
        {
            let _g = enter("test_tid_main");
        }
        std::thread::spawn(|| {
            let _g = enter("test_tid_worker");
        })
        .join()
        .unwrap();
        let events = events();
        let main_ev = events
            .iter()
            .find(|e| e.name == "test_tid_main")
            .expect("main event");
        let worker_ev = events
            .iter()
            .find(|e| e.name == "test_tid_worker")
            .expect("worker event");
        assert_eq!(main_ev.tid, main_tid);
        assert_ne!(main_ev.tid, worker_ev.tid);
        let names = thread_names();
        assert!(names.contains_key(&main_ev.tid));
        assert!(names.contains_key(&worker_ev.tid));
    }

    #[test]
    fn events_are_timeline_ordered() {
        {
            let _a = enter("test_order_a");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _b = enter("test_order_b");
        }
        let events = events();
        for pair in events.windows(2) {
            assert!(pair[0].start <= pair[1].start, "events sorted by start");
        }
    }
}
