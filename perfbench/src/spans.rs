//! In-memory spans for the traced run: a per-thread allocation counter, a
//! span recorder with explicit cross-thread parents, self-time and coverage
//! math, and Chrome trace-event output.
//!
//! Spans are opened only by the benchmark's own code, around calls into the
//! workspace crates' public functions; nothing inside the program changes.
//! Every timestamp comes from the exec crate's [`WallClock`] — the same
//! clock seam the engine's task profiles are stamped through.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use uopcache_exec::{Clock, WallClock};
use uopcache_model::hash::FastHashMap;
use uopcache_model::json::Json;

/// The deepest span nesting one thread may hold open.
const MAX_DEPTH: usize = 16;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD: Cell<u32> = const { Cell::new(0) };
    static STACK: Cell<[u32; MAX_DEPTH]> = const { Cell::new([0; MAX_DEPTH]) };
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static ROOT: Cell<u32> = const { Cell::new(0) };
    static CELL: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocation events (alloc, alloc_zeroed
/// and realloc) per thread and tracking the process's live heap bytes and
/// their high-water mark.
pub struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn on_free(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the bookkeeping is
// a const-initialised thread-local `Cell` and two atomics, so it never
// allocates. Failed (null) allocations are not counted.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_free(layout.size());
    }
}

/// Allocation events on the calling thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// The most heap bytes the process has held live at once since the last
/// [`reset_peak`].
pub fn peak_heap_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the bytes live now, and returns them,
/// so that `peak_heap_bytes() - reset_peak()` is what a stretch of work
/// added on top of what was already held.
pub fn reset_peak() -> usize {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// One closed span. `parent` and `id` are recorder-assigned (0 = none);
/// `allocs` is inclusive and counts only the span's own thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Recorder-unique id (never 0).
    pub id: u32,
    /// The enclosing span, possibly on another thread (0 = top level).
    pub parent: u32,
    /// Dotted name; the part before the first `.` is the layer.
    pub name: &'static str,
    /// Recorder-assigned thread index.
    pub thread: u32,
    /// The sweep cell (task-key seed) the span worked for, 0 if none.
    pub cell: u64,
    /// Start, in clock nanoseconds.
    pub start: u64,
    /// End, in clock nanoseconds.
    pub end: u64,
    /// Allocation events on `thread` while the span was open.
    pub allocs: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// The benchmark's single timing source.
pub fn clock() -> &'static WallClock {
    static CLOCK: OnceLock<WallClock> = OnceLock::new();
    CLOCK.get_or_init(WallClock::new)
}

/// Nanoseconds on [`clock`].
pub fn now() -> u64 {
    clock().now()
}

fn spans_lock() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Starts recording: clears earlier spans and reserves room so that span
/// bookkeeping does not allocate inside measured code.
pub fn start_recording() {
    let mut spans = spans_lock();
    spans.clear();
    spans.reserve(1 << 17);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and returns every closed span.
pub fn stop_recording() -> Vec<Span> {
    ENABLED.store(false, Ordering::SeqCst);
    std::mem::take(&mut *spans_lock())
}

/// This thread's recorder-assigned index (as in [`Span::thread`]).
pub fn thread_index() -> u32 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The innermost open span on this thread (or its adopted root), 0 if none.
/// Spans nested deeper than [`MAX_DEPTH`] report the deepest tracked one.
pub fn current_span() -> u32 {
    match DEPTH.with(Cell::get).min(MAX_DEPTH) {
        0 => ROOT.with(Cell::get),
        depth => STACK.with(Cell::get)[depth - 1],
    }
}

/// Restores a thread's adopted root and cell when dropped.
pub struct Adopted {
    root: u32,
    cell: u64,
}

impl Drop for Adopted {
    fn drop(&mut self) {
        ROOT.with(|r| r.set(self.root));
        CELL.with(|c| c.set(self.cell));
    }
}

/// Makes `parent` (a span opened on another thread) the parent of this
/// thread's top-level spans, attributed to `cell`, until the guard drops —
/// how engine tasks attach to the stage span that submitted them.
pub fn adopt_parent(parent: u32, cell: u64) -> Adopted {
    Adopted {
        root: ROOT.with(|r| r.replace(parent)),
        cell: CELL.with(|c| c.replace(cell)),
    }
}

/// An open span; records itself when dropped.
pub struct SpanGuard {
    id: u32,
    parent: u32,
    name: &'static str,
    start: u64,
    allocs: u64,
}

/// Opens a span named `name` on this thread (a no-op when not recording).
pub fn open_span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard {
            id: 0,
            parent: 0,
            name,
            start: 0,
            allocs: 0,
        };
    }
    let parent = current_span();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let depth = DEPTH.with(Cell::get);
    if depth < MAX_DEPTH {
        STACK.with(|s| {
            let mut stack = s.get();
            stack[depth] = id;
            s.set(stack);
        });
    }
    DEPTH.with(|d| d.set(depth + 1));
    SpanGuard {
        id,
        parent,
        name,
        start: now(),
        allocs: thread_allocs(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = now();
        let allocs = thread_allocs() - self.allocs;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: thread_index(),
            cell: CELL.with(Cell::get),
            start: self.start,
            end,
            allocs,
        };
        spans_lock().push(span);
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = open_span(name);
    f()
}

/// Each span's self time (ns) and self allocations, in `spans` order: its
/// duration and allocations minus those of its children **on the same
/// thread**. Children on other threads ran concurrently, so they do not
/// reduce the parent's self time.
fn self_values(spans: &[Span]) -> Vec<(u64, u64)> {
    let thread_of: FastHashMap<u32, u32> = spans.iter().map(|s| (s.id, s.thread)).collect();
    let mut children: FastHashMap<u32, (u64, u64)> = FastHashMap::default();
    for s in spans {
        if thread_of.get(&s.parent) == Some(&s.thread) {
            let e = children.entry(s.parent).or_insert((0, 0));
            e.0 += s.dur();
            e.1 += s.allocs;
        }
    }
    spans
        .iter()
        .map(|s| {
            let (ct, ca) = children.get(&s.id).copied().unwrap_or((0, 0));
            (s.dur().saturating_sub(ct), s.allocs.saturating_sub(ca))
        })
        .collect()
}

/// Per-name totals of self time (ns) and self allocations.
pub fn self_totals(spans: &[Span]) -> FastHashMap<&'static str, (u64, u64)> {
    let mut totals: FastHashMap<&'static str, (u64, u64)> = FastHashMap::default();
    for (s, (t, a)) in spans.iter().zip(self_values(spans)) {
        let e = totals.entry(s.name).or_insert((0, 0));
        e.0 += t;
        e.1 += a;
    }
    totals
}

/// Spans that only wait for other threads: the engine stages (their tasks
/// run on the workers) and the serve round's wait for its clients.
const WAITS: [&str; 3] = ["exec.prepare_stage", "exec.simulate_stage", "serve.clients"];

/// Spans that frame a unit of work on their thread without doing it
/// themselves: an engine task, a served job, a client's submission loop.
const FRAMES: [&str; 3] = ["exec.task", "serve.run_job", "serve.client"];

/// Whether `name` is a work-layer span, i.e. neither a wait nor a frame.
pub fn is_work(name: &str) -> bool {
    !WAITS.contains(&name) && !FRAMES.contains(&name)
}

/// Sorted, disjoint union of half-open intervals.
fn union(mut xs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    xs.retain(|(a, b)| a < b);
    xs.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(xs.len());
    for (a, b) in xs {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// `a` minus `b`, both sorted and disjoint.
fn subtract(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for &(mut lo, hi) in a {
        for &(c, d) in b {
            if c >= hi || d <= lo {
                continue;
            }
            if c > lo {
                out.push((lo, c));
            }
            lo = d;
        }
        if lo < hi {
            out.push((lo, hi));
        }
    }
    out
}

fn total(xs: &[(u64, u64)]) -> u64 {
    xs.iter().map(|(a, b)| b - a).sum()
}

/// The share of framed time that work-layer spans cover, over all threads.
///
/// A thread's framed time is where it is known to be busy: on `main`, the
/// window `[from, to)` minus its wait spans; on every thread, its frame
/// spans (engine tasks, served jobs, client loops). Covered time is the
/// part of that under the thread's work spans (see [`is_work`]). Waits and
/// frames never cover anything themselves, so a gap inside a task that no
/// layer span accounts for lowers the share.
pub fn coverage(spans: &[Span], main: u32, from: u64, to: u64) -> f64 {
    let mut threads: Vec<u32> = spans.iter().map(|s| s.thread).collect();
    threads.push(main);
    threads.sort_unstable();
    threads.dedup();
    let (mut covered, mut framed) = (0u64, 0u64);
    for t in threads {
        let clip = |pred: &dyn Fn(&str) -> bool| -> Vec<(u64, u64)> {
            union(
                spans
                    .iter()
                    .filter(|s| s.thread == t && pred(s.name))
                    .map(|s| (s.start.max(from), s.end.min(to)))
                    .collect(),
            )
        };
        let mut frames = clip(&|n| FRAMES.contains(&n));
        if t == main {
            frames.extend(subtract(&[(from, to)], &clip(&|n| WAITS.contains(&n))));
        }
        let frames = union(frames);
        let idle = subtract(&frames, &clip(&is_work));
        framed += total(&frames);
        covered += total(&frames) - total(&idle);
    }
    if framed == 0 {
        0.0
    } else {
        covered as f64 / framed as f64
    }
}

/// Renders spans as Chrome trace-event JSON (complete `X` events, one
/// track per thread), with per-span self time and allocation counts and a
/// cell-id → task-key legend.
pub fn chrome_trace(spans: &[Span], cells: &[(u64, String)]) -> String {
    let mut ordered: Vec<(&Span, (u64, u64))> = spans.iter().zip(self_values(spans)).collect();
    ordered.sort_by_key(|(s, _)| (s.start, s.id));
    let events = ordered
        .into_iter()
        .map(|(s, (self_ns, self_allocs))| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str(s.name.to_string())),
                ("cat".to_string(), Json::Str(s.layer().to_string())),
                ("ph".to_string(), Json::Str("X".to_string())),
                ("ts".to_string(), Json::F64(s.start as f64 / 1e3)),
                ("dur".to_string(), Json::F64(s.dur() as f64 / 1e3)),
                ("pid".to_string(), Json::U64(1)),
                ("tid".to_string(), Json::U64(u64::from(s.thread))),
                (
                    "args".to_string(),
                    Json::Obj(vec![
                        ("id".to_string(), Json::U64(u64::from(s.id))),
                        ("parent".to_string(), Json::U64(u64::from(s.parent))),
                        ("cell".to_string(), Json::Str(format!("{:016x}", s.cell))),
                        ("allocs".to_string(), Json::U64(s.allocs)),
                        ("self_allocs".to_string(), Json::U64(self_allocs)),
                        ("self_us".to_string(), Json::F64(self_ns as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    let legend = cells
        .iter()
        .map(|(seed, key)| (format!("{seed:016x}"), Json::Str(key.clone())))
        .collect();
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
        (
            "otherData".to_string(),
            Json::Obj(vec![("cells".to_string(), Json::Obj(legend))]),
        ),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, thread: u32, start: u64, end: u64, allocs: u64) -> Span {
        Span {
            id,
            parent,
            name: ["a.top", "b.mid", "c.leaf", "d.worker"][(id as usize - 1).min(3)],
            thread,
            cell: 0,
            start,
            end,
            allocs,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_on_the_same_thread_only() {
        // a.top [0,100) ⊃ b.mid [10,60) ⊃ c.leaf [20,30); d.worker runs on
        // another thread under a.top and must not reduce its self time.
        let spans = vec![
            span(3, 2, 1, 20, 30, 1),
            span(2, 1, 1, 10, 60, 5),
            span(4, 1, 2, 0, 90, 7),
            span(1, 0, 1, 0, 100, 9),
        ];
        let t = self_totals(&spans);
        assert_eq!(t["a.top"], (50, 4));
        assert_eq!(t["b.mid"], (40, 4));
        assert_eq!(t["c.leaf"], (10, 1));
        assert_eq!(t["d.worker"], (90, 7));
    }

    fn named(name: &'static str, id: u32, parent: u32, thread: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            ..span(id, parent, thread, start, end, 0)
        }
    }

    #[test]
    fn coverage_counts_work_spans_inside_frames_only() {
        // Main thread 1 owns [0, 100): work [0, 10), a stage wait [10, 60),
        // work [60, 90) and an untraced gap [90, 100). Worker thread 2 runs
        // one task [10, 60) whose work spans leave [50, 60) untraced.
        let spans = vec![
            named("bench.a", 1, 0, 1, 0, 10),
            named("exec.simulate_stage", 2, 0, 1, 10, 60),
            named("exec.task", 3, 2, 2, 10, 60),
            named("sim.frontend", 4, 3, 2, 10, 30),
            named("policies.kernel", 5, 3, 2, 30, 50),
            named("bench.b", 6, 0, 1, 60, 90),
        ];
        let c = coverage(&spans, 1, 0, 100);
        assert!((c - 80.0 / 100.0).abs() < 1e-12, "{c}");
        assert!(c < crate::MIN_COVERAGE);
        assert!(coverage(&spans, 1, 5, 5).abs() < 1e-12);
    }

    #[test]
    fn wait_and_frame_spans_cover_nothing_themselves() {
        let spans = vec![
            named("exec.prepare_stage", 1, 0, 1, 0, 100),
            named("exec.task", 2, 1, 2, 0, 100),
            named("serve.run_job", 3, 0, 3, 0, 100),
        ];
        assert!(coverage(&spans, 1, 0, 100).abs() < 1e-12);
    }

    #[test]
    fn a_fully_traced_task_is_fully_covered() {
        let spans = vec![
            named("exec.simulate_stage", 1, 0, 1, 0, 100),
            named("exec.task", 2, 1, 2, 0, 100),
            named("trace.gen", 3, 2, 2, 0, 40),
            named("offline.foo_solve", 4, 2, 2, 40, 100),
            named("offline.inner", 5, 4, 2, 50, 60),
        ];
        assert!((coverage(&spans, 1, 0, 100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorded_spans_nest_and_count_their_own_allocations() {
        start_recording();
        let outer = open_span("t.outer");
        let inner = timed("t.inner", || {
            let v: Vec<u64> = Vec::with_capacity(8);
            std::hint::black_box(&v);
            current_span()
        });
        drop(outer);
        let spans = stop_recording();
        let inner_span = spans.iter().find(|s| s.name == "t.inner").expect("inner");
        let outer_span = spans.iter().find(|s| s.name == "t.outer").expect("outer");
        assert_eq!(inner_span.id, inner);
        assert_eq!(inner_span.parent, outer_span.id);
        assert_eq!(outer_span.parent, 0);
        assert!(inner_span.allocs >= 1);
        assert!(outer_span.start <= inner_span.start && inner_span.end <= outer_span.end);
    }
}
