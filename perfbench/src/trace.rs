//! In-memory spans recorded by the benchmark around calls into each
//! layer's public functions, and their reduction to self times.
//!
//! A span has a name, a start, an end, a parent span and a group id:
//! every span of one cell or one job carries that cell's or job's group.
//! Spans stay in memory while the workload runs and are written out
//! once, when the run ends. A span's *self time* is its duration minus
//! the part of its interval that its children cover, so nested layers
//! are never counted twice.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans that only structure a run (an iteration, a worker thread, a
/// sampled cell). Their self time is the unattributed residual.
pub const STRUCTURAL: [&str; 6] = ["sweep", "worker", "decompose", "job", "job.wait", "twin"];

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A thread-safe span recorder.
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; [`Tracer::end`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    group: u64,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, group: u64, parent: Option<&Open>) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(|p| p.id),
            group,
            name,
            start_ns: self.now_ns(),
        }
    }

    pub fn end(&self, open: Open) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list lock").push(Span {
            id: open.id,
            parent: open.parent,
            group: open.group,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        group: u64,
        parent: Option<&Open>,
        f: impl FnOnce(&Open) -> T,
    ) -> T {
        let open = self.begin(name, group, parent);
        let out = f(&open);
        self.end(open);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Per-name totals of a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub calls: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

impl NameTotal {
    /// Mean self time per call in milliseconds (0 without calls).
    pub fn mean_self_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// Self time of every span, summed per name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let total = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += total;
        t.self_ns += total.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// The share of all self time that sits in [`STRUCTURAL`] spans: time
/// inside the run that no layer's span accounts for.
pub fn unattributed_frac(totals: &BTreeMap<&'static str, NameTotal>) -> f64 {
    let all: u64 = totals.values().map(|t| t.self_ns).sum();
    let structural: u64 = STRUCTURAL
        .iter()
        .filter_map(|n| totals.get(n))
        .map(|t| t.self_ns)
        .sum();
    if all == 0 {
        0.0
    } else {
        structural as f64 / all as f64
    }
}

/// Writes every span as a tab-separated line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tgroup\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent.map_or(0, |p| p),
            s.group,
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Prints the self-time table, largest first.
pub fn print_self_times(totals: &BTreeMap<&'static str, NameTotal>) {
    let all: u64 = totals.values().map(|t| t.self_ns).sum::<u64>().max(1);
    let mut rows: Vec<_> = totals.iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    println!(
        "  {:<24} {:>8} {:>12} {:>12} {:>7}",
        "span", "calls", "self ms", "ms/call", "share"
    );
    for (name, t) in rows {
        let tag = if STRUCTURAL.contains(name) {
            " (unattributed)"
        } else {
            ""
        };
        println!(
            "  {:<24} {:>8} {:>12.3} {:>12.4} {:>6.2}%{tag}",
            name,
            t.calls,
            t.self_ns as f64 / 1e6,
            t.mean_self_ms(),
            100.0 * t.self_ns as f64 / all as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "sweep", 0, 100),
            // Two overlapping children (two worker threads) cover 10..70.
            span(2, Some(1), "worker", 10, 60),
            span(3, Some(1), "worker", 30, 70),
            span(4, Some(2), "harness.cell", 10, 50),
        ];
        let t = self_times(&spans);
        assert_eq!(t["sweep"].self_ns, 40);
        assert_eq!(t["worker"].self_ns, 10 + 40);
        assert_eq!(t["harness.cell"].self_ns, 40);
        let frac = unattributed_frac(&t);
        assert!((frac - 90.0 / 130.0).abs() < 1e-12);
    }
}
