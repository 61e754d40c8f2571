//! Spans around the benchmark's calls into each layer.
//!
//! The program has no counters of its own yet (ROADMAP item 1), so every
//! span is recorded here, from outside, around a public call. Spans live in
//! a pre-sized `Vec` and are written out once, when the run ends; a disabled
//! tracer records nothing, which is how the end-to-end passes run.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span (also what a disabled tracer hands out).
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer. A span's id is its index in the tracer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, in the unit its name implies (cells,
    /// pairs, seeds, bytes).
    pub count: u64,
}

/// Per-name sums over a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub spans: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

/// The clock every span and every latency stamp of a run shares. `Copy`, so
/// client and worker threads can stamp times the tracer turns into spans
/// after they have joined.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

pub struct Tracer {
    clock: Clock,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            clock: Clock(Instant::now()),
            enabled: false,
            spans: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans.
    pub fn on(capacity: usize) -> Self {
        Self {
            clock: Clock(Instant::now()),
            enabled: true,
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn clock(&self) -> Clock {
        self.clock
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span now; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.now_ns();
        self.record(name, parent, now, now, 0)
    }

    /// Closes a span opened by [`begin`](Self::begin) and sets its count.
    pub fn end(&mut self, id: u32, count: u64) {
        if id == NO_PARENT {
            return;
        }
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.count = count;
    }

    /// Records a span whose ends were stamped elsewhere (on another thread,
    /// or before its parent was known).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns,
            count,
        });
        (self.spans.len() - 1) as u32
    }

    /// Self time per span: its duration minus the part of that interval its
    /// child spans cover. Children may overlap each other (two client
    /// threads under one pass), so the covered part is the union of the
    /// child intervals, clipped to the parent.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                children[span.parent as usize].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let lo = start.max(reach);
                    let hi = end.min(span.end_ns);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Sums spans by name.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(span.name).or_default();
            t.spans += 1;
            t.busy_ns += span.end_ns - span.start_ns;
            t.self_ns += self_ns;
            t.count += span.count;
        }
        out
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{workload}\", \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut t = Tracer::on(8);
        let root = t.record("root", NO_PARENT, 0, 100, 0);
        let mid = t.record("mid", root, 10, 60, 0);
        t.record("leaf", mid, 20, 30, 0);
        // The grandchild is inside `mid`; root loses only mid's 50.
        assert_eq!(t.self_ns(), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_takes_the_union_of_sibling_children() {
        let mut t = Tracer::on(8);
        let root = t.record("root", NO_PARENT, 0, 100, 0);
        t.record("a", root, 10, 40, 0);
        t.record("b", root, 30, 50, 0); // overlaps a by 10
        t.record("c", root, 70, 120, 0); // runs past the parent's end
        t.record("d", root, 35, 38, 0); // entirely inside a
                                        // covered = [10,50) + [70,100) = 70
        assert_eq!(t.self_ns()[root as usize], 30);
    }

    #[test]
    fn totals_group_by_name_and_sum_counts() {
        let mut t = Tracer::on(8);
        let root = t.record("read", NO_PARENT, 0, 10, 1);
        t.record("extend", root, 2, 8, 600);
        let root2 = t.record("read", NO_PARENT, 10, 30, 1);
        t.record("extend", root2, 12, 22, 400);
        let totals = t.totals();
        assert_eq!(
            totals["read"],
            Total {
                spans: 2,
                busy_ns: 30,
                self_ns: 14,
                count: 2
            }
        );
        assert_eq!(totals["extend"].count, 1000);
        assert_eq!(totals["extend"].busy_ns, 16);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x", NO_PARENT);
        t.end(id, 5);
        assert_eq!(id, NO_PARENT);
        assert_eq!(t.record("y", NO_PARENT, 0, 1, 0), NO_PARENT);
        assert!(t.spans().is_empty());
    }
}
