//! In-memory spans around the calls the benchmark makes into each
//! layer, and the self-time ledger derived from them.
//!
//! A span's parent is the span that encloses it on the same thread, so
//! a layer's self time is its spans' durations minus the part of each
//! interval its children cover. Spans of different threads never nest
//! (a task body is caused by its `submit` but runs later, on a worker).

use crate::alloc;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Parent id of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one traced repetition. Ids are reserved when a span opens
/// (so children and task bodies can name their parent) and the span is
/// stored when it closes.
pub struct SpanLog {
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Total and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanLog {
    /// A log with room for `capacity` spans, allocated up front so
    /// recording inside a timed region does not allocate.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanLog {
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// Reserves the id of a span about to open.
    pub fn open(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a closed span.
    pub fn close(&self, id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) {
        alloc::excluded(|| {
            self.spans
                .lock()
                .expect("span log lock poisoned by a panicking task")
                .push(Span {
                    id,
                    parent,
                    name,
                    start_ns,
                    end_ns,
                })
        });
    }

    /// All spans, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span log lock poisoned by a panicking task")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Count, total and self time per span name.
    ///
    /// # Panics
    ///
    /// Panics if a reserved id was never closed, or a parent id does
    /// not name a stored span.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.id as usize, i, "span {i} opened but never closed");
        }
        let mut covered = vec![0u64; spans.len()];
        for s in &spans {
            if s.parent != NO_PARENT {
                let p = &spans[s.parent as usize];
                let overlap = s
                    .end_ns
                    .min(p.end_ns)
                    .saturating_sub(s.start_ns.max(p.start_ns));
                covered[p.id as usize] += overlap;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, c) in spans.iter().zip(&covered) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(*c);
        }
        out
    }

    /// Writes the spans as tab-separated `id parent name start_ns
    /// end_ns` lines.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing `path`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in self.spans() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{}\t{parent}\t{}\t{}\t{}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_only_covered_child_time() {
        let log = SpanLog::with_capacity(8);
        let root = log.open();
        let a = log.open();
        let b = log.open();
        let c = log.open();
        log.close(b, a, "leaf", 20, 30);
        log.close(a, root, "mid", 10, 50);
        log.close(c, root, "leaf", 60, 70);
        log.close(root, NO_PARENT, "root", 0, 100);
        let layers = log.layers();
        assert_eq!(
            layers["root"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(layers["mid"].self_ns, 30);
        assert_eq!(
            layers["leaf"],
            LayerTime {
                count: 2,
                total_ns: 20,
                self_ns: 20
            }
        );
    }
}
