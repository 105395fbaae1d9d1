//! The traced run's span store. The benchmark's own spans (labels
//! starting `bench.`) are drained from `dai-trace`'s recorder while the
//! run goes on, kept in memory, and written out at the end as a Chrome
//! trace; probes inside the program are counted but not kept.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

use dai_trace::{Record, RecordKind, TraceDump};

struct Store {
    records: Vec<Record>,
    labels: Vec<String>,
    threads: Vec<String>,
    internal: u64,
    dropped: u64,
}

static STORE: Mutex<Store> = Mutex::new(Store {
    records: Vec::new(),
    labels: Vec::new(),
    threads: Vec::new(),
    internal: 0,
    dropped: 0,
});

/// Drains the recorder into the store.
pub fn collect() {
    let dump = dai_trace::drain();
    let mut store = STORE.lock().expect("span store poisoned");
    for r in &dump.records {
        if dump.label_of(r).starts_with("bench.") {
            store.records.push(*r);
        } else {
            store.internal += 1;
        }
    }
    store.dropped += dump.dropped;
    store.labels = dump.labels;
    store.threads = dump.threads;
}

/// Per-label totals of the benchmark's spans.
#[derive(Debug, Clone, Default)]
pub struct LabelTime {
    /// Spans recorded.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self time (span minus the part its children cover), ns.
    pub self_ns: u64,
}

/// What the traced run recorded.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Per-label span totals, by label.
    pub labels: BTreeMap<String, LabelTime>,
    /// Records from probes inside the program (not kept).
    pub internal: u64,
    /// Records lost to ring overflow.
    pub dropped: u64,
}

/// Summarises the stored spans and writes them to `out` as a Chrome
/// trace. A span's children are the spans of the same operation id on
/// the same thread that lie inside it.
pub fn finish(out: &Path) -> std::io::Result<Summary> {
    collect();
    let store = STORE.lock().expect("span store poisoned");
    let mut by_op: BTreeMap<(u32, u64), Vec<&Record>> = BTreeMap::new();
    for r in store
        .records
        .iter()
        .filter(|r| r.kind == RecordKind::Span && r.arg != 0)
    {
        by_op.entry((r.thread, r.arg)).or_default().push(r);
    }
    let mut labels: BTreeMap<String, LabelTime> = BTreeMap::new();
    let label_of = |r: &Record| {
        store
            .labels
            .get(r.label as usize)
            .cloned()
            .unwrap_or_default()
    };
    for r in store.records.iter().filter(|r| r.kind == RecordKind::Span) {
        let dur = r.end_ns.saturating_sub(r.start_ns);
        let children = if r.arg == 0 {
            Vec::new()
        } else {
            by_op[&(r.thread, r.arg)]
                .iter()
                .filter(|c| {
                    !std::ptr::eq(**c, r) && c.start_ns >= r.start_ns && c.end_ns <= r.end_ns
                })
                .map(|c| (c.start_ns, c.end_ns))
                .collect()
        };
        let e = labels.entry(label_of(r)).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered(children);
    }
    let dump = TraceDump {
        records: store.records.clone(),
        labels: store.labels.clone(),
        threads: store.threads.clone(),
        dropped: store.dropped,
        dropped_by_thread: vec![0; store.threads.len()],
    };
    std::fs::write(out, dai_trace::chrome_trace_json(&dump))?;
    Ok(Summary {
        labels,
        internal: store.internal,
        dropped: store.dropped,
    })
}

/// Length of the union of `intervals`.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::covered;

    #[test]
    fn child_coverage_counts_overlaps_once() {
        assert_eq!(covered(vec![]), 0);
        assert_eq!(covered(vec![(10, 20), (15, 30), (40, 45)]), 25);
        assert_eq!(covered(vec![(0, 100), (10, 20)]), 100);
    }
}
