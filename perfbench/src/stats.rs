//! Order statistics and span self-time: the arithmetic every workload
//! shares, kept free of I/O so it can be unit-tested.

use obs::TraceEvent;
use std::collections::BTreeMap;

/// A percentile with the number of samples it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `values` (any order). Empty input
/// yields `None`.
pub fn quantile(values: &[f64], q: f64) -> Option<Quantile> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(Quantile {
        value: v[rank - 1],
        samples: v.len(),
    })
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> Option<Quantile> {
    quantile(values, 0.5)
}

/// Fewest samples a reported tail must have beyond it.
pub const MIN_BEYOND_TAIL: usize = 10;

/// A tail percentile, refused unless at least [`MIN_BEYOND_TAIL`] samples
/// lie beyond it: with fewer, the value is set by a handful of outliers.
pub fn tail(values: &[f64], q: f64) -> Result<Quantile, String> {
    // The epsilon keeps e.g. 100 × (1 − 0.9) from flooring to 9.
    let beyond = (values.len() as f64 * (1.0 - q) + 1e-9).floor() as usize;
    if beyond < MIN_BEYOND_TAIL {
        return Err(format!(
            "p{} of {} samples leaves {beyond} beyond it (need {MIN_BEYOND_TAIL})",
            q * 100.0,
            values.len()
        ));
    }
    Ok(quantile(values, q).expect("non-empty: beyond > 0"))
}

/// One closed span rebuilt from a begin/end event pair.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub cat: String,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
}

/// Pair `B`/`E` events per thread into spans with parent links. Spans still
/// open at the end of the stream are dropped.
pub fn spans(events: &[TraceEvent]) -> Vec<SpanRec> {
    let mut out: Vec<SpanRec> = Vec::new();
    let mut open: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut closed = Vec::new();
    for e in events {
        let stack = open.entry(e.tid).or_default();
        match e.ph {
            'B' => {
                out.push(SpanRec {
                    cat: e.cat.clone(),
                    name: e.name.clone(),
                    start_us: e.ts_us,
                    end_us: e.ts_us,
                    parent: stack.last().copied(),
                });
                stack.push(out.len() - 1);
            }
            'E' => {
                if let Some(i) = stack.pop() {
                    out[i].end_us = e.ts_us;
                    closed.push(i);
                }
            }
            _ => {}
        }
    }
    let mut keep = vec![false; out.len()];
    for i in closed {
        keep[i] = true;
    }
    // Re-index: drop unclosed spans, and cut links to them.
    let mut remap = vec![None; out.len()];
    let mut kept = Vec::new();
    for (i, s) in out.into_iter().enumerate() {
        if keep[i] {
            remap[i] = Some(kept.len());
            kept.push(s);
        }
    }
    for s in &mut kept {
        s.parent = s.parent.and_then(|p| remap[p]);
    }
    kept
}

/// Length of the union of `[start, end)` intervals, each clipped to
/// `[lo, hi)`.
fn union_len(mut iv: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in iv {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals.
pub fn self_times_us(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, ch)| (s.end_us - s.start_us) - union_len(ch, s.start_us, s.end_us))
        .collect()
}

/// Total self time per `cat/name`, in microseconds.
pub fn self_time_by_name(events: &[TraceEvent]) -> BTreeMap<String, u64> {
    let sp = spans(events);
    let mut out = BTreeMap::new();
    for (s, t) in sp.iter().zip(self_times_us(&sp)) {
        *out.entry(format!("{}/{}", s.cat, s.name)).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ph: char, cat: &str, name: &str, ts_us: u64, tid: u64) -> TraceEvent {
        TraceEvent {
            ph,
            name: name.into(),
            cat: cat.into(),
            ts_us,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn quantile_reports_samples_and_nearest_rank() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(
            median(&v),
            Some(Quantile {
                value: 5.0,
                samples: 9
            })
        );
        assert_eq!(quantile(&v, 1.0).unwrap().value, 9.0);
        assert!(median(&[]).is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        let err = tail(&v, 0.99).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = tail(&v, 0.99).unwrap();
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.value, 989.0);
        assert!(tail(&v[..100], 0.9).is_ok());
        assert!(tail(&v[..99], 0.9).is_err());
    }

    #[test]
    fn self_time_is_parent_minus_union_of_children() {
        // step [0,100) on tid 1 with kernels [10,40) and [80,90); kernel a
        // has a phase child [15,25). A span on tid 2 inside the same
        // interval is not a child of anything on tid 1.
        let events = vec![
            ev('B', "driver", "step", 0, 1),
            ev('B', "kernel", "a", 10, 1),
            ev('B', "phase", "phase", 15, 1),
            ev('B', "other", "x", 20, 2),
            ev('E', "", "phase", 25, 1),
            ev('E', "", "a", 40, 1),
            ev('E', "", "x", 70, 2),
            ev('B', "kernel", "b", 80, 1),
            ev('E', "", "b", 90, 1),
            ev('E', "", "step", 100, 1),
        ];
        let sp = spans(&events);
        assert_eq!(sp.len(), 5);
        let by = self_time_by_name(&events);
        // children of step: [10,40) and [80,90) → union 40 → self 60.
        assert_eq!(by["driver/step"], 60);
        assert_eq!(by["kernel/a"], 30 - 10);
        assert_eq!(by["kernel/b"], 10);
        assert_eq!(by["phase/phase"], 10);
        assert_eq!(by["other/x"], 50);

        // Overlapping children (as when spans are merged from several
        // sources) are unioned, not summed.
        let manual = vec![
            SpanRec {
                cat: "p".into(),
                name: "p".into(),
                start_us: 0,
                end_us: 100,
                parent: None,
            },
            SpanRec {
                cat: "c".into(),
                name: "c".into(),
                start_us: 10,
                end_us: 40,
                parent: Some(0),
            },
            SpanRec {
                cat: "c".into(),
                name: "c".into(),
                start_us: 30,
                end_us: 60,
                parent: Some(0),
            },
        ];
        assert_eq!(self_times_us(&manual), vec![50, 30, 30]);
    }

    #[test]
    fn unclosed_spans_are_dropped() {
        let events = vec![
            ev('B', "a", "open", 0, 1),
            ev('B', "b", "closed", 5, 1),
            ev('E', "", "closed", 9, 1),
        ];
        let sp = spans(&events);
        assert_eq!(sp.len(), 1);
        assert_eq!(sp[0].parent, None);
        assert_eq!(self_times_us(&sp), vec![4]);
    }
}
