//! Reproduction of Table 2: the step-by-step execution trace of a two-slice
//! one-way chain (Section 4.1).

use streamkit::operator::{OpContext, Operator};
use streamkit::ops::slice_join::{SliceJoinOp, PORT_NEXT_SLICE, PORT_RESULTS};
use streamkit::queue::StreamItem;
use streamkit::tuple::{StreamId, Tuple};
use streamkit::window::SliceWindow;
use streamkit::{JoinCondition, Timestamp};

/// One row of the reproduced Table 2: the system state after one scheduler
/// step.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRow {
    /// Simulated second at which the step happens.
    pub time: u64,
    /// Which tuple (if any) arrived at this step, e.g. `"a1"`.
    pub arrival: Option<String>,
    /// Which operator ran (`"J1"` or `"J2"`).
    pub operator: String,
    /// Timestamps (seconds) of tuples in J1's state, oldest first.
    pub j1_state: Vec<u64>,
    /// Timestamps (seconds) of tuples in the queue between J1 and J2.
    pub queue: Vec<u64>,
    /// Timestamps (seconds) of tuples in J2's state, oldest first.
    pub j2_state: Vec<u64>,
    /// Result pairs `(result ts, |Ta - Tb|)` produced at this step.
    pub outputs: Vec<(u64, u64)>,
}

fn secs(ts: Timestamp) -> u64 {
    ts.as_micros() / 1_000_000
}

/// Execute the Table 2 scenario (w1 = 2 s, w2 = 4 s, Cartesian semantics,
/// arrivals a1 a2 a3 b1 b2 at seconds 1–5, then the queue is drained) and
/// return the per-step trace.
pub fn table2_trace() -> Vec<TraceRow> {
    let mut j1 = SliceJoinOp::for_ab("J1", SliceWindow::from_secs(0, 2), JoinCondition::Cross)
        .one_way()
        .chain_head();
    let mut j2 = SliceJoinOp::for_ab("J2", SliceWindow::from_secs(2, 4), JoinCondition::Cross)
        .one_way()
        .last_in_chain();
    let mut queue: Vec<Tuple> = Vec::new();
    let mut rows = Vec::new();

    let arrivals = vec![
        (
            "a1",
            Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[1]),
        ),
        (
            "a2",
            Tuple::of_ints(Timestamp::from_secs(2), StreamId::A, &[2]),
        ),
        (
            "a3",
            Tuple::of_ints(Timestamp::from_secs(3), StreamId::A, &[3]),
        ),
        (
            "b1",
            Tuple::of_ints(Timestamp::from_secs(4), StreamId::B, &[1]),
        ),
        (
            "b2",
            Tuple::of_ints(Timestamp::from_secs(5), StreamId::B, &[2]),
        ),
    ];

    let mut time = 0;
    for (name, tuple) in arrivals {
        time += 1;
        let mut ctx = OpContext::new();
        j1.process(0, tuple.into(), &mut ctx);
        let mut outputs = Vec::new();
        for (port, item) in ctx.take_outputs() {
            match (port, item) {
                (PORT_RESULTS, StreamItem::Tuple(t)) => {
                    outputs.push((secs(t.ts), t.origin_span.as_micros() / 1_000_000))
                }
                (PORT_NEXT_SLICE, StreamItem::Tuple(t)) => queue.push(t),
                _ => {}
            }
        }
        rows.push(TraceRow {
            time,
            arrival: Some(name.to_string()),
            operator: "J1".to_string(),
            j1_state: j1.state_timestamps().0.into_iter().map(secs).collect(),
            queue: queue.iter().map(|t| secs(t.ts)).collect(),
            j2_state: j2.state_timestamps().0.into_iter().map(secs).collect(),
            outputs,
        });
    }

    // Remaining steps: J2 drains the logical queue one item per step.
    while !queue.is_empty() {
        time += 1;
        let tuple = queue.remove(0);
        let mut ctx = OpContext::new();
        j2.process(0, tuple.into(), &mut ctx);
        let outputs = ctx
            .take_outputs()
            .into_iter()
            .filter(|(port, item)| *port == PORT_RESULTS && !item.is_punctuation())
            .filter_map(|(_, item)| item.into_tuple())
            .map(|t| (secs(t.ts), t.origin_span.as_micros() / 1_000_000))
            .collect();
        rows.push(TraceRow {
            time,
            arrival: None,
            operator: "J2".to_string(),
            j1_state: j1.state_timestamps().0.into_iter().map(secs).collect(),
            queue: queue.iter().map(|t| secs(t.ts)).collect(),
            j2_state: j2.state_timestamps().0.into_iter().map(secs).collect(),
            outputs,
        });
    }
    rows
}

/// Format the trace like the paper's Table 2.
pub fn format_table2(rows: &[TraceRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<4} {:<5} {:<4} {:<16} {:<22} {:<16} {}\n",
        "T", "Arr.", "OP", "A::[0,2)", "Queue", "A::[2,4)", "Output (ts,span)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<4} {:<5} {:<4} {:<16} {:<22} {:<16} {:?}\n",
            r.time,
            r.arrival.clone().unwrap_or_default(),
            r.operator,
            format!("{:?}", r.j1_state),
            format!("{:?}", r.queue),
            format!("{:?}", r.j2_state),
            r.outputs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_has_arrival_steps_plus_queue_drain_steps() {
        let rows = table2_trace();
        // 5 arrivals + 5 queued items to drain.
        assert_eq!(rows.len(), 10);
        assert!(rows[..5].iter().all(|r| r.operator == "J1"));
        assert!(rows[5..].iter().all(|r| r.operator == "J2"));
    }

    #[test]
    fn union_of_both_slices_matches_the_regular_join() {
        let rows = table2_trace();
        let mut all: Vec<(u64, u64)> = rows.iter().flat_map(|r| r.outputs.clone()).collect();
        all.sort_unstable();
        // Regular one-way join A[4) ⋉ B over the same arrivals produces
        // (b1 with a1,a2,a3) and (b2 with a2,a3): 5 pairs.
        assert_eq!(all, vec![(4, 1), (4, 2), (4, 3), (5, 2), (5, 3)]);
    }

    #[test]
    fn queue_between_slices_follows_emission_order() {
        let rows = table2_trace();
        // After the b1 arrival (step 4) the queue holds a1, a2, then b1.
        assert_eq!(rows[3].queue, vec![1, 2, 4]);
        // After b2 (step 5) it additionally holds a3 and b2.
        assert_eq!(rows[4].queue, vec![1, 2, 4, 3, 5]);
    }

    #[test]
    fn formatting_contains_every_step() {
        let rows = table2_trace();
        let text = format_table2(&rows);
        assert_eq!(text.lines().count(), rows.len() + 1);
        assert!(text.contains("Queue"));
    }
}
