//! Chain specifications: how the window `[0, w_N)` is sliced.
//!
//! A [`ChainSpec`] is a partition of the largest query window into contiguous
//! slices.  The Mem-Opt chain has one slice per distinct query window
//! (Section 5.1); a CPU-Opt chain may merge adjacent slices (Section 5.2).
//! A chain configuration corresponds to a path through the slice-merge DAG of
//! Figure 14 and is represented here by the window-boundary indexes the path
//! visits.

use streamkit::error::{Result, StreamError};
use streamkit::window::SliceWindow;
use streamkit::TimeDelta;

use crate::query::QueryWorkload;

/// One slice of a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceSpec {
    /// The window slice `[start, end)` this join covers.
    pub window: SliceWindow,
    /// 0-based index of the first query whose window falls inside this slice
    /// (`start < w_q <= end`).
    pub query_lo: usize,
    /// 0-based index of the last query whose window falls inside this slice.
    pub query_hi: usize,
}

impl SliceSpec {
    /// Number of queries whose windows end inside this slice (the router
    /// fan-out needed when the slice is a merge of several Mem-Opt slices).
    pub fn queries_ending_here(&self) -> usize {
        self.query_hi - self.query_lo + 1
    }

    /// `true` if this slice is a merge of more than one Mem-Opt slice and
    /// therefore needs a router for its results.
    pub fn needs_router(&self) -> bool {
        self.queries_ending_here() > 1
    }
}

/// A complete slicing of the shared join window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSpec {
    slices: Vec<SliceSpec>,
    /// The boundary path through the slice-merge DAG (`0 = p_0 < ... < p_k = N`).
    path: Vec<usize>,
}

impl ChainSpec {
    /// Build a chain from a boundary path over the workload's windows.
    ///
    /// `path` lists indexes into the boundary vector `w_0 = 0, w_1, ..., w_N`;
    /// it must start at 0, end at `N` and be strictly increasing.
    pub fn from_path(workload: &QueryWorkload, path: &[usize]) -> Result<Self> {
        let n = workload.len();
        if path.len() < 2 || path.first() != Some(&0) || path.last() != Some(&n) {
            return Err(StreamError::InvalidConfig(format!(
                "boundary path must start at 0 and end at {n}, got {path:?}"
            )));
        }
        for w in path.windows(2) {
            if w[1] <= w[0] {
                return Err(StreamError::InvalidConfig(
                    "boundary path must be strictly increasing".to_string(),
                ));
            }
        }
        let boundaries = workload.boundaries();
        let slices = path
            .windows(2)
            .map(|w| SliceSpec {
                window: SliceWindow::new(boundaries[w[0]], boundaries[w[1]]),
                query_lo: w[0],
                query_hi: w[1] - 1,
            })
            .collect();
        Ok(ChainSpec {
            slices,
            path: path.to_vec(),
        })
    }

    /// The Mem-Opt chain: one slice per distinct query window (Section 5.1).
    pub fn memory_optimal(workload: &QueryWorkload) -> Self {
        let path: Vec<usize> = (0..=workload.len()).collect();
        ChainSpec::from_path(workload, &path).expect("full path is always valid")
    }

    /// The fully merged chain: a single join with the largest window, which
    /// is structurally the selection pull-up plan of Section 3.1.
    pub fn fully_merged(workload: &QueryWorkload) -> Self {
        ChainSpec::from_path(workload, &[0, workload.len()]).expect("merged path is always valid")
    }

    /// The slices, in chain order (smallest window range first).
    pub fn slices(&self) -> &[SliceSpec] {
        &self.slices
    }

    /// Number of slices in the chain.
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// The boundary path this chain corresponds to.
    pub fn path(&self) -> &[usize] {
        &self.path
    }

    /// Index of the slice whose results a query with the given 0-based index
    /// last needs (i.e. the slice its window ends in).
    pub fn last_slice_for_query(&self, query_idx: usize) -> usize {
        self.slices
            .iter()
            .position(|s| query_idx >= s.query_lo && query_idx <= s.query_hi)
            .expect("every query ends in some slice")
    }

    /// The paper's logical operators in this chain's shared plan for
    /// `workload` (Figure 19's operator axis): one sliced join per slice,
    /// one lineage gate in front of every slice but the first when
    /// selections are pushed down, one router per merged slice and one
    /// union per query.  The executable plan runs them all inside one
    /// chain operator, so its node count does not show them.
    pub fn num_operators(&self, workload: &QueryWorkload) -> usize {
        let gates = if workload.has_selections() {
            self.num_slices() - 1
        } else {
            0
        };
        let routers = self.slices.iter().filter(|s| s.needs_router()).count();
        self.num_slices() + gates + routers + workload.len()
    }

    /// Total window range covered by the chain (must equal the workload's
    /// largest window).
    pub fn covered_range(&self) -> TimeDelta {
        self.slices
            .last()
            .map(|s| s.window.end)
            .unwrap_or(TimeDelta::ZERO)
    }

    /// Check structural invariants: slices are contiguous, start at zero and
    /// cover the workload's largest window, and query assignments are correct.
    pub fn validate(&self, workload: &QueryWorkload) -> Result<()> {
        if self.slices.is_empty() {
            return Err(StreamError::InvalidConfig(
                "chain has no slices".to_string(),
            ));
        }
        if !self.slices[0].window.start.is_zero() {
            return Err(StreamError::InvalidConfig(
                "the first slice must start at window offset 0".to_string(),
            ));
        }
        for pair in self.slices.windows(2) {
            if pair[0].window.end != pair[1].window.start {
                return Err(StreamError::InvalidConfig(format!(
                    "slices {} and {} are not contiguous",
                    pair[0].window, pair[1].window
                )));
            }
        }
        if self.covered_range() != workload.max_window() {
            return Err(StreamError::InvalidConfig(format!(
                "chain covers {} but the largest query window is {}",
                self.covered_range(),
                workload.max_window()
            )));
        }
        for (idx, q) in workload.queries().iter().enumerate() {
            let slice = &self.slices[self.last_slice_for_query(idx)];
            if !(q.window > slice.window.start && q.window <= slice.window.end) {
                return Err(StreamError::InvalidConfig(format!(
                    "query '{}' (window {}) is not assigned to the slice containing it",
                    q.name, q.window
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinQuery;
    use streamkit::JoinCondition;

    fn workload() -> QueryWorkload {
        QueryWorkload::new(
            vec![
                JoinQuery::new("Q1", TimeDelta::from_secs(5)),
                JoinQuery::new("Q2", TimeDelta::from_secs(10)),
                JoinQuery::new("Q3", TimeDelta::from_secs(30)),
            ],
            JoinCondition::equi(0),
        )
        .unwrap()
    }

    #[test]
    fn mem_opt_chain_has_one_slice_per_query() {
        let w = workload();
        let chain = ChainSpec::memory_optimal(&w);
        assert_eq!(chain.num_slices(), 3);
        assert_eq!(chain.slices()[0].window, SliceWindow::from_secs(0, 5));
        assert_eq!(chain.slices()[1].window, SliceWindow::from_secs(5, 10));
        assert_eq!(chain.slices()[2].window, SliceWindow::from_secs(10, 30));
        assert!(chain.slices().iter().all(|s| !s.needs_router()));
        assert_eq!(chain.path(), &[0, 1, 2, 3]);
        chain.validate(&w).unwrap();
        assert_eq!(chain.covered_range(), TimeDelta::from_secs(30));
    }

    #[test]
    fn fully_merged_chain_is_one_slice_serving_every_query() {
        let w = workload();
        let chain = ChainSpec::fully_merged(&w);
        assert_eq!(chain.num_slices(), 1);
        let s = chain.slices()[0];
        assert_eq!(s.window, SliceWindow::from_secs(0, 30));
        assert_eq!(s.queries_ending_here(), 3);
        assert!(s.needs_router());
        chain.validate(&w).unwrap();
    }

    #[test]
    fn partial_merge_assigns_query_ranges() {
        let w = workload();
        let chain = ChainSpec::from_path(&w, &[0, 2, 3]).unwrap();
        assert_eq!(chain.num_slices(), 2);
        assert_eq!(chain.slices()[0].window, SliceWindow::from_secs(0, 10));
        assert_eq!(chain.slices()[0].query_lo, 0);
        assert_eq!(chain.slices()[0].query_hi, 1);
        assert!(chain.slices()[0].needs_router());
        assert_eq!(chain.slices()[1].query_lo, 2);
        assert_eq!(chain.slices()[1].query_hi, 2);
        assert!(!chain.slices()[1].needs_router());
        assert_eq!(chain.last_slice_for_query(0), 0);
        assert_eq!(chain.last_slice_for_query(2), 1);
        chain.validate(&w).unwrap();
    }

    #[test]
    fn invalid_paths_are_rejected() {
        let w = workload();
        assert!(ChainSpec::from_path(&w, &[0, 1]).is_err()); // does not reach N
        assert!(ChainSpec::from_path(&w, &[1, 3]).is_err()); // does not start at 0
        assert!(ChainSpec::from_path(&w, &[0, 2, 2, 3]).is_err()); // not increasing
        assert!(ChainSpec::from_path(&w, &[0]).is_err()); // too short
    }

    #[test]
    fn validate_detects_coverage_mismatch() {
        let w = workload();
        let smaller = QueryWorkload::new(
            vec![
                JoinQuery::new("Q1", TimeDelta::from_secs(5)),
                JoinQuery::new("Q2", TimeDelta::from_secs(10)),
            ],
            JoinCondition::equi(0),
        )
        .unwrap();
        let chain = ChainSpec::memory_optimal(&smaller);
        assert!(chain.validate(&w).is_err());
    }
}
