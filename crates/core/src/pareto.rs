//! Pareto-dominance filtering — the selection step that turns thousands of
//! simulated configurations into the handful the designer chooses from.

/// `true` if point `a` dominates point `b`: `a` is no worse in every
/// objective and strictly better in at least one (all objectives
/// minimized).
///
/// # Panics
///
/// Panics if the points have different dimensionality.
pub fn dominates(a: &[u64], b: &[u64]) -> bool {
    assert_eq!(a.len(), b.len(), "points must share dimensionality");
    let mut strictly_better = false;
    for (&ai, &bi) in a.iter().zip(b) {
        if ai > bi {
            return false;
        }
        if ai < bi {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Max/min ratio of `values` — the paper's "decrease up to a factor of
/// N". `None` if `values` is empty or its minimum is zero, where no
/// finite factor exists.
pub fn range_factor(values: impl IntoIterator<Item = u64>) -> Option<f64> {
    let (min, max) = values
        .into_iter()
        .fold((u64::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)));
    (min > 0 && min <= max).then(|| max as f64 / min as f64)
}

/// The non-dominated subset of a point set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParetoSet {
    /// Indices into the original point list, sorted by the first objective
    /// (ascending; ties by the remaining objectives).
    pub indices: Vec<usize>,
    /// The points themselves, in the same order as `indices`.
    pub points: Vec<Vec<u64>>,
}

impl ParetoSet {
    /// Number of Pareto-optimal points.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` if the input was empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Max/min ratio of objective `d` within the Pareto set — the paper's
    /// "decrease up to a factor of N within the Pareto-optimal
    /// configurations" (see [`range_factor`]). `None` if empty or the
    /// minimum is zero.
    pub fn range_factor(&self, d: usize) -> Option<f64> {
        range_factor(self.points.iter().map(|p| p[d]))
    }

    /// Relative saving of objective `d` within the Pareto set:
    /// `(max - min) / max`, in percent. `None` if empty or max is zero.
    pub fn saving_pct(&self, d: usize) -> Option<f64> {
        let min = self.points.iter().map(|p| p[d]).min()?;
        let max = self.points.iter().map(|p| p[d]).max()?;
        (max > 0).then(|| (max - min) as f64 / max as f64 * 100.0)
    }
}

/// Computes the Pareto front of `points` (all objectives minimized).
///
/// Duplicated points are all kept (they dominate each other in neither
/// direction). Complexity O(n²·k); the exploration result sets (10²–10⁴
/// points) are far below where that matters.
///
/// # Example
///
/// ```
/// use dmx_core::pareto_front;
///
/// // (footprint, accesses) of four configurations: two trade-offs, one
/// // dominated, one duplicate of a front point.
/// let points = vec![vec![100, 900], vec![300, 300], vec![350, 400], vec![100, 900]];
/// let front = pareto_front(&points);
/// assert_eq!(front.indices, vec![0, 3, 1]); // sorted by footprint, dup kept
/// assert!(front.range_factor(0).unwrap() > 2.9); // paper-style spread factor
/// ```
pub fn pareto_front(points: &[Vec<u64>]) -> ParetoSet {
    let mut indices: Vec<usize> = Vec::new();
    'outer: for (i, p) in points.iter().enumerate() {
        for (j, q) in points.iter().enumerate() {
            if i != j && dominates(q, p) {
                continue 'outer;
            }
        }
        indices.push(i);
    }
    indices.sort_by(|&i, &j| points[i].cmp(&points[j]));
    let pts = indices.iter().map(|&i| points[i].clone()).collect();
    ParetoSet {
        indices,
        points: pts,
    }
}

/// The knee of a 2-D front: the point with the largest distance to the
/// straight line between the front's extremes — a common "balanced
/// trade-off" suggestion for the designer. `None` for fronts with fewer
/// than three points.
pub fn knee_point(front: &ParetoSet) -> Option<usize> {
    if front.points.len() < 3 {
        return None;
    }
    let first = &front.points[0];
    let last = front.points.last().expect("non-empty");
    let (x1, y1) = (first[0] as f64, first[1] as f64);
    let (x2, y2) = (last[0] as f64, last[1] as f64);
    let norm = ((y2 - y1).powi(2) + (x2 - x1).powi(2)).sqrt();
    if norm == 0.0 {
        return None;
    }
    let mut best: Option<(usize, f64)> = None;
    for (k, p) in front.points.iter().enumerate() {
        let (x0, y0) = (p[0] as f64, p[1] as f64);
        let dist = ((y2 - y1) * x0 - (x2 - x1) * y0 + x2 * y1 - y2 * x1).abs() / norm;
        if best.is_none_or(|(_, d)| dist > d) {
            best = Some((k, dist));
        }
    }
    best.map(|(k, _)| front.indices[k])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_definition() {
        assert!(dominates(&[1, 1], &[2, 2]));
        assert!(dominates(&[1, 2], &[2, 2]));
        assert!(!dominates(&[2, 2], &[2, 2]), "equal points do not dominate");
        assert!(!dominates(&[1, 3], &[2, 2]), "trade-off does not dominate");
        assert!(!dominates(&[3, 3], &[2, 2]));
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn dimension_mismatch_panics() {
        let _ = dominates(&[1], &[1, 2]);
    }

    #[test]
    fn front_filters_dominated() {
        let pts = vec![
            vec![1, 10],
            vec![2, 5],
            vec![3, 3],
            vec![4, 4], // dominated by [3,3]
            vec![10, 1],
            vec![2, 6], // dominated by [2,5]
        ];
        let front = pareto_front(&pts);
        assert_eq!(front.indices, vec![0, 1, 2, 4]);
    }

    #[test]
    fn three_objectives() {
        let pts = vec![
            vec![1, 2, 3],
            vec![2, 1, 3],
            vec![3, 3, 1],
            vec![2, 2, 3], // dominated by [1,2,3]? no: 2>1,2=2,3=3 → dominated
        ];
        let front = pareto_front(&pts);
        assert_eq!(front.indices, vec![0, 1, 2]);
    }

    #[test]
    fn all_identical_points_survive() {
        let pts = vec![vec![5, 5]; 4];
        let front = pareto_front(&pts);
        assert_eq!(front.len(), 4);
    }

    #[test]
    fn range_factor_and_saving() {
        let front = pareto_front(&[vec![100, 410], vec![290, 100]]);
        let f0 = front.range_factor(0).unwrap();
        assert!((f0 - 2.9).abs() < 1e-9);
        let f1 = front.range_factor(1).unwrap();
        assert!((f1 - 4.1).abs() < 1e-9);
        let s = front.saving_pct(1).unwrap();
        assert!((s - (310.0 / 410.0 * 100.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        let front = pareto_front(&[]);
        assert!(front.is_empty());
        assert!(front.range_factor(0).is_none());
        assert!(knee_point(&front).is_none());
    }

    #[test]
    fn range_factor_has_no_value_without_a_positive_minimum() {
        assert_eq!(range_factor([4, 2, 8]), Some(4.0));
        assert_eq!(range_factor([7]), Some(1.0));
        assert_eq!(range_factor([]), None);
        assert_eq!(range_factor([0, 0]), None, "0/0 is no factor");
        assert_eq!(range_factor([0, 5]), None, "5/0 is no factor");
    }

    #[test]
    fn knee_is_the_bend() {
        // An L-shaped front: the corner point is the knee.
        let pts = vec![vec![1, 100], vec![2, 10], vec![100, 1]];
        let front = pareto_front(&pts);
        assert_eq!(front.len(), 3);
        assert_eq!(knee_point(&front), Some(1));
    }

    #[test]
    fn front_is_sorted_by_first_objective() {
        let pts = vec![vec![9, 1], vec![1, 9], vec![5, 5]];
        let front = pareto_front(&pts);
        let xs: Vec<u64> = front.points.iter().map(|p| p[0]).collect();
        assert_eq!(xs, vec![1, 5, 9]);
    }
}
