//! Pareto-frontier extraction over the four paper objectives.
//!
//! A solved point is on the frontier iff no other point is at least as good
//! on all four of (access time, dynamic read energy, area, leakage +
//! refresh power) and strictly better on at least one — the classic
//! dominance relation, minimizing every objective. The engine annotates
//! every `ok` record with its frontier membership and, for frontier points,
//! the number of points it dominates.

/// The four objective values of one solved point, in SI units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoMetrics {
    /// End-to-end access time \[s\].
    pub access_s: f64,
    /// Dynamic read energy per access \[J\].
    pub read_j: f64,
    /// Total area \[m²\].
    pub area_m2: f64,
    /// Leakage + refresh power \[W\].
    pub leakage_w: f64,
}

impl ParetoMetrics {
    fn axes(&self) -> [f64; 4] {
        [self.access_s, self.read_j, self.area_m2, self.leakage_w]
    }

    /// `true` iff every objective is a finite number. Non-finite points are
    /// excluded from frontier extraction: NaN fails every comparison, so a
    /// NaN point would be "never dominated" and pollute the frontier, while
    /// a `-inf` point would spuriously dominate every real solution.
    pub fn is_finite(&self) -> bool {
        self.axes().iter().all(|v| v.is_finite())
    }

    /// `true` iff `self` dominates `other`: no worse on every objective and
    /// strictly better on at least one.
    pub fn dominates(&self, other: &ParetoMetrics) -> bool {
        let (a, b) = (self.axes(), other.axes());
        let mut strictly = false;
        for i in 0..4 {
            if a[i] > b[i] {
                return false;
            }
            strictly |= a[i] < b[i];
        }
        strictly
    }
}

/// One frontier member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Grid-point index of the frontier member.
    pub idx: usize,
    /// How many solved points this one dominates.
    pub dominates: usize,
    /// The member's objective values.
    pub metrics: ParetoMetrics,
}

/// Extracts the Pareto frontier of `(idx, metrics)` points, returned in
/// ascending `idx` order.
///
/// The points are first sorted lexicographically by their objectives. A
/// dominator is no worse on every axis and strictly better on one, so it
/// sorts strictly before every point it dominates, and every dominated
/// point has a dominator on the frontier (follow dominators until one is
/// undominated; dominance is transitive). So one pass in sorted order that
/// tests each point against the frontier found so far decides membership
/// exactly, and a member's dominated points all lie after it. That costs
/// O(n log n + n·f) for f frontier members whatever order the points come
/// in, so a grid's Pareto step takes the same time for any axis order.
/// Each point is tested against the member that most recently dominated
/// one first (move-to-front), so a dominated point usually costs one
/// test.
///
/// Points with any non-finite objective ([`ParetoMetrics::is_finite`]) take
/// no part in the computation: they cannot join the frontier, dominate, or
/// be dominated. Callers surface them separately (the engine counts them in
/// its stats and the CD0021/CD0022 lints flag the underlying solutions).
pub fn frontier(points: &[(usize, ParetoMetrics)]) -> Vec<ParetoPoint> {
    let mut sorted: Vec<&(usize, ParetoMetrics)> =
        points.iter().filter(|(_, m)| m.is_finite()).collect();
    // Finite objectives always compare; `-0.0 == 0.0` here as in `dominates`.
    sorted.sort_by(|(_, a), (_, b)| {
        a.axes()
            .partial_cmp(&b.axes())
            .unwrap_or_else(|| unreachable!("finite objectives are ordered"))
    });
    // Move-to-front: the order of the tries changes no verdict.
    let mut members: Vec<usize> = Vec::new();
    for (i, (_, m)) in sorted.iter().enumerate() {
        match members.iter().position(|&f| sorted[f].1.dominates(m)) {
            Some(k) => members[..=k].rotate_right(1),
            None => members.push(i),
        }
    }
    let mut out: Vec<ParetoPoint> = members
        .into_iter()
        .map(|f| {
            let (idx, m) = sorted[f];
            ParetoPoint {
                idx: *idx,
                dominates: sorted[f + 1..]
                    .iter()
                    .filter(|(_, other)| m.dominates(other))
                    .count(),
                metrics: *m,
            }
        })
        .collect();
    out.sort_by_key(|p| p.idx);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(access: f64, energy: f64, area: f64, leak: f64) -> ParetoMetrics {
        ParetoMetrics {
            access_s: access,
            read_j: energy,
            area_m2: area,
            leakage_w: leak,
        }
    }

    #[test]
    fn dominance_requires_strict_improvement_somewhere() {
        let a = m(1.0, 1.0, 1.0, 1.0);
        assert!(!a.dominates(&a));
        assert!(m(0.5, 1.0, 1.0, 1.0).dominates(&a));
        assert!(!m(0.5, 2.0, 1.0, 1.0).dominates(&a), "worse on energy");
    }

    #[test]
    fn frontier_of_a_chain_is_its_minimum() {
        let pts: Vec<(usize, ParetoMetrics)> = (0..5)
            .map(|i| {
                let v = 1.0 + i as f64;
                (i, m(v, v, v, v))
            })
            .collect();
        let f = frontier(&pts);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].idx, 0);
        assert_eq!(f[0].dominates, 4);
    }

    #[test]
    fn trade_off_points_all_survive() {
        // Three points trading access time against energy; none dominates.
        let pts = vec![
            (10, m(1.0, 3.0, 1.0, 1.0)),
            (11, m(2.0, 2.0, 1.0, 1.0)),
            (12, m(3.0, 1.0, 1.0, 1.0)),
        ];
        let f = frontier(&pts);
        assert_eq!(f.iter().map(|p| p.idx).collect::<Vec<_>>(), [10, 11, 12]);
        assert!(f.iter().all(|p| p.dominates == 0));
    }

    #[test]
    fn duplicates_neither_dominate_nor_vanish() {
        let pts = vec![(0, m(1.0, 1.0, 1.0, 1.0)), (1, m(1.0, 1.0, 1.0, 1.0))];
        let f = frontier(&pts);
        assert_eq!(f.len(), 2, "equal points do not dominate each other");
    }

    #[test]
    fn empty_input_yields_empty_frontier() {
        assert!(frontier(&[]).is_empty());
    }

    #[test]
    fn nan_points_neither_join_nor_shadow_the_frontier() {
        // NaN fails all comparisons: unguarded, the NaN point would be
        // "never dominated" and land on the frontier.
        let pts = vec![
            (0, m(f64::NAN, 1.0, 1.0, 1.0)),
            (1, m(2.0, 2.0, 2.0, 2.0)),
            (2, m(1.0, 1.0, 1.0, f64::NAN)),
        ];
        let f = frontier(&pts);
        assert_eq!(f.iter().map(|p| p.idx).collect::<Vec<_>>(), [1]);
        assert_eq!(f[0].dominates, 0, "NaN points are not dominated either");
    }

    #[test]
    fn negative_infinity_cannot_dominate_real_points() {
        // Unguarded, -inf beats every finite value on its axis and would
        // wipe out the whole real frontier.
        let pts = vec![
            (0, m(f64::NEG_INFINITY, 0.0, 0.0, 0.0)),
            (1, m(1.0, 1.0, 1.0, 1.0)),
            (2, m(f64::INFINITY, 1.0, 1.0, 1.0)),
        ];
        let f = frontier(&pts);
        assert_eq!(f.iter().map(|p| p.idx).collect::<Vec<_>>(), [1]);
    }

    /// The definition, pair by pair: on the frontier iff no point
    /// dominates it, with the count of the points it dominates.
    fn brute_force(points: &[(usize, ParetoMetrics)]) -> Vec<ParetoPoint> {
        let finite: Vec<_> = points.iter().filter(|(_, m)| m.is_finite()).collect();
        let mut front: Vec<ParetoPoint> = finite
            .iter()
            .filter(|(_, m)| !finite.iter().any(|(_, o)| o.dominates(m)))
            .map(|&&(idx, m)| ParetoPoint {
                idx,
                dominates: finite.iter().filter(|(_, o)| m.dominates(o)).count(),
                metrics: m,
            })
            .collect();
        front.sort_by_key(|p| p.idx);
        front
    }

    #[test]
    fn frontier_matches_the_definition_in_any_input_order() {
        // Few distinct values per axis, so ties, duplicates and signed
        // zeros are common; every input order must give the same answer.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let values = [-0.0, 0.0, 1.0, 2.0, 3.0, f64::NAN];
        for round in 0..200 {
            let n = 1 + next(60) as usize;
            let mut pts: Vec<(usize, ParetoMetrics)> = (0..n)
                .map(|i| {
                    let mut v = [0.0; 4];
                    for x in &mut v {
                        *x = values[next(if round % 4 == 0 { 6 } else { 5 }) as usize];
                    }
                    (i, m(v[0], v[1], v[2], v[3]))
                })
                .collect();
            for _ in 0..3 {
                assert_eq!(frontier(&pts), brute_force(&pts), "round {round}");
                for i in (1..pts.len()).rev() {
                    pts.swap(i, next(i as u64 + 1) as usize);
                }
            }
        }
    }

    #[test]
    fn frontier_matches_the_definition_on_wide_frontiers() {
        // Larger sets than above, with many frontier members, so a point's
        // dominator is often far down the member list: a trade-off curve,
        // points just behind it, exact copies of earlier points, and axes
        // that tie or carry a signed zero.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for round in 0..60 {
            let n = 50 + next(350) as usize;
            let mut pts: Vec<(usize, ParetoMetrics)> = Vec::with_capacity(n);
            for i in 0..n {
                let t = next(64) as f64;
                let mut v = [t, 64.0 - t, next(4) as f64, next(3) as f64];
                match next(8) {
                    // Just behind the curve on one axis.
                    0 | 1 => v[next(4) as usize] += 0.5,
                    // An exact copy of an earlier point.
                    2 if i > 0 => v = pts[next(i as u64) as usize].1.axes(),
                    // A tie at zero, signed either way.
                    3 => v[next(4) as usize] = if next(2) == 0 { 0.0 } else { -0.0 },
                    _ => {}
                }
                pts.push((i, m(v[0], v[1], v[2], v[3])));
            }
            let front = frontier(&pts);
            assert_eq!(front, brute_force(&pts), "round {round}");
            assert!(front.len() > 1, "round {round} has a wide frontier");
        }
    }

    #[test]
    fn is_finite_checks_every_axis() {
        assert!(m(1.0, 1.0, 1.0, 1.0).is_finite());
        assert!(!m(f64::NAN, 1.0, 1.0, 1.0).is_finite());
        assert!(!m(1.0, f64::INFINITY, 1.0, 1.0).is_finite());
        assert!(!m(1.0, 1.0, f64::NEG_INFINITY, 1.0).is_finite());
        assert!(!m(1.0, 1.0, 1.0, f64::NAN).is_finite());
    }
}
