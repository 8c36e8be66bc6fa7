//! Section 4's cache predictability metrics (Reineke et al.): evict and
//! fill per policy, computed by uncertainty-set exploration.

use mem_hierarchy::metrics::{compute_metrics, PolicyKind, PredictabilityMetrics};

/// One row: a policy at one associativity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsRow {
    /// Policy name.
    pub policy: &'static str,
    /// Associativity.
    pub assoc: usize,
    /// Computed metrics.
    pub metrics: PredictabilityMetrics,
}

/// Computes the table for associativities 2 and 4, the ones the
/// campaign's `cache-evict-fill` scenario covers (the exploration
/// enumerates every initial state, so its cost grows as `C(4k+2, k)·k!`).
pub fn rows() -> Vec<MetricsRow> {
    let mut out = Vec::new();
    for k in [2usize, 4] {
        let budget = 3 * k as u32 + 2;
        for (policy, kind, budget) in [
            ("LRU", PolicyKind::Lru, budget),
            ("FIFO", PolicyKind::Fifo, budget),
            ("PLRU", PolicyKind::Plru, budget),
            ("MRU", PolicyKind::Mru, budget.max(16)),
        ] {
            out.push(MetricsRow {
                policy,
                assoc: k,
                metrics: compute_metrics(kind, k, budget)
                    .expect("associativities 2 and 4 are supported by every policy"),
            });
        }
    }
    out
}

/// Renders the table.
pub fn render(rows: &[MetricsRow]) -> String {
    let mut out = String::new();
    out.push_str("Cache-policy predictability metrics (Reineke et al., cited in §4)\n");
    out.push_str(&format!(
        "{:<8} {:>6} {:>8} {:>8} {:>16}\n",
        "policy", "assoc", "evict", "fill", "states explored"
    ));
    for r in rows {
        let fmt = |v: Option<u32>| v.map_or("inf".to_string(), |x| x.to_string());
        out.push_str(&format!(
            "{:<8} {:>6} {:>8} {:>8} {:>16}\n",
            r.policy,
            r.assoc,
            fmt(r.metrics.evict),
            fmt(r.metrics.fill),
            r.metrics.initial_states
        ));
    }
    out.push_str("\nclosed forms: LRU evict=fill=k; FIFO evict=2k-1, fill=3k-1; MRU fill=inf\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_closed_forms() {
        for r in rows() {
            let k = r.assoc as u32;
            match r.policy {
                "LRU" => {
                    assert_eq!(r.metrics.evict, Some(k));
                    assert_eq!(r.metrics.fill, Some(k));
                }
                "FIFO" => {
                    assert_eq!(r.metrics.evict, Some(2 * k - 1));
                    assert_eq!(r.metrics.fill, Some(3 * k - 1));
                }
                "MRU" => {
                    assert_eq!(r.metrics.evict, Some(2 * k - 2));
                    assert_eq!(r.metrics.fill, None);
                }
                "PLRU" => {
                    // PLRU(2) == LRU(2); PLRU(4) strictly worse than LRU(4).
                    if k == 2 {
                        assert_eq!(r.metrics.evict, Some(2));
                    } else {
                        assert!(r.metrics.evict.unwrap() > 4);
                    }
                }
                _ => unreachable!(),
            }
        }
    }
}
