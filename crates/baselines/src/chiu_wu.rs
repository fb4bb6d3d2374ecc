//! Chiu–Wu-style routing over Wu–Fernandez safe-node status (the
//! paper's reference \[4\]).
//!
//! The original algorithm is not reproduced line-by-line (the cited
//! paper is outside this reproduction's corpus); what the paper relies
//! on is its *interface*: routing over the enhanced (Definition 3) safe
//! node status that establishes a path of length at most `H + 4`
//! whenever the hypercube is not fully unsafe, and that — like
//! Lee–Hayes routing — is inapplicable when the safe set is empty
//! (hence, by Theorem 4, in every disconnected hypercube). See
//! DESIGN.md §5 item 3.

use crate::wu_fernandez::WuFernandezStatus;
use hypersafe_topology::{FaultConfig, NodeId, Path};

/// Routes `s → d` over WF status: prefer safe preferred neighbors,
/// then any nonfaulty preferred neighbor, then a safe spare detour;
/// hop budget `H + 4` per the Chiu–Wu bound.
///
/// Returns `None` when the cube is fully unsafe (inapplicable), either
/// endpoint is faulty, or the budget is exhausted.
pub fn cw_route(
    cfg: &FaultConfig,
    status: &WuFernandezStatus,
    s: NodeId,
    d: NodeId,
) -> Option<Path> {
    if status.fully_unsafe() || cfg.node_faulty(s) || cfg.node_faulty(d) {
        return None;
    }
    let cube = cfg.cube();
    let budget = s.distance(d) + 4;
    let mut at = s;
    let mut path = Path::starting_at(s);
    let mut last_dim: Option<u8> = None;
    while at != d {
        if path.len() >= budget {
            return None;
        }
        if at.distance(d) == 1 {
            path.push(d);
            break;
        }
        let safe_pref = cube
            .preferred_dims(at, d)
            .map(|i| (i, at.neighbor(i)))
            .find(|&(_, b)| !cfg.node_faulty(b) && status.is_safe(b));
        let any_pref = cube
            .preferred_dims(at, d)
            .map(|i| (i, at.neighbor(i)))
            .find(|&(_, b)| !cfg.node_faulty(b));
        let safe_spare = cube
            .spare_dims(at, d)
            .filter(|&i| Some(i) != last_dim)
            .map(|i| (i, at.neighbor(i)))
            .find(|&(_, b)| !cfg.node_faulty(b) && status.is_safe(b));
        match safe_pref.or(any_pref).or(safe_spare) {
            Some((i, b)) => {
                last_dim = Some(i);
                path.push(b);
                at = b;
            }
            None => return None,
        }
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{FaultSet, Hypercube};

    fn cfg4(faults: &[&str]) -> FaultConfig {
        let cube = Hypercube::new(4);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, faults))
    }

    #[test]
    fn delivers_within_h_plus_4_under_few_faults() {
        let cfg = cfg4(&["0011", "0100", "0110"]);
        let st = WuFernandezStatus::compute(&cfg);
        assert!(!st.fully_unsafe());
        for s in cfg.healthy_nodes() {
            for d in cfg.healthy_nodes() {
                if s == d {
                    continue;
                }
                if let Some(p) = cw_route(&cfg, &st, s, d) {
                    assert!(p.traversable(&cfg, false), "{s} → {d}");
                    assert!(p.len() <= s.distance(d) + 4, "{s} → {d}: {p}");
                }
            }
        }
    }

    #[test]
    fn inapplicable_when_fully_unsafe() {
        // §2.3 instance where the LH set is empty but WF is not — then a
        // denser instance where WF is empty too.
        let cfg = cfg4(&["0000", "0110", "1111"]);
        let st = WuFernandezStatus::compute(&cfg);
        assert!(!st.fully_unsafe());
        assert!(cw_route(&cfg, &st, NodeId::new(1), NodeId::new(2)).is_some());

        // Disconnect the cube (Fig. 3 faults): Theorem 4 ⇒ WF set empty
        // ⇒ Chiu–Wu routing inapplicable everywhere.
        let cfg2 = cfg4(&["0110", "1010", "1100", "1111"]);
        let st2 = WuFernandezStatus::compute(&cfg2);
        assert!(st2.fully_unsafe());
        assert_eq!(
            cw_route(&cfg2, &st2, NodeId::new(0), NodeId::new(0b0011)),
            None
        );
    }

    #[test]
    fn faulty_endpoints_rejected() {
        let cfg = cfg4(&["0011"]);
        let st = WuFernandezStatus::compute(&cfg);
        assert_eq!(
            cw_route(&cfg, &st, NodeId::new(0b0011), NodeId::new(0)),
            None
        );
        assert_eq!(
            cw_route(&cfg, &st, NodeId::new(0), NodeId::new(0b0011)),
            None
        );
    }
}
