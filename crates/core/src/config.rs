//! Synthesis parameters (paper §4 and §5.4).

use mapsynth_text::MatchParams;

/// Parameters of the synthesis step. Defaults follow the paper's
/// reported settings (§5.4).
#[derive(Clone, Copy, Debug)]
pub struct SynthesisConfig {
    /// `θ_overlap`: minimum shared value pairs (for positive candidate
    /// pairs) or shared left values (for negative candidate pairs)
    /// before a table pair's compatibility is evaluated at all. Blocks
    /// the O(N²) comparison (paper §4.1 "Efficiency").
    pub theta_overlap: usize,
    /// `θ_edge`: positive edges below this weight are filtered from the
    /// graph as insignificant (paper: best at 0.85).
    pub theta_edge: f64,
    /// `τ`: negative edges at or below this weight are hard constraints
    /// — their endpoints may never share a partition (paper: −0.2 used,
    /// peak quality near −0.05). Negative scores above τ are ignored.
    pub tau: f64,
    /// Approximate string matching parameters (`f_ed`, `k_ed`).
    pub match_params: MatchParams,
    /// Whether approximate (edit-distance) matching is applied on top
    /// of normalized-equality matching when scoring table pairs.
    pub approx_matching: bool,
    /// Whether negative (FD-conflict) evidence is used at all. `false`
    /// reproduces the paper's `SynthesisPos` ablation.
    pub use_negative: bool,
    /// Per-blocking-key fanout cap: keys (value pairs / left values)
    /// shared by more than this many tables contribute no candidate
    /// pairs (the tables will meet through rarer keys). Bounds the pair
    /// count exactly like the paper's inverted-index re-grouping.
    pub max_key_fanout: usize,
    /// Skip approximate matching for table pairs whose cross product
    /// exceeds this bound (cost guard; exact matching still applies).
    pub max_approx_cross: usize,
    /// Run conflict resolution (paper §4.2 "Conflict Resolution",
    /// Algorithm 4) on each synthesized partition.
    pub resolve_conflicts: bool,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        Self {
            theta_overlap: 2,
            theta_edge: 0.85,
            tau: -0.2,
            match_params: MatchParams::default(),
            approx_matching: true,
            use_negative: true,
            max_key_fanout: 64,
            max_approx_cross: 4096,
            resolve_conflicts: true,
        }
    }
}

impl SynthesisConfig {
    /// The `SynthesisPos` ablation: identical but ignoring FD-induced
    /// negative evidence (paper §5.2).
    pub fn without_negative(mut self) -> Self {
        self.use_negative = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SynthesisConfig::default();
        assert_eq!(c.theta_edge, 0.85);
        assert_eq!(c.tau, -0.2);
        assert_eq!(c.match_params.k_ed, 10);
        assert!(c.use_negative);
        assert!(!c.without_negative().use_negative);
    }
}
