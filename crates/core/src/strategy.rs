//! The paper's operation-combining strategies (Section IV).

use std::fmt;

/// How the simulator schedules matrix-matrix combination versus
/// matrix-vector application (the paper's Section IV-A/B strategies).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// One matrix-vector multiplication per elementary gate — Eq. 1, the
    /// state-of-the-art baseline (`t_sota` in Tables I/II).
    #[default]
    Sequential,
    /// Combine `k` consecutive gates into one matrix before applying it
    /// (the paper's *k-operations*, Fig. 8). `k = 1` degenerates to
    /// [`Sequential`](Strategy::Sequential).
    KOperations {
        /// Gates per combined matrix.
        k: usize,
    },
    /// Combine gates until the product DD exceeds `s_max` nodes, then apply
    /// (the paper's *max-size*, Fig. 9).
    MaxSize {
        /// Node-count bound on the accumulated product.
        s_max: usize,
    },
    /// Combine each [`Repeat`](ddsim_circuit::Operation::Repeat) block into
    /// a single matrix *once* and re-apply the cached matrix every
    /// iteration (the paper's *DD-repeating*, Table I). Gates outside
    /// repeat blocks fall back to [`KOperations`](Strategy::KOperations)
    /// with the given `k`.
    DdRepeating {
        /// Fallback combination width outside repeat blocks.
        k: usize,
    },
    /// An extension beyond the paper: keep folding gates while the
    /// accumulated product stays small *relative to the current state DD*
    /// (the condition under which Section III argues MxM wins), bounded by
    /// an absolute node cap. Parameter-free in spirit — the defaults
    /// `ratio = 1.0`, `cap = 4096` work across the benchmark families.
    Adaptive {
        /// Flush once `product_nodes > ratio × state_nodes` (per-mille to
        /// keep the type `Eq`/`Hash`-friendly: 1000 = 1.0).
        ratio_millis: u32,
        /// Absolute node cap on the accumulated product.
        cap: usize,
    },
}

impl Strategy {
    /// The adaptive extension with its default parameters.
    pub fn adaptive() -> Strategy {
        Strategy::Adaptive {
            ratio_millis: 1000,
            cap: 4096,
        }
    }

    /// Whether every gate is applied on its own, never accumulated into a
    /// product: [`Sequential`](Strategy::Sequential), and k-operations or
    /// DD-repeating with `k ≤ 1`.
    pub fn gate_at_a_time(self) -> bool {
        match self {
            Strategy::Sequential => true,
            Strategy::KOperations { k } | Strategy::DdRepeating { k } => k <= 1,
            Strategy::MaxSize { .. } | Strategy::Adaptive { .. } => false,
        }
    }

    /// Whether a unitary repeat block is combined once and its matrix
    /// re-applied every iteration (DD-repeating only).
    pub fn reuses_blocks(self) -> bool {
        matches!(self, Strategy::DdRepeating { .. })
    }

    /// The flush rule: with a gate just folded into the pending product,
    /// whether to apply the product to the state now rather than fold in
    /// one more gate.
    ///
    /// `product_nodes` and `state_nodes` report the node counts of the
    /// product and the state DD. Each costs a DD traversal, so it is called
    /// only by the variants that read it: max-size reads the product,
    /// adaptive reads both, and k-operations reads neither.
    pub fn flush_now(
        self,
        pending_gates: u64,
        product_nodes: impl FnOnce() -> usize,
        state_nodes: impl FnOnce() -> usize,
    ) -> bool {
        match self {
            Strategy::Sequential => true,
            Strategy::KOperations { k } | Strategy::DdRepeating { k } => pending_gates >= k as u64,
            Strategy::MaxSize { s_max } => product_nodes() > s_max,
            Strategy::Adaptive { ratio_millis, cap } => {
                // Section III's condition: combining pays while the product
                // DD stays small relative to the state DD it would
                // otherwise be multiplied into repeatedly.
                let nodes = product_nodes();
                let budget = (state_nodes() as u64).saturating_mul(u64::from(ratio_millis)) / 1000;
                nodes as u64 > budget.max(4) || nodes > cap
            }
        }
    }

    /// The compact CLI/server spelling that [`FromStr`](std::str::FromStr)
    /// parses back: `sequential`, `kops:K`, `maxsize:S`, `ddrepeating:K` or
    /// `adaptive`. The adaptive spelling names the default parameters.
    pub fn spec(self) -> String {
        match self {
            Strategy::Sequential => "sequential".into(),
            Strategy::KOperations { k } => format!("kops:{k}"),
            Strategy::MaxSize { s_max } => format!("maxsize:{s_max}"),
            Strategy::DdRepeating { k } => format!("ddrepeating:{k}"),
            Strategy::Adaptive { .. } => "adaptive".into(),
        }
    }

    /// Short label used in benchmark output.
    pub fn label(self) -> String {
        match self {
            Strategy::Sequential => "sequential".to_string(),
            Strategy::KOperations { k } => format!("k-operations(k={k})"),
            Strategy::MaxSize { s_max } => format!("max-size(s_max={s_max})"),
            Strategy::DdRepeating { k } => format!("dd-repeating(k={k})"),
            Strategy::Adaptive { ratio_millis, cap } => {
                format!(
                    "adaptive(ratio={:.2},cap={cap})",
                    ratio_millis as f64 / 1000.0
                )
            }
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Error from [`Strategy::from_str`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseStrategyError(pub String);

impl fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseStrategyError {}

impl std::str::FromStr for Strategy {
    type Err = ParseStrategyError;

    /// Parses the compact CLI/server spelling: `sequential`, `kops:K`,
    /// `maxsize:S`, `ddrepeating:K`, or `adaptive`.
    fn from_str(spec: &str) -> Result<Strategy, ParseStrategyError> {
        let parts: Vec<&str> = spec.split(':').collect();
        match parts.as_slice() {
            ["sequential"] => Ok(Strategy::Sequential),
            ["kops", k] => k
                .parse()
                .map(|k| Strategy::KOperations { k })
                .map_err(|_| ParseStrategyError("bad k for kops".into())),
            ["maxsize", s] => s
                .parse()
                .map(|s_max| Strategy::MaxSize { s_max })
                .map_err(|_| ParseStrategyError("bad s_max for maxsize".into())),
            ["ddrepeating", k] => k
                .parse()
                .map(|k| Strategy::DdRepeating { k })
                .map_err(|_| ParseStrategyError("bad k for ddrepeating".into())),
            ["adaptive"] => Ok(Strategy::adaptive()),
            _ => Err(ParseStrategyError(format!("unknown strategy `{spec}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_parameterized() {
        assert_eq!(Strategy::Sequential.label(), "sequential");
        assert_eq!(Strategy::KOperations { k: 4 }.label(), "k-operations(k=4)");
        assert_eq!(
            Strategy::MaxSize { s_max: 64 }.label(),
            "max-size(s_max=64)"
        );
        assert_eq!(Strategy::DdRepeating { k: 2 }.label(), "dd-repeating(k=2)");
    }

    #[test]
    fn default_is_the_sota_baseline() {
        assert_eq!(Strategy::default(), Strategy::Sequential);
    }

    #[test]
    fn spec_roundtrips_through_from_str() {
        for s in [
            Strategy::Sequential,
            Strategy::KOperations { k: 8 },
            Strategy::MaxSize { s_max: 512 },
            Strategy::DdRepeating { k: 2 },
            Strategy::adaptive(),
        ] {
            assert_eq!(s.spec().parse::<Strategy>(), Ok(s), "{}", s.spec());
        }
    }

    /// A node count the rule must not read: k-operations decides on the
    /// gate count alone.
    fn unread() -> usize {
        panic!("node count read by a rule that does not need it")
    }

    #[test]
    fn flush_rule_table() {
        let adaptive = Strategy::adaptive();
        let half = Strategy::Adaptive {
            ratio_millis: 500,
            cap: 4096,
        };
        // (strategy, pending gates, product nodes, state nodes, flush?)
        let table = [
            // k reached versus k − 1; no node count is read.
            (Strategy::KOperations { k: 8 }, 7, None, None, false),
            (Strategy::KOperations { k: 8 }, 8, None, None, true),
            (Strategy::DdRepeating { k: 3 }, 2, None, None, false),
            (Strategy::DdRepeating { k: 3 }, 3, None, None, true),
            // s_max exceeded strictly; the gate count does not matter.
            (Strategy::MaxSize { s_max: 64 }, 1000, Some(64), None, false),
            (Strategy::MaxSize { s_max: 64 }, 1, Some(65), None, true),
            // Adaptive: the product against max(ratio × state, 4) ...
            (adaptive, 2, Some(10), Some(10), false),
            (adaptive, 2, Some(11), Some(10), true),
            (adaptive, 2, Some(4), Some(1), false),
            (adaptive, 2, Some(5), Some(1), true),
            (half, 2, Some(5), Some(10), false),
            (half, 2, Some(6), Some(10), true),
            // ... and against the absolute cap, whatever the state size.
            (adaptive, 2, Some(4096), Some(100_000), false),
            (adaptive, 2, Some(4097), Some(100_000), true),
        ];
        for (strategy, gates, product, state, expect) in table {
            let got = strategy.flush_now(
                gates,
                || product.unwrap_or_else(unread),
                || state.unwrap_or_else(unread),
            );
            assert_eq!(
                got, expect,
                "{strategy} gates={gates} product={product:?} state={state:?}"
            );
        }
    }

    #[test]
    fn gate_at_a_time_and_block_reuse_by_variant() {
        // (strategy, gate at a time?, reuses blocks?)
        let table = [
            (Strategy::Sequential, true, false),
            (Strategy::KOperations { k: 1 }, true, false),
            (Strategy::KOperations { k: 2 }, false, false),
            (Strategy::DdRepeating { k: 1 }, true, true),
            (Strategy::DdRepeating { k: 8 }, false, true),
            (Strategy::MaxSize { s_max: 1 }, false, false),
            (Strategy::adaptive(), false, false),
        ];
        for (strategy, at_a_time, reuse) in table {
            assert_eq!(strategy.gate_at_a_time(), at_a_time, "{strategy}");
            assert_eq!(strategy.reuses_blocks(), reuse, "{strategy}");
        }
    }
}
