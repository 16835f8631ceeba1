//! The kernel key of the autotuner's probes.
//!
//! A probe is one tiny bench run: the tuner in `crates/tune` times its
//! candidates through [`measure_stencil`](crate::measure_stencil) and
//! [`measure_lbm`](crate::measure_lbm), so a tuned winner's probe numbers
//! and its eventual `threefive bench` numbers come from the same harness.

/// Which kernel a probe exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProbeWorkload {
    /// 7-point heat stencil.
    Stencil,
    /// D3Q19 lid-driven-cavity LBM.
    Lbm,
}

impl ProbeWorkload {
    /// The kernel name used in `TUNE.json` keys.
    pub fn kernel_name(self) -> &'static str {
        match self {
            Self::Stencil => "7pt",
            Self::Lbm => "lbm",
        }
    }

    /// Parses a `TUNE.json` kernel name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "7pt" => Some(Self::Stencil),
            "lbm" => Some(Self::Lbm),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_round_trip() {
        for w in [ProbeWorkload::Stencil, ProbeWorkload::Lbm] {
            assert_eq!(ProbeWorkload::parse(w.kernel_name()), Some(w));
        }
        assert_eq!(ProbeWorkload::parse("27pt"), None);
    }
}
