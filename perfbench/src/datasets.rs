//! Seeded stand-ins for the presets the workloads run on.
//!
//! `DatasetPreset` fixes each generator's seed; the benchmark takes its
//! seed as an argument, so it builds the same generators with the
//! preset's shape and a seed derived from the argument. Seed 0 is the
//! preset itself.

use gogreen_datagen::{PositionalGenerator, RegimeGenerator};

/// The preset's own generator seed, perturbed by the benchmark seed.
fn derive(preset_seed: u64, seed: u64) -> u64 {
    preset_seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The weather analog (sparse; `ξ_old = 5%`) with `rows` tuples.
pub fn weather(rows: usize, seed: u64) -> RegimeGenerator {
    RegimeGenerator {
        num_transactions: rows,
        positions: 15,
        values_per_position: 530,
        num_regimes: 10,
        regime_skew: 1.0,
        adherence: 0.97,
        adherence_lo: 0.10,
        adherence_gamma: 1.0,
        noise_skew: 0.8,
        seed: derive(0x7765_6174, seed),
    }
}

/// The connect4 analog (dense; 43 positions × 3 values) with `rows`
/// tuples.
pub fn connect4(rows: usize, seed: u64) -> PositionalGenerator {
    PositionalGenerator {
        num_transactions: rows,
        positions: 43,
        values_per_position: 3,
        skew: 1.2,
        dominated_positions: 16,
        dominant_prob: 0.998,
        dominant_prob_lo: 0.80,
        dominant_gamma: 3.0,
        seed: derive(0x636f_6e34, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_data::MinSupport;
    use gogreen_datagen::{DatasetPreset, PresetKind};
    use gogreen_miners::mine_hmine;

    #[test]
    fn seed_zero_reproduces_the_presets_row_for_row() {
        let w = DatasetPreset::new(PresetKind::Weather, 0.005);
        assert_eq!(weather(w.num_tuples(), 0).generate(), w.generate());
        let c = DatasetPreset::new(PresetKind::Connect4, 0.005);
        assert_eq!(connect4(c.num_tuples(), 0).generate(), c.generate());
    }

    #[test]
    fn another_seed_gives_another_database_with_answers() {
        let _lock = crate::MINING.lock().unwrap_or_else(|e| e.into_inner());
        let w = weather(5000, 7).generate();
        assert_ne!(w, weather(5000, 0).generate());
        // The loosest and tightest relax-sparse thresholds.
        assert!(!mine_hmine(&w, MinSupport::percent(5.0)).is_empty());
        assert!(!mine_hmine(&w, MinSupport::percent(4.0)).is_empty());
        let c = connect4(1000, 7).generate();
        assert_ne!(c, connect4(1000, 0).generate());
        // The tightest fleet-dense threshold.
        assert!(!mine_hmine(&c, MinSupport::percent(92.0)).is_empty());
    }
}
