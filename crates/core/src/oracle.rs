//! The reference miners the four families are tested against: Apriori,
//! the naive projected-database miner and its compressed counterpart
//! RP-Mine — the paper's Fig. 3 Algorithm *Recycling*, which ablation A3
//! also measures. They are plain [`Miner`] impls; the CLI still answers
//! `--algo naive` and `--algo apriori` through [`raw`] and
//! [`recycling`].

use crate::CompressedDb;
use gogreen_miners::Miner;

pub use crate::rpmine::RpMine;
pub use gogreen_miners::{Apriori, NaiveProjection};

/// The oracles' `--algo` names.
pub const KEYS: [&str; 2] = ["naive", "apriori"];

/// The from-scratch oracle called `key`.
pub fn raw(key: &str) -> Option<Box<dyn Miner>> {
    match key {
        "naive" => Some(Box::new(NaiveProjection)),
        "apriori" => Some(Box::new(Apriori)),
        _ => None,
    }
}

/// The recycling oracle called `key`: RP-Mine for `"naive"`. Apriori has
/// none.
pub fn recycling(key: &str) -> Option<Box<dyn Miner<CompressedDb>>> {
    (key == "naive").then(|| Box::new(RpMine::default()) as Box<dyn Miner<CompressedDb>>)
}
