//! Deterministic, mergeable log₂-bucketed histograms.
//!
//! Counters (see [`crate::metrics`]) prove *how much* work a run did;
//! histograms show how that work is *distributed* — a handful of
//! pathological projected databases dominating a dense analog looks
//! identical to uniformly spread work in a flat total, but not in a
//! bucket vector. The recorded distributions (projected-DB sizes,
//! per-projection tuple touches, tidset word counts, cover run lengths,
//! spill record bytes) are declared in [`crate::registry`] next to the
//! counters.
//!
//! # Bucketing
//!
//! Bucket `i` holds values whose bit length is `i`: bucket 0 is the
//! value 0, bucket `i ≥ 1` is the range `[2^(i-1), 2^i - 1]`. The
//! mapping is a single `leading_zeros`, needs no configuration, and is
//! identical on every platform — so bucket counts are part of the
//! deterministic observable output, not an approximation detail.
//!
//! # Determinism
//!
//! Observations land in the calling thread's [`crate::Recorder`] (same
//! scheme as the counters) and merge by element-wise bucket addition —
//! commutative and associative. A workload whose logical units are fixed (the fan-out
//! units of the miners, the groups of a compression) therefore produces
//! **bit-identical bucket vectors at any `--threads N`** for every
//! histogram whose name is thread-invariant per the registry; only the
//! `cover.*` sweep histograms may vary (chunked sweeps re-partition the
//! claims). An installed recorder turns the whole measurement layer on.

use crate::recorder::{active, with_current};
use gogreen_util::Json;

/// Number of log₂ buckets: bit lengths 0 (the value 0) through 64.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index of `value`: its bit length.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive value range covered by bucket `i` (`None` above 64).
pub fn bucket_range(i: usize) -> Option<(u64, u64)> {
    match i {
        0 => Some((0, 0)),
        1..=64 => {
            let lo = 1u64 << (i - 1);
            Some((lo, lo - 1 + lo))
        }
        _ => None,
    }
}

/// One merged histogram: observation count, exact sum, and log₂ bucket
/// counts. Merging is element-wise addition everywhere, so totals are
/// order-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Total observations.
    pub count: u64,
    /// Exact sum of observed values (wrapping add is irrelevant at the
    /// magnitudes recorded here; kept u64 like the counters).
    pub sum: u64,
    /// `buckets[i]` = observations with bit length `i`.
    pub buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, buckets: [0; NUM_BUCKETS] }
    }
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.buckets[bucket_of(value)] += 1;
    }

    /// Merges `other` into `self` (element-wise addition).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `0..=1`), the conventional conservative read of a log₂ sketch.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_range(i).map_or(u64::MAX, |(_, hi)| hi);
            }
        }
        u64::MAX
    }

    /// Index of the highest non-empty bucket (`None` when empty).
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Serializes as `{"count":..,"sum":..,"buckets":{"3":5,...}}` with
    /// only non-empty buckets listed, keyed by bucket index.
    pub fn to_json(&self) -> Json {
        let buckets = Json::Obj(
            self.buckets
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (i.to_string(), Json::from(c)))
                .collect(),
        );
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("buckets", buckets),
        ])
    }

    /// Parses the [`Histogram::to_json`] shape back.
    pub fn from_json(json: &Json) -> Option<Histogram> {
        let mut h = Histogram {
            count: json.get("count")?.as_u64()?,
            sum: json.get("sum")?.as_u64()?,
            ..Histogram::default()
        };
        if let Some(Json::Obj(pairs)) = json.get("buckets") {
            for (k, v) in pairs {
                let i: usize = k.parse().ok()?;
                if i >= NUM_BUCKETS {
                    return None;
                }
                h.buckets[i] = v.as_u64()?;
            }
        }
        Some(h)
    }
}

/// Records `value` into the histogram `name`. No-op without a recorder
/// (one thread-local load and a branch, like the counters).
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if active() {
        with_current(|r| r.observe(name, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_range(0), Some((0, 0)));
        assert_eq!(bucket_range(3), Some((4, 7)));
        assert_eq!(bucket_range(64), Some((1 << 63, u64::MAX)));
        assert_eq!(bucket_range(65), None);
    }

    #[test]
    fn observe_merge_and_quantiles() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 5, 9, 100] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 116);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 2); // 1, 1
        assert_eq!(h.buckets[3], 1); // 5
        assert_eq!(h.buckets[4], 1); // 9
        assert_eq!(h.buckets[7], 1); // 100
        assert_eq!(h.quantile_upper(0.5), 1); // 3rd of 6 is a 1
        assert_eq!(h.quantile_upper(1.0), 127);
        assert_eq!(h.max_bucket(), Some(7));
        let mut m = h.clone();
        m.merge(&h);
        assert_eq!(m.count, 12);
        assert_eq!(m.sum, 232);
        assert_eq!(m.buckets[1], 4);
    }

    #[test]
    fn json_round_trips() {
        let mut h = Histogram::default();
        for v in [3u64, 70, 70, 4096] {
            h.observe(v);
        }
        let j = h.to_json();
        let back = Histogram::from_json(&Json::parse(&j.dump()).unwrap()).unwrap();
        assert_eq!(back, h);
    }
}
