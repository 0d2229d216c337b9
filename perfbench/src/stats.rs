//! Order statistics for the reported figures: medians, nearest-rank
//! percentiles and the tail rule that decides whether a percentile may be
//! reported at all.

use std::fmt;

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the tail is a handful of outliers, not a figure.
pub const MIN_TAIL: usize = 10;

/// Median of `values`: the middle order statistic, or the mean of the two
/// middle ones for an even count. `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Why a percentile was not reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples the run produced.
    pub samples: usize,
    /// Samples the tail rule needs for this percentile.
    pub needed: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples, but at least {} are needed to leave {MIN_TAIL} beyond the percentile",
            self.samples, self.needed
        )
    }
}

/// Samples needed before the `q`-percentile leaves [`MIN_TAIL`] samples
/// beyond it: the smallest `n` with `n · (1 − q) ≥ MIN_TAIL`.
pub fn samples_needed(q: f64) -> usize {
    assert!((0.0..1.0).contains(&q), "percentile must lie in [0, 1)");
    // The small slack absorbs the rounding of `1 − q` (1 − 0.99 is not
    // exactly 0.01 in binary).
    (MIN_TAIL as f64 / (1.0 - q) - 1e-9).ceil() as usize
}

/// The nearest-rank `q`-percentile of `values`, or [`TooFewSamples`] when
/// fewer than [`MIN_TAIL`] samples would lie beyond it.
pub fn tail_percentile(values: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    let needed = samples_needed(q);
    if values.len() < needed {
        return Err(TooFewSamples {
            samples: values.len(),
            needed,
        });
    }
    let sorted = sorted(values);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, sorted.len()) - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&short, 0.99),
            Err(TooFewSamples {
                samples: 999,
                needed: 1000
            })
        );
        let long: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Nearest rank: the 990th smallest, with exactly ten beyond it.
        assert_eq!(tail_percentile(&long, 0.99), Ok(990.0));
        let beyond = long.iter().filter(|&&v| v > 990.0).count();
        assert_eq!(beyond, MIN_TAIL);
    }

    #[test]
    fn percentiles_ignore_input_order() {
        let mut values: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 2000) as f64).collect();
        let a = tail_percentile(&values, 0.99).unwrap();
        values.reverse();
        assert_eq!(tail_percentile(&values, 0.99).unwrap(), a);
        assert_eq!(a, 1979.0);
    }
}
