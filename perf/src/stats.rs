//! Order statistics over a handful of repetitions.

use nicsim_exp::Json;

/// The `q`-quantile of `samples` by linear interpolation between the
/// two nearest order statistics (position `q * (n - 1)`), so it never
/// leaves the sampled range — with two smoke reps the lower quartile
/// sits between them instead of being extrapolated below both.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Host seconds of one repetition as a quiet host would run it. Every
/// repetition is timed in the same pieces (`reps[r][i]` is piece `i` of
/// repetition `r`) and piece `i` does the same work each time, so the
/// estimate is the sum over pieces of the fastest sample across
/// repetitions: noise on a shared host only ever adds time, and a
/// burst that hits one piece of one repetition costs that sample, not
/// the repetition. With one piece it is the fastest repetition.
///
/// # Panics
///
/// Panics when there is no repetition or they differ in length.
pub fn quiet_sum(reps: &[&[f64]]) -> f64 {
    let pieces = reps.first().expect("at least one repetition").len();
    assert!(
        reps.iter().all(|r| r.len() == pieces),
        "repetitions are timed in the same pieces"
    );
    (0..pieces)
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// What is written beside every host-time metric: the repetition
/// count and where the repetitions fell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub reps: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            reps: samples.len(),
            min: quantile(samples, 0.0),
            q1: quantile(samples, 0.25),
            median: quantile(samples, 0.5),
            q3: quantile(samples, 0.75),
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj()
            .with("reps", self.reps)
            .with("min", self.min)
            .with("q1", self.q1)
            .with("median", self.median)
            .with("q3", self.q3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        // Eight reps: the lower quartile sits 3/4 of the way from the
        // second to the third smallest.
        let eight = [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(quantile(&eight, 0.25), 2.75);
        // Two reps never extrapolate; one rep is every quantile.
        assert_eq!(quantile(&[10.0, 20.0], 0.25), 12.5);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn quiet_sum_drops_a_burst_but_keeps_the_work() {
        // Five repetitions of three pieces costing 1, 2 and 3; a burst
        // hits a different piece of two of them.
        let clean = [1.0, 2.0, 3.0];
        let reps: [&[f64]; 5] = [&clean, &[9.0, 2.0, 3.0], &clean, &[1.0, 2.0, 7.0], &clean];
        assert_eq!(quiet_sum(&reps), 6.0);
        // Slower everywhere but one piece: only that piece counts.
        let mixed: [&[f64]; 2] = [&[2.0, 2.0, 3.0], &[1.5, 4.0, 6.0]];
        assert_eq!(quiet_sum(&mixed), 6.5);
        // One piece per repetition: the fastest repetition.
        let whole: [&[f64]; 5] = [&[4.0], &[1.0], &[3.0], &[2.0], &[5.0]];
        assert_eq!(quiet_sum(&whole), 1.0);
    }

    #[test]
    fn summary_orders_its_fields() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 10.0]);
        assert_eq!(s.reps, 4);
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3);
        assert_eq!(s.min, 1.0);
    }
}
