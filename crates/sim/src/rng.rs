//! Deterministic per-event sampling.
//!
//! Loss draws are a pure function of `(seed, edge, packet seq,
//! attempt)` rather than a sequential RNG stream. This makes scheme
//! comparisons *paired*: every scheme replaying the same trace sees
//! identical loss outcomes on identical (edge, packet) events, so
//! differences between schemes reflect routing, not sampling noise.

/// SplitMix64 finalizer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `(seed, edge)` half of a draw's hash chain. It is the same for
/// every packet a flow sends over `edge`, so a replay that asks about
/// the same edges packet after packet hashes it once.
pub(crate) fn edge_prefix(seed: u64, edge: u32) -> u64 {
    splitmix64(splitmix64(seed) ^ u64::from(edge))
}

/// The 53 random bits of the draw for `(seq, attempt)` on the edge
/// behind `prefix`: [`unit_sample`] is this over 2^53.
pub(crate) fn draw_bits(prefix: u64, seq: u64, attempt: u32) -> u64 {
    splitmix64(splitmix64(prefix ^ seq) ^ u64::from(attempt)) >> 11
}

/// 2^53, the number of values a draw takes.
const DRAWS: f64 = (1u64 << 53) as f64;

/// A uniform sample in `[0, 1)` determined by the event coordinates.
pub fn unit_sample(seed: u64, edge: u32, seq: u64, attempt: u32) -> f64 {
    // 53 random bits into the mantissa range.
    draw_bits(edge_prefix(seed, edge), seq, attempt) as f64 / DRAWS
}

/// The smallest [`draw_bits`] value that survives `loss_rate`:
/// `draw_bits(..) >= survival_threshold(loss)` exactly when
/// `unit_sample(..) >= loss`.
///
/// A draw is `k / 2^53` with `k` an integer below 2^53, and both that
/// division and `loss * 2^53` are exact in `f64` (scaling by a power of
/// two), so `k / 2^53 >= loss` iff `k >= loss * 2^53` iff
/// `k >= ceil(loss * 2^53)`. The cast saturates: a rate of zero or less
/// gives 0 (nothing is lost), a rate above one gives more than any `k`
/// (everything is lost), as the float comparison does; NaN compares
/// false with everything, so it loses everything too.
pub(crate) fn survival_threshold(loss_rate: f64) -> u64 {
    if loss_rate.is_nan() {
        u64::MAX
    } else {
        (loss_rate * DRAWS).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(unit_sample(1, 2, 3, 0), unit_sample(1, 2, 3, 0));
    }

    #[test]
    fn coordinates_matter() {
        let base = unit_sample(1, 2, 3, 0);
        assert_ne!(base, unit_sample(2, 2, 3, 0));
        assert_ne!(base, unit_sample(1, 3, 3, 0));
        assert_ne!(base, unit_sample(1, 2, 4, 0));
        assert_ne!(base, unit_sample(1, 2, 3, 1));
    }

    #[test]
    fn in_unit_interval_and_roughly_uniform() {
        let n = 10_000;
        let mut sum = 0.0;
        for seq in 0..n {
            let s = unit_sample(42, 7, seq, 0);
            assert!((0.0..1.0).contains(&s));
            sum += s;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn loss_frequency_tracks_probability() {
        let n = 20_000;
        let p = 0.3;
        let losses = (0..n).filter(|&seq| unit_sample(9, 1, seq, 0) < p).count();
        let freq = losses as f64 / n as f64;
        assert!((freq - p).abs() < 0.02, "freq {freq}");
    }

    /// The integer comparison the replay memo uses is the float
    /// comparison `propagate` uses, at every rate that has a say:
    /// nothing, everything, out-of-range and NaN rates, and the `f64`
    /// neighbours of actual draws on both sides.
    #[test]
    fn integer_threshold_agrees_with_the_float_comparison() {
        let agree = |loss: f64, seq: u64| {
            let bits = draw_bits(edge_prefix(3, 5), seq, 0);
            assert_eq!(
                bits >= survival_threshold(loss),
                unit_sample(3, 5, seq, 0) >= loss,
                "loss {loss:e}, seq {seq}, draw {bits}"
            );
        };
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let next_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        for seq in 0..2_000 {
            let draw = unit_sample(3, 5, seq, 0);
            assert!(draw > 0.0, "the neighbours below are taken of a positive draw");
            for loss in [draw, next_up(draw), next_down(draw), draw / 2.0, (draw + 1.0) / 2.0] {
                agree(loss, seq);
            }
            for loss in [0.0, -0.0, 2e-4, 0.5, 1.0, next_down(1.0), next_up(1.0)] {
                agree(loss, seq);
            }
            for loss in [-1.0, 7.5, f64::MIN_POSITIVE, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                agree(loss, seq);
            }
        }
        assert_eq!(survival_threshold(0.0), 0);
        assert_eq!(survival_threshold(1.0), 1 << 53);
        assert_eq!(survival_threshold(f64::NAN), u64::MAX);
    }
}
