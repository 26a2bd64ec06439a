//! SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the workspace's one
//! copy of the generator, in its two forms.
//!
//! [`mix`] is a pure, well-mixed 64-bit hash: the playback simulator
//! keys every loss draw on it, and the graph cache keys its receiver
//! digests and edge tie-breaks on it. [`next`] steps a state through
//! the same sequence, for the seeded streams of the fault plan, the
//! chaos schedule and the emulation harness. Every value they produce
//! is pinned by a golden or a wire hash somewhere, so neither form may
//! change.

/// The golden-ratio increment between successive states.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output for the state after `x`: a pure hash.
#[inline]
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advances `state` one step and returns its draw.
#[inline]
pub fn next(state: &mut u64) -> u64 {
    let draw = mix(*state);
    *state = state.wrapping_add(GAMMA);
    draw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_forms_are_the_reference_stream() {
        // The first outputs of SplitMix64 seeded with 0, as published
        // with the algorithm.
        let mut state = 0;
        let draws = [next(&mut state), next(&mut state), next(&mut state)];
        assert_eq!(draws, [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4, 0x06C4_5D18_8009_454F]);
        assert_eq!(state, GAMMA.wrapping_mul(3));
        assert_eq!(mix(GAMMA), draws[1]);
    }
}
