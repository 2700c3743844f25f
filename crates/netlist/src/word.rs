//! Wide pattern words for the parallel-pattern simulators.
//!
//! The classic PPSFP trick packs 64 independent patterns into one `u64`
//! per net. A [`PatternWord`] generalizes the word to `[u64; N]` so one
//! evaluation carries 64·N patterns: `N = 1/4/8` gives 64/256/512
//! patterns per frame. All lane operations are plain bitwise ops the
//! compiler auto-vectorizes; no platform intrinsics are needed, so the
//! widths work identically everywhere.
//!
//! Lanes are fully independent: no operation ever mixes bits between
//! lane positions, which is what makes the tail-lane masking in
//! [`crate::fsim`] sound — a detection in a masked (padding) lane can
//! never have been caused by a real pattern.

use std::fmt;

/// A pattern word: `N` 64-bit lanes, 64·N parallel patterns.
pub type PatternWord<const N: usize> = [u64; N];

/// The selectable pattern-word widths of the SoA engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WordWidth {
    /// One lane — 64 patterns per frame (the historical width).
    #[default]
    W64,
    /// Four lanes — 256 patterns per frame.
    W256,
    /// Eight lanes — 512 patterns per frame.
    W512,
}

impl WordWidth {
    /// Every width, narrowest first.
    pub const ALL: [WordWidth; 3] = [WordWidth::W64, WordWidth::W256, WordWidth::W512];

    /// Number of `u64` lanes in a word of this width.
    pub fn lanes(self) -> usize {
        match self {
            WordWidth::W64 => 1,
            WordWidth::W256 => 4,
            WordWidth::W512 => 8,
        }
    }

    /// Patterns carried per frame at this width.
    pub fn patterns(self) -> usize {
        self.lanes() * 64
    }
}

impl fmt::Display for WordWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.patterns())
    }
}

/// The all-zeros word.
#[inline]
pub fn zeros<const N: usize>() -> PatternWord<N> {
    [0; N]
}

/// The all-ones word.
#[inline]
pub fn ones<const N: usize>() -> PatternWord<N> {
    [u64::MAX; N]
}

/// Broadcasts one bit across every lane.
#[inline]
pub fn splat<const N: usize>(bit: bool) -> PatternWord<N> {
    if bit {
        ones()
    } else {
        zeros()
    }
}

/// Lanewise NOT.
#[inline]
pub fn not<const N: usize>(a: PatternWord<N>) -> PatternWord<N> {
    let mut out = [0; N];
    for i in 0..N {
        out[i] = !a[i];
    }
    out
}

/// Lanewise AND.
#[inline]
pub fn and<const N: usize>(a: PatternWord<N>, b: PatternWord<N>) -> PatternWord<N> {
    let mut out = [0; N];
    for i in 0..N {
        out[i] = a[i] & b[i];
    }
    out
}

/// Lanewise OR.
#[inline]
pub fn or<const N: usize>(a: PatternWord<N>, b: PatternWord<N>) -> PatternWord<N> {
    let mut out = [0; N];
    for i in 0..N {
        out[i] = a[i] | b[i];
    }
    out
}

/// Lanewise XOR.
#[inline]
pub fn xor<const N: usize>(a: PatternWord<N>, b: PatternWord<N>) -> PatternWord<N> {
    let mut out = [0; N];
    for i in 0..N {
        out[i] = a[i] ^ b[i];
    }
    out
}

/// Lanewise 2:1 mux: `sel ? a : b`.
#[inline]
pub fn mux<const N: usize>(
    sel: PatternWord<N>,
    a: PatternWord<N>,
    b: PatternWord<N>,
) -> PatternWord<N> {
    let mut out = [0; N];
    for i in 0..N {
        out[i] = (sel[i] & a[i]) | (!sel[i] & b[i]);
    }
    out
}

/// Whether `a` and `b` differ in any lane bit at all (unmasked).
#[inline]
pub fn differs<const N: usize>(a: &PatternWord<N>, b: &PatternWord<N>) -> bool {
    a != b
}

/// Whether `a` and `b` differ in any bit the mask keeps.
#[inline]
pub fn masked_differs<const N: usize>(
    a: &PatternWord<N>,
    b: &PatternWord<N>,
    mask: &PatternWord<N>,
) -> bool {
    for i in 0..N {
        if (a[i] ^ b[i]) & mask[i] != 0 {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_enumerate_lanes_and_patterns() {
        assert_eq!(WordWidth::W64.lanes(), 1);
        assert_eq!(WordWidth::W256.lanes(), 4);
        assert_eq!(WordWidth::W512.lanes(), 8);
        for w in WordWidth::ALL {
            assert_eq!(w.patterns(), w.lanes() * 64);
        }
        assert_eq!(WordWidth::default(), WordWidth::W64);
    }

    #[test]
    fn lane_ops_match_u64_semantics() {
        let a: PatternWord<4> = [0xF0, 0x0F, u64::MAX, 0];
        let b: PatternWord<4> = [0xFF, 0xFF, 0, 0];
        assert_eq!(and(a, b), [0xF0, 0x0F, 0, 0]);
        assert_eq!(or(a, b), [0xFF, 0xFF, u64::MAX, 0]);
        assert_eq!(xor(a, b), [0x0F, 0xF0, u64::MAX, 0]);
        assert_eq!(not(zeros::<4>()), ones::<4>());
        assert_eq!(splat::<4>(true), ones::<4>());
        assert_eq!(splat::<4>(false), zeros::<4>());
        let s: PatternWord<4> = [u64::MAX, 0, 0xFF, 0];
        assert_eq!(mux(s, a, b), [0xF0, 0xFF, 0xFF, 0]);
    }

    #[test]
    fn masked_diff_ignores_masked_lanes() {
        let a: PatternWord<2> = [1, 2];
        let b: PatternWord<2> = [1, 3];
        assert!(differs(&a, &b));
        assert!(masked_differs(&a, &b, &ones::<2>()));
        // The differing bit sits in lane 1; masking it out hides it.
        assert!(!masked_differs(&a, &b, &[u64::MAX, 0]));
        assert!(!masked_differs(&a, &b, &[u64::MAX, !2 & !1]));
    }
}
