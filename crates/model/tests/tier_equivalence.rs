//! `Molecule` lattice API against naive reference loops, across random
//! arities below, at and above the inline cap (inline vs spill
//! representations), with counts biased toward the 0x7FFF/0x8000/0xFFFF
//! saturation lanes. Every lattice operation the run-time system plans
//! with must agree bit-for-bit with the obvious per-component formula.

use proptest::prelude::*;
use rispp_model::{Molecule, INLINE_LANES};

/// Allocating reference formulations of the lattice operations: one
/// iterator chain per operation, nothing shared with the library.
mod naive {
    use std::cmp::Ordering;

    pub fn union(a: &[u16], b: &[u16]) -> Vec<u16> {
        a.iter().zip(b).map(|(&x, &y)| x.max(y)).collect()
    }

    pub fn intersect(a: &[u16], b: &[u16]) -> Vec<u16> {
        a.iter().zip(b).map(|(&x, &y)| x.min(y)).collect()
    }

    /// Component-wise saturating `o − a` (the residual `a ⊖ o`).
    pub fn residual(a: &[u16], o: &[u16]) -> Vec<u16> {
        a.iter().zip(o).map(|(&x, &y)| y.saturating_sub(x)).collect()
    }

    pub fn saturating_add(a: &[u16], b: &[u16]) -> Vec<u16> {
        a.iter().zip(b).map(|(&x, &y)| x.saturating_add(y)).collect()
    }

    pub fn total(a: &[u16]) -> u64 {
        a.iter().map(|&c| u64::from(c)).sum()
    }

    pub fn is_subset(a: &[u16], b: &[u16]) -> bool {
        a.iter().zip(b).all(|(&x, &y)| x <= y)
    }

    pub fn partial_cmp(a: &[u16], b: &[u16]) -> Option<Ordering> {
        let le = is_subset(a, b);
        let ge = is_subset(b, a);
        match (le, ge) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }
}

/// Arities covering small universes (the H.264 library has 11 Atom types),
/// the power-of-two widths an autovectorized loop splits at, the inline
/// cap boundary and the spill path.
fn arity() -> impl Strategy<Value = usize> {
    const TABLE: [usize; 15] = [
        1,
        2,
        3,
        4,
        5,
        7,
        8,
        9,
        15,
        16,
        17,
        INLINE_LANES - 1,
        INLINE_LANES,
        INLINE_LANES + 1,
        2 * INLINE_LANES + 5,
    ];
    (0usize..TABLE.len()).prop_map(|sel| TABLE[sel])
}

/// Counts biased toward the kernel edge cases: lane extremes around the
/// per-lane sign bit and saturation boundaries, plus small values.
fn count() -> impl Strategy<Value = u16> {
    (0u8..9, any::<u16>()).prop_map(|(sel, raw)| match sel {
        0..=3 => raw % 8,
        4 | 5 => raw,
        6 => 0x7FFF,
        7 => 0x8000,
        _ => u16::MAX,
    })
}

/// A pair of equal-arity count vectors, correlated so that dominated /
/// dominating / incomparable pairs all occur with useful frequency.
fn pair() -> impl Strategy<Value = (Vec<u16>, Vec<u16>)> {
    arity().prop_flat_map(|n| {
        (
            proptest::collection::vec(count(), n),
            proptest::collection::vec(count(), n),
            any::<bool>(),
        )
            .prop_map(|(a, b, dominate)| {
                if dominate {
                    // Make b dominate a component-wise so Less/Equal
                    // orderings are generated, not just None.
                    let b: Vec<u16> = a
                        .iter()
                        .zip(&b)
                        .map(|(&x, &y)| x.saturating_add(y % 4))
                        .collect();
                    (a, b)
                } else {
                    (a, b)
                }
            })
    })
}

proptest! {
    #[test]
    fn union_matches_naive((a, b) in pair()) {
        let (ma, mb) = (Molecule::from_counts(a.clone()), Molecule::from_counts(b.clone()));
        let expected = naive::union(&a, &b);
        prop_assert_eq!(ma.union(&mb).counts(), &expected[..]);
        // The in-place and write-into forms are the same fold.
        let mut acc = ma.clone();
        acc.union_assign(&mb);
        prop_assert_eq!(acc.counts(), &expected[..]);
        let mut out = Molecule::zero(ma.arity());
        ma.union_into(&mb, &mut out);
        prop_assert_eq!(out.counts(), &expected[..]);
    }

    #[test]
    fn intersect_matches_naive((a, b) in pair()) {
        let (ma, mb) = (Molecule::from_counts(a.clone()), Molecule::from_counts(b.clone()));
        prop_assert_eq!(ma.intersect(&mb).counts(), &naive::intersect(&a, &b)[..]);
    }

    #[test]
    fn residual_matches_naive((a, b) in pair()) {
        let (ma, mb) = (Molecule::from_counts(a.clone()), Molecule::from_counts(b.clone()));
        prop_assert_eq!(ma.residual(&mb).counts(), &naive::residual(&a, &b)[..]);
    }

    #[test]
    fn saturating_add_matches_naive((a, b) in pair()) {
        let (ma, mb) = (Molecule::from_counts(a.clone()), Molecule::from_counts(b.clone()));
        prop_assert_eq!(ma.saturating_add(&mb).counts(), &naive::saturating_add(&a, &b)[..]);
    }

    #[test]
    fn residual_atoms_matches_naive((a, b) in pair()) {
        let (ma, mb) = (Molecule::from_counts(a.clone()), Molecule::from_counts(b.clone()));
        prop_assert_eq!(
            u64::from(ma.residual_atoms(&mb)),
            naive::total(&naive::residual(&a, &b))
        );
    }

    #[test]
    fn union_atoms_matches_naive((a, b) in pair()) {
        let (ma, mb) = (Molecule::from_counts(a.clone()), Molecule::from_counts(b.clone()));
        prop_assert_eq!(u64::from(ma.union_atoms(&mb)), naive::total(&naive::union(&a, &b)));
    }

    #[test]
    fn nonzero_mask_marks_exactly_the_positive_lanes(
        a in proptest::collection::vec(count(), 1..65usize)
    ) {
        let mask = Molecule::from_counts(a.clone()).nonzero_mask();
        for (i, &c) in a.iter().enumerate() {
            prop_assert_eq!(mask >> i & 1 == 1, c > 0);
        }
        if a.len() < 64 {
            prop_assert_eq!(mask >> a.len(), 0);
        }
    }

    #[test]
    fn total_atoms_matches_naive((a, _) in pair()) {
        let ma = Molecule::from_counts(a.clone());
        prop_assert_eq!(u64::from(ma.total_atoms()), naive::total(&a));
        prop_assert_eq!(ma.is_zero(), naive::total(&a) == 0);
    }

    #[test]
    fn partial_cmp_matches_naive((a, b) in pair()) {
        let (ma, mb) = (Molecule::from_counts(a.clone()), Molecule::from_counts(b.clone()));
        prop_assert_eq!(ma.partial_cmp(&mb), naive::partial_cmp(&a, &b));
    }

    #[test]
    fn is_subset_matches_naive((a, b) in pair()) {
        let (ma, mb) = (Molecule::from_counts(a.clone()), Molecule::from_counts(b.clone()));
        prop_assert_eq!(ma.is_subset(&mb), naive::is_subset(&a, &b));
        prop_assert_eq!(mb.is_subset(&ma), naive::is_subset(&b, &a));
    }

    /// Mixed inline/spill operands: same logical vector must behave
    /// identically regardless of representation, and cross-arity
    /// comparisons are incomparable.
    #[test]
    fn representations_are_canonical(a in proptest::collection::vec(count(), 1..INLINE_LANES + 1)) {
        let inline = Molecule::from_counts(a.clone());
        // Force the same logical prefix through the spill path by
        // extending past the cap, then compare the shared prefix ops.
        let mut extended = a.clone();
        extended.resize(INLINE_LANES + 4, 0);
        let spill = Molecule::from_counts(extended);
        prop_assert_eq!(inline.counts(), &spill.counts()[..a.len()]);
        // Different arity ⇒ incomparable, never equal.
        prop_assert_eq!(inline.partial_cmp(&spill), None);
        prop_assert!(!inline.is_subset(&spill));
        prop_assert!(inline.checked_union(&spill).is_err());
    }
}
