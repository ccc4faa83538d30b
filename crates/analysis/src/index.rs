//! Sanctioned integer index conversions (tidy rule `cast`).
//!
//! The lexical `cast` rule of `gmf-tidy` bans bare `as` numeric casts in
//! this crate because float->int `as` saturates silently and int->int `as`
//! truncates silently.  Every index conversion the dense analysis core
//! needs funnels through these four helpers instead: widenings are
//! lossless by construction, narrowings are checked (`cx`) or
//! debug-asserted in range (`qx`, lossless on the 64-bit targets we
//! support).

/// Widen a `u32` arena / pair / flow index into a `usize` slice index.
#[inline(always)]
pub(crate) fn ux(i: u32) -> usize {
    i as usize // tidy-allow: cast u32 -> usize widening is lossless on all supported targets
}

/// Narrow a `u64` instance counter `q` into a `usize` memo index.
#[inline(always)]
pub(crate) fn qx(q: u64) -> usize {
    debug_assert!(
        u64::try_from(usize::MAX).map_or(true, |max| q <= max),
        "instance index {q} exceeds usize range"
    );
    q as usize // tidy-allow: cast u64 -> usize narrowing is debug-asserted in range above
}

/// Widen a `usize` loop counter into a `u64` instance index `q`.
#[inline(always)]
pub(crate) fn qw(i: usize) -> u64 {
    i as u64 // tidy-allow: cast usize -> u64 widening is lossless on all supported targets
}

/// Narrow a `usize` count or index into the dense `u32` index space of the
/// analysis plan (pairs, terms, demands, hops, arena slots).
#[inline]
pub(crate) fn cx(i: usize) -> u32 {
    // tidy-allow: unwrap invariant: plan sizes fit the u32 index space
    u32::try_from(i).expect("plan sizes fit the u32 index space")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        assert_eq!(ux(7), 7usize);
        assert_eq!(qx(9), 9usize);
        assert_eq!(qw(11), 11u64);
        assert_eq!(cx(13), 13u32);
        assert_eq!(ux(cx(usize::from(u16::MAX))), usize::from(u16::MAX));
    }
}
