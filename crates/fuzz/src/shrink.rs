//! Hand-rolled, deterministic counterexample shrinking.
//!
//! The workspace's one shrinker, so a failing fuzz case never hands
//! you an unminimized blob. Two passes: [`shrink_elements`] is a
//! ddmin-style delete-chunk pass over a sequence (drop half, then
//! quarters, … then single elements, looping to a fixed point), and
//! [`shrink_scalar`] halves a number toward a floor. Both are fully deterministic — given the same failing
//! input and the same oracle they always land on the same minimum — so
//! a one-line `rv-nvdla fuzz <target> --seed S` command re-derives the
//! exact minimized repro from nothing but the seed.

/// Delete-chunk (ddmin-style) minimization of a failing sequence.
///
/// `fails` is the oracle: `true` means "this candidate still exhibits
/// the failure". The input must fail; the result is a subsequence that
/// still fails and from which no single contiguous chunk (of any size
/// this pass tried, down to one element) can be removed without losing
/// the failure — a local minimum, which in practice is the global one
/// for order-independent bugs.
pub fn shrink_elements<T, F>(mut cur: Vec<T>, fails: F) -> Vec<T>
where
    T: Clone,
    F: Fn(&[T]) -> bool,
{
    loop {
        let before = cur.len();
        let mut chunk = (cur.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start < cur.len() {
                let end = (start + chunk).min(cur.len());
                let mut cand = Vec::with_capacity(cur.len() - (end - start));
                cand.extend_from_slice(&cur[..start]);
                cand.extend_from_slice(&cur[end..]);
                if fails(&cand) {
                    // Keep the deletion and retry the same position —
                    // the tail shifted left into it.
                    cur = cand;
                } else {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        // A full sweep at every chunk size removed nothing: fixed point.
        if cur.len() == before {
            break;
        }
    }
    cur
}

/// Minimize a failing scalar toward `floor` by bisection.
///
/// Requires `fails(orig)`; returns the smallest value in
/// `floor..=orig` the bisection can prove failing (exactly `floor`
/// when `fails(floor)`). The oracle need not be monotonic — the result
/// is then merely a deterministic local minimum, which is all a repro
/// needs.
pub fn shrink_scalar<F>(orig: u64, floor: u64, fails: F) -> u64
where
    F: Fn(u64) -> bool,
{
    if orig <= floor {
        return orig;
    }
    if fails(floor) {
        return floor;
    }
    // Invariant: lo passes, hi fails.
    let (mut lo, mut hi) = (floor, orig);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fails(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic pair bug: fails iff the list holds both an even and
    /// an odd number. Minimal failing input: exactly two elements.
    #[test]
    fn delete_chunk_finds_the_two_element_core() {
        let input: Vec<u32> = (0..100).collect();
        let fails = |xs: &[u32]| xs.iter().any(|x| x % 2 == 0) && xs.iter().any(|x| x % 2 == 1);
        assert!(fails(&input));
        let min = shrink_elements(input, fails);
        assert_eq!(min.len(), 2, "got {min:?}");
        assert!(fails(&min));
    }

    /// A single guilty element is always isolated, wherever it hides.
    #[test]
    fn delete_chunk_isolates_a_single_element() {
        for pos in [0usize, 1, 49, 98, 99] {
            let mut input = vec![0u32; 100];
            input[pos] = 7;
            let min = shrink_elements(input, |xs| xs.contains(&7));
            assert_eq!(min, vec![7], "guilty element at {pos}");
        }
    }

    /// Deterministic: same input + same oracle = same minimum, every
    /// time (the repro-from-seed contract rests on this).
    #[test]
    fn shrinking_is_deterministic() {
        let input: Vec<u32> = (0..64).rev().collect();
        let fails = |xs: &[u32]| xs.iter().sum::<u32>() >= 100;
        let a = shrink_elements(input.clone(), fails);
        let b = shrink_elements(input, fails);
        assert_eq!(a, b);
        assert!(fails(&a));
    }

    #[test]
    fn scalar_bisects_to_the_threshold() {
        // Monotonic oracle: fails at >= 37.
        assert_eq!(shrink_scalar(1_000_000, 1, |v| v >= 37), 37);
        // Floor itself failing returns the floor.
        assert_eq!(shrink_scalar(500, 2, |v| v >= 1), 2);
        // Already at the floor: untouched.
        assert_eq!(shrink_scalar(3, 3, |_| true), 3);
    }
}
