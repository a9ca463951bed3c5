//! Property tests for the one definition of a gaussian draw (PR 18):
//! [`Rng::fill_gaussian`] must be `out.len()` calls of [`Rng::gaussian`]
//! — the same values by `to_bits`, and the same generator state after —
//! for any seed, any length on either side of the fill's chunk (16 draws
//! since PR 20, 64 before; multiples of both are below), any
//! raw or uniform draws taken around the fill, and any way of splitting
//! one fill into two. The diffusion kernel's bit-identity suites compare
//! two paths that both fill; this is what ties the fill to the scalar
//! draw that `text::expand` and the recorded stream golden use.

use proptest::prelude::*;
use sww_genai::rng::Rng;

/// Lengths at and around the chunk boundaries, or anything up to 300.
fn lengths() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..=300,
        prop_oneof![
            Just(0usize),
            Just(1),
            Just(15),
            Just(16),
            Just(17),
            Just(63),
            Just(64),
            Just(65),
            Just(127),
            Just(128),
            Just(129)
        ],
    ]
}

fn bits(draws: &[f64]) -> Vec<u64> {
    draws.iter().map(|g| g.to_bits()).collect()
}

/// Other draws on the same generator: `n` of them, raw and uniform
/// alternating, so a fill is checked from and into arbitrary states.
fn interleave(rng: &mut Rng, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| match i % 2 {
            0 => rng.next_u64(),
            _ => rng.uniform().to_bits(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A fill is the scalar draws, and leaves the state they leave.
    #[test]
    fn fill_equals_repeated_scalar_draws(
        seed in any::<u64>(),
        len in lengths(),
        before in 0usize..5,
        after in 1usize..5,
    ) {
        let mut filled = Rng::new(seed);
        interleave(&mut filled, before);
        let mut scalar = filled.clone();

        let mut out = vec![f64::NAN; len];
        filled.fill_gaussian(&mut out);
        let expected: Vec<f64> = (0..len).map(|_| scalar.gaussian()).collect();
        prop_assert_eq!(bits(&out), bits(&expected));

        prop_assert_eq!(interleave(&mut filled, after), interleave(&mut scalar, after));
        prop_assert_eq!(filled.gaussian().to_bits(), scalar.gaussian().to_bits());
    }

    /// `fill(a + b)` is `fill(a)` then `fill(b)`: where a caller cuts its
    /// planes cannot matter.
    #[test]
    fn split_fills_equal_one_fill(seed in any::<u64>(), a in lengths(), b in lengths()) {
        let mut whole = Rng::new(seed);
        let mut parts = whole.clone();
        let mut one = vec![0.0; a + b];
        whole.fill_gaussian(&mut one);
        let mut two = vec![0.0; a + b];
        let (head, tail) = two.split_at_mut(a);
        parts.fill_gaussian(head);
        parts.fill_gaussian(tail);
        prop_assert_eq!(bits(&one), bits(&two));
        prop_assert_eq!(whole.next_u64(), parts.next_u64());
    }
}
