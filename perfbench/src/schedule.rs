//! Seeded randomness: the request order of every pass and the edits made
//! before each warm resubmission. The same seed gives the same schedule.

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The order in which pass `pass` visits `inputs` inputs: a seeded
/// permutation, so every input is measured once per pass and machine
/// drift falls on all inputs alike.
pub fn pass_order(seed: u64, pass: usize, inputs: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..inputs).collect();
    Rng::new(seed, pass as u64).shuffle(&mut order);
    order
}

/// The random stream behind the edit of `input` in pass `pass`.
pub fn edit_rng(seed: u64, pass: usize, input: usize) -> Rng {
    Rng::new(seed ^ 0x5eed_ed17, ((pass as u64) << 8) | input as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order() {
        for pass in 0..20 {
            assert_eq!(pass_order(7, pass, 5), pass_order(7, pass, 5));
            let mut sorted = pass_order(7, pass, 5);
            sorted.sort();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
        let orders = |seed| (0..20).map(|p| pass_order(seed, p, 5)).collect::<Vec<_>>();
        assert_ne!(orders(7), orders(8));
        // The passes of one run do not all repeat one order.
        let first = pass_order(7, 0, 5);
        assert!((1..20).any(|p| pass_order(7, p, 5) != first));
    }

    #[test]
    fn edit_streams_are_seeded() {
        let draw = |seed, pass, input| {
            let mut rng = edit_rng(seed, pass, input);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2, 3), draw(1, 2, 3));
        assert_ne!(draw(1, 2, 3), draw(1, 2, 4));
        assert_ne!(draw(1, 2, 3), draw(1, 3, 3));
        assert_ne!(draw(1, 2, 3), draw(2, 2, 3));
    }
}
