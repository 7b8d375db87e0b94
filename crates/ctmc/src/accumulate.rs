//! Dense sparse-vector accumulator shared by elimination and lumping.

/// Sums values per index in a dense buffer, remembering which indices
/// were touched so that draining costs only the touched entries.
///
/// Each index's sum is accumulated in call order starting from `0.0` —
/// exactly what `*map.entry(i).or_insert(0.0) += x` computes — so results
/// are bit-identical to a hash-map accumulator, without allocating per
/// row.
#[derive(Debug)]
pub(crate) struct Accumulator {
    sum: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<usize>,
}

impl Accumulator {
    /// An accumulator over indices `0..n`.
    pub(crate) fn new(n: usize) -> Accumulator {
        Accumulator { sum: vec![0.0; n], seen: vec![false; n], touched: Vec::new() }
    }

    /// Adds `x` to the sum at index `i`.
    pub(crate) fn add(&mut self, i: usize, x: f64) {
        if !self.seen[i] {
            self.seen[i] = true;
            self.touched.push(i);
        }
        self.sum[i] += x;
    }

    /// Hands the touched `(index, sum)` pairs to `f` in index order and
    /// resets the accumulator.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(usize, f64)) {
        self.touched.sort_unstable();
        for &i in &self.touched {
            f(i, self.sum[i]);
            self.sum[i] = 0.0;
            self.seen[i] = false;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn matches_hash_map_accumulation_bitwise() {
        let adds = [(3, 0.1), (1, 1e-17), (3, 0.2), (1, 1.0), (0, 0.3), (3, 1e16)];
        let mut map: HashMap<usize, f64> = HashMap::new();
        let mut acc = Accumulator::new(4);
        for &(i, x) in &adds {
            *map.entry(i).or_insert(0.0) += x;
            acc.add(i, x);
        }
        let mut want: Vec<(usize, f64)> = map.into_iter().collect();
        want.sort_by_key(|&(i, _)| i);
        let mut got = Vec::new();
        acc.drain(|i, x| got.push((i, x)));
        assert_eq!(
            got.iter().map(|&(i, x)| (i, x.to_bits())).collect::<Vec<_>>(),
            want.iter().map(|&(i, x)| (i, x.to_bits())).collect::<Vec<_>>()
        );
        // Reset: the next round starts from zero.
        acc.add(3, 2.0);
        got.clear();
        acc.drain(|i, x| got.push((i, x)));
        assert_eq!(got, vec![(3, 2.0)]);
    }
}
