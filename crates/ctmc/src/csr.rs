//! Compressed-sparse-row edge storage shared by the IMC and the CTMC.

use crate::error::CtmcError;
use std::mem::size_of;
use std::ops::Range;

/// Edge rows in compressed-sparse-row form: row `s` is `end[s - 1]..end[s]`
/// (from 0) of `targets` and, if weighted, of `rates`: 4 B per row, 4 B per
/// unweighted and 12 B per weighted edge.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Rows {
    end: Vec<u32>,
    targets: Vec<u32>,
    rates: Vec<f64>,
}

type Edge = (usize, Option<f64>);

/// The row end after `edges` edges, refused past `u32::MAX`.
fn row_end(edges: usize) -> Result<u32, CtmcError> {
    u32::try_from(edges)
        .map_err(|_| CtmcError::TransitionLimitExceeded { limit: u32::MAX as usize })
}

impl Rows {
    /// Builds rows from `(target, rate)` lists (rate `None`: unweighted); panics past `u32`.
    pub(crate) fn from_lists(rows: impl Iterator<Item = impl IntoIterator<Item = Edge>>) -> Rows {
        let mut r = Rows::default();
        for row in rows {
            row.into_iter().for_each(|(t, rate)| r.push(u32::try_from(t).expect("u32 ids"), rate));
            r.end_row().expect("edge counts fit in u32");
        }
        r
    }

    /// Number of closed rows.
    pub(crate) fn len(&self) -> usize {
        self.end.len()
    }

    /// Number of edges.
    pub(crate) fn edges(&self) -> usize {
        self.targets.len()
    }

    fn span(&self, s: usize) -> Range<usize> {
        s.checked_sub(1).map_or(0, |p| self.end[p] as usize)..self.end[s] as usize
    }

    /// The targets of row `s`.
    pub(crate) fn targets(&self, s: usize) -> &[u32] {
        &self.targets[self.span(s)]
    }

    /// The `(target, rate)` edges of weighted row `s`.
    pub(crate) fn row(&self, s: usize) -> impl ExactSizeIterator<Item = (usize, f64)> + '_ {
        let span = self.span(s);
        self.targets[span.clone()].iter().map(|&t| t as usize).zip(self.rates[span].iter().copied())
    }

    /// Appends an edge to the open row, with its rate in weighted rows.
    pub(crate) fn push(&mut self, target: u32, rate: Option<f64>) {
        self.targets.push(target);
        self.rates.extend(rate);
    }

    /// Closes the open row.
    pub(crate) fn end_row(&mut self) -> Result<(), CtmcError> {
        self.end.push(row_end(self.edges())?);
        Ok(())
    }

    /// Reserves exact room for `rows` more rows and `edges` more weighted
    /// edges; pushing past it grows the arrays as usual.
    pub(crate) fn reserve(&mut self, rows: usize, edges: usize) {
        self.end.reserve_exact(rows);
        self.targets.reserve_exact(edges);
        self.rates.reserve_exact(edges);
    }

    /// Bytes allocated by the arrays (their capacities).
    pub(crate) fn allocated_bytes(&self) -> usize {
        (self.end.capacity() + self.targets.capacity()) * size_of::<u32>()
            + self.rates.capacity() * size_of::<f64>()
    }

    /// Releases the arrays' growth slack.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.end.shrink_to_fit();
        self.targets.shrink_to_fit();
        self.rates.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_runs_of_the_flat_arrays() {
        let lists: [&[_]; 3] = [&[(2, 0.25)], &[], &[(2, 0.5), (0, 1.5)]];
        let r = Rows::from_lists(lists.iter().map(|l| l.iter().map(|&(t, q)| (t, Some(q)))));
        assert_eq!((r.len(), r.edges()), (3, 3));
        assert_eq!(r.row(0).collect::<Vec<_>>(), [(2, 0.25)]);
        assert_eq!(r.row(1).len(), 0);
        assert_eq!(r.row(2).collect::<Vec<_>>(), [(2, 0.5), (0, 1.5)]);
        assert_eq!(r.targets(2), [2, 0]);
    }

    #[test]
    fn allocated_bytes_counts_capacities() {
        let mut r = Rows::default();
        assert_eq!(r.allocated_bytes(), 0);
        r.end.reserve_exact(3);
        r.targets.reserve_exact(2);
        r.rates.reserve_exact(5);
        assert_eq!(r.allocated_bytes(), 4 * 3 + 4 * 2 + 8 * 5);
        r.shrink_to_fit();
        assert_eq!(r.allocated_bytes(), 0);
        r.reserve(3, 2);
        assert!(r.allocated_bytes() >= 4 * 3 + (4 + 8) * 2);
    }

    #[test]
    fn row_ends_past_u32_are_refused() {
        assert_eq!(row_end(u32::MAX as usize), Ok(u32::MAX));
        let past = row_end(u32::MAX as usize + 1);
        assert!(matches!(past, Err(CtmcError::TransitionLimitExceeded { .. })));
    }
}
