"""Equal-frequency discretization of ordered attributes.

Sec. 5: *"To allow for the induction of decision trees for numerical class
attributes, these attributes are discretized into equal frequency bins
before the induction process."* This module provides that discretizer;
the multiple classification / *regression* approach uses it to turn a
numeric (or date) class attribute into a categorical one, and the bin
*representative* (the median of the training values that fell into the
bin) is what correction proposals substitute for a suspicious value.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["EqualFrequencyDiscretizer"]


class EqualFrequencyDiscretizer:
    """Equal-frequency binning fitted on training values (numeric view).

    Bins are represented by their index ``0 … n_bins-1``. Boundaries are
    half-open: bin *i* covers ``[cut[i-1], cut[i])`` with the first/last
    bins unbounded, so unseen values outside the training range still map
    to a bin. Duplicate cut points (heavily tied data) collapse bins; the
    effective bin count is :attr:`n_bins`.
    """

    def __init__(self, n_bins: int = 10):
        if n_bins < 2:
            raise ValueError("n_bins must be at least 2")
        self.requested_bins = n_bins
        self._cuts: Optional[np.ndarray] = None
        self._representatives: Optional[np.ndarray] = None

    # -- fitting ---------------------------------------------------------------

    def fit(self, values: Sequence[float]) -> "EqualFrequencyDiscretizer":
        """Fit cut points on the non-null training *values*."""
        if isinstance(values, np.ndarray):
            # column-path fast lane: bulk NaN filter (mask indexing copies,
            # so the in-place sort below cannot touch the caller's array)
            data = values[~np.isnan(values)].astype(np.float64, copy=False)
        else:
            data = np.asarray(
                [v for v in values if v is not None and not np.isnan(v)], dtype=float
            )
        if data.size == 0:
            raise ValueError("cannot fit a discretizer on no values")
        data.sort()
        quantiles = np.linspace(0.0, 1.0, self.requested_bins + 1)[1:-1]
        # "lower" keeps cut points on observed values, so heavily tied data
        # collapses bins instead of fabricating interpolated boundaries
        cuts = np.unique(np.quantile(data, quantiles, method="lower"))
        self._cuts = cuts
        # On sorted data each bin is a contiguous slice: bin i holds the
        # values v with cuts[i-1] <= v < cuts[i], i.e. rows
        # [searchsorted(data, cuts[i-1]), searchsorted(data, cuts[i])) —
        # one O(bins log n) pass instead of re-assigning all rows per bin.
        starts = np.searchsorted(data, cuts, side="left")
        bounds = np.concatenate(([0], starts, [data.size]))
        representatives = []
        for bin_index in range(len(cuts) + 1):
            members = data[bounds[bin_index] : bounds[bin_index + 1]]
            if members.size:
                representatives.append(float(np.median(members)))
            else:  # empty interior bin after deduplication — use a boundary
                boundary = cuts[min(bin_index, len(cuts) - 1)]
                representatives.append(float(boundary))
        self._representatives = np.asarray(representatives, dtype=float)
        return self

    @staticmethod
    def _assign(data: np.ndarray, cuts: np.ndarray) -> np.ndarray:
        return np.searchsorted(cuts, data, side="right")

    def _require_fitted(self) -> None:
        if self._cuts is None:
            raise RuntimeError("discretizer is not fitted")

    # -- queries ----------------------------------------------------------------

    @property
    def n_bins(self) -> int:
        """Effective number of bins (≤ requested, after tie collapsing)."""
        self._require_fitted()
        return len(self._cuts) + 1  # type: ignore[arg-type]

    @property
    def cut_points(self) -> tuple[float, ...]:
        self._require_fitted()
        return tuple(float(c) for c in self._cuts)  # type: ignore[union-attr]

    def transform_value(self, value: float) -> int:
        """Bin index of one (non-null) numeric-view value."""
        self._require_fitted()
        return int(np.searchsorted(self._cuts, value, side="right"))

    def transform(self, values: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`transform_value`."""
        self._require_fitted()
        return self._assign(np.asarray(values, dtype=float), self._cuts)

    def representative(self, bin_index: int) -> float:
        """Median training value of the bin — the correction proposal."""
        self._require_fitted()
        if not 0 <= bin_index < self.n_bins:
            raise IndexError(f"bin index {bin_index} out of range")
        return float(self._representatives[bin_index])  # type: ignore[index]

    def bin_label(self, bin_index: int) -> str:
        """Human-readable half-open interval label of the bin."""
        self._require_fitted()
        cuts = self._cuts
        if not 0 <= bin_index < self.n_bins:
            raise IndexError(f"bin index {bin_index} out of range")
        low = "-inf" if bin_index == 0 else f"{float(cuts[bin_index - 1]):g}"  # type: ignore[index]
        high = "inf" if bin_index == self.n_bins - 1 else f"{float(cuts[bin_index]):g}"  # type: ignore[index]
        return f"[{low}, {high})"

    # -- persistence --------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-compatible state (for the offline/online model split)."""
        self._require_fitted()
        return {
            "requested_bins": self.requested_bins,
            "cuts": [float(c) for c in self._cuts],  # type: ignore[union-attr]
            "representatives": [float(r) for r in self._representatives],  # type: ignore[union-attr]
        }

    @classmethod
    def from_state(cls, state: dict) -> "EqualFrequencyDiscretizer":
        """Inverse of :meth:`to_state`; ``ValueError`` unless the cuts
        increase strictly and every bin has a representative, all
        finite."""
        instance = cls(state["requested_bins"])
        cuts = np.asarray(state["cuts"], dtype=float)
        representatives = np.asarray(state["representatives"], dtype=float)
        if (
            cuts.ndim != 1
            or representatives.shape != (cuts.size + 1,)
            or not (np.isfinite(cuts).all() and np.isfinite(representatives).all())
            or (np.diff(cuts) <= 0).any()
        ):
            raise ValueError(
                "discretizer state needs strictly increasing finite cuts and "
                "one finite representative per bin"
            )
        instance._cuts = cuts
        instance._representatives = representatives
        return instance

    def __repr__(self) -> str:
        if self._cuts is None:
            return f"EqualFrequencyDiscretizer(n_bins={self.requested_bins}, unfitted)"
        return f"EqualFrequencyDiscretizer(bins={self.n_bins})"
