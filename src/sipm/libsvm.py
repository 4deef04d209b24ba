"""Parser and serializer for the sparse LIBSVM text format.

Each nonempty line is ``label index:value index:value ...`` with 1-based,
strictly increasing feature indices and finite labels and values.  Blank
lines and lines starting with '#' are skipped; every line, comments too,
must be ASCII.  Parsing is single pass and keeps memory proportional to the
number of nonzeros, and so does the training matrix:
``SparseDataset.to_arrays`` returns it in CSR form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import DomainError, MalformedLine, NonIncreasingIndex, NotBinary
from .problems import map_labels


@dataclass(frozen=True)
class SparseDataset:
    """Rows of (index, value) pairs with raw labels and a feature count.

    ``label_order`` pins the raw-label to -1/+1 mapping; it is normally set
    by align_feature_space so a test split inherits the training mapping.
    """

    rows: tuple
    labels: tuple
    n_features: int
    label_order: tuple | None = None

    @property
    def m(self):
        return len(self.rows)

    def label_values(self):
        return tuple(sorted(set(self.labels)))

    def _csr_features(self):
        """The rows as a scipy.sparse CSR matrix of shape (m, n_features)."""
        from scipy.sparse import csr_matrix

        indptr = np.zeros(self.m + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, self.rows), dtype=np.int64, count=self.m),
                  out=indptr[1:])
        nnz = int(indptr[-1])
        # (index, value) pairs flattened in C, one float per entry
        pairs = np.fromiter(chain.from_iterable(chain.from_iterable(self.rows)),
                            dtype=float, count=2 * nnz).reshape(nnz, 2)
        return csr_matrix((pairs[:, 1].copy(), pairs[:, 0].astype(np.int64) - 1, indptr),
                          shape=(self.m, self.n_features))

    def to_arrays(self):
        """CSR features plus labels mapped to -1/+1 by map_labels, in the
        pinned label order or else by sorted raw value."""
        return self._csr_features(), map_labels(self.labels, self.label_order)


def parse_libsvm(source):
    """Parse LIBSVM text into a SparseDataset.

    ``source`` may be a string of text or any iterable of lines.  The feature
    count is the largest index seen; align_feature_space widens a split to
    its partner's.  More than two distinct labels raises NotBinary (a single
    label value is allowed so test splits remain parseable).
    """
    lines = source.splitlines() if isinstance(source, str) else source
    rows = []
    labels = []
    max_index = 0
    for lineno, raw in enumerate(lines, start=1):
        if not raw.isascii():
            column = next(i for i, char in enumerate(raw, start=1) if not char.isascii())
            raise MalformedLine(lineno, f"non-ASCII character at column {column}")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise MalformedLine(lineno, f"label {tokens[0]!r} is not numeric") from None
        if not math.isfinite(label):
            raise MalformedLine(lineno, f"label {tokens[0]!r} is not finite")
        row = []
        prev = 0
        for token in tokens[1:]:
            left, sep, right = token.partition(":")
            if not sep:
                raise MalformedLine(lineno, f"token {token!r} is missing a colon")
            try:
                index = int(left)
            except ValueError:
                raise MalformedLine(lineno, f"index {left!r} is not an integer") from None
            if index <= 0:
                raise MalformedLine(lineno, f"index {index} is not positive")
            try:
                value = float(right)
            except ValueError:
                raise MalformedLine(lineno, f"value {right!r} is not numeric") from None
            if not math.isfinite(value):
                raise MalformedLine(lineno, f"value {right!r} is not finite")
            if index <= prev:
                raise NonIncreasingIndex(lineno)
            prev = index
            row.append((index, value))
        max_index = max(max_index, prev)
        rows.append(tuple(row))
        labels.append(label)
    distinct = sorted(set(labels))
    if len(distinct) > 2:
        raise NotBinary(f"found {len(distinct)} distinct labels, expected at most 2")
    return SparseDataset(rows=tuple(rows), labels=tuple(labels), n_features=max_index)


def parse_libsvm_file(path):
    # a non-ASCII byte decodes to a lone surrogate, which the parser rejects
    # with its line number
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        return parse_libsvm(handle)


def _fmt(value, row, index=None):
    """``value``, the label of 0-based row ``row`` or its value at ``index``,
    as text; DomainError naming the row, the entry and the value unless it
    is finite."""
    if not math.isfinite(value):
        what = "label" if index is None else f"value at index {index}"
        raise DomainError(f"row {row}: {what} {value!r} is not finite")
    # integers print bare so round-trips stay byte-stable and familiar
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def serialize_libsvm(dataset):
    """Render a SparseDataset back to LIBSVM text (exact float round-trip).
    A NaN or infinite label or value raises DomainError naming its row."""
    lines = []
    for i, (label, row) in enumerate(zip(dataset.labels, dataset.rows)):
        parts = [_fmt(label, i)] + [f"{idx}:{_fmt(val, i, idx)}" for idx, val in row]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def align_feature_space(train, test):
    """Put a train/test pair on a common feature count and label mapping.

    The label mapping is fixed by the training labels (which must hold
    exactly two values) and applied to the test split; a test label absent
    from the training set raises LabelMismatch.
    """
    order = train.label_values()
    map_labels(test.labels, order)   # NotBinary or LabelMismatch, as in to_arrays
    width = max(train.n_features, test.n_features)
    return (replace(train, n_features=width, label_order=order),
            replace(test, n_features=width, label_order=order))
