"""Parser and serializer for the sparse LIBSVM text format.

Each nonempty line is ``label index:value index:value ...`` with 1-based,
strictly increasing feature indices and finite labels and values.  Blank
lines and lines starting with '#' are skipped; every line, comments too,
must be ASCII.  Parsing is single pass and appends each pair to typed
buffers, so a dataset holds 16 bytes per nonzero and 8 per row besides its
labels: ``SparseRows``, the CSR arrays that ``SparseDataset.rows`` reads as
a tuple of rows.  The data models take a dataset's training matrix straight
from them, as the CSR arrays that scipy's compiled kernels read
(``problems.CSR``), so a LIBSVM run loads only scipy's compiled kernel
module, not the scipy.sparse package; ``SparseDataset.to_arrays`` exports
the same arrays as a scipy.sparse matrix.
"""

from __future__ import annotations

import math
import numbers
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, MalformedLine, NonIncreasingIndex, NotBinary
from .problems import CSR, _check_csr, _number, map_labels

_INT32_MAX = np.iinfo(np.int32).max


class SparseRows(Sequence):
    """Rows of (index, value) pairs stored once as CSR arrays: ``indptr``, the
    1-based ``indices`` and the ``values``, read-only int64 and float arrays.

    It indexes (negative indices and slices too), iterates, compares, hashes
    and reprs as the tuple of rows of ``(int, float)`` pairs it holds.
    """

    __slots__ = ("indptr", "indices", "values")

    def __init__(self, indptr, indices, values):
        # array.array buffers are shared, not copied
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)
        for a in (self.indptr, self.indices, self.values):
            a.flags.writeable = False

    def __reduce__(self):   # unpickled arrays are read-only again
        return SparseRows, (self.indptr, self.indices, self.values)

    def __len__(self):
        return self.indptr.size - 1

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(map(self.__getitem__, range(*key.indices(len(self)))))
        i = range(len(self))[key]   # negative keys count from the end; IndexError past it
        start, stop = self.indptr[i:i + 2].tolist()
        return tuple(zip(self.indices[start:stop].tolist(), self.values[start:stop].tolist()))

    def __iter__(self):
        bounds = self.indptr.tolist()
        indices, values = self.indices.tolist(), self.values.tolist()
        for start, stop in zip(bounds, bounds[1:]):
            yield tuple(zip(indices[start:stop], values[start:stop]))

    def __eq__(self, other):
        if isinstance(other, SparseRows):
            return all(map(np.array_equal, (self.indptr, self.indices, self.values),
                           (other.indptr, other.indices, other.values)))
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


def _entry_error(row, pair, why):
    return DomainError(f"row {row}: entry {pair!r}: {why}")


def _rows_of_pairs(rows, n_features):
    """SparseRows holding ``rows``, a sequence of rows of (index, value)
    pairs; DomainError naming the 0-based row and the entry unless each
    index is an integer (not a bool) in ``[1, n_features]``, above the
    previous index of its row, and each value a real number (not a bool;
    NaN and infinities pass, as serialize_libsvm names them)."""
    indptr, indices, values = array("q", [0]), array("q"), array("d")
    for r, row in enumerate(rows):
        prev = 0
        for pair in row:
            try:
                index, value = pair
            except (TypeError, ValueError):
                raise _entry_error(r, pair, "not an (index, value) pair") from None
            if not _number(index, numbers.Integral):
                raise _entry_error(r, pair, f"index {index!r} is not an integer")
            if not 1 <= index <= n_features:
                raise _entry_error(r, pair, f"index {index} is outside [1, {n_features}]")
            if index <= prev:
                raise _entry_error(r, pair, f"index {index} is not above the previous {prev}")
            if not _number(value):
                raise _entry_error(r, pair, f"value {value!r} is not a real number")
            indices.append(index)
            values.append(value)
            prev = index
        indptr.append(len(indices))
    return SparseRows(indptr, indices, values)


@dataclass(frozen=True)
class SparseDataset:
    """Rows of (index, value) pairs with raw labels and a feature count.

    ``rows`` is a SparseRows; any other sequence of rows is checked and
    stored as one when the dataset is built (``_rows_of_pairs``), and a
    SparseRows is shared, as ``dataclasses.replace`` does, once its indices
    are checked against ``n_features``.  ``label_order`` pins the raw-label
    to -1/+1 mapping; it is normally set by align_feature_space so a test
    split inherits the training mapping.
    """

    rows: SparseRows
    labels: tuple
    n_features: int
    label_order: tuple | None = None

    def __post_init__(self):
        rows = self.rows
        if not isinstance(rows, SparseRows):
            object.__setattr__(self, "rows", _rows_of_pairs(rows, self.n_features))
        elif rows.indices.max(initial=0) > self.n_features:
            at = int(np.argmax(rows.indices > self.n_features))
            row = int(np.searchsorted(rows.indptr, at, side="right")) - 1
            index = int(rows.indices[at])
            raise _entry_error(row, (index, float(rows.values[at])),
                               f"index {index} is outside [1, {self.n_features}]")

    @property
    def m(self):
        return len(self.rows)

    def label_values(self):
        return tuple(sorted(set(self.labels)))

    def _training_arrays(self):
        """The rows as the ``CSR`` of an (m, n_features) matrix, once
        ``problems._check_csr`` passes it, plus labels mapped to -1/+1 by
        map_labels, in the pinned label order or else by sorted raw value.
        Indices are 0-based, int32 where every index and count fits, as scipy
        picks them; the values are shared."""
        rows = self.rows
        m = rows.indptr.size - 1   # len(rows) refuses an empty indptr with a bare ValueError
        features = CSR(rows.indptr, rows.indices - 1, rows.values, (m, self.n_features))
        _check_csr(features)   # on the int64 arrays: narrowing checked ones is exact
        if max(m, self.n_features, rows.indices.size) <= _INT32_MAX:
            features = features._replace(indptr=features.indptr.astype(np.int32),
                                         indices=features.indices.astype(np.int32))
        return features, map_labels(self.labels, self.label_order)

    def to_arrays(self):
        """``_training_arrays``' matrix as a scipy.sparse CSR matrix of copies
        of its arrays, plus the mapped labels."""
        from scipy.sparse import csr_matrix

        a, labels = self._training_arrays()
        return csr_matrix((a.data, a.indices, a.indptr), shape=a.shape, copy=True), labels


def parse_libsvm(source):
    """Parse LIBSVM text into a SparseDataset.

    ``source`` may be a string of text or any iterable of lines.  The feature
    count is the largest index seen; align_feature_space widens a split to
    its partner's.  More than two distinct labels raises NotBinary (a single
    label value is allowed so test splits remain parseable).
    """
    lines = source.splitlines() if isinstance(source, str) else source
    indptr, indices, values = array("q", [0]), array("q"), array("d")
    add_index, add_value = indices.append, values.append
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
            try:
                add_index(index)
            except OverflowError:   # past int64, which no CSR index reaches
                raise MalformedLine(lineno, f"index {index} is too large") from None
            add_value(value)
        max_index = max(max_index, prev)
        indptr.append(len(indices))
        labels.append(label)
    distinct = sorted(set(labels))
    if len(distinct) > 2:
        raise NotBinary(f"found {len(distinct)} distinct labels, expected at most 2")
    return SparseDataset(rows=SparseRows(indptr, indices, values), labels=tuple(labels),
                         n_features=max_index)


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
