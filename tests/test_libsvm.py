import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sipm import (SparseDataset, align_feature_space, parse_libsvm, parse_libsvm_file,
                  serialize_libsvm)
from sipm.errors import (DomainError, LabelMismatch, MalformedLine, NonIncreasingIndex,
                         NotBinary)


def test_parse_basic_line():
    ds = parse_libsvm("+1 1:0.5 3:-1.2\n-1 2:1.0\n")
    assert ds.m == 2
    assert ds.n_features == 3
    assert ds.labels == (1.0, -1.0)
    assert ds.rows[0] == ((1, 0.5), (3, -1.2))
    dense = ds.to_arrays()[0].toarray()
    assert_allclose(dense, [[0.5, 0.0, -1.2], [0.0, 1.0, 0.0]])


def test_parse_empty_row_and_comments():
    ds = parse_libsvm("# comment line\n\n-1\n+1 2:3.5\n")
    assert ds.m == 2
    assert ds.rows[0] == ()
    assert ds.n_features == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(MalformedLine) as err:
        parse_libsvm("abc 1:2\n")
    assert err.value.line_number == 1

    with pytest.raises(MalformedLine) as err:
        parse_libsvm("+1 1:2\n-1 3\n")
    assert err.value.line_number == 2

    with pytest.raises(MalformedLine) as err:
        parse_libsvm("+1 1:2\n-1 2:1\n+1 0:4\n")
    assert err.value.line_number == 3

    with pytest.raises(MalformedLine):
        parse_libsvm("+1 1:abc\n")
    with pytest.raises(MalformedLine):
        parse_libsvm("+1 1.5:2\n")


@pytest.mark.parametrize("line", ["1 1:nan 2:inf", "1 1:1 2:-inf", "nan 1:1", "inf 1:1"])
def test_parse_rejects_non_finite_numbers(line):
    with pytest.raises(MalformedLine, match="not finite") as err:
        parse_libsvm("-1 1:1\n" + line + "\n")
    assert err.value.line_number == 2


@pytest.mark.parametrize("data, line, column", [
    (b"+1 1:0.5\n-1 2:1\xff\n", 2, 7),
    (b"# caf\xc3\xa9\n+1 1:0.5\n", 1, 6),
], ids=["value", "comment"])
def test_non_ascii_byte_is_a_malformed_line(data, line, column, tmp_path):
    """The file used to fail as a UnicodeDecodeError with a byte position,
    even inside a comment; the format stays ASCII-only, and the error now
    names the line."""
    path = tmp_path / "bad.libsvm"
    path.write_bytes(data)
    with pytest.raises(MalformedLine, match=f"^line {line}: non-ASCII character at "
                                            f"column {column}$"):
        parse_libsvm_file(str(path))
    with pytest.raises(MalformedLine, match=f"^line {line}: "):
        parse_libsvm(data.decode("utf-8", errors="replace"))


def test_parse_rejects_an_index_past_int64():
    """Such an index used to parse, and to_arrays then failed as a bare
    OverflowError; it is a MalformedLine naming its line."""
    with pytest.raises(MalformedLine, match="^line 2: index 9223372036854775808 is too large$"):
        parse_libsvm("+1 1:1\n-1 9223372036854775808:1\n")
    assert parse_libsvm("+1 9223372036854775807:1\n").n_features == 2 ** 63 - 1


def test_parse_rejects_nonincreasing_indices():
    with pytest.raises(NonIncreasingIndex) as err:
        parse_libsvm("+1 3:1 2:1\n")
    assert err.value.line_number == 1
    # duplicates are rejected rather than summed
    with pytest.raises(NonIncreasingIndex):
        parse_libsvm("+1 2:1 2:5\n")


def test_parse_label_cardinality():
    with pytest.raises(NotBinary):
        parse_libsvm("1 1:1\n2 1:1\n3 1:1\n")
    # a single label value parses (test splits), but cannot be trained on
    single = parse_libsvm("1 1:1\n1 2:1\n")
    with pytest.raises(NotBinary):
        single.to_arrays()


def test_to_arrays_maps_labels_by_sorted_order():
    ds = parse_libsvm("0 1:1\n1 2:1\n")
    _, y = ds.to_arrays()
    assert_allclose(y, [-1.0, 1.0])


def test_to_arrays_rejects_a_label_outside_the_pinned_order():
    ds = parse_libsvm("0 1:1\n3 1:2\n")
    pinned = replace(ds, label_order=(0.0, 1.0))
    with pytest.raises(LabelMismatch, match=r"\[3\.0\]"):
        pinned.to_arrays()
    # the pinned order, not the sorted one, decides which value is -1
    _, y = replace(parse_libsvm("0 1:1\n1 2:1\n"), label_order=(1.0, 0.0)).to_arrays()
    assert_allclose(y, [1.0, -1.0])


def test_align_feature_space():
    train = parse_libsvm("+1 1:1 10:2\n-1 3:1\n")
    test = parse_libsvm("-1 12:0.5\n")
    train2, test2 = align_feature_space(train, test)
    assert train2.n_features == test2.n_features == 12
    assert train2.rows == train.rows
    # the training mapping carries over to the single-label test split
    _, y_test = test2.to_arrays()
    assert_allclose(y_test, [-1.0])

    same1, same2 = align_feature_space(train, train)
    assert same1.n_features == same2.n_features == train.n_features

    stray = parse_libsvm("0 1:1\n")
    with pytest.raises(LabelMismatch):
        align_feature_space(train, stray)


def random_corpus(rng, lines):
    rows = []
    for _ in range(lines):
        label = rng.choice([-1.0, 1.0, 0.0, 2.0][: 2])
        count = int(rng.integers(0, 6))
        indices = np.sort(rng.choice(np.arange(1, 40), size=count, replace=False))
        parts = [f"{int(label)}"]
        for idx in indices:
            parts.append(f"{int(idx)}:{rng.uniform(-5, 5):.6g}")
        rows.append(" ".join(parts))
    return "\n".join(rows) + "\n"


def test_round_trip_stability():
    rng = np.random.default_rng(13)
    text = random_corpus(rng, 200)
    ds = parse_libsvm(text)
    again = parse_libsvm(serialize_libsvm(ds))
    assert again == ds



@pytest.mark.parametrize("rows, labels, message", [
    ((((1, 0.5),), ((1, np.inf),)), (1.0, -1.0), "row 1: value at index 1 inf is not finite"),
    ((((2, -np.inf),),), (1.0,), "row 0: value at index 2 -inf is not finite"),
    ((((1, np.nan),),), (1.0,), "row 0: value at index 1 nan is not finite"),
    ((((1, 0.5),),), (np.inf,), "row 0: label inf is not finite"),
    ((((1, 0.5),),), (np.nan,), "row 0: label nan is not finite"),
], ids=["inf", "-inf", "nan", "inf-label", "nan-label"])
def test_serialize_names_a_non_finite_entry(rows, labels, message):
    """An infinite value used to raise a bare OverflowError from int(), and a
    NaN or an infinite label a bare ValueError; each is a DomainError naming
    the 0-based row, the entry and the value."""
    dataset = SparseDataset(rows=rows, labels=labels, n_features=2)
    with pytest.raises(DomainError) as caught:
        serialize_libsvm(dataset)
    assert str(caught.value) == message


def test_dense_matches_reference_parse():
    # generator/oracle pair: a dense reference parse of the same random lines
    rng = np.random.default_rng(17)
    for _ in range(50):
        text = random_corpus(rng, 20)
        ds = parse_libsvm(text)
        dense = ds.to_arrays()[0].toarray()
        ref = np.zeros_like(dense)
        for r, line in enumerate(line for line in text.splitlines() if line.strip()):
            for token in line.split()[1:]:
                idx, _, val = token.partition(":")
                ref[r, int(idx) - 1] = float(val)
        assert_allclose(dense, ref)


@pytest.mark.parametrize("row, message", [
    (((5, 1.0),), "row 1: entry (5, 1.0): index 5 is outside [1, 2]"),
    (((0, 1.0),), "row 1: entry (0, 1.0): index 0 is outside [1, 2]"),
    (((1.5, 1.0),), "row 1: entry (1.5, 1.0): index 1.5 is not an integer"),
    (((True, 1.0),), "row 1: entry (True, 1.0): index True is not an integer"),
    (((2, 1.0), (1, 1.0)), "row 1: entry (1, 1.0): index 1 is not above the previous 2"),
    (((2, 1.0), (2, 3.0)), "row 1: entry (2, 3.0): index 2 is not above the previous 2"),
    (((1, "x"),), "row 1: entry (1, 'x'): value 'x' is not a real number"),
    (((1, True),), "row 1: entry (1, True): value True is not a real number"),
    (((1, 2.0, 3.0),), "row 1: entry (1, 2.0, 3.0): not an (index, value) pair"),
], ids=["above", "zero", "fraction", "bool-index", "decreasing", "repeated", "text",
        "bool-value", "triple"])
def test_constructed_rows_are_checked_at_construction(row, message):
    """Constructed rows used to be taken unchecked: with n_features=2, index
    5 or 0 became CSR column 4 or -1, and a gradient over that matrix dropped
    the entry and then corrupted the heap; 1.5 was truncated to 1, decreasing
    indices stayed unsorted, and a value 'x' failed as a bare ValueError in
    to_arrays.  Each is a DomainError naming the row and the entry when the
    dataset is built."""
    with pytest.raises(DomainError) as caught:
        SparseDataset(rows=(((1, 0.5),), row), labels=(1.0, -1.0), n_features=2)
    assert str(caught.value) == message


def test_the_feature_count_is_checked_on_every_construction():
    ds = parse_libsvm("+1 1:0.5\n-1 2:1.0 3:-2.5\n")
    with pytest.raises(DomainError) as caught:
        replace(ds, n_features=2)
    assert str(caught.value) == "row 1: entry (3, -2.5): index 3 is outside [1, 2]"
    # numpy integers and floats are integers and real numbers too
    built = SparseDataset(rows=[[(np.int64(2), np.float32(0.5))], []], labels=(1.0, -1.0),
                          n_features=3)
    assert built.rows == (((2, 0.5),), ())


def random_rows(rng, m):
    """Rows of (index, value) pairs with indices above 256, past Python's
    cached small ints, one row holding -0.0 and a few empty rows."""
    rows = []
    for _ in range(m):
        count = int(rng.integers(0, 6))
        indices = np.sort(rng.choice(np.arange(1, 600), size=count, replace=False))
        values = np.round(rng.uniform(-5, 5, size=count), 3)
        rows.append(tuple((int(i), float(v)) for i, v in zip(indices, values)))
    rows[1], rows[2] = (), ((3, -0.0), (300, 1.5))
    return tuple(rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stored_rows_read_as_the_tuples_they_hold(seed):
    """A parsed dataset and one built from the same tuples answer as the
    tuple of rows does, and to_arrays gives both the same CSR bytes."""
    rng = np.random.default_rng(seed)
    rows = random_rows(rng, 40)
    labels = tuple(float(y) for y in rng.choice([-1.0, 1.0], size=len(rows)))
    text = "".join(f"{y:g} " + " ".join(f"{i}:{v!r}" for i, v in row) + "\n"
                   for y, row in zip(labels, rows))
    parsed = parse_libsvm(text)
    built = SparseDataset(rows=rows, labels=labels, n_features=parsed.n_features)
    for ds in (parsed, built):
        assert ds.rows == rows and rows == ds.rows and not ds.rows != rows
        assert hash(ds.rows) == hash(rows) and repr(ds.rows) == repr(rows)
        assert len(ds.rows) == len(rows) and list(ds.rows) == list(rows)
        for key in (0, 2, -1, -len(rows), slice(None), slice(1, 9), slice(-5, None),
                    slice(None, None, -3)):
            assert ds.rows[key] == rows[key] and type(ds.rows[key]) is tuple
        assert all(type(i) is int and type(v) is float for row in ds.rows for i, v in row)
        with pytest.raises(IndexError):
            ds.rows[len(rows)]
    assert parsed == built and hash(parsed) == hash(built) and repr(parsed) == repr(built)
    assert parsed.rows == built.rows
    again = pickle.loads(pickle.dumps(parsed))
    assert again == parsed and not again.rows.values.flags.writeable
    ours, theirs = parsed.to_arrays()[0], built.to_arrays()[0]
    for name in ("data", "indices", "indptr"):
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert np.signbit(ours.data[ours.indptr[2]]) and ours.toarray()[2, 299] == 1.5


def test_align_feature_space_shares_the_stored_arrays():
    train = parse_libsvm("+1 1:1 10:2\n-1 3:1\n")
    test = parse_libsvm("-1 12:0.5\n\n+1\n")
    for before, after in zip((train, test), align_feature_space(train, test)):
        for name in ("indptr", "indices", "values"):
            stored = getattr(after.rows, name)
            assert np.shares_memory(getattr(before.rows, name), stored)
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 7


def test_a_parsed_dataset_holds_arrays_not_tuples():
    """At most 24 bytes per nonzero and 64 per row stay allocated, labels
    included; a tuple per nonzero took about 76 bytes."""
    rng = np.random.default_rng(5)
    m, per_row = 2000, 5
    text = "".join(f"{(-1) ** r} " + " ".join(
        f"{i}:{v:.4f}" for i, v in zip(np.sort(rng.choice(np.arange(1, 500), per_row,
                                                          replace=False)),
                                       rng.uniform(-1, 1, per_row))) + "\n"
        for r in range(m))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = parse_libsvm(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ds.m == m and sum(map(len, ds.rows)) == m * per_row
    assert held <= 24 * m * per_row + 64 * m, held
