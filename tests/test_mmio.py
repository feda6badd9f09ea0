"""The MatrixMarket reader's contract: what it accepts, the matrix it
builds and the text of every ParseError.

``line_loop_read`` below is the reader as a plain line loop over the
entry body, one ``(row, col, value)`` triplet per line handed to
``build_matrix``; it is the reference every faster read must match.
"""

import os
import threading
import warnings

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from osbalance import (ParseError, SparseNonnegMatrix, build_matrix,
                       gen_kalantari, gen_salient, read_matrix_market,
                       write_matrix_market)

HEADER = "%%MatrixMarket matrix coordinate real general\n"


def line_loop_read(path):
    """Header, size line, then one triplet per entry line."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ParseError("missing MatrixMarket header")
        fields = header.lower().split()
        if fields[1:4] != ["matrix", "coordinate", "real"]:
            raise ParseError("only 'matrix coordinate real' is supported")
        if len(fields) > 4 and fields[4] != "general":
            raise ParseError("only 'general' symmetry is supported")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        try:
            nrows, ncols, nnz = (int(t) for t in line.split())
        except ValueError as exc:
            raise ParseError(f"bad size line: {line!r}") from exc
        if nrows != ncols:
            raise ParseError("matrix must be square")
        triplets = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            try:
                si, sj, sv = line.split()
                triplets.append((int(si) - 1, int(sj) - 1, float(sv)))
            except ValueError as exc:
                raise ParseError(f"bad entry line: {line!r}") from exc
        if len(triplets) != nnz:
            raise ParseError(f"expected {nnz} entries, found {len(triplets)}")
    try:
        return build_matrix(nrows, triplets)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def assert_same_matrix(A, B):
    """Every stored array equal bit for bit and of the same dtype."""
    assert (A.n, A.m, A.dropped) == (B.n, B.m, B.dropped)
    for name in SparseNonnegMatrix.__slots__:
        a, b = getattr(A, name), getattr(B, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype, name
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def outcome(read, path):
    """The matrix a reader returns, or the type and text of its error."""
    try:
        return read(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def write(path, text, newline="\n"):
    path.write_bytes(text.replace("\n", newline).encode())
    return path


class TestParseErrors:
    @pytest.mark.parametrize("text, message", [
        ("", "missing MatrixMarket header"),
        ("%MatrixMarket matrix coordinate real general\n2 2 0\n",
         "missing MatrixMarket header"),
        ("%%MatrixMarket matrix array real general\n2 2\n",
         "only 'matrix coordinate real' is supported"),
        ("%%MatrixMarket matrix coordinate integer general\n2 2 0\n",
         "only 'matrix coordinate real' is supported"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 0\n",
         "only 'general' symmetry is supported"),
        (HEADER + "2 2\n1 2 1\n", "bad size line: '2 2\\n'"),
        (HEADER + "% c\n2 2 x\n", "bad size line: '2 2 x\\n'"),
        (HEADER, "bad size line: ''"),
        (HEADER + "2 3 1\n1 2 1\n", "matrix must be square"),
        (HEADER + "2 2 2\n1 2\n2 1 1\n", "bad entry line: '1 2'"),
        (HEADER + "2 2 2\n1 2 1\n2 1 1 4\n", "bad entry line: '2 1 1 4'"),
        (HEADER + "2 2 2\n1.5 2 1\n2 1 1\n", "bad entry line: '1.5 2 1'"),
        (HEADER + "2 2 2\n1 2 1 % c\n2 1 1\n",
         "bad entry line: '1 2 1 % c'"),
        (HEADER + "2 2 2\n1 2 0x10\n2 1 1\n", "bad entry line: '1 2 0x10'"),
        # int() refuses a circled digit; np.loadtxt reads it as 9264
        (HEADER + "2 2 2\n1 ① 1\n2 1 1\n", "bad entry line: '1 ① 1'"),
        (HEADER + "2 2 2\n1 2 1e3\n2 1e3 1\n", "bad entry line: '2 1e3 1'"),
        (HEADER + "2 2 3\n1 2 1\n2 1 1\n", "expected 3 entries, found 2"),
        (HEADER + "2 2 1\n1 2 1\n2 1 1\n", "expected 1 entries, found 2"),
        (HEADER + "2 2 2\n\n   \n", "expected 2 entries, found 0"),
        (HEADER + "2 2 2\n1 3 1\n2 1 1\n", "index out of range"),
        (HEADER + "2 2 2\n1 0 1\n2 1 1\n", "index out of range"),
        (HEADER + "2 2 2\n1 2 -1\n2 1 1\n", "negative value in triplet list"),
        (HEADER + "2 2 2\n1 2 nan\n2 1 1\n", "non-finite entry"),
        (HEADER + "2 2 2\n1 2 1e308\n1 2 1e308\n", "non-finite entry"),
        (HEADER + "0 0 0\n", "matrix dimension must be positive"),
    ])
    def test_message(self, tmp_path, text, message):
        path = write(tmp_path / "m.mtx", text)
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        assert str(info.value) == message

    @pytest.mark.filterwarnings("error")
    def test_blank_body_is_refused_without_a_warning(self, tmp_path):
        path = write(tmp_path / "m.mtx", f"{HEADER}2 2 2\n\n  \n")
        with pytest.raises(ParseError, match="expected 2 entries, found 0"):
            read_matrix_market(path)

    def test_a_parse_error_is_a_value_error(self):
        assert issubclass(ParseError, ValueError)


class TestAccepted:
    @pytest.mark.parametrize("body, triplets", [
        # a comment line between entries
        ("1 2 4\n% c\n2 1 1\n", [(0, 1, 4.0), (1, 0, 1.0)]),
        # blank and whitespace-only lines anywhere in the body
        ("\n1 2 4\n\n  \t \n2 1 1\n\n", [(0, 1, 4.0), (1, 0, 1.0)]),
        # Unicode digits, which int() and float() read as their ASCII
        # twins: Arabic-Indic, and Devanagari, which np.loadtxt misreads
        ("١ ٢ 4\n2 1 ١\n", [(0, 1, 4.0), (1, 0, 1.0)]),
        ("1 २ 4\n२ 1 1\n", [(0, 1, 4.0), (1, 0, 1.0)]),
        # digit separators, which int() and float() accept
        ("1 2 1_0\n2 1 1\n", [(0, 1, 10.0), (1, 0, 1.0)]),
        # a trailing line without its newline, and tab separators
        ("1\t2\t4\n2 1 1", [(0, 1, 4.0), (1, 0, 1.0)]),
    ])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_body(self, tmp_path, body, triplets, newline):
        nnz = len(triplets)
        path = write(tmp_path / "m.mtx", f"{HEADER}% c\n2 2 {nnz}\n{body}",
                     newline)
        assert_same_matrix(read_matrix_market(path),
                           build_matrix(2, triplets))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "\n\n", "% only a comment\n"])
    def test_zero_entries_read_without_a_warning(self, tmp_path, body):
        path = write(tmp_path / "m.mtx", f"{HEADER}3 3 0\n{body}")
        A = read_matrix_market(path)
        assert (A.n, A.m, A.dropped) == (3, 0, 0)

    @pytest.mark.parametrize("body", ["", "\n\n", "% only a comment\n"])
    def test_zero_entries_emit_no_warning(self, tmp_path, body):
        path = write(tmp_path / "m.mtx", f"{HEADER}3 3 0\n{body}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            read_matrix_market(path)
        assert [str(w.message) for w in caught] == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_stream_that_cannot_seek(self, tmp_path):
        fifo = tmp_path / "m.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text,
                                  args=(f"{HEADER}2 2 2\n1 2 4\n2 1 1\n",))
        writer.start()
        try:
            A = read_matrix_market(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert_same_matrix(A, build_matrix(2, [(0, 1, 4.0), (1, 0, 1.0)]))

    def test_zero_and_diagonal_entries_dropped(self, tmp_path):
        path = write(tmp_path / "m.mtx",
                     f"{HEADER}2 2 4\n1 2 0\n1 1 5\n1 2 3\n2 1 1\n")
        A = read_matrix_market(path)
        assert (A.m, A.dropped) == (2, 2)

    @pytest.mark.parametrize("A", [gen_kalantari(6),
                                   gen_salient(9, 2, seed=3)],
                             ids=["ring", "salient"])
    def test_round_trip(self, tmp_path, A):
        path = tmp_path / "m.mtx"
        write_matrix_market(path, A, comments=["a comment"])
        assert_same_matrix(read_matrix_market(path), A)


class TestAnyWarningSendsTheBodyToTheLoop:
    """From numpy 1.23 on, some releases read an integer field that is
    not an integer literal through a float, truncate it, and only warn.
    The array read must not build a matrix from such a parse."""

    @pytest.fixture(autouse=True)
    def loadtxt_via_float(self, monkeypatch):
        real = np.loadtxt

        def loadtxt(fname, dtype, **kwargs):
            lines = list(fname)
            floats = real(lines, dtype=[(name, np.float64)
                                        for name in dtype.names], **kwargs)
            if any(not token.lstrip("+-").isdigit()
                   for line in lines for token in line.split()[:2]):
                warnings.warn("loadtxt(): Parsing an integer via a float "
                              "is deprecated.", DeprecationWarning)
            return floats.astype(dtype)

        monkeypatch.setattr(np, "loadtxt", loadtxt)

    @pytest.mark.parametrize("body, message", [
        ("1.5 2 1\n2 1 1\n", "bad entry line: '1.5 2 1'"),
        ("1 2 1\n2 1e3 1\n", "bad entry line: '2 1e3 1'"),
    ])
    def test_index_read_through_a_float_is_refused(self, tmp_path, body,
                                                   message):
        path = write(tmp_path / "m.mtx", f"{HEADER}2 2 2\n{body}")
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        assert str(info.value) == message

    def test_integer_indices_still_read(self, tmp_path):
        path = write(tmp_path / "m.mtx", f"{HEADER}2 2 2\n1 2 4\n2 1 1\n")
        assert_same_matrix(read_matrix_market(path),
                           build_matrix(2, [(0, 1, 4.0), (1, 0, 1.0)]))


# A small token grammar around the MatrixMarket entry line: a file of
# valid entry lines, then up to two edits, each of which swaps one
# token, separator or line tail for one that only int()/float() accept
# or that nobody accepts, and up to two comment or blank lines.  Most
# files so hold at most one odd token among valid ones.
#
# Non-ASCII digits: int() reads the first four as their ASCII twins,
# np.loadtxt reads "२" as 2360 and "①", which int() refuses, as 9264.
UNICODE_DIGITS = st.sampled_from(["٢", "२", "१", "１", "①"])
ODD_INDEX = st.one_of(UNICODE_DIGITS, st.sampled_from([
    "0", "5", "-1", "+2", "02", "1.5", "1e0", "1.", "1_0", "0x1", "nan",
    ""]))
VALUE = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.floats(min_value=0.0, allow_infinity=False).map("{:.17g}".format))
ODD_VALUE = st.one_of(UNICODE_DIGITS, st.sampled_from([
    "0", "-0", "-1", ".5", "5.", "+1", "1E2", "1e400", "1e-400", "nan",
    "inf", "Infinity", "1_0", "0x10", "1d3", "1e", "1.5f", "1,5", "-", ""]))
ODD_SEP = st.sampled_from(["  ", "\t", "\x0b", "\x0c", "\x1c", "\xa0",
                           "\u2000", ",", "\x00"])
ODD_TAIL = st.sampled_from([" ", "\t", " % c", " 1", "\x00", "\x0c",
                            "\xa0"])
# The slots of an entry line: i, separator, j, separator, value, tail.
ODD_SLOT = [ODD_INDEX, ODD_SEP, ODD_INDEX, ODD_SEP, ODD_VALUE, ODD_TAIL]
OTHER_LINE = st.sampled_from(["", "  ", "\t", "% c", "%", " % c", "\x0c",
                              "\xa0"])


@st.composite
def matrix_market_text(draw):
    n = draw(st.integers(1, 4))
    entries = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n),
                                      VALUE), max_size=6))
    body = [[str(i), " ", str(j), " ", v, ""] for i, j, v in entries]
    for _ in range(draw(st.integers(0, 2)) if body else 0):
        tokens = body[draw(st.integers(0, len(body) - 1))]
        slot = draw(st.integers(0, 5))
        tokens[slot] = draw(ODD_SLOT[slot])
    body = ["".join(tokens) for tokens in body]
    for _ in range(draw(st.integers(0, 2))):
        body.insert(draw(st.integers(0, len(body))), draw(OTHER_LINE))
    count = sum(1 for line in body
                if line.strip() and not line.strip().startswith("%"))
    size = draw(st.sampled_from([f"{n} {n} {count}"] * 4 + [
        f"{n} {n} {count + 1}", f"{n} {n} {max(count - 1, 0)}",
        f"{n} {n + 1} {count}", f"{n} {n}"]))
    comments = draw(st.sampled_from(["", "% c\n", "%\n%%x\n"]))
    last = draw(st.sampled_from(["\n", ""]))
    return HEADER + comments + size + "\n" + "\n".join(body) + last


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("grammar") / "m.mtx"


class TestAgainstTheLineLoop:
    @settings(max_examples=1000, deadline=None)
    @given(text=matrix_market_text(),
           newline=st.sampled_from(["\n", "\r\n", "\r"]))
    def test_same_matrix_or_same_error(self, scratch, text, newline):
        write(scratch, text, newline)
        want = outcome(line_loop_read, scratch)
        got = outcome(read_matrix_market, scratch)
        if isinstance(want, SparseNonnegMatrix):
            assert isinstance(got, SparseNonnegMatrix), got
            assert_same_matrix(got, want)
        else:
            assert got == want

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1),
           density=st.floats(0.05, 1.0))
    def test_written_files(self, scratch, n, seed, density):
        rng = np.random.default_rng(seed)
        mask = (rng.random((n, n)) < density) & ~np.eye(n, dtype=bool)
        rows, cols = np.nonzero(mask)
        vals = rng.lognormal(0.0, 20.0, rows.size)
        write_matrix_market(scratch, SparseNonnegMatrix(n, rows, cols, vals))
        assert_same_matrix(read_matrix_market(scratch),
                           line_loop_read(scratch))
