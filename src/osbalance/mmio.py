"""MatrixMarket coordinate IO and scaling-vector files.

Matrices are exchanged as ``%%MatrixMarket matrix coordinate real
general`` with 1-based indices; scaling vectors as one natural-log
value per line, printed with 17 significant digits so a round trip is
exact.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import build_matrix


class ParseError(ValueError):
    pass


def write_matrix_market(path, A, comments=()):
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        for line in comments:
            fh.write(f"% {line}\n")
        fh.write(f"{A.n} {A.n} {A.m}\n")
        for i, j, v in A.entries():
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


def read_matrix_market(path):
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
        triplets = _read_entry_array(fh)
        if triplets is None:  # the line loop names the line it refuses
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


_ENTRY = np.dtype([("i", np.intp), ("j", np.intp), ("v", np.float64)])


def _read_entry_array(fh):
    """The entries from fh's position on, parsed by one ``np.loadtxt``
    call into a structured array of 0-based (i, j, v) records; or None,
    with fh back at that position, where the line loop must read them.

    That is a stream that cannot seek back, any non-ASCII line (numpy
    reads some non-ASCII digits as other numbers than ``int()`` does,
    or reads digits that ``int()`` refuses), any body ``loadtxt`` cannot
    parse, and any body on which it warns: on no data, and, in numpy
    releases that read an integer field through a float, on an index
    such as ``1.5`` or ``1e3``.  On ASCII lines that it parses without a
    warning, ``loadtxt`` accepts no line that the loop refuses and reads
    the same triplet from each line.
    """
    if not fh.seekable():
        return None
    start = fh.tell()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            entries = np.loadtxt(_ascii_lines(fh), dtype=_ENTRY,
                                 comments=None, ndmin=1)
        except (ValueError, Warning):
            fh.seek(start)
            return None
    entries["i"] -= 1
    entries["j"] -= 1
    return entries


def _ascii_lines(fh):
    for line in fh:
        if not line.isascii():
            raise ValueError("not an ASCII line")
        yield line


_CHUNK = 4096  # values formatted by one % operation


def write_scaling(path, u, base2=False):
    u = np.asarray(u, dtype=np.float64)
    if base2:
        with np.errstate(over="ignore"):
            u = u / np.log(2.0)
        if not np.all(np.isfinite(u)):
            raise ValueError("a base-2 exponent of the scaling is not finite")
    with open(path, "w") as fh:  # one string per chunk, not per file
        for lo in range(0, len(u), _CHUNK):
            chunk = u[lo:lo + _CHUNK].tolist()
            fh.write("%.17g\n" * len(chunk) % tuple(chunk))


def read_scaling(path):
    with open(path) as fh:
        u = np.array([float(line) for line in fh if line.strip()])
    if not np.all(np.isfinite(u)):
        raise ValueError("scaling holds a non-finite value")
    return u
