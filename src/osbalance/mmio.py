"""MatrixMarket coordinate IO and scaling-vector files.

Matrices are exchanged as ``%%MatrixMarket matrix coordinate real
general`` with 1-based indices; scaling vectors as one natural-log
value per line, printed with 17 significant digits so a round trip is
exact.
"""

from __future__ import annotations

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


def write_scaling(path, u, base2=False):
    with open(path, "w") as fh:
        for x in u:
            x = x / np.log(2.0) if base2 else x
            fh.write(f"{x:.17g}\n")


def read_scaling(path):
    with open(path) as fh:
        u = np.array([float(line) for line in fh if line.strip()])
    if not np.all(np.isfinite(u)):
        raise ValueError("scaling holds a non-finite value")
    return u
