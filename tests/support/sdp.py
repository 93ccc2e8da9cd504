"""Complex Hermitian SDPs through the package's real solver, and the
reference choice of independent rows.

`dmrate.sdp` takes real symmetric blocks only.  The tests also solve on the
full, complex space, so this embeds each Hermitian H as the real symmetric
[[Re H, -Im H], [Im H, Re H]], which is PSD exactly when H is, with
Tr(embed(A) embed(X)) = 2 Tr(A X).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from dmrate.sdp import RANK_TOL, SdpResult, solve_sdp


def embed(h: np.ndarray) -> np.ndarray:
    """The real symmetric embedding of every Hermitian matrix in ``h``."""
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]])


def _unembed(z: np.ndarray) -> np.ndarray:
    # The Hermitian H whose embedding is the part of z that commutes with
    # J = [[0, -1], [1, 0]]: the average of z and J z J^T, which is PSD when
    # z is, equals embed(H) / 2.
    n = z.shape[-1] // 2
    return (z[:n, :n] + z[n:, n:]) + 1j * (z[n:, :n] - z[:n, n:])


def solve_hermitian_sdp(c_mat: np.ndarray, ops: np.ndarray, b: np.ndarray) -> SdpResult:
    """Solve min Tr(C X) s.t. Tr(A_i X) = b_i, X >= 0 over Hermitian (n, n)
    matrices, as one real block of size 2n.  x and s come back as (n, n)
    complex matrices; y, the objectives and the residuals are unchanged by
    the embedding."""
    res = solve_sdp(embed(c_mat)[None], embed(ops)[:, None], b)
    return replace(res, x=_unembed(res.x[0]), s=0.5 * _unembed(res.s[0]))


def greedy_rows(ops: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The reference for `dmrate.sdp.independent_rows`: double Gram-Schmidt
    over the rows in order.  Returns the kept indices and each row's distance
    from the span of the rows before it over its norm (0 for a zero row);
    a row is kept when that ratio exceeds RANK_TOL."""
    vecs = ops.reshape(len(ops), -1)
    kept: list[int] = []
    basis: list[np.ndarray] = []
    ratios = np.zeros(len(ops))
    for i, row in enumerate(vecs):
        v = row.copy()
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        for _ in range(2):  # the second pass restores orthogonality
            for b in basis:
                v -= np.dot(b, v) * b
        ratios[i] = np.linalg.norm(v) / norm0
        if ratios[i] > RANK_TOL:
            kept.append(i)
            basis.append(v / np.linalg.norm(v))
    return kept, ratios
