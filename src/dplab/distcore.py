"""Finite discrete distributions, joint source-code laws, and conditionals.

Everything downstream (transport, codecs, tradeoff sweeps) computes on the
immutable DiscreteDistribution defined here and on the (K, n) joint mass of a
source and a code, a read-only array. All probability mass is kept in double
precision with a 1e-9 drift tolerance on input and 1e-12 maintained
internally. Support points are compared bit-exactly, so callers are expected to
supply the points they mean (no epsilon merging).
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

# Mass drift accepted from callers vs guaranteed after canonicalization.
INPUT_MASS_TOL = 1e-9
MASS_TOL = 1e-12
# gaussian_grid refuses more points than this before allocating the grid
GRID_CAP = 10**6


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def as_points(a) -> np.ndarray:
    """float64 point array; a flat array becomes one column."""
    a = np.asarray(a, dtype=np.float64)
    return a.reshape(-1, 1) if a.ndim == 1 else a


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability distribution on finitely many points in R^d.

    points: (n, d) float64, lexicographically sorted, pairwise distinct rows.
    probs:  (n,) float64, strictly positive, summing to 1 within 1e-12.

    Construct through make_distribution, which canonicalizes; the raw
    constructor trusts its arguments.
    """

    points: np.ndarray
    probs: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _unique_rows(a: np.ndarray) -> tuple:
    """(rows, inverse): the distinct rows of a (n, d) array in lexicographic
    order, and the index into rows of each input row, so rows[inverse] == a.

    −0.0 is read as +0.0 first, so a row's bytes never depend on which member
    of a signed-zero group came first. For rows without NaN this gives the
    bytes of np.unique(a + 0.0, axis=0, return_inverse=True) in about half its
    time: one stable lexsort over the columns and a row-change mask.

    This is the library's only rule for which points are distinct; every
    support and decoder table is deduplicated here. Two np.unique calls stay
    independent of it on purpose: checks' canonical_support check, which
    witnesses this rule from outside, and w_1d_closed_form's 1-D atom merge.
    """
    a = a + 0.0
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def make_distribution(points, probs) -> DiscreteDistribution:
    """Build a canonical DiscreteDistribution from raw points and probabilities.

    Canonical form: rows sorted lexicographically (−0.0 read as +0.0), exact
    duplicate points merged by summing their probabilities, zero-mass points
    dropped; any permutation of the input gives the same bytes. The total mass
    must be 1 within 1e-9; it is renormalized only if it drifts by more than
    1e-12, which makes a second application bit-identical to the first.
    """
    pts = as_points(points)
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise ValueError("points must be scalars or same-dimension vectors")
    pr = np.asarray(probs, dtype=np.float64).reshape(-1)
    if pts.shape[0] != pr.shape[0]:
        raise ValueError(
            f"dimension mismatch: {pts.shape[0]} points vs {pr.shape[0]} probs"
        )
    if pts.shape[0] == 0:
        raise ValueError("empty support")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if not np.isfinite(pr).all():
        raise ValueError("probs must be finite")
    if (pr < 0).any():
        raise ValueError("negative prob")
    # Masses are summed in (point, mass) order, so the total and the merged
    # duplicates are bit-identical under any permutation of the input.
    uniq, inverse = _unique_rows(pts)
    order = np.lexsort((pr, inverse))
    total = float(pr[order].sum())
    if abs(total - 1.0) > INPUT_MASS_TOL:
        raise ValueError(f"probability mass {total!r} deviates from 1 by more than 1e-9")
    if abs(total - 1.0) > MASS_TOL:
        pr = pr / total

    merged = np.zeros(uniq.shape[0], dtype=np.float64)
    np.add.at(merged, inverse[order], pr[order])
    keep = merged > 0.0
    return DiscreteDistribution(_readonly(uniq[keep]), _readonly(merged[keep]))


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) squared Euclidean distances between the rows of a (n, d) and b (m, d)."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("nmd,nmd->nm", diff, diff)


def gaussian_grid(mean: float, std: float, n: int, halfwidth: float) -> DiscreteDistribution:
    """n equally spaced points on [mean - halfwidth*std, mean + halfwidth*std]
    carrying renormalized Gaussian weights."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > GRID_CAP:
        raise ValueError(f"n must be <= {GRID_CAP}")
    if std <= 0 or halfwidth <= 0:
        raise ValueError("std and halfwidth must be > 0")
    xs = np.linspace(mean - halfwidth * std, mean + halfwidth * std, n)
    w = np.exp(-0.5 * ((xs - mean) / std) ** 2)
    return make_distribution(xs, w / w.sum())


def _json_numbers(v, depth: int) -> bool:
    """v is an int or float (not a bool), or a list of them nested <= depth deep."""
    if isinstance(v, list):
        return depth > 0 and all(_json_numbers(u, depth - 1) for u in v)
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def source_from_json(spec: dict) -> DiscreteDistribution:
    """Build a source from a parsed JSON source spec.

    Two forms are accepted:
      {"points": [[..], ..], "probs": [..]}        explicit support
      {"kind": "gaussian-grid", "mean": m, "std": s, "n": N, "halfwidth": w}
    Every numeric field must be a JSON number, and N must be integral.
    """
    if not isinstance(spec, dict):
        raise ValueError("source spec must be a JSON object")
    if spec.get("kind") == "gaussian-grid":
        fields = []
        for name in ("mean", "std", "n", "halfwidth"):
            if name not in spec:
                raise ValueError(f"gaussian-grid spec missing field {name!r}")
            v = spec[name]
            if not (_json_numbers(v, 0) and abs(v) <= sys.float_info.max) or (name == "n" and v % 1):
                raise ValueError(f"gaussian-grid field {name!r} must be a finite "
                                 + ("integer" if name == "n" else "number"))
            fields.append(int(v) if name == "n" else float(v))
        return gaussian_grid(*fields)
    if "points" in spec and "probs" in spec:
        for name in ("points", "probs"):
            if not _json_numbers(spec[name], 2):
                raise ValueError(f"source field {name!r} must hold numbers only")
        return make_distribution(spec["points"], spec["probs"])
    raise ValueError("source spec needs either 'points'/'probs' or kind 'gaussian-grid'")


def builtin_source(name: str) -> DiscreteDistribution:
    """Named sources shipped for self-contained runs: u2, u4, gauss33."""
    if name == "u2":
        return make_distribution(np.arange(2.0), np.full(2, 0.5))
    if name == "u4":
        return make_distribution(np.arange(4.0), np.full(4, 0.25))
    if name == "gauss33":
        return gaussian_grid(0.0, 1.0, 33, 4.0)
    raise ValueError(f"unknown builtin source '{name}' (have: u2, u4, gauss33)")


def joint_from_encoder(source: DiscreteDistribution, enc) -> np.ndarray:
    """Read-only (K, n) joint law of X and a deterministic code Z on [0, K):
    mass[z, i] = p(X = source.points[i], Z = z). Column sums are the source
    probabilities; row sums are p(z)."""
    assignment = np.asarray(enc.assignment, dtype=np.int64)
    if assignment.shape != (source.n,):
        raise ValueError("unassigned support point: assignment must cover every support index")
    if np.any(assignment < 0) or np.any(assignment >= enc.K):
        raise ValueError(f"code index out of range [0, {enc.K})")
    mass = np.zeros((enc.K, source.n), dtype=np.float64)
    mass[assignment, np.arange(source.n)] = source.probs
    return _readonly(mass)


def conditional_x_given_z(source: DiscreteDistribution, mass: np.ndarray,
                          z: int) -> DiscreteDistribution:
    """p_{X | Z=z} from the (K, n) joint mass; errors on a zero-mass cell."""
    if not 0 <= z < mass.shape[0]:
        raise ValueError(f"code index {z} out of range [0, {mass.shape[0]})")
    pz = float(mass[z].sum())
    if pz <= 0.0:
        raise ValueError(f"zero-mass cell {z}")
    return make_distribution(source.points, mass[z] / pz)
