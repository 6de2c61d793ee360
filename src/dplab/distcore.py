"""Finite discrete distributions, joint source-code laws, and exact expectations.

Everything downstream (transport, codecs, tradeoff sweeps) computes on the two
value types defined here. Both are immutable; all probability mass is kept in
double precision with a 1e-9 drift tolerance on input and 1e-12 maintained
internally. Support points are compared bit-exactly, so callers are expected to
supply the points they mean (no epsilon merging).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

# Mass drift accepted from callers vs guaranteed after canonicalization.
INPUT_MASS_TOL = 1e-9
MASS_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


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

    def mean(self) -> np.ndarray:
        return self.probs @ self.points

    def same_support(self, other: "DiscreteDistribution") -> bool:
        return self.points.shape == other.points.shape and bool(
            np.array_equal(self.points, other.points)
        )


def make_distribution(points, probs) -> DiscreteDistribution:
    """Build a canonical DiscreteDistribution from raw points and probabilities.

    Canonical form: rows sorted lexicographically, exact duplicate points merged
    by summing their probabilities, zero-mass points dropped. The total mass
    must be 1 within 1e-9; it is renormalized only if it drifts by more than
    1e-12, which makes a second application bit-identical to the first.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise ValueError("points must be scalars or same-dimension vectors")
    pr = np.asarray(probs, dtype=np.float64).reshape(-1)
    if pts.shape[0] != pr.shape[0]:
        raise ValueError(
            f"dimension mismatch: {pts.shape[0]} points vs {pr.shape[0]} probs"
        )
    if pts.shape[0] == 0:
        raise ValueError("empty support")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    if not np.all(np.isfinite(pr)):
        raise ValueError("probs must be finite")
    if np.any(pr < 0):
        raise ValueError("negative prob")
    # np.unique sorts rows lexicographically, which is the canonical ordering.
    # Masses are summed in (point, mass) order, so the total and the merged
    # duplicates are bit-identical under any permutation of the input.
    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.lexsort((pr, inverse))
    total = float(pr[order].sum())
    if abs(total - 1.0) > INPUT_MASS_TOL:
        raise ValueError(f"probability mass {total!r} deviates from 1 by more than 1e-9")
    if abs(total - 1.0) > MASS_TOL:
        pr = pr / total

    merged = np.zeros(uniq.shape[0], dtype=np.float64)
    np.add.at(merged, inverse[order], pr[order])
    keep = merged > 0.0
    if not np.any(keep):
        raise ValueError("empty support")
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
    if std <= 0 or halfwidth <= 0:
        raise ValueError("std and halfwidth must be > 0")
    xs = np.linspace(mean - halfwidth * std, mean + halfwidth * std, n)
    w = np.exp(-0.5 * ((xs - mean) / std) ** 2)
    return make_distribution(xs, w / w.sum())


def source_from_json(spec: Union[dict, str]) -> DiscreteDistribution:
    """Parse the JSON source spec.

    Two forms are accepted:
      {"points": [[..], ..], "probs": [..]}        explicit support
      {"kind": "gaussian-grid", "mean": m, "std": s, "n": N, "halfwidth": w}
    """
    if isinstance(spec, str):
        import json

        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise ValueError("source spec must be a JSON object")
    if spec.get("kind") == "gaussian-grid":
        try:
            return gaussian_grid(
                float(spec["mean"]), float(spec["std"]), int(spec["n"]), float(spec["halfwidth"])
            )
        except KeyError as exc:
            raise ValueError(f"gaussian-grid spec missing field {exc.args[0]!r}") from None
    if "points" in spec and "probs" in spec:
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


@dataclass(frozen=True, eq=False)
class JointXZ:
    """Joint law of the source X and a deterministic code Z on [0, K).

    mass[z, i] = p(X = x_support[i], Z = z). Column sums reproduce the source
    probabilities; total mass is 1 within 1e-12.
    """

    x_support: np.ndarray  # (n, d)
    K: int
    mass: np.ndarray  # (K, n)

    def __post_init__(self):
        if self.mass.shape != (self.K, self.x_support.shape[0]):
            raise ValueError("dimension mismatch between mass matrix and support")
        if np.any(self.mass < 0):
            raise ValueError("negative prob in joint mass")
        if abs(float(self.mass.sum()) - 1.0) > MASS_TOL:
            raise ValueError("joint mass must total 1 within 1e-12")

    def z_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def x_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=0)


def joint_from_encoder(source: DiscreteDistribution, enc) -> JointXZ:
    """Joint law p(x, z) induced by a deterministic encoder on the source."""
    assignment = np.asarray(enc.assignment, dtype=np.int64)
    if assignment.shape != (source.n,):
        raise ValueError("unassigned support point: assignment must cover every support index")
    if np.any(assignment < 0) or np.any(assignment >= enc.K):
        raise ValueError(f"code index out of range [0, {enc.K})")
    mass = np.zeros((enc.K, source.n), dtype=np.float64)
    mass[assignment, np.arange(source.n)] = source.probs
    return JointXZ(_readonly(source.points.copy()), enc.K, _readonly(mass))


def conditional_x_given_z(j: JointXZ, z: int) -> DiscreteDistribution:
    """p_{X | Z=z}; errors on a zero-mass cell."""
    if not 0 <= z < j.K:
        raise ValueError(f"code index {z} out of range [0, {j.K})")
    pz = float(j.mass[z].sum())
    if pz <= 0.0:
        raise ValueError(f"zero-mass cell {z}")
    return make_distribution(j.x_support, j.mass[z] / pz)


def expectation(obj, f: Callable[..., float]) -> float:
    """Exact expectation by weighted summation, no sampling.

    For a DiscreteDistribution, f maps a point (1-D array of length d) to a
    real. For a JointXZ, f maps (point, code) to a real.
    """
    if isinstance(obj, DiscreteDistribution):
        return float(sum(p * f(x) for x, p in zip(obj.points, obj.probs)))
    if isinstance(obj, JointXZ):
        acc = 0.0
        for z in range(obj.K):
            row = obj.mass[z]
            for i in np.nonzero(row)[0]:
                acc += row[i] * f(obj.x_support[i], z)
        return float(acc)
    raise TypeError("expectation expects a DiscreteDistribution or JointXZ")
