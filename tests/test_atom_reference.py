"""Array passes over decoder atoms against their per-code loop references.

interpolate and the augmented objective's pair laws each read a stochastic
decoder's atoms, one per positive table entry, in one array pass. The loop
forms below visit the codes one at a time; both must give the same bytes,
since np.nonzero walks the table in the loops' row-major order and np.add.at
accumulates each (code, column) cell in that order.
"""
import numpy as np

from dplab.augmented import _pair_laws
from dplab.codec import DeterministicDecoder, Encoder, StochasticDecoder
from dplab.distcore import joint_from_encoder, make_distribution
from dplab.tradeoff import interpolate


def _interpolate_loops(gd, gp, alpha):
    blocks = []
    weights = []
    for z in range(gd.K):
        mask = gp.table[z] > 0
        blocks.append(alpha * gd.table[z][None, :] + (1.0 - alpha) * gp.out_support[mask])
        weights.append(gp.table[z][mask])
    # −0.0 is read as +0.0, so a signed-zero group has one set of bytes
    uniq, inverse = np.unique(np.vstack(blocks) + 0.0, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    table = np.zeros((gd.K, uniq.shape[0]))
    offset = 0
    for z in range(gd.K):
        w = weights[z]
        np.add.at(table[z], inverse[offset:offset + w.shape[0]], w)
        offset += w.shape[0]
    return StochasticDecoder(uniq, table)


def _pair_laws_loops(source, enc, tags, dec):
    pz = joint_from_encoder(source, enc).sum(axis=1)
    blocks, masses = [], []
    for z in range(enc.K):
        if pz[z] <= 0:
            continue
        row = dec.table[z]
        mask = row > 0
        reps = np.repeat(tags[z][None, :], int(mask.sum()), axis=0)
        blocks.append(np.hstack([dec.out_support[mask], reps]))
        masses.append(pz[z] * row[mask])
    out_joint = make_distribution(np.vstack(blocks), np.concatenate(masses))
    src_joint = make_distribution(np.hstack([source.points, tags[enc.assignment]]), source.probs)
    return out_joint, src_joint


def _points(rng, n, d, rounded):
    pts = rng.normal(size=(n, d)) * 2
    # a half-integer lattice makes distinct (gd, x) pairs land on one atom
    return np.round(pts * 2) / 2 if rounded else pts


def _sparse_rows(rng, k, m):
    table = rng.random((k, m)) * (rng.random((k, m)) < 0.4)
    table[np.arange(k), rng.integers(0, m, size=k)] += rng.random(k) + 0.1
    return table / table.sum(axis=1, keepdims=True)


def _case(seed):
    rng = np.random.default_rng(seed)
    d = 1 + seed % 2
    rounded = seed % 4 >= 2
    n = int(rng.integers(3, 11))
    src_pts = _points(rng, n, d, rounded)
    w = rng.random(n) + 0.05
    source = make_distribution(src_pts, w / w.sum())
    k = int(rng.integers(1, 6))
    # codes drawn from a subset leave the others as zero-mass cells
    used = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
    enc = Encoder(rng.choice(used, size=source.n), k)
    gd = DeterministicDecoder(_points(rng, k, d, rounded))
    m = int(rng.integers(1, 9))
    dec = StochasticDecoder(_points(rng, m, d, rounded), _sparse_rows(rng, k, m))
    return rng, source, enc, gd, dec


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_interpolate_matches_loop_reference():
    for seed in range(400):
        rng, _, _, gd, gp = _case(seed)
        for alpha in (0.0, 1 / 3, 0.5, 1.0, float(rng.random())):
            got, ref = interpolate(gd, gp, alpha), _interpolate_loops(gd, gp, alpha)
            assert _same(got.out_support, ref.out_support), (seed, alpha)
            assert _same(got.table, ref.table), (seed, alpha)


def test_pair_laws_match_loop_reference():
    for seed in range(400):
        _, source, enc, gd, dec = _case(seed)
        codes = np.arange(enc.K, dtype=np.float64)[:, None]
        for tags in (gd.table, codes):
            got = _pair_laws(source, enc, tags, dec)
            ref = _pair_laws_loops(source, enc, tags, dec)
            for g, r in zip(got, ref):
                assert _same(g.points, r.points), seed
                assert _same(g.probs, r.probs), seed
