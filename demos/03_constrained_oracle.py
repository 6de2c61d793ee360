"""The interpolation family is not a heuristic: an exact LP oracle agrees with it.

constrained_oracle minimizes E||X - Xhat||^2 over ALL stochastic decoders
subject to W2^2(p_X, p_Xhat) <= P, knowing nothing about the interpolation
construction. Its optimum D*(P) lands on the predicted curve
(1 + (1 - alpha)^2) * D_d with alpha = sqrt(P / P_d). The LP runs over a
finite output support built from the interpolation images of an alpha grid,
so the budgets below are chosen as alpha^2 * P_d on that grid; off-grid
budgets would sit slightly above the curve for support reasons alone.
universal_encoder_check then sets the MMSE encoder's attained oracle value
against every rival partition at the same rate, each scored by its exact
closed-form optimum D_d + (sqrt(P_d) - sqrt(P))_+^2 from one W2 LP, to confirm
the MMSE partition is the right one at every budget simultaneously.

Run: python3 demos/03_constrained_oracle.py
"""
from dplab import (
    alpha_for_perception,
    builtin_source,
    constrained_oracle,
    default_oracle_support,
    evaluate_point,
    exhaustive_optimal_encoder,
    perceptual_decoder_for,
    predicted_distortion,
    universal_encoder_check,
)


def main() -> None:
    source = builtin_source("u4")
    k = 2
    enc, gd, d_d = exhaustive_optimal_encoder(source, k)
    gp = perceptual_decoder_for(source, enc)
    p_d = evaluate_point(source, enc, gd, gp, 1.0).p_d
    sup = default_oracle_support(source, gd, gp)
    print(f"source: u4, rate 1, D_d = {d_d:.6f}, P_d = {p_d:.6f}")
    print(f"oracle output support: {sup.shape[0]} candidate points")
    print()

    print(f"{'alpha':>6}{'P budget':>12}{'D* (LP)':>14}{'D predicted':>14}{'gap':>12}")
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        budget = a * a * p_d
        d_star, _ = constrained_oracle(source, enc, budget, sup)
        alpha = alpha_for_perception(budget, p_d)
        d_pred = predicted_distortion(alpha, d_d)
        print(f"{a:>6.2f}{budget:>12.6f}{d_star:>14.8f}{d_pred:>14.8f}"
              f"{abs(d_star - d_pred):>12.3e}")

    print()
    print("universality: minimum over every encoder at the same rate")
    report = universal_encoder_check(source, k, [0.0, 0.5 * p_d, p_d])
    for row in report.rows:
        print(f"  P = {row.p_budget:<10.6f} mmse-encoder D* = {row.d_star_mmse:.8f}"
              f"   best rival D* = {row.d_star_best:.8f}   rel gap = {row.rel_gap:.3e}")
    print(f"assignments enumerated per budget: {k ** len(source.probs)}")
    print(f"verdict: {'no encoder beats the MMSE partition' if report.ok() else 'BEATEN'}")


if __name__ == "__main__":
    main()
