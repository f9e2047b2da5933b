"""ε-power decay of the ansatz residual, level by level.

The bare profile leaves an O(ε) residual; adding the first correctors
removes it; the second correctors cancel the parameter-independent O(ε²)
part as well.  On a critical circle the log-log slopes come out close to
1, 2 and 3, with the level-2 norm strictly below level 1 at every ε.

Runtime is about 0.7 s on 2 vCPUs: one s̄ grid of 1280 sections serves
every ε.
"""

from nlscurve.geometry import CurveSpec, PotentialField, build_curve, sample_potential
from nlscurve.radial import RadialGrid, ground_state
from nlscurve.scalings import compute_exponents, critical_circle_radius
from nlscurve.ansatz import residual_study

exps = compute_exponents(2, 3)
V = PotentialField("1/(1+r2)", 2)
U = ground_state(2, 3, RadialGrid(30.0, 3000))

for A in (0.0, 0.05):
    def builder(R):
        c = build_curve(CurveSpec("circle", n=2, radius=R), 128)
        return c, sample_potential(V, c)

    rstar = critical_circle_radius(builder, (0.4, 1.2), A, exps)
    print(f"phase speed {A}: critical radius {rstar:.6f}")

    records, fits = residual_study(
        lambda M: build_curve(CurveSpec("circle", n=2, radius=rstar), M),
        V, A, exps, U, [0.2, 0.1, 0.05], base_M=256)

    print("   eps     level0       level1       level2")
    for eps in (0.2, 0.1, 0.05):
        row = {r["level"]: r["norm"] for r in records if r["eps"] == eps}
        print(f"   {eps:4}  {row[0]:.4e}   {row[1]:.4e}   {row[2]:.4e}")
    print("   slopes: " + ",  ".join(
        f"level {lv}: {fits[lv]['slope']:.2f}" for lv in (0, 1, 2)) + "\n")
