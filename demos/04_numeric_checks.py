"""Floating-point verification of the exact verdicts.

Samples points of the level set with exact-by-construction moduli, then
checks at machine precision: the defining moment identity via central
differences of the rotation flow, local freeness of the subgroup action
(matching the exact regularity verdict), and the rank of the symplectic
form restricted to the level's tangent spaces.
"""

from toricstacks import analyze, run_numeric_report
from toricstacks.corpus import projective_line, teardrop


def main():
    for name, build in (("projective line", projective_line),
                        ("teardrop", teardrop)):
        a = analyze(build())
        print(f"{name}: regular level: {a.verdict.regular}")
        rep = run_numeric_report(a, samples=50, seed=0)
        print(f"  samples on the level set: {rep.samples}")
        print(f"  worst moment-identity residual: {rep.max_moment_residual:.3e}")
        print(f"  worst level residual:           {rep.max_level_residual:.3e}")
        print(f"  local freeness agrees with exact verdict: {rep.local_freeness_agrees}")
        print(f"  restricted-form kernel rank agreement:    {rep.kernel_rank_rate:.0%}")
        print(f"  ill-conditioned samples discarded:        {rep.discarded_ill_conditioned}")


if __name__ == "__main__":
    main()
