"""A tour of the discount-weight family.

The v-index multiplies an h-index by f(V_rate), where V_rate is the share
of citations that are genuine and f is a monotone weight fixing f(1) = 1.
The canonical choice is the square root, which estimates the h-index an
entity would have if its self-citations were removed proportionally from
every paper. This script walks the rest of the closed family and shows how
the choice of weight turns the same evidence into penalties of very
different severity.

Run from the repository root:

    python3 demos/weight_family.py
"""

from __future__ import annotations

from vindex.metrics import WeightFunction

RATES = [1.0, 0.95, 0.9, 0.8, 0.65, 0.5, 0.3, 0.1, 0.0]

WEIGHTS = [
    (spec, WeightFunction.parse(spec))
    for spec in ("unity", "x^3", "x^2", "linear", "sqrt", "x^(1/3)")
]


def show_worked_examples() -> None:
    print("Worked examples")
    print("---------------")
    root = WeightFunction.parse("sqrt")
    print(f"  sqrt:    f(0.800) = {root(0.8):.3f}   (mild: 20% self-citations cost ~10.6% of h)")
    cube = WeightFunction.parse("x^3")
    print(f"  x^3:     f(0.800) = {cube(0.8):.3f}   (harsh: the same record loses nearly half)")
    cube_root = WeightFunction.parse("x^(1/3)")
    print(f"  x^(1/3): f(0.512) = {cube_root(0.512):.3f}   (lenient: even 48.8% genuine keeps 80%)")
    print()


def show_discount_table() -> None:
    print("f(V_rate) across the family")
    print("---------------------------")
    header = "  V_rate " + "".join(f"{name:>20}" for name, _ in WEIGHTS)
    print(header)
    for rate in RATES:
        cells = "".join(f"{weight(rate):>20.3f}" for _, weight in WEIGHTS)
        print(f"  {rate:>6.2f} {cells}")
    print()
    print("Every column is non-decreasing in V_rate and reaches 1.0 at the top:")
    print("a clean record is never penalized, whatever the weight.")
    print()


def show_effect_on_h() -> None:
    print("The same author under different weights")
    print("---------------------------------------")
    h, rate = 30, 0.75
    print(f"  h = {h}, V_rate = {rate} (one citation in four comes from the authors themselves)")
    for name, weight in WEIGHTS:
        index = weight(rate) * h
        print(f"  {name:>18}: index {index:6.2f}  (keeps {index / h:5.1%})")
    print()
    print("unity reproduces the plain h-index; the convex powers are for")
    print("hard screening, the concave roots for gentle nudges, and sqrt is")
    print("the calibrated default in between.")


def main() -> None:
    show_worked_examples()
    show_discount_table()
    show_effect_on_h()


if __name__ == "__main__":
    main()
