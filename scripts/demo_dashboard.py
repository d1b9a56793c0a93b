#!/usr/bin/env python3
"""Build a small demo holdings book and print its full diagnostic report.

Writes the book as an ingestible CSV next to this script (so the same file
can be fed to the CLI) and then runs the dashboard through the library.
"""

from pathlib import Path

import holdscan as hs
from holdscan import cli

DEMO_ROWS = [
    ("alpha_fund", "materials", 30),
    ("alpha_fund", "utilities", 10),
    ("beta_fund", "materials", 5),
    ("beta_fund", "utilities", 25),
    ("gamma_fund", "materials", 15),
    ("gamma_fund", "utilities", 15),
]


def main() -> None:
    target = Path(__file__).with_name("demo_holdings.csv")
    lines = ["investor,stock,amount"]
    lines += [f"{inv},{stk},{amt}" for inv, stk, amt in DEMO_ROWS]
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {target}")

    matrix = cli.ingest(target)
    dash = hs.dashboard(matrix)
    dep = hs.dependence_index(matrix)
    print(cli.report(matrix, dash, dep, fmt="text"))

    score = hs.sparsity_score(matrix)
    print(f"fixed-marginal range: [{score.m_min:.6g}, {score.m_max:.6g}]")
    print(f"observed cell concentration: {score.m_observed:.6g}")
    tilted = max(
        zip(matrix.investor_labels, dep.investor_contributions), key=lambda kv: kv[1]
    )
    print(f"largest dependence contribution: {tilted[0]} ({tilted[1]:.6g})")


if __name__ == "__main__":
    main()
