"""Check each CLI report against the values the generator computed.

The CLI rounds every reported number to 6 significant digits, so two
values agree when they differ by at most ``REL`` of their size: half a
unit in the 6th digit (at most 5e-6 of the value) plus float noise. A
value wrong in its 4th digit is off by about 1e-4 of its size and fails.
"""

from __future__ import annotations

import json

REL = 6e-6
_FLOOR = 1e-15
_HEADLINE = ("H_I", "H_S", "M", "X")


def _close(problems: list[str], what: str, got, want: float, scale: float | None = None) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        problems.append(f"{what}: expected a number, got {got!r}")
        return
    size = max(abs(got), abs(want)) if scale is None else scale
    if abs(got - want) > REL * size + _FLOOR:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _at_most(problems: list[str], what: str, low: float, high: float) -> None:
    if low > high + REL * max(abs(low), abs(high)) + _FLOOR:
        problems.append(f"{what}: {low!r} exceeds {high!r}")


def _dashboard(out: dict, want: dict, problems: list[str]) -> None:
    dash = out["dashboard"]
    for key in (*_HEADLINE, "rho"):
        _close(problems, key, dash[key], want[key])
    for eff, key in (("N_I", "H_I"), ("N_S", "H_S"), ("N_M", "M")):
        _close(problems, eff, dash[eff], 1.0 / want[key])


def _shock(out: dict, want: dict, problems: list[str]) -> None:
    for key in ("severity", "parallel_term", "bound"):
        _close(problems, key, out[key], want[key])
    par, perp = out["parallel_term"], out["perp_term"]
    _close(problems, "parallel_term + perp_term", par + perp, out["severity"],
           abs(par) + abs(perp) + abs(out["severity"]))
    _at_most(problems, "severity", out["severity"], out["bound"])


def _alpha(out: dict, want: dict, problems: list[str]) -> None:
    for key in ("variance", "worst_case_bound", "isotropic_capacity"):
        _close(problems, key, out[key], want[key])
    _at_most(problems, "variance", out["variance"], out["worst_case_bound"])


def _decompose(out: dict, want: dict, problems: list[str]) -> None:
    if (len(out["investors"]), len(out["stocks"])) != (want["n"], want["m"]):
        problems.append(f"shape {len(out['investors'])}x{len(out['stocks'])}, expected {want['n']}x{want['m']}")
        return
    for side in ("investors", "stocks"):
        terms = [row["dependence_contribution"] for row in out[side]]
        _close(problems, f"{side} contributions sum", sum(terms), want["X"], sum(map(abs, terms)))
        _close(problems, f"{side} mass sum", sum(row["mass"] for row in out[side]), 1.0)


def _structural(out: dict, want: dict, problems: list[str]) -> None:
    for key in _HEADLINE:
        _close(problems, f"before.{key}", out["before"][key], want["before"][key])
        _close(problems, f"after.{key}", out["after"][key], want["after"][key])
        predicted = out["predicted_after"][key]
        if predicted is not None:
            _close(problems, f"predicted_after.{key}", predicted, out["after"][key])


def _aggregate(out: dict, want: dict, problems: list[str]) -> None:
    _close(problems, "total", out["total"], want["X"])
    _close(problems, "between", out["between"], want["between"])
    between, within = out["between"], out["within"]
    _close(problems, "between + within", between + within, out["total"],
           abs(between) + abs(within) + abs(out["total"]))
    if len(out["groups"]) != want["groups"]:
        problems.append(f"{len(out['groups'])} groups, expected {want['groups']}")


def _renyi(out: dict, want: dict, problems: list[str]) -> None:
    exponent = 1.0 / (1.0 - want["alpha"])
    for side in ("H_I", "H_S", "M"):
        _close(problems, f"{side}_alpha", out[f"{side}_alpha"], want[f"{side}_alpha"])
    for eff, side in (("N_I", "H_I"), ("N_S", "H_S"), ("N_M", "M")):
        _close(problems, f"{eff}_alpha", out[f"{eff}_alpha"], want[f"{side}_alpha"] ** exponent)


def _psi(out: dict, want: dict, problems: list[str]) -> None:
    _close(problems, "m_observed", out["m_observed"], want["M"])
    _at_most(problems, "m_min", out["m_min"], want["M"])
    _at_most(problems, "M", want["M"], out["m_max"])
    _at_most(problems, "m_max", out["m_max"], min(want["H_I"], want["H_S"]))
    if not 0.0 <= out["psi"] <= 1.0:
        problems.append(f"psi {out['psi']!r} outside [0, 1]")
    if not isinstance(out["certified"], bool):
        problems.append(f"certified {out['certified']!r} is not a boolean")


CHECKS = {
    "dashboard": _dashboard,
    "shock": _shock,
    "alpha": _alpha,
    "decompose": _decompose,
    "merge": _structural,
    "drop-stock": _structural,
    "dilute": _structural,
    "aggregate": _aggregate,
    "renyi": _renyi,
    "psi": _psi,
}


def check(call: dict, text: str) -> list[str]:
    """Problems found in one call's JSON report; empty when it is correct."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems: list[str] = []
    try:
        CHECKS[call["command"]](out, call["expect"], problems)
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks an expected field: {exc!r}")
    return problems
