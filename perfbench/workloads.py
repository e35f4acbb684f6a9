"""The four benchmark workloads: CLI commands per seed, and the oracle error.

A workload is a list of ``qflab`` command lines run one after another in one
process.  Every Monte Carlo command uses ``--seed 0``, the CLI's default and
the README's example.  A workload seed would not do: the CLI gates each Monte
Carlo price with a 3-standard-error test, which by design fails for 0.27 % of
seeds, so about one ``vanilla`` ladder in 37 would fail with nothing wrong.
The workload seed sets only the order of the ``vanilla`` ladder, which must
not change any report; the other workloads are the same on every seed.

Each workload also names one deterministic accuracy figure, ``oracle_err``:
the largest absolute deviation of its numerical result from an exact
reference, read from the reports.  It keeps a faster path from buying speed
with accuracy.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable

STRIKES = (80, 90, 100, 110, 120)


@dataclass(frozen=True)
class Oracle:
    """Oracle error of one pass, with the benchmark's own tolerance when it adds a check."""

    error: float
    tolerance: float | None = None


@dataclass(frozen=True)
class Workload:
    commands: Callable[[int], list[list[str]]]
    oracle: Callable[[list[dict]], Oracle]


def _measured(reports: list[dict], check: str) -> float:
    return max(c["measured"] for r in reports for c in r["checks"] if c["name"] == check)


def _verify(seed: int) -> list[list[str]]:
    return [["verify-algebra", "--f", "poly:0,0,0.5", "--alpha", "1", "--beta", "1",
             "--xmin", "-5", "--xmax", "5", "--n", "1001"]]


def _spectrum(seed: int) -> list[list[str]]:
    return [["spectrum", "--w", w, "--k", "6", "--n", "2001"] for w in ("poly:0,1", "poly:0,1,0,0.1")]


def _vanilla(seed: int) -> list[list[str]]:
    ladder = [(payoff, k) for payoff in ("call", "put") for k in STRIKES]
    random.Random(seed).shuffle(ladder)
    return [["price", "--payoff", payoff, "--strike", str(k), "--method", "all",
             "--paths", "1000000", "--seed", "0"] for payoff, k in ladder]


def _barrier(seed: int) -> list[list[str]]:
    return [["price", "--payoff", "do-call", "--barrier", "80", "--method", "all",
             "--paths", "200000", "--seed", "0"]]


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def down_and_out_call(s: float, k: float, b: float, r: float, sigma: float, t: float) -> float:
    """Continuously monitored down-and-out call for b <= k (Merton 1973)."""
    vol = sigma * math.sqrt(t)
    lam = (r + 0.5 * sigma**2) / sigma**2
    d1 = (math.log(s / k) + (r + 0.5 * sigma**2) * t) / vol
    vanilla = s * _norm_cdf(d1) - k * math.exp(-r * t) * _norm_cdf(d1 - vol)
    y = math.log(b * b / (s * k)) / vol + lam * vol
    knocked_in = (s * (b / s) ** (2 * lam) * _norm_cdf(y)
                  - k * math.exp(-r * t) * (b / s) ** (2 * lam - 2) * _norm_cdf(y - vol))
    return vanilla - knocked_in


def _barrier_oracle(reports: list[dict]) -> Oracle:
    p = reports[0]["parameters"]
    exact = down_and_out_call(p["spot"], p["strike"], p["barrier"], p["rate"], p["sigma"], p["maturity"])
    # the same PDE tolerance the CLI applies against the vanilla closed form
    return Oracle(abs(p["prices"]["pde"] - exact), max(1e-2, 2e-3 * abs(exact)))


WORKLOADS = {
    "verify": Workload(_verify, lambda reports: Oracle(_measured(reports, "canonical_commutator"))),
    "spectrum": Workload(_spectrum, lambda reports: Oracle(_measured(reports, "partner_pairing_gap"))),
    "vanilla": Workload(_vanilla, lambda reports: Oracle(_measured(reports, "pde_vs_closed"))),
    "barrier": Workload(_barrier, _barrier_oracle),
}
