"""The four benchmark workloads and the inputs they are built from.

Inputs are made here from the workload seed with numpy's own generator and
written as potential JSON; `hillgap.make_potential` is deliberately not
used, so a change to the package cannot change the inputs it is measured
on.  `lemma-sweep` is the exception: the `lemmas` command builds its own
potentials from `--seed`, so the seed is all it receives.

Each workload has a full size (what the benchmark measures) and a tiny size
(what `selftest.py` runs).  `expect` holds the regime the output checks
enforce on every run; the reasons each regime holds are in `why_inputs`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Potential:
    """Random rough potential on the even lattice: coefficients at
    +-2, +-4, ..., +-support with modulus (1 + 2k)^exponent at index 2k and
    uniform random phases; Hermitian means v(-k) = conj v(k).  A finite
    `l2_norm` rescales the whole sequence to that plain l2 norm."""

    support: int
    exponent: float
    hermitian: bool
    l2_norm: float | None = None

    def coefficients(self, seed: int) -> dict[int, complex]:
        rng = np.random.default_rng([0xB3C4, seed])
        half = self.support // 2
        k = np.arange(1, half + 1)
        modulus = (1.0 + 2.0 * k) ** self.exponent
        plus = modulus * np.exp(2j * math.pi * rng.random(half))
        if self.hermitian:
            minus = plus.conj()
        else:
            minus = modulus * np.exp(2j * math.pi * rng.random(half))
        if self.l2_norm is not None:
            scale = self.l2_norm / math.sqrt(
                float(np.sum(np.abs(plus) ** 2) + np.sum(np.abs(minus) ** 2))
            )
            plus, minus = plus * scale, minus * scale
        coeffs = {}
        for kk, a, b in zip(k, plus, minus):
            coeffs[int(2 * kk)] = complex(a)
            coeffs[int(-2 * kk)] = complex(b)
        return coeffs

    def write(self, seed: int, path) -> dict[int, complex]:
        coeffs = self.coefficients(seed)
        doc = {
            "parity": "even",
            "coeffs": [[k, c.real, c.imag] for k, c in sorted(coeffs.items())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return coeffs


@dataclass(frozen=True)
class Size:
    """One size of a workload: CLI arguments (without --potential, --out and
    --seed), the expected regime, and the half-window arguments the traced
    run uses for the per-stage K slopes (None: no slope on this workload)."""

    args: tuple[str, ...]
    potential: Potential | None
    expect: dict = field(default_factory=dict)
    half_args: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # why the inputs are what they are; BENCHMARK.json says why the workload exists
    why_inputs: str
    full: Size
    tiny: Size
    # layers whose spans must appear in a traced run, and layers that must not
    layers: tuple[str, ...]
    absent: tuple[str, ...] = ()

    def size(self, tiny: bool) -> Size:
        return self.tiny if tiny else self.full


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="asym-k256",
            command="asymptotics",
            why_inputs="complex rough potential, support |k| <= 128 inside the "
            "2K = 512 window, decay (1+2k)^-0.3 (alpha = 1/4 class); at K = 256 "
            "all 64 rows agree with the K = 512 confirming window",
            full=Size(
                args=("--m", "1", "--K", "256", "--n-max", "64"),
                potential=Potential(support=128, exponent=-0.3, hermitian=False),
                expect={"K": 256, "rows": 64},
                half_args=("--m", "1", "--K", "128", "--n-max", "32"),
            ),
            tiny=Size(
                # the remainder fit needs n_max >= 12
                args=("--m", "1", "--K", "96", "--n-max", "24"),
                potential=Potential(support=16, exponent=-0.3, hermitian=False),
                expect={"K": 96, "rows": 24},
                half_args=("--m", "1", "--K", "48", "--n-max", "12"),
            ),
            layers=("cli", "seqspace", "operator", "eigensolver", "riesz",
                    "asymptotics", "linalg"),
        ),
        Workload(
            name="spectrum-auto",
            command="spectrum",
            why_inputs="real (Hermitian) rough potential, support |k| <= 128, "
            "decay (1+2k)^-0.55 (alpha = 0 class); the support fits the K = 128 "
            "start window, so doubling stops at K = 256 with every row converged",
            full=Size(
                args=("--m", "1", "--n-max", "32"),
                potential=Potential(support=128, exponent=-0.55, hermitian=True),
                expect={"K": 256, "rows": 32},
            ),
            tiny=Size(
                args=("--m", "1", "--n-max", "8"),
                potential=Potential(support=16, exponent=-0.55, hermitian=True),
                expect={"K": 64, "rows": 8},
            ),
            layers=("cli", "seqspace", "operator", "eigensolver", "linalg"),
            absent=("riesz", "asymptotics"),
        ),
        Workload(
            name="riesz-k128",
            command="riesz-check",
            why_inputs="complex rough potential, support |k| <= 24, decay "
            "(1+2k)^-0.55, l2 norm 0.8; l_direct sums over the full support while "
            "the contour block is truncated at K, so the support must sit well "
            "inside the window for the 1e-8 l cross-check to hold",
            full=Size(
                args=("--m", "1", "--K", "128", "--n-max", "16", "--quad-nodes", "64"),
                potential=Potential(support=24, exponent=-0.55, hermitian=False, l2_norm=0.8),
                expect={"rows": 15},
                half_args=("--m", "1", "--K", "64", "--n-max", "16", "--quad-nodes", "64"),
            ),
            tiny=Size(
                args=("--m", "1", "--K", "32", "--n-max", "6", "--quad-nodes", "32"),
                potential=Potential(support=8, exponent=-0.55, hermitian=False, l2_norm=0.8),
                expect={"rows": 5},
                half_args=("--m", "1", "--K", "24", "--n-max", "6", "--quad-nodes", "32"),
            ),
            layers=("cli", "seqspace", "operator", "eigensolver", "riesz", "linalg"),
            absent=("asymptotics",),
        ),
        Workload(
            name="lemma-sweep",
            command="lemmas",
            why_inputs="the lemmas command at its defaults (K 64, n-max 200); it "
            "builds its own rough potentials from --seed, so only the seed is passed. "
            "Not in BENCHMARK.json: its cost depends on the seed (power-iteration "
            "counts), 4.4 s to 11.2 s per invocation across seeds 1, 11, 12, 13",
            full=Size(args=(), potential=None, expect={}),
            tiny=Size(args=("--K", "32", "--n-max", "24"), potential=None, expect={}),
            layers=("cli", "seqspace", "operator", "linalg"),
            absent=("eigensolver", "riesz", "asymptotics"),
        ),
    )
}
