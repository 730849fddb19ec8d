"""The three command-line workloads: seeded inputs, the command, the output check.

Each workload draws every input from its seed with the benchmark's own
code (configs and episode CSVs), so ``bailrule`` only ever reads them.
The fourth workload, ``model``, is a library session; it lives in
``session.py`` because it runs inside a worker process.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

import oracles

#: README "Tolerances": the estimator recovers each knot within +-0.05.
KNOT_TOL = 0.05
#: Episode noise, as in README's estimator contract.
NOISE = 0.02
#: Relative rounding of the CLI's ``%.6g`` report fields.
PRINT_RTOL = 1e-5


class CheckError(Exception):
    """An operation's output disagrees with the benchmark's oracle."""


def _cfg(sections) -> str:
    lines = []
    for name, entries in sections:
        lines.append(f"[{name}]")
        lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in entries.items()]
        lines.append("")
    return "\n".join(lines)


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _mechanism(rng, theta_lo, theta_hi) -> dict:
    """A rule on [0, 3] whose cutoffs sit at the requested shocks."""
    omega_b = float(rng.uniform(1.6, 2.4))
    c = float(rng.uniform(3.0, 5.0))
    omega_T = omega_b * theta_lo
    return {
        "omega_b": omega_b,
        "c": c,
        "omega_T": omega_T,
        "T": float(rng.uniform(0.1, 0.3)),
        "b_bar": (omega_b * theta_hi - omega_T) / c,
        "theta_bar": 3.0,
    }


def _report_fields(line: str) -> dict:
    return {k: float(v) for k, v in (tok.split("=", 1) for tok in line.split() if "=" in tok)}


class Audit:
    """Two regimes of ``n`` episodes: before with cap overrides, after an
    announced bundle-consistent shift (omega_T up, b_bar down)."""

    name = "audit"
    entry = "bailrule.cli"
    item = "episodes audited"
    n = 2000

    def __init__(self, rng, workdir: Path):
        lo, hi = float(rng.uniform(0.7, 0.9)), float(rng.uniform(1.8, 2.1))
        before = _mechanism(rng, lo, hi)
        d_lo, d_hi = float(rng.uniform(0.15, 0.25)), float(rng.uniform(-0.1, 0.05))
        after = dict(before, omega_T=before["omega_b"] * (lo + d_lo))
        after["b_bar"] = (before["omega_b"] * (hi + d_hi) - after["omega_T"]) / before["c"]
        self.knots = {"before": (lo, hi), "after": (lo + d_lo, hi + d_hi)}

        files = {}
        for regime, m in (("before", before), ("after", after)):
            theta = rng.uniform(0.0, m["theta_bar"], self.n)
            b = oracles.schedule(theta, m)
            if regime == "before":
                # 3% of the capped episodes are paid through the cap
                hit = (theta > hi) & (rng.random(self.n) < 0.03)
                b = b + hit * rng.uniform(0.1, 0.2, self.n)
            b = np.maximum(b + rng.normal(0.0, NOISE, self.n), 0.0)
            rows = "".join(f"{t!r},{v!r}\n" for t, v in zip(theta.tolist(), b.tolist()))
            files[regime] = _write(workdir / f"{regime}.csv", "theta,b\n" + rows)
        announced = {
            "delta_omega_T": after["omega_T"] - before["omega_T"],
            "delta_b_bar": after["b_bar"] - before["b_bar"],
        }
        files["config"] = _write(
            workdir / "audit.cfg", _cfg([("mechanism", before), ("announced", announced)])
        )
        self.files = files
        self.sizes = {"episodes_per_regime": self.n, "regimes": 2}
        self.items_per_op = 2 * self.n

    def argv(self, k: int, out: Path) -> list:
        f = self.files
        return ["audit", "--config", str(f["config"]), "--data", str(f["before"]),
                "--data", str(f["after"]), "--out-dir", str(out)]

    def check(self, k: int, out: Path) -> None:
        report = (out / "audit_report.txt").read_text(encoding="utf-8").splitlines()
        fitted = {}
        for line in report:
            s = line.strip()
            if s.startswith("s=") and "before" not in fitted:
                fitted["before"] = _report_fields(s)
            elif s.startswith("fitted after:"):
                fitted["after"] = _report_fields(s)
        for regime, (lo, hi) in self.knots.items():
            got = fitted.get(regime)
            if got is None:
                raise CheckError(f"no fitted knots for the {regime} regime")
            if abs(got["theta1"] - lo) > KNOT_TOL or abs(got["theta2"] - hi) > KNOT_TOL:
                raise CheckError(
                    f"{regime} knots {got['theta1']}, {got['theta2']} not within "
                    f"{KNOT_TOL} of {lo:.6g}, {hi:.6g}"
                )
        if not any(line.strip() == "announced change match: pass" for line in report):
            raise CheckError("announced change does not match the attributed shift")
        with open(out / "classifications.csv", "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.n:
            raise CheckError(f"{rows} classification rows, expected {self.n}")


class Allocate:
    """``n`` heterogeneous municipalities under a binding treasury, drawn so
    that zero, budget-rationed and capped transfers all occur."""

    name = "allocate"
    entry = "bailrule.cli"
    item = "municipalities"
    n = 120

    def __init__(self, rng, workdir: Path):
        n = self.n
        theta_bar = rng.uniform(2.0, 4.0, n)
        m = {
            "omega_b": rng.uniform(1.0, 3.0, n),
            "c": rng.uniform(2.0, 6.0, n),
            "omega_T": rng.uniform(0.0, 1.5, n),
            "T": theta_bar * rng.uniform(0.0, 0.3, n),
            "b_bar": rng.uniform(0.1, 0.6, n),
            "theta_bar": theta_bar,
        }
        theta = theta_bar * rng.random(n)
        admissible = theta >= m["T"]
        self.margin = np.where(admissible, m["omega_b"] * theta - m["omega_T"], 0.0)
        self.c, self.cap = m["c"], m["b_bar"]
        unconstrained = oracles.split_at(0.0, self.margin, self.c, self.cap).sum()
        budget = float(unconstrained * rng.uniform(0.4, 0.6))
        self.budget = budget
        self.lam = oracles.clearing_price(self.margin, self.c, self.cap, budget)
        self.flags = ["zero" if f <= 0.0 else "cap" if f >= cap else "budget"
                      for f, cap in zip((self.margin - self.lam) / self.c, self.cap)]
        missing = {"zero", "budget", "cap"} - set(self.flags)
        if missing:
            raise RuntimeError(f"generated problem has no {sorted(missing)} municipality")

        self.names = [f"m{i:04d}" for i in range(n)]
        sections = [("treasury", {"budget": budget})]
        for i, name in enumerate(self.names):
            entries = {k: float(v[i]) for k, v in m.items()}
            entries["theta"] = float(theta[i])
            sections.append((f"municipality {name}", entries))
        self.files = {"config": _write(workdir / "towns.cfg", _cfg(sections))}
        self.sizes = {"municipalities": n}
        self.items_per_op = n

    def argv(self, k: int, out: Path) -> list:
        return ["allocate", "--config", str(self.files["config"]), "--out-dir", str(out)]

    def check(self, k: int, out: Path) -> None:
        lines = (out / "allocation.txt").read_text(encoding="utf-8").splitlines()
        head = {}
        for line in lines[:5]:
            key, _, value = line.partition(":")
            head[key.strip()] = value.strip()
        lam = float(head["shadow price"])
        total = float(head["allocated total"])
        if abs(lam - self.lam) > PRINT_RTOL * abs(self.lam) + 1e-12:
            raise CheckError(f"shadow price {lam} differs from exact {self.lam!r}")
        if total > self.budget * (1.0 + PRINT_RTOL):
            raise CheckError(f"allocated total {total} exceeds budget {self.budget!r}")

        rows = [line.split() for line in lines[7:7 + self.n]]
        if len(rows) != self.n or [r[0] for r in rows] != self.names:
            raise CheckError("allocation table does not list every municipality in order")
        b = np.array([float(r[2]) for r in rows])
        want = oracles.split_at(self.lam, self.margin, self.c, self.cap)
        bad = np.abs(b - want) > PRINT_RTOL * np.abs(want) + 1e-9
        if bad.any():
            i = int(np.argmax(bad))
            raise CheckError(f"{self.names[i]} gets {b[i]}, exact split gives {want[i]!r}")
        if b.sum() > self.budget * (1.0 + PRINT_RTOL):
            raise CheckError(f"listed transfers sum to {b.sum()}, above the budget")
        for name, bi, cap, flag, want in zip(self.names, b, self.cap, (r[3] for r in rows), self.flags):
            consistent = {"zero": bi == 0.0, "cap": abs(bi - cap) <= PRINT_RTOL * cap,
                          "budget": 0.0 < bi <= cap * (1.0 + PRINT_RTOL)}.get(flag, False)
            if flag != want or not consistent:
                raise CheckError(f"{name} flagged {flag} with transfer {bi}, exact split: {want}")
        ordering = [line.split()[0] for line in lines[8 + self.n:] if "theta_hi=" in line]
        if sorted(ordering) != self.names:
            raise CheckError("cap-hit ordering does not list every municipality once")


class Simulate:
    """``n`` episodes: beta shocks, a parallel floor, screening, an override
    shift above the cap cutoff, and payout noise."""

    name = "simulate"
    entry = "bailrule.cli"
    item = "episodes written"
    n = 80_000
    #: Simulation seeds cycle through this many values, so from the fifth
    #: operation on every output is a same-seed rerun of an earlier one.
    seed_pool = 4

    def __init__(self, rng, workdir: Path):
        m = _mechanism(rng, float(rng.uniform(0.5, 0.9)), float(rng.uniform(1.6, 2.4)))
        sections = [
            ("mechanism", m),
            ("distribution", {"family": "beta", "a": float(rng.uniform(1.5, 3.0)),
                              "b": float(rng.uniform(1.5, 3.0))}),
            ("floor", {"type": "parallel", "a": float(rng.uniform(0.02, 0.08))}),
            ("simulate", {"n": self.n, "screening_beta": 0.9 * m["b_bar"],
                          "override_shift": float(rng.uniform(0.02, 0.06))}),
        ]
        self.theta_bar = m["theta_bar"]
        self.base_seed = int(rng.integers(2**31))
        self.files = {"config": _write(workdir / "sim.cfg", _cfg(sections))}
        self.sizes = {"episodes": self.n}
        self.items_per_op = self.n
        self.digests = {}

    def argv(self, k: int, out: Path) -> list:
        seed = self.base_seed + k % self.seed_pool
        return ["simulate", "--config", str(self.files["config"]), "--seed", str(seed),
                "--noise", repr(NOISE), "--out-dir", str(out)]

    def check(self, k: int, out: Path) -> None:
        path = out / "episodes.csv"
        digest = sha256(path)
        seen = self.digests.setdefault(k % self.seed_pool, digest)
        if seen != digest:
            raise CheckError("same-seed rerun wrote different bytes")
        if k >= self.seed_pool:
            return  # byte-identical to an output already checked below
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            body = fh.read()
        if header != "theta,b":
            raise CheckError(f"header {header!r}")
        values = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float).reshape(-1, 2)
        if values.shape[0] != self.n:
            raise CheckError(f"{values.shape[0]} rows, expected {self.n}")
        theta, b = values[:, 0], values[:, 1]
        if not (np.all(np.isfinite(b)) and np.all(b >= 0.0)):
            raise CheckError("a payout is negative or not finite")
        if not (np.all(theta >= 0.0) and np.all(theta <= self.theta_bar)):
            raise CheckError("a shock lies outside the support")


CLI_WORKLOADS = {w.name: w for w in (Audit, Allocate, Simulate)}
