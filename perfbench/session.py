"""The ``model`` workload: one library session per operation, in a worker.

A session on a seed-drawn instance calls what the command line never
reaches: ``empirical_cap`` and ``aggregate_support`` on a 2001-member
``FiniteLegislature`` at 2000 shocks, ``tlc_policy_general`` with a concave
marginal benefit at 2000 shocks, 20,000 scalar ``tlc_policy_linear`` calls
and ``apply_equity_floor`` with a custom floor.

Run as ``python session.py SEED SPANS`` with ``bailrule`` importable, the
worker imports the package, answers ``ready`` with its import time, then
runs one session per ``{"k": ..., "trace": ...}`` line on stdin and
answers each with one JSON line.  With ``trace`` the session runs under
the span tracer; the spans go to SPANS when stdin closes.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import numpy as np

import oracles
import spans

MEMBERS = 2001
SHOCKS = 2000
SCALAR_CALLS = 20_000
#: README "Tolerances": KKT residuals of the general solver.
KKT_TOL = 1e-8
#: Shocks per session whose consent cap is recounted by brute force.
CAP_SAMPLES = 4
#: Closed-form values are compared to this absolute tolerance.
VALUE_TOL = 1e-12


class Instance:
    """Everything a session needs, drawn from the workload seed."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        w_b = rng.uniform(0.55, 0.75)
        self.weights = rng.dirichlet(np.ones(MEMBERS)) * w_b
        self.taxpayer = 1.0 - float(self.weights.sum())
        self.thresholds = rng.uniform(0.05, 1.5, MEMBERS)
        self.tau = float(w_b * rng.uniform(0.3, 0.7))
        omega_b = float(rng.uniform(1.6, 2.4))
        self.rule = {
            "omega_b": omega_b,
            "c": float(rng.uniform(3.0, 5.0)),
            "omega_T": omega_b * float(rng.uniform(0.5, 0.9)),
            "T": float(rng.uniform(0.1, 0.3)),
            "b_bar": float(rng.uniform(0.2, 0.4)),
            "theta_bar": 3.0,
        }
        self.kappa = float(rng.uniform(0.5, 2.0))
        self.shocks = rng.uniform(0.0, 3.0, SHOCKS)
        self.scalar_shocks = rng.uniform(0.0, 3.0, SCALAR_CALLS).tolist()
        knots = np.sort(rng.uniform(0.3, 2.7, 4))
        self.floor = (knots, np.sort(rng.uniform(0.0, self.rule["b_bar"], 4)))
        self.sizes = {"members": MEMBERS, "shocks": SHOCKS, "scalar_calls": SCALAR_CALLS}

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in (self.weights, self.thresholds, self.shocks, np.array(self.scalar_shocks),
                     *self.floor, np.array([self.tau, self.kappa, *self.rule.values()])):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        return h.hexdigest()

    def benefit(self, counter=None):
        """Marginal benefit omega_b * theta / (1 + kappa * b): the derivative of
        a concave benefit, falling in b and rising in theta."""
        omega_b, kappa = self.rule["omega_b"], self.kappa
        if counter is None:
            return lambda b, theta: omega_b * theta / (1.0 + kappa * b)

        def counted(b, theta):
            counter[0] += 1
            return omega_b * theta / (1.0 + kappa * b)

        return counted


def run_session(br, inst: Instance, g) -> dict:
    """One operation: the library calls, through ``br`` attribute lookups so
    that the tracer's rebinding sees them."""
    leg = br.FiniteLegislature(inst.weights, inst.thresholds, inst.taxpayer)
    caps, support = [], []
    for theta in inst.shocks.tolist():
        cap = br.empirical_cap(theta, leg, inst.tau)
        caps.append(cap)
        support.append(br.aggregate_support(cap, theta, leg))
    params = br.MechanismParams(**inst.rule)
    mb = br.MarginalBenefit(g)
    general = [br.tlc_policy_general(theta, mb, params) for theta in inst.shocks.tolist()]
    linear = [br.tlc_policy_linear(theta, params) for theta in inst.scalar_shocks]
    floored, _label = br.apply_equity_floor(
        inst.shocks, br.CustomFloor(tuple(inst.floor[0]), tuple(inst.floor[1])), params
    )
    return {"caps": caps, "support": support, "general": general, "linear": linear,
            "floored": floored}


def check_session(inst: Instance, out: dict, k: int) -> None:
    """Raise ValueError where the session disagrees with the oracles."""
    r = inst.rule
    g = inst.benefit()
    worst = max(
        oracles.kkt_residual(b, t, g, r["omega_T"], r["c"], r["T"], r["b_bar"])
        for b, t in zip(out["general"], inst.shocks.tolist())
    )
    if not worst <= KKT_TOL:
        raise ValueError(f"tlc_policy_general KKT residual {worst:.3g} > {KKT_TOL}")

    for j in range(CAP_SAMPLES):
        i = (k * CAP_SAMPLES + j) * 7919 % SHOCKS
        want = oracles.brute_cap(inst.shocks[i], inst.weights, inst.thresholds, inst.tau)
        if out["caps"][i] != want:
            raise ValueError(f"empirical_cap {out['caps'][i]!r} at shock {i}, vote count gives {want!r}")
    caps = np.array(out["caps"])
    if np.any(np.array(out["support"])[caps > 0] < inst.tau):
        raise ValueError("a consent cap fails its own quota")

    lin = oracles.schedule(np.array(inst.scalar_shocks), r)
    if np.max(np.abs(np.array(out["linear"]) - lin)) > VALUE_TOL:
        raise ValueError("tlc_policy_linear differs from the closed form")
    theta = inst.shocks
    raised = np.maximum(np.interp(theta, *inst.floor), (r["omega_b"] * theta - r["omega_T"]) / r["c"])
    floored = np.where(theta < r["T"], 0.0, np.clip(raised, 0.0, r["b_bar"]))
    if np.max(np.abs(np.asarray(out["floored"]) - floored)) > VALUE_TOL:
        raise ValueError("apply_equity_floor differs from the floored schedule")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def serve(seed: int, spans_path: str) -> None:
    t0 = time.perf_counter()
    import bailrule as br

    import_s = time.perf_counter() - t0
    inst = Instance(seed)
    tracer = spans.Tracer()
    send = sys.stdout
    send.write(json.dumps({"ready": True, "import_s": import_s, "module": br.__file__,
                           "inputs_sha256": inst.digest(), "sizes": inst.sizes}) + "\n")
    send.flush()
    for line in sys.stdin:
        req = json.loads(line)
        traced = bool(req["trace"])
        evals = [0]
        g = inst.benefit(evals if traced else None)
        restore = []
        if traced:
            tracer.begin_op(req["k"])
            restore = spans.install(tracer)
        cpu0 = _cpu_s()
        start = time.perf_counter()
        try:
            out = run_session(br, inst, g)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
        reply = {"wall_s": wall, "cpu_s": cpu}
        if traced:
            spans.uninstall(restore)
            layers = tracer.end_op()
            layers["counts"]["benefit_evals"] = evals[0]
            reply["layers"] = layers
        reply["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if error is None:
            try:
                check_session(inst, out, req["k"])
            except ValueError as exc:
                error = str(exc)
        reply["error"] = error
        send.write(json.dumps(reply) + "\n")
        send.flush()
    if len(tracer.start):
        tracer.dump(spans_path)


if __name__ == "__main__":
    serve(int(sys.argv[1]), sys.argv[2])
